//! The repository benchmark.
//!
//! Four fixed-shape workloads (`dd_seq`, `rand_4k`, `gc_tail`,
//! `multi_tenant`) drive the MobiCeal stack through its public API only:
//! `MobiCeal`, `UnlockedVolume`, `SimFs`, `IoEngine` and `MemDisk`. An
//! untraced run reports the end-to-end metrics on two clocks: host wall
//! time (what this implementation costs) and simulated time (the modelled
//! Nexus 4 eMMC and CPU the paper reports, deterministic per seed). A
//! traced run repeats every round with span recorders at each reachable
//! layer boundary, replays the public volume's calls through the layer
//! ladder, and splits the numbers into per-layer self time. See
//! `README.md` for the workloads, the metrics and how to run it.

#![forbid(unsafe_code)]

pub mod host;
pub mod json;
pub mod ladder;
pub mod metrics;
pub mod micro;
pub mod report;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod workloads;
