//! Property tests pinning `DmCrypt`'s batch path to per-block writes: the
//! same media bytes, the same plaintext on read-back, and exact
//! virtual-clock charges — one `aes_cost(total bytes)` per batch, one
//! `aes_cost(block)` per single-block call.

// Test binary: aborting on an unexpected error is the point.
#![allow(clippy::unwrap_used)]

use mobiceal_blockdev::{BlockDevice, MemDisk, ReadDest};
use mobiceal_dm::DmCrypt;
use mobiceal_sim::{CpuCostModel, SimClock, SimDuration};
use proptest::prelude::*;
use std::sync::Arc;

const BLOCKS: u64 = 48;
const BS: usize = 512;

/// Builds an ESSIV target over a fresh disk, with timing.
fn stack() -> (Arc<MemDisk>, SimClock, DmCrypt) {
    let clock = SimClock::new();
    let disk = Arc::new(MemDisk::new(BLOCKS, BS, clock.clone()));
    let crypt = DmCrypt::new_essiv(disk.clone(), &[0x42; 32])
        .with_timing(clock.clone(), CpuCostModel::nexus4());
    (disk, clock, crypt)
}

/// ESSIV batches interleave up to eight sectors' CBC chains per wide AES
/// pass. At every depth 1..=24 and 64 — full groups, ragged tails,
/// singletons — the batch path must land the same media bytes as
/// per-block `write_block`, and charge exactly `aes_cost(total)`.
#[test]
fn essiv_batch_depth_sweep_matches_per_block_writes() {
    const DISK: u64 = 160;
    let model = CpuCostModel::nexus4();
    let essiv = |clock: &SimClock| {
        let disk = Arc::new(MemDisk::new(DISK, BS, clock.clone()));
        let crypt =
            DmCrypt::new_essiv(disk.clone(), &[0x42; 32]).with_timing(clock.clone(), model.clone());
        (disk, crypt)
    };
    for depth in (1..=24u64).chain([64]) {
        let data: Vec<(u64, Vec<u8>)> = (0..depth)
            .map(|i| {
                ((i * 37 + depth) % DISK, (0..BS).map(|j| (j as u64 ^ (i * 29)) as u8).collect())
            })
            .collect();
        let writes: Vec<(u64, &[u8])> = data.iter().map(|(b, d)| (*b, d.as_slice())).collect();

        let clock_1 = SimClock::new();
        let (disk_1, single) = essiv(&clock_1);
        for (b, d) in &data {
            single.write_block(*b, d).unwrap();
        }
        let raw_clock = SimClock::new();
        let raw = MemDisk::new(DISK, BS, raw_clock.clone());
        raw.write_blocks(&writes).unwrap();

        let clock = SimClock::new();
        let (disk, crypt) = essiv(&clock);
        crypt.write_blocks(&writes).unwrap();
        assert_eq!(
            disk.snapshot().as_bytes(),
            disk_1.snapshot().as_bytes(),
            "depth {depth}: batch media must equal per-block writes"
        );
        assert_eq!(
            clock.now() - raw_clock.now(),
            model.aes_cost(depth as usize * BS),
            "depth {depth}: batch charges aes_cost(total bytes)"
        );
        // Both read entry points decrypt to the written plaintext and charge
        // exactly `aes_cost(total bytes)` over the cipherless twin's read.
        let indices: Vec<u64> = data.iter().map(|(b, _)| *b).collect();
        let expect: Vec<u8> = data.iter().flat_map(|(_, d)| d.iter().copied()).collect();
        let mut appended = Vec::new();
        for append in [false, true] {
            let (t0, raw_t0) = (clock.now(), raw_clock.now());
            let plain = if append {
                crypt.read_blocks_to(&indices, ReadDest::Append(&mut appended)).unwrap();
                std::mem::take(&mut appended)
            } else {
                crypt.read_blocks(&indices).unwrap().concat()
            };
            raw.read_blocks(&indices).unwrap();
            let raw_read = raw_clock.now() - raw_t0;
            assert_eq!(plain, expect, "depth {depth} read-back, append {append}");
            assert_eq!(
                clock.now() - t0,
                raw_read + model.aes_cost(depth as usize * BS),
                "depth {depth}: a read charges aes_cost(total bytes), append {append}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Pins the two write paths against each other: the sector-batch
    /// entry point and the per-sector loop must land bit-identical
    /// ciphertext on the medium, and each path's crypto charge must be
    /// exactly the byte-count formula — `aes_cost(total)` once per batch,
    /// `aes_cost(block)` once per call on the loop (the documented batch
    /// amortization). The crypto charge is measured as the clock delta
    /// against a cipherless twin driving the identical device-op sequence,
    /// so this also pins that real crypto speed — wide lanes, sector
    /// groups — never leaks into the virtual numbers.
    #[test]
    fn batch_and_per_sector_paths_pin_ciphertext_and_crypto_charges(
        batch in prop::collection::vec((0u64..BLOCKS, any::<u8>()), 1..40),
    ) {
        let model = CpuCostModel::nexus4();
        let (disk_b, clock_b, batched) = stack();
        let (disk_1, clock_1, single) = stack();
        let data: Vec<(u64, Vec<u8>)> = batch
            .iter()
            .map(|&(b, fill)| (b, (0..BS).map(|i| fill ^ (i % 251) as u8).collect()))
            .collect();
        let writes: Vec<(u64, &[u8])> = data.iter().map(|(b, d)| (*b, d.as_slice())).collect();

        // Cipherless twins issue the identical device-op sequences;
        // MemDisk charges depend only on (op, index, size), so the
        // clock difference below is exactly the crypto charge.
        let raw_clock_b = SimClock::new();
        let raw_b = MemDisk::new(BLOCKS, BS, raw_clock_b.clone());
        raw_b.write_blocks(&writes).unwrap();
        let raw_clock_1 = SimClock::new();
        let raw_1 = MemDisk::new(BLOCKS, BS, raw_clock_1.clone());
        for (b, d) in &data {
            raw_1.write_block(*b, d).unwrap();
        }

        batched.write_blocks(&writes).unwrap();
        for (b, d) in &data {
            single.write_block(*b, d).unwrap();
        }

        prop_assert_eq!(
            disk_b.snapshot().as_bytes(),
            disk_1.snapshot().as_bytes(),
            "sector-batch and per-sector paths must land identical media"
        );

        let total: usize = data.iter().map(|(_, d)| d.len()).sum();
        prop_assert_eq!(
            clock_b.now() - raw_clock_b.now(),
            model.aes_cost(total),
            "batch path charges one amortized aes_cost(total bytes)"
        );
        let mut per_sector = SimDuration::ZERO;
        for _ in 0..data.len() {
            per_sector += model.aes_cost(BS);
        }
        prop_assert_eq!(
            clock_1.now() - raw_clock_1.now(),
            per_sector,
            "per-sector loop charges aes_cost(block) once per call"
        );
    }
}
