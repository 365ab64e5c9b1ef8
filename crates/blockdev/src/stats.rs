//! Per-device I/O statistics.

use mobiceal_sim::{OpKind, SimDuration};
use serde::{Deserialize, Serialize};

/// Counter for one operation class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpCounter {
    /// Number of operations.
    pub ops: u64,
    /// Total bytes transferred.
    pub bytes: u64,
    /// Total simulated time charged.
    pub time_nanos: u64,
}

impl OpCounter {
    fn record(&mut self, bytes: usize, time: SimDuration) {
        self.ops += 1;
        self.bytes += bytes as u64;
        self.time_nanos += time.as_nanos();
    }

    /// Mean throughput in MB/s over the charged time (0 if no time).
    pub fn throughput_mbps(&self) -> f64 {
        if self.time_nanos == 0 {
            0.0
        } else {
            self.bytes as f64 / (self.time_nanos as f64 / 1e9) / 1e6
        }
    }
}

/// Aggregated I/O statistics for a device.
///
/// Only [`MemDisk`](crate::MemDisk) keeps one: it counts what reaches the
/// medium. Layers above it (dm-crypt, thin volumes, MobiCeal) keep no
/// `DeviceStats` of their own.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceStats {
    /// Sequential reads.
    pub seq_reads: OpCounter,
    /// Random reads.
    pub rand_reads: OpCounter,
    /// Sequential writes.
    pub seq_writes: OpCounter,
    /// Random writes.
    pub rand_writes: OpCounter,
    /// Flush operations.
    pub flushes: OpCounter,
}

impl DeviceStats {
    /// Records one operation.
    pub fn record(&mut self, op: OpKind, bytes: usize, time: SimDuration) {
        match op {
            OpKind::SequentialRead => self.seq_reads.record(bytes, time),
            OpKind::RandomRead => self.rand_reads.record(bytes, time),
            OpKind::SequentialWrite => self.seq_writes.record(bytes, time),
            OpKind::RandomWrite => self.rand_writes.record(bytes, time),
            OpKind::Flush => self.flushes.record(bytes, time),
        }
    }

    /// Total read operations.
    pub fn total_reads(&self) -> u64 {
        self.seq_reads.ops + self.rand_reads.ops
    }

    /// Total write operations (excluding flushes).
    pub fn total_writes(&self) -> u64 {
        self.seq_writes.ops + self.rand_writes.ops
    }

    /// Total bytes written (excluding flushes).
    pub fn bytes_written(&self) -> u64 {
        self.seq_writes.bytes + self.rand_writes.bytes
    }

    /// Total bytes read.
    pub fn bytes_read(&self) -> u64 {
        self.seq_reads.bytes + self.rand_reads.bytes
    }

    /// Total simulated time across all op classes.
    pub fn total_time(&self) -> SimDuration {
        SimDuration::from_nanos(
            self.seq_reads.time_nanos
                + self.rand_reads.time_nanos
                + self.seq_writes.time_nanos
                + self.rand_writes.time_nanos
                + self.flushes.time_nanos,
        )
    }

    /// A copy with every charged-time field zeroed.
    ///
    /// Since the amortized multi-command cost model, a batched pipeline
    /// charges *less* time than the equivalent sequence of single-block
    /// operations while still performing the same op mix on the same bytes.
    /// Equivalence tests therefore compare this view when they pin
    /// "same operations, same data" without pinning the timing.
    pub fn without_time(&self) -> DeviceStats {
        fn strip(mut c: OpCounter) -> OpCounter {
            c.time_nanos = 0;
            c
        }
        DeviceStats {
            seq_reads: strip(self.seq_reads),
            rand_reads: strip(self.rand_reads),
            seq_writes: strip(self.seq_writes),
            rand_writes: strip(self.rand_writes),
            flushes: strip(self.flushes),
        }
    }

    /// Difference against an earlier sample (for measuring one workload).
    pub fn delta_since(&self, earlier: &DeviceStats) -> DeviceStats {
        fn sub(a: OpCounter, b: OpCounter) -> OpCounter {
            OpCounter {
                ops: a.ops - b.ops,
                bytes: a.bytes - b.bytes,
                time_nanos: a.time_nanos - b.time_nanos,
            }
        }
        DeviceStats {
            seq_reads: sub(self.seq_reads, earlier.seq_reads),
            rand_reads: sub(self.rand_reads, earlier.rand_reads),
            seq_writes: sub(self.seq_writes, earlier.seq_writes),
            rand_writes: sub(self.rand_writes, earlier.rand_writes),
            flushes: sub(self.flushes, earlier.flushes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_buckets_by_kind() {
        let mut s = DeviceStats::default();
        s.record(OpKind::SequentialRead, 4096, SimDuration::from_micros(10));
        s.record(OpKind::RandomWrite, 4096, SimDuration::from_micros(20));
        s.record(OpKind::Flush, 0, SimDuration::from_micros(5));
        assert_eq!(s.total_reads(), 1);
        assert_eq!(s.total_writes(), 1);
        assert_eq!(s.bytes_written(), 4096);
        assert_eq!(s.bytes_read(), 4096);
        assert_eq!(s.flushes.ops, 1);
        assert_eq!(s.total_time(), SimDuration::from_micros(35));
    }

    #[test]
    fn throughput_computation() {
        let mut c = OpCounter::default();
        c.record(1_000_000, SimDuration::from_millis(100)); // 1 MB in 0.1 s = 10 MB/s
        assert!((c.throughput_mbps() - 10.0).abs() < 1e-9);
        assert_eq!(OpCounter::default().throughput_mbps(), 0.0);
    }

    #[test]
    fn without_time_keeps_ops_and_bytes() {
        let mut s = DeviceStats::default();
        s.record(OpKind::SequentialWrite, 4096, SimDuration::from_micros(10));
        s.record(OpKind::RandomRead, 4096, SimDuration::from_micros(20));
        let stripped = s.without_time();
        assert_eq!(stripped.total_writes(), 1);
        assert_eq!(stripped.bytes_read(), 4096);
        assert_eq!(stripped.total_time(), SimDuration::ZERO);
        assert_ne!(s, stripped);
        assert_eq!(stripped, stripped.without_time());
    }

    #[test]
    fn delta_since_isolates_a_window() {
        let mut s = DeviceStats::default();
        s.record(OpKind::SequentialWrite, 100, SimDuration::from_nanos(10));
        let checkpoint = s;
        s.record(OpKind::SequentialWrite, 300, SimDuration::from_nanos(30));
        let d = s.delta_since(&checkpoint);
        assert_eq!(d.seq_writes.ops, 1);
        assert_eq!(d.seq_writes.bytes, 300);
        assert_eq!(d.seq_writes.time_nanos, 30);
    }
}
