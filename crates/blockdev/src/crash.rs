//! [`CrashDisk`]: a power-cut capture harness for crash-recovery testing.
//!
//! Crash consistency claims ("the pool recovers exactly the last committed
//! transaction") need to hold at *every* write boundary, not just the ones
//! a hand-picked fault schedule happens to hit. `CrashDisk` wraps a
//! [`MemDisk`], records a base snapshot plus the bytes of every block write
//! that succeeds, and can then reconstruct the exact persisted image as of
//! any intermediate write — including images where the final write is torn
//! mid-block. A batch that fails part-way logs the prefix the medium kept. A test runs its workload once, then replays recovery against
//! each of the `write_points() + 1` images (and any torn variants) to
//! enumerate every possible power-cut outcome of that history.
//!
//! The wrapper delegates whole batches to the inner disk, so amortized
//! multi-command charging, statistics and classification are identical to
//! running on the bare [`MemDisk`].

use crate::device::{BlockDevice, BlockDeviceError, BlockIndex, ReadDest};
use crate::memdisk::MemDisk;
use crate::snapshot::DiskSnapshot;
use parking_lot::Mutex;

/// The write history: the image before the workload plus every block write
/// that reached the medium, in device order.
struct CrashLog {
    base: DiskSnapshot,
    events: Vec<(BlockIndex, Vec<u8>)>,
}

/// A [`BlockDevice`] that captures the persisted image at every write
/// boundary of the workload run on it.
///
/// # Example
///
/// ```
/// use mobiceal_blockdev::{BlockDevice, CrashDisk, MemDisk};
///
/// let disk = CrashDisk::new(MemDisk::with_default_timing(8, 512));
/// disk.write_block(1, &vec![0xAA; 512])?;
/// disk.write_block(2, &vec![0xBB; 512])?;
/// assert_eq!(disk.write_points(), 2);
/// // Power cut after the first write: block 1 landed, block 2 did not.
/// let image = disk.image_at(1);
/// assert_eq!(image.block(1)[0], 0xAA);
/// assert!(image.is_zero_block(2));
/// # Ok::<(), mobiceal_blockdev::BlockDeviceError>(())
/// ```
pub struct CrashDisk {
    inner: MemDisk,
    log: Mutex<CrashLog>,
}

impl CrashDisk {
    /// Wraps `inner`, capturing its current contents as the base image
    /// (crash point 0).
    pub fn new(inner: MemDisk) -> Self {
        let base = inner.snapshot();
        CrashDisk { inner, log: Mutex::new(CrashLog { base, events: Vec::new() }) }
    }

    /// The wrapped disk (for clocks, statistics, faults).
    pub fn inner(&self) -> &MemDisk {
        &self.inner
    }

    /// How many block writes have succeeded since construction. Crash
    /// points `0..=write_points()` are valid arguments to
    /// [`CrashDisk::image_at`]; point `k` is the image after the first `k`
    /// writes.
    pub fn write_points(&self) -> usize {
        self.log.lock().events.len()
    }

    /// The block that write number `k` (0-based) targeted.
    ///
    /// # Panics
    ///
    /// Panics if `k >= write_points()`.
    pub fn write_target(&self, k: usize) -> BlockIndex {
        self.log.lock().events[k].0
    }

    /// The persisted image as of a power cut after exactly `k` block
    /// writes: the base image plus the first `k` recorded writes.
    ///
    /// # Panics
    ///
    /// Panics if `k > write_points()`.
    pub fn image_at(&self, k: usize) -> DiskSnapshot {
        self.build_image(k, None)
    }

    /// The persisted image as of a power cut *inside* write `k` (0-based):
    /// the first `k` writes land whole, and only the first `keep_bytes`
    /// bytes of write `k` reach the medium — a torn block program.
    ///
    /// # Panics
    ///
    /// Panics if `k >= write_points()`.
    pub fn image_at_torn(&self, k: usize, keep_bytes: usize) -> DiskSnapshot {
        self.build_image(k, Some(keep_bytes))
    }

    fn build_image(&self, k: usize, torn: Option<usize>) -> DiskSnapshot {
        let log = self.log.lock();
        if torn.is_some() {
            assert!(k < log.events.len(), "torn write {k} out of range");
        } else {
            assert!(k <= log.events.len(), "crash point {k} out of range");
        }
        let bs = log.base.block_size();
        let mut bytes = log.base.as_bytes().to_vec();
        for (index, data) in &log.events[..k] {
            let offset = *index as usize * bs;
            bytes[offset..offset + bs].copy_from_slice(data);
        }
        if let Some(keep) = torn {
            let keep = keep.min(bs);
            let (index, data) = &log.events[k];
            let offset = *index as usize * bs;
            bytes[offset..offset + keep].copy_from_slice(&data[..keep]);
        }
        DiskSnapshot::new(bs, log.base.num_blocks(), bytes)
    }
}

impl std::fmt::Debug for CrashDisk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CrashDisk")
            .field("inner", &self.inner)
            .field("write_points", &self.write_points())
            .finish()
    }
}

impl BlockDevice for CrashDisk {
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn read_blocks(&self, indices: &[BlockIndex]) -> Result<Vec<Vec<u8>>, BlockDeviceError> {
        self.inner.read_blocks(indices)
    }

    fn read_blocks_to(
        &self,
        indices: &[BlockIndex],
        dest: ReadDest<'_>,
    ) -> Result<(), BlockDeviceError> {
        self.inner.read_blocks_to(indices, dest)
    }

    /// Delegates the whole batch (keeping amortized charging), then logs
    /// each block that reached the medium as one write boundary — a power
    /// cut can land between any two blocks of a batch, exactly like the
    /// sequential loop. A failed batch logs the prefix that landed before
    /// its failing block.
    fn write_blocks(&self, writes: &[(BlockIndex, &[u8])]) -> Result<(), BlockDeviceError> {
        let (landed, result) = self.inner.write_blocks_landed(writes);
        let mut log = self.log.lock();
        for &(index, data) in &writes[..landed] {
            log.events.push((index, data.to_vec()));
        }
        result
    }

    fn flush(&self) -> Result<(), BlockDeviceError> {
        self.inner.flush()
    }

    fn host_queue_enter(&self) {
        self.inner.host_queue_enter();
    }

    fn host_queue_leave(&self) {
        self.inner.host_queue_leave();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn harness(blocks: u64) -> CrashDisk {
        CrashDisk::new(MemDisk::with_default_timing(blocks, 512))
    }

    #[test]
    fn images_enumerate_every_write_boundary() {
        let disk = harness(8);
        let d = |v: u8| vec![v; 512];
        disk.write_block(0, &d(1)).unwrap();
        let pair = [(2u64, d(2)), (5, d(3))];
        let writes: Vec<(BlockIndex, &[u8])> =
            pair.iter().map(|(b, v)| (*b, v.as_slice())).collect();
        disk.write_blocks(&writes).unwrap();
        assert_eq!(disk.write_points(), 3);
        assert_eq!(disk.write_target(1), 2);

        assert!(disk.image_at(0).is_zero_block(0), "point 0 is the base image");
        let mid = disk.image_at(2);
        assert_eq!(mid.block(0), &d(1)[..]);
        assert_eq!(mid.block(2), &d(2)[..]);
        assert!(mid.is_zero_block(5), "the third write is not yet persisted at point 2");
        assert_eq!(
            disk.image_at(3).as_bytes(),
            disk.inner().snapshot().as_bytes(),
            "the final point is the live medium"
        );
    }

    #[test]
    fn torn_images_splice_partial_blocks() {
        let disk = harness(4);
        disk.write_block(1, &vec![0xAA; 512]).unwrap();
        disk.write_block(1, &vec![0xBB; 512]).unwrap();
        let torn = disk.image_at_torn(1, 64);
        assert_eq!(&torn.block(1)[..64], &[0xBB; 64][..]);
        assert_eq!(&torn.block(1)[64..], &[0xAA; 448][..]);
        // keep_bytes clamps to the block size.
        assert_eq!(disk.image_at_torn(1, 4096).block(1), &[0xBB; 512][..]);
    }

    #[test]
    fn rebuilt_image_boots_a_fresh_disk() {
        let disk = harness(8);
        disk.write_block(3, &vec![7u8; 512]).unwrap();
        disk.write_block(4, &vec![8u8; 512]).unwrap();
        let image = disk.image_at(1);
        let reborn = MemDisk::with_default_timing(8, 512);
        reborn.load_image(&image);
        assert_eq!(reborn.read_block(3).unwrap(), vec![7u8; 512]);
        assert!(reborn.read_block(4).unwrap().iter().all(|&b| b == 0));
    }

    #[test]
    fn failed_writes_are_not_write_boundaries() {
        let disk = harness(4);
        assert!(disk.write_block(99, &vec![0u8; 512]).is_err());
        assert_eq!(disk.write_points(), 0);
    }

    #[test]
    fn failed_batch_logs_the_prefix_that_landed() {
        // MemDisk persists a failed batch's prefix, so those blocks are
        // write boundaries too: leaving them out would make every crash
        // image disagree with the medium.
        let disk = harness(8);
        let mut faults = crate::FaultInjection::default();
        faults.failing_writes.insert(3);
        disk.inner().set_faults(faults);
        let bufs: Vec<Vec<u8>> = (1..=4u8).map(|v| vec![v; 512]).collect();
        let writes: Vec<(BlockIndex, &[u8])> =
            (1u64..).zip(bufs.iter().map(Vec::as_slice)).collect();
        assert!(disk.write_blocks(&writes).is_err());
        assert_eq!(disk.write_points(), 2, "blocks 1 and 2 landed before the fault");
        assert_eq!(disk.write_target(1), 2);
        assert_eq!(disk.image_at(2).as_bytes(), disk.inner().snapshot().as_bytes());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn image_beyond_history_panics() {
        let disk = harness(4);
        let _ = disk.image_at(1);
    }
}
