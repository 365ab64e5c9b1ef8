//! The [`BlockDevice`] trait and its error type.

use std::fmt;
use std::sync::Arc;

/// Index of a block on a device, starting at 0.
pub type BlockIndex = u64;

/// Errors surfaced by block-device operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockDeviceError {
    /// Access beyond the end of the device.
    OutOfRange {
        /// The offending block index.
        index: BlockIndex,
        /// Total number of blocks on the device.
        num_blocks: u64,
    },
    /// Buffer length does not match the device's block size.
    WrongBufferSize {
        /// Length supplied by the caller.
        got: usize,
        /// Block size required by the device.
        expected: usize,
    },
    /// Simulated medium failure (fault injection).
    Io {
        /// Human-readable cause.
        reason: String,
    },
    /// The device (or the volume it backs) has no free capacity left.
    NoSpace,
    /// The operation is not supported by this device/layer.
    Unsupported {
        /// What was attempted.
        what: String,
    },
    /// Cryptographic verification failed (wrong key/password).
    BadKey,
    /// On-disk metadata is corrupt or from an incompatible layout.
    CorruptMetadata {
        /// Human-readable detail.
        detail: String,
    },
}

impl fmt::Display for BlockDeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockDeviceError::OutOfRange { index, num_blocks } => {
                write!(f, "block {index} out of range (device has {num_blocks} blocks)")
            }
            BlockDeviceError::WrongBufferSize { got, expected } => {
                write!(f, "buffer of {got} bytes does not match block size {expected}")
            }
            BlockDeviceError::Io { reason } => write!(f, "i/o error: {reason}"),
            BlockDeviceError::NoSpace => write!(f, "no space left on device"),
            BlockDeviceError::Unsupported { what } => write!(f, "unsupported operation: {what}"),
            BlockDeviceError::BadKey => write!(f, "cryptographic verification failed"),
            BlockDeviceError::CorruptMetadata { detail } => {
                write!(f, "corrupt metadata: {detail}")
            }
        }
    }
}

impl std::error::Error for BlockDeviceError {}

/// A fixed-geometry array of blocks: the substrate every storage layer in
/// the reproduction stacks on.
///
/// Implementations take `&self`; interior mutability (with locking where
/// needed) keeps stacking ergonomic, mirroring how kernel block devices are
/// shared between layers.
pub trait BlockDevice: Send + Sync {
    /// Number of addressable blocks.
    fn num_blocks(&self) -> u64;

    /// Size of each block in bytes.
    fn block_size(&self) -> usize;

    /// Reads block `index` into a fresh buffer.
    ///
    /// The default is a one-element [`BlockDevice::read_blocks`] batch,
    /// which charges what a single-block read charges
    /// (`CostModel::batch_cost(op, 1, b) == cost(op, b)`). Layers on the
    /// `rand_4k` path override it, because a one-element batch costs them
    /// measurably more wall time per call.
    ///
    /// # Errors
    ///
    /// [`BlockDeviceError::OutOfRange`] if `index >= num_blocks()`, or a
    /// layer-specific error. [`BlockDeviceError::Io`] if the batch returns
    /// other than exactly one buffer.
    fn read_block(&self, index: BlockIndex) -> Result<Vec<u8>, BlockDeviceError> {
        match <[Vec<u8>; 1]>::try_from(self.read_blocks(&[index])?) {
            Ok([block]) => Ok(block),
            Err(_) => Err(wrong_block_count()),
        }
    }

    /// Writes `data` (exactly `block_size()` bytes) to block `index`.
    ///
    /// The default is a one-element [`BlockDevice::write_blocks`] batch
    /// (see [`BlockDevice::read_block`]).
    ///
    /// # Errors
    ///
    /// [`BlockDeviceError::OutOfRange`], [`BlockDeviceError::WrongBufferSize`],
    /// or a layer-specific error.
    fn write_block(&self, index: BlockIndex, data: &[u8]) -> Result<(), BlockDeviceError> {
        self.write_blocks(&[(index, data)])
    }

    /// Reads every block in `indices`, returning the buffers in the same
    /// order.
    ///
    /// Semantically identical to calling [`BlockDevice::read_block`] once
    /// per index, in order, failing fast on the first error, but charged
    /// per batch (one lock acquisition, one mapping-table pass, one
    /// amortized medium command); the returned bytes are always the same
    /// as the sequential loop's.
    ///
    /// # Errors
    ///
    /// The error the first failing single-block read would have returned.
    fn read_blocks(&self, indices: &[BlockIndex]) -> Result<Vec<Vec<u8>>, BlockDeviceError>;

    /// Reads every block in `indices` into memory the caller owns, after
    /// whatever `dest` already holds, in order.
    ///
    /// Same batch, bytes, simulated charges and statistics as
    /// [`BlockDevice::read_blocks`]. The layers of the public read path
    /// implement it natively: the medium copies each block once, straight
    /// into `dest`, and dm-crypt decrypts it there, so a
    /// [`ReadDest::Append`] read allocates nothing per block. Those layers'
    /// `read_blocks` is this method with a [`ReadDest::Owned`] destination
    /// ([`read_blocks_owned`]).
    ///
    /// The default issues one `self.read_blocks` batch and moves or copies
    /// its buffers into `dest` ([`read_blocks_via_batch`]), so a wrapper
    /// that overrides only `read_blocks` charges exactly what it charges
    /// there. A layer whose `read_blocks` is [`read_blocks_owned`] must
    /// override this method, or the two call each other forever; analyzer
    /// rule A1 checks that every production layer does.
    ///
    /// # Errors
    ///
    /// The error `read_blocks` would return. `dest` then holds what it held
    /// before the call.
    fn read_blocks_to(
        &self,
        indices: &[BlockIndex],
        dest: ReadDest<'_>,
    ) -> Result<(), BlockDeviceError> {
        read_blocks_via_batch(self, indices, dest)
    }

    /// Writes each `(index, data)` pair, in order.
    ///
    /// Semantically identical to calling [`BlockDevice::write_block`] once
    /// per pair, in order, failing fast on the first error — on failure,
    /// pairs before the failing one are written and the rest are not.
    /// Charged per batch (see [`BlockDevice::read_blocks`]); on success,
    /// bytes on disk always match the sequential loop's.
    ///
    /// Allocating layers may *refine* the failure path: a thin volume
    /// rolls back every mapping it freshly allocated for a failed batch
    /// (safety over prefix-persistence — a mapping must never point at
    /// storage whose data did not land). Such refinements are documented
    /// on the override; callers handling a failed batch should retry the
    /// whole batch rather than assume a persisted prefix.
    ///
    /// # Errors
    ///
    /// The error the first failing single-block write would have returned.
    fn write_blocks(&self, writes: &[(BlockIndex, &[u8])]) -> Result<(), BlockDeviceError>;

    /// Flushes caches / commits metadata; a pass-through layer forwards it
    /// to its backing device.
    ///
    /// # Errors
    ///
    /// Layer-specific.
    fn flush(&self) -> Result<(), BlockDeviceError>;

    /// Total capacity in bytes.
    fn capacity_bytes(&self) -> u64 {
        self.num_blocks() * self.block_size() as u64
    }

    /// Convenience: validates an index against the geometry.
    ///
    /// # Errors
    ///
    /// [`BlockDeviceError::OutOfRange`] when out of bounds.
    fn check_index(&self, index: BlockIndex) -> Result<(), BlockDeviceError> {
        if index >= self.num_blocks() {
            Err(BlockDeviceError::OutOfRange { index, num_blocks: self.num_blocks() })
        } else {
            Ok(())
        }
    }

    /// Convenience: validates a buffer against the block size.
    ///
    /// # Errors
    ///
    /// [`BlockDeviceError::WrongBufferSize`] when mismatched.
    fn check_buffer(&self, data: &[u8]) -> Result<(), BlockDeviceError> {
        if data.len() != self.block_size() {
            Err(BlockDeviceError::WrongBufferSize { got: data.len(), expected: self.block_size() })
        } else {
            Ok(())
        }
    }

    /// Registers one queued-but-not-yet-executing command against the
    /// device's host queue.
    ///
    /// This is the hook a submission/completion engine (see
    /// `mobiceal_blockdev::engine`) uses to make queue-depth charging
    /// reflect real ring occupancy: a command occupies a host queue slot
    /// from submission until it executes, and while it is registered the
    /// device charges commands that execute alongside it at the deeper
    /// depth (`CostModel::batch_cost_at_depth`). Pass-through layers
    /// forward the call to their backing device so the registration lands
    /// on the medium that models the queue; a device with no queue model
    /// does nothing. Every call must be balanced by exactly one
    /// [`BlockDevice::host_queue_leave`].
    fn host_queue_enter(&self);

    /// Releases one [`BlockDevice::host_queue_enter`] registration — called
    /// when the queued command starts executing (the device counts the
    /// executing command itself) or is abandoned unexecuted.
    fn host_queue_leave(&self);
}

/// Where [`BlockDevice::read_blocks_to`] puts the blocks it reads: after
/// whatever the destination already holds, in batch order.
#[derive(Debug)]
pub enum ReadDest<'a> {
    /// Every block's bytes, back to back, appended to one buffer. The
    /// buffer is never zero-filled first.
    Append(&'a mut Vec<u8>),
    /// One buffer per block, pushed in order: [`BlockDevice::read_blocks`]'s
    /// shape.
    Owned(&'a mut Vec<Vec<u8>>),
}

impl ReadDest<'_> {
    /// A shorter-lived handle on the same destination, so a layer can pass
    /// it down and still work on the blocks that come back.
    pub fn reborrow(&mut self) -> ReadDest<'_> {
        match self {
            ReadDest::Append(buf) => ReadDest::Append(buf),
            ReadDest::Owned(bufs) => ReadDest::Owned(bufs),
        }
    }

    /// Where the destination ends now, for [`ReadDest::truncate`] and
    /// [`ReadDest::fill_holes`]: bytes for `Append`, buffers for `Owned`.
    pub fn mark(&self) -> usize {
        match self {
            ReadDest::Append(buf) => buf.len(),
            ReadDest::Owned(bufs) => bufs.len(),
        }
    }

    /// Drops everything after `mark`: how a failed read leaves the
    /// destination as it found it.
    pub fn truncate(&mut self, mark: usize) {
        match self {
            ReadDest::Append(buf) => buf.truncate(mark),
            ReadDest::Owned(bufs) => bufs.truncate(mark),
        }
    }

    /// Makes room for `blocks` more blocks of `block_size` bytes.
    pub fn reserve(&mut self, blocks: usize, block_size: usize) {
        match self {
            ReadDest::Append(buf) => buf.reserve(blocks * block_size),
            ReadDest::Owned(bufs) => bufs.reserve(blocks),
        }
    }

    /// Appends one block: the only copy of its bytes.
    pub fn push(&mut self, block: &[u8]) {
        match self {
            ReadDest::Append(buf) => buf.extend_from_slice(block),
            ReadDest::Owned(bufs) => bufs.push(block.to_vec()),
        }
    }

    /// Spreads the blocks after `mark` over one slot per item of
    /// `present`, in order: a `true` slot takes the next block, a `false`
    /// slot becomes a block of zeros. This is how a layer that reads only
    /// some of a batch's blocks from below (a thin volume's mapped ones)
    /// fills its holes around the one call it made.
    ///
    /// # Errors
    ///
    /// [`BlockDeviceError::Io`], with the destination truncated to `mark`,
    /// if the number of blocks after `mark` is not the number of `true`
    /// slots.
    pub fn fill_holes(
        &mut self,
        mark: usize,
        block_size: usize,
        present: impl DoubleEndedIterator<Item = bool> + ExactSizeIterator + Clone,
    ) -> Result<(), BlockDeviceError> {
        let slots = present.len();
        let mut read = match self {
            ReadDest::Append(buf) => (buf.len() - mark) / block_size,
            ReadDest::Owned(bufs) => bufs.len() - mark,
        };
        if read != present.clone().filter(|&p| p).count() {
            self.truncate(mark);
            return Err(wrong_block_count());
        }
        if read == slots {
            return Ok(());
        }
        // Back to front, each block moves to its slot at or after where it
        // landed, so no block is overwritten before it has moved.
        match self {
            ReadDest::Append(buf) => {
                buf.resize(mark + slots * block_size, 0);
                for (slot, present) in present.enumerate().rev() {
                    let at = mark + slot * block_size;
                    if present {
                        read -= 1;
                        let from = mark + read * block_size;
                        buf.copy_within(from..from + block_size, at);
                    } else {
                        buf[at..at + block_size].fill(0);
                    }
                }
            }
            ReadDest::Owned(bufs) => {
                bufs.resize_with(mark + slots, Vec::new);
                for (slot, present) in present.enumerate().rev() {
                    if present {
                        read -= 1;
                        bufs.swap(mark + read, mark + slot);
                    } else {
                        bufs[mark + slot] = vec![0u8; block_size];
                    }
                }
            }
        }
        Ok(())
    }
}

/// What a layer returns when the layer below answers a read with a
/// different number of blocks than it was asked for.
fn wrong_block_count() -> BlockDeviceError {
    BlockDeviceError::Io {
        reason: "device returned a different number of blocks than it was asked for".to_string(),
    }
}

/// [`BlockDevice::read_blocks`] as one [`ReadDest::Owned`] call of
/// `dev.read_blocks_to`: the `read_blocks` of every layer that reads
/// natively into a destination, so both entry points run one body.
///
/// # Errors
///
/// `dev.read_blocks_to`'s error.
pub fn read_blocks_owned<D: BlockDevice + ?Sized>(
    dev: &D,
    indices: &[BlockIndex],
) -> Result<Vec<Vec<u8>>, BlockDeviceError> {
    let mut out = Vec::with_capacity(indices.len());
    dev.read_blocks_to(indices, ReadDest::Owned(&mut out))?;
    Ok(out)
}

/// [`BlockDevice::read_blocks_to`] as one `dev.read_blocks` batch whose
/// buffers are then moved (`Owned`) or copied (`Append`) into `dest`: the
/// trait default, and the explicit forward of wrappers off the public read
/// path that read through a batch of their own.
///
/// # Errors
///
/// `dev.read_blocks`'s error; `dest` is then untouched.
pub fn read_blocks_via_batch<D: BlockDevice + ?Sized>(
    dev: &D,
    indices: &[BlockIndex],
    dest: ReadDest<'_>,
) -> Result<(), BlockDeviceError> {
    let mut blocks = dev.read_blocks(indices)?;
    match dest {
        ReadDest::Append(buf) => blocks.iter().for_each(|b| buf.extend_from_slice(b)),
        ReadDest::Owned(bufs) => bufs.append(&mut blocks),
    }
    Ok(())
}

/// A reference-counted device handle, the currency of device stacking.
pub type SharedDevice = Arc<dyn BlockDevice>;

impl<T: BlockDevice + ?Sized> BlockDevice for Arc<T> {
    fn num_blocks(&self) -> u64 {
        (**self).num_blocks()
    }

    fn block_size(&self) -> usize {
        (**self).block_size()
    }

    fn read_block(&self, index: BlockIndex) -> Result<Vec<u8>, BlockDeviceError> {
        (**self).read_block(index)
    }

    fn write_block(&self, index: BlockIndex, data: &[u8]) -> Result<(), BlockDeviceError> {
        (**self).write_block(index, data)
    }

    fn read_blocks(&self, indices: &[BlockIndex]) -> Result<Vec<Vec<u8>>, BlockDeviceError> {
        (**self).read_blocks(indices)
    }

    fn read_blocks_to(
        &self,
        indices: &[BlockIndex],
        dest: ReadDest<'_>,
    ) -> Result<(), BlockDeviceError> {
        (**self).read_blocks_to(indices, dest)
    }

    fn write_blocks(&self, writes: &[(BlockIndex, &[u8])]) -> Result<(), BlockDeviceError> {
        (**self).write_blocks(writes)
    }

    fn flush(&self) -> Result<(), BlockDeviceError> {
        (**self).flush()
    }

    fn host_queue_enter(&self) {
        (**self).host_queue_enter();
    }

    fn host_queue_leave(&self) {
        (**self).host_queue_leave();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A device with only the required ops: block `i` reads as eight
    /// bytes of `i`, and writes are checked and logged. With `lose_reads`
    /// every read batch comes back empty, as a faulty layer's might.
    #[derive(Default)]
    struct TinyDev {
        lose_reads: bool,
        written: std::sync::Mutex<Vec<BlockIndex>>,
    }

    impl BlockDevice for TinyDev {
        fn num_blocks(&self) -> u64 {
            4
        }

        fn block_size(&self) -> usize {
            8
        }

        fn read_blocks(&self, indices: &[BlockIndex]) -> Result<Vec<Vec<u8>>, BlockDeviceError> {
            if self.lose_reads {
                return Ok(Vec::new());
            }
            indices
                .iter()
                .map(|&index| {
                    self.check_index(index)?;
                    Ok(vec![index as u8; 8])
                })
                .collect()
        }

        fn write_blocks(&self, writes: &[(BlockIndex, &[u8])]) -> Result<(), BlockDeviceError> {
            for &(index, data) in writes {
                self.check_index(index)?;
                self.check_buffer(data)?;
                self.written.lock().unwrap().push(index);
            }
            Ok(())
        }

        fn flush(&self) -> Result<(), BlockDeviceError> {
            Ok(())
        }

        fn host_queue_enter(&self) {}

        fn host_queue_leave(&self) {}
    }

    #[test]
    fn default_helpers() {
        let dev = TinyDev::default();
        assert_eq!(dev.capacity_bytes(), 32);
        assert!(dev.check_index(3).is_ok());
        assert_eq!(
            dev.check_index(4),
            Err(BlockDeviceError::OutOfRange { index: 4, num_blocks: 4 })
        );
        assert!(dev.check_buffer(&[0; 8]).is_ok());
        assert!(dev.check_buffer(&[0; 7]).is_err());
        assert!(dev.flush().is_ok());
    }

    #[test]
    fn arc_passthrough() {
        let dev: SharedDevice = Arc::new(TinyDev::default());
        assert_eq!(dev.num_blocks(), 4);
        assert_eq!(dev.read_block(2).unwrap(), vec![2u8; 8]);
        assert!(dev.write_block(1, &[0; 8]).is_ok());
        assert!(dev.write_block(9, &[0; 8]).is_err());
        assert_eq!(dev.read_blocks(&[0, 3]).unwrap(), vec![vec![0u8; 8], vec![3u8; 8]]);
        assert!(dev.write_blocks(&[(0, &[0; 8]), (3, &[1; 8])]).is_ok());
    }

    #[test]
    fn default_single_block_ops_are_one_element_batches() {
        let dev = TinyDev::default();
        for index in 0..6 {
            assert_eq!(dev.read_block(index), dev.read_blocks(&[index]).map(|mut b| b.remove(0)));
            for data in [&[1u8; 8][..], &[1u8; 7]] {
                assert_eq!(dev.write_block(index, data), dev.write_blocks(&[(index, data)]));
            }
        }
        assert_eq!(dev.read_block(2), Ok(vec![2u8; 8]));
        assert_eq!(
            dev.read_block(4),
            Err(BlockDeviceError::OutOfRange { index: 4, num_blocks: 4 })
        );
        assert_eq!(
            dev.write_block(5, &[1u8; 8]),
            Err(BlockDeviceError::OutOfRange { index: 5, num_blocks: 4 })
        );
        assert_eq!(
            dev.write_block(0, &[1u8; 7]),
            Err(BlockDeviceError::WrongBufferSize { got: 7, expected: 8 })
        );
        assert_eq!(*dev.written.lock().unwrap(), [0, 0, 1, 1, 2, 2, 3, 3]);
        // A batch that comes back without its block is a typed error, not a
        // panic.
        let lossy = TinyDev { lose_reads: true, ..TinyDev::default() };
        assert!(matches!(lossy.read_block(0), Err(BlockDeviceError::Io { .. })));
    }

    #[test]
    fn default_read_into_destinations_follows_what_they_hold() {
        let dev = TinyDev::default();
        let mut buf = vec![9u8; 3];
        dev.read_blocks_to(&[2, 0], ReadDest::Append(&mut buf)).unwrap();
        assert_eq!(buf, [&[9u8; 3][..], &[2; 8], &[0; 8]].concat());
        let mut bufs = vec![vec![9u8]];
        dev.read_blocks_to(&[1], ReadDest::Owned(&mut bufs)).unwrap();
        assert_eq!(bufs, vec![vec![9u8], vec![1; 8]]);
        // A failed batch leaves either destination as it was.
        assert!(dev.read_blocks_to(&[3, 4], ReadDest::Append(&mut buf)).is_err());
        assert_eq!(buf.len(), 19);
        assert!(dev.read_blocks_to(&[3, 4], ReadDest::Owned(&mut bufs)).is_err());
        assert_eq!(bufs.len(), 2);
    }

    #[test]
    fn fill_holes_spreads_blocks_around_zero_blocks() {
        let present = [false, true, true, false, true, false];
        let spread = |b: u8| if b == 0 { vec![0u8; 4] } else { vec![b; 4] };
        let expect: Vec<Vec<u8>> = [0u8, 1, 2, 0, 3, 0].into_iter().map(spread).collect();
        let mut buf = vec![7u8; 2];
        buf.extend([1u8; 4].iter().chain(&[2; 4]).chain(&[3; 4]));
        let mut dest = ReadDest::Append(&mut buf);
        dest.fill_holes(2, 4, present.iter().copied()).unwrap();
        assert_eq!(buf, [vec![7u8; 2], expect.concat()].concat());
        let mut bufs = vec![vec![7u8], vec![1; 4], vec![2; 4], vec![3; 4]];
        ReadDest::Owned(&mut bufs).fill_holes(1, 4, present.iter().copied()).unwrap();
        assert_eq!(bufs, [vec![vec![7u8]], expect].concat());
        // A count that does not match the present slots is an error that
        // drops the blocks, never a panic.
        let mut short = vec![1u8; 4];
        let err = ReadDest::Append(&mut short).fill_holes(0, 4, present.iter().copied());
        assert!(matches!(err, Err(BlockDeviceError::Io { .. })));
        assert!(short.is_empty());
    }

    #[test]
    fn error_display() {
        let samples: Vec<(BlockDeviceError, &str)> = vec![
            (BlockDeviceError::OutOfRange { index: 9, num_blocks: 4 }, "out of range"),
            (BlockDeviceError::WrongBufferSize { got: 1, expected: 8 }, "block size"),
            (BlockDeviceError::Io { reason: "bad sector".into() }, "bad sector"),
            (BlockDeviceError::NoSpace, "no space"),
            (BlockDeviceError::Unsupported { what: "trim".into() }, "trim"),
            (BlockDeviceError::BadKey, "verification"),
            (BlockDeviceError::CorruptMetadata { detail: "magic".into() }, "magic"),
        ];
        for (err, needle) in samples {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }
}
