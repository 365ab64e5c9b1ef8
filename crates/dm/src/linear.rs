//! `dm-linear`: expose a contiguous sub-range of a device as a device.

use mobiceal_blockdev::{BlockDevice, BlockDeviceError, BlockIndex, ReadDest, SharedDevice};

/// A linear remapping target: blocks `[offset, offset+len)` of the backing
/// device appear as blocks `[0, len)`.
///
/// The only layer in the stacks that remaps block indices. It carves the
/// userdata partition's data area out from the metadata region and the
/// 16 KiB encryption footer (Fig. 3 of the paper), and it hides the
/// password-check header block below every unlocked volume, MobiCeal's
/// and Android FDE's alike.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use mobiceal_blockdev::{BlockDevice, MemDisk};
/// use mobiceal_dm::DmLinear;
///
/// let raw = Arc::new(MemDisk::with_default_timing(100, 512));
/// let part = DmLinear::new(raw.clone(), 10, 20)?;
/// part.write_block(0, &vec![1u8; 512])?;
/// assert_eq!(raw.read_block(10)?, vec![1u8; 512]); // remapped
/// # Ok::<(), mobiceal_blockdev::BlockDeviceError>(())
/// ```
#[derive(Clone)]
pub struct DmLinear {
    backing: SharedDevice,
    offset: u64,
    len: u64,
}

impl std::fmt::Debug for DmLinear {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DmLinear")
            .field("offset", &self.offset)
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
}

impl DmLinear {
    /// Maps `len` blocks starting at `offset` of `backing`.
    ///
    /// # Errors
    ///
    /// [`BlockDeviceError::OutOfRange`] if the range does not fit on the
    /// backing device or `len == 0`.
    pub fn new(backing: SharedDevice, offset: u64, len: u64) -> Result<Self, BlockDeviceError> {
        let end = offset.checked_add(len).ok_or(BlockDeviceError::OutOfRange {
            index: u64::MAX,
            num_blocks: backing.num_blocks(),
        })?;
        if len == 0 || end > backing.num_blocks() {
            return Err(BlockDeviceError::OutOfRange {
                index: end.saturating_sub(1),
                num_blocks: backing.num_blocks(),
            });
        }
        Ok(DmLinear { backing, offset, len })
    }

    /// First backing block of this mapping.
    pub fn offset(&self) -> u64 {
        self.offset
    }
}

impl BlockDevice for DmLinear {
    fn num_blocks(&self) -> u64 {
        self.len
    }

    fn block_size(&self) -> usize {
        self.backing.block_size()
    }

    fn read_block(&self, index: BlockIndex) -> Result<Vec<u8>, BlockDeviceError> {
        self.check_index(index)?;
        self.backing.read_block(self.offset + index)
    }

    fn write_block(&self, index: BlockIndex, data: &[u8]) -> Result<(), BlockDeviceError> {
        self.check_index(index)?;
        self.backing.write_block(self.offset + index, data)
    }

    fn read_blocks(&self, indices: &[BlockIndex]) -> Result<Vec<Vec<u8>>, BlockDeviceError> {
        mobiceal_blockdev::read_blocks_owned(self, indices)
    }

    /// Batched read: remaps the whole batch and issues one vectored read on
    /// the backing device into `dest`. An out-of-range index mid-batch
    /// reads the valid prefix first and then surfaces
    /// [`BlockDeviceError::OutOfRange`], like the sequential loop; `dest`
    /// then holds what it held before the call.
    fn read_blocks_to(
        &self,
        indices: &[BlockIndex],
        mut dest: ReadDest<'_>,
    ) -> Result<(), BlockDeviceError> {
        let bad = indices.iter().position(|&i| i >= self.len);
        let valid = &indices[..bad.unwrap_or(indices.len())];
        let mapped: Vec<BlockIndex> = valid.iter().map(|&i| self.offset + i).collect();
        let mark = dest.mark();
        self.backing.read_blocks_to(&mapped, dest.reborrow())?;
        match bad {
            Some(pos) => {
                dest.truncate(mark);
                Err(BlockDeviceError::OutOfRange { index: indices[pos], num_blocks: self.len })
            }
            None => Ok(()),
        }
    }

    /// Batched write: remaps the whole batch and issues one vectored write
    /// on the backing device; the valid prefix lands before an
    /// out-of-range index errors, like the sequential loop.
    fn write_blocks(&self, writes: &[(BlockIndex, &[u8])]) -> Result<(), BlockDeviceError> {
        let bad = writes.iter().position(|&(i, _)| i >= self.len);
        let valid = &writes[..bad.unwrap_or(writes.len())];
        let mapped: Vec<(BlockIndex, &[u8])> =
            valid.iter().map(|&(i, data)| (self.offset + i, data)).collect();
        self.backing.write_blocks(&mapped)?;
        match bad {
            Some(pos) => {
                Err(BlockDeviceError::OutOfRange { index: writes[pos].0, num_blocks: self.len })
            }
            None => Ok(()),
        }
    }

    fn flush(&self) -> Result<(), BlockDeviceError> {
        self.backing.flush()
    }

    fn host_queue_enter(&self) {
        self.backing.host_queue_enter();
    }

    fn host_queue_leave(&self) {
        self.backing.host_queue_leave();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobiceal_blockdev::MemDisk;
    use std::sync::Arc;

    fn raw() -> Arc<MemDisk> {
        Arc::new(MemDisk::with_default_timing(100, 512))
    }

    #[test]
    fn remaps_reads_and_writes() {
        let backing = raw();
        let lin = DmLinear::new(backing.clone(), 50, 10).unwrap();
        assert_eq!(lin.num_blocks(), 10);
        assert_eq!(lin.block_size(), 512);
        lin.write_block(9, &vec![3u8; 512]).unwrap();
        assert_eq!(backing.read_block(59).unwrap(), vec![3u8; 512]);
        assert_eq!(lin.read_block(9).unwrap(), vec![3u8; 512]);
    }

    #[test]
    fn rejects_access_past_mapping() {
        let lin = DmLinear::new(raw(), 50, 10).unwrap();
        assert!(matches!(lin.read_block(10), Err(BlockDeviceError::OutOfRange { .. })));
    }

    #[test]
    fn rejects_range_past_device() {
        assert!(DmLinear::new(raw(), 95, 10).is_err());
        assert!(DmLinear::new(raw(), 0, 0).is_err());
        assert!(DmLinear::new(raw(), u64::MAX, 2).is_err());
        assert!(DmLinear::new(raw(), 0, 100).is_ok());
    }

    #[test]
    fn adjacent_partitions_are_isolated() {
        let backing = raw();
        let a = DmLinear::new(backing.clone(), 0, 50).unwrap();
        let b = DmLinear::new(backing.clone(), 50, 50).unwrap();
        a.write_block(49, &vec![1u8; 512]).unwrap();
        b.write_block(0, &vec![2u8; 512]).unwrap();
        assert_eq!(a.read_block(49).unwrap(), vec![1u8; 512]);
        assert_eq!(b.read_block(0).unwrap(), vec![2u8; 512]);
    }

    #[test]
    fn flush_propagates() {
        let lin = DmLinear::new(raw(), 0, 10).unwrap();
        assert!(lin.flush().is_ok());
    }

    #[test]
    fn batched_ops_remap_like_sequential() {
        let backing = raw();
        let lin = DmLinear::new(backing.clone(), 20, 10).unwrap();
        let a = vec![1u8; 512];
        let b = vec![2u8; 512];
        lin.write_blocks(&[(0, a.as_slice()), (9, b.as_slice())]).unwrap();
        assert_eq!(backing.read_block(20).unwrap(), a);
        assert_eq!(backing.read_block(29).unwrap(), b);
        assert_eq!(lin.read_blocks(&[0, 9]).unwrap(), vec![a.clone(), b.clone()]);
        // Bytes identical to the sequential path on a twin device.
        let backing2 = raw();
        let lin2 = DmLinear::new(backing2.clone(), 20, 10).unwrap();
        lin2.write_block(0, &a).unwrap();
        lin2.write_block(9, &b).unwrap();
        assert_eq!(backing.snapshot().as_bytes(), backing2.snapshot().as_bytes());
    }

    #[test]
    fn batched_write_out_of_range_persists_prefix() {
        let backing = raw();
        let lin = DmLinear::new(backing.clone(), 0, 10).unwrap();
        let a = vec![3u8; 512];
        let err = lin.write_blocks(&[(1, a.as_slice()), (10, a.as_slice())]).unwrap_err();
        assert!(matches!(err, BlockDeviceError::OutOfRange { index: 10, .. }));
        assert_eq!(backing.read_block(1).unwrap(), a, "valid prefix landed");
        assert!(matches!(
            lin.read_blocks(&[0, 11]),
            Err(BlockDeviceError::OutOfRange { index: 11, .. })
        ));
    }
}
