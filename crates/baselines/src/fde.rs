//! Stock Android full-disk encryption (§II-A): the no-deniability baseline.

use mobiceal::{EncryptionFooter, MobiCealError, FOOTER_BYTES};
use mobiceal_blockdev::{BlockDevice, BlockDeviceError, BlockIndex, ReadDest, SharedDevice};
use mobiceal_crypto::ChaCha20Rng;
use mobiceal_dm::{DmCrypt, DmLinear};
use mobiceal_sim::{CpuCostModel, SimClock};
use std::sync::Arc;

const HEADER_MAGIC: &[u8; 8] = b"FDEVOL01";

/// Android FDE: dm-crypt (AES-CBC-ESSIV) over the whole userdata partition,
/// master key wrapped by the password in the 16 KiB footer.
///
/// The unlocked volume inherits [`DmCrypt`]'s hot path: in-place sector
/// encryption and one sector-batch cipher call per batch, so FDE workloads
/// pay no per-sector allocation on vectored I/O. The footer rides one vectored
/// write on initialize and one vectored read on open, and the batched
/// volume path is pinned against the single-block loop (same medium, never
/// more charged time) by `tests/baseline_props.rs` alongside the other
/// baselines.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use mobiceal_baselines::AndroidFde;
/// use mobiceal_blockdev::{BlockDevice, MemDisk};
/// use mobiceal_sim::SimClock;
///
/// let clock = SimClock::new();
/// let disk = Arc::new(MemDisk::new(1024, 4096, clock.clone()));
/// let fde = AndroidFde::initialize(disk, clock, "password", 1)?;
/// let vol = fde.unlock("password")?;
/// vol.write_block(0, &vec![5u8; 4096])?;
/// assert_eq!(vol.read_block(0)?[0], 5);
/// # Ok::<(), mobiceal::MobiCealError>(())
/// ```
pub struct AndroidFde {
    disk: SharedDevice,
    clock: SimClock,
    footer: EncryptionFooter,
    cpu: CpuCostModel,
    data_blocks: u64,
}

impl std::fmt::Debug for AndroidFde {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AndroidFde").field("data_blocks", &self.data_blocks).finish_non_exhaustive()
    }
}

impl AndroidFde {
    fn footer_geometry(disk: &dyn BlockDevice) -> (u64, u64) {
        let footer_blocks = (FOOTER_BYTES as u64).div_ceil(disk.block_size() as u64);
        (disk.num_blocks() - footer_blocks, footer_blocks)
    }

    /// Enables FDE on a device: generates the master key, writes the
    /// footer, and writes the volume header.
    ///
    /// # Errors
    ///
    /// Device errors; the disk must have room for the footer plus data.
    pub fn initialize(
        disk: SharedDevice,
        clock: SimClock,
        password: &str,
        seed: u64,
    ) -> Result<Self, MobiCealError> {
        let mut rng = ChaCha20Rng::from_u64_seed(seed);
        let (data_blocks, footer_blocks) = Self::footer_geometry(&disk);
        if data_blocks < 8 {
            return Err(MobiCealError::DiskTooSmall {
                required: footer_blocks + 8,
                available: disk.num_blocks(),
            });
        }
        let (footer, master) = EncryptionFooter::create(&mut rng, password, 64);
        // Write the footer region in one vectored write.
        let bytes = footer.to_bytes();
        let bs = disk.block_size();
        let blocks: Vec<Vec<u8>> = (0..footer_blocks)
            .map(|i| {
                let mut block = vec![0u8; bs];
                let lo = i as usize * bs;
                if lo < bytes.len() {
                    let hi = (lo + bs).min(bytes.len());
                    block[..hi - lo].copy_from_slice(&bytes[lo..hi]);
                }
                block
            })
            .collect();
        let writes: Vec<(u64, &[u8])> = blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (data_blocks + i as u64, b.as_slice()))
            .collect();
        disk.write_blocks(&writes)?;
        let cpu = CpuCostModel::nexus4();
        clock.advance(cpu.pbkdf2_cost());
        let fde = AndroidFde { disk, clock, footer, cpu, data_blocks };
        // Header in block 0 so unlock can verify the password.
        let crypt = fde.crypt_device(&master)?;
        crypt.write_block(0, &header_block(password, bs))?;
        let _ = master;
        Ok(fde)
    }

    /// Opens an FDE device previously initialized on `disk`.
    ///
    /// # Errors
    ///
    /// [`MobiCealError::NotInitialized`] without a valid footer.
    pub fn open(disk: SharedDevice, clock: SimClock) -> Result<Self, MobiCealError> {
        let (data_blocks, footer_blocks) = Self::footer_geometry(&disk);
        let indices: Vec<u64> = (0..footer_blocks).map(|i| data_blocks + i).collect();
        let mut bytes = Vec::with_capacity(footer_blocks as usize * disk.block_size());
        disk.read_blocks_to(&indices, ReadDest::Append(&mut bytes))?;
        let footer = EncryptionFooter::from_bytes(&bytes)?;
        Ok(AndroidFde { disk, clock, footer, cpu: CpuCostModel::nexus4(), data_blocks })
    }

    fn crypt_device(&self, key: &[u8; 32]) -> Result<DmCrypt, MobiCealError> {
        let data: SharedDevice = Arc::new(DmLinear::new(self.disk.clone(), 0, self.data_blocks)?);
        Ok(DmCrypt::new_essiv(data, key).with_timing(self.clock.clone(), self.cpu.clone()))
    }

    /// Unlocks the volume with `password` (pre-boot authentication).
    ///
    /// # Errors
    ///
    /// [`MobiCealError::BadPassword`] if the password is wrong.
    pub fn unlock(&self, password: &str) -> Result<SharedDevice, MobiCealError> {
        let key = self.footer.derive_key(password);
        self.clock.advance(self.cpu.pbkdf2_cost());
        let crypt = self.crypt_device(&key)?;
        let header = crypt.read_block(0)?;
        if !mobiceal_crypto::ct_eq(&header, &header_block(password, self.disk.block_size())) {
            return Err(MobiCealError::BadPassword);
        }
        let inner: SharedDevice = Arc::new(crypt);
        Ok(Arc::new(OffsetDevice { inner, offset: 1, len: self.data_blocks - 1 }))
    }
}

fn header_block(password: &str, block_size: usize) -> Vec<u8> {
    let mut plain = vec![0u8; block_size];
    plain[..8].copy_from_slice(HEADER_MAGIC);
    let pwd = password.as_bytes();
    let len = pwd.len().min(255);
    plain[8] = len as u8;
    plain[9..9 + len].copy_from_slice(&pwd[..len]);
    plain
}

/// Exposes blocks `offset..offset+len` of a device as `0..len` (the mounted
/// view above the verification header).
struct OffsetDevice {
    inner: SharedDevice,
    offset: u64,
    len: u64,
}

impl BlockDevice for OffsetDevice {
    fn num_blocks(&self) -> u64 {
        self.len
    }

    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn read_block(&self, index: BlockIndex) -> Result<Vec<u8>, BlockDeviceError> {
        self.check_index(index)?;
        self.inner.read_block(index + self.offset)
    }

    fn write_block(&self, index: BlockIndex, data: &[u8]) -> Result<(), BlockDeviceError> {
        self.check_index(index)?;
        self.inner.write_block(index + self.offset, data)
    }

    fn read_blocks(&self, indices: &[BlockIndex]) -> Result<Vec<Vec<u8>>, BlockDeviceError> {
        mobiceal_blockdev::read_blocks_owned(self, indices)
    }

    /// Batched read: shifts the batch past the header and forwards it as
    /// one vectored read to the dm-crypt layer below, into `dest`.
    fn read_blocks_to(
        &self,
        indices: &[BlockIndex],
        dest: ReadDest<'_>,
    ) -> Result<(), BlockDeviceError> {
        mobiceal_blockdev::read_blocks_remapped(
            &self.inner,
            indices,
            self.len,
            |i| i + self.offset,
            dest,
        )
    }

    /// Batched write: shifts the batch past the header and forwards it as
    /// one vectored write (prefix-then-error on a bad index, like the
    /// sequential loop).
    fn write_blocks(&self, writes: &[(BlockIndex, &[u8])]) -> Result<(), BlockDeviceError> {
        mobiceal_blockdev::write_blocks_remapped(&self.inner, writes, self.len, |i| i + self.offset)
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
    use mobiceal_blockdev::MemDisk;

    fn device(seed: u64) -> (Arc<MemDisk>, SimClock, AndroidFde) {
        let clock = SimClock::new();
        let disk = Arc::new(MemDisk::new(1024, 4096, clock.clone()));
        let fde = AndroidFde::initialize(disk.clone(), clock.clone(), "pwd", seed).unwrap();
        (disk, clock, fde)
    }

    #[test]
    fn roundtrip_and_persistence() {
        let (disk, clock, fde) = device(1);
        let vol = fde.unlock("pwd").unwrap();
        vol.write_block(7, &vec![0x44; 4096]).unwrap();
        drop((vol, fde));
        let fde2 = AndroidFde::open(disk, clock).unwrap();
        let vol2 = fde2.unlock("pwd").unwrap();
        assert_eq!(vol2.read_block(7).unwrap(), vec![0x44; 4096]);
    }

    #[test]
    fn wrong_password_rejected() {
        let (_disk, _clock, fde) = device(2);
        assert!(matches!(fde.unlock("nope"), Err(MobiCealError::BadPassword)));
    }

    #[test]
    fn at_rest_bytes_are_ciphertext() {
        let (disk, _clock, fde) = device(3);
        let vol = fde.unlock("pwd").unwrap();
        vol.write_block(0, &vec![0u8; 4096]).unwrap();
        let snap = disk.snapshot();
        assert!(snap.block_entropy(1) > 7.0, "block at rest must look random");
    }

    #[test]
    fn open_blank_disk_fails() {
        let clock = SimClock::new();
        let disk: Arc<MemDisk> = Arc::new(MemDisk::new(64, 4096, clock.clone()));
        assert!(AndroidFde::open(disk, clock).is_err());
    }
}
