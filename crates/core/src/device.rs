//! The assembled MobiCeal device: layout, initialization, boot, switching.

use crate::config::MobiCealConfig;
use crate::dummy::{DummyStats, DummyWriter};
use crate::error::MobiCealError;
use crate::footer::{EncryptionFooter, FOOTER_BYTES};
use crate::pde_volume::PdeVolume;
use mobiceal_blockdev::{BlockDevice, BlockDeviceError, BlockIndex, ReadDest, SharedDevice};
use mobiceal_crypto::{Aes256, CbcEssiv, ChaCha20Rng, SectorCipher};
use mobiceal_dm::DmLinear;
use mobiceal_sim::{CpuCostModel, SimClock};
use mobiceal_thinp::{AllocStrategy, MetadataView, PoolConfig, ThinPool};
use parking_lot::Mutex;
use std::sync::Arc;

const HEADER_MAGIC: &[u8; 8] = b"MCVOLHDR";

/// Per-read mapping-lookup cost of the thin layer (the dm-thin btree walk;
/// Fig. 4 attributes ~18 % sequential-read overhead to it).
pub const THIN_READ_LOOKUP: mobiceal_sim::SimDuration = mobiceal_sim::SimDuration::from_micros(26);

/// The role a volume plays, as known to the *user* (the adversary cannot
/// tell [`VolumeRole::Hidden`] apart from a dummy volume).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VolumeRole {
    /// The daily-use volume (`V1`), unlocked by the decoy password.
    Public,
    /// A deniable volume, unlocked by one of the hidden passwords.
    Hidden,
}

/// How the userdata partition is carved up (Fig. 3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceLayout {
    /// Device block size in bytes.
    pub block_size: usize,
    /// Blocks of pool metadata at the front.
    pub metadata_blocks: u64,
    /// Data-region blocks in the middle.
    pub data_blocks: u64,
    /// Blocks of encryption footer at the end (16 KiB worth).
    pub footer_blocks: u64,
}

impl DeviceLayout {
    /// Computes the layout for a disk, or an error if it cannot fit.
    fn for_disk(disk: &dyn BlockDevice, config: &MobiCealConfig) -> Result<Self, MobiCealError> {
        let block_size = disk.block_size();
        let footer_blocks = (FOOTER_BYTES as u64).div_ceil(block_size as u64);
        let required = config.metadata_blocks + footer_blocks + 64;
        if disk.num_blocks() < required {
            return Err(MobiCealError::DiskTooSmall { required, available: disk.num_blocks() });
        }
        Ok(DeviceLayout {
            block_size,
            metadata_blocks: config.metadata_blocks,
            data_blocks: disk.num_blocks() - config.metadata_blocks - footer_blocks,
            footer_blocks,
        })
    }

    /// First block of the footer region.
    fn footer_start(&self) -> u64 {
        self.metadata_blocks + self.data_blocks
    }
}

/// The MobiCeal block-layer PDE device.
///
/// See the crate docs for the full picture and an end-to-end example.
pub struct MobiCeal {
    disk: SharedDevice,
    clock: SimClock,
    config: MobiCealConfig,
    layout: DeviceLayout,
    pool: Arc<ThinPool>,
    footer: EncryptionFooter,
    dummy: Arc<Mutex<DummyWriter>>,
    cpu: CpuCostModel,
}

impl std::fmt::Debug for MobiCeal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MobiCeal")
            .field("layout", &self.layout)
            .field("num_volumes", &self.config.num_volumes)
            .finish_non_exhaustive()
    }
}

impl MobiCeal {
    /// Initializes a device: formats the pool, creates the `n` volumes,
    /// writes the footer and every volume's header block, and commits.
    ///
    /// This is the `vdc cryptfs pde wipe` flow of §V-B. The previous disk
    /// contents are destroyed.
    ///
    /// # Errors
    ///
    /// Configuration, capacity, collision ([`MobiCealError::VolumeCollision`]
    /// if hidden passwords cannot be given distinct volumes), or device
    /// errors.
    pub fn initialize(
        disk: SharedDevice,
        clock: SimClock,
        config: MobiCealConfig,
        decoy_password: &str,
        hidden_passwords: &[&str],
        seed: u64,
    ) -> Result<Self, MobiCealError> {
        config.validate().map_err(|detail| MobiCealError::BadConfig { detail })?;
        if hidden_passwords.len() as u32 > config.num_volumes - 2 {
            return Err(MobiCealError::BadConfig {
                detail: format!(
                    "{} hidden passwords cannot fit in {} volumes",
                    hidden_passwords.len(),
                    config.num_volumes
                ),
            });
        }
        let layout = DeviceLayout::for_disk(&disk, &config)?;
        let mut rng = ChaCha20Rng::from_u64_seed(seed);
        let cpu = CpuCostModel::nexus4();

        // Resolve the footer salt so every hidden password lands on a
        // distinct volume index ("If different hidden volumes result in the
        // same k, another random salt will be chosen", §IV-C).
        let master_key = rng.gen_key();
        let mut footer = None;
        'salt: for _ in 0..64 {
            let salt = rng.gen_nonce16();
            let candidate = EncryptionFooter::with_salt(
                salt,
                &master_key,
                decoy_password,
                config.pbkdf2_iterations,
            );
            let mut seen = std::collections::HashSet::new();
            for pwd in hidden_passwords {
                if !seen.insert(candidate.hidden_volume_index(pwd, config.num_volumes)) {
                    continue 'salt;
                }
            }
            footer = Some(candidate);
            break;
        }
        let footer = footer.ok_or(MobiCealError::VolumeCollision)?;

        // Carve the disk (Fig. 3): metadata | data | footer.
        let meta_dev: SharedDevice =
            Arc::new(DmLinear::new(disk.clone(), 0, layout.metadata_blocks)?);
        let data_dev: SharedDevice =
            Arc::new(DmLinear::new(disk.clone(), layout.metadata_blocks, layout.data_blocks)?);

        // The modified thin pool: random allocation (§V-A).
        let pool = Arc::new(ThinPool::create_seeded(
            data_dev,
            meta_dev,
            PoolConfig::new(config.num_volumes),
            AllocStrategy::Random,
            rng.next_u64(),
        )?);
        pool.set_read_overhead(clock.clone(), THIN_READ_LOOKUP);
        // n thin volumes, all fully over-provisioned (thin volumes cost
        // nothing until written, §II-C).
        for v in 1..=config.num_volumes {
            pool.create_volume(v, layout.data_blocks)?;
        }

        // Write the footer region.
        write_footer(&disk, &layout, &footer)?;

        // Charge the PBKDF2 derivations performed during init.
        clock.advance(cpu.pbkdf2_cost());

        // Volume headers at vblock 0: a password-check block for the public
        // and each hidden volume; plain noise for every dummy volume, so the
        // mapped-block pattern is identical across all non-public volumes.
        let hidden_indices: Vec<u32> = hidden_passwords
            .iter()
            .map(|p| footer.hidden_volume_index(p, config.num_volumes))
            .collect();
        {
            let public = pool.open_volume(1)?;
            let key = footer.derive_key(decoy_password);
            clock.advance(cpu.pbkdf2_cost());
            public.write_block(0, &header_block(&key, decoy_password, layout.block_size))?;
        }
        for v in 2..=config.num_volumes {
            let vol = pool.open_volume(v)?;
            if let Some(pos) = hidden_indices.iter().position(|&k| k == v) {
                let pwd = hidden_passwords[pos];
                let key = footer.derive_key(pwd);
                clock.advance(cpu.pbkdf2_cost());
                vol.write_block(0, &header_block(&key, pwd, layout.block_size))?;
            } else {
                let mut noise = vec![0u8; layout.block_size];
                rng.fill_bytes(&mut noise);
                clock.advance(cpu.rng_cost(layout.block_size));
                vol.write_block(0, &noise)?;
            }
        }
        pool.commit()?;

        let dummy = Arc::new(Mutex::new(DummyWriter::new(
            ChaCha20Rng::from_u64_seed(rng.next_u64()),
            clock.clone(),
            config.x,
            config.lambda,
            config.num_volumes,
            config.stored_rand_refresh,
        )));
        Ok(MobiCeal { disk, clock, config, layout, pool, footer, dummy, cpu })
    }

    /// Opens an initialized device (the boot path, §V-B).
    ///
    /// # Errors
    ///
    /// [`MobiCealError::NotInitialized`] if the footer or pool metadata is
    /// absent/corrupt.
    pub fn open(
        disk: SharedDevice,
        clock: SimClock,
        config: MobiCealConfig,
        seed: u64,
    ) -> Result<Self, MobiCealError> {
        config.validate().map_err(|detail| MobiCealError::BadConfig { detail })?;
        let layout = DeviceLayout::for_disk(&disk, &config)?;
        let footer = read_footer(&disk, &layout)?;
        let meta_dev: SharedDevice =
            Arc::new(DmLinear::new(disk.clone(), 0, layout.metadata_blocks)?);
        let data_dev: SharedDevice =
            Arc::new(DmLinear::new(disk.clone(), layout.metadata_blocks, layout.data_blocks)?);
        let mut rng = ChaCha20Rng::from_u64_seed(seed);
        let pool = Arc::new(
            ThinPool::open(
                data_dev,
                meta_dev,
                PoolConfig::new(config.num_volumes),
                AllocStrategy::Random,
                rng.next_u64(),
            )
            .map_err(|e| match e {
                BlockDeviceError::CorruptMetadata { detail } => {
                    MobiCealError::NotInitialized { detail }
                }
                other => MobiCealError::Device(other),
            })?,
        );
        pool.set_read_overhead(clock.clone(), THIN_READ_LOOKUP);
        if pool.volume_ids().len() as u32 != config.num_volumes {
            return Err(MobiCealError::NotInitialized {
                detail: format!(
                    "pool has {} volumes, config expects {}",
                    pool.volume_ids().len(),
                    config.num_volumes
                ),
            });
        }
        let cpu = CpuCostModel::nexus4();
        let dummy = Arc::new(Mutex::new(DummyWriter::new(
            ChaCha20Rng::from_u64_seed(rng.next_u64()),
            clock.clone(),
            config.x,
            config.lambda,
            config.num_volumes,
            config.stored_rand_refresh,
        )));
        Ok(MobiCeal { disk, clock, config, layout, pool, footer, dummy, cpu })
    }

    /// Unlocks the public volume with the decoy password (pre-boot
    /// authentication, §V-B). The returned device has the dummy-write hook
    /// attached and dm-crypt on top.
    ///
    /// # Errors
    ///
    /// [`MobiCealError::BadPassword`] if verification fails.
    pub fn unlock_public(&self, password: &str) -> Result<UnlockedVolume, MobiCealError> {
        let key = self.footer.derive_key(password);
        self.clock.advance(self.cpu.pbkdf2_cost());
        let raw = self.pool.open_volume(1)?;
        verify_header(&raw, &key, password, self.layout.block_size)?;
        let pde = PdeVolume::new(
            raw,
            Arc::clone(&self.pool),
            Arc::clone(&self.dummy),
            self.cpu.clone(),
            self.clock.clone(),
        );
        let crypt = mobiceal_dm::DmCrypt::new_essiv(Arc::new(pde), &key)
            .with_timing(self.clock.clone(), self.cpu.clone());
        Ok(self.assemble_unlocked(crypt, VolumeRole::Public, 1))
    }

    /// Unlocks a hidden volume with a hidden password (the screen-lock
    /// switching path, §V-B/§V-C). No dummy-write hook: hidden writes are
    /// covered by the dummy traffic of public operation.
    ///
    /// # Errors
    ///
    /// [`MobiCealError::BadPassword`] if verification fails (including when
    /// `password` happens to index a dummy volume).
    pub fn unlock_hidden(&self, password: &str) -> Result<UnlockedVolume, MobiCealError> {
        let k = self.footer.hidden_volume_index(password, self.config.num_volumes);
        let key = self.footer.derive_key(password);
        self.clock.advance(self.cpu.pbkdf2_cost());
        let raw = self.pool.open_volume(k)?;
        verify_header(&raw, &key, password, self.layout.block_size)?;
        let crypt = mobiceal_dm::DmCrypt::new_essiv(Arc::new(raw), &key)
            .with_timing(self.clock.clone(), self.cpu.clone());
        Ok(self.assemble_unlocked(crypt, VolumeRole::Hidden, k))
    }

    /// Packages the decrypted stack as an [`UnlockedVolume`].
    fn assemble_unlocked(
        &self,
        crypt: mobiceal_dm::DmCrypt,
        role: VolumeRole,
        volume_id: u32,
    ) -> UnlockedVolume {
        let data_blocks = self.layout.data_blocks - 1;
        UnlockedVolume { inner: Arc::new(crypt), role, volume_id, data_blocks }
    }

    /// Commits pool metadata (called by Vold on clean unmount/shutdown).
    ///
    /// # Errors
    ///
    /// Metadata-device I/O errors.
    pub fn commit(&self) -> Result<(), MobiCealError> {
        Ok(self.pool.commit()?)
    }

    /// The device layout in use.
    pub fn layout(&self) -> DeviceLayout {
        self.layout
    }

    /// The configuration in use.
    pub fn config(&self) -> &MobiCealConfig {
        &self.config
    }

    /// The clock this device charges time to.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Dummy-write counters.
    pub fn dummy_stats(&self) -> DummyStats {
        self.dummy.lock().stats()
    }

    /// The pool metadata exactly as the adversary can read it (§IV-B:
    /// "the system keeps the metadata in a known location and the adversary
    /// can have access to them").
    pub fn metadata_view(&self) -> MetadataView {
        self.pool.metadata_view()
    }

    /// Free blocks left in the shared pool.
    pub fn free_blocks(&self) -> u64 {
        self.pool.free_blocks()
    }

    /// The shared thin pool (for GC and experiments).
    pub(crate) fn pool(&self) -> &Arc<ThinPool> {
        &self.pool
    }

    /// The footer (white-box access for experiments; on the real device it
    /// is world-readable anyway).
    pub fn footer(&self) -> &EncryptionFooter {
        &self.footer
    }

    /// Hidden-volume index a password would select (does not verify it).
    pub fn volume_index_for(&self, password: &str) -> u32 {
        self.footer.hidden_volume_index(password, self.config.num_volumes)
    }

    /// The raw userdata device this MobiCeal instance sits on (what the
    /// adversary images at a checkpoint).
    pub fn disk(&self) -> &SharedDevice {
        &self.disk
    }
}

/// An unlocked, decrypted view of a volume: what gets mounted at `/data`.
///
/// Block 0 of the underlying thin volume is the (encrypted) header, so this
/// device exposes blocks `1..` shifted down by one.
#[derive(Clone)]
pub struct UnlockedVolume {
    inner: Arc<dyn BlockDevice>,
    role: VolumeRole,
    volume_id: u32,
    data_blocks: u64,
}

impl std::fmt::Debug for UnlockedVolume {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UnlockedVolume")
            .field("role", &self.role)
            .field("volume_id", &self.volume_id)
            .finish_non_exhaustive()
    }
}

impl UnlockedVolume {
    /// The role the user unlocked this volume as.
    pub fn role(&self) -> VolumeRole {
        self.role
    }

    /// The thin-volume id backing this session.
    pub fn volume_id(&self) -> u32 {
        self.volume_id
    }
}

impl BlockDevice for UnlockedVolume {
    fn num_blocks(&self) -> u64 {
        self.data_blocks
    }

    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn read_block(&self, index: BlockIndex) -> Result<Vec<u8>, BlockDeviceError> {
        self.check_index(index)?;
        self.inner.read_block(index + 1)
    }

    fn write_block(&self, index: BlockIndex, data: &[u8]) -> Result<(), BlockDeviceError> {
        self.check_index(index)?;
        self.inner.write_block(index + 1, data)
    }

    fn read_blocks(&self, indices: &[BlockIndex]) -> Result<Vec<Vec<u8>>, BlockDeviceError> {
        mobiceal_blockdev::read_blocks_owned(self, indices)
    }

    /// Batched read: shifts the whole batch past the header block and
    /// forwards it as one vectored read down the dm-crypt → PDE → thin
    /// pipeline into `dest` (prefix-then-error on a bad index, like the
    /// sequential loop).
    fn read_blocks_to(
        &self,
        indices: &[BlockIndex],
        dest: ReadDest<'_>,
    ) -> Result<(), BlockDeviceError> {
        mobiceal_blockdev::read_blocks_remapped(
            &self.inner,
            indices,
            self.data_blocks,
            |i| i + 1,
            dest,
        )
    }

    /// Batched write: shifts the whole batch past the header block and
    /// forwards it as one vectored write down the dm-crypt → PDE → thin
    /// pipeline (prefix-then-error on a bad index, like the sequential
    /// loop).
    fn write_blocks(&self, writes: &[(BlockIndex, &[u8])]) -> Result<(), BlockDeviceError> {
        mobiceal_blockdev::write_blocks_remapped(&self.inner, writes, self.data_blocks, |i| i + 1)
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

/// Builds the encrypted header block proving knowledge of `password`
/// (the "encrypted password at the beginning of Vk", §V-B).
fn header_block(key: &[u8; 32], password: &str, block_size: usize) -> Vec<u8> {
    let mut plain = vec![0u8; block_size];
    plain[..8].copy_from_slice(HEADER_MAGIC);
    let pwd = password.as_bytes();
    let len = pwd.len().min(255);
    plain[8] = len as u8;
    plain[9..9 + len].copy_from_slice(&pwd[..len]);
    let cipher = CbcEssiv::with_essiv_key(Aes256::new(key), &mobiceal_crypto::sha256(key));
    cipher.encrypt_sector_in_place(0, &mut plain);
    plain
}

/// Verifies a candidate password against a volume's header block.
fn verify_header(
    vol: &mobiceal_thinp::ThinVolume,
    key: &[u8; 32],
    password: &str,
    block_size: usize,
) -> Result<(), MobiCealError> {
    let stored = vol.read_block(0)?;
    let expected = header_block(key, password, block_size);
    if mobiceal_crypto::ct_eq(&stored, &expected) {
        Ok(())
    } else {
        Err(MobiCealError::BadPassword)
    }
}

fn write_footer(
    disk: &SharedDevice,
    layout: &DeviceLayout,
    footer: &EncryptionFooter,
) -> Result<(), MobiCealError> {
    let bytes = footer.to_bytes();
    let bs = layout.block_size;
    let blocks: Vec<Vec<u8>> = (0..layout.footer_blocks)
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
    let writes: Vec<(BlockIndex, &[u8])> = blocks
        .iter()
        .enumerate()
        .map(|(i, block)| (layout.footer_start() + i as u64, block.as_slice()))
        .collect();
    disk.write_blocks(&writes)?;
    Ok(())
}

fn read_footer(
    disk: &SharedDevice,
    layout: &DeviceLayout,
) -> Result<EncryptionFooter, MobiCealError> {
    let indices: Vec<BlockIndex> =
        (0..layout.footer_blocks).map(|i| layout.footer_start() + i).collect();
    let mut bytes = Vec::with_capacity((layout.footer_blocks as usize) * layout.block_size);
    disk.read_blocks_to(&indices, ReadDest::Append(&mut bytes))?;
    EncryptionFooter::from_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobiceal_blockdev::MemDisk;

    fn fast_config() -> MobiCealConfig {
        MobiCealConfig {
            num_volumes: 5,
            pbkdf2_iterations: 4,
            metadata_blocks: 64,
            ..MobiCealConfig::default()
        }
    }

    fn fresh_device(seed: u64) -> (Arc<MemDisk>, SimClock, MobiCeal) {
        let clock = SimClock::new();
        let disk = Arc::new(MemDisk::new(4096, 4096, clock.clone()));
        let mc = MobiCeal::initialize(
            disk.clone(),
            clock.clone(),
            fast_config(),
            "decoy",
            &["hidden-a", "hidden-b"],
            seed,
        )
        .unwrap();
        (disk, clock, mc)
    }

    #[test]
    fn initialize_and_unlock_both_roles() {
        let (_disk, _clock, mc) = fresh_device(1);
        assert_eq!(mc.config(), &fast_config(), "config round-trips through the device");
        let public = mc.unlock_public("decoy").unwrap();
        assert_eq!(public.role(), VolumeRole::Public);
        assert_eq!(public.volume_id(), 1);
        let hidden = mc.unlock_hidden("hidden-a").unwrap();
        assert_eq!(hidden.role(), VolumeRole::Hidden);
        assert!((2..=5).contains(&hidden.volume_id()));
    }

    #[test]
    fn wrong_passwords_rejected() {
        let (_disk, _clock, mc) = fresh_device(2);
        assert_eq!(mc.unlock_public("wrong").unwrap_err(), MobiCealError::BadPassword);
        assert_eq!(mc.unlock_hidden("wrong").unwrap_err(), MobiCealError::BadPassword);
        // The decoy password is not a hidden password.
        assert_eq!(mc.unlock_hidden("decoy").unwrap_err(), MobiCealError::BadPassword);
        // Hidden passwords do not open the public volume.
        assert_eq!(mc.unlock_public("hidden-a").unwrap_err(), MobiCealError::BadPassword);
    }

    #[test]
    fn public_and_hidden_data_are_isolated_and_durable() {
        let (disk, clock, mc) = fresh_device(3);
        let public = mc.unlock_public("decoy").unwrap();
        public.write_block(10, &vec![0xAA; 4096]).unwrap();
        let hidden = mc.unlock_hidden("hidden-b").unwrap();
        hidden.write_block(10, &vec![0xBB; 4096]).unwrap();
        assert_eq!(public.read_block(10).unwrap(), vec![0xAA; 4096]);
        assert_eq!(hidden.read_block(10).unwrap(), vec![0xBB; 4096]);
        mc.commit().unwrap();
        drop((public, hidden, mc));

        // Reboot.
        let mc2 = MobiCeal::open(disk, clock, fast_config(), 99).unwrap();
        let public = mc2.unlock_public("decoy").unwrap();
        let hidden = mc2.unlock_hidden("hidden-b").unwrap();
        assert_eq!(public.read_block(10).unwrap(), vec![0xAA; 4096]);
        assert_eq!(hidden.read_block(10).unwrap(), vec![0xBB; 4096]);
    }

    #[test]
    fn hidden_passwords_map_to_distinct_volumes() {
        let (_disk, _clock, mc) = fresh_device(4);
        let ka = mc.unlock_hidden("hidden-a").unwrap().volume_id();
        let kb = mc.unlock_hidden("hidden-b").unwrap().volume_id();
        assert_ne!(ka, kb);
    }

    #[test]
    fn all_nonpublic_volumes_have_identical_mapping_footprint_at_init() {
        // Right after initialization every non-public volume has exactly one
        // mapped block (its header/noise), so nothing singles out hidden
        // volumes.
        let (_disk, _clock, mc) = fresh_device(5);
        let view = mc.metadata_view();
        for v in 2..=5 {
            assert_eq!(view.mapped_blocks(v), 1, "volume {v}");
        }
        assert_eq!(view.mapped_blocks(1), 1);
    }

    #[test]
    fn public_writes_generate_dummy_traffic() {
        let (_disk, _clock, mc) = fresh_device(6);
        let public = mc.unlock_public("decoy").unwrap();
        for i in 0..400 {
            public.write_block(i, &vec![1u8; 4096]).unwrap();
        }
        let stats = mc.dummy_stats();
        assert_eq!(stats.trigger_checks, 400);
        assert!(stats.bursts > 0, "with 400 allocations some bursts must fire");
        assert!(stats.blocks_written > 0);
    }

    #[test]
    fn hidden_writes_do_not_trigger_dummies() {
        let (_disk, _clock, mc) = fresh_device(7);
        let hidden = mc.unlock_hidden("hidden-a").unwrap();
        for i in 0..100 {
            hidden.write_block(i, &vec![2u8; 4096]).unwrap();
        }
        assert_eq!(mc.dummy_stats().trigger_checks, 0);
    }

    #[test]
    fn on_disk_blocks_are_ciphertext() {
        let (disk, _clock, mc) = fresh_device(8);
        let public = mc.unlock_public("decoy").unwrap();
        public.write_block(0, &vec![0u8; 4096]).unwrap(); // all-zero plaintext
        let snap = disk.snapshot();
        // Every non-zero block on the device must look like randomness
        // (entropy near 8 bits/byte) — data, headers, and noise alike.
        let mut checked = 0;
        for b in mc.layout().metadata_blocks..mc.layout().footer_start() {
            if !snap.is_zero_block(b) {
                let h = snap.block_entropy(b);
                assert!(h > 7.0, "block {b} entropy {h}");
                checked += 1;
            }
        }
        assert!(checked >= 6, "expected several ciphertext blocks, saw {checked}");
    }

    #[test]
    fn open_uninitialized_disk_fails_cleanly() {
        let clock = SimClock::new();
        let blank: Arc<MemDisk> = Arc::new(MemDisk::new(4096, 4096, clock.clone()));
        assert!(matches!(
            MobiCeal::open(blank, clock, fast_config(), 0),
            Err(MobiCealError::NotInitialized { .. })
        ));
    }

    #[test]
    fn too_small_disk_rejected() {
        let clock = SimClock::new();
        let tiny: Arc<MemDisk> = Arc::new(MemDisk::new(64, 4096, clock.clone()));
        assert!(matches!(
            MobiCeal::initialize(tiny, clock, fast_config(), "d", &[], 0),
            Err(MobiCealError::DiskTooSmall { .. })
        ));
    }

    #[test]
    fn too_many_hidden_passwords_rejected() {
        let clock = SimClock::new();
        let disk: Arc<MemDisk> = Arc::new(MemDisk::new(4096, 4096, clock.clone()));
        let pwds: Vec<&str> = vec!["a", "b", "c", "d"]; // n=5 allows at most 3
        assert!(matches!(
            MobiCeal::initialize(disk, clock, fast_config(), "decoy", &pwds, 0),
            Err(MobiCealError::BadConfig { .. })
        ));
    }

    #[test]
    fn unlocked_volume_respects_geometry() {
        let (_disk, _clock, mc) = fresh_device(9);
        let public = mc.unlock_public("decoy").unwrap();
        assert_eq!(public.block_size(), 4096);
        assert!(public.num_blocks() > 0);
        assert!(public.read_block(public.num_blocks()).is_err());
        assert!(public.flush().is_ok());
    }

    #[test]
    fn batched_unlocked_io_roundtrips_through_the_full_stack() {
        let (_disk, _clock, mc) = fresh_device(11);
        let public = mc.unlock_public("decoy").unwrap();
        let blocks: Vec<(u64, Vec<u8>)> =
            (0..64u64).map(|i| (i * 2, vec![(i % 251) as u8; 4096])).collect();
        let batch: Vec<(u64, &[u8])> = blocks.iter().map(|(b, d)| (*b, d.as_slice())).collect();
        public.write_blocks(&batch).unwrap();
        let indices: Vec<u64> = blocks.iter().map(|(b, _)| *b).collect();
        let bufs = public.read_blocks(&indices).unwrap();
        for ((_, expect), got) in blocks.iter().zip(&bufs) {
            assert_eq!(expect, got);
        }
        // The batch triggered the dummy hook once per fresh allocation.
        assert_eq!(mc.dummy_stats().trigger_checks, 64);
        // Out-of-range mid-batch: prefix persists, error surfaces.
        let end = public.num_blocks();
        let d = vec![9u8; 4096];
        assert!(matches!(
            public.write_blocks(&[(1, d.as_slice()), (end, d.as_slice())]),
            Err(BlockDeviceError::OutOfRange { .. })
        ));
        assert_eq!(public.read_block(1).unwrap(), d);
        // Hidden volumes ride the same vectored pipeline.
        let hidden = mc.unlock_hidden("hidden-a").unwrap();
        hidden.write_blocks(&batch).unwrap();
        assert_eq!(hidden.read_blocks(&[0]).unwrap()[0], blocks[0].1);
    }

    #[test]
    fn no_hidden_passwords_is_plain_encryption_mode() {
        // §IV-B "User Steps": encryption without deniability still creates
        // dummy volumes so the layout is uniform.
        let clock = SimClock::new();
        let disk: Arc<MemDisk> = Arc::new(MemDisk::new(4096, 4096, clock.clone()));
        let mc = MobiCeal::initialize(disk, clock, fast_config(), "only-pwd", &[], 10).unwrap();
        let public = mc.unlock_public("only-pwd").unwrap();
        public.write_block(0, &vec![3u8; 4096]).unwrap();
        assert_eq!(public.read_block(0).unwrap(), vec![3u8; 4096]);
        let view = mc.metadata_view();
        for v in 2..=5 {
            assert!(
                view.mapped_blocks(v) >= 1,
                "dummy volume {v} must keep at least its noise header"
            );
        }
    }
}
