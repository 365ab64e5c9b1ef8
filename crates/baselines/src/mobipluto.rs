//! A MobiPluto/Mobiflage-class static hidden-volume system (§II-B, §VII-A).
//!
//! The recipe all pre-MobiCeal mobile PDE systems share:
//!
//! 1. at initialization the whole disk is overwritten with randomness;
//! 2. the public volume allocates **sequentially from the front** (here via
//!    a stock thin pool, as in MobiPluto);
//! 3. hidden data is encrypted and placed at a password-derived secret
//!    offset in the back of the disk, with **no metadata trace**.
//!
//! One snapshot reveals nothing: hidden ciphertext is indistinguishable
//! from the initialization randomness. But any *change* to the randomness
//! between two snapshots is unexplainable — the exact weakness MobiCeal's
//! dummy writes remove (§IV-A).

use mobiceal::{EncryptionFooter, MobiCealError, FOOTER_BYTES};
use mobiceal_blockdev::{BlockDevice, ReadDest, SharedDevice};
use mobiceal_crypto::{Aes256, CbcEssiv, ChaCha20Rng, SectorCipher};
use mobiceal_dm::{DmCrypt, DmLinear};
use mobiceal_sim::{CpuCostModel, SimClock};
use mobiceal_thinp::{AllocStrategy, MetadataView, PoolConfig, ThinPool};
use parking_lot::Mutex;
use std::sync::Arc;

/// Magic prefix of the hidden-region cursor record (slot 0 of the hidden
/// region, encrypted under the hidden key — ciphertext at a password-derived
/// offset, indistinguishable from the initialization randomness).
const CURSOR_MAGIC: &[u8; 8] = b"MPHCUR01";

/// The legacy hidden-volume baseline. See the module docs.
pub struct MobiPluto {
    disk: SharedDevice,
    clock: SimClock,
    pool: Arc<ThinPool>,
    footer: EncryptionFooter,
    cpu: CpuCostModel,
    metadata_blocks: u64,
    data_blocks: u64,
    hidden_cipher: Option<CbcEssiv<Aes256>>,
    hidden_offset: u64,
    hidden_cursor: Mutex<u64>,
}

impl std::fmt::Debug for MobiPluto {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MobiPluto").field("data_blocks", &self.data_blocks).finish_non_exhaustive()
    }
}

impl MobiPluto {
    /// Initializes the device: random-fills the disk, formats the
    /// (sequential) thin pool for the public volume, prepares the hidden
    /// region for `hidden_password` if given.
    ///
    /// # Errors
    ///
    /// Capacity or device errors.
    pub fn initialize(
        disk: SharedDevice,
        clock: SimClock,
        decoy_password: &str,
        hidden_password: Option<&str>,
        seed: u64,
    ) -> Result<Self, MobiCealError> {
        let mut rng = ChaCha20Rng::from_u64_seed(seed);
        let metadata_blocks = 64u64;
        let footer_blocks = (FOOTER_BYTES as u64).div_ceil(disk.block_size() as u64);
        if disk.num_blocks() < metadata_blocks + footer_blocks + 64 {
            return Err(MobiCealError::DiskTooSmall {
                required: metadata_blocks + footer_blocks + 64,
                available: disk.num_blocks(),
            });
        }
        let data_blocks = disk.num_blocks() - metadata_blocks - footer_blocks;

        // Step 1: fill the data region with randomness (the static
        // defence). The fill lands as maximal sequential extents — one
        // multi-block command per chunk, like MemDisk's full-disk fill —
        // instead of one command per block, so initialization is charged
        // what a real `dd if=/dev/urandom` pass costs.
        let data_dev: SharedDevice =
            Arc::new(DmLinear::new(disk.clone(), metadata_blocks, data_blocks)?);
        {
            let mut fill_rng = ChaCha20Rng::from_u64_seed(seed ^ 0xF111);
            let bs = disk.block_size();
            const FILL_EXTENT: u64 = 512;
            let mut b = 0u64;
            while b < data_blocks {
                let take = (data_blocks - b).min(FILL_EXTENT);
                let bufs: Vec<Vec<u8>> = (0..take)
                    .map(|_| {
                        let mut buf = vec![0u8; bs];
                        fill_rng.fill_bytes(&mut buf);
                        buf
                    })
                    .collect();
                let writes: Vec<(u64, &[u8])> =
                    bufs.iter().enumerate().map(|(i, d)| (b + i as u64, d.as_slice())).collect();
                data_dev.write_blocks(&writes)?;
                b += take;
            }
        }

        // Footer (same format as FDE), one vectored write.
        let (footer, master) = EncryptionFooter::create(&mut rng, decoy_password, 64);
        let bytes = footer.to_bytes();
        let bs = disk.block_size();
        let footer_payloads: Vec<Vec<u8>> = (0..footer_blocks)
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
        let footer_writes: Vec<(u64, &[u8])> = footer_payloads
            .iter()
            .enumerate()
            .map(|(i, d)| (metadata_blocks + data_blocks + i as u64, d.as_slice()))
            .collect();
        disk.write_blocks(&footer_writes)?;

        // Step 2: a stock (sequential) thin pool hosting the public volume.
        let meta_dev: SharedDevice = Arc::new(DmLinear::new(disk.clone(), 0, metadata_blocks)?);
        let pool = Arc::new(ThinPool::create_seeded(
            data_dev,
            meta_dev,
            PoolConfig::new(1),
            AllocStrategy::Sequential,
            rng.next_u64(),
        )?);
        pool.set_read_overhead(clock.clone(), mobiceal::THIN_READ_LOOKUP);
        pool.create_volume(1, data_blocks)?;

        let cpu = CpuCostModel::nexus4();
        clock.advance(cpu.pbkdf2_cost());

        // Step 3: the hidden region at a password-derived offset in the
        // back half, with its own cipher. No metadata anywhere.
        let (hidden_cipher, hidden_offset) = match hidden_password {
            Some(pwd) => {
                let key = footer.derive_key(pwd);
                clock.advance(cpu.pbkdf2_cost());
                let back_half = data_blocks / 2;
                let span = data_blocks - back_half - 8;
                let mut digest = [0u8; 8];
                mobiceal_crypto::pbkdf2_hmac_sha256(pwd.as_bytes(), &footer.salt, 64, &mut digest);
                let offset = back_half + (u64::from_le_bytes(digest) % span.max(1));
                let cipher =
                    CbcEssiv::with_essiv_key(Aes256::new(&key), &mobiceal_crypto::sha256(&key));
                (Some(cipher), offset)
            }
            None => (None, 0),
        };

        let mp = MobiPluto {
            disk,
            clock,
            pool,
            footer,
            cpu,
            metadata_blocks,
            data_blocks,
            hidden_cipher,
            hidden_offset,
            hidden_cursor: Mutex::new(0),
        };

        // Public volume password-check header at vblock 0.
        let key = master;
        let vol = mp.pool.open_volume(1)?;
        let crypt = DmCrypt::new_essiv(Arc::new(vol), &key);
        crypt.write_block(0, &public_header(decoy_password, bs))?;
        mp.pool.commit()?;
        Ok(mp)
    }

    /// Unlocks the public volume.
    ///
    /// # Errors
    ///
    /// [`MobiCealError::BadPassword`] on a wrong decoy password.
    pub fn unlock_public(&self, password: &str) -> Result<SharedDevice, MobiCealError> {
        let key = self.footer.derive_key(password);
        self.clock.advance(self.cpu.pbkdf2_cost());
        let vol = self.pool.open_volume(1)?;
        let crypt = DmCrypt::new_essiv(Arc::new(vol), &key)
            .with_timing(self.clock.clone(), self.cpu.clone());
        let header = crypt.read_block(0)?;
        if !mobiceal_crypto::ct_eq(&header, &public_header(password, self.disk.block_size())) {
            return Err(MobiCealError::BadPassword);
        }
        Ok(Arc::new(crypt))
    }

    /// Writes one hidden block (sequentially within the hidden region, as
    /// Mobiflage's FAT-style hidden volume would).
    ///
    /// # Errors
    ///
    /// Fails if no hidden password was configured, or on device errors.
    pub fn hidden_write(&self, data: &[u8]) -> Result<(), MobiCealError> {
        self.hidden_write_blocks(&[data])
    }

    /// Writes a run of hidden blocks as one vectored sequential extent in
    /// the hidden region. The hidden cursor — the region's log head —
    /// advances only after the extent has landed, so a mid-batch device
    /// error leaves it unmoved and the whole run can be retried.
    ///
    /// # Errors
    ///
    /// Fails if no hidden password was configured, or on device errors.
    pub fn hidden_write_blocks(&self, blocks: &[&[u8]]) -> Result<(), MobiCealError> {
        let cipher = self.hidden_cipher.as_ref().ok_or(MobiCealError::BadPassword)?;
        let mut cursor = self.hidden_cursor.lock();
        let mut payloads: Vec<(u64, Vec<u8>)> = Vec::with_capacity(blocks.len());
        for (i, data) in blocks.iter().enumerate() {
            // Slot 0 of the hidden region holds the cursor record; data
            // starts one past the derived offset.
            let sector = self.hidden_offset + 1 + *cursor + i as u64;
            let mut ct = data.to_vec();
            cipher.encrypt_sector_in_place(sector, &mut ct);
            payloads.push((self.metadata_blocks + sector, ct));
        }
        let extent: Vec<(u64, &[u8])> = payloads.iter().map(|(b, d)| (*b, d.as_slice())).collect();
        self.disk.write_blocks(&extent)?;
        for data in blocks {
            self.clock.advance(self.cpu.aes_cost(data.len()));
        }
        *cursor += blocks.len() as u64;
        Ok(())
    }

    /// Pool metadata (public volume only -- hidden data has none).
    pub fn metadata_view(&self) -> MetadataView {
        self.pool.metadata_view()
    }

    /// Start of the data region on the raw disk.
    pub fn data_region_start(&self) -> u64 {
        self.metadata_blocks
    }

    /// Length of the data region in blocks.
    pub fn data_region_blocks(&self) -> u64 {
        self.data_blocks
    }

    /// Commits pool metadata.
    ///
    /// # Errors
    ///
    /// Metadata I/O errors.
    pub fn commit(&self) -> Result<(), MobiCealError> {
        Ok(self.pool.commit()?)
    }

    /// Persists the hidden log head: an encrypted cursor record in the
    /// hidden region's first slot, then a sync. The record is ciphertext
    /// at the password-derived offset — to an adversary without the hidden
    /// password it is indistinguishable from the initialization randomness,
    /// so the single-snapshot deniability argument is unchanged.
    ///
    /// # Errors
    ///
    /// Fails if no hidden password was configured, or on device errors.
    pub fn hidden_commit(&self) -> Result<(), MobiCealError> {
        let cipher = self.hidden_cipher.as_ref().ok_or(MobiCealError::BadPassword)?;
        let cursor = self.hidden_cursor.lock();
        let mut record = vec![0u8; self.disk.block_size()];
        record[..8].copy_from_slice(CURSOR_MAGIC);
        record[8..16].copy_from_slice(&cursor.to_le_bytes());
        let digest = mobiceal_crypto::sha256(&record[..16]);
        record[16..48].copy_from_slice(&digest);
        cipher.encrypt_sector_in_place(self.hidden_offset, &mut record);
        self.clock.advance(self.cpu.aes_cost(record.len()));
        self.disk.write_block(self.metadata_blocks + self.hidden_offset, &record)?;
        self.disk.flush()?;
        Ok(())
    }

    /// Remounts an initialized device: parses the footer, replays the thin
    /// pool's committed metadata journal for the public volume, rederives
    /// the hidden offset/cipher from `hidden_password`, and resumes the
    /// hidden log head from the cursor record if one was ever
    /// [`MobiPluto::hidden_commit`]ted (a slot still holding initialization
    /// randomness fails the record's digest and yields head 0). The decoy
    /// password is verified against the public volume header.
    ///
    /// # Errors
    ///
    /// [`MobiCealError::NotInitialized`] if no footer is present,
    /// [`MobiCealError::BadPassword`] on a wrong decoy password, metadata
    /// corruption or device errors otherwise.
    pub fn open(
        disk: SharedDevice,
        clock: SimClock,
        decoy_password: &str,
        hidden_password: Option<&str>,
        seed: u64,
    ) -> Result<Self, MobiCealError> {
        let metadata_blocks = 64u64;
        let bs = disk.block_size();
        let footer_blocks = (FOOTER_BYTES as u64).div_ceil(bs as u64);
        if disk.num_blocks() < metadata_blocks + footer_blocks + 64 {
            return Err(MobiCealError::DiskTooSmall {
                required: metadata_blocks + footer_blocks + 64,
                available: disk.num_blocks(),
            });
        }
        let data_blocks = disk.num_blocks() - metadata_blocks - footer_blocks;

        let footer_indices: Vec<u64> =
            (0..footer_blocks).map(|i| metadata_blocks + data_blocks + i).collect();
        let mut footer_bytes = Vec::with_capacity(footer_blocks as usize * disk.block_size());
        disk.read_blocks_to(&footer_indices, ReadDest::Append(&mut footer_bytes))?;
        footer_bytes.truncate(FOOTER_BYTES);
        let footer = EncryptionFooter::from_bytes(&footer_bytes)?;

        let data_dev: SharedDevice =
            Arc::new(DmLinear::new(disk.clone(), metadata_blocks, data_blocks)?);
        let meta_dev: SharedDevice = Arc::new(DmLinear::new(disk.clone(), 0, metadata_blocks)?);
        let pool = Arc::new(ThinPool::open(
            data_dev,
            meta_dev,
            PoolConfig::new(1),
            AllocStrategy::Sequential,
            seed,
        )?);
        pool.set_read_overhead(clock.clone(), mobiceal::THIN_READ_LOOKUP);

        let cpu = CpuCostModel::nexus4();
        let (hidden_cipher, hidden_offset) = match hidden_password {
            Some(pwd) => {
                let key = footer.derive_key(pwd);
                clock.advance(cpu.pbkdf2_cost());
                let back_half = data_blocks / 2;
                let span = data_blocks - back_half - 8;
                let mut digest = [0u8; 8];
                mobiceal_crypto::pbkdf2_hmac_sha256(pwd.as_bytes(), &footer.salt, 64, &mut digest);
                let offset = back_half + (u64::from_le_bytes(digest) % span.max(1));
                let cipher =
                    CbcEssiv::with_essiv_key(Aes256::new(&key), &mobiceal_crypto::sha256(&key));
                (Some(cipher), offset)
            }
            None => (None, 0),
        };

        let mp = MobiPluto {
            disk,
            clock,
            pool,
            footer,
            cpu,
            metadata_blocks,
            data_blocks,
            hidden_cipher,
            hidden_offset,
            hidden_cursor: Mutex::new(0),
        };

        if let Some(cipher) = &mp.hidden_cipher {
            let mut buf = mp.disk.read_block(mp.metadata_blocks + mp.hidden_offset)?;
            mp.clock.advance(mp.cpu.aes_cost(buf.len()));
            cipher.decrypt_sector_in_place(mp.hidden_offset, &mut buf);
            if buf.len() >= 48
                && &buf[..8] == CURSOR_MAGIC
                && mobiceal_crypto::sha256(&buf[..16])[..] == buf[16..48]
            {
                *mp.hidden_cursor.lock() = u64::from_le_bytes(buf[8..16].try_into().unwrap());
            }
        }

        mp.unlock_public(decoy_password)?;
        Ok(mp)
    }
}

fn public_header(password: &str, block_size: usize) -> Vec<u8> {
    let mut plain = vec![0u8; block_size];
    plain[..8].copy_from_slice(b"MPVOLHDR");
    let pwd = password.as_bytes();
    let len = pwd.len().min(255);
    plain[8] = len as u8;
    plain[9..9 + len].copy_from_slice(&pwd[..len]);
    plain
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobiceal_blockdev::MemDisk;

    fn device(seed: u64, hidden: bool) -> (Arc<MemDisk>, MobiPluto) {
        let clock = SimClock::new();
        let disk = Arc::new(MemDisk::new(2048, 4096, clock.clone()));
        let mp =
            MobiPluto::initialize(disk.clone(), clock, "decoy", hidden.then_some("hidden"), seed)
                .unwrap();
        (disk, mp)
    }

    #[test]
    fn public_volume_roundtrip() {
        let (_disk, mp) = device(1, true);
        let vol = mp.unlock_public("decoy").unwrap();
        vol.write_block(5, &vec![0x12; 4096]).unwrap();
        assert_eq!(vol.read_block(5).unwrap(), vec![0x12; 4096]);
        assert!(mp.unlock_public("bad").is_err());
    }

    #[test]
    fn single_snapshot_reveals_nothing() {
        // With and without hidden data, a single image is all-randomness in
        // the non-public area: per-block entropy is uniformly high.
        let (disk_h, mp_h) = device(2, true);
        for _ in 0..20 {
            mp_h.hidden_write(&vec![0xAB; 4096]).unwrap();
        }
        let (disk_p, _mp_p) = device(2, false);
        for snap in [disk_h.snapshot(), disk_p.snapshot()] {
            for b in 64..1024 {
                assert!(snap.block_entropy(b) > 7.0, "block {b}");
            }
        }
    }

    #[test]
    fn multi_snapshot_exposes_hidden_changes() {
        let (disk, mp) = device(3, true);
        let snap1 = disk.snapshot();
        for _ in 0..10 {
            mp.hidden_write(&vec![0xCD; 4096]).unwrap();
        }
        let snap2 = disk.snapshot();
        let changed = snap1.changed_blocks(&snap2);
        assert_eq!(changed.len(), 10, "hidden writes visibly change 'free' randomness");
        // And none of those blocks belong to the public volume's mappings.
        let view = mp.metadata_view();
        let public: std::collections::HashSet<u64> =
            view.volumes[&1].mappings.values().map(|p| p + mp.data_region_start()).collect();
        assert!(changed.iter().all(|b| !public.contains(b)));
    }

    #[test]
    fn no_hidden_configured_rejects_hidden_write() {
        let (_disk, mp) = device(4, false);
        assert!(mp.hidden_write(&vec![0u8; 4096]).is_err());
        assert!(mp.hidden_write_blocks(&[&vec![0u8; 4096]]).is_err());
    }

    #[test]
    fn hidden_batch_matches_the_single_block_loop_and_amortizes() {
        let build = |seed| {
            let clock = SimClock::new();
            let disk = Arc::new(MemDisk::new(2048, 4096, clock.clone()));
            let mp = MobiPluto::initialize(disk.clone(), clock.clone(), "decoy", Some("h"), seed)
                .unwrap();
            (disk, clock, mp)
        };
        let payloads: Vec<Vec<u8>> = (0..12u8).map(|i| vec![i; 4096]).collect();
        let (disk_a, clock_a, mp_a) = build(9);
        let t0 = clock_a.now();
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        mp_a.hidden_write_blocks(&refs).unwrap();
        let batched = clock_a.now() - t0;
        let (disk_b, clock_b, mp_b) = build(9);
        let t1 = clock_b.now();
        for p in &payloads {
            mp_b.hidden_write(p).unwrap();
        }
        let looped = clock_b.now() - t1;
        assert_eq!(disk_a.snapshot().as_bytes(), disk_b.snapshot().as_bytes(), "same ciphertext");
        assert!(batched < looped, "one extent must amortize: {batched} vs {looped}");
    }

    #[test]
    fn format_charges_vectored_fill_time() {
        // The randomness fill rides maximal sequential extents: under the
        // amortized nexus4 profile a 2048-block initialization charges
        // ~433 ms, below the ~457 ms the per-block loop charged at this
        // geometry (the remainder is the fill transfer itself plus the
        // PBKDF2 derivations, which no batching can remove).
        let clock = SimClock::new();
        let disk = Arc::new(MemDisk::new(2048, 4096, clock.clone()));
        let t0 = clock.now();
        let _mp = MobiPluto::initialize(disk as SharedDevice, clock.clone(), "decoy", Some("h"), 3)
            .unwrap();
        let init = (clock.now() - t0).as_secs_f64();
        assert!(
            (0.40..0.45).contains(&init),
            "vectored format should beat the per-block fill while still \
             charging the transfer: {init:.3}s"
        );
    }

    #[test]
    fn open_replays_pool_journal_and_resumes_hidden_cursor() {
        let clock = SimClock::new();
        let disk = Arc::new(MemDisk::new(2048, 4096, clock.clone()));
        let mp = MobiPluto::initialize(disk.clone(), clock.clone(), "decoy", Some("hidden"), 11)
            .unwrap();
        let vol = mp.unlock_public("decoy").unwrap();
        vol.write_block(5, &vec![0x12; 4096]).unwrap();
        mp.commit().unwrap();

        let snap0 = disk.snapshot();
        for i in 0..5u8 {
            mp.hidden_write(&vec![i; 4096]).unwrap();
        }
        mp.hidden_commit().unwrap();
        let snap1 = disk.snapshot();
        let first: std::collections::HashSet<u64> =
            snap0.changed_blocks(&snap1).into_iter().collect();
        assert_eq!(first.len(), 6, "5 hidden blocks plus the cursor record");
        drop(vol);
        drop(mp);

        // Remount from the medium alone (fresh seed: the pool RNG stream is
        // not durable state).
        let mp2 =
            MobiPluto::open(disk.clone(), clock.clone(), "decoy", Some("hidden"), 77).unwrap();
        let vol2 = mp2.unlock_public("decoy").unwrap();
        assert_eq!(vol2.read_block(5).unwrap(), vec![0x12; 4096], "public data survives remount");

        // The hidden log head resumed past the committed writes: new hidden
        // data must not overwrite them.
        for _ in 0..3 {
            mp2.hidden_write(&vec![0xEE; 4096]).unwrap();
        }
        let snap2 = disk.snapshot();
        let second = snap1.changed_blocks(&snap2);
        assert_eq!(second.len(), 3);
        assert!(
            second.iter().all(|b| !first.contains(b)),
            "resumed cursor overwrote committed hidden data"
        );
    }

    #[test]
    fn open_without_hidden_commit_restarts_the_hidden_head() {
        // The cursor slot still holds initialization randomness, which
        // fails the record digest: the head restarts at 0 (exactly the
        // data-loss semantics of a volume never cleanly unmounted).
        let clock = SimClock::new();
        let disk = Arc::new(MemDisk::new(2048, 4096, clock.clone()));
        let mp = MobiPluto::initialize(disk.clone(), clock.clone(), "decoy", Some("hidden"), 12)
            .unwrap();
        let snap0 = disk.snapshot();
        mp.hidden_write(&vec![0xAA; 4096]).unwrap();
        drop(mp);
        let mp2 =
            MobiPluto::open(disk.clone(), clock.clone(), "decoy", Some("hidden"), 13).unwrap();
        mp2.hidden_write(&vec![0xBB; 4096]).unwrap();
        let changed = snap0.changed_blocks(&disk.snapshot());
        assert_eq!(changed.len(), 1, "both writes land on the same (restarted) slot");
    }

    #[test]
    fn open_rejects_wrong_decoy_and_uninitialized_disk() {
        let clock = SimClock::new();
        let disk = Arc::new(MemDisk::new(2048, 4096, clock.clone()));
        assert!(matches!(
            MobiPluto::open(disk.clone() as SharedDevice, clock.clone(), "decoy", None, 1),
            Err(MobiCealError::NotInitialized { .. })
        ));
        MobiPluto::initialize(disk.clone(), clock.clone(), "decoy", None, 1).unwrap();
        assert!(matches!(
            MobiPluto::open(disk as SharedDevice, clock, "wrong", None, 1),
            Err(MobiCealError::BadPassword)
        ));
    }

    #[test]
    fn public_allocation_is_sequential() {
        let (_disk, mp) = device(5, true);
        let vol = mp.unlock_public("decoy").unwrap();
        for i in 1..=20 {
            vol.write_block(i, &vec![1u8; 4096]).unwrap();
        }
        let view = mp.metadata_view();
        let phys: Vec<u64> = view.volumes[&1].mappings.values().collect();
        let mut sorted = phys.clone();
        sorted.sort_unstable();
        assert_eq!(phys, sorted, "stock thin allocation is front-to-back");
        assert!(*sorted.last().unwrap() < 64, "allocations cluster at the front");
    }
}
