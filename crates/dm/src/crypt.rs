//! `dm-crypt`: a transparent encryption target.
//!
//! Creates an "encrypted block device" over a raw one, exactly like the
//! kernel module Android FDE is built on (§II-A of the paper). Each block is
//! encrypted independently with a sector cipher (CBC-ESSIV for the Android
//! 4.2 stack the paper used, XTS optionally), and the AES work is charged to
//! the simulated clock via a CPU cost model so throughput experiments see
//! realistic encryption overhead.
//!
//! The unit of encryption is the 512-byte sector, as in the paper's Android
//! 4.2 kernel (dm-crypt's `sector_size` option only arrived in Linux 4.12):
//! a block of `block_size` bytes is `block_size / 512` sectors, and sector
//! `i` of block `b` is numbered `b · (block_size / 512) + i`, so the ESSIV
//! IV (or the XTS tweak) comes from the 512-byte sector number. A block
//! smaller than 512 bytes is one sector numbered by its index. A 4 KiB
//! block is therefore eight independent CBC chains of 32 AES blocks, which
//! the cipher runs side by side in one AES-NI kernel call instead of one
//! 256-block chain.

use mobiceal_blockdev::{BlockDevice, BlockDeviceError, BlockIndex, SharedDevice};
use mobiceal_crypto::{Aes256, CbcEssiv, SectorCipher, Xts};
use mobiceal_sim::{CpuCostModel, SimClock};

/// Which sector cipher a [`DmCrypt`] instance uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CipherMode {
    /// `aes-cbc-essiv:sha256` — Android 4.2 FDE default.
    CbcEssiv,
    /// `aes-xts-plain64` — modern dm-crypt default.
    XtsPlain64,
}

/// The dm-crypt sector: every block is encrypted as `block_size / 512`
/// sectors of this many bytes, numbered from the block index (see the
/// module docs).
const SECTOR_SIZE: usize = 512;

/// A transparent encryption layer over a block device.
///
/// Reads decrypt; writes encrypt; the backing device only ever sees
/// ciphertext. Without the key, backing blocks are indistinguishable from
/// random — the property MobiCeal's dummy writes rely on (§IV-A Q2).
///
/// Every block is encrypted as its 512-byte sectors, sector `i` of block
/// `b` numbered `b · (block_size / 512) + i`. All four block operations
/// hand each block's sector jobs to the cipher's sector-batch entry
/// points, in place, on the calling thread: a single-block read or write
/// in stack groups of at most eight sectors (one group for a 4 KiB block,
/// so its eight CBC chains run in one kernel call), a batch as one job
/// list (one ciphertext arena per write batch, zero extra allocation per
/// read batch) — one virtual dispatch per batch, wide AES lanes inside.
/// The simulated-clock charge is computed from byte counts — one
/// `aes_cost(total bytes)` per call, never one per sector — and sector
/// ciphers are deterministic per `(key, sector, data)`, so a batch lands
/// the same ciphertext as per-block writes (pinned by
/// `tests/batch_props.rs`).
pub struct DmCrypt {
    backing: SharedDevice,
    cipher: Box<dyn SectorCipher>,
    mode: CipherMode,
    timing: Option<(SimClock, CpuCostModel)>,
    /// 512-byte sectors per block (`block_size / 512`, rounded up).
    sectors_per_block: u64,
}

impl std::fmt::Debug for DmCrypt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DmCrypt").field("mode", &self.mode).finish_non_exhaustive()
    }
}

impl DmCrypt {
    /// Creates an AES-256-CBC-ESSIV target (the Android FDE configuration).
    pub fn new_essiv(backing: SharedDevice, key: &[u8; 32]) -> Self {
        let essiv_key = mobiceal_crypto::sha256(key);
        Self::with_cipher(
            backing,
            Box::new(CbcEssiv::with_essiv_key(Aes256::new(key), &essiv_key)),
            CipherMode::CbcEssiv,
        )
    }

    /// Creates an AES-256-XTS target from a 64-byte key (data key ‖ tweak
    /// key).
    pub fn new_xts(backing: SharedDevice, key: &[u8; 64]) -> Self {
        let mut k1 = [0u8; 32];
        let mut k2 = [0u8; 32];
        k1.copy_from_slice(&key[..32]);
        k2.copy_from_slice(&key[32..]);
        Self::with_cipher(
            backing,
            Box::new(Xts::new(Aes256::new(&k1), Aes256::new(&k2))),
            CipherMode::XtsPlain64,
        )
    }

    /// Creates a target over any sector cipher, taken as `mode`. The two
    /// constructors above build theirs from a key; benches use this one
    /// to pin the AES backend under a `DmCrypt`.
    #[doc(hidden)]
    pub fn with_cipher(
        backing: SharedDevice,
        cipher: Box<dyn SectorCipher>,
        mode: CipherMode,
    ) -> Self {
        let sectors_per_block = backing.block_size().div_ceil(SECTOR_SIZE) as u64;
        DmCrypt { sectors_per_block, backing, cipher, mode, timing: None }
    }

    /// Attaches CPU timing: AES work will advance `clock` per `model`.
    pub fn with_timing(mut self, clock: SimClock, model: CpuCostModel) -> Self {
        self.timing = Some((clock, model));
        self
    }

    /// The cipher mode in use.
    pub fn mode(&self) -> CipherMode {
        self.mode
    }

    fn charge_aes(&self, bytes: usize) {
        if let Some((clock, model)) = &self.timing {
            clock.advance(model.aes_cost(bytes));
        }
    }

    /// The `(sector number, 512-byte slice)` jobs of block `index`:
    /// sector `i` is numbered `index · sectors_per_block + i`. The
    /// numbering wraps rather than panics on an index no device has; the
    /// backing device rejects such an index anyway.
    fn block_sectors<'a>(
        &self,
        index: BlockIndex,
        block: &'a mut [u8],
    ) -> impl Iterator<Item = (u64, &'a mut [u8])> {
        let first = index.wrapping_mul(self.sectors_per_block);
        block.chunks_mut(SECTOR_SIZE).zip(0u64..).map(move |(s, i)| (first.wrapping_add(i), s))
    }

    /// Every sector job of the blocks in `blocks`, in one allocation.
    fn batch_sectors<'a>(
        &self,
        blocks: impl ExactSizeIterator<Item = (BlockIndex, &'a mut [u8])>,
    ) -> Vec<(u64, &'a mut [u8])> {
        let mut jobs = Vec::with_capacity(blocks.len() * self.sectors_per_block as usize);
        for (index, block) in blocks {
            jobs.extend(self.block_sectors(index, block));
        }
        jobs
    }

    /// Runs the cipher's sector-batch entry point over `jobs`.
    fn crypt_jobs(&self, jobs: &mut [(u64, &mut [u8])], encrypt: bool) {
        if encrypt {
            self.cipher.encrypt_sectors_in_place(jobs);
        } else {
            self.cipher.decrypt_sectors_in_place(jobs);
        }
    }

    /// En- or decrypts one block in place through the sector-batch entry
    /// point, in stack groups of at most eight sectors: one call for a
    /// 4 KiB block, and no heap allocation at any block size.
    fn crypt_block(&self, index: BlockIndex, block: &mut [u8], encrypt: bool) {
        let mut sectors = self.block_sectors(index, block).peekable();
        while sectors.peek().is_some() {
            let mut group: [(u64, &mut [u8]); BLOCK_GROUP] = Default::default();
            let mut n = 0;
            for (slot, job) in group.iter_mut().zip(&mut sectors) {
                *slot = job;
                n += 1;
            }
            self.crypt_jobs(&mut group[..n], encrypt);
        }
    }
}

/// Sectors per stack group on the single-block paths: the most lanes one
/// CBC kernel call takes, and exactly one 4 KiB block.
const BLOCK_GROUP: usize = 8;

impl BlockDevice for DmCrypt {
    fn num_blocks(&self) -> u64 {
        self.backing.num_blocks()
    }

    fn block_size(&self) -> usize {
        self.backing.block_size()
    }

    fn read_block(&self, index: BlockIndex) -> Result<Vec<u8>, BlockDeviceError> {
        let mut buf = self.backing.read_block(index)?;
        self.charge_aes(buf.len());
        self.crypt_block(index, &mut buf, false);
        Ok(buf)
    }

    fn write_block(&self, index: BlockIndex, data: &[u8]) -> Result<(), BlockDeviceError> {
        self.check_buffer(data)?;
        self.charge_aes(data.len());
        let mut ct = data.to_vec();
        self.crypt_block(index, &mut ct, true);
        self.backing.write_block(index, &ct)
    }

    /// Batched read: one vectored read on the backing device, then in-place
    /// decryption of every sector — no extra allocation. AES time for the
    /// whole batch is charged in one clock advance.
    fn read_blocks(&self, indices: &[BlockIndex]) -> Result<Vec<Vec<u8>>, BlockDeviceError> {
        let mut bufs = self.backing.read_blocks(indices)?;
        self.charge_aes(bufs.iter().map(Vec::len).sum());
        let mut jobs = self.batch_sectors(
            indices.iter().zip(bufs.iter_mut()).map(|(&index, buf)| (index, buf.as_mut_slice())),
        );
        self.crypt_jobs(&mut jobs, false);
        Ok(bufs)
    }

    /// Batched write: copies the batch into one contiguous ciphertext
    /// arena (a single allocation, not one per sector), encrypts every
    /// sector in place, then issues one vectored write on the backing
    /// device. A wrong-sized buffer mid-batch writes the valid prefix
    /// first, preserving sequential fail-fast semantics. AES time for the
    /// whole valid batch is charged even when the backing write then fails
    /// mid-batch — the encryption work really was done up front, which is
    /// where the batched path's cost deliberately differs from the
    /// sequential loop's on failure.
    fn write_blocks(&self, writes: &[(BlockIndex, &[u8])]) -> Result<(), BlockDeviceError> {
        let bs = self.block_size();
        let bad = writes.iter().position(|&(_, d)| d.len() != bs);
        let valid = &writes[..bad.unwrap_or(writes.len())];
        self.charge_aes(valid.iter().map(|(_, d)| d.len()).sum());
        let mut arena = Vec::with_capacity(valid.len() * bs);
        for &(_, data) in valid {
            arena.extend_from_slice(data);
        }
        let mut jobs = self.batch_sectors(
            valid.iter().zip(arena.chunks_mut(bs)).map(|(&(index, _), slot)| (index, slot)),
        );
        self.crypt_jobs(&mut jobs, true);
        let refs: Vec<(BlockIndex, &[u8])> =
            valid.iter().zip(arena.chunks(bs)).map(|(&(index, _), ct)| (index, ct)).collect();
        self.backing.write_blocks(&refs)?;
        match bad {
            Some(pos) => {
                Err(BlockDeviceError::WrongBufferSize { got: writes[pos].1.len(), expected: bs })
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

    fn setup(mode: CipherMode) -> (Arc<MemDisk>, DmCrypt) {
        let raw = Arc::new(MemDisk::with_default_timing(32, 4096));
        let enc = match mode {
            CipherMode::CbcEssiv => DmCrypt::new_essiv(raw.clone(), &[0x11; 32]),
            CipherMode::XtsPlain64 => DmCrypt::new_xts(raw.clone(), &[0x22; 64]),
        };
        (raw, enc)
    }

    #[test]
    fn transparent_roundtrip_essiv() {
        let (_, enc) = setup(CipherMode::CbcEssiv);
        let data: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
        enc.write_block(5, &data).unwrap();
        assert_eq!(enc.read_block(5).unwrap(), data);
    }

    #[test]
    fn transparent_roundtrip_xts() {
        let (_, enc) = setup(CipherMode::XtsPlain64);
        let data: Vec<u8> = (0..4096).map(|i| (i % 13) as u8).collect();
        enc.write_block(9, &data).unwrap();
        assert_eq!(enc.read_block(9).unwrap(), data);
    }

    #[test]
    fn backing_sees_only_ciphertext() {
        let (raw, enc) = setup(CipherMode::CbcEssiv);
        let data = vec![0u8; 4096];
        enc.write_block(0, &data).unwrap();
        let at_rest = raw.read_block(0).unwrap();
        assert_ne!(at_rest, data);
        // Ciphertext of all-zero plaintext should look high-entropy.
        let snap = raw.snapshot();
        assert!(snap.block_entropy(0) > 7.0, "entropy {}", snap.block_entropy(0));
    }

    #[test]
    fn wrong_key_reads_garbage() {
        let raw = Arc::new(MemDisk::with_default_timing(8, 4096));
        let enc_a = DmCrypt::new_essiv(raw.clone(), &[0xAA; 32]);
        let enc_b = DmCrypt::new_essiv(raw.clone(), &[0xBB; 32]);
        let data = vec![0x55u8; 4096];
        enc_a.write_block(1, &data).unwrap();
        assert_ne!(enc_b.read_block(1).unwrap(), data);
    }

    #[test]
    fn same_plaintext_different_blocks_differs_at_rest() {
        let (raw, enc) = setup(CipherMode::CbcEssiv);
        let data = vec![0x77u8; 4096];
        enc.write_block(0, &data).unwrap();
        enc.write_block(1, &data).unwrap();
        assert_ne!(raw.read_block(0).unwrap(), raw.read_block(1).unwrap());
    }

    #[test]
    fn timing_charges_cpu_cost() {
        let clock = SimClock::new();
        let raw = Arc::new(MemDisk::new(8, 4096, clock.clone()));
        let enc =
            DmCrypt::new_essiv(raw, &[1; 32]).with_timing(clock.clone(), CpuCostModel::nexus4());
        let t0 = clock.now();
        enc.write_block(0, &vec![0u8; 4096]).unwrap();
        let with_crypto = clock.now() - t0;

        let clock2 = SimClock::new();
        let raw2 = Arc::new(MemDisk::new(8, 4096, clock2.clone()));
        let t1 = clock2.now();
        raw2.write_block(0, &vec![0u8; 4096]).unwrap();
        let without_crypto = clock2.now() - t1;

        assert!(with_crypto > without_crypto);
    }

    #[test]
    fn geometry_passthrough() {
        let (raw, enc) = setup(CipherMode::XtsPlain64);
        assert_eq!(enc.num_blocks(), raw.num_blocks());
        assert_eq!(enc.block_size(), raw.block_size());
        assert!(enc.flush().is_ok());
    }

    #[test]
    fn rejects_bad_buffer() {
        let (_, enc) = setup(CipherMode::CbcEssiv);
        assert!(matches!(
            enc.write_block(0, &[0u8; 100]),
            Err(BlockDeviceError::WrongBufferSize { .. })
        ));
    }

    #[test]
    fn batched_ops_produce_identical_ciphertext_to_sequential() {
        for mode in [CipherMode::CbcEssiv, CipherMode::XtsPlain64] {
            let (raw_a, enc_a) = setup(mode);
            let (raw_b, enc_b) = setup(mode);
            let blocks: Vec<(u64, Vec<u8>)> = (0..8)
                .map(|i| (i * 3 % 32, (0..4096).map(|j| ((i + j) % 251) as u8).collect()))
                .collect();
            let batch: Vec<(u64, &[u8])> = blocks.iter().map(|(b, d)| (*b, d.as_slice())).collect();
            enc_a.write_blocks(&batch).unwrap();
            for (b, d) in &blocks {
                enc_b.write_block(*b, d).unwrap();
            }
            // Sector ciphers are deterministic per (key, sector): batched
            // and sequential writes must produce identical media.
            assert_eq!(raw_a.snapshot().as_bytes(), raw_b.snapshot().as_bytes());
            let indices: Vec<u64> = blocks.iter().map(|(b, _)| *b).collect();
            let plain = enc_a.read_blocks(&indices).unwrap();
            for ((_, expect), got) in blocks.iter().zip(&plain) {
                assert_eq!(expect, got, "batched read decrypts to the written plaintext");
            }
        }
    }

    /// The sector cipher `DmCrypt` builds for `mode` from `setup`'s keys.
    fn sector_cipher(mode: CipherMode) -> Box<dyn SectorCipher> {
        match mode {
            CipherMode::CbcEssiv => Box::new(CbcEssiv::with_essiv_key(
                Aes256::new(&[0x11; 32]),
                &mobiceal_crypto::sha256(&[0x11; 32]),
            )),
            CipherMode::XtsPlain64 => {
                Box::new(Xts::new(Aes256::new(&[0x22; 32]), Aes256::new(&[0x22; 32])))
            }
        }
    }

    #[test]
    fn a_4k_block_is_eight_512_byte_sectors_numbered_from_its_index() {
        // Known answer for the dm-crypt layout: block k's raw bytes are the
        // sector cipher's outputs for sectors 8k..8k+7, one per 512-byte
        // slice. The sector modes themselves are pinned to SP 800-38A and
        // IEEE 1619, so this pins the on-disk bytes end to end, through
        // both the single-block and the batch write path, and both read
        // paths invert them.
        let k = 5u64;
        let plain: Vec<u8> = (0..4096).map(|i| (i * 7 % 251) as u8).collect();
        let other = vec![0x33u8; 4096];
        for mode in [CipherMode::CbcEssiv, CipherMode::XtsPlain64] {
            let cipher = sector_cipher(mode);
            let expect: Vec<u8> = plain
                .chunks(SECTOR_SIZE)
                .zip(8 * k..)
                .flat_map(|(sector, n)| cipher.encrypt_sector(n, sector))
                .collect();
            let (raw, enc) = setup(mode);
            enc.write_block(k, &plain).unwrap();
            assert_eq!(raw.read_block(k).unwrap(), expect, "{mode:?} write_block");
            assert_eq!(enc.read_block(k).unwrap(), plain, "{mode:?} read_block");
            let (raw, enc) = setup(mode);
            enc.write_blocks(&[(k + 1, &other), (k, &plain), (k - 1, &other)]).unwrap();
            assert_eq!(raw.read_block(k).unwrap(), expect, "{mode:?} write_blocks");
            let back = enc.read_blocks(&[k - 1, k, k + 1]).unwrap();
            assert_eq!(back, [other.clone(), plain.clone(), other.clone()], "{mode:?} read_blocks");
        }
    }

    #[test]
    fn a_512_byte_block_is_one_sector_numbered_by_its_index() {
        // On a 512-byte-block device each block is exactly one sector, and
        // its number is the block index.
        let k = 11u64;
        let plain: Vec<u8> = (0..512).map(|i| (i * 3 % 256) as u8).collect();
        for mode in [CipherMode::CbcEssiv, CipherMode::XtsPlain64] {
            let expect = sector_cipher(mode).encrypt_sector(k, &plain);
            for batched in [false, true] {
                let raw = Arc::new(MemDisk::with_default_timing(16, 512));
                let enc = match mode {
                    CipherMode::CbcEssiv => DmCrypt::new_essiv(raw.clone(), &[0x11; 32]),
                    CipherMode::XtsPlain64 => DmCrypt::new_xts(raw.clone(), &[0x22; 64]),
                };
                if batched {
                    enc.write_blocks(&[(k, &plain)]).unwrap();
                    assert_eq!(enc.read_blocks(&[k]).unwrap(), std::slice::from_ref(&plain));
                } else {
                    enc.write_block(k, &plain).unwrap();
                    assert_eq!(enc.read_block(k).unwrap(), plain);
                }
                assert_eq!(raw.read_block(k).unwrap(), expect, "{mode:?}, batched {batched}");
            }
        }
    }

    #[test]
    fn batched_write_bad_buffer_persists_prefix() {
        let (raw, enc) = setup(CipherMode::CbcEssiv);
        let good = vec![7u8; 4096];
        let short = vec![0u8; 100];
        let err = enc.write_blocks(&[(0, good.as_slice()), (1, short.as_slice())]).unwrap_err();
        assert!(matches!(err, BlockDeviceError::WrongBufferSize { got: 100, .. }));
        assert_eq!(enc.read_block(0).unwrap(), good, "valid prefix landed");
        assert!(!raw.snapshot().is_zero_block(0));
        assert!(raw.snapshot().is_zero_block(1), "failing block never written");
    }
}
