//! `dm-crypt`: a transparent encryption target.
//!
//! Creates an "encrypted block device" over a raw one, exactly like the
//! kernel module Android FDE is built on (§II-A of the paper). Each block is
//! encrypted independently with `aes-cbc-essiv:sha256`, the cipher of the
//! Android 4.2 stack the paper used, and the AES work is charged to the
//! simulated clock via a CPU cost model so throughput experiments see
//! realistic encryption overhead.
//!
//! The unit of encryption is the 512-byte sector, as in the paper's Android
//! 4.2 kernel (dm-crypt's `sector_size` option only arrived in Linux 4.12):
//! a block of `block_size` bytes is `block_size / 512` sectors, and sector
//! `i` of block `b` is numbered `b · (block_size / 512) + i`, so the ESSIV
//! IV comes from the 512-byte sector number. A block smaller than 512 bytes
//! is one sector numbered by its index. A 4 KiB block is therefore eight
//! independent CBC chains of 32 AES blocks, which the cipher runs side by
//! side in one AES-NI kernel call instead of one 256-block chain.

use mobiceal_blockdev::{BlockDevice, BlockDeviceError, BlockIndex, ReadDest, SharedDevice};
use mobiceal_crypto::{Aes256, CbcEssiv, SectorCipher};
use mobiceal_sim::{CpuCostModel, SimClock};

/// The dm-crypt sector: every block is encrypted as `block_size / 512`
/// sectors of this many bytes, numbered from the block index (see the
/// module docs).
const SECTOR_SIZE: usize = 512;

/// CBC works in whole AES blocks, so every sector, the last one of a block
/// included, must be a multiple of this many bytes.
const AES_BLOCK: usize = 16;

/// Sectors per stack group handed to the cipher: the most lanes one CBC
/// kernel call takes, and exactly one 4 KiB block.
const GROUP: usize = 8;

/// A transparent AES-256-CBC-ESSIV layer over a block device.
///
/// Reads decrypt; writes encrypt; the backing device only ever sees
/// ciphertext. Without the key, backing blocks are indistinguishable from
/// random — the property MobiCeal's dummy writes rely on (§IV-A Q2).
///
/// Every block is encrypted as its 512-byte sectors, sector `i` of block
/// `b` numbered `b · (block_size / 512) + i`. All four block operations
/// take one path, in place, on the calling thread: the sectors of every
/// block in the call go to the cipher's sector-batch entry points in stack
/// groups of at most eight, and a group may span block boundaries (one
/// group per 4 KiB block, eight 512-byte blocks per group). The cipher is
/// a concrete type, so no call dispatches virtually, and no job list is
/// built: a read decrypts in place wherever the backing device put the
/// blocks (the caller's memory, for `read_blocks_to`), and a write
/// encrypts one copy of its data (one arena per batch). The
/// simulated-clock charge is computed from byte counts — one
/// `aes_cost(total bytes)` per call, never one per sector — and the sector
/// cipher is deterministic per `(key, sector, data)`, so a batch lands the
/// same ciphertext as per-block writes (pinned by `tests/batch_props.rs`).
///
/// A backing block size whose last 512-byte sector is not a whole number
/// of AES blocks (a 1000-byte block ends in a 488-byte sector) cannot be
/// CBC-encrypted: every read and write then fails with
/// [`BlockDeviceError::Unsupported`] before touching the backing device or
/// the clock.
pub struct DmCrypt {
    backing: SharedDevice,
    cipher: CbcEssiv<Aes256>,
    timing: Option<(SimClock, CpuCostModel)>,
    /// 512-byte sectors per block (`block_size / 512`, rounded up).
    sectors_per_block: u64,
    /// The last sector's length when it is not a multiple of [`AES_BLOCK`].
    ragged_sector: Option<usize>,
}

impl std::fmt::Debug for DmCrypt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DmCrypt").finish_non_exhaustive()
    }
}

impl DmCrypt {
    /// Creates an AES-256-CBC-ESSIV target (the Android FDE configuration).
    pub fn new_essiv(backing: SharedDevice, key: &[u8; 32]) -> Self {
        let essiv_key = mobiceal_crypto::sha256(key);
        Self::with_cipher(backing, CbcEssiv::with_essiv_key(Aes256::new(key), &essiv_key))
    }

    /// Creates a target over a prepared cipher. [`DmCrypt::new_essiv`]
    /// builds its cipher from a key; benches use this one to pin the AES
    /// backend under a `DmCrypt`.
    #[doc(hidden)]
    pub fn with_cipher(backing: SharedDevice, cipher: CbcEssiv<Aes256>) -> Self {
        let block_size = backing.block_size();
        let sectors_per_block = block_size.div_ceil(SECTOR_SIZE) as u64;
        let last = block_size - (sectors_per_block as usize).saturating_sub(1) * SECTOR_SIZE;
        let ragged_sector = (!last.is_multiple_of(AES_BLOCK)).then_some(last);
        DmCrypt { sectors_per_block, backing, cipher, timing: None, ragged_sector }
    }

    /// Attaches CPU timing: AES work will advance `clock` per `model`.
    pub fn with_timing(mut self, clock: SimClock, model: CpuCostModel) -> Self {
        self.timing = Some((clock, model));
        self
    }

    /// Refuses every block operation on a geometry CBC cannot encrypt (see
    /// the type docs).
    fn check_sectors(&self) -> Result<(), BlockDeviceError> {
        match self.ragged_sector {
            Some(last) => Err(BlockDeviceError::Unsupported {
                what: format!(
                    "dm-crypt over {}-byte blocks: the last sector is {last} bytes, not a \
                     multiple of the {AES_BLOCK}-byte AES block",
                    self.backing.block_size()
                ),
            }),
            None => Ok(()),
        }
    }

    fn charge_aes(&self, bytes: usize) {
        if let Some((clock, model)) = &self.timing {
            clock.advance(model.aes_cost(bytes));
        }
    }

    /// En- or decrypts `blocks` in place: sector `i` of block `index` is
    /// numbered `index · sectors_per_block + i`, and the sectors of all the
    /// blocks go to the cipher in stack groups of at most [`GROUP`], with
    /// no heap allocation at any block size. The numbering wraps rather
    /// than panics on an index no device has; the backing device rejects
    /// such an index anyway.
    fn crypt<'a>(&self, blocks: impl Iterator<Item = (BlockIndex, &'a mut [u8])>, encrypt: bool) {
        let per_block = self.sectors_per_block;
        let mut sectors = blocks.flat_map(|(index, block)| {
            let first = index.wrapping_mul(per_block);
            block.chunks_mut(SECTOR_SIZE).zip(0u64..).map(move |(s, i)| (first.wrapping_add(i), s))
        });
        loop {
            let mut group: [(u64, &mut [u8]); GROUP] = Default::default();
            let mut n = 0;
            for (slot, job) in group.iter_mut().zip(&mut sectors) {
                *slot = job;
                n += 1;
            }
            if n == 0 {
                return;
            }
            if encrypt {
                self.cipher.encrypt_sectors_in_place(&mut group[..n]);
            } else {
                self.cipher.decrypt_sectors_in_place(&mut group[..n]);
            }
        }
    }
}

impl BlockDevice for DmCrypt {
    fn num_blocks(&self) -> u64 {
        self.backing.num_blocks()
    }

    fn block_size(&self) -> usize {
        self.backing.block_size()
    }

    fn read_block(&self, index: BlockIndex) -> Result<Vec<u8>, BlockDeviceError> {
        self.check_sectors()?;
        let mut buf = self.backing.read_block(index)?;
        self.charge_aes(buf.len());
        self.crypt(std::iter::once((index, buf.as_mut_slice())), false);
        Ok(buf)
    }

    fn write_block(&self, index: BlockIndex, data: &[u8]) -> Result<(), BlockDeviceError> {
        self.check_sectors()?;
        self.check_buffer(data)?;
        self.charge_aes(data.len());
        let mut ct = data.to_vec();
        self.crypt(std::iter::once((index, ct.as_mut_slice())), true);
        self.backing.write_block(index, &ct)
    }

    fn read_blocks(&self, indices: &[BlockIndex]) -> Result<Vec<Vec<u8>>, BlockDeviceError> {
        mobiceal_blockdev::read_blocks_owned(self, indices)
    }

    /// Batched read: one vectored read on the backing device into `dest`,
    /// then in-place decryption of every sector there — no extra
    /// allocation or copy. AES time for the whole batch is charged in one
    /// clock advance, an empty batch included.
    fn read_blocks_to(
        &self,
        indices: &[BlockIndex],
        mut dest: ReadDest<'_>,
    ) -> Result<(), BlockDeviceError> {
        self.check_sectors()?;
        let mark = dest.mark();
        self.backing.read_blocks_to(indices, dest.reborrow())?;
        let bs = self.block_size();
        self.charge_aes(indices.len() * bs);
        let indices = indices.iter().copied();
        match dest {
            ReadDest::Append(buf) => self.crypt(indices.zip(buf[mark..].chunks_mut(bs)), false),
            ReadDest::Owned(bufs) => {
                self.crypt(indices.zip(bufs[mark..].iter_mut().map(Vec::as_mut_slice)), false);
            }
        }
        Ok(())
    }

    /// Batched write: copies the batch into one contiguous ciphertext
    /// arena (a single allocation, not one per sector), encrypts every
    /// sector in place, then issues one vectored write on the backing
    /// device. A wrong-sized buffer mid-batch writes the valid prefix
    /// first, preserving sequential fail-fast semantics; a batch with no
    /// valid prefix (empty, or wrong-sized from its first buffer) charges
    /// nothing and never reaches the backing device, like a rejected
    /// `write_block`. AES time for the whole valid prefix is charged even
    /// when the backing write then fails mid-batch — the encryption work
    /// really was done up front, which is where the batched path's cost
    /// deliberately differs from the sequential loop's on failure.
    fn write_blocks(&self, writes: &[(BlockIndex, &[u8])]) -> Result<(), BlockDeviceError> {
        self.check_sectors()?;
        let bs = self.block_size();
        let bad = writes.iter().position(|&(_, d)| d.len() != bs);
        let valid = &writes[..bad.unwrap_or(writes.len())];
        if !valid.is_empty() {
            self.charge_aes(valid.len() * bs);
            let mut arena = Vec::with_capacity(valid.len() * bs);
            for &(_, data) in valid {
                arena.extend_from_slice(data);
            }
            self.crypt(valid.iter().map(|&(index, _)| index).zip(arena.chunks_mut(bs)), true);
            let refs: Vec<(BlockIndex, &[u8])> =
                valid.iter().zip(arena.chunks(bs)).map(|(&(index, _), ct)| (index, ct)).collect();
            self.backing.write_blocks(&refs)?;
        }
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

    /// An ESSIV target over 32 blocks of `block_size` bytes.
    fn setup_sized(block_size: usize) -> (Arc<MemDisk>, DmCrypt) {
        let raw = Arc::new(MemDisk::with_default_timing(32, block_size));
        let enc = DmCrypt::new_essiv(raw.clone(), &[0x11; 32]);
        (raw, enc)
    }

    fn setup() -> (Arc<MemDisk>, DmCrypt) {
        setup_sized(4096)
    }

    #[test]
    fn transparent_roundtrip_essiv() {
        let (_, enc) = setup();
        let data: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
        enc.write_block(5, &data).unwrap();
        assert_eq!(enc.read_block(5).unwrap(), data);
    }

    #[test]
    fn backing_sees_only_ciphertext() {
        let (raw, enc) = setup();
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
        let (raw, enc) = setup();
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
        let (raw, enc) = setup();
        assert_eq!(enc.num_blocks(), raw.num_blocks());
        assert_eq!(enc.block_size(), raw.block_size());
        assert!(enc.flush().is_ok());
    }

    #[test]
    fn rejects_bad_buffer() {
        let (_, enc) = setup();
        assert!(matches!(
            enc.write_block(0, &[0u8; 100]),
            Err(BlockDeviceError::WrongBufferSize { .. })
        ));
    }

    #[test]
    fn batched_ops_produce_identical_ciphertext_to_sequential() {
        let (raw_a, enc_a) = setup();
        let (raw_b, enc_b) = setup();
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

    /// The sector cipher `DmCrypt` builds from `setup`'s key.
    fn sector_cipher() -> CbcEssiv<Aes256> {
        CbcEssiv::with_essiv_key(Aes256::new(&[0x11; 32]), &mobiceal_crypto::sha256(&[0x11; 32]))
    }

    #[test]
    fn a_4k_block_is_eight_512_byte_sectors_numbered_from_its_index() {
        // Known answer for the dm-crypt layout at every block size: block
        // b's raw bytes are the sector cipher's outputs for sectors
        // b · (block_size / 512) + i, one per 512-byte slice, so a 4 KiB
        // block k holds sectors 8k..8k+7 and a block below 512 bytes is one
        // sector numbered by its index. CBC-ESSIV itself is pinned to SP
        // 800-38A, so this pins the on-disk bytes end to end. Batches of 1,
        // 3, 8 and 9 scattered blocks make the eight-sector groups split
        // blocks and span block boundaries (1536-byte blocks are three
        // sectors); both write paths must land these bytes, and both read
        // paths invert them.
        let cipher = sector_cipher();
        for block_size in [256usize, 512, 1024, 1536, 2048, 4096] {
            let first_sector = |index: u64| index * block_size.div_ceil(SECTOR_SIZE) as u64;
            for depth in [1u64, 3, 8, 9] {
                let ctx = format!("{block_size}-byte blocks, depth {depth}");
                let blocks: Vec<(u64, Vec<u8>)> = (0..depth)
                    .map(|j| {
                        let plain = (0..block_size as u64).map(|i| ((i * 7 + j * 13) % 251) as u8);
                        ((j * 7 + 5) % 32, plain.collect())
                    })
                    .collect();
                let writes: Vec<(u64, &[u8])> =
                    blocks.iter().map(|(b, d)| (*b, d.as_slice())).collect();
                let (raw_single, single) = setup_sized(block_size);
                for &(b, d) in &writes {
                    single.write_block(b, d).unwrap();
                }
                let (raw_batch, batched) = setup_sized(block_size);
                batched.write_blocks(&writes).unwrap();
                for &(b, plain) in &writes {
                    let expect: Vec<u8> = plain
                        .chunks(SECTOR_SIZE)
                        .zip(first_sector(b)..)
                        .flat_map(|(sector, n)| cipher.encrypt_sector(n, sector))
                        .collect();
                    assert_eq!(raw_single.read_block(b).unwrap(), expect, "write_block, {ctx}");
                    assert_eq!(raw_batch.read_block(b).unwrap(), expect, "write_blocks, {ctx}");
                    assert_eq!(single.read_block(b).unwrap(), plain, "read_block, {ctx}");
                }
                let indices: Vec<u64> = blocks.iter().map(|(b, _)| *b).collect();
                let back = batched.read_blocks(&indices).unwrap();
                let plain: Vec<Vec<u8>> = blocks.into_iter().map(|(_, d)| d).collect();
                assert_eq!(back, plain, "read_blocks, {ctx}");
            }
        }
    }

    #[test]
    fn a_512_byte_block_is_one_sector_numbered_by_its_index() {
        // On a 512-byte-block device each block is exactly one sector, and
        // its number is the block index.
        let k = 11u64;
        let plain: Vec<u8> = (0..512).map(|i| (i * 3 % 256) as u8).collect();
        let expect = sector_cipher().encrypt_sector(k, &plain);
        for batched in [false, true] {
            let raw = Arc::new(MemDisk::with_default_timing(16, 512));
            let enc = DmCrypt::new_essiv(raw.clone(), &[0x11; 32]);
            if batched {
                enc.write_blocks(&[(k, &plain)]).unwrap();
                assert_eq!(enc.read_blocks(&[k]).unwrap(), std::slice::from_ref(&plain));
            } else {
                enc.write_block(k, &plain).unwrap();
                assert_eq!(enc.read_block(k).unwrap(), plain);
            }
            assert_eq!(raw.read_block(k).unwrap(), expect, "batched {batched}");
        }
    }

    #[test]
    fn a_ragged_last_sector_is_refused_by_every_op_not_a_panic() {
        // CBC encrypts whole 16-byte AES blocks, so a block size whose last
        // 512-byte sector is not a multiple of 16 bytes (520 ends in an
        // 8-byte sector, 1000 in a 488-byte one, and 100 is one 100-byte
        // sector) cannot be encrypted. Every block operation must refuse
        // it with a typed error, charging nothing and leaving the medium
        // alone, while the sizes CBC can take keep round-tripping.
        for (block_size, ok) in [
            (256, true),
            (512, true),
            (1536, true),
            (4096, true),
            (100, false),
            (520, false),
            (1000, false),
        ] {
            let clock = SimClock::new();
            let raw = Arc::new(MemDisk::new(8, block_size, clock.clone()));
            let enc = DmCrypt::new_essiv(raw.clone(), &[0x11; 32])
                .with_timing(clock.clone(), CpuCostModel::nexus4());
            let data = vec![0x5Au8; block_size];
            let mut appended = Vec::new();
            let results = [
                enc.write_block(1, &data),
                enc.write_blocks(&[(2, data.as_slice())]),
                enc.read_block(1).map(|b| assert_eq!(b, data)),
                enc.read_blocks(&[2]).map(|b| assert_eq!(b, std::slice::from_ref(&data))),
                enc.read_blocks_to(&[1, 2], ReadDest::Append(&mut appended)),
            ];
            for (op, result) in results.into_iter().enumerate() {
                match result {
                    Ok(()) => assert!(ok, "{block_size}-byte blocks, op {op}: must be refused"),
                    Err(BlockDeviceError::Unsupported { what }) => {
                        assert!(!ok, "{block_size}-byte blocks, op {op}: refused: {what}");
                    }
                    Err(e) => panic!("{block_size}-byte blocks, op {op}: {e}"),
                }
            }
            if ok {
                assert_eq!(appended, [data.as_slice(), data.as_slice()].concat());
            } else {
                assert!(appended.is_empty());
                assert_eq!(clock.now().as_nanos(), 0, "{block_size}: a refused op charges nothing");
                assert_eq!(raw.stats(), Default::default(), "{block_size}: nor reaches the medium");
            }
        }
    }

    #[test]
    fn batched_write_bad_buffer_persists_prefix() {
        let (raw, enc) = setup();
        let good = vec![7u8; 4096];
        let short = vec![0u8; 100];
        let err = enc.write_blocks(&[(0, good.as_slice()), (1, short.as_slice())]).unwrap_err();
        assert!(matches!(err, BlockDeviceError::WrongBufferSize { got: 100, .. }));
        assert_eq!(enc.read_block(0).unwrap(), good, "valid prefix landed");
        assert!(!raw.snapshot().is_zero_block(0));
        assert!(raw.snapshot().is_zero_block(1), "failing block never written");
    }

    #[test]
    fn a_write_batch_with_no_valid_prefix_charges_nothing() {
        // An empty batch, or one whose first buffer has the wrong size,
        // does no AES work and reaches no device, so like a rejected
        // `write_block` it must charge 0 ns and leave the medium's
        // statistics as they were.
        let clock = SimClock::new();
        let raw = Arc::new(MemDisk::new(8, 4096, clock.clone()));
        let enc = DmCrypt::new_essiv(raw.clone(), &[1; 32])
            .with_timing(clock.clone(), CpuCostModel::nexus4());
        let good = vec![7u8; 4096];
        enc.write_block(0, &good).unwrap();
        let (t0, stats) = (clock.now(), raw.stats());
        enc.write_blocks(&[]).unwrap();
        let err = enc.write_blocks(&[(1, &[0u8; 100]), (2, good.as_slice())]).unwrap_err();
        assert!(matches!(err, BlockDeviceError::WrongBufferSize { got: 100, expected: 4096 }));
        assert_eq!(clock.now(), t0, "a rejected batch charges nothing");
        assert_eq!(raw.stats(), stats, "and never reaches the medium");
        assert!(raw.snapshot().is_zero_block(2));
    }
}
