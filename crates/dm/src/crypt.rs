//! `dm-crypt`: a transparent encryption target.
//!
//! Creates an "encrypted block device" over a raw one, exactly like the
//! kernel module Android FDE is built on (§II-A of the paper). Each block is
//! encrypted independently with a sector cipher (CBC-ESSIV for the Android
//! 4.2 stack the paper used, XTS optionally), and the AES work is charged to
//! the simulated clock via a CPU cost model so throughput experiments see
//! realistic encryption overhead.

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

/// Batches at or above this many sectors are sharded across worker
/// threads by default (see [`DmCrypt::with_parallelism`]).
pub const DEFAULT_PARALLEL_MIN_SECTORS: usize = 8;

/// The floor [`DmCrypt::with_parallelism`] clamps `min_sectors` to: a
/// one-sector batch has nothing to shard. Configuration layers validate
/// against this instead of hard-coding the clamp.
pub const MIN_PARALLEL_SECTORS: usize = 2;

/// Under the default policy each worker must carry at least this much
/// payload before threads are spawned: spawning a scoped thread costs tens
/// of microseconds, so a shard has to hold enough AES work to amortize it.
/// Both modes run wide lanes on batches. On a 2-vCPU Intel Xeon, 256 KiB
/// is ~105 µs of XTS (~2.3 GiB/s per core) and ~50 µs of ESSIV encrypt
/// (~4.8 GiB/s, eight sector chains per register-resident AES-NI kernel
/// call). 64 KiB would be only ~13–26 µs of AES — thread-spawn noise — so
/// the floor is 256 KiB. Batches too shallow to feed every worker simply
/// use fewer threads, or none.
pub const DEFAULT_MIN_SHARD_BYTES: usize = 256 * 1024;

/// Upper bound on the default worker count; batches are rarely deep enough
/// to feed more cores, and tests run many stacks concurrently.
const DEFAULT_MAX_WORKERS: usize = 8;

/// A transparent encryption layer over a block device.
///
/// Reads decrypt; writes encrypt; the backing device only ever sees
/// ciphertext. Without the key, backing blocks are indistinguishable from
/// random — the property MobiCeal's dummy writes rely on (§IV-A Q2).
///
/// Batched reads/writes encrypt sectors *in place* (one ciphertext arena
/// per write batch, zero extra allocation per read batch) through the
/// cipher's sector-batch entry points — one virtual dispatch per batch
/// shard, wide AES lanes inside — and, for batches of at least
/// [`DEFAULT_PARALLEL_MIN_SECTORS`] sectors carrying
/// [`DEFAULT_MIN_SHARD_BYTES`] of payload per worker, shard the AES work
/// across scoped worker threads — the real-time analogue of dm-crypt's
/// per-CPU crypto queues. Sector ciphers are deterministic per
/// `(key, sector, data)`, and the simulated-clock charge is computed from
/// byte counts before the work is sharded, so ciphertext on the backing
/// device *and* virtual-clock charges are bit-for-bit identical to the
/// sequential path (pinned by `tests/parallel_props.rs`).
pub struct DmCrypt {
    backing: SharedDevice,
    cipher: Box<dyn SectorCipher>,
    mode: CipherMode,
    timing: Option<(SimClock, CpuCostModel)>,
    /// Maximum worker threads for batched crypto (1 = always sequential).
    workers: usize,
    /// Minimum batch depth, in sectors, before threads are spawned.
    parallel_min_sectors: usize,
    /// Minimum payload bytes per worker before threads are spawned
    /// (0 = shard on depth alone; set by [`DmCrypt::with_parallelism`]).
    min_shard_bytes: usize,
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

    fn with_cipher(backing: SharedDevice, cipher: Box<dyn SectorCipher>, mode: CipherMode) -> Self {
        DmCrypt {
            backing,
            cipher,
            mode,
            timing: None,
            workers: default_workers(),
            parallel_min_sectors: DEFAULT_PARALLEL_MIN_SECTORS,
            min_shard_bytes: DEFAULT_MIN_SHARD_BYTES,
        }
    }

    /// Attaches CPU timing: AES work will advance `clock` per `model`.
    pub fn with_timing(mut self, clock: SimClock, model: CpuCostModel) -> Self {
        self.timing = Some((clock, model));
        self
    }

    /// Configures batched-crypto parallelism explicitly: shard batches of
    /// at least `min_sectors` sectors across up to `workers` threads.
    /// `workers <= 1` keeps every batch on the calling thread.
    ///
    /// Unlike the default policy, an explicit configuration shards on
    /// batch depth alone — no [`DEFAULT_MIN_SHARD_BYTES`] amortization
    /// guard — so tests and tuning runs can force the threaded path for
    /// any batch the depth threshold admits.
    ///
    /// Parallelism only changes wall-clock speed: ciphertext and
    /// simulated-clock charges are identical in either configuration.
    pub fn with_parallelism(mut self, workers: usize, min_sectors: usize) -> Self {
        self.workers = workers.max(1);
        self.parallel_min_sectors = min_sectors.max(MIN_PARALLEL_SECTORS);
        self.min_shard_bytes = 0;
        self
    }

    /// Disables batched-crypto parallelism (equivalent to
    /// `with_parallelism(1, _)`).
    pub fn sequential(self) -> Self {
        let min = self.parallel_min_sectors;
        self.with_parallelism(1, min)
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

    /// How many worker threads a batch of `jobs` sectors carrying `bytes`
    /// of payload should be sharded across: the configured worker count,
    /// reduced so every shard holds enough bytes to amortize its thread
    /// spawn, and 1 (inline) for batches below the depth threshold.
    fn shard_count(&self, jobs: usize, bytes: usize) -> usize {
        if jobs < self.parallel_min_sectors {
            return 1;
        }
        match self.min_shard_bytes {
            0 => self.workers,
            min => self.workers.min(bytes / min).max(1),
        }
    }

    /// Runs `cipher op` over every `(sector, buffer)` job, sharding the
    /// batch across scoped worker threads when it is deep enough. Jobs are
    /// disjoint buffers and sector ciphers are pure per job, so sharding
    /// cannot change the bytes produced. Each shard crosses the cipher's
    /// virtual dispatch once via the sector-batch entry points; inside,
    /// the mode feeds the wide AES lanes (ESSIV encrypt interleaves up to
    /// eight sectors' chains, so shard boundaries only change grouping).
    fn crypt_sectors(&self, mut jobs: Vec<(BlockIndex, &mut [u8])>, encrypt: bool) {
        let cipher: &dyn SectorCipher = &*self.cipher;
        let run = |chunk: &mut [(BlockIndex, &mut [u8])]| {
            if encrypt {
                cipher.encrypt_sectors_in_place(chunk);
            } else {
                cipher.decrypt_sectors_in_place(chunk);
            }
        };
        let shards = self.shard_count(jobs.len(), jobs.iter().map(|(_, b)| b.len()).sum());
        if shards <= 1 {
            run(&mut jobs);
            return;
        }
        let per_shard = jobs.len().div_ceil(shards);
        let run = &run;
        std::thread::scope(|s| {
            for chunk in jobs.chunks_mut(per_shard) {
                s.spawn(move || run(chunk));
            }
        });
    }
}

/// Default worker count: the machine's parallelism, capped so deep test
/// matrices don't oversubscribe the host.
fn default_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(DEFAULT_MAX_WORKERS)
}

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
        self.cipher.decrypt_sector_in_place(index, &mut buf);
        Ok(buf)
    }

    fn write_block(&self, index: BlockIndex, data: &[u8]) -> Result<(), BlockDeviceError> {
        self.check_buffer(data)?;
        self.charge_aes(data.len());
        let mut ct = data.to_vec();
        self.cipher.encrypt_sector_in_place(index, &mut ct);
        self.backing.write_block(index, &ct)
    }

    /// Batched read: one vectored read on the backing device, then in-place
    /// (possibly thread-sharded) decryption of every sector — no extra
    /// allocation. AES time for the whole batch is charged in one clock
    /// advance, before the work is sharded.
    fn read_blocks(&self, indices: &[BlockIndex]) -> Result<Vec<Vec<u8>>, BlockDeviceError> {
        let mut bufs = self.backing.read_blocks(indices)?;
        self.charge_aes(bufs.iter().map(Vec::len).sum());
        let jobs: Vec<(BlockIndex, &mut [u8])> = indices
            .iter()
            .zip(bufs.iter_mut())
            .map(|(&index, buf)| (index, buf.as_mut_slice()))
            .collect();
        self.crypt_sectors(jobs, false);
        Ok(bufs)
    }

    /// Batched write: copies the batch into one contiguous ciphertext
    /// arena (a single allocation, not one per sector), encrypts every
    /// sector in place — sharded across threads for deep batches — then
    /// issues one vectored write on the backing device. A wrong-sized
    /// buffer mid-batch writes the valid prefix first, preserving
    /// sequential fail-fast semantics. AES time for the whole valid batch
    /// is charged even when the backing write then fails mid-batch — the
    /// encryption work really was done up front, which is where the
    /// batched path's cost deliberately differs from the sequential loop's
    /// on failure.
    fn write_blocks(&self, writes: &[(BlockIndex, &[u8])]) -> Result<(), BlockDeviceError> {
        let bs = self.block_size();
        let bad = writes.iter().position(|&(_, d)| d.len() != bs);
        let valid = &writes[..bad.unwrap_or(writes.len())];
        self.charge_aes(valid.iter().map(|(_, d)| d.len()).sum());
        let mut arena = Vec::with_capacity(valid.len() * bs);
        for &(_, data) in valid {
            arena.extend_from_slice(data);
        }
        let jobs: Vec<(BlockIndex, &mut [u8])> = valid
            .iter()
            .zip(arena.chunks_mut(bs))
            .map(|(&(index, _), slot)| (index, slot))
            .collect();
        self.crypt_sectors(jobs, true);
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

    #[test]
    fn shard_policy_amortizes_thread_spawns() {
        let (_, enc) = setup(CipherMode::CbcEssiv);
        let enc = enc.with_parallelism(8, 8);
        // Explicit config shards on depth alone.
        assert_eq!(enc.shard_count(7, 7 * 512), 1, "below depth threshold");
        assert_eq!(enc.shard_count(64, 64 * 512), 8, "explicit config ignores bytes");
        // The default policy refuses to spawn threads that would each get
        // less than DEFAULT_MIN_SHARD_BYTES of work (256 KiB), so the
        // 64x4 KiB batch the stack write path emits stays inline (~50 µs
        // of ESSIV encrypt in eight-chain kernel calls, ~105 µs of XTS:
        // not worth a spawn) while genuinely deep batches still fan out.
        let (_, dflt) = setup(CipherMode::CbcEssiv);
        let dflt = DmCrypt { workers: 8, ..dflt };
        assert_eq!(dflt.shard_count(64, 64 * 512), 1, "32 KiB batch stays inline");
        assert_eq!(dflt.shard_count(64, 64 * 4096), 1, "256 KiB batch feeds one worker");
        assert_eq!(dflt.shard_count(256, 256 * 4096), 4, "1 MiB batch feeds 4 workers");
        assert_eq!(dflt.shard_count(1024, 1024 * 4096), 8, "deep batch uses all workers");
        assert_eq!(dflt.shard_count(4, 4 << 20), 1, "depth threshold still applies");
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
