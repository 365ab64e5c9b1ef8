//! ChaCha20 (RFC 8439) and a deterministic CSPRNG built on it.
//!
//! MobiCeal's dummy writes fill blocks with "random noise ... which should be
//! indistinguishable from the encrypted data" (§IV-B). We generate that noise
//! (and all keys/salts) from a ChaCha20-based DRBG: cryptographically strong,
//! yet seedable so every experiment is reproducible.
//!
//! # The 8-lane keystream
//!
//! Dummy bursts are the generator's bulk consumer, so
//! [`ChaCha20Rng::fill_bytes`] has a wide path. It first drains the bytes
//! left in its 64-byte buffer. Then, on hosts with AVX2, it generates whole
//! 512-byte groups of eight keystream blocks straight into the caller's
//! slice. Each of the 16 state words lives in one `__m256i`, and lane *i*
//! of every word belongs to block `counter + i`, so the 20 rounds advance
//! eight blocks at once. On store, a 4×4 unpack transpose per quarter of
//! the state turns the word-major lanes back into block-major bytes.
//!
//! A tail of 65 to 511 bytes after the whole groups (two to eight blocks)
//! comes from one more group, generated into a stack buffer: a dummy
//! burst's noise starts wherever the trigger's small draws left the
//! 64-byte buffer, so nearly every burst ends in such a tail. The bytes it
//! needs are copied out, and its last used block stays in the buffer.
//!
//! The wide path stops before the 32-bit block counter would wrap: the
//! block at `u32::MAX` and the nonce roll after it always come from the
//! scalar path. Tails of one block, small draws (`next_u64`, keys, salts),
//! whatever lies within eight blocks of the wrap, and hosts without AVX2
//! use [`chacha20_block`], which stays the portable fallback and the
//! executable spec.
//!
//! The bytes do not depend on the path. Every lane computes exactly the
//! RFC 8439 block for its counter, groups are stored in counter order, and
//! the counter and buffer state after a call are what the block-at-a-time
//! loop would leave. The stream is therefore identical for every split of
//! the output into calls, on every host (pinned by the unit tests below and
//! the split-invariance property test).

const CHACHA_CONST: [u32; 4] = [0x61707865, 0x3320646e, 0x79622d32, 0x6b206574];

/// Keystream blocks per wide group: one per 32-bit lane of a `__m256i`.
const WIDE_BLOCKS: u32 = 8;

/// Bytes per wide group.
const WIDE_BYTES: usize = 64 * WIDE_BLOCKS as usize;

fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// The initial 16-word state of block `counter` (RFC 8439 §2.3).
fn initial_state(key: &[u8; 32], counter: u32, nonce: &[u8; 12]) -> [u32; 16] {
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&CHACHA_CONST);
    for i in 0..8 {
        state[4 + i] =
            u32::from_le_bytes([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
    }
    state[12] = counter;
    for i in 0..3 {
        state[13 + i] = u32::from_le_bytes([
            nonce[4 * i],
            nonce[4 * i + 1],
            nonce[4 * i + 2],
            nonce[4 * i + 3],
        ]);
    }
    state
}

/// Computes one 64-byte ChaCha20 keystream block (RFC 8439 §2.3).
pub fn chacha20_block(key: &[u8; 32], counter: u32, nonce: &[u8; 12]) -> [u8; 64] {
    let state = initial_state(key, counter, nonce);
    let mut working = state;
    for _ in 0..10 {
        quarter_round(&mut working, 0, 4, 8, 12);
        quarter_round(&mut working, 1, 5, 9, 13);
        quarter_round(&mut working, 2, 6, 10, 14);
        quarter_round(&mut working, 3, 7, 11, 15);
        quarter_round(&mut working, 0, 5, 10, 15);
        quarter_round(&mut working, 1, 6, 11, 12);
        quarter_round(&mut working, 2, 7, 8, 13);
        quarter_round(&mut working, 3, 4, 9, 14);
    }
    let mut out = [0u8; 64];
    for i in 0..16 {
        let word = working[i].wrapping_add(state[i]);
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// Whether the host CPU offers AVX2, which the 8-lane keystream needs.
#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// One ChaCha20 quarter round on eight lanes at once. Rotations by 16 and
/// 8 bits are byte shuffles; rotations by 12 and 7 are shift pairs.
#[cfg(target_arch = "x86_64")]
macro_rules! wide_quarter_round {
    ($x:ident, $rot16:ident, $rot8:ident; $a:literal, $b:literal, $c:literal, $d:literal) => {
        $x[$a] = _mm256_add_epi32($x[$a], $x[$b]);
        $x[$d] = _mm256_shuffle_epi8(_mm256_xor_si256($x[$d], $x[$a]), $rot16);
        $x[$c] = _mm256_add_epi32($x[$c], $x[$d]);
        let t = _mm256_xor_si256($x[$b], $x[$c]);
        $x[$b] = _mm256_or_si256(_mm256_slli_epi32::<12>(t), _mm256_srli_epi32::<20>(t));
        $x[$a] = _mm256_add_epi32($x[$a], $x[$b]);
        $x[$d] = _mm256_shuffle_epi8(_mm256_xor_si256($x[$d], $x[$a]), $rot8);
        $x[$c] = _mm256_add_epi32($x[$c], $x[$d]);
        let t = _mm256_xor_si256($x[$b], $x[$c]);
        $x[$b] = _mm256_or_si256(_mm256_slli_epi32::<7>(t), _mm256_srli_epi32::<25>(t));
    };
}

/// Writes the keystream blocks `counter, counter + 1, …` into `out`, eight
/// at a time: byte-identical to concatenating
/// `chacha20_block(key, counter + i, nonce)` for `i` in
/// `0..out.len() / 64`.
///
/// # Safety
///
/// The CPU must support AVX2. `out.len()` must be a multiple of
/// [`WIDE_BYTES`], and the last block's counter must not pass `u32::MAX`:
/// lanes add without carrying into the nonce.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn keystream_avx2(key: &[u8; 32], counter: u32, nonce: &[u8; 12], out: &mut [u8]) {
    use std::arch::x86_64::*;
    debug_assert!(out.len().is_multiple_of(WIDE_BYTES), "ragged group run {}", out.len());
    debug_assert!(out.len() / 64 <= (u32::MAX - counter) as usize + 1, "counter would wrap");
    let rot16 = _mm256_setr_epi8(
        2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, //
        2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
    );
    let rot8 = _mm256_setr_epi8(
        3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14, //
        3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
    );
    // One vector per state word, the word broadcast to every lane; lane i
    // of the counter word runs block counter + i.
    let mut start = [_mm256_setzero_si256(); 16];
    for (lanes, word) in start.iter_mut().zip(initial_state(key, counter, nonce)) {
        *lanes = _mm256_set1_epi32(word as i32);
    }
    start[12] = _mm256_add_epi32(start[12], _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    let step = _mm256_set1_epi32(WIDE_BLOCKS as i32);
    for group in out.chunks_exact_mut(WIDE_BYTES) {
        let mut x = start;
        for _ in 0..10 {
            wide_quarter_round!(x, rot16, rot8; 0, 4, 8, 12);
            wide_quarter_round!(x, rot16, rot8; 1, 5, 9, 13);
            wide_quarter_round!(x, rot16, rot8; 2, 6, 10, 14);
            wide_quarter_round!(x, rot16, rot8; 3, 7, 11, 15);
            wide_quarter_round!(x, rot16, rot8; 0, 5, 10, 15);
            wide_quarter_round!(x, rot16, rot8; 1, 6, 11, 12);
            wide_quarter_round!(x, rot16, rot8; 2, 7, 8, 13);
            wide_quarter_round!(x, rot16, rot8; 3, 4, 9, 14);
        }
        for (lanes, s) in x.iter_mut().zip(&start) {
            *lanes = _mm256_add_epi32(*lanes, *s);
        }
        // 4×4 transpose of each quarter of the state (words 4q..4q+4):
        // afterwards by_block[k][q] holds those four words of block k in
        // its low 128 bits and of block k + 4 in its high 128 bits.
        let mut by_block = [[_mm256_setzero_si256(); 4]; 4];
        for q in 0..4 {
            let ab_lo = _mm256_unpacklo_epi32(x[4 * q], x[4 * q + 1]);
            let cd_lo = _mm256_unpacklo_epi32(x[4 * q + 2], x[4 * q + 3]);
            let ab_hi = _mm256_unpackhi_epi32(x[4 * q], x[4 * q + 1]);
            let cd_hi = _mm256_unpackhi_epi32(x[4 * q + 2], x[4 * q + 3]);
            let transposed = [
                _mm256_unpacklo_epi64(ab_lo, cd_lo),
                _mm256_unpackhi_epi64(ab_lo, cd_lo),
                _mm256_unpacklo_epi64(ab_hi, cd_hi),
                _mm256_unpackhi_epi64(ab_hi, cd_hi),
            ];
            for (block, words) in by_block.iter_mut().zip(transposed) {
                block[q] = words;
            }
        }
        // Pair the halves into 32-byte rows: block k is rows 2k and 2k + 1.
        let rows = group.as_mut_ptr().cast::<__m256i>();
        for (k, [w0, w4, w8, w12]) in by_block.into_iter().enumerate() {
            let stores = [
                (2 * k, _mm256_permute2x128_si256::<0x20>(w0, w4)),
                (2 * k + 1, _mm256_permute2x128_si256::<0x20>(w8, w12)),
                (2 * k + 8, _mm256_permute2x128_si256::<0x31>(w0, w4)),
                (2 * k + 9, _mm256_permute2x128_si256::<0x31>(w8, w12)),
            ];
            for (row, bytes) in stores {
                // SAFETY: `row < 16`, so the 32 bytes at `rows.add(row)` lie
                // inside this 512-byte group of `out`; the store is
                // unaligned (`storeu`).
                unsafe { _mm256_storeu_si256(rows.add(row), bytes) };
            }
        }
        start[12] = _mm256_add_epi32(start[12], step);
    }
}

/// Encrypts/decrypts `data` in place with the ChaCha20 keystream starting at
/// block `counter` (RFC 8439 §2.4).
pub fn chacha20_xor(key: &[u8; 32], counter: u32, nonce: &[u8; 12], data: &mut [u8]) {
    for (i, chunk) in data.chunks_mut(64).enumerate() {
        let ks = chacha20_block(key, counter.wrapping_add(i as u32), nonce);
        for (b, k) in chunk.iter_mut().zip(ks.iter()) {
            *b ^= k;
        }
    }
}

/// Deterministic CSPRNG: ChaCha20 keystream over an incrementing counter.
///
/// Used for every security-relevant random value in the reproduction —
/// master keys, salts, dummy-write payloads, `stored_rand` refreshes — so
/// that dummy noise is computationally indistinguishable from ciphertext
/// (the requirement of §IV-A Q2) while experiments stay replayable.
///
/// # Example
///
/// ```
/// use mobiceal_crypto::ChaCha20Rng;
///
/// let mut a = ChaCha20Rng::from_seed([1u8; 32]);
/// let mut b = ChaCha20Rng::from_seed([1u8; 32]);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct ChaCha20Rng {
    key: [u8; 32],
    nonce: [u8; 12],
    counter: u32,
    buf: [u8; 64],
    buf_pos: usize,
}

impl ChaCha20Rng {
    /// Creates a generator from a 32-byte seed.
    pub fn from_seed(seed: [u8; 32]) -> Self {
        ChaCha20Rng { key: seed, nonce: [0u8; 12], counter: 0, buf: [0u8; 64], buf_pos: 64 }
    }

    /// Creates a generator from a 64-bit seed (expanded via SHA-256).
    pub fn from_u64_seed(seed: u64) -> Self {
        let digest = crate::sha256::sha256(&seed.to_le_bytes());
        Self::from_seed(digest)
    }

    /// Creates a generator seeded from the operating system
    /// (`/dev/urandom`); falls back to a time-derived seed if unavailable.
    pub fn from_os_entropy() -> Self {
        let read_os = || -> std::io::Result<[u8; 32]> {
            use std::io::Read;
            let mut f = std::fs::File::open("/dev/urandom")?;
            let mut b = [0u8; 32];
            f.read_exact(&mut b)?;
            Ok(b)
        };
        let seed = read_os().unwrap_or_else(|_| {
            let t = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0xDEADBEEF);
            crate::sha256::sha256(&t.to_le_bytes())
        });
        Self::from_seed(seed)
    }

    fn refill(&mut self) {
        self.buf = chacha20_block(&self.key, self.counter, &self.nonce);
        self.counter = self.counter.wrapping_add(1);
        if self.counter == 0 {
            // 256 GiB of output exhausted the counter: roll the nonce.
            for b in self.nonce.iter_mut() {
                *b = b.wrapping_add(1);
                if *b != 0 {
                    break;
                }
            }
        }
        self.buf_pos = 0;
    }

    /// Fills `out` with random bytes: buffered bytes first, then whole
    /// 512-byte groups from the 8-lane keystream where the host has AVX2,
    /// then a tail of two to eight blocks from one more group, and what is
    /// left block by block. The stream is the same on every path.
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        let buffered = (64 - self.buf_pos).min(out.len());
        let (head, rest) = out.split_at_mut(buffered);
        head.copy_from_slice(&self.buf[self.buf_pos..self.buf_pos + buffered]);
        self.buf_pos += buffered;
        let wide = self.fill_wide(rest);
        for chunk in rest[wide..].chunks_mut(64) {
            self.refill();
            chunk.copy_from_slice(&self.buf[..chunk.len()]);
            self.buf_pos = chunk.len();
        }
    }

    /// Fills the longest prefix of `out` made of whole groups that end
    /// before the block counter would wrap; then, if the rest is 65 to 511
    /// bytes and one more group also ends before the wrap, fills the rest
    /// from that group in a stack buffer and keeps its last used block in
    /// `buf`, as `refill` would. Returns the length filled. Called with the
    /// buffer drained, so the blocks continue the stream exactly.
    #[cfg(target_arch = "x86_64")]
    fn fill_wide(&mut self, out: &mut [u8]) -> usize {
        if out.len() <= 64 || !avx2_available() {
            return 0;
        }
        // The counter after the last group stays at most u32::MAX, so the
        // block at u32::MAX and the nonce roll are left to `refill`.
        let groups_before_wrap = ((u32::MAX - self.counter) / WIDE_BLOCKS) as usize;
        let len = (out.len() / WIDE_BYTES).min(groups_before_wrap) * WIDE_BYTES;
        // SAFETY: AVX2 was detected above; `len` is a whole number of
        // groups, and the last block's counter is below u32::MAX.
        unsafe { keystream_avx2(&self.key, self.counter, &self.nonce, &mut out[..len]) };
        self.counter += (len / 64) as u32;
        let tail = &mut out[len..];
        // A tail of a whole group or more is left only when the wrap
        // stopped the groups, and then the counter test below fails too.
        if tail.len() <= 64 || u32::MAX - self.counter < WIDE_BLOCKS {
            return len;
        }
        let mut group = [0u8; WIDE_BYTES];
        // SAFETY: AVX2 was detected above; `group` is one whole group, and
        // its last block's counter, `counter + 7`, is below u32::MAX.
        unsafe { keystream_avx2(&self.key, self.counter, &self.nonce, &mut group) };
        tail.copy_from_slice(&group[..tail.len()]);
        let last = 64 * ((tail.len() - 1) / 64);
        self.buf.copy_from_slice(&group[last..last + 64]);
        self.buf_pos = tail.len() - last;
        self.counter += (last / 64) as u32 + 1;
        out.len()
    }

    /// Hosts without the 8-lane keystream generate every block in `refill`.
    #[cfg(not(target_arch = "x86_64"))]
    fn fill_wide(&mut self, _out: &mut [u8]) -> usize {
        0
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill_bytes(&mut b);
        u64::from_le_bytes(b)
    }

    /// Next 32 random bits.
    pub fn next_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.fill_bytes(&mut b);
        u32::from_le_bytes(b)
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let x = self.next_u64();
            if x < zone {
                return x % bound;
            }
        }
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn next_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "invalid range");
        lo + self.next_below(hi - lo + 1)
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A fresh 32-byte key/seed.
    pub fn gen_key(&mut self) -> [u8; 32] {
        let mut k = [0u8; 32];
        self.fill_bytes(&mut k);
        k
    }

    /// A fresh 16-byte value (salt, IV).
    pub fn gen_nonce16(&mut self) -> [u8; 16] {
        let mut n = [0u8; 16];
        self.fill_bytes(&mut n);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::to_hex;

    #[test]
    fn rfc8439_block_vector() {
        // RFC 8439 §2.3.2 test vector.
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let nonce = [0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00];
        let block = chacha20_block(&key, 1, &nonce);
        assert_eq!(
            to_hex(&block),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    #[test]
    fn rfc8439_encryption_vector() {
        // RFC 8439 §2.4.2.
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let nonce = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let mut data = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.".to_vec();
        chacha20_xor(&key, 1, &nonce, &mut data);
        assert_eq!(
            to_hex(&data[..32]),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
        );
        // Round-trip.
        chacha20_xor(&key, 1, &nonce, &mut data);
        assert!(data.starts_with(b"Ladies and Gentlemen"));
    }

    #[test]
    fn rng_determinism() {
        let mut a = ChaCha20Rng::from_u64_seed(77);
        let mut b = ChaCha20Rng::from_u64_seed(77);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn rng_different_seeds_diverge() {
        let mut a = ChaCha20Rng::from_u64_seed(1);
        let mut b = ChaCha20Rng::from_u64_seed(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn rng_fill_spans_block_boundaries() {
        let mut a = ChaCha20Rng::from_u64_seed(9);
        let mut big = vec![0u8; 300];
        a.fill_bytes(&mut big);
        let mut b = ChaCha20Rng::from_u64_seed(9);
        let mut pieces = vec![0u8; 300];
        let (x, rest) = pieces.split_at_mut(61);
        let (y, z) = rest.split_at_mut(130);
        b.fill_bytes(x);
        b.fill_bytes(y);
        b.fill_bytes(z);
        assert_eq!(big, pieces);
    }

    #[test]
    fn rng_next_below_bounds() {
        let mut rng = ChaCha20Rng::from_u64_seed(5);
        for bound in [1u64, 2, 10, 1000] {
            for _ in 0..100 {
                assert!(rng.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn rng_bytes_look_uniform() {
        // Chi-square-lite: byte histogram of 64 KiB should have no empty or
        // wildly overfull bucket.
        let mut rng = ChaCha20Rng::from_u64_seed(1234);
        let mut buf = vec![0u8; 65536];
        rng.fill_bytes(&mut buf);
        let mut hist = [0u32; 256];
        for &b in &buf {
            hist[b as usize] += 1;
        }
        let expected = 65536.0 / 256.0;
        for (i, &h) in hist.iter().enumerate() {
            assert!(
                (h as f64) > expected * 0.5 && (h as f64) < expected * 1.5,
                "bucket {i} count {h}"
            );
        }
    }

    /// `len` keystream bytes from block `counter`, built block by block with
    /// `chacha20_block` and rolling the nonce like the generator does.
    fn scalar_stream(key: &[u8; 32], mut counter: u32, mut nonce: [u8; 12], len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 64);
        while out.len() < len {
            out.extend_from_slice(&chacha20_block(key, counter, &nonce));
            counter = counter.wrapping_add(1);
            if counter == 0 {
                for b in nonce.iter_mut() {
                    *b = b.wrapping_add(1);
                    if *b != 0 {
                        break;
                    }
                }
            }
        }
        out.truncate(len);
        out
    }

    /// For every head offset (0 to 63 bytes drawn first) and every tail of
    /// 1 to 511 bytes past `groups` whole groups, a fill from block `start`
    /// equals the block-by-block stream, and so do the next 65 bytes, which
    /// read the block the fill left buffered and then a fresh one.
    fn check_every_head_and_tail(key: &[u8; 32], start: u32, groups: &[usize]) {
        let most = groups.iter().max().map_or(0, |&g| g * WIDE_BYTES);
        let expected = scalar_stream(key, start, [0u8; 12], 64 + most + WIDE_BYTES + 65);
        for lead in 0..64 {
            let mut drawn = ChaCha20Rng::from_seed(*key);
            drawn.counter = start;
            drawn.fill_bytes(&mut vec![0u8; lead]);
            // What the lead left buffered: none after no draw at all.
            let head = (64 - lead) % 64;
            for &g in groups {
                for tail in 1..WIDE_BYTES {
                    let mut rng = drawn.clone();
                    let end = lead + head + g * WIDE_BYTES + tail;
                    let mut got = vec![0u8; end - lead];
                    rng.fill_bytes(&mut got);
                    assert_eq!(got, &expected[lead..end], "start {start}, {lead}+{g}g+{tail}");
                    let mut next = [0u8; 65];
                    rng.fill_bytes(&mut next);
                    assert_eq!(next.as_slice(), &expected[end..end + 65], "continuation");
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn wide_group_matches_eight_scalar_blocks() {
        if !avx2_available() {
            return;
        }
        let mut rng = ChaCha20Rng::from_u64_seed(0x8_1a9e);
        for case in 0..300 {
            let key = rng.gen_key();
            let mut nonce = [0u8; 12];
            rng.fill_bytes(&mut nonce);
            let groups = 1 + case % 3;
            let blocks = (groups * 8) as u32;
            // Random counters, plus the last start whose final block is
            // u32::MAX itself.
            let counter = match case % 4 {
                0 => u32::MAX - (blocks - 1),
                _ => rng.next_below((u32::MAX - (blocks - 1)) as u64 + 1) as u32,
            };
            let mut wide = vec![0u8; groups * WIDE_BYTES];
            // SAFETY: AVX2 was detected above; `wide` holds whole groups and
            // the last block's counter is at most u32::MAX.
            unsafe { keystream_avx2(&key, counter, &nonce, &mut wide) };
            for (i, block) in wide.chunks_exact(64).enumerate() {
                let expected = chacha20_block(&key, counter + i as u32, &nonce);
                assert_eq!(block, expected.as_slice(), "case {case}, block {i}");
            }
        }
    }

    #[test]
    fn fill_across_the_counter_wrap_matches_the_scalar_stream() {
        let key = [0x5Cu8; 32];
        for k in 0..=9u32 {
            for lead in [0usize, 5] {
                let mut rng = ChaCha20Rng::from_seed(key);
                rng.counter = u32::MAX - k;
                // A small draw first leaves a partly drained buffer; the
                // big fill then crosses the wrap and the nonce roll.
                let mut got = vec![0u8; lead + 64 * (k as usize + 1) + 3 * WIDE_BYTES + 37];
                let (small, big) = got.split_at_mut(lead);
                rng.fill_bytes(small);
                rng.fill_bytes(big);
                let expected = scalar_stream(&key, u32::MAX - k, [0u8; 12], got.len());
                assert_eq!(got, expected, "k {k}, lead {lead}");
                let mut rolled = [0u8; 12];
                rolled[0] = 1;
                assert_eq!(rng.nonce, rolled, "nonce rolled once, k {k}");
            }
            // Tails near the wrap: the last group that fits, then scalar
            // blocks across the wrap and the nonce roll.
            check_every_head_and_tail(&key, u32::MAX - k, &[0, 1]);
        }
    }

    #[test]
    fn fill_matches_the_scalar_stream_at_every_group_boundary() {
        let key = crate::sha256::sha256(&3u64.to_le_bytes());
        for lead in [0usize, 1, 8, 63] {
            for len in [0usize, 1, 63, 64, 65, 511, 512, 513, 1000, 4096, 3 * 4096 + 100] {
                let mut rng = ChaCha20Rng::from_seed(key);
                let mut got = vec![0u8; lead + len];
                let (small, big) = got.split_at_mut(lead);
                rng.fill_bytes(small);
                rng.fill_bytes(big);
                assert_eq!(got, scalar_stream(&key, 0, [0u8; 12], lead + len), "{lead}+{len}");
                // The generator continues exactly where the stream left off.
                let mut next = [0u8; 100];
                rng.fill_bytes(&mut next);
                let cont = scalar_stream(&key, 0, [0u8; 12], lead + len + 100);
                assert_eq!(next.as_slice(), &cont[lead + len..], "{lead}+{len} continuation");
            }
        }
        check_every_head_and_tail(&key, 0, &[0, 1, 2]);
    }

    #[test]
    fn os_entropy_rng_works() {
        let mut rng = ChaCha20Rng::from_os_entropy();
        let a = rng.next_u64();
        let b = rng.next_u64();
        assert_ne!(a, b);
    }
}
