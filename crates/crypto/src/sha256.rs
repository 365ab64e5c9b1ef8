//! SHA-256 (FIPS 180-4), incremental and one-shot. Whole blocks are
//! compressed with the SHA extensions when the CPU reports them at run
//! time, and with the scalar core otherwise.

/// Length of a SHA-256 digest in bytes.
pub const SHA256_OUTPUT_LEN: usize = 32;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Example
///
/// ```
/// use mobiceal_crypto::{Sha256, sha256};
///
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), sha256(b"abc"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 { state: H0, buf: [0u8; 64], buf_len: 0, total_len: 0 }
    }

    /// Absorbs `data`. Whole 64-byte blocks are compressed straight from
    /// `data` in one call; only a partial block is buffered.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                compress_blocks(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        let (blocks, rest) = data.split_at(data.len() / 64 * 64);
        compress_blocks(&mut self.state, blocks);
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Consumes the hasher and returns the digest.
    pub fn finalize(mut self) -> [u8; SHA256_OUTPUT_LEN] {
        // Padding: 0x80, zeros, 64-bit big-endian bit length.
        let bit_len = self.total_len.wrapping_mul(8);
        let mut pad = [0u8; 72];
        pad[0] = 0x80;
        // Pad so that (buf_len + pad_len) % 64 == 56, then 8 length bytes.
        let pad_len = if self.buf_len < 56 { 56 - self.buf_len } else { 120 - self.buf_len };
        pad[pad_len..pad_len + 8].copy_from_slice(&bit_len.to_be_bytes());
        self.update(&pad[..pad_len + 8]);
        debug_assert_eq!(self.buf_len, 0);
        let mut out = [0u8; SHA256_OUTPUT_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Compresses every 64-byte block of `blocks` into `state`, with SHA-NI
/// when the CPU offers it and the scalar [`compress`] otherwise.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert!(blocks.len().is_multiple_of(64), "ragged block run {}", blocks.len());
    #[cfg(target_arch = "x86_64")]
    if shani_available() {
        // SAFETY: SHA-NI, SSE4.1 and SSSE3 were detected at run time.
        unsafe { compress_shani(state, blocks) };
        return;
    }
    for block in blocks.chunks_exact(64) {
        compress(state, block.try_into().expect("chunks_exact yields 64-byte blocks"));
    }
}

/// Whether the host CPU offers the SHA extensions and the SSE levels the
/// SHA-NI kernel shuffles with (checked per call; the standard library
/// caches the CPUID result).
#[cfg(target_arch = "x86_64")]
fn shani_available() -> bool {
    std::arch::is_x86_feature_detected!("sha")
        && std::arch::is_x86_feature_detected!("sse4.1")
        && std::arch::is_x86_feature_detected!("ssse3")
}

/// The FIPS 180-4 compression function on one block, one round at a time:
/// the fallback on hosts without SHA-NI and the reference the tests pin
/// the SHA-NI kernel to.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for i in 0..16 {
        w[i] = u32::from_be_bytes([
            block[i * 4],
            block[i * 4 + 1],
            block[i * 4 + 2],
            block[i * 4 + 3],
        ]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let temp1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// [`compress`] over every 64-byte block of `blocks` with the SHA
/// extensions. The state lives in two registers in the `SHA256RNDS2`
/// layout (ABEF and CDGH); each group of four rounds adds its constants
/// to four message words, runs two `SHA256RNDS2`, and extends the message
/// schedule with `SHA256MSG1`/`SHA256MSG2` in a four-register ring.
///
/// # Safety
///
/// The CPU must support SHA-NI, SSE4.1 and SSSE3.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse4.1,ssse3")]
unsafe fn compress_shani(state: &mut [u32; 8], blocks: &[u8]) {
    use std::arch::x86_64::*;
    // Byte order within each 32-bit word: the message is big-endian.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    // SAFETY: `state` is eight `u32`s, so both unaligned 16-byte loads
    // stay inside it; the caller guarantees the feature set.
    let (dcba, hgfe) = unsafe {
        (
            _mm_loadu_si128(state.as_ptr() as *const __m128i),
            _mm_loadu_si128(state.as_ptr().add(4) as *const __m128i),
        )
    };
    let cdab = _mm_shuffle_epi32::<0xB1>(dcba);
    let efgh = _mm_shuffle_epi32::<0x1B>(hgfe);
    let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
    let mut cdgh = _mm_blend_epi16::<0xF0>(efgh, cdab);
    for block in blocks.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let mut msg = [_mm_setzero_si128(); 4];
        for (i, word) in msg.iter_mut().enumerate() {
            // SAFETY: `block` is 64 bytes and `i < 4`, so the unaligned
            // 16-byte load at `16 * i` stays inside it.
            let raw = unsafe { _mm_loadu_si128(block.as_ptr().add(16 * i) as *const __m128i) };
            *word = _mm_shuffle_epi8(raw, bswap);
        }
        for group in 0..16 {
            let cur = msg[group % 4];
            // SAFETY: `group < 16`, so `K[4 * group..4 * group + 4]` is in
            // bounds for the unaligned 16-byte load.
            let k = unsafe { _mm_loadu_si128(K.as_ptr().add(4 * group) as *const __m128i) };
            let wk = _mm_add_epi32(cur, k);
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            if (3..15).contains(&group) {
                // Finish the next group's words, W[4g + 4..4g + 8].
                let prev = msg[(group + 3) % 4];
                let next = _mm_add_epi32(msg[(group + 1) % 4], _mm_alignr_epi8::<4>(cur, prev));
                msg[(group + 1) % 4] = _mm_sha256msg2_epu32(next, cur);
            }
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
            if (1..13).contains(&group) {
                // Start W[4g + 12..4g + 16]; MSG2 finishes it two groups on.
                let prev = (group + 3) % 4;
                msg[prev] = _mm_sha256msg1_epu32(msg[prev], cur);
            }
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }
    let feba = _mm_shuffle_epi32::<0x1B>(abef);
    let dchg = _mm_shuffle_epi32::<0xB1>(cdgh);
    let dcba = _mm_blend_epi16::<0xF0>(feba, dchg);
    let hgfe = _mm_alignr_epi8::<8>(dchg, feba);
    // SAFETY: as for the loads above.
    unsafe {
        _mm_storeu_si128(state.as_mut_ptr() as *mut __m128i, dcba);
        _mm_storeu_si128(state.as_mut_ptr().add(4) as *mut __m128i, hgfe);
    }
}

/// One-shot SHA-256.
///
/// # Example
///
/// ```
/// use mobiceal_crypto::{sha256, to_hex};
///
/// assert_eq!(
///     to_hex(&sha256(b"abc")),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
pub fn sha256(data: &[u8]) -> [u8; SHA256_OUTPUT_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::to_hex;
    use proptest::prelude::*;

    /// SHA-256 through the scalar [`compress`] alone: the whole message
    /// padded in one buffer and compressed block by block, independent of
    /// `Sha256`'s buffering and of the SHA-NI dispatch.
    fn scalar_sha256(data: &[u8]) -> [u8; SHA256_OUTPUT_LEN] {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in msg.chunks_exact(64) {
            compress(&mut state, block.try_into().unwrap());
        }
        let mut out = [0u8; SHA256_OUTPUT_LEN];
        for (i, word) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    #[test]
    fn digest_equals_scalar_reference_at_every_length() {
        let data: Vec<u8> =
            (0..1024u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect();
        for len in 0..=data.len() {
            assert_eq!(sha256(&data[..len]), scalar_sha256(&data[..len]), "len {len}");
        }
    }

    proptest! {
        #[test]
        fn random_update_splits_equal_scalar_reference(
            data in prop::collection::vec(any::<u8>(), 0..1025),
            cuts in prop::collection::vec(0usize..1025, 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.sort_unstable();
            let mut h = Sha256::new();
            let mut from = 0;
            for cut in cuts {
                h.update(&data[from..cut]);
                from = cut;
            }
            h.update(&data[from..]);
            prop_assert_eq!(h.finalize(), scalar_sha256(&data));
        }
    }

    #[test]
    fn empty_vector() {
        assert_eq!(
            to_hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            to_hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_vector() {
        assert_eq!(
            to_hex(&sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a_vector() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            to_hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot_all_split_points() {
        let data: Vec<u8> = (0..200u16).map(|i| (i % 251) as u8).collect();
        let want = sha256(&data);
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), want, "split at {split}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // 55/56/63/64/65 bytes straddle the padding boundary.
        for len in [55usize, 56, 63, 64, 65, 119, 120, 127, 128] {
            let data = vec![0xAAu8; len];
            let mut h = Sha256::new();
            for chunk in data.chunks(7) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), sha256(&data), "len {len}");
        }
    }
}
