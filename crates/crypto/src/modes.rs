//! Sector encryption modes: CBC-ESSIV and XTS.
//!
//! `dm-crypt` encrypts each 512-byte (or 4096-byte) sector independently so
//! that random block I/O stays random. Android 4.2's FDE used
//! `aes-cbc-essiv:sha256`; modern deployments use `aes-xts-plain64`. Both are
//! provided so the reproduction can model either stack.
//!
//! Both modes feed the cipher through the wide entry points
//! ([`BlockCipher::encrypt_blocks`]/[`BlockCipher::decrypt_blocks`]) wherever
//! their block structure allows, in [`LANE_CHUNK`]-block chunks staged on the
//! stack so the per-sector paths stay allocation-free:
//!
//! * **XTS** is independent per block in both directions once the tweak
//!   sequence is known, so each chunk's tweaks are precomputed (a PCLMULQDQ
//!   carry-less ladder on hosts that report it, the serial shift/xor double
//!   otherwise — see [`Xts::fill_tweaks`]), XORed in, run through the wide
//!   lanes, and XORed out.
//! * **CBC decrypt** is also embarrassingly parallel — every block is
//!   `D(C_i) ^ C_{i-1}` over *ciphertexts that already exist* — so each chunk
//!   saves its ciphertext, decrypts wide, then applies the lagged XOR.
//! * **CBC encrypt** chains within a sector: block `i`'s input includes
//!   block `i - 1`'s *output*, so one sector's blocks cannot overlap, but
//!   every sector has its own ESSIV IV and its own chain. Both encrypt
//!   entry points hand whole chains to [`BlockCipher::cbc_encrypt_lanes`]:
//!   a lone sector as one chain, a batch as runs of up to 8 equal-length
//!   sectors side by side. On AES-NI hosts that is one kernel keeping the
//!   round keys and every chain value in registers.
//!
//! [`SectorCipher::encrypt_sectors_in_place`] /
//! [`SectorCipher::decrypt_sectors_in_place`] are the batch entry points the
//! dm layer drives, so a whole write batch crosses the cipher's virtual
//! dispatch once.

use crate::aes::{BlockCipher, AES_BLOCK_SIZE, CBC_LANES};
use crate::sha256::sha256;

/// Blocks staged per wide-lane chunk: 64 blocks (1 KiB) keeps the tweak /
/// saved-ciphertext scratch on the stack (no per-sector allocation) while
/// giving the 8-wide AES ladders long runs; a 4 KiB sector is 4 chunks.
const LANE_CHUNK: usize = 64;

/// A length-preserving cipher over whole device sectors, keyed by sector
/// number. This is the interface `mobiceal-dm`'s crypt target consumes.
///
/// The in-place methods are the hot path: `dm-crypt`-style layers own the
/// sector buffers they are about to write (or just read), so encrypting
/// in place avoids a heap allocation per sector, exactly like in-place
/// bio encryption in the kernel. The allocating and in-place variants are
/// interchangeable — default implementations route each through the other,
/// and property tests pin the equivalence for the two provided modes.
pub trait SectorCipher: Send + Sync {
    /// Encrypts `sector_data`, whose position on the device is `sector_index`.
    ///
    /// # Panics
    ///
    /// Panics if the data length is not a positive multiple of 16.
    fn encrypt_sector(&self, sector_index: u64, sector_data: &[u8]) -> Vec<u8>;

    /// Inverse of [`SectorCipher::encrypt_sector`].
    ///
    /// # Panics
    ///
    /// Panics if the data length is not a positive multiple of 16.
    fn decrypt_sector(&self, sector_index: u64, sector_data: &[u8]) -> Vec<u8>;

    /// Encrypts `sector_data` in place (no allocation in the provided
    /// modes; the default falls back to [`SectorCipher::encrypt_sector`]).
    ///
    /// # Panics
    ///
    /// Panics if the data length is not a positive multiple of 16.
    fn encrypt_sector_in_place(&self, sector_index: u64, sector_data: &mut [u8]) {
        let out = self.encrypt_sector(sector_index, sector_data);
        sector_data.copy_from_slice(&out);
    }

    /// Inverse of [`SectorCipher::encrypt_sector_in_place`].
    ///
    /// # Panics
    ///
    /// Panics if the data length is not a positive multiple of 16.
    fn decrypt_sector_in_place(&self, sector_index: u64, sector_data: &mut [u8]) {
        let out = self.decrypt_sector(sector_index, sector_data);
        sector_data.copy_from_slice(&out);
    }

    /// Encrypts every `(sector_index, buffer)` job in place — the batch
    /// entry point the dm layer feeds whole write batches through, so a
    /// 64-sector batch crosses the cipher's virtual dispatch once instead
    /// of 64 times (the calls inside this default are statically
    /// dispatched in the concrete impl the vtable selects). Jobs are
    /// independent sectors; order does not matter.
    ///
    /// # Panics
    ///
    /// Panics if any buffer length is not a positive multiple of 16.
    fn encrypt_sectors_in_place(&self, jobs: &mut [(u64, &mut [u8])]) {
        for (index, buf) in jobs.iter_mut() {
            self.encrypt_sector_in_place(*index, buf);
        }
    }

    /// Inverse of [`SectorCipher::encrypt_sectors_in_place`], same
    /// contract.
    ///
    /// # Panics
    ///
    /// Panics if any buffer length is not a positive multiple of 16.
    fn decrypt_sectors_in_place(&self, jobs: &mut [(u64, &mut [u8])]) {
        for (index, buf) in jobs.iter_mut() {
            self.decrypt_sector_in_place(*index, buf);
        }
    }
}

fn check_len(len: usize) {
    assert!(
        len > 0 && len.is_multiple_of(AES_BLOCK_SIZE),
        "sector length {len} not a multiple of 16"
    );
}

/// CBC with Encrypted Salt-Sector IV (the `aes-cbc-essiv:sha256` dm-crypt
/// mode used by Android 4.2 FDE, §II-A).
///
/// The per-sector IV is `E_{SHA256(key)}(sector_index_le)`, which hides
/// sector-number structure from the ciphertext.
pub struct CbcEssiv<C: BlockCipher> {
    data_cipher: C,
    iv_cipher: crate::aes::Aes256,
}

impl<C: BlockCipher> CbcEssiv<C> {
    /// Wraps `data_cipher`; the ESSIV key is SHA-256 of an encoding of the
    /// data key's identity. Because the trait does not expose raw key bytes,
    /// callers that need exact dm-crypt compatibility should construct via
    /// [`CbcEssiv::with_essiv_key`]; for the simulation the derived variant
    /// is sufficient and still gives each instance a distinct IV key.
    pub fn new(data_cipher: C) -> Self {
        // Derive an ESSIV key by encrypting two known blocks with the data
        // cipher and hashing the result: a keyed fingerprint of the data key.
        let mut b0 = [0u8; 16];
        let mut b1 = [0xffu8; 16];
        data_cipher.encrypt_block(&mut b0);
        data_cipher.encrypt_block(&mut b1);
        let mut seed = Vec::with_capacity(32);
        seed.extend_from_slice(&b0);
        seed.extend_from_slice(&b1);
        let essiv_key = sha256(&seed);
        CbcEssiv { data_cipher, iv_cipher: crate::aes::Aes256::new(&essiv_key) }
    }

    /// Wraps `data_cipher` with an explicit ESSIV key (`SHA256(data_key)` in
    /// real dm-crypt).
    pub fn with_essiv_key(data_cipher: C, essiv_key: &[u8; 32]) -> Self {
        CbcEssiv { data_cipher, iv_cipher: crate::aes::Aes256::new(essiv_key) }
    }

    fn iv_for(&self, sector_index: u64) -> [u8; 16] {
        let mut iv = [0u8; 16];
        iv[..8].copy_from_slice(&sector_index.to_le_bytes());
        self.iv_cipher.encrypt_block(&mut iv);
        iv
    }

    /// CBC-encrypts 1..=8 equal-length sectors side by side: all their
    /// ESSIV IVs come out of one wide call, then one
    /// [`BlockCipher::cbc_encrypt_lanes`] call runs every chain. The IVs
    /// and the lane slices live in stack arrays, so a group costs no heap
    /// allocation.
    fn encrypt_interleaved(&self, group: &mut [(u64, &mut [u8])]) {
        let mut ivs = [[0u8; AES_BLOCK_SIZE]; CBC_LANES];
        let ivs = &mut ivs[..group.len()];
        for (iv, (index, _)) in ivs.iter_mut().zip(group.iter()) {
            iv[..8].copy_from_slice(&index.to_le_bytes());
        }
        self.iv_cipher.encrypt_blocks(ivs.as_flattened_mut());
        let mut lanes: [&mut [u8]; CBC_LANES] = Default::default();
        for (lane, (_, buf)) in lanes.iter_mut().zip(group.iter_mut()) {
            *lane = buf;
        }
        self.data_cipher.cbc_encrypt_lanes(ivs, &mut lanes[..ivs.len()]);
    }
}

impl<C: BlockCipher> SectorCipher for CbcEssiv<C> {
    fn encrypt_sector(&self, sector_index: u64, sector_data: &[u8]) -> Vec<u8> {
        let mut out = sector_data.to_vec();
        self.encrypt_sector_in_place(sector_index, &mut out);
        out
    }

    fn decrypt_sector(&self, sector_index: u64, sector_data: &[u8]) -> Vec<u8> {
        let mut out = sector_data.to_vec();
        self.decrypt_sector_in_place(sector_index, &mut out);
        out
    }

    // CBC encrypt chains within a sector: block i's cipher input is
    // `P_i ^ C_{i-1}`, and `C_{i-1}` is the *output* of the previous
    // block's AES call. A lone sector is one chain for
    // `cbc_encrypt_lanes`; on AES-NI hosts the chain value never leaves a
    // register, so the sector runs at the `AESENC` latency bound.
    fn encrypt_sector_in_place(&self, sector_index: u64, sector_data: &mut [u8]) {
        check_len(sector_data.len());
        self.data_cipher.cbc_encrypt_lanes(&[self.iv_for(sector_index)], &mut [sector_data]);
    }

    // Sectors chain independently, so runs of up to `CBC_LANES`
    // consecutive equal-length sectors share one `cbc_encrypt_lanes` call
    // whose chains interleave through the AES pipeline. A length the mode
    // rejects panics before its run is touched.
    fn encrypt_sectors_in_place(&self, jobs: &mut [(u64, &mut [u8])]) {
        let mut rest = jobs;
        while let Some((_, head)) = rest.first() {
            let len = head.len();
            check_len(len);
            let run = rest.iter().take(CBC_LANES).take_while(|(_, buf)| buf.len() == len).count();
            let (group, tail) = std::mem::take(&mut rest).split_at_mut(run);
            self.encrypt_interleaved(group);
            rest = tail;
        }
    }

    // CBC decrypt, unlike encrypt, is embarrassingly parallel: every
    // output is `D(C_i) ^ C_{i-1}` over ciphertexts that all exist up
    // front. Each chunk saves its ciphertext to a stack scratch, computes
    // every `D(C_i)` through the wide lanes, then applies the lagged XOR.
    fn decrypt_sector_in_place(&self, sector_index: u64, sector_data: &mut [u8]) {
        check_len(sector_data.len());
        let mut prev = u128::from_ne_bytes(self.iv_for(sector_index));
        let mut saved = [0u8; LANE_CHUNK * AES_BLOCK_SIZE];
        for chunk in sector_data.chunks_mut(LANE_CHUNK * AES_BLOCK_SIZE) {
            let saved = &mut saved[..chunk.len()];
            saved.copy_from_slice(chunk);
            self.data_cipher.decrypt_blocks(chunk);
            for (block, ct) in
                chunk.chunks_exact_mut(AES_BLOCK_SIZE).zip(saved.chunks_exact(AES_BLOCK_SIZE))
            {
                let block: &mut [u8; AES_BLOCK_SIZE] = block.try_into().expect("exact chunk");
                *block = (u128::from_ne_bytes(*block) ^ prev).to_ne_bytes();
                prev = u128::from_ne_bytes(ct.try_into().expect("exact chunk"));
            }
        }
    }
}

impl<C: BlockCipher> std::fmt::Debug for CbcEssiv<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CbcEssiv").finish_non_exhaustive()
    }
}

/// XTS mode (IEEE 1619-2007), the `aes-xts-plain64` dm-crypt mode.
///
/// Uses two independent keys: one for data, one for the tweak. Both
/// directions precompute each chunk's tweak sequence (PCLMULQDQ carry-less
/// ladder when the host reports it, serial shift/xor otherwise) and drive
/// the data cipher through the wide-lane entry points.
pub struct Xts<C: BlockCipher> {
    data_cipher: C,
    tweak_cipher: C,
    /// Whether the tweak ladder may use the PCLMULQDQ path (host support,
    /// detected once at construction; clearable for tests/benches).
    clmul_tweaks: bool,
}

impl<C: BlockCipher> Xts<C> {
    /// Creates an XTS cipher from the data-key cipher and tweak-key cipher.
    pub fn new(data_cipher: C, tweak_cipher: C) -> Self {
        Xts { data_cipher, tweak_cipher, clmul_tweaks: clmul_available() }
    }

    /// Pins the tweak ladder to the portable shift/xor path even on
    /// PCLMULQDQ hosts. Tweak values are bit-identical either way; tests
    /// and benches use this to keep the portable ladder covered (and
    /// measured) on hardware hosts.
    #[doc(hidden)]
    pub fn force_portable_tweaks(&mut self) {
        self.clmul_tweaks = false;
    }

    fn initial_tweak(&self, sector_index: u64) -> [u8; 16] {
        let mut t = [0u8; 16];
        t[..8].copy_from_slice(&sector_index.to_le_bytes());
        self.tweak_cipher.encrypt_block(&mut t);
        t
    }

    /// Multiplies the tweak by x in GF(2^128). In the little-endian u128
    /// view the byte-wise carry chain collapses to one wide shift: each
    /// byte shifts left taking the previous byte's top bit, and the final
    /// carry folds back as the 0x87 reduction polynomial.
    fn gf_double(v: u128) -> u128 {
        let reduce = ((v >> 127) as u8) * 0x87;
        (v << 1) ^ reduce as u128
    }

    /// Fills `out` with the consecutive tweak sequence starting at `t0`
    /// (`out[i] = t0 · x^i`, little-endian u128 view).
    ///
    /// The portable ladder is the serial double: each tweak depends on the
    /// one before it. The PCLMULQDQ ladder breaks that chain four ways —
    /// `out[1..4]` come straight off `t0` as `t0 · x^k`, and from there
    /// `out[i] = out[i-4] · x^4`, four independent multiply chains whose
    /// carry-less folds overlap — so tweak generation stays off the
    /// critical path of the wide AES lanes it feeds.
    fn fill_tweaks(&self, t0: u128, out: &mut [u128]) {
        #[cfg(target_arch = "x86_64")]
        if self.clmul_tweaks {
            // SAFETY: `clmul_tweaks` is only set when the CPU reports
            // PCLMULQDQ and SSE2 support at runtime.
            unsafe { fill_tweaks_clmul(t0, out) };
            return;
        }
        let mut t = t0;
        for slot in out.iter_mut() {
            *slot = t;
            t = Self::gf_double(t);
        }
    }

    fn process_in_place(&self, sector_index: u64, data: &mut [u8], encrypt: bool) {
        check_len(data.len());
        let mut t0 = u128::from_le_bytes(self.initial_tweak(sector_index));
        let mut tweaks = [0u128; LANE_CHUNK];
        for chunk in data.chunks_mut(LANE_CHUNK * AES_BLOCK_SIZE) {
            let tweaks = &mut tweaks[..chunk.len() / AES_BLOCK_SIZE];
            self.fill_tweaks(t0, tweaks);
            xor_tweaks(chunk, tweaks);
            if encrypt {
                self.data_cipher.encrypt_blocks(chunk);
            } else {
                self.data_cipher.decrypt_blocks(chunk);
            }
            xor_tweaks(chunk, tweaks);
            t0 = Self::gf_double(tweaks[tweaks.len() - 1]);
        }
    }
}

/// XORs `tweaks[i]` into the i-th 16-byte block of `chunk` (the pre- and
/// post-whitening steps of XTS; x86 is little-endian so the native u128
/// view matches the ladder's little-endian tweak values).
fn xor_tweaks(chunk: &mut [u8], tweaks: &[u128]) {
    for (block, &t) in chunk.chunks_exact_mut(AES_BLOCK_SIZE).zip(tweaks) {
        let block: &mut [u8; AES_BLOCK_SIZE] = block.try_into().expect("exact chunk");
        *block = (u128::from_le_bytes(*block) ^ t).to_le_bytes();
    }
}

/// Whether the host offers carry-less multiply for the XTS tweak ladder
/// (checked once per [`Xts`] construction).
#[cfg(target_arch = "x86_64")]
fn clmul_available() -> bool {
    std::arch::is_x86_feature_detected!("pclmulqdq") && std::arch::is_x86_feature_detected!("sse2")
}

#[cfg(not(target_arch = "x86_64"))]
fn clmul_available() -> bool {
    false
}

/// The PCLMULQDQ tweak ladder: `out[i] = t0 · x^i` in GF(2^128) with the
/// XTS reduction polynomial `x^128 + x^7 + x^2 + x + 1`.
///
/// Four multiply-by-`x^4` chains run interleaved (chain `j` produces
/// `out[j]`, `out[j+4]`, `out[j+8]`, …), so consecutive tweaks never wait
/// on each other — the serial shift/xor double's loop-carried dependency
/// is the thing this ladder deletes.
///
/// # Safety
///
/// The CPU must support the `pclmulqdq` and `sse2` feature sets.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse2")]
unsafe fn fill_tweaks_clmul(t0: u128, out: &mut [u128]) {
    use std::arch::x86_64::*;
    if out.is_empty() {
        return;
    }
    // SAFETY: caller guarantees PCLMULQDQ + SSE2 (this fn's contract).
    // `u128` and `__m128i` have identical 16-byte layouts on this
    // little-endian target, all stores go through unaligned intrinsics,
    // and every `p.add(i)` stays inside `out` (`i < n` throughout).
    unsafe {
        let n = out.len();
        let p = out.as_mut_ptr() as *mut __m128i;
        // Prologue: out[0..4] come straight off t0 as t0 · x^k — all
        // independent, no chain yet.
        let mut chain = [_mm_loadu_si128(&t0 as *const u128 as *const __m128i); 4];
        _mm_storeu_si128(p, chain[0]);
        for k in 1..4.min(n) {
            chain[k] = gf_mul_xk(chain[0], k as i64);
            _mm_storeu_si128(p.add(k), chain[k]);
        }
        // Steady state: four independent ·x^4 chains, interleaved.
        let mut i = 4;
        while i < n {
            for (j, lane) in chain.iter_mut().enumerate().take((n - i).min(4)) {
                *lane = gf_mul_xk(*lane, 4);
                _mm_storeu_si128(p.add(i + j), *lane);
            }
            i += 4;
        }
    }
}

/// One GF(2^128) multiply of `t` by `x^k` (1 ≤ k ≤ 63) with a carry-less
/// fold: the 128-bit polynomial shifts left `k` bits, and the `k` bits
/// that overflow degree 127 reduce in a single `PCLMULQDQ` against the
/// low terms `0x87` of the XTS polynomial (their product has degree
/// < k + 7 < 128, so one fold suffices — no shift/xor carry chain).
///
/// # Safety
///
/// The CPU must support the `pclmulqdq` and `sse2` feature sets.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "pclmulqdq,sse2")]
unsafe fn gf_mul_xk(t: std::arch::x86_64::__m128i, k: i64) -> std::arch::x86_64::__m128i {
    use std::arch::x86_64::*;
    // Register arithmetic only — with the target features statically
    // enabled every intrinsic here is a safe operation, so no inner
    // `unsafe` block is needed; the `unsafe fn` carries the feature
    // contract for callers.
    let shl = _mm_set_epi64x(0, k);
    let shr = _mm_set_epi64x(0, 64 - k);
    // 128-bit shift left by k out of 64-bit limb shifts: each limb
    // shifts, the low limb's spilled top bits re-enter the high limb,
    // and the high limb's spilled bits are the degree-≥128 overflow.
    let limbs = _mm_sll_epi64(t, shl);
    let spill = _mm_srl_epi64(t, shr);
    let shifted = _mm_or_si128(limbs, _mm_slli_si128::<8>(spill));
    let overflow = _mm_srli_si128::<8>(spill);
    let fold = _mm_clmulepi64_si128::<0x00>(overflow, _mm_set_epi64x(0, 0x87));
    _mm_xor_si128(shifted, fold)
}

impl<C: BlockCipher> SectorCipher for Xts<C> {
    fn encrypt_sector(&self, sector_index: u64, sector_data: &[u8]) -> Vec<u8> {
        let mut out = sector_data.to_vec();
        self.process_in_place(sector_index, &mut out, true);
        out
    }

    fn decrypt_sector(&self, sector_index: u64, sector_data: &[u8]) -> Vec<u8> {
        let mut out = sector_data.to_vec();
        self.process_in_place(sector_index, &mut out, false);
        out
    }

    fn encrypt_sector_in_place(&self, sector_index: u64, sector_data: &mut [u8]) {
        self.process_in_place(sector_index, sector_data, true);
    }

    fn decrypt_sector_in_place(&self, sector_index: u64, sector_data: &mut [u8]) {
        self.process_in_place(sector_index, sector_data, false);
    }
}

impl<C: BlockCipher> std::fmt::Debug for Xts<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Xts").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::reference::ReferenceAes;
    use crate::aes::{Aes128, Aes192, Aes256};
    use crate::util::{from_hex, to_hex};

    #[test]
    fn xts_ieee1619_vector_1() {
        // IEEE 1619 Vector 1: all-zero keys, sector 0, 32 zero bytes.
        let key1 = [0u8; 16];
        let key2 = [0u8; 16];
        let xts = Xts::new(Aes128::new(&key1), Aes128::new(&key2));
        let pt = [0u8; 32];
        let ct = xts.encrypt_sector(0, &pt);
        assert_eq!(to_hex(&ct), "917cf69ebd68b2ec9b9fe9a3eadda692cd43d2f59598ed858c02c2652fbf922e");
        assert_eq!(xts.decrypt_sector(0, &ct), pt);
    }

    #[test]
    fn xts_ieee1619_vector_2() {
        // IEEE 1619 Vector 2: key1=0x11.., key2=0x22.., sector 0x3333333333,
        // PT = 32 bytes of 0x44.
        let key1 = [0x11u8; 16];
        let key2 = [0x22u8; 16];
        let xts = Xts::new(Aes128::new(&key1), Aes128::new(&key2));
        let pt = [0x44u8; 32];
        let ct = xts.encrypt_sector(0x3333333333, &pt);
        assert_eq!(to_hex(&ct), "c454185e6a16936e39334038acef838bfb186fff7480adc4289382ecd6d394f0");
        assert_eq!(xts.decrypt_sector(0x3333333333, &ct), pt);
    }

    #[test]
    fn xts_full_sector_roundtrip() {
        let xts = Xts::new(Aes256::new(&[3u8; 32]), Aes256::new(&[9u8; 32]));
        let pt: Vec<u8> = (0..512).map(|i| (i % 256) as u8).collect();
        let ct = xts.encrypt_sector(1234, &pt);
        assert_ne!(ct, pt);
        assert_eq!(xts.decrypt_sector(1234, &ct), pt);
        // Different sector => different ciphertext.
        assert_ne!(xts.encrypt_sector(1235, &pt), ct);
    }

    #[test]
    fn essiv_roundtrip_and_sector_dependence() {
        let c = CbcEssiv::new(Aes256::new(&[5u8; 32]));
        let pt: Vec<u8> = (0..4096).map(|i| (i * 7 % 256) as u8).collect();
        let ct0 = c.encrypt_sector(0, &pt);
        let ct1 = c.encrypt_sector(1, &pt);
        assert_ne!(ct0, pt);
        assert_ne!(ct0, ct1, "IV must depend on sector number");
        assert_eq!(c.decrypt_sector(0, &ct0), pt);
        assert_eq!(c.decrypt_sector(1, &ct1), pt);
    }

    #[test]
    fn essiv_wrong_sector_fails_to_decrypt() {
        let c = CbcEssiv::new(Aes256::new(&[5u8; 32]));
        let pt = vec![0u8; 64];
        let ct = c.encrypt_sector(7, &pt);
        assert_ne!(c.decrypt_sector(8, &ct), pt);
    }

    #[test]
    fn essiv_explicit_key_matches_dm_crypt_shape() {
        let data_key =
            from_hex("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4").unwrap();
        let essiv_key = crate::sha256::sha256(&data_key);
        let c = CbcEssiv::with_essiv_key(Aes256::from_slice(&data_key), &essiv_key);
        let pt = vec![0xABu8; 512];
        let ct = c.encrypt_sector(42, &pt);
        assert_eq!(c.decrypt_sector(42, &ct), pt);
    }

    #[test]
    fn ciphertext_is_length_preserving() {
        let c = CbcEssiv::new(Aes128::new(&[1u8; 16]));
        for len in [16usize, 512, 4096] {
            assert_eq!(c.encrypt_sector(0, &vec![0u8; len]).len(), len);
        }
    }

    #[test]
    #[should_panic(expected = "multiple of 16")]
    fn rejects_unaligned_sector() {
        let c = CbcEssiv::new(Aes128::new(&[1u8; 16]));
        let _ = c.encrypt_sector(0, &[0u8; 15]);
    }

    #[test]
    fn two_instances_same_key_agree() {
        let a = CbcEssiv::new(Aes256::new(&[8u8; 32]));
        let b = CbcEssiv::new(Aes256::new(&[8u8; 32]));
        let pt = vec![1u8; 64];
        assert_eq!(a.encrypt_sector(3, &pt), b.encrypt_sector(3, &pt));
    }

    #[test]
    fn clmul_tweak_ladder_matches_serial_double() {
        // The PCLMULQDQ ladder and the portable shift/xor double must
        // produce identical tweak sequences for every run length that
        // exercises the prologue (< 4), the interleaved chains and a full
        // 4 KiB sector's worth of doublings.
        let mut fast = Xts::new(Aes128::new(&[0x31u8; 16]), Aes128::new(&[0x32u8; 16]));
        let mut t0: u128 = 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210;
        for n in [1usize, 2, 3, 4, 5, 7, 8, 13, 64, 256] {
            let mut expect = vec![0u128; n];
            let mut t = t0;
            for slot in expect.iter_mut() {
                *slot = t;
                t = Xts::<Aes128>::gf_double(t);
            }
            let mut got = vec![0u128; n];
            fast.fill_tweaks(t0, &mut got);
            assert_eq!(got, expect, "ladder diverges at n = {n}");
            t0 = t0.rotate_left(17) ^ n as u128;
        }
        // And the forced-portable instance takes the serial path (a no-op
        // check on non-PCLMULQDQ hosts, where both already did).
        fast.force_portable_tweaks();
        let mut got = vec![0u128; 9];
        fast.fill_tweaks(7, &mut got);
        assert_eq!(got[0], 7);
        assert_eq!(got[1], 14);
    }

    #[test]
    fn sector_batch_entry_points_match_per_sector_calls() {
        let xts = Xts::new(Aes256::new(&[3u8; 32]), Aes256::new(&[9u8; 32]));
        let essiv = CbcEssiv::new(Aes256::new(&[5u8; 32]));
        for cipher in [&xts as &dyn SectorCipher, &essiv] {
            let mut sectors: Vec<(u64, Vec<u8>)> = (0..5u64)
                .map(|s| (s * 11, (0..512).map(|i| (i as u64 * 7 + s) as u8).collect()))
                .collect();
            let expect: Vec<Vec<u8>> =
                sectors.iter().map(|(s, d)| cipher.encrypt_sector(*s, d)).collect();
            let mut jobs: Vec<(u64, &mut [u8])> =
                sectors.iter_mut().map(|(s, d)| (*s, d.as_mut_slice())).collect();
            cipher.encrypt_sectors_in_place(&mut jobs);
            for ((_, got), want) in sectors.iter().zip(&expect) {
                assert_eq!(got, want, "batch encrypt must match per-sector");
            }
            let mut jobs: Vec<(u64, &mut [u8])> =
                sectors.iter_mut().map(|(s, d)| (*s, d.as_mut_slice())).collect();
            cipher.decrypt_sectors_in_place(&mut jobs);
            for (s, (_, got)) in sectors.iter().enumerate() {
                let want: Vec<u8> = (0..512).map(|i| (i as u64 * 7 + s as u64) as u8).collect();
                assert_eq!(got, &want, "batch decrypt must invert");
            }
        }
    }

    /// Runs `jobs` through `encrypt_sectors_in_place`, asserts every sector
    /// equals the per-sector `encrypt_sector`, and returns the ciphertexts.
    fn batch_encrypt_matches_per_sector(
        cipher: &dyn SectorCipher,
        jobs: &[(u64, Vec<u8>)],
    ) -> Vec<Vec<u8>> {
        let expect: Vec<Vec<u8>> = jobs.iter().map(|(s, d)| cipher.encrypt_sector(*s, d)).collect();
        let mut got: Vec<Vec<u8>> = jobs.iter().map(|(_, d)| d.clone()).collect();
        let mut batch: Vec<(u64, &mut [u8])> =
            jobs.iter().zip(got.iter_mut()).map(|((s, _), d)| (*s, d.as_mut_slice())).collect();
        cipher.encrypt_sectors_in_place(&mut batch);
        for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
            assert_eq!(g, e, "job {i} of {} diverges from per-sector encrypt", jobs.len());
        }
        got
    }

    /// `depth` sectors of `len` bytes at scattered indices.
    fn essiv_jobs(depth: usize, len: usize) -> Vec<(u64, Vec<u8>)> {
        (0..depth as u64)
            .map(|s| (s * 37 + 5, (0..len).map(|i| (i as u64 * 13 + s * 7) as u8).collect()))
            .collect()
    }

    #[test]
    fn essiv_interleaved_batch_matches_per_sector_at_every_depth() {
        // Depths 0..=24 and 64 cover every mix of full 8-sector groups and
        // ragged 2..7-sector and singleton tails, for every key size, on
        // the AES-NI lanes, the forced-software lanes and the byte-wise
        // reference core (the default per-block `encrypt_blocks`) — all of
        // which must agree byte for byte.
        let key = [0x5Au8; 32];
        for key_len in [16usize, 24, 32] {
            let essiv_key = crate::sha256::sha256(&key[..key_len]);
            macro_rules! lanes_and_software {
                ($aes:ty) => {{
                    let mut soft = <$aes>::from_slice(&key[..key_len]);
                    soft.force_software();
                    let lanes = <$aes>::from_slice(&key[..key_len]);
                    [
                        Box::new(CbcEssiv::with_essiv_key(lanes, &essiv_key))
                            as Box<dyn SectorCipher>,
                        Box::new(CbcEssiv::with_essiv_key(soft, &essiv_key)),
                    ]
                }};
            }
            let [hw, soft] = match key_len {
                16 => lanes_and_software!(Aes128),
                24 => lanes_and_software!(Aes192),
                _ => lanes_and_software!(Aes256),
            };
            let reference =
                CbcEssiv::with_essiv_key(ReferenceAes::new(&key[..key_len]), &essiv_key);
            for depth in (0..=24).chain([64]) {
                let jobs = essiv_jobs(depth, 512);
                let ct = batch_encrypt_matches_per_sector(&*hw, &jobs);
                assert_eq!(batch_encrypt_matches_per_sector(&*soft, &jobs), ct);
                assert_eq!(batch_encrypt_matches_per_sector(&reference, &jobs), ct);
            }
        }
    }

    #[test]
    fn essiv_interleaved_batch_handles_mixed_lengths_and_duplicates() {
        let essiv = CbcEssiv::new(Aes256::new(&[5u8; 32]));
        // 16 B, 512 B and 4 KiB sectors interleaved: groups break at every
        // length change, mid-group and at the 8-sector cap.
        let lens = [512, 512, 16, 4096, 4096, 4096, 512, 16, 16, 16]
            .into_iter()
            .chain([4096; 11])
            .chain([512, 4096, 16, 512, 512]);
        let jobs: Vec<(u64, Vec<u8>)> = lens
            .enumerate()
            .map(|(s, len)| (s as u64 * 3, (0..len).map(|i| (i * 5 + s) as u8).collect()))
            .collect();
        batch_encrypt_matches_per_sector(&essiv, &jobs);
        // Duplicate sector indices share an IV, so identical plaintext
        // must give identical ciphertext inside one interleaved group.
        let mut jobs = essiv_jobs(12, 4096);
        for (i, (s, d)) in jobs.iter_mut().enumerate() {
            *s = if i % 2 == 0 { 9 } else { 4 };
            if i < 4 {
                *d = vec![0xEE; 4096];
            }
        }
        let ct = batch_encrypt_matches_per_sector(&essiv, &jobs);
        assert_eq!(ct[0], ct[2], "same sector + same plaintext, same ciphertext");
        assert_ne!(ct[0], ct[1], "different sectors never share a chain");
    }

    #[test]
    #[should_panic(expected = "multiple of 16")]
    fn essiv_batch_rejects_unaligned_group() {
        let essiv = CbcEssiv::new(Aes128::new(&[1u8; 16]));
        let (mut a, mut b) = ([0u8; 24], [0u8; 24]);
        essiv.encrypt_sectors_in_place(&mut [(0, &mut a[..]), (1, &mut b[..])]);
    }

    #[test]
    fn wide_and_forced_portable_sector_paths_agree() {
        // Every (cipher backend, tweak ladder) combination must produce
        // the same bytes: hardware lanes + clmul tweaks, hardware lanes +
        // portable tweaks, software lanes + portable tweaks.
        let pt: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
        let fast = Xts::new(Aes256::new(&[3u8; 32]), Aes256::new(&[9u8; 32]));
        let mut portable_tweaks = Xts::new(Aes256::new(&[3u8; 32]), Aes256::new(&[9u8; 32]));
        portable_tweaks.force_portable_tweaks();
        let mut soft = {
            let mut k1 = Aes256::new(&[3u8; 32]);
            let mut k2 = Aes256::new(&[9u8; 32]);
            k1.force_software();
            k2.force_software();
            Xts::new(k1, k2)
        };
        soft.force_portable_tweaks();
        let ct = fast.encrypt_sector(77, &pt);
        assert_eq!(portable_tweaks.encrypt_sector(77, &pt), ct);
        assert_eq!(soft.encrypt_sector(77, &pt), ct);
        assert_eq!(fast.decrypt_sector(77, &ct), pt);
        assert_eq!(soft.decrypt_sector(77, &ct), pt);

        let essiv = CbcEssiv::new(Aes256::new(&[5u8; 32]));
        let essiv_soft = {
            let mut k = Aes256::new(&[5u8; 32]);
            k.force_software();
            CbcEssiv::new(k)
        };
        // The derived ESSIV key only depends on ciphertext bytes, which
        // are backend-independent, so both instances share an IV key.
        let ct = essiv.encrypt_sector(42, &pt);
        assert_eq!(essiv_soft.encrypt_sector(42, &pt), ct);
        assert_eq!(essiv_soft.decrypt_sector(42, &ct), pt);
    }
}
