//! AES-128/192/256 (FIPS 197), T-table implementation with an AES-NI
//! hardware fast path.
//!
//! The S-box, its inverse, and the four encrypt/decrypt T-tables are all
//! *derived at compile time* from the GF(2^8) definition (multiplicative
//! inverse + affine map) rather than transcribed. Each round fuses
//! SubBytes + ShiftRows + MixColumns into four table lookups per output
//! word — the classic software layout dm-crypt's `aes-generic` kernel
//! implementation uses — with round keys held as `u32` words in fixed
//! arrays, so a 4 KiB sector costs a few thousand table lookups instead of
//! hundreds of thousands of GF multiplications. On x86-64 hosts that
//! report AES-NI at runtime, blocks instead go through the `AESENC` /
//! `AESDEC` instructions (the same key schedule feeds both backends, like
//! the kernel's `aesni-intel` vs `aes-generic` split); everything else
//! falls back to the T-tables.
//!
//! `AESENC` has ~4-cycle latency but 1/cycle throughput, so a single
//! dependent chain of rounds leaves three quarters of the unit idle.
//! [`BlockCipher::encrypt_blocks`] / [`BlockCipher::decrypt_blocks`]
//! therefore drive runs of *independent* blocks through interleaved
//! ladders that keep 8 (then 4) `__m128i` states in flight per round-key
//! load, which is where sector modes over independent blocks (XTS, CBC
//! decrypt) get their ~4x over the one-block-at-a-time path. The ragged
//! tail of a run falls back to the single-block path, and on non-AES-NI
//! hosts the wide entry points are a plain loop over the T-table core, so
//! every backend computes byte-identical output.
//!
//! CBC encrypt cannot split a chain: block `i`'s input is block `i - 1`'s
//! output. [`BlockCipher::cbc_encrypt_lanes`] instead runs 1..=8 whole
//! chains at once through one AES-NI kernel that loads the round keys
//! once per call and keeps every chain value in an xmm register from IV
//! to last block, so a lone sector runs at the `AESENC` latency bound and
//! eight sectors fill the pipeline (Gueron's AES-NI white paper does the
//! same). Its portable default is a lane-buffer loop over
//! [`BlockCipher::encrypt_blocks`]. The original byte-wise core survives
//! as [`reference`], an executable specification that the property tests
//! pin whichever backend is active against; all of them are validated
//! against the FIPS 197 example vectors and the NIST SP 800-38A CBC
//! vectors in the tests.
//!
//! Real wall-clock speed matters only for running the test/bench suite:
//! *simulated* encryption timing in the experiments is charged to the
//! virtual clock by `mobiceal_sim::CpuCostModel`, and is unaffected by how
//! fast this code actually runs.

/// AES block size in bytes.
pub const AES_BLOCK_SIZE: usize = 16;

const fn xtime(a: u8) -> u8 {
    (a << 1) ^ (((a >> 7) & 1) * 0x1b)
}

const fn gf_mul(a: u8, b: u8) -> u8 {
    let mut p = 0u8;
    let mut x = a;
    let mut y = b;
    while y != 0 {
        if y & 1 != 0 {
            p ^= x;
        }
        x = xtime(x);
        y >>= 1;
    }
    p
}

const fn gf_inv(a: u8) -> u8 {
    // a^254 in GF(2^8) equals the multiplicative inverse (and 0 maps to 0).
    let mut result = 1u8;
    let mut base = a;
    let mut exp = 254u32;
    while exp > 0 {
        if exp & 1 != 0 {
            result = gf_mul(result, base);
        }
        base = gf_mul(base, base);
        exp >>= 1;
    }
    result
}

const fn rotl8(x: u8, n: u32) -> u8 {
    x.rotate_left(n)
}

const fn build_sbox() -> [u8; 256] {
    let mut sbox = [0u8; 256];
    let mut i = 0usize;
    while i < 256 {
        let b = gf_inv(i as u8);
        sbox[i] = b ^ rotl8(b, 1) ^ rotl8(b, 2) ^ rotl8(b, 3) ^ rotl8(b, 4) ^ 0x63;
        i += 1;
    }
    sbox
}

const fn build_inv_sbox(sbox: &[u8; 256]) -> [u8; 256] {
    let mut inv = [0u8; 256];
    let mut i = 0usize;
    while i < 256 {
        inv[sbox[i] as usize] = i as u8;
        i += 1;
    }
    inv
}

const SBOX: [u8; 256] = build_sbox();
const INV_SBOX: [u8; 256] = build_inv_sbox(&SBOX);

const RCON: [u8; 15] =
    [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36, 0x6c, 0xd8, 0xab, 0x4d, 0x9a];

/// `TE[0][x]` is the column `(2,1,1,3)·S[x]` packed big-endian; `TE[1..4]`
/// are its byte rotations. One round of SubBytes + ShiftRows + MixColumns
/// for one output word is then `TE[0][a] ^ TE[1][b] ^ TE[2][c] ^ TE[3][d]`.
static TE: [[u32; 256]; 4] = build_enc_tables();
/// `TD[0][x]` is `(14,9,13,11)·InvS[x]`; used both for the equivalent
/// inverse cipher rounds and for applying InvMixColumns to decrypt keys.
static TD: [[u32; 256]; 4] = build_dec_tables();

const fn build_enc_tables() -> [[u32; 256]; 4] {
    let mut t = [[0u32; 256]; 4];
    let mut i = 0usize;
    while i < 256 {
        let s = SBOX[i];
        let e = ((gf_mul(s, 2) as u32) << 24)
            | ((s as u32) << 16)
            | ((s as u32) << 8)
            | (gf_mul(s, 3) as u32);
        t[0][i] = e;
        t[1][i] = e.rotate_right(8);
        t[2][i] = e.rotate_right(16);
        t[3][i] = e.rotate_right(24);
        i += 1;
    }
    t
}

const fn build_dec_tables() -> [[u32; 256]; 4] {
    let mut t = [[0u32; 256]; 4];
    let mut i = 0usize;
    while i < 256 {
        let s = INV_SBOX[i];
        let e = ((gf_mul(s, 14) as u32) << 24)
            | ((gf_mul(s, 9) as u32) << 16)
            | ((gf_mul(s, 13) as u32) << 8)
            | (gf_mul(s, 11) as u32);
        t[0][i] = e;
        t[1][i] = e.rotate_right(8);
        t[2][i] = e.rotate_right(16);
        t[3][i] = e.rotate_right(24);
        i += 1;
    }
    t
}

/// A block cipher operating on 16-byte blocks.
///
/// Implemented by [`Aes128`], [`Aes192`] and [`Aes256`]; sector modes
/// ([`crate::CbcEssiv`], [`crate::Xts`]) are generic over it.
pub trait BlockCipher: Send + Sync {
    /// Encrypts one 16-byte block in place.
    fn encrypt_block(&self, block: &mut [u8; AES_BLOCK_SIZE]);
    /// Decrypts one 16-byte block in place.
    fn decrypt_block(&self, block: &mut [u8; AES_BLOCK_SIZE]);

    /// Encrypts a run of *independent* 16-byte blocks in place.
    ///
    /// The default is a loop over [`BlockCipher::encrypt_block`];
    /// implementations with hardware pipelines override it to keep several
    /// blocks in flight (the AES ciphers run 8x/4x interleaved AES-NI
    /// ladders). The blocks must genuinely be independent, so CBC encrypt,
    /// whose consecutive blocks chain, goes through
    /// [`BlockCipher::cbc_encrypt_lanes`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of 16.
    fn encrypt_blocks(&self, data: &mut [u8]) {
        assert!(data.len().is_multiple_of(AES_BLOCK_SIZE), "block run length {}", data.len());
        for chunk in data.chunks_exact_mut(AES_BLOCK_SIZE) {
            let block: &mut [u8; AES_BLOCK_SIZE] = chunk.try_into().expect("exact chunk");
            self.encrypt_block(block);
        }
    }

    /// Decrypts a run of *independent* 16-byte blocks in place; the inverse
    /// of [`BlockCipher::encrypt_blocks`] with the same contract.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of 16.
    fn decrypt_blocks(&self, data: &mut [u8]) {
        assert!(data.len().is_multiple_of(AES_BLOCK_SIZE), "block run length {}", data.len());
        for chunk in data.chunks_exact_mut(AES_BLOCK_SIZE) {
            let block: &mut [u8; AES_BLOCK_SIZE] = chunk.try_into().expect("exact chunk");
            self.decrypt_block(block);
        }
    }

    /// CBC-encrypts `sectors` in place, chain `i` starting from `ivs[i]`:
    /// `C_0 = E(P_0 ^ IV)`, `C_k = E(P_k ^ C_{k-1})` within each sector.
    ///
    /// Chains are independent, so up to 8 of them advance side by side.
    /// The default is a lane-buffer loop: one 16-byte chain value per
    /// sector on the stack, and for each block offset the blocks XOR into
    /// their lanes, one [`BlockCipher::encrypt_blocks`] call encrypts every
    /// lane, and the results are copied back as ciphertext. The AES
    /// ciphers override it with an AES-NI kernel that keeps the chains in
    /// registers; every implementation computes the same bytes.
    ///
    /// # Panics
    ///
    /// Panics unless `ivs.len() == sectors.len()`, that count is in
    /// `1..=8`, and every sector has the same length, a positive multiple
    /// of 16.
    fn cbc_encrypt_lanes(&self, ivs: &[[u8; AES_BLOCK_SIZE]], sectors: &mut [&mut [u8]]) {
        cbc_encrypt_lanes_portable(self, ivs, sectors);
    }

    /// Key length in bytes (used by ESSIV to derive the IV key).
    fn key_len(&self) -> usize;
}

/// The most chains one [`BlockCipher::cbc_encrypt_lanes`] call takes: one
/// per lane of the 8-wide AES ladder.
pub(crate) const CBC_LANES: usize = 8;

/// Asserts the [`BlockCipher::cbc_encrypt_lanes`] contract and returns the
/// shared sector length. The AES-NI kernel's memory safety rests on these
/// checks, so they are `assert!`, not `debug_assert!`.
fn check_cbc_lanes(ivs: &[[u8; AES_BLOCK_SIZE]], sectors: &[&mut [u8]]) -> usize {
    assert!(
        ivs.len() == sectors.len(),
        "cbc lanes: {} IVs for {} sectors",
        ivs.len(),
        sectors.len()
    );
    assert!(
        (1..=CBC_LANES).contains(&sectors.len()),
        "cbc lanes: {} sectors, expected 1..={CBC_LANES}",
        sectors.len()
    );
    let len = sectors[0].len();
    assert!(
        len > 0 && len.is_multiple_of(AES_BLOCK_SIZE),
        "cbc lanes: sector length {len} not a multiple of 16"
    );
    assert!(sectors.iter().all(|s| s.len() == len), "cbc lanes: sector lengths differ");
    len
}

/// The portable [`BlockCipher::cbc_encrypt_lanes`]: a stack lane buffer of
/// chain values pushed through `cipher.encrypt_blocks` once per block
/// offset. [`reference::ReferenceAes`] and `force_software()` AES run this.
fn cbc_encrypt_lanes_portable<C: BlockCipher + ?Sized>(
    cipher: &C,
    ivs: &[[u8; AES_BLOCK_SIZE]],
    sectors: &mut [&mut [u8]],
) {
    let len = check_cbc_lanes(ivs, sectors);
    let mut lanes = [[0u8; AES_BLOCK_SIZE]; CBC_LANES];
    let lanes = &mut lanes[..ivs.len()];
    lanes.copy_from_slice(ivs);
    for off in (0..len).step_by(AES_BLOCK_SIZE) {
        for (lane, sector) in lanes.iter_mut().zip(sectors.iter()) {
            let block: &[u8; AES_BLOCK_SIZE] =
                sector[off..off + AES_BLOCK_SIZE].try_into().expect("exact block");
            *lane = (u128::from_ne_bytes(*lane) ^ u128::from_ne_bytes(*block)).to_ne_bytes();
        }
        cipher.encrypt_blocks(lanes.as_flattened_mut());
        for (lane, sector) in lanes.iter().zip(sectors.iter_mut()) {
            sector[off..off + AES_BLOCK_SIZE].copy_from_slice(lane);
        }
    }
}

/// Maximum round-key words: AES-256 has 14 rounds → 4·(14+1) = 60 words.
const MAX_RK_WORDS: usize = 60;
/// Maximum round keys as 16-byte blocks (AES-256: 15).
const MAX_RK_BLOCKS: usize = 15;

/// Generic T-table AES parameterised by the number of rounds, with an
/// AES-NI fast path picked once at key-schedule time on x86-64 hosts.
///
/// Encryption round keys come straight from the FIPS 197 key schedule;
/// decryption uses the *equivalent inverse cipher* (FIPS 197 §5.3.5), whose
/// round keys are the encryption schedule reversed with InvMixColumns
/// applied to the inner rounds. That lets decryption share the fused
/// table-lookup structure of encryption — and it is exactly the key form
/// `AESDEC` expects, so the same schedule feeds both backends.
#[derive(Debug, Clone)]
struct AesCore {
    enc_keys: [u32; MAX_RK_WORDS],
    dec_keys: [u32; MAX_RK_WORDS],
    /// The schedules again, as the 16-byte blocks the AES-NI round
    /// instructions consume (identical bytes, pre-serialised).
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    enc_key_blocks: [[u8; 16]; MAX_RK_BLOCKS],
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    dec_key_blocks: [[u8; 16]; MAX_RK_BLOCKS],
    rounds: usize,
    key_len: usize,
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    use_aesni: bool,
}

#[inline]
const fn sub_word(w: u32) -> u32 {
    ((SBOX[(w >> 24) as usize] as u32) << 24)
        | ((SBOX[((w >> 16) & 0xff) as usize] as u32) << 16)
        | ((SBOX[((w >> 8) & 0xff) as usize] as u32) << 8)
        | (SBOX[(w & 0xff) as usize] as u32)
}

impl AesCore {
    fn new(key: &[u8]) -> Self {
        assert!(matches!(key.len(), 16 | 24 | 32), "AES key must be 16, 24 or 32 bytes");
        let nk = key.len() / 4;
        let nr = nk + 6;
        let total_words = 4 * (nr + 1);
        let mut w = [0u32; MAX_RK_WORDS];
        for (i, word) in w.iter_mut().enumerate().take(nk) {
            *word = u32::from_be_bytes(key[4 * i..4 * i + 4].try_into().unwrap());
        }
        for i in nk..total_words {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                // RotWord + SubWord + Rcon (big-endian words: RotWord is a
                // left byte-rotation).
                temp = sub_word(temp.rotate_left(8)) ^ ((RCON[i / nk - 1] as u32) << 24);
            } else if nk > 6 && i % nk == 4 {
                temp = sub_word(temp);
            }
            w[i] = w[i - nk] ^ temp;
        }
        // Equivalent-inverse-cipher schedule: reverse the per-round order
        // and push the inner round keys through InvMixColumns. For any byte
        // b, TD[r][SBOX[b]] is InvMixColumns of b placed in row r, because
        // the InvS lookup inside TD cancels the S lookup.
        let mut dk = [0u32; MAX_RK_WORDS];
        dk[..4].copy_from_slice(&w[4 * nr..4 * nr + 4]);
        for r in 1..nr {
            for i in 0..4 {
                let k = w[4 * (nr - r) + i];
                dk[4 * r + i] = TD[0][SBOX[(k >> 24) as usize] as usize]
                    ^ TD[1][SBOX[((k >> 16) & 0xff) as usize] as usize]
                    ^ TD[2][SBOX[((k >> 8) & 0xff) as usize] as usize]
                    ^ TD[3][SBOX[(k & 0xff) as usize] as usize];
            }
        }
        dk[4 * nr..4 * nr + 4].copy_from_slice(&w[..4]);
        let mut enc_key_blocks = [[0u8; 16]; MAX_RK_BLOCKS];
        let mut dec_key_blocks = [[0u8; 16]; MAX_RK_BLOCKS];
        for r in 0..=nr {
            for i in 0..4 {
                enc_key_blocks[r][4 * i..4 * i + 4].copy_from_slice(&w[4 * r + i].to_be_bytes());
                dec_key_blocks[r][4 * i..4 * i + 4].copy_from_slice(&dk[4 * r + i].to_be_bytes());
            }
        }
        AesCore {
            enc_keys: w,
            dec_keys: dk,
            enc_key_blocks,
            dec_key_blocks,
            rounds: nr,
            key_len: key.len(),
            use_aesni: aesni_available(),
        }
    }

    #[inline]
    fn encrypt(&self, block: &mut [u8; 16]) {
        #[cfg(target_arch = "x86_64")]
        if self.use_aesni {
            // SAFETY: `use_aesni` is only set when the CPU reports AES-NI
            // and SSE2 support at runtime.
            unsafe { self.encrypt_aesni(block) };
            return;
        }
        let rk = &self.enc_keys;
        let mut s0 = u32::from_be_bytes(block[0..4].try_into().unwrap()) ^ rk[0];
        let mut s1 = u32::from_be_bytes(block[4..8].try_into().unwrap()) ^ rk[1];
        let mut s2 = u32::from_be_bytes(block[8..12].try_into().unwrap()) ^ rk[2];
        let mut s3 = u32::from_be_bytes(block[12..16].try_into().unwrap()) ^ rk[3];
        let mut i = 4;
        for _ in 1..self.rounds {
            let t0 = TE[0][(s0 >> 24) as usize]
                ^ TE[1][((s1 >> 16) & 0xff) as usize]
                ^ TE[2][((s2 >> 8) & 0xff) as usize]
                ^ TE[3][(s3 & 0xff) as usize]
                ^ rk[i];
            let t1 = TE[0][(s1 >> 24) as usize]
                ^ TE[1][((s2 >> 16) & 0xff) as usize]
                ^ TE[2][((s3 >> 8) & 0xff) as usize]
                ^ TE[3][(s0 & 0xff) as usize]
                ^ rk[i + 1];
            let t2 = TE[0][(s2 >> 24) as usize]
                ^ TE[1][((s3 >> 16) & 0xff) as usize]
                ^ TE[2][((s0 >> 8) & 0xff) as usize]
                ^ TE[3][(s1 & 0xff) as usize]
                ^ rk[i + 2];
            let t3 = TE[0][(s3 >> 24) as usize]
                ^ TE[1][((s0 >> 16) & 0xff) as usize]
                ^ TE[2][((s1 >> 8) & 0xff) as usize]
                ^ TE[3][(s2 & 0xff) as usize]
                ^ rk[i + 3];
            (s0, s1, s2, s3) = (t0, t1, t2, t3);
            i += 4;
        }
        // Final round: SubBytes + ShiftRows only.
        let t0 = sub_shift(s0, s1, s2, s3) ^ rk[i];
        let t1 = sub_shift(s1, s2, s3, s0) ^ rk[i + 1];
        let t2 = sub_shift(s2, s3, s0, s1) ^ rk[i + 2];
        let t3 = sub_shift(s3, s0, s1, s2) ^ rk[i + 3];
        block[0..4].copy_from_slice(&t0.to_be_bytes());
        block[4..8].copy_from_slice(&t1.to_be_bytes());
        block[8..12].copy_from_slice(&t2.to_be_bytes());
        block[12..16].copy_from_slice(&t3.to_be_bytes());
    }

    #[inline]
    fn decrypt(&self, block: &mut [u8; 16]) {
        #[cfg(target_arch = "x86_64")]
        if self.use_aesni {
            // SAFETY: `use_aesni` is only set when the CPU reports AES-NI
            // and SSE2 support at runtime.
            unsafe { self.decrypt_aesni(block) };
            return;
        }
        let rk = &self.dec_keys;
        let mut s0 = u32::from_be_bytes(block[0..4].try_into().unwrap()) ^ rk[0];
        let mut s1 = u32::from_be_bytes(block[4..8].try_into().unwrap()) ^ rk[1];
        let mut s2 = u32::from_be_bytes(block[8..12].try_into().unwrap()) ^ rk[2];
        let mut s3 = u32::from_be_bytes(block[12..16].try_into().unwrap()) ^ rk[3];
        let mut i = 4;
        for _ in 1..self.rounds {
            let t0 = TD[0][(s0 >> 24) as usize]
                ^ TD[1][((s3 >> 16) & 0xff) as usize]
                ^ TD[2][((s2 >> 8) & 0xff) as usize]
                ^ TD[3][(s1 & 0xff) as usize]
                ^ rk[i];
            let t1 = TD[0][(s1 >> 24) as usize]
                ^ TD[1][((s0 >> 16) & 0xff) as usize]
                ^ TD[2][((s3 >> 8) & 0xff) as usize]
                ^ TD[3][(s2 & 0xff) as usize]
                ^ rk[i + 1];
            let t2 = TD[0][(s2 >> 24) as usize]
                ^ TD[1][((s1 >> 16) & 0xff) as usize]
                ^ TD[2][((s0 >> 8) & 0xff) as usize]
                ^ TD[3][(s3 & 0xff) as usize]
                ^ rk[i + 2];
            let t3 = TD[0][(s3 >> 24) as usize]
                ^ TD[1][((s2 >> 16) & 0xff) as usize]
                ^ TD[2][((s1 >> 8) & 0xff) as usize]
                ^ TD[3][(s0 & 0xff) as usize]
                ^ rk[i + 3];
            (s0, s1, s2, s3) = (t0, t1, t2, t3);
            i += 4;
        }
        // Final round: InvSubBytes + InvShiftRows only.
        let t0 = inv_sub_shift(s0, s3, s2, s1) ^ rk[i];
        let t1 = inv_sub_shift(s1, s0, s3, s2) ^ rk[i + 1];
        let t2 = inv_sub_shift(s2, s1, s0, s3) ^ rk[i + 2];
        let t3 = inv_sub_shift(s3, s2, s1, s0) ^ rk[i + 3];
        block[0..4].copy_from_slice(&t0.to_be_bytes());
        block[4..8].copy_from_slice(&t1.to_be_bytes());
        block[8..12].copy_from_slice(&t2.to_be_bytes());
        block[12..16].copy_from_slice(&t3.to_be_bytes());
    }

    /// One block through the `AESENC` pipeline. AES-NI consumes the state
    /// and round keys in plain FIPS byte order, which is exactly how
    /// `enc_key_blocks` is laid out.
    ///
    /// # Safety
    ///
    /// The CPU must support the `aes` and `sse2` feature sets.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "aes,sse2")]
    unsafe fn encrypt_aesni(&self, block: &mut [u8; 16]) {
        use std::arch::x86_64::*;
        let rk = &self.enc_key_blocks;
        // SAFETY: the caller guarantees AES-NI + SSE2 (this fn's contract);
        // all loads/stores are unaligned (`_mm_loadu`/`_mm_storeu`) on
        // 16-byte sources, and `rk[self.rounds]` is in bounds because the
        // schedule holds `rounds + 1` blocks.
        unsafe {
            let mut state = _mm_loadu_si128(block.as_ptr() as *const __m128i);
            state = _mm_xor_si128(state, _mm_loadu_si128(rk[0].as_ptr() as *const __m128i));
            for key in rk.iter().take(self.rounds).skip(1) {
                state = _mm_aesenc_si128(state, _mm_loadu_si128(key.as_ptr() as *const __m128i));
            }
            state = _mm_aesenclast_si128(
                state,
                _mm_loadu_si128(rk[self.rounds].as_ptr() as *const __m128i),
            );
            _mm_storeu_si128(block.as_mut_ptr() as *mut __m128i, state);
        }
    }

    /// One block through the `AESDEC` pipeline. `AESDEC` wants the
    /// equivalent-inverse-cipher schedule (inner round keys through
    /// InvMixColumns) — the same `dec_key_blocks` the T-table path uses.
    ///
    /// # Safety
    ///
    /// The CPU must support the `aes` and `sse2` feature sets.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "aes,sse2")]
    unsafe fn decrypt_aesni(&self, block: &mut [u8; 16]) {
        use std::arch::x86_64::*;
        let rk = &self.dec_key_blocks;
        // SAFETY: same contract as `encrypt_aesni` — caller guarantees
        // AES-NI + SSE2, unaligned intrinsics throughout, and the decrypt
        // schedule also holds `rounds + 1` blocks.
        unsafe {
            let mut state = _mm_loadu_si128(block.as_ptr() as *const __m128i);
            state = _mm_xor_si128(state, _mm_loadu_si128(rk[0].as_ptr() as *const __m128i));
            for key in rk.iter().take(self.rounds).skip(1) {
                state = _mm_aesdec_si128(state, _mm_loadu_si128(key.as_ptr() as *const __m128i));
            }
            state = _mm_aesdeclast_si128(
                state,
                _mm_loadu_si128(rk[self.rounds].as_ptr() as *const __m128i),
            );
            _mm_storeu_si128(block.as_mut_ptr() as *mut __m128i, state);
        }
    }

    /// Encrypts a run of independent blocks: the AES-NI pipelined ladders
    /// when available, otherwise a plain loop over the T-table core.
    fn encrypt_many(&self, data: &mut [u8]) {
        assert!(data.len().is_multiple_of(16), "block run length {}", data.len());
        #[cfg(target_arch = "x86_64")]
        if self.use_aesni {
            // SAFETY: `use_aesni` is only set when the CPU reports AES-NI
            // and SSE2 support at runtime.
            unsafe { self.encrypt_blocks_aesni(data) };
            return;
        }
        for chunk in data.chunks_exact_mut(16) {
            self.encrypt(chunk.try_into().expect("exact chunk"));
        }
    }

    /// Inverse of [`AesCore::encrypt_many`], same backend dispatch.
    fn decrypt_many(&self, data: &mut [u8]) {
        assert!(data.len().is_multiple_of(16), "block run length {}", data.len());
        #[cfg(target_arch = "x86_64")]
        if self.use_aesni {
            // SAFETY: `use_aesni` is only set when the CPU reports AES-NI
            // and SSE2 support at runtime.
            unsafe { self.decrypt_blocks_aesni(data) };
            return;
        }
        for chunk in data.chunks_exact_mut(16) {
            self.decrypt(chunk.try_into().expect("exact chunk"));
        }
    }

    /// A run of blocks through interleaved `AESENC` ladders: 8 independent
    /// `__m128i` states per round-key load while the run is deep enough,
    /// then 4, then the single-block path for the ragged tail. `AESENC`
    /// retires one op per cycle but takes ~4 cycles to produce its result,
    /// so the single-block ladder is latency-bound; with 8 states in
    /// flight every cycle issues a useful round and throughput approaches
    /// the unit's ceiling (~4x measured on one core).
    ///
    /// # Safety
    ///
    /// The CPU must support the `aes` and `sse2` feature sets.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "aes,sse2")]
    unsafe fn encrypt_blocks_aesni(&self, data: &mut [u8]) {
        use std::arch::x86_64::*;
        let keys = load_round_keys(&self.enc_key_blocks);
        // SAFETY: caller guarantees AES-NI + SSE2 (this fn's contract).
        // `keys[..=rounds]` is in bounds because the schedule holds
        // `rounds + 1` blocks; every pointer passed to the lane helpers
        // addresses a full `LANES * 16`-byte sub-slice of `data` (the
        // offset loops subtract before comparing, so `off + width <= len`),
        // and all loads/stores are unaligned intrinsics.
        unsafe {
            let mut off = 0usize;
            while data.len() - off >= 8 * 16 {
                enc_lanes::<8>(&keys, self.rounds, data.as_mut_ptr().add(off) as *mut __m128i);
                off += 8 * 16;
            }
            while data.len() - off >= 4 * 16 {
                enc_lanes::<4>(&keys, self.rounds, data.as_mut_ptr().add(off) as *mut __m128i);
                off += 4 * 16;
            }
            while off < data.len() {
                let block: &mut [u8; 16] =
                    (&mut data[off..off + 16]).try_into().expect("exact block");
                self.encrypt_aesni(block);
                off += 16;
            }
        }
    }

    /// Inverse of [`AesCore::encrypt_blocks_aesni`]: the same 8x/4x/1x
    /// interleaving over `AESDEC` with the equivalent-inverse-cipher
    /// schedule.
    ///
    /// # Safety
    ///
    /// The CPU must support the `aes` and `sse2` feature sets.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "aes,sse2")]
    unsafe fn decrypt_blocks_aesni(&self, data: &mut [u8]) {
        use std::arch::x86_64::*;
        let keys = load_round_keys(&self.dec_key_blocks);
        // SAFETY: same contract and bounds argument as
        // `encrypt_blocks_aesni`, over the decrypt schedule.
        unsafe {
            let mut off = 0usize;
            while data.len() - off >= 8 * 16 {
                dec_lanes::<8>(&keys, self.rounds, data.as_mut_ptr().add(off) as *mut __m128i);
                off += 8 * 16;
            }
            while data.len() - off >= 4 * 16 {
                dec_lanes::<4>(&keys, self.rounds, data.as_mut_ptr().add(off) as *mut __m128i);
                off += 4 * 16;
            }
            while off < data.len() {
                let block: &mut [u8; 16] =
                    (&mut data[off..off + 16]).try_into().expect("exact block");
                self.decrypt_aesni(block);
                off += 16;
            }
        }
    }

    /// CBC-encrypts `sectors.len()` chains through [`cbc_enc_lanes`],
    /// monomorphised per chain count so every count gets a fully unrolled
    /// ladder. The round keys load once for the whole call.
    ///
    /// # Safety
    ///
    /// The CPU must support the `aes` and `sse2` feature sets, and `ivs`
    /// and `sectors` must satisfy [`check_cbc_lanes`].
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "aes,sse2")]
    unsafe fn cbc_encrypt_aesni(&self, ivs: &[[u8; 16]], sectors: &mut [&mut [u8]]) {
        let keys = load_round_keys(&self.enc_key_blocks);
        let r = self.rounds;
        // SAFETY: the caller guarantees the feature set and the
        // `check_cbc_lanes` contract, so each arm hands its kernel exactly
        // `N == sectors.len() == ivs.len()` lanes of one shared length.
        unsafe {
            match sectors.len() {
                1 => cbc_enc_lanes::<1>(&keys, r, ivs, sectors),
                2 => cbc_enc_lanes::<2>(&keys, r, ivs, sectors),
                3 => cbc_enc_lanes::<3>(&keys, r, ivs, sectors),
                4 => cbc_enc_lanes::<4>(&keys, r, ivs, sectors),
                5 => cbc_enc_lanes::<5>(&keys, r, ivs, sectors),
                6 => cbc_enc_lanes::<6>(&keys, r, ivs, sectors),
                7 => cbc_enc_lanes::<7>(&keys, r, ivs, sectors),
                8 => cbc_enc_lanes::<8>(&keys, r, ivs, sectors),
                n => unreachable!("check_cbc_lanes admits 1..={CBC_LANES} chains, got {n}"),
            }
        }
    }
}

/// The 16-byte round-key blocks as `__m128i` values, loaded once per call
/// so the ladders below never reload a key per block.
#[cfg(target_arch = "x86_64")]
fn load_round_keys(src: &[[u8; 16]; MAX_RK_BLOCKS]) -> [std::arch::x86_64::__m128i; MAX_RK_BLOCKS] {
    use std::arch::x86_64::*;
    // SAFETY: SSE2 is part of the x86-64 baseline, `src[i]` is a 16-byte
    // array, and the load is unaligned.
    std::array::from_fn(|i| unsafe { _mm_loadu_si128(src[i].as_ptr() as *const __m128i) })
}

/// CBC-encrypts `N` equal-length chains in place: chain `i` starts from
/// `ivs[i]` and walks `sectors[i]` block by block. Each chain value stays
/// in an xmm register from the IV to the last block, and each plaintext
/// block's whitening `P ^ K0` does not depend on the chain, so the
/// loop-carried path per block is one XOR plus the round ladder. With
/// `N > 1` the `N` independent ladders interleave like [`enc_lanes`] and
/// hide `AESENC` latency. Plaintext loads from, and ciphertext stores to,
/// the caller's buffers directly.
///
/// # Safety
///
/// The CPU must support `aes` + `sse2`; `ivs` and `sectors` must each hold
/// exactly `N` entries, and every sector the same length, a multiple of 16
/// (what [`check_cbc_lanes`] asserts); `keys[..=rounds]` must hold the
/// expanded encryption schedule.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "aes,sse2")]
unsafe fn cbc_enc_lanes<const N: usize>(
    keys: &[std::arch::x86_64::__m128i; MAX_RK_BLOCKS],
    rounds: usize,
    ivs: &[[u8; 16]],
    sectors: &mut [&mut [u8]],
) {
    use std::arch::x86_64::*;
    let blocks = sectors[0].len() / 16;
    let mut p = [std::ptr::null_mut::<__m128i>(); N];
    let mut chain = [_mm_setzero_si128(); N];
    for (i, (ptr, lane)) in p.iter_mut().zip(chain.iter_mut()).enumerate() {
        *ptr = sectors[i].as_mut_ptr() as *mut __m128i;
        // SAFETY: `ivs[i]` is a 16-byte array and the load is unaligned.
        *lane = unsafe { _mm_loadu_si128(ivs[i].as_ptr() as *const __m128i) };
    }
    // SAFETY: the caller guarantees the feature set and that all `N`
    // sectors hold exactly `blocks` 16-byte blocks (the `check_cbc_lanes`
    // assert), so `p[i].add(b)` for `b < blocks` stays inside sector `i`.
    // The sectors are distinct `&mut` borrows, so no two lanes alias, and
    // every load and store is an unaligned intrinsic.
    unsafe {
        for b in 0..blocks {
            let mut s = [_mm_setzero_si128(); N];
            for ((state, ptr), lane) in s.iter_mut().zip(&p).zip(&chain) {
                let whitened = _mm_xor_si128(_mm_loadu_si128(ptr.add(b)), keys[0]);
                *state = _mm_xor_si128(whitened, *lane);
            }
            for key in keys.iter().take(rounds).skip(1) {
                for state in s.iter_mut() {
                    *state = _mm_aesenc_si128(*state, *key);
                }
            }
            for ((state, ptr), lane) in s.iter().zip(&p).zip(chain.iter_mut()) {
                *lane = _mm_aesenclast_si128(*state, keys[rounds]);
                _mm_storeu_si128(ptr.add(b), *lane);
            }
        }
    }
}

/// One interleaved `AESENC` ladder over `N` consecutive blocks at `p`:
/// all `N` states load, whiten and step through each round together, so
/// between a state's round `r` and its round `r + 1` the other `N - 1`
/// states issue — exactly the independent work that hides `AESENC`
/// latency. `N` is a compile-time constant, so the per-round inner loops
/// fully unroll and the states live in xmm registers.
///
/// # Safety
///
/// The CPU must support `aes` + `sse2`; `p` must be valid for reads and
/// writes of `N * 16` bytes (any alignment); `keys[..=rounds]` must hold
/// the expanded encryption schedule.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "aes,sse2")]
unsafe fn enc_lanes<const N: usize>(
    keys: &[std::arch::x86_64::__m128i; MAX_RK_BLOCKS],
    rounds: usize,
    p: *mut std::arch::x86_64::__m128i,
) {
    use std::arch::x86_64::*;
    // SAFETY: caller guarantees the feature set, that `p..p+N` is readable
    // and writable, and that `keys[..=rounds]` is initialised; `rounds`
    // never exceeds `MAX_RK_BLOCKS - 1` by construction of the schedule.
    unsafe {
        let mut s = [_mm_setzero_si128(); N];
        for (i, lane) in s.iter_mut().enumerate() {
            *lane = _mm_xor_si128(_mm_loadu_si128(p.add(i)), keys[0]);
        }
        for key in keys.iter().take(rounds).skip(1) {
            for lane in s.iter_mut() {
                *lane = _mm_aesenc_si128(*lane, *key);
            }
        }
        for (i, lane) in s.iter_mut().enumerate() {
            *lane = _mm_aesenclast_si128(*lane, keys[rounds]);
            _mm_storeu_si128(p.add(i), *lane);
        }
    }
}

/// [`enc_lanes`] over `AESDEC`/`AESDECLAST` with the decrypt schedule;
/// same interleaving, same contract.
///
/// # Safety
///
/// The CPU must support `aes` + `sse2`; `p` must be valid for reads and
/// writes of `N * 16` bytes (any alignment); `keys[..=rounds]` must hold
/// the equivalent-inverse-cipher schedule.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "aes,sse2")]
unsafe fn dec_lanes<const N: usize>(
    keys: &[std::arch::x86_64::__m128i; MAX_RK_BLOCKS],
    rounds: usize,
    p: *mut std::arch::x86_64::__m128i,
) {
    use std::arch::x86_64::*;
    // SAFETY: caller guarantees the feature set, pointer validity for
    // `N * 16` bytes and an initialised decrypt schedule (see `enc_lanes`).
    unsafe {
        let mut s = [_mm_setzero_si128(); N];
        for (i, lane) in s.iter_mut().enumerate() {
            *lane = _mm_xor_si128(_mm_loadu_si128(p.add(i)), keys[0]);
        }
        for key in keys.iter().take(rounds).skip(1) {
            for lane in s.iter_mut() {
                *lane = _mm_aesdec_si128(*lane, *key);
            }
        }
        for (i, lane) in s.iter_mut().enumerate() {
            *lane = _mm_aesdeclast_si128(*lane, keys[rounds]);
            _mm_storeu_si128(p.add(i), *lane);
        }
    }
}

/// Whether the host CPU offers AES-NI (checked once per key schedule; the
/// result also decides which backend the equivalence property tests pin
/// against the reference core on a given host).
#[cfg(target_arch = "x86_64")]
fn aesni_available() -> bool {
    std::arch::is_x86_feature_detected!("aes") && std::arch::is_x86_feature_detected!("sse2")
}

#[cfg(not(target_arch = "x86_64"))]
fn aesni_available() -> bool {
    false
}

/// Assembles one final-round word from the four state words feeding it:
/// `S[a₂₄] ‖ S[b₁₆] ‖ S[c₈] ‖ S[d₀]` (ShiftRows selects a,b,c,d).
#[inline]
fn sub_shift(a: u32, b: u32, c: u32, d: u32) -> u32 {
    ((SBOX[(a >> 24) as usize] as u32) << 24)
        | ((SBOX[((b >> 16) & 0xff) as usize] as u32) << 16)
        | ((SBOX[((c >> 8) & 0xff) as usize] as u32) << 8)
        | (SBOX[(d & 0xff) as usize] as u32)
}

/// [`sub_shift`] with the inverse S-box (InvShiftRows column selection is
/// done by the caller's argument order).
#[inline]
fn inv_sub_shift(a: u32, b: u32, c: u32, d: u32) -> u32 {
    ((INV_SBOX[(a >> 24) as usize] as u32) << 24)
        | ((INV_SBOX[((b >> 16) & 0xff) as usize] as u32) << 16)
        | ((INV_SBOX[((c >> 8) & 0xff) as usize] as u32) << 8)
        | (INV_SBOX[(d & 0xff) as usize] as u32)
}

macro_rules! aes_variant {
    ($(#[$doc:meta])* $name:ident, $key_len:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone)]
        pub struct $name {
            core: AesCore,
        }

        impl $name {
            /// Expands `key` into round keys.
            pub fn new(key: &[u8; $key_len]) -> Self {
                $name { core: AesCore::new(key) }
            }

            /// Expands a key provided as a slice.
            ///
            /// # Panics
            ///
            /// Panics if `key.len() !=` the variant's key length.
            pub fn from_slice(key: &[u8]) -> Self {
                assert_eq!(key.len(), $key_len, "wrong key length for {}", stringify!($name));
                $name { core: AesCore::new(key) }
            }

            /// Pins this instance to the portable T-table backend even on
            /// AES-NI hosts. Output is bit-identical either way; tests and
            /// benches use this to keep the software path covered (and
            /// measured) on hardware hosts.
            #[doc(hidden)]
            pub fn force_software(&mut self) {
                self.core.use_aesni = false;
            }
        }

        impl BlockCipher for $name {
            fn encrypt_block(&self, block: &mut [u8; AES_BLOCK_SIZE]) {
                self.core.encrypt(block);
            }

            fn decrypt_block(&self, block: &mut [u8; AES_BLOCK_SIZE]) {
                self.core.decrypt(block);
            }

            fn encrypt_blocks(&self, data: &mut [u8]) {
                self.core.encrypt_many(data);
            }

            fn decrypt_blocks(&self, data: &mut [u8]) {
                self.core.decrypt_many(data);
            }

            fn cbc_encrypt_lanes(
                &self,
                ivs: &[[u8; AES_BLOCK_SIZE]],
                sectors: &mut [&mut [u8]],
            ) {
                #[cfg(target_arch = "x86_64")]
                if self.core.use_aesni {
                    check_cbc_lanes(ivs, sectors);
                    // SAFETY: `use_aesni` is only set when the CPU reports
                    // AES-NI and SSE2 support at runtime, and the
                    // `check_cbc_lanes` assert just above guarantees the
                    // kernel's lane contract.
                    unsafe { self.core.cbc_encrypt_aesni(ivs, sectors) };
                    return;
                }
                cbc_encrypt_lanes_portable(self, ivs, sectors);
            }

            fn key_len(&self) -> usize {
                self.core.key_len
            }
        }
    };
}

aes_variant!(
    /// AES with a 128-bit key.
    ///
    /// # Example
    ///
    /// ```
    /// use mobiceal_crypto::{Aes128, BlockCipher};
    ///
    /// let aes = Aes128::new(&[0u8; 16]);
    /// let mut block = *b"sixteen byte msg";
    /// let orig = block;
    /// aes.encrypt_block(&mut block);
    /// aes.decrypt_block(&mut block);
    /// assert_eq!(block, orig);
    /// ```
    Aes128,
    16
);
aes_variant!(
    /// AES with a 192-bit key.
    Aes192,
    24
);
aes_variant!(
    /// AES with a 256-bit key (the dm-crypt default in Android FDE).
    Aes256,
    32
);

pub mod reference {
    //! The original byte-wise AES core, kept as an executable specification.
    //!
    //! This is the straight-from-FIPS-197 formulation: per-byte SubBytes,
    //! explicit ShiftRows permutation, and `gf_mul` inside MixColumns on
    //! every block. It is one to two orders of magnitude slower than the
    //! T-table core in the parent module, and exists so that
    //!
    //! * property tests can pin the fast core to it over random
    //!   keys/blocks, and
    //! * the `crypto_throughput` bench can report the measured speedup.

    use super::{gf_mul, BlockCipher, AES_BLOCK_SIZE, INV_SBOX, RCON, SBOX};

    /// Byte-wise AES for any standard key size (16, 24 or 32 bytes).
    ///
    /// # Panics
    ///
    /// [`ReferenceAes::new`] panics on a non-standard key length.
    #[derive(Debug, Clone)]
    pub struct ReferenceAes {
        round_keys: Vec<[u8; 16]>,
        key_len: usize,
    }

    impl ReferenceAes {
        /// Expands `key` (16/24/32 bytes) with the byte-wise key schedule.
        pub fn new(key: &[u8]) -> Self {
            let nk = key.len() / 4;
            let nr = nk + 6;
            assert!(matches!(key.len(), 16 | 24 | 32), "AES key must be 16, 24 or 32 bytes");
            let total_words = 4 * (nr + 1);
            let mut w: Vec<[u8; 4]> = Vec::with_capacity(total_words);
            for i in 0..nk {
                w.push([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
            }
            for i in nk..total_words {
                let mut temp = w[i - 1];
                if i % nk == 0 {
                    temp = [
                        SBOX[temp[1] as usize] ^ RCON[i / nk - 1],
                        SBOX[temp[2] as usize],
                        SBOX[temp[3] as usize],
                        SBOX[temp[0] as usize],
                    ];
                } else if nk > 6 && i % nk == 4 {
                    temp = [
                        SBOX[temp[0] as usize],
                        SBOX[temp[1] as usize],
                        SBOX[temp[2] as usize],
                        SBOX[temp[3] as usize],
                    ];
                }
                let prev = w[i - nk];
                w.push([
                    prev[0] ^ temp[0],
                    prev[1] ^ temp[1],
                    prev[2] ^ temp[2],
                    prev[3] ^ temp[3],
                ]);
            }
            let round_keys = w
                .chunks(4)
                .map(|c| {
                    let mut rk = [0u8; 16];
                    for (i, word) in c.iter().enumerate() {
                        rk[4 * i..4 * i + 4].copy_from_slice(word);
                    }
                    rk
                })
                .collect();
            ReferenceAes { round_keys, key_len: key.len() }
        }

        fn rounds(&self) -> usize {
            self.round_keys.len() - 1
        }

        fn encrypt(&self, state: &mut [u8; 16]) {
            add_round_key(state, &self.round_keys[0]);
            for round in 1..self.rounds() {
                sub_bytes(state);
                shift_rows(state);
                mix_columns(state);
                add_round_key(state, &self.round_keys[round]);
            }
            sub_bytes(state);
            shift_rows(state);
            add_round_key(state, &self.round_keys[self.rounds()]);
        }

        fn decrypt(&self, state: &mut [u8; 16]) {
            add_round_key(state, &self.round_keys[self.rounds()]);
            for round in (1..self.rounds()).rev() {
                inv_shift_rows(state);
                inv_sub_bytes(state);
                add_round_key(state, &self.round_keys[round]);
                inv_mix_columns(state);
            }
            inv_shift_rows(state);
            inv_sub_bytes(state);
            add_round_key(state, &self.round_keys[0]);
        }
    }

    impl BlockCipher for ReferenceAes {
        fn encrypt_block(&self, block: &mut [u8; AES_BLOCK_SIZE]) {
            self.encrypt(block);
        }

        fn decrypt_block(&self, block: &mut [u8; AES_BLOCK_SIZE]) {
            self.decrypt(block);
        }

        fn key_len(&self) -> usize {
            self.key_len
        }
    }

    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for i in 0..16 {
            state[i] ^= rk[i];
        }
    }

    fn sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    fn inv_sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = INV_SBOX[*b as usize];
        }
    }

    // State layout: state[r + 4c] is row r, column c (column-major, FIPS 197).
    fn shift_rows(state: &mut [u8; 16]) {
        for r in 1..4 {
            let mut row = [0u8; 4];
            for c in 0..4 {
                row[c] = state[r + 4 * ((c + r) % 4)];
            }
            for c in 0..4 {
                state[r + 4 * c] = row[c];
            }
        }
    }

    fn inv_shift_rows(state: &mut [u8; 16]) {
        for r in 1..4 {
            let mut row = [0u8; 4];
            for c in 0..4 {
                row[c] = state[r + 4 * ((c + 4 - r) % 4)];
            }
            for c in 0..4 {
                state[r + 4 * c] = row[c];
            }
        }
    }

    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [state[4 * c], state[4 * c + 1], state[4 * c + 2], state[4 * c + 3]];
            state[4 * c] = gf_mul(col[0], 2) ^ gf_mul(col[1], 3) ^ col[2] ^ col[3];
            state[4 * c + 1] = col[0] ^ gf_mul(col[1], 2) ^ gf_mul(col[2], 3) ^ col[3];
            state[4 * c + 2] = col[0] ^ col[1] ^ gf_mul(col[2], 2) ^ gf_mul(col[3], 3);
            state[4 * c + 3] = gf_mul(col[0], 3) ^ col[1] ^ col[2] ^ gf_mul(col[3], 2);
        }
    }

    fn inv_mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [state[4 * c], state[4 * c + 1], state[4 * c + 2], state[4 * c + 3]];
            state[4 * c] =
                gf_mul(col[0], 14) ^ gf_mul(col[1], 11) ^ gf_mul(col[2], 13) ^ gf_mul(col[3], 9);
            state[4 * c + 1] =
                gf_mul(col[0], 9) ^ gf_mul(col[1], 14) ^ gf_mul(col[2], 11) ^ gf_mul(col[3], 13);
            state[4 * c + 2] =
                gf_mul(col[0], 13) ^ gf_mul(col[1], 9) ^ gf_mul(col[2], 14) ^ gf_mul(col[3], 11);
            state[4 * c + 3] =
                gf_mul(col[0], 11) ^ gf_mul(col[1], 13) ^ gf_mul(col[2], 9) ^ gf_mul(col[3], 14);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::ReferenceAes;
    use super::*;
    use crate::util::{from_hex, to_hex};

    #[test]
    fn sbox_known_entries() {
        // Spot-check against FIPS 197 Figure 7.
        assert_eq!(SBOX[0x00], 0x63);
        assert_eq!(SBOX[0x01], 0x7c);
        assert_eq!(SBOX[0x53], 0xed);
        assert_eq!(SBOX[0xff], 0x16);
        assert_eq!(INV_SBOX[0x63], 0x00);
        assert_eq!(INV_SBOX[0xed], 0x53);
    }

    #[test]
    fn sbox_is_a_permutation() {
        let mut seen = [false; 256];
        for &v in SBOX.iter() {
            assert!(!seen[v as usize]);
            seen[v as usize] = true;
        }
    }

    #[test]
    fn t_tables_are_consistent_rotations() {
        for x in 0..256usize {
            for k in 1..4 {
                assert_eq!(TE[k][x], TE[0][x].rotate_right(8 * k as u32));
                assert_eq!(TD[k][x], TD[0][x].rotate_right(8 * k as u32));
            }
            // Column structure: TE[0] packs (2s, s, s, 3s) of S[x].
            let s = SBOX[x];
            let b = TE[0][x].to_be_bytes();
            assert_eq!(b, [gf_mul(s, 2), s, s, gf_mul(s, 3)]);
            let si = INV_SBOX[x];
            let b = TD[0][x].to_be_bytes();
            assert_eq!(b, [gf_mul(si, 14), gf_mul(si, 9), gf_mul(si, 13), gf_mul(si, 11)]);
        }
    }

    fn check_vector(key_hex: &str, pt_hex: &str, ct_hex: &str) {
        let key = from_hex(key_hex).unwrap();
        let pt = from_hex(pt_hex).unwrap();
        let mut block = [0u8; 16];
        block.copy_from_slice(&pt);
        let cipher: Box<dyn BlockCipher> = match key.len() {
            16 => Box::new(Aes128::from_slice(&key)),
            24 => Box::new(Aes192::from_slice(&key)),
            32 => Box::new(Aes256::from_slice(&key)),
            _ => unreachable!(),
        };
        cipher.encrypt_block(&mut block);
        assert_eq!(to_hex(&block), ct_hex);
        cipher.decrypt_block(&mut block);
        assert_eq!(to_hex(&block), pt_hex);
        // The byte-wise reference must agree on the same vector.
        let reference = ReferenceAes::new(&key);
        reference.encrypt_block(&mut block);
        assert_eq!(to_hex(&block), ct_hex);
        reference.decrypt_block(&mut block);
        assert_eq!(to_hex(&block), pt_hex);
    }

    #[test]
    fn fips197_aes128_example() {
        check_vector(
            "000102030405060708090a0b0c0d0e0f",
            "00112233445566778899aabbccddeeff",
            "69c4e0d86a7b0430d8cdb78070b4c55a",
        );
    }

    #[test]
    fn fips197_aes192_example() {
        check_vector(
            "000102030405060708090a0b0c0d0e0f1011121314151617",
            "00112233445566778899aabbccddeeff",
            "dda97ca4864cdfe06eaf70a0ec0d7191",
        );
    }

    #[test]
    fn fips197_aes256_example() {
        check_vector(
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
            "00112233445566778899aabbccddeeff",
            "8ea2b7ca516745bfeafc49904b496089",
        );
    }

    #[test]
    fn fips197_appendix_b_aes128() {
        check_vector(
            "2b7e151628aed2a6abf7158809cf4f3c",
            "3243f6a8885a308d313198a2e0370734",
            "3925841d02dc09fbdc118597196a0b32",
        );
    }

    #[test]
    fn roundtrip_random_blocks_all_variants() {
        let mut x: u64 = 0x12345;
        let mut next = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 24) as u8
        };
        for _ in 0..50 {
            let mut key32 = [0u8; 32];
            key32.iter_mut().for_each(|b| *b = next());
            let mut block = [0u8; 16];
            block.iter_mut().for_each(|b| *b = next());
            let orig = block;
            for cipher in [
                Box::new(Aes128::from_slice(&key32[..16])) as Box<dyn BlockCipher>,
                Box::new(Aes192::from_slice(&key32[..24])),
                Box::new(Aes256::from_slice(&key32)),
            ] {
                let mut b = block;
                cipher.encrypt_block(&mut b);
                assert_ne!(b, orig);
                cipher.decrypt_block(&mut b);
                assert_eq!(b, orig);
            }
        }
    }

    #[test]
    fn t_table_core_matches_reference_core() {
        // Deterministic random keys/blocks across all three key sizes: the
        // fast core and the byte-wise specification must agree bit-for-bit
        // in both directions. (The proptest suite covers this too; this is
        // the quick in-crate pin.)
        let mut x: u64 = 0xfeed_beef;
        let mut next = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 24) as u8
        };
        for round in 0..100 {
            let mut key32 = [0u8; 32];
            key32.iter_mut().for_each(|b| *b = next());
            let mut block = [0u8; 16];
            block.iter_mut().for_each(|b| *b = next());
            let key_len = [16, 24, 32][round % 3];
            let key = &key32[..key_len];
            let fast: Box<dyn BlockCipher> = match key_len {
                16 => Box::new(Aes128::from_slice(key)),
                24 => Box::new(Aes192::from_slice(key)),
                _ => Box::new(Aes256::from_slice(key)),
            };
            let reference = ReferenceAes::new(key);
            let mut a = block;
            let mut b = block;
            fast.encrypt_block(&mut a);
            reference.encrypt_block(&mut b);
            assert_eq!(a, b, "encrypt mismatch, key_len {key_len}");
            fast.decrypt_block(&mut a);
            reference.decrypt_block(&mut b);
            assert_eq!(a, b, "decrypt mismatch, key_len {key_len}");
            assert_eq!(a, block, "roundtrip");
        }
    }

    #[test]
    fn both_backends_match_reference() {
        // On AES-NI hosts the public ciphers dispatch to the hardware
        // path, so pin the T-table path explicitly by clearing the flag —
        // both backends must match the byte-wise specification on every
        // host, whichever one the dispatch would pick.
        let mut x: u64 = 0x0ddba11;
        let mut next = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 24) as u8
        };
        for round in 0..60 {
            let mut key32 = [0u8; 32];
            key32.iter_mut().for_each(|b| *b = next());
            let mut block = [0u8; 16];
            block.iter_mut().for_each(|b| *b = next());
            let key = &key32[..[16, 24, 32][round % 3]];
            let reference = ReferenceAes::new(key);
            let mut expect_ct = block;
            reference.encrypt_block(&mut expect_ct);
            for force_soft in [false, true] {
                let mut core = AesCore::new(key);
                if force_soft {
                    core.use_aesni = false;
                }
                let mut b = block;
                core.encrypt(&mut b);
                assert_eq!(b, expect_ct, "encrypt (forced soft: {force_soft})");
                core.decrypt(&mut b);
                assert_eq!(b, block, "decrypt (forced soft: {force_soft})");
            }
        }
    }

    #[test]
    fn wide_lanes_match_single_block_at_every_depth() {
        // Runs of 0..=20 blocks cover the 8-wide ladder, the 4-wide ladder,
        // the single-block tail and every ragged combination (e.g. 13 =
        // 8 + 4 + 1). Both backends must agree with a per-block loop.
        let mut x: u64 = 0xabcdef;
        let mut next = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 24) as u8
        };
        for blocks in 0..=20usize {
            let mut key32 = [0u8; 32];
            key32.iter_mut().for_each(|b| *b = next());
            let mut data = vec![0u8; blocks * 16];
            data.iter_mut().for_each(|b| *b = next());
            for key_len in [16usize, 24, 32] {
                for force_soft in [false, true] {
                    let mut core = AesCore::new(&key32[..key_len]);
                    if force_soft {
                        core.use_aesni = false;
                    }
                    let mut expect = data.clone();
                    for chunk in expect.chunks_exact_mut(16) {
                        core.encrypt(chunk.try_into().unwrap());
                    }
                    let mut wide = data.clone();
                    core.encrypt_many(&mut wide);
                    assert_eq!(wide, expect, "encrypt: {blocks} blocks, soft {force_soft}");
                    core.decrypt_many(&mut wide);
                    assert_eq!(wide, data, "decrypt inverts: {blocks} blocks");
                }
            }
        }
    }

    #[test]
    fn trait_wide_entry_points_dispatch_to_the_ladders() {
        let cipher = Aes256::new(&[0x41u8; 32]);
        let mut soft = Aes256::new(&[0x41u8; 32]);
        soft.force_software();
        let data: Vec<u8> = (0..13 * 16).map(|i| (i % 251) as u8).collect();
        let mut a = data.clone();
        cipher.encrypt_blocks(&mut a);
        let mut b = data.clone();
        soft.encrypt_blocks(&mut b);
        let mut c = data.clone();
        for chunk in c.chunks_exact_mut(16) {
            cipher.encrypt_block(chunk.try_into().unwrap());
        }
        assert_eq!(a, b, "hardware and forced-software wide paths agree");
        assert_eq!(a, c, "wide path agrees with the single-block trait path");
        cipher.decrypt_blocks(&mut a);
        assert_eq!(a, data);
        soft.decrypt_blocks(&mut b);
        assert_eq!(b, data);
    }

    #[test]
    #[should_panic(expected = "block run length")]
    fn wide_lanes_reject_ragged_bytes() {
        let cipher = Aes128::new(&[0u8; 16]);
        let mut data = vec![0u8; 24];
        cipher.encrypt_blocks(&mut data);
    }

    /// The AES-NI dispatch (T-tables on hosts without it), the
    /// forced-software AES and the byte-wise reference core for one key.
    fn cbc_backends(key: &[u8]) -> [Box<dyn BlockCipher>; 3] {
        macro_rules! hw_and_soft {
            ($aes:ty) => {{
                let mut soft = <$aes>::from_slice(key);
                soft.force_software();
                [Box::new(<$aes>::from_slice(key)) as Box<dyn BlockCipher>, Box::new(soft)]
            }};
        }
        let [hw, soft] = match key.len() {
            16 => hw_and_soft!(Aes128),
            24 => hw_and_soft!(Aes192),
            _ => hw_and_soft!(Aes256),
        };
        [hw, soft, Box::new(ReferenceAes::new(key))]
    }

    /// Runs `cbc_encrypt_lanes` over `data.len()` chains and returns them.
    fn cbc_lanes(cipher: &dyn BlockCipher, ivs: &[[u8; 16]], data: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let mut out = data.to_vec();
        let mut lanes: Vec<&mut [u8]> = out.iter_mut().map(|d| d.as_mut_slice()).collect();
        cipher.cbc_encrypt_lanes(ivs, &mut lanes);
        out
    }

    #[test]
    fn sp800_38a_cbc_encrypt_vectors() {
        // NIST SP 800-38A Appendix F.2.1 / F.2.3 / F.2.5 (CBC-AES128/192/
        // 256.Encrypt): four chained blocks from one IV, as one chain and
        // as eight identical chains, on every backend.
        let iv: [u8; 16] =
            from_hex("000102030405060708090a0b0c0d0e0f").unwrap().try_into().unwrap();
        let pt = from_hex(
            "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51\
             30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710",
        )
        .unwrap();
        let vectors = [
            (
                "2b7e151628aed2a6abf7158809cf4f3c",
                "7649abac8119b246cee98e9b12e9197d5086cb9b507219ee95db113a917678b2\
                 73bed6b8e3c1743b7116e69e222295163ff1caa1681fac09120eca307586e1a7",
            ),
            (
                "8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b",
                "4f021db243bc633d7178183a9fa071e8b4d9ada9ad7dedf4e5e738763f69145a\
                 571b242012fb7ae07fa9baac3df102e008b0e27988598881d920a9e64f5615cd",
            ),
            (
                "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
                "f58c4c04d6e5f1ba779eabfb5f7bfbd69cfc4e967edb808d679f777bc6702c7d\
                 39f23369a9d9bacfa530e26304231461b2eb05e2c39be9fcda6c19078c6a9d1b",
            ),
        ];
        for (key_hex, ct_hex) in vectors {
            let key = from_hex(key_hex).unwrap();
            for (b, cipher) in cbc_backends(&key).iter().enumerate() {
                for chains in [1usize, CBC_LANES] {
                    let out = cbc_lanes(&**cipher, &vec![iv; chains], &vec![pt.clone(); chains]);
                    for ct in &out {
                        assert_eq!(
                            to_hex(ct),
                            ct_hex,
                            "key {key_hex}, backend {b}, {chains} chains"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cbc_lanes_match_a_serial_chain_at_every_width() {
        // Every chain count 1..=8 (each its own unrolled AES-NI kernel) at
        // one-block, short and 512-byte lengths, against CBC written out
        // one `encrypt_block` at a time, on every backend and key size.
        let mut x: u64 = 0xc0ffee;
        let mut next = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 24) as u8
        };
        for key_len in [16usize, 24, 32] {
            let key: Vec<u8> = (0..key_len).map(|_| next()).collect();
            let backends = cbc_backends(&key);
            for chains in 1..=CBC_LANES {
                for len in [16usize, 48, 512] {
                    let ivs: Vec<[u8; 16]> =
                        (0..chains).map(|_| std::array::from_fn(|_| next())).collect();
                    let data: Vec<Vec<u8>> =
                        (0..chains).map(|_| (0..len).map(|_| next()).collect()).collect();
                    let mut expect = data.clone();
                    for (sector, iv) in expect.iter_mut().zip(&ivs) {
                        let mut prev = *iv;
                        for chunk in sector.chunks_exact_mut(16) {
                            let block: &mut [u8; 16] = chunk.try_into().unwrap();
                            block.iter_mut().zip(prev).for_each(|(b, p)| *b ^= p);
                            backends[2].encrypt_block(block);
                            prev = *block;
                        }
                    }
                    for (b, cipher) in backends.iter().enumerate() {
                        assert_eq!(
                            cbc_lanes(&**cipher, &ivs, &data),
                            expect,
                            "key_len {key_len}, {chains} chains of {len} B, backend {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "sector lengths differ")]
    fn cbc_lanes_reject_unequal_lengths() {
        let cipher = Aes256::new(&[3u8; 32]);
        let (mut a, mut b) = ([0u8; 64], [0u8; 48]);
        cipher.cbc_encrypt_lanes(&[[0u8; 16]; 2], &mut [&mut a[..], &mut b[..]]);
    }

    #[test]
    #[should_panic(expected = "sector lengths differ")]
    fn cbc_lanes_reject_unequal_lengths_in_the_portable_default() {
        let cipher = ReferenceAes::new(&[3u8; 32]);
        let (mut a, mut b) = ([0u8; 32], [0u8; 64]);
        cipher.cbc_encrypt_lanes(&[[0u8; 16]; 2], &mut [&mut a[..], &mut b[..]]);
    }

    #[test]
    #[should_panic(expected = "2 IVs for 1 sectors")]
    fn cbc_lanes_reject_an_iv_count_mismatch() {
        let cipher = Aes128::new(&[0u8; 16]);
        cipher.cbc_encrypt_lanes(&[[0u8; 16]; 2], &mut [&mut [0u8; 16][..]]);
    }

    #[test]
    #[should_panic(expected = "expected 1..=8")]
    fn cbc_lanes_reject_more_than_eight_chains() {
        let cipher = Aes128::new(&[0u8; 16]);
        let mut bufs = [[0u8; 16]; 9];
        let mut lanes: Vec<&mut [u8]> = bufs.iter_mut().map(|b| &mut b[..]).collect();
        cipher.cbc_encrypt_lanes(&[[0u8; 16]; 9], &mut lanes);
    }

    #[test]
    #[should_panic(expected = "wrong key length")]
    fn from_slice_rejects_bad_length() {
        let _ = Aes128::from_slice(&[0u8; 17]);
    }

    #[test]
    fn key_len_reported() {
        assert_eq!(Aes128::new(&[0; 16]).key_len(), 16);
        assert_eq!(Aes192::new(&[0; 24]).key_len(), 24);
        assert_eq!(Aes256::new(&[0; 32]).key_len(), 32);
        assert_eq!(ReferenceAes::new(&[0; 32]).key_len(), 32);
    }
}
