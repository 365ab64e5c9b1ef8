//! Sector encryption modes: CBC-ESSIV, the paper's dm-crypt mode, and XTS,
//! HIVE's.
//!
//! `dm-crypt` encrypts each 512-byte (or 4096-byte) sector independently so
//! that random block I/O stays random. Android 4.2's FDE used
//! `aes-cbc-essiv:sha256`, which `mobiceal-dm`'s crypt target runs; the
//! HIVE baseline encrypts its 4 KiB slots with XTS (IEEE 1619).
//!
//! Both modes feed the cipher through its wide entry points, with all
//! per-sector scratch on the stack so the sector paths stay
//! allocation-free:
//!
//! * **XTS** is independent per block in both directions once the tweak
//!   sequence is known, so each [`LANE_CHUNK`]-block chunk's tweaks are
//!   computed first with the serial shift/xor double, XORed in, run
//!   through [`BlockCipher::encrypt_blocks`] /
//!   [`BlockCipher::decrypt_blocks`], and XORed out.
//! * **CBC decrypt** has no chain — every block is `D(C_i) ^ C_{i-1}` over
//!   *ciphertexts that already exist* — so both decrypt entry points hand
//!   whole sectors to [`BlockCipher::cbc_decrypt_lanes`]. On AES-NI hosts
//!   that is one kernel that decrypts eight blocks at a time and XORs each
//!   with the previous ciphertext block held in a register, switching to
//!   the sector's ESSIV IV at each sector boundary; on VAES hosts the same
//!   kernel shape runs on zmm registers, a whole 512-byte sector (32
//!   blocks, four per register) per ladder.
//! * **CBC encrypt** chains within a sector: block `i`'s input includes
//!   block `i - 1`'s *output*, so one sector's blocks cannot overlap, but
//!   every sector has its own ESSIV IV and its own chain. Both encrypt
//!   entry points hand whole chains to [`BlockCipher::cbc_encrypt_lanes`].
//!   On AES-NI hosts that is one kernel keeping the round keys and every
//!   chain value in registers, one chain per xmm register; on VAES hosts
//!   2..=8 chains share two zmm registers, four chains per `VAESENC`.
//!
//! A lone sector is one lane. The CBC-ESSIV batch entry points
//! ([`SectorCipher::encrypt_sectors_in_place`] /
//! [`SectorCipher::decrypt_sectors_in_place`]) take runs of up to 8
//! equal-length sectors, derive their ESSIV IVs in one wide
//! `encrypt_blocks` call, and run them through one lanes call, so dm-crypt's
//! eight 512-byte sectors of a 4 KiB block fill the AES pipeline together.

use crate::aes::{BlockCipher, AES_BLOCK_SIZE, CBC_LANES, LANE_CHUNK};
use crate::sha256::sha256;

/// Sectors whose ESSIV IVs one wide `encrypt_blocks` call derives, and the
/// most CBC lanes one kernel call takes: one pass of the 8-wide AES ladder.
const SECTOR_GROUP: usize = CBC_LANES;

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
    /// entry point the dm layer feeds its sectors through, eight at a time,
    /// so a mode can run a group's sectors side by side (the default is
    /// the per-sector loop). Jobs are independent sectors; order does not
    /// matter.
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

    /// CBC-encrypts (or decrypts) 1..=8 equal-length sectors side by
    /// side: all their ESSIV IVs come out of one wide call, then one
    /// [`BlockCipher::cbc_encrypt_lanes`] (or
    /// [`BlockCipher::cbc_decrypt_lanes`]) call runs every sector. The IVs
    /// and the lane slices live in stack arrays, so a group costs no heap
    /// allocation.
    fn crypt_group(&self, group: &mut [(u64, &mut [u8])], encrypt: bool) {
        let mut ivs = [[0u8; AES_BLOCK_SIZE]; SECTOR_GROUP];
        let ivs = &mut ivs[..group.len()];
        for (iv, (index, _)) in ivs.iter_mut().zip(group.iter()) {
            iv[..8].copy_from_slice(&index.to_le_bytes());
        }
        self.iv_cipher.encrypt_blocks(ivs.as_flattened_mut());
        let mut lanes: [&mut [u8]; SECTOR_GROUP] = Default::default();
        for (lane, (_, buf)) in lanes.iter_mut().zip(group.iter_mut()) {
            *lane = buf;
        }
        let lanes = &mut lanes[..ivs.len()];
        if encrypt {
            self.data_cipher.cbc_encrypt_lanes(ivs, lanes);
        } else {
            self.data_cipher.cbc_decrypt_lanes(ivs, lanes);
        }
    }

    /// Splits `jobs` into runs of up to 8 consecutive equal-length sectors
    /// and hands each to [`CbcEssiv::crypt_group`]. A length the mode
    /// rejects panics before its run is touched.
    fn crypt_runs(&self, jobs: &mut [(u64, &mut [u8])], encrypt: bool) {
        let mut rest = jobs;
        while let Some((_, head)) = rest.first() {
            let len = head.len();
            check_len(len);
            let run =
                rest.iter().take(SECTOR_GROUP).take_while(|(_, buf)| buf.len() == len).count();
            let (group, tail) = std::mem::take(&mut rest).split_at_mut(run);
            self.crypt_group(group, encrypt);
            rest = tail;
        }
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

    // Sectors chain independently, so runs of up to 8 consecutive
    // equal-length sectors share one `cbc_encrypt_lanes` call whose chains
    // interleave through the AES pipeline.
    fn encrypt_sectors_in_place(&self, jobs: &mut [(u64, &mut [u8])]) {
        self.crypt_runs(jobs, true);
    }

    // CBC decrypt, unlike encrypt, has no chain: every output is
    // `D(C_i) ^ C_{i-1}` over ciphertexts that all exist up front, so a
    // lone sector is one `cbc_decrypt_lanes` lane whose blocks all overlap.
    fn decrypt_sector_in_place(&self, sector_index: u64, sector_data: &mut [u8]) {
        check_len(sector_data.len());
        self.data_cipher.cbc_decrypt_lanes(&[self.iv_for(sector_index)], &mut [sector_data]);
    }

    // The mirror of the encrypt batch: runs of up to 8 equal-length
    // sectors, their IVs from one wide call, one `cbc_decrypt_lanes` call.
    fn decrypt_sectors_in_place(&self, jobs: &mut [(u64, &mut [u8])]) {
        self.crypt_runs(jobs, false);
    }
}

impl<C: BlockCipher> std::fmt::Debug for CbcEssiv<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CbcEssiv").finish_non_exhaustive()
    }
}

/// XTS mode (IEEE 1619-2007), the `aes-xts-plain64` dm-crypt mode and the
/// cipher of the HIVE baseline's slots.
///
/// Uses two independent keys: one for data, one for the tweak. Both
/// directions compute each chunk's tweak sequence with the serial
/// shift/xor double and drive the data cipher through the wide-lane entry
/// points. The batch entry points are the trait's per-sector loop.
pub struct Xts<C: BlockCipher> {
    data_cipher: C,
    tweak_cipher: C,
}

impl<C: BlockCipher> Xts<C> {
    /// Creates an XTS cipher from the data-key cipher and tweak-key cipher.
    pub fn new(data_cipher: C, tweak_cipher: C) -> Self {
        Xts { data_cipher, tweak_cipher }
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

    /// XTS over one sector: the serial double carries the sector's
    /// encrypted initial tweak `t` on as `t · x^i` (little-endian u128
    /// view), one [`LANE_CHUNK`]-block chunk of tweaks at a time into a
    /// stack array, and each chunk is whitened, run through the wide lanes
    /// and whitened again.
    fn process_in_place(&self, sector_index: u64, data: &mut [u8], encrypt: bool) {
        check_len(data.len());
        let mut t = u128::from_le_bytes(self.initial_tweak(sector_index));
        let mut tweaks = [0u128; LANE_CHUNK];
        for chunk in data.chunks_mut(LANE_CHUNK * AES_BLOCK_SIZE) {
            let tweaks = &mut tweaks[..chunk.len() / AES_BLOCK_SIZE];
            for slot in tweaks.iter_mut() {
                *slot = t;
                t = Self::gf_double(t);
            }
            xor_tweaks(chunk, tweaks);
            if encrypt {
                self.data_cipher.encrypt_blocks(chunk);
            } else {
                self.data_cipher.decrypt_blocks(chunk);
            }
            xor_tweaks(chunk, tweaks);
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
    fn xts_known_answer_across_sector_numbers_and_lengths() {
        // Pins XTS's bytes at the tweak ladder's edges: sector numbers at
        // 0, the 32-bit boundary and the top of u64, and lengths of one to
        // three blocks, one 512-byte sector and one 4 KiB sector (four
        // 64-block chunks, each starting from the last tweak of the one
        // before). The digest was taken while `Xts` still had a PCLMULQDQ
        // tweak ladder, on a host that ran it, so the portable ladder is
        // pinned to the bytes that one produced.
        let xts = Xts::new(Aes256::new(&[0x3C; 32]), Aes256::new(&[0xC3; 32]));
        let plain: Vec<u8> = (0..4096).map(|i| (i * 31 % 251) as u8).collect();
        let mut all = Vec::new();
        for sector in [0, 1, (1 << 32) - 1, 1 << 32, u64::MAX] {
            for len in [16, 32, 48, 512, 4096] {
                let ct = xts.encrypt_sector(sector, &plain[..len]);
                assert_eq!(xts.decrypt_sector(sector, &ct), &plain[..len]);
                all.extend(ct);
            }
        }
        assert_eq!(
            to_hex(&crate::sha256::sha256(&all)),
            "064fd844c773a5d45bf9175789af533e331e918478c70bad48ea5ab0a8f603ce"
        );
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

    /// Runs `jobs` through `encrypt_sectors_in_place` (or
    /// `decrypt_sectors_in_place`), asserts every sector equals the
    /// per-sector `encrypt_sector` (or `decrypt_sector`), and returns the
    /// outputs.
    fn batch_matches_per_sector(
        cipher: &dyn SectorCipher,
        jobs: &[(u64, Vec<u8>)],
        encrypt: bool,
    ) -> Vec<Vec<u8>> {
        let expect: Vec<Vec<u8>> =
            jobs.iter()
                .map(|(s, d)| {
                    if encrypt {
                        cipher.encrypt_sector(*s, d)
                    } else {
                        cipher.decrypt_sector(*s, d)
                    }
                })
                .collect();
        let mut got: Vec<Vec<u8>> = jobs.iter().map(|(_, d)| d.clone()).collect();
        let mut batch: Vec<(u64, &mut [u8])> =
            jobs.iter().zip(got.iter_mut()).map(|((s, _), d)| (*s, d.as_mut_slice())).collect();
        if encrypt {
            cipher.encrypt_sectors_in_place(&mut batch);
        } else {
            cipher.decrypt_sectors_in_place(&mut batch);
        }
        for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
            assert_eq!(g, e, "job {i} of {}, encrypt {encrypt}: batch diverges", jobs.len());
        }
        got
    }

    /// `depth` sectors of `len` bytes at scattered indices.
    fn scattered_jobs(depth: usize, len: usize) -> Vec<(u64, Vec<u8>)> {
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
        // which must agree byte for byte, in both directions.
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
                let jobs = scattered_jobs(depth, 512);
                for encrypt in [true, false] {
                    let out = batch_matches_per_sector(&*hw, &jobs, encrypt);
                    assert_eq!(batch_matches_per_sector(&*soft, &jobs, encrypt), out);
                    assert_eq!(batch_matches_per_sector(&reference, &jobs, encrypt), out);
                }
            }
        }
    }

    #[test]
    fn xts_batch_matches_per_sector_at_every_depth() {
        // At depths 0..=24 and 64 the batch entry points must equal
        // per-sector calls in both directions, and the hardware lanes must
        // equal the forced-software lanes. A mixed-length batch shows the
        // sectors of a batch need not share a length.
        let hw = Xts::new(Aes256::new(&[3u8; 32]), Aes256::new(&[9u8; 32]));
        let soft = {
            let mut k1 = Aes256::new(&[3u8; 32]);
            let mut k2 = Aes256::new(&[9u8; 32]);
            k1.force_software();
            k2.force_software();
            Xts::new(k1, k2)
        };
        let mixed: Vec<(u64, Vec<u8>)> = [512, 16, 4096, 512, 48, 512, 512, 512, 4096, 16]
            .into_iter()
            .enumerate()
            .map(|(s, len)| (s as u64 * 5, (0..len).map(|i| (i * 3 + s) as u8).collect()))
            .collect();
        for jobs in (0..=24).chain([64]).map(|depth| scattered_jobs(depth, 512)).chain([mixed]) {
            for encrypt in [true, false] {
                let out = batch_matches_per_sector(&hw, &jobs, encrypt);
                assert_eq!(batch_matches_per_sector(&soft, &jobs, encrypt), out);
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
        batch_matches_per_sector(&essiv, &jobs, true);
        batch_matches_per_sector(&essiv, &jobs, false);
        // Duplicate sector indices share an IV, so identical plaintext
        // must give identical ciphertext inside one interleaved group.
        let mut jobs = scattered_jobs(12, 4096);
        for (i, (s, d)) in jobs.iter_mut().enumerate() {
            *s = if i % 2 == 0 { 9 } else { 4 };
            if i < 4 {
                *d = vec![0xEE; 4096];
            }
        }
        let ct = batch_matches_per_sector(&essiv, &jobs, true);
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
        // The hardware lanes and the forced-software lanes must produce
        // the same bytes in both modes.
        let pt: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
        let fast = Xts::new(Aes256::new(&[3u8; 32]), Aes256::new(&[9u8; 32]));
        let soft = {
            let mut k1 = Aes256::new(&[3u8; 32]);
            let mut k2 = Aes256::new(&[9u8; 32]);
            k1.force_software();
            k2.force_software();
            Xts::new(k1, k2)
        };
        let ct = fast.encrypt_sector(77, &pt);
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
