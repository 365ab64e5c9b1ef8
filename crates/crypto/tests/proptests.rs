//! Property-based tests of the cryptographic primitives.

use mobiceal_crypto::reference::ReferenceAes;
use mobiceal_crypto::{
    chacha20_block, chacha20_xor, from_hex, hmac_sha256, pbkdf2_hmac_sha256, sha256, to_hex,
    Aes128, Aes192, Aes256, BlockCipher, CbcEssiv, ChaCha20Rng, HmacSha256, SectorCipher, Sha256,
    Xts,
};
use proptest::prelude::*;

/// Pads to the 16-byte multiple the sector modes require (min one block).
fn pad_sector(mut data: Vec<u8>) -> Vec<u8> {
    if data.is_empty() {
        data.push(0);
    }
    while !data.len().is_multiple_of(16) {
        data.push(0);
    }
    data
}

/// Deterministic filler bytes for generated sectors.
fn filler(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed;
    (0..len)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 24) as u8
        })
        .collect()
}

/// Sector batches for the batch entry points: random lengths (interleaved
/// ESSIV groups almost never form); one shared length, so runs of up to
/// eight equal-length sectors form at every depth and tail mix; or runs of
/// 16 B, 512 B and 4 KiB sectors, so groups break mid-batch.
fn sector_batches() -> BoxedStrategy<Vec<(u64, Vec<u8>)>> {
    prop_oneof![
        prop::collection::vec(
            (any::<u64>(), prop::collection::vec(any::<u8>(), 1..200))
                .prop_map(|(s, d)| (s, pad_sector(d))),
            1..10,
        ),
        (1usize..=32, prop::collection::vec(any::<u64>(), 1..25)).prop_map(|(blocks, sectors)| {
            sectors.into_iter().map(|s| (s, filler(s, blocks * 16))).collect()
        }),
        (
            any::<u64>(),
            prop::collection::vec(
                (prop_oneof![Just(16usize), Just(512), Just(4096)], 1usize..11),
                1..6
            ),
        )
            .prop_map(|(seed, runs)| {
                runs.into_iter()
                    .flat_map(|(len, run)| std::iter::repeat_n(len, run))
                    .enumerate()
                    .map(|(i, len)| (seed.wrapping_add(i as u64), filler(seed ^ i as u64, len)))
                    .collect()
            }),
    ]
    .boxed()
}

/// Index of the byte-wise reference core in [`essiv_backends`].
const REFERENCE: usize = 3;

/// CBC-ESSIV under `key` (16, 24 or 32 bytes) on the dispatched lanes
/// (VAES on VAES hosts, AES-NI on AES-NI hosts), the lanes pinned to
/// AES-NI, the forced-software lanes and the byte-wise reference core, in
/// that order.
fn essiv_backends(key: &[u8]) -> [Box<dyn SectorCipher>; 4] {
    let essiv_key = sha256(key);
    macro_rules! pinned {
        ($aes:ty) => {{
            let mut aesni = <$aes>::from_slice(key);
            aesni.force_aesni();
            let mut soft = <$aes>::from_slice(key);
            soft.force_software();
            [
                Box::new(CbcEssiv::with_essiv_key(<$aes>::from_slice(key), &essiv_key))
                    as Box<dyn SectorCipher>,
                Box::new(CbcEssiv::with_essiv_key(aesni, &essiv_key)),
                Box::new(CbcEssiv::with_essiv_key(soft, &essiv_key)),
            ]
        }};
    }
    let [dispatched, aesni, soft] = match key.len() {
        16 => pinned!(Aes128),
        24 => pinned!(Aes192),
        _ => pinned!(Aes256),
    };
    [
        dispatched,
        aesni,
        soft,
        Box::new(CbcEssiv::with_essiv_key(ReferenceAes::new(key), &essiv_key)),
    ]
}

/// Runs `batch` through `encrypt_sectors_in_place` and returns the buffers.
fn batch_encrypt(cipher: &dyn SectorCipher, batch: &[(u64, Vec<u8>)]) -> Vec<Vec<u8>> {
    let mut bufs: Vec<Vec<u8>> = batch.iter().map(|(_, d)| d.clone()).collect();
    let mut jobs: Vec<(u64, &mut [u8])> =
        batch.iter().zip(bufs.iter_mut()).map(|((s, _), d)| (*s, d.as_mut_slice())).collect();
    cipher.encrypt_sectors_in_place(&mut jobs);
    bufs
}

/// Runs `batch` through `decrypt_sectors_in_place` and returns the buffers.
fn batch_decrypt(cipher: &dyn SectorCipher, batch: &[(u64, Vec<u8>)]) -> Vec<Vec<u8>> {
    let mut bufs: Vec<Vec<u8>> = batch.iter().map(|(_, d)| d.clone()).collect();
    let mut jobs: Vec<(u64, &mut [u8])> =
        batch.iter().zip(bufs.iter_mut()).map(|((s, _), d)| (*s, d.as_mut_slice())).collect();
    cipher.decrypt_sectors_in_place(&mut jobs);
    bufs
}

/// `depth` sectors of `len` bytes whose indices are drawn from
/// `0..index_range` (so `index_range` 1..4 repeats indices in a group).
fn equal_length_batch(
    depth: usize,
    len: usize,
    index_range: u64,
    seed: u64,
) -> Vec<(u64, Vec<u8>)> {
    (0..depth as u64)
        .map(|i| {
            let s = seed.wrapping_add(i.wrapping_mul(0x9E37_79B9)) % index_range;
            (s, filler(seed ^ i, len))
        })
        .collect()
}

proptest! {
    #[test]
    fn t_table_core_is_pinned_to_reference(
        key in prop::array::uniform32(any::<u8>()),
        block in prop::array::uniform16(any::<u8>()),
    ) {
        // The fast T-table core must agree bit-for-bit with the byte-wise
        // FIPS 197 specification in both directions, for all key sizes.
        for key_len in [16usize, 24, 32] {
            let fast: Box<dyn BlockCipher> = match key_len {
                16 => Box::new(Aes128::from_slice(&key[..16])),
                24 => Box::new(Aes192::from_slice(&key[..24])),
                _ => Box::new(Aes256::from_slice(&key)),
            };
            let reference = ReferenceAes::new(&key[..key_len]);
            let mut a = block;
            let mut b = block;
            fast.encrypt_block(&mut a);
            reference.encrypt_block(&mut b);
            prop_assert_eq!(a, b, "encrypt diverges at key_len {}", key_len);
            fast.decrypt_block(&mut a);
            reference.decrypt_block(&mut b);
            prop_assert_eq!(a, b, "decrypt diverges at key_len {}", key_len);
            prop_assert_eq!(a, block, "roundtrip broken at key_len {}", key_len);
        }
    }

    #[test]
    fn essiv_in_place_equals_allocating(
        key in prop::array::uniform32(any::<u8>()),
        sector in any::<u64>(),
        data in prop::collection::vec(any::<u8>(), 1..200),
    ) {
        let plain = pad_sector(data);
        let cipher = CbcEssiv::with_essiv_key(Aes256::new(&key), &sha256(&key));
        let ct = cipher.encrypt_sector(sector, &plain);
        let mut buf = plain.clone();
        cipher.encrypt_sector_in_place(sector, &mut buf);
        prop_assert_eq!(&buf, &ct, "in-place encrypt must match allocating");
        cipher.decrypt_sector_in_place(sector, &mut buf);
        prop_assert_eq!(&buf, &plain, "in-place decrypt must invert");
        prop_assert_eq!(cipher.decrypt_sector(sector, &ct), plain);
    }

    #[test]
    fn xts_in_place_equals_allocating(
        key in prop::array::uniform32(any::<u8>()),
        tweak_key in prop::array::uniform32(any::<u8>()),
        sector in any::<u64>(),
        data in prop::collection::vec(any::<u8>(), 1..200),
    ) {
        let plain = pad_sector(data);
        let xts = Xts::new(Aes256::new(&key), Aes256::new(&tweak_key));
        let ct = xts.encrypt_sector(sector, &plain);
        let mut buf = plain.clone();
        xts.encrypt_sector_in_place(sector, &mut buf);
        prop_assert_eq!(&buf, &ct, "in-place encrypt must match allocating");
        xts.decrypt_sector_in_place(sector, &mut buf);
        prop_assert_eq!(&buf, &plain, "in-place decrypt must invert");
        prop_assert_eq!(xts.decrypt_sector(sector, &ct), plain);
    }

    #[test]
    fn aes_roundtrip_all_key_sizes(key in prop::array::uniform32(any::<u8>()),
                                   block in prop::array::uniform16(any::<u8>())) {
        for cipher in [
            Box::new(Aes128::from_slice(&key[..16])) as Box<dyn BlockCipher>,
            Box::new(Aes192::from_slice(&key[..24])),
            Box::new(Aes256::from_slice(&key)),
        ] {
            let mut b = block;
            cipher.encrypt_block(&mut b);
            prop_assert_ne!(b, block, "16-byte fixed point is astronomically unlikely");
            cipher.decrypt_block(&mut b);
            prop_assert_eq!(b, block);
        }
    }

    #[test]
    fn essiv_roundtrip_arbitrary_sectors(
        key in prop::array::uniform32(any::<u8>()),
        sector in any::<u64>(),
        data in prop::collection::vec(any::<u8>(), 1..64),
    ) {
        // Pad to a 16-byte multiple as the mode requires.
        let mut plain = data;
        while plain.len() % 16 != 0 {
            plain.push(0);
        }
        let cipher = CbcEssiv::with_essiv_key(Aes256::new(&key), &sha256(&key));
        let ct = cipher.encrypt_sector(sector, &plain);
        prop_assert_eq!(ct.len(), plain.len());
        prop_assert_ne!(&ct, &plain);
        prop_assert_eq!(cipher.decrypt_sector(sector, &ct), plain);
    }

    #[test]
    fn xts_roundtrip_and_sector_separation(
        key in prop::array::uniform32(any::<u8>()),
        tweak_key in prop::array::uniform32(any::<u8>()),
        sector in any::<u64>(),
    ) {
        let xts = Xts::new(Aes256::new(&key), Aes256::new(&tweak_key));
        let plain = vec![0x5Au8; 512];
        let ct = xts.encrypt_sector(sector, &plain);
        prop_assert_eq!(xts.decrypt_sector(sector, &ct), plain.clone());
        let ct2 = xts.encrypt_sector(sector.wrapping_add(1), &plain);
        prop_assert_ne!(ct, ct2, "adjacent sectors must differ");
    }

    #[test]
    fn sha256_incremental_equals_oneshot(
        data in prop::collection::vec(any::<u8>(), 0..500),
        split in 0usize..500,
    ) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn hmac_incremental_equals_oneshot(
        key in prop::collection::vec(any::<u8>(), 0..100),
        data in prop::collection::vec(any::<u8>(), 0..300),
        split in 0usize..300,
    ) {
        let split = split.min(data.len());
        let mut mac = HmacSha256::new(&key);
        mac.update(&data[..split]);
        mac.update(&data[split..]);
        prop_assert_eq!(mac.finalize(), hmac_sha256(&key, &data));
    }

    #[test]
    fn pbkdf2_prefix_property(
        pwd in prop::collection::vec(any::<u8>(), 1..32),
        salt in prop::collection::vec(any::<u8>(), 1..32),
        iters in 1u32..8,
    ) {
        let mut short = [0u8; 16];
        let mut long = [0u8; 48];
        pbkdf2_hmac_sha256(&pwd, &salt, iters, &mut short);
        pbkdf2_hmac_sha256(&pwd, &salt, iters, &mut long);
        prop_assert_eq!(&short[..], &long[..16]);
    }

    #[test]
    fn chacha20_xor_is_an_involution(
        key in prop::array::uniform32(any::<u8>()),
        counter in any::<u32>(),
        data in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        let nonce = [7u8; 12];
        let mut buf = data.clone();
        chacha20_xor(&key, counter, &nonce, &mut buf);
        if !data.is_empty() {
            prop_assert_ne!(&buf, &data);
        }
        chacha20_xor(&key, counter, &nonce, &mut buf);
        prop_assert_eq!(buf, data);
    }

    /// Small draws and multi-KiB fills mix freely: splits reach whole
    /// 512-byte keystream groups and tails after a partly drained buffer,
    /// and every split equals one whole fill and the block-by-block
    /// `chacha20_block` stream.
    #[test]
    fn chacha_rng_streams_are_split_invariant(
        seed in any::<u64>(),
        splits in prop::collection::vec(prop_oneof![1usize..70, 1usize..5200], 1..6),
    ) {
        let total: usize = splits.iter().sum();
        let mut whole = vec![0u8; total];
        ChaCha20Rng::from_u64_seed(seed).fill_bytes(&mut whole);
        let mut pieces = Vec::new();
        let mut rng = ChaCha20Rng::from_u64_seed(seed);
        for &s in &splits {
            let mut buf = vec![0u8; s];
            rng.fill_bytes(&mut buf);
            pieces.extend_from_slice(&buf);
        }
        let key = sha256(&seed.to_le_bytes());
        let scalar: Vec<u8> = (0..total.div_ceil(64) as u32)
            .flat_map(|counter| chacha20_block(&key, counter, &[0u8; 12]))
            .take(total)
            .collect();
        prop_assert_eq!(&pieces, &whole);
        prop_assert_eq!(pieces, scalar);
    }

    #[test]
    fn hex_roundtrip(data in prop::collection::vec(any::<u8>(), 0..200)) {
        prop_assert_eq!(from_hex(&to_hex(&data)).unwrap(), data);
    }

    #[test]
    fn different_keys_never_collide_on_sector(
        k1 in prop::array::uniform32(any::<u8>()),
        k2 in prop::array::uniform32(any::<u8>()),
    ) {
        prop_assume!(k1 != k2);
        let c1 = CbcEssiv::with_essiv_key(Aes256::new(&k1), &sha256(&k1));
        let c2 = CbcEssiv::with_essiv_key(Aes256::new(&k2), &sha256(&k2));
        let plain = vec![0u8; 64];
        prop_assert_ne!(c1.encrypt_sector(0, &plain), c2.encrypt_sector(0, &plain));
    }

    #[test]
    fn wide_lanes_are_pinned_to_reference_per_block(
        key in prop::array::uniform32(any::<u8>()),
        blocks in 0usize..24,
        seed in any::<u64>(),
    ) {
        // encrypt_blocks/decrypt_blocks over a run of 0..24 blocks — which
        // exercises the 8-wide ladder, the 4-wide ladder, the single-block
        // tail and every ragged mix (e.g. 13 = 8 + 4 + 1) — must equal the
        // byte-wise FIPS 197 reference applied block by block, for every
        // key size, on the hardware path and on the forced-software path.
        let data = filler(seed, blocks * 16);
        for key_len in [16usize, 24, 32] {
            let reference = ReferenceAes::new(&key[..key_len]);
            let mut expect = data.clone();
            for chunk in expect.chunks_exact_mut(16) {
                reference.encrypt_block(chunk.try_into().unwrap());
            }
            for force_soft in [false, true] {
                let hw: Box<dyn BlockCipher> = match key_len {
                    16 => {
                        let mut c = Aes128::from_slice(&key[..16]);
                        if force_soft { c.force_software(); }
                        Box::new(c)
                    }
                    24 => {
                        let mut c = Aes192::from_slice(&key[..24]);
                        if force_soft { c.force_software(); }
                        Box::new(c)
                    }
                    _ => {
                        let mut c = Aes256::from_slice(&key);
                        if force_soft { c.force_software(); }
                        Box::new(c)
                    }
                };
                let mut wide = data.clone();
                hw.encrypt_blocks(&mut wide);
                prop_assert_eq!(
                    &wide, &expect,
                    "wide encrypt diverges: key_len {}, {} blocks, soft {}",
                    key_len, blocks, force_soft
                );
                hw.decrypt_blocks(&mut wide);
                prop_assert_eq!(
                    &wide, &data,
                    "wide decrypt must invert: key_len {}, {} blocks, soft {}",
                    key_len, blocks, force_soft
                );
            }
        }
    }

    #[test]
    fn xts_wide_path_is_pinned_to_reference_core(
        key in prop::array::uniform32(any::<u8>()),
        tweak_key in prop::array::uniform32(any::<u8>()),
        sector in any::<u64>(),
        data in prop::collection::vec(any::<u8>(), 1..700),
    ) {
        // XTS through the pipelined lanes must equal XTS over the
        // byte-wise reference core (which takes the default per-block
        // trait path) — lane width is not allowed to exist in the bytes.
        let plain = pad_sector(data);
        let fast = Xts::new(Aes256::new(&key), Aes256::new(&tweak_key));
        let soft = Xts::new(
            ReferenceAes::new(&key[..]),
            ReferenceAes::new(&tweak_key[..]),
        );
        let ct = fast.encrypt_sector(sector, &plain);
        prop_assert_eq!(
            &soft.encrypt_sector(sector, &plain), &ct,
            "wide XTS encrypt must match the reference-core path"
        );
        prop_assert_eq!(&fast.decrypt_sector(sector, &ct), &plain);
        prop_assert_eq!(
            &soft.decrypt_sector(sector, &ct), &plain,
            "reference-core XTS decrypt must invert the wide ciphertext"
        );
    }

    #[test]
    fn essiv_wide_decrypt_is_pinned_to_reference_core(
        key in prop::array::uniform32(any::<u8>()),
        sector in any::<u64>(),
        data in prop::collection::vec(any::<u8>(), 1..700),
    ) {
        // CBC-ESSIV: per-sector encrypt is serial, decrypt pipelines; both
        // must agree with the mode over the byte-wise reference core.
        let plain = pad_sector(data);
        let essiv_key = sha256(&key);
        let fast = CbcEssiv::with_essiv_key(Aes256::new(&key), &essiv_key);
        let soft = CbcEssiv::with_essiv_key(ReferenceAes::new(&key[..]), &essiv_key);
        let ct = fast.encrypt_sector(sector, &plain);
        prop_assert_eq!(
            &soft.encrypt_sector(sector, &plain), &ct,
            "serial CBC encrypt must match the reference-core path"
        );
        prop_assert_eq!(
            &fast.decrypt_sector(sector, &ct), &plain,
            "pipelined CBC decrypt must invert"
        );
        prop_assert_eq!(&soft.decrypt_sector(sector, &ct), &plain);
    }

    #[test]
    fn sector_batch_entry_points_match_per_sector(
        key in prop::array::uniform32(any::<u8>()),
        jobs in sector_batches(),
    ) {
        // The batch entry points must equal the per-sector calls, for both
        // modes, at every batch depth — including the interleaved ESSIV
        // encrypt groups the equal-length batches form.
        let xts = Xts::new(Aes256::new(&key), Aes256::new(&sha256(&key)));
        let essiv = CbcEssiv::with_essiv_key(Aes256::new(&key), &sha256(&key));
        for cipher in [&xts as &dyn SectorCipher, &essiv] {
            let mut sectors: Vec<(u64, Vec<u8>)> =
                jobs.iter().map(|(s, d)| (*s, cipher.encrypt_sector(*s, d))).collect();
            let got = batch_encrypt(cipher, &jobs);
            for ((_, want), got) in sectors.iter().zip(&got) {
                prop_assert_eq!(got, want, "batch encrypt must equal per-sector");
            }
            let mut batch: Vec<(u64, &mut [u8])> =
                sectors.iter_mut().map(|(s, d)| (*s, d.as_mut_slice())).collect();
            cipher.decrypt_sectors_in_place(&mut batch);
            for ((s, got), (_, orig)) in sectors.iter().zip(jobs.iter()) {
                prop_assert_eq!(got, orig, "batch decrypt must invert (sector {})", s);
            }
        }
    }

    #[test]
    fn essiv_interleaved_encrypt_is_pinned_to_per_sector(
        key in prop::array::uniform32(any::<u8>()),
        depth in prop_oneof![4 => 0usize..=24, 1 => Just(64usize)],
        len in prop_oneof![Just(16usize), Just(512), Just(4096)],
        index_range in prop_oneof![Just(u64::MAX), 1u64..4],
        seed in any::<u64>(),
    ) {
        // Equal-length batches at every depth 0..=24 and 64 (8-sector
        // groups, 2..7 ragged tails, singletons), possibly with duplicate
        // sector indices in one group, for every key size and on every
        // backend: AES-NI lanes, forced-software lanes and the byte-wise
        // reference core must all equal the per-sector serial encrypt.
        let batch = equal_length_batch(depth, len, index_range, seed);
        for key_len in [16usize, 24, 32] {
            let backends = essiv_backends(&key[..key_len]);
            let expect: Vec<Vec<u8>> =
                batch.iter().map(|(s, d)| backends[REFERENCE].encrypt_sector(*s, d)).collect();
            for (b, cipher) in backends.iter().enumerate() {
                prop_assert_eq!(
                    &batch_encrypt(&**cipher, &batch), &expect,
                    "interleaved encrypt diverges: key_len {}, backend {}, depth {}, len {}",
                    key_len, b, depth, len
                );
            }
        }
    }

    #[test]
    fn essiv_batch_decrypt_is_pinned_to_per_sector(
        key in prop::array::uniform32(any::<u8>()),
        depth in prop_oneof![4 => 0usize..=24, 1 => Just(64usize)],
        len in prop_oneof![Just(16usize), Just(512), Just(4096)],
        index_range in prop_oneof![Just(u64::MAX), 1u64..4],
        seed in any::<u64>(),
    ) {
        // The decrypt mirror of the property above: runs of up to eight
        // equal-length sectors through one `cbc_decrypt_lanes` call must
        // equal the per-sector decrypt of the byte-wise reference core on
        // every backend, for arbitrary bytes taken as ciphertext.
        let batch = equal_length_batch(depth, len, index_range, seed);
        for key_len in [16usize, 24, 32] {
            let backends = essiv_backends(&key[..key_len]);
            let expect: Vec<Vec<u8>> =
                batch.iter().map(|(s, d)| backends[REFERENCE].decrypt_sector(*s, d)).collect();
            for (b, cipher) in backends.iter().enumerate() {
                prop_assert_eq!(
                    &batch_decrypt(&**cipher, &batch), &expect,
                    "batch decrypt diverges: key_len {}, backend {}, depth {}, len {}",
                    key_len, b, depth, len
                );
            }
        }
    }
}
