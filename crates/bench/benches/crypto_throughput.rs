//! Raw sector-cipher throughput: real MB/s of the AES core through the
//! CBC-ESSIV and XTS sector modes, single-block and batched through
//! `DmCrypt` (whose 4 KiB blocks are eight 512-byte sectors), plus the
//! byte-wise reference core for the speedup ratio. The ESSIV cases that
//! carry the dm-crypt hot path have `_aesni` twins whose AES is pinned to
//! the 128-bit AES-NI kernels, so on a VAES host one run reports the VAES
//! and AES-NI kernels side by side (on other hosts the twins repeat the
//! dispatched backend). These are *wall-clock*
//! numbers (like `micro`'s `crypto` group); simulated timing in the
//! experiments is charged by `CpuCostModel` and does not depend on any of
//! this.
//!
//! Recorded runs live in `EXPERIMENTS.md`. End-to-end and per-layer crypto
//! numbers come from the repository benchmark (`benchsuite/`, its
//! `crypto.modes.*` probes and the traced `dm.crypt` rungs).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mobiceal_blockdev::{BlockDevice, MemDisk};
use mobiceal_crypto::{
    reference::ReferenceAes, sha256, Aes256, BlockCipher, CbcEssiv, SectorCipher, Xts,
};
use mobiceal_dm::{CipherMode, DmCrypt};
use mobiceal_sim::SimClock;
use std::sync::Arc;

const SECTOR: usize = 4096;
const BATCH: usize = 64;

/// AES-256 under `key`, dispatched as usual, or pinned to the AES-NI
/// kernels with `aesni`; the `_aesni` twins' only difference.
fn aes256(key: &[u8; 32], aesni: bool) -> Aes256 {
    let mut aes = Aes256::new(key);
    if aesni {
        aes.force_aesni();
    }
    aes
}

/// `DmCrypt::new_essiv` over `disk`, with its AES pinned to AES-NI when
/// `aesni` is set.
fn dm_essiv(disk: Arc<MemDisk>, key: &[u8; 32], aesni: bool) -> DmCrypt {
    let cipher = CbcEssiv::with_essiv_key(aes256(key, aesni), &sha256(key));
    DmCrypt::with_cipher(disk, Box::new(cipher), CipherMode::CbcEssiv)
}

/// The bench-name suffix of the AES-NI twins.
fn twin(aesni: bool) -> &'static str {
    if aesni {
        "_aesni"
    } else {
        ""
    }
}

/// Single 4 KiB sector encrypt/decrypt, in place, per mode — and the
/// byte-wise reference core on the same workload for the speedup ratio.
fn bench_sector_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto_throughput");
    group.throughput(Throughput::Bytes(SECTOR as u64));

    let essiv = CbcEssiv::with_essiv_key(Aes256::new(&[1u8; 32]), &sha256(&[1u8; 32]));
    let xts = Xts::new(Aes256::new(&[2u8; 32]), Aes256::new(&[3u8; 32]));
    let mut buf = vec![0xABu8; SECTOR];

    group.bench_function("essiv_encrypt_4k", |b| {
        b.iter(|| essiv.encrypt_sector_in_place(7, &mut buf))
    });
    group.bench_function("essiv_decrypt_4k", |b| {
        b.iter(|| essiv.decrypt_sector_in_place(7, &mut buf))
    });
    group.bench_function("xts_encrypt_4k", |b| b.iter(|| xts.encrypt_sector_in_place(7, &mut buf)));
    group.bench_function("xts_decrypt_4k", |b| b.iter(|| xts.decrypt_sector_in_place(7, &mut buf)));

    // The pre-T-table baseline: same modes over the byte-wise FIPS core.
    let ref_essiv = CbcEssiv::with_essiv_key(ReferenceAes::new(&[1u8; 32]), &sha256(&[1u8; 32]));
    let ref_xts = Xts::new(ReferenceAes::new(&[2u8; 32]), ReferenceAes::new(&[3u8; 32]));
    group.bench_function("reference_essiv_encrypt_4k", |b| {
        b.iter(|| ref_essiv.encrypt_sector_in_place(7, &mut buf))
    });
    group.bench_function("reference_xts_encrypt_4k", |b| {
        b.iter(|| ref_xts.encrypt_sector_in_place(7, &mut buf))
    });
    group.finish();
}

/// Raw block-ladder throughput at each lane occupancy: runs of 1, 4, 8 and
/// 64 blocks hit the single-block path, the 4-wide ladder, the 8-wide
/// ladder and the 8-wide steady state respectively, so the sweep shows how
/// much of the AESENC latency each rung hides. The forced-software run
/// pins the portable T-table fallback's cost on the same workload.
fn bench_lane_widths(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto_lane_width");
    let aes = Aes256::new(&[4u8; 32]);
    let mut soft = Aes256::new(&[4u8; 32]);
    soft.force_software();
    for blocks in [1usize, 4, 8, 64] {
        let mut buf = vec![0x3Cu8; blocks * 16];
        group.throughput(Throughput::Bytes((blocks * 16) as u64));
        group.bench_function(format!("aesni_{blocks}x16").as_str(), |b| {
            b.iter(|| aes.encrypt_blocks(&mut buf))
        });
    }
    let mut buf = vec![0x3Cu8; 64 * 16];
    group.throughput(Throughput::Bytes((64 * 16) as u64));
    group.bench_function("software_64x16", |b| b.iter(|| soft.encrypt_blocks(&mut buf)));
    group.finish();
}

/// ESSIV batch encrypt and decrypt at depths 1, 2, 4, 8, 9 and 64 sectors
/// of 4 KiB. For encrypt, one sector is a single register-resident CBC
/// chain, 2/4/8 interleave that many chains in one `cbc_encrypt_lanes`
/// kernel, 9 is a full group plus a lone one-chain sector, and 64 is eight
/// full groups. Decrypt takes the same groups through one
/// `cbc_decrypt_lanes` call each, with no chain to wait on at any depth.
/// `essiv_decrypt_sectors/64x4k_aesni` repeats the deepest decrypt on the
/// AES-NI kernel.
fn bench_essiv_batch_depths(c: &mut Criterion) {
    for (name, encrypt) in [("essiv_encrypt_sectors", true), ("essiv_decrypt_sectors", false)] {
        let mut group = c.benchmark_group(name);
        let cases = [1usize, 2, 4, 8, 9, 64].map(|depth| (depth, false));
        let twins: &[(usize, bool)] = if encrypt { &[] } else { &[(64, true)] };
        for &(depth, aesni) in cases.iter().chain(twins) {
            let essiv = CbcEssiv::with_essiv_key(aes256(&[1u8; 32], aesni), &sha256(&[1u8; 32]));
            let mut bufs = vec![vec![0xABu8; SECTOR]; depth];
            group.throughput(Throughput::Bytes((depth * SECTOR) as u64));
            group.bench_function(format!("{depth}x4k{}", twin(aesni)).as_str(), |b| {
                b.iter(|| {
                    let mut jobs: Vec<(u64, &mut [u8])> = bufs
                        .iter_mut()
                        .enumerate()
                        .map(|(i, d)| (i as u64, d.as_mut_slice()))
                        .collect();
                    if encrypt {
                        essiv.encrypt_sectors_in_place(&mut jobs)
                    } else {
                        essiv.decrypt_sectors_in_place(&mut jobs)
                    }
                })
            });
        }
        group.finish();
    }
}

/// One 4 KiB `write_block` and `read_block` through `DmCrypt` over a
/// MemDisk in each mode: the `rand_4k` shape, where a block's eight
/// 512-byte sectors go through the sector-batch entry points as one group.
/// The `essiv_*_block_aesni` twins pin the AES to AES-NI.
fn bench_dm_single_block(c: &mut Criterion) {
    let mut group = c.benchmark_group("dm_crypt_block_4k");
    group.throughput(Throughput::Bytes(SECTOR as u64));
    let data = vec![0x5Au8; SECTOR];
    for (mode, aesni) in [("essiv", false), ("essiv", true), ("xts", false)] {
        let disk = Arc::new(MemDisk::new(16, SECTOR, SimClock::new()));
        let dm = match mode {
            "essiv" => dm_essiv(disk, &[9u8; 32], aesni),
            _ => DmCrypt::new_xts(disk, &[9u8; 64]),
        };
        let suffix = twin(aesni);
        group.bench_function(format!("{mode}_write_block{suffix}").as_str(), |b| {
            b.iter(|| dm.write_block(7, &data).expect("write block"))
        });
        group.bench_function(format!("{mode}_read_block{suffix}").as_str(), |b| {
            b.iter(|| dm.read_block(7).expect("read block"))
        });
    }
    group.finish();
}

/// A 64×4 KiB batch through `DmCrypt` over a MemDisk: one `write_blocks`
/// and one `read_blocks` call, each a single sector-batch job list; the
/// `_aesni` twins pin the AES to AES-NI.
fn bench_batched(c: &mut Criterion) {
    let data = vec![0x5Au8; SECTOR];
    let writes: Vec<(u64, &[u8])> = (0..BATCH as u64).map(|i| (i, data.as_slice())).collect();
    let indices: Vec<u64> = (0..BATCH as u64).collect();

    let mut group = c.benchmark_group("crypto_batch_64x4k");
    group.throughput(Throughput::Bytes((BATCH * SECTOR) as u64));
    for aesni in [false, true] {
        let disk = Arc::new(MemDisk::new(2 * BATCH as u64, SECTOR, SimClock::new()));
        let dm = dm_essiv(disk, &[9u8; 32], aesni);
        let suffix = twin(aesni);
        group.bench_function(format!("write{suffix}").as_str(), |b| {
            b.iter(|| dm.write_blocks(&writes).expect("write batch"))
        });
        group.bench_function(format!("read{suffix}").as_str(), |b| {
            b.iter(|| dm.read_blocks(&indices).expect("read batch"))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_sector_modes, bench_lane_widths, bench_essiv_batch_depths,
        bench_dm_single_block, bench_batched
}
criterion_main!(benches);
