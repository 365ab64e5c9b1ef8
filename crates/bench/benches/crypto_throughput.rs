//! Raw sector-cipher throughput: real MB/s of the T-table AES core through
//! the CBC-ESSIV and XTS sector modes, single-sector and batched-parallel
//! through `DmCrypt`, plus the byte-wise reference core for the speedup
//! ratio. These are *wall-clock* numbers (like `micro`'s `crypto` group);
//! simulated timing in the experiments is charged by `CpuCostModel` and
//! does not depend on any of this.
//!
//! Recorded numbers live in `EXPERIMENTS.md` and `BENCH_crypto.json`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mobiceal_blockdev::{BlockDevice, MemDisk};
use mobiceal_crypto::{
    reference::ReferenceAes, sha256, Aes256, BlockCipher, CbcEssiv, SectorCipher, Xts,
};
use mobiceal_dm::DmCrypt;
use mobiceal_sim::SimClock;
use std::sync::Arc;

const SECTOR: usize = 4096;
const BATCH: usize = 64;

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

/// ESSIV batch encrypt at depths 1, 2, 4, 8, 9 and 64 sectors of 4 KiB:
/// one sector is a single register-resident CBC chain, 2/4/8 interleave
/// that many chains in one `cbc_encrypt_lanes` kernel, 9 is a full group
/// plus a lone one-chain sector, and 64 is eight full groups.
fn bench_essiv_batch_depths(c: &mut Criterion) {
    let mut group = c.benchmark_group("essiv_encrypt_sectors");
    let essiv = CbcEssiv::with_essiv_key(Aes256::new(&[1u8; 32]), &sha256(&[1u8; 32]));
    for depth in [1usize, 2, 4, 8, 9, 64] {
        let mut bufs = vec![vec![0xABu8; SECTOR]; depth];
        group.throughput(Throughput::Bytes((depth * SECTOR) as u64));
        group.bench_function(format!("{depth}x4k").as_str(), |b| {
            b.iter(|| {
                let mut jobs: Vec<(u64, &mut [u8])> = bufs
                    .iter_mut()
                    .enumerate()
                    .map(|(i, d)| (i as u64, d.as_mut_slice()))
                    .collect();
                essiv.encrypt_sectors_in_place(&mut jobs)
            })
        });
    }
    group.finish();
}

/// A 64×4 KiB batch through `DmCrypt` over a MemDisk: the batched-parallel
/// crypto path vs. the same batch pinned to one thread.
fn bench_batched_parallel(c: &mut Criterion) {
    fn crypt(parallel: bool) -> (Arc<MemDisk>, DmCrypt) {
        let clock = SimClock::new();
        let disk = Arc::new(MemDisk::new(2 * BATCH as u64, SECTOR, clock));
        let dm = DmCrypt::new_essiv(disk.clone(), &[9u8; 32]);
        let dm = if parallel { dm } else { dm.sequential() };
        (disk, dm)
    }

    let mut group = c.benchmark_group("crypto_batch_64x4k");
    group.throughput(Throughput::Bytes((BATCH * SECTOR) as u64));
    let data = vec![0x5Au8; SECTOR];

    for (label, parallel) in [("write_parallel", true), ("write_sequential", false)] {
        group.bench_function(label, |b| {
            let (_disk, dm) = crypt(parallel);
            let writes: Vec<(u64, &[u8])> =
                (0..BATCH as u64).map(|i| (i, data.as_slice())).collect();
            b.iter(|| dm.write_blocks(&writes).expect("write batch"))
        });
    }
    for (label, parallel) in [("read_parallel", true), ("read_sequential", false)] {
        group.bench_function(label, |b| {
            let (_disk, dm) = crypt(parallel);
            let writes: Vec<(u64, &[u8])> =
                (0..BATCH as u64).map(|i| (i, data.as_slice())).collect();
            dm.write_blocks(&writes).expect("prefill");
            let indices: Vec<u64> = (0..BATCH as u64).collect();
            b.iter(|| dm.read_blocks(&indices).expect("read batch"))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_sector_modes, bench_lane_widths, bench_essiv_batch_depths, bench_batched_parallel
}
criterion_main!(benches);
