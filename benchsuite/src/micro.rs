//! `crypto.modes`: direct CBC-ESSIV calls on 4 KiB sectors, the cipher
//! work under dm-crypt with no stack around it.
//!
//! `b64` drives the sector-batch entry points with 64 sectors per call
//! (the shape of a dd chunk); `b1` drives the single-sector in-place calls
//! `DmCrypt::read_block`/`write_block` make (the shape of `rand_4k`).

use crate::stats::median;
use crate::workloads::BLOCK;
use mobiceal_crypto::{sha256, Aes256, CbcEssiv, SectorCipher};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Bytes ciphered per timed sample.
const SAMPLE_BYTES: usize = 1 << 20;
/// Samples taken at least, whatever the budget.
const MIN_SAMPLES: usize = 5;

/// Median MiB/s of `encrypt` (or decrypt) at `batch` sectors per call,
/// sampling for about `budget`.
pub fn essiv_mibps(encrypt: bool, batch: usize, budget: Duration) -> f64 {
    let key = [0x3Cu8; 32];
    let cipher = CbcEssiv::with_essiv_key(Aes256::new(&key), &sha256(&key));
    let mut sectors = vec![vec![0xA5u8; BLOCK]; batch];
    let calls = (SAMPLE_BYTES / (batch * BLOCK)).max(1);
    let mut rates = Vec::new();
    let start = Instant::now();
    while rates.len() < MIN_SAMPLES || start.elapsed() < budget {
        let t = Instant::now();
        for call in 0..calls {
            let base = (call * batch) as u64;
            if batch == 1 {
                let sector = sectors[0].as_mut_slice();
                if encrypt {
                    cipher.encrypt_sector_in_place(base, sector);
                } else {
                    cipher.decrypt_sector_in_place(base, sector);
                }
            } else {
                let mut jobs: Vec<(u64, &mut [u8])> = sectors
                    .iter_mut()
                    .enumerate()
                    .map(|(i, s)| (base + i as u64, s.as_mut_slice()))
                    .collect();
                if encrypt {
                    cipher.encrypt_sectors_in_place(&mut jobs);
                } else {
                    cipher.decrypt_sectors_in_place(&mut jobs);
                }
            }
            black_box(&mut sectors);
        }
        let bytes = (calls * batch * BLOCK) as f64;
        rates.push(bytes / (1 << 20) as f64 / t.elapsed().as_secs_f64());
    }
    median(&rates)
}
