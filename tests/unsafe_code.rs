//! The workspace's `unsafe` discipline at crate level. Every library crate
//! forbids `unsafe` outright except `mobiceal-crypto`, whose SIMD kernels
//! need it; that crate denies `unsafe_op_in_unsafe_fn` instead, so each
//! unsafe operation sits in a block of its own. Clippy checks the blocks and
//! functions themselves (`undocumented_unsafe_blocks`, `missing_safety_doc`).

use std::fs;
use std::path::{Path, PathBuf};

#[test]
fn every_crate_but_crypto_forbids_unsafe_code() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let crypto = root.join("crates/crypto/src/lib.rs");
    let mut libs: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .unwrap()
        .map(|entry| entry.unwrap().path().join("src/lib.rs"))
        .filter(|lib| lib.is_file())
        .collect();
    libs.push(root.join("src/lib.rs"));
    assert!(libs.contains(&crypto), "no crypto crate among {libs:?}");

    let missing: Vec<String> = libs
        .iter()
        .filter_map(|lib| {
            let text = fs::read_to_string(lib).unwrap();
            let attr = if *lib == crypto {
                "#![deny(unsafe_op_in_unsafe_fn)]"
            } else {
                "#![forbid(unsafe_code)]"
            };
            (!text.lines().any(|line| line.trim() == attr))
                .then(|| format!("{} lacks {attr}", lib.strip_prefix(root).unwrap().display()))
        })
        .collect();
    assert!(missing.is_empty(), "{missing:#?}");
}
