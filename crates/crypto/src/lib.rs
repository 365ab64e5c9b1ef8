//! From-scratch cryptographic primitives for the MobiCeal reproduction.
//!
//! MobiCeal (DSN 2018) builds on Android's storage crypto stack: `dm-crypt`
//! with AES (CBC-ESSIV being the Android 4.2 default), PBKDF2 for password
//! key derivation, and kernel randomness for dummy-write payloads. This
//! crate re-implements exactly those primitives in pure Rust so the entire
//! reproduction is self-contained:
//!
//! * [`Sha256`] / [`hmac_sha256`] / [`pbkdf2_hmac_sha256`] — key derivation
//!   (§II-A, §IV-C of the paper).
//! * [`Aes128`] / [`Aes192`] / [`Aes256`] block ciphers: a T-table core,
//!   with AES-NI kernels on x86-64 hosts that report AES-NI and 512-bit
//!   VAES kernels for the CBC lanes on hosts that also report AVX-512F and
//!   VAES, picked at run time; every backend is pinned by tests to the
//!   byte-wise [`reference`] implementation. On top sit [`CbcEssiv`] (the
//!   dm-crypt `aes-cbc-essiv:sha256` mode used by Android FDE) and [`Xts`]
//!   (the mode of the HIVE baseline) — sector encryption, allocating or in
//!   place ([`SectorCipher::encrypt_sector_in_place`]).
//! * [`ChaCha20Rng`] — a deterministic CSPRNG used to produce encryption
//!   keys and the random payloads of dummy writes; dummy data must be
//!   computationally indistinguishable from ciphertext (§IV-A Q2).
//!
//! Every primitive is validated against published test vectors (FIPS 197,
//! NIST SP 800-38A for CBC chaining, RFC 4231, RFC 7914/6070, IEEE 1619,
//! RFC 8439) in the module tests.
//!
//! # Example
//!
//! ```
//! use mobiceal_crypto::{Aes256, CbcEssiv, SectorCipher};
//!
//! let key = [7u8; 32];
//! let cipher = CbcEssiv::new(Aes256::new(&key));
//! let sector = vec![0x42u8; 512];
//! let ct = cipher.encrypt_sector(9, &sector);
//! assert_ne!(ct, sector);
//! assert_eq!(cipher.decrypt_sector(9, &ct), sector);
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

mod aes;
mod chacha20;
mod hmac;
mod modes;
mod pbkdf2;
mod sha256;
mod util;

pub use aes::reference;
pub use aes::{Aes128, Aes192, Aes256, BlockCipher, AES_BLOCK_SIZE};
pub use chacha20::{chacha20_block, chacha20_xor, ChaCha20Rng};
pub use hmac::{hmac_sha256, HmacSha256};
pub use modes::{CbcEssiv, SectorCipher, Xts};
pub use pbkdf2::pbkdf2_hmac_sha256;
pub use sha256::{sha256, Sha256, SHA256_OUTPUT_LEN};
pub use util::{ct_eq, from_hex, to_hex, ParseHexError};
