//! Golden software reference for the Rijndael block cipher.
//!
//! This crate is the specification-level model against which the
//! cycle-accurate soft IP of the DATE 2003 paper is verified. It covers the
//! *whole* Rijndael design space the paper's §2–3 describe, not just the
//! AES-128 subset the IP implements:
//!
//! * [`state`] — the `state_t` working variable (Figure 1 of the paper): a
//!   4-row matrix of bytes with 4–8 columns;
//! * [`transform`] — the four round transformations (`ByteSub`, `ShiftRow`,
//!   `MixColumn`, `AddKey`) and their inverses (Figures 4–7);
//! * [`key_schedule`] — the round-key generation including the `KStran`
//!   sub-function (Figure 3);
//! * [`cipher`] — the generic cipher for every block/key size combination
//!   (128–256 bits in 32-bit steps);
//! * [`aes`] — the AES-128/192/256 subset standardised by NIST;
//! * [`ttable`] — the 32-bit table-lookup ("T-table") implementation that
//!   era-typical software used, kept as a software performance baseline;
//! * [`bitslice`] — a constant-time bitsliced AES-128 that encrypts many
//!   blocks per pass through bit-plane arithmetic (no secret-indexed
//!   loads), the constant-time bulk fallback on hosts without AES
//!   hardware;
//! * `aesni` *(x86_64)* / `neon` *(aarch64)* — hardware AES backends on
//!   the native AES instructions, constructible only after a runtime CPU
//!   probe succeeds;
//! * [`dispatch`] — the runtime CPU-feature probe, the
//!   `RIJNDAEL_FORCE_BACKEND` override, and the startup micro-race that
//!   picks the fastest available backend per mode ([`AutoCipher`]);
//! * [`modes`] — block-cipher modes of operation (ECB, CBC, CTR, CFB, OFB)
//!   as generic inherent functions over any [`BlockCipher`];
//! * [`gf128`] / [`ghash`] / [`aead`] — the authenticated layer:
//!   GF(2^128) carry-less multiplication (portable 4-bit table plus a
//!   `PCLMULQDQ` fast path), the GHASH universal hash, and AES-GCM /
//!   XTS-AES / RFC 3394 key wrap built on the batched backends;
//! * [`trace`] — round-by-round execution traces (used to reproduce the
//!   paper's Figure 2 and to debug the hardware model);
//! * [`vectors`] — published known-answer vectors.
//!
//! # Examples
//!
//! ```
//! use rijndael::Aes128;
//!
//! // FIPS-197 Appendix C.1
//! let key: [u8; 16] = (0..16).collect::<Vec<u8>>().try_into().unwrap();
//! let pt: [u8; 16] = (0..16).map(|i| i * 0x11).collect::<Vec<u8>>().try_into().unwrap();
//! let aes = Aes128::new(&key);
//! assert_eq!(
//!     aes.encrypt_block(&pt),
//!     [0x69, 0xC4, 0xE0, 0xD8, 0x6A, 0x7B, 0x04, 0x30,
//!      0xD8, 0xCD, 0xB7, 0x80, 0x70, 0xB4, 0xC5, 0x5A]
//! );
//! ```

// `unsafe` is denied rather than forbidden: the exceptions are the SIMD
// kernels — the AVX2 plane inside [`bitslice`] and the hardware-AES
// backends in `aesni`/`neon` — each a module-scoped `#[allow(unsafe_code)]`
// whose intrinsics are reachable only after a *runtime* CPU-feature probe
// succeeds (see [`dispatch`]); the only pointer operations are unaligned
// 16-byte loads/stores of caller-provided buffers. Everything else in the
// crate remains `unsafe`-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aead;
pub mod aes;
#[cfg(target_arch = "x86_64")]
pub mod aesni;
pub mod bitslice;
pub mod cipher;
pub mod cmac;
pub mod diffusion;
pub mod dispatch;
pub mod gf128;
pub mod ghash;
pub mod key_schedule;
pub mod mct;
pub mod modes;
#[cfg(target_arch = "aarch64")]
pub mod neon;
pub mod state;
pub mod trace;
pub mod transform;
pub mod ttable;
pub mod vectors;
pub mod zeroize;

pub use aead::{Aead, Gcm, Xts};
pub use aes::{Aes128, Aes192, Aes256};
pub use bitslice::Bitsliced8;
pub use cipher::{BatchCipher, BlockCipher, Rijndael};
pub use dispatch::AutoCipher;
pub use ghash::Ghash;
pub use key_schedule::KeySchedule;
pub use state::State;
