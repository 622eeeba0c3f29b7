//! Runtime CPU-feature detection and backend dispatch.
//!
//! The crate used to pick its fastest software path at *compile* time
//! (`target-cpu=native` in `.cargo/config.toml` statically enabling the
//! AVX2 bitsliced plane), which pins a release binary to the build host.
//! This module replaces that with a runtime decision made once per
//! process:
//!
//! 1. **Probe** — [`cpu`] runs the std feature probes
//!    (`is_x86_feature_detected!` on x86_64,
//!    `is_aarch64_feature_detected!` on aarch64) exactly once and caches
//!    the result.
//! 2. **Micro-race** — [`selection`] builds every *available,
//!    constant-time* candidate ([`Kind::AesNi`], [`Kind::Neon`], the
//!    bitsliced planes) with a throwaway key and times a 64-block batch
//!    encrypt, taking the minimum over a few repetitions. The winner is
//!    cached for the life of the process.
//! 3. **Publish** — the decision lands in the global telemetry registry
//!    under `rijndael.dispatch.*` (see [`selection`]), so `GET_STATS`
//!    shows exactly which implementation serves traffic.
//!
//! Backends that index lookup tables with secret data ([`Kind::Ttable`],
//! [`Kind::Reference`]) and the cycle-accurate IP-core simulation
//! ([`Kind::IpCore`]) never enter the race; they are reachable only
//! through the explicit override below. The constant-time bitsliced
//! portable plane is always available, so the race never comes up empty:
//! that is the fallback policy.
//!
//! # Forcing a backend
//!
//! Setting [`FORCE_ENV`] (`RIJNDAEL_FORCE_BACKEND`) to a [`Kind`] token
//! skips the race and pins the selection. An unknown token or a backend the
//! CPU cannot run **panics** — a forced backend that silently fell back
//! would invalidate exactly the test sweeps the override exists for.

use std::sync::OnceLock;

use crate::bitslice::{Bitsliced8, WideLane};
use crate::cipher::{BatchCipher, BlockCipher, Rijndael};
use crate::ttable::TtableAes;

/// Environment variable that pins the dispatch decision to one [`Kind`]
/// token (see the module docs for the failure semantics).
pub const FORCE_ENV: &str = "RIJNDAEL_FORCE_BACKEND";

/// Blocks per timing sample in the micro-race (one full bitsliced wide
/// pass).
const RACE_BULK_BLOCKS: usize = 64;

/// Timing repetitions per candidate; the minimum is kept, which rejects
/// scheduler noise on a loaded host.
const RACE_REPS: usize = 5;

/// CPU features relevant to backend choice, probed once per process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuFeatures {
    /// x86 AES-NI instructions (`is_x86_feature_detected!("aes")`).
    pub aesni: bool,
    /// x86 AVX2 vector extensions (drives the wide bitsliced plane).
    pub avx2: bool,
    /// ARMv8 Cryptography Extension AES instructions.
    pub neon_aes: bool,
    /// x86 `PCLMULQDQ` carry-less multiply (drives the GHASH fast path
    /// in [`crate::gf128`]).
    pub pclmul: bool,
}

/// The cached result of the one-time CPU probe.
pub fn cpu() -> CpuFeatures {
    static CPU: OnceLock<CpuFeatures> = OnceLock::new();
    *CPU.get_or_init(probe)
}

#[cfg(target_arch = "x86_64")]
fn probe() -> CpuFeatures {
    CpuFeatures {
        aesni: std::arch::is_x86_feature_detected!("aes"),
        avx2: std::arch::is_x86_feature_detected!("avx2"),
        neon_aes: false,
        pclmul: std::arch::is_x86_feature_detected!("pclmulqdq"),
    }
}

#[cfg(target_arch = "aarch64")]
fn probe() -> CpuFeatures {
    CpuFeatures {
        aesni: false,
        avx2: false,
        neon_aes: std::arch::is_aarch64_feature_detected!("aes"),
        pclmul: false,
    }
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
fn probe() -> CpuFeatures {
    CpuFeatures::default()
}

/// Every dispatchable AES implementation in the workspace. All software
/// kinds key with 16, 24, or 32 bytes; only [`Kind::IpCore`] (the
/// paper's AES-128-only hardware model) is fixed to 16.
///
/// `Kind` is the currency of the dispatch layer: the force override names
/// one by [`Kind::token`], the engine maps one to a farm slot, and
/// telemetry reports the one selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// x86 AES-NI instructions ([`crate::aesni`]).
    AesNi,
    /// ARMv8 Cryptography Extension (the `neon` module, aarch64 only).
    Neon,
    /// Bitsliced, AVX2 wide plane ([`crate::bitslice`]).
    BitslicedWide,
    /// Bitsliced, portable `[u64; 4]` wide plane.
    BitslicedPortable,
    /// Bitsliced, `u32` 8-block granules only (no wide pass).
    BitslicedNarrow,
    /// The era-typical T-table implementation (not constant-time).
    Ttable,
    /// The golden software reference (not constant-time).
    Reference,
    /// The paper's cycle-accurate IP-core simulation behind its bus.
    IpCore,
}

impl Kind {
    /// Every kind, in probe order (fastest plausible first).
    pub const ALL: [Kind; 8] = [
        Kind::AesNi,
        Kind::Neon,
        Kind::BitslicedWide,
        Kind::BitslicedPortable,
        Kind::BitslicedNarrow,
        Kind::Ttable,
        Kind::Reference,
        Kind::IpCore,
    ];

    /// The stable token naming this kind in [`FORCE_ENV`] and telemetry.
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            Kind::AesNi => "aesni",
            Kind::Neon => "neon",
            Kind::BitslicedWide => "bitsliced-wide",
            Kind::BitslicedPortable => "bitsliced-portable",
            Kind::BitslicedNarrow => "bitsliced-narrow",
            Kind::Ttable => "ttable",
            Kind::Reference => "reference",
            Kind::IpCore => "ip-core",
        }
    }

    /// The backend name this kind surfaces as in `engine.core.<i>.<name>`
    /// telemetry when an engine farm slot dispatches to it.
    #[must_use]
    pub fn backend_name(self) -> &'static str {
        match self {
            Kind::AesNi => "soft-aesni",
            Kind::Neon => "soft-neon",
            Kind::BitslicedWide => "soft-bitsliced-wide",
            Kind::BitslicedPortable => "soft-bitsliced-portable",
            Kind::BitslicedNarrow => "soft-bitsliced-narrow",
            Kind::Ttable => "soft-ttable",
            Kind::Reference => "soft-ref",
            Kind::IpCore => "ip-encdec",
        }
    }

    /// Parses a [`Kind::token`] back into a kind.
    ///
    /// # Errors
    ///
    /// [`UnknownBackend`] when `token` names nothing; the caller decides
    /// how loudly to fail ([`forced`] panics).
    pub fn from_token(token: &str) -> Result<Kind, UnknownBackend> {
        Kind::ALL
            .into_iter()
            .find(|k| k.token() == token)
            .ok_or_else(|| UnknownBackend {
                token: token.to_string(),
            })
    }

    /// `true` when this CPU (and compilation target) can run the kind.
    #[must_use]
    pub fn available(self) -> bool {
        match self {
            Kind::AesNi => cpu().aesni,
            Kind::Neon => cpu().neon_aes,
            Kind::BitslicedWide => cpu().avx2,
            Kind::BitslicedPortable
            | Kind::BitslicedNarrow
            | Kind::Ttable
            | Kind::Reference
            | Kind::IpCore => true,
        }
    }

    /// `true` when the kind's per-block path is branch-free and free of
    /// secret-indexed loads. Only constant-time kinds enter the
    /// [`selection`] micro-race; the others require the explicit
    /// [`FORCE_ENV`] override.
    #[must_use]
    pub fn constant_time(self) -> bool {
        !matches!(self, Kind::Ttable | Kind::Reference | Kind::IpCore)
    }

    /// Every kind available on this host, in [`Kind::ALL`] order.
    #[must_use]
    pub fn detected() -> Vec<Kind> {
        Kind::ALL.into_iter().filter(|k| k.available()).collect()
    }
}

/// A [`FORCE_ENV`]/[`Kind::from_token`] token that names no backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownBackend {
    /// The token that failed to parse.
    pub token: String,
}

impl std::fmt::Display for UnknownBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown backend token {:?}; valid tokens: ", self.token)?;
        for (i, k) in Kind::ALL.into_iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_str(k.token())?;
        }
        Ok(())
    }
}

impl std::error::Error for UnknownBackend {}

/// The backend pinned by [`FORCE_ENV`], if the variable is set
/// (cached; an empty value counts as unset).
///
/// # Panics
///
/// Panics on an unknown token or on a kind this CPU cannot run — a
/// forced backend must never silently fall back to something else.
pub fn forced() -> Option<Kind> {
    static FORCED: OnceLock<Option<Kind>> = OnceLock::new();
    *FORCED.get_or_init(|| {
        let token = std::env::var(FORCE_ENV).ok()?;
        if token.is_empty() {
            return None;
        }
        let kind = match Kind::from_token(&token) {
            Ok(kind) => kind,
            Err(e) => panic!("{FORCE_ENV}: {e}"),
        };
        assert!(
            kind.available(),
            "{FORCE_ENV}={token}: backend is not available on this CPU \
             (detected: {:?})",
            cpu()
        );
        Some(kind)
    })
}

/// The per-process dispatch decision (see [`selection`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Selection {
    /// Winner of the 64-block batch race — what `Auto` farm slots, and
    /// so every session op on them, run on.
    pub bulk: Kind,
    /// `true` when [`FORCE_ENV`] pinned the decision instead of the race.
    pub forced: bool,
}

/// The cached dispatch decision: the [`FORCE_ENV`] override if set,
/// otherwise the winners of the startup micro-race over every available
/// constant-time [`Kind`].
///
/// The first call publishes the decision into the global telemetry
/// registry:
///
/// * `rijndael.dispatch.backend.<token>` = 1 — the winner;
/// * `rijndael.dispatch.race.<token>.bulk_ns` — each candidate's best
///   time (absent when forced);
/// * `rijndael.dispatch.forced` gauge — 1 when pinned by [`FORCE_ENV`].
pub fn selection() -> Selection {
    static SELECTION: OnceLock<Selection> = OnceLock::new();
    *SELECTION.get_or_init(|| {
        let reg = telemetry::Registry::global();
        let sel = if let Some(kind) = forced() {
            Selection {
                bulk: kind,
                forced: true,
            }
        } else {
            race(reg)
        };
        reg.counter(&format!("rijndael.dispatch.backend.{}", sel.bulk.token()))
            .incr();
        reg.gauge("rijndael.dispatch.forced")
            .set(i64::from(sel.forced));
        sel
    })
}

/// Times every available constant-time candidate on a 64-block batch
/// and picks the fastest.
fn race(reg: &telemetry::Registry) -> Selection {
    // The throwaway race key: any fixed value works, timing does not
    // depend on key bytes for constant-time candidates.
    let key = [0x5Au8; 16];
    let mut bulk_best: Option<(u64, Kind)> = None;
    for kind in Kind::ALL {
        if !kind.available() || !kind.constant_time() {
            continue;
        }
        let cipher =
            AutoCipher::for_kind(kind, &key).expect("constant-time kinds always build a cipher");
        let bulk_ns = time_min(|| {
            let mut blocks = [[0xC3u8; 16]; RACE_BULK_BLOCKS];
            cipher.encrypt_blocks(&mut blocks);
            blocks
        });
        reg.counter(&format!("rijndael.dispatch.race.{}.bulk_ns", kind.token()))
            .add(bulk_ns);
        if bulk_best.is_none_or(|(best, _)| bulk_ns < best) {
            bulk_best = Some((bulk_ns, kind));
        }
    }
    // BitslicedPortable is unconditionally available, so the race cannot
    // come up empty.
    let (_, bulk) = bulk_best.expect("the portable bitsliced plane always races");
    Selection {
        bulk,
        forced: false,
    }
}

/// Minimum wall-clock nanoseconds over [`RACE_REPS`] runs of `f` (plus
/// one untimed warmup), with the result black-boxed so the work is not
/// optimised away.
fn time_min<T>(mut f: impl FnMut() -> T) -> u64 {
    core::hint::black_box(f());
    let mut best = u64::MAX;
    for _ in 0..RACE_REPS {
        let start = std::time::Instant::now();
        core::hint::black_box(f());
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        best = best.min(ns);
    }
    best
}

/// The dispatched cipher: whatever [`Kind`] won (or was forced), behind
/// the ordinary [`BlockCipher`]/[`BatchCipher`] traits.
///
/// This is what the engine's `BackendSpec::Auto` farm slots hold, and
/// so what a service session on the default farm computes every op
/// with; the session holds no cipher of its own.
#[derive(Clone)]
pub struct AutoCipher {
    kind: Kind,
    inner: Inner,
}

#[derive(Clone)]
enum Inner {
    // Boxed: the two max-15-entry round-key schedules are ~480 bytes
    // inline, dwarfing every other variant.
    #[cfg(target_arch = "x86_64")]
    AesNi(Box<crate::aesni::AesNi>),
    #[cfg(target_arch = "aarch64")]
    Neon(Box<crate::neon::NeonAes>),
    Bitsliced(Bitsliced8),
    Ttable(TtableAes),
    Reference(Rijndael<4>),
}

impl AutoCipher {
    /// Builds the cipher the process-wide [`selection`] picked, or
    /// `None` when the selection (necessarily forced) is
    /// [`Kind::IpCore`], which has no in-crate cipher — callers then
    /// route everything through an engine farm instead. `key` is 16, 24,
    /// or 32 bytes (AES-128/192/256).
    ///
    /// # Panics
    ///
    /// Panics on an invalid key length — lengths are validated at the
    /// service boundary before any backend is keyed.
    #[must_use]
    pub fn new(key: &[u8]) -> Option<Self> {
        Self::for_kind(selection().bulk, key)
    }

    /// Builds a specific kind, or `None` for [`Kind::IpCore`].
    ///
    /// # Panics
    ///
    /// Panics when `kind` is not [`Kind::available`] — forcing an absent
    /// backend must fail loudly, never silently substitute — and on an
    /// invalid key length, as in [`Self::new`].
    #[must_use]
    pub fn for_kind(kind: Kind, key: &[u8]) -> Option<Self> {
        assert!(
            kind.available(),
            "backend {} is not available on this CPU (detected: {:?})",
            kind.token(),
            cpu()
        );
        let inner = match kind {
            Kind::IpCore => return None,
            #[cfg(target_arch = "x86_64")]
            Kind::AesNi => Inner::AesNi(Box::new(
                crate::aesni::AesNi::new(key).expect("availability checked above"),
            )),
            #[cfg(not(target_arch = "x86_64"))]
            Kind::AesNi => unreachable!("AES-NI is never available off x86_64"),
            #[cfg(target_arch = "aarch64")]
            Kind::Neon => Inner::Neon(Box::new(
                crate::neon::NeonAes::new(key).expect("availability checked above"),
            )),
            #[cfg(not(target_arch = "aarch64"))]
            Kind::Neon => unreachable!("NEON is never available off aarch64"),
            Kind::BitslicedWide => Inner::Bitsliced(Bitsliced8::with_lane(key, WideLane::Avx2)),
            Kind::BitslicedPortable => {
                Inner::Bitsliced(Bitsliced8::with_lane(key, WideLane::Portable))
            }
            Kind::BitslicedNarrow => Inner::Bitsliced(Bitsliced8::with_lane(key, WideLane::Narrow)),
            Kind::Ttable => {
                Inner::Ttable(TtableAes::new(key).expect("key must be 16, 24, or 32 bytes"))
            }
            Kind::Reference => {
                Inner::Reference(Rijndael::new(key).expect("key must be 16, 24, or 32 bytes"))
            }
        };
        Some(AutoCipher { kind, inner })
    }

    /// Which implementation this cipher dispatches to.
    #[must_use]
    pub fn kind(&self) -> Kind {
        self.kind
    }

    /// Shorthand for `self.kind().backend_name()`.
    #[must_use]
    pub fn backend_name(&self) -> &'static str {
        self.kind.backend_name()
    }
}

impl BlockCipher for AutoCipher {
    fn block_len(&self) -> usize {
        16
    }

    fn encrypt_in_place(&self, block: &mut [u8]) {
        match &self.inner {
            #[cfg(target_arch = "x86_64")]
            Inner::AesNi(c) => c.encrypt_in_place(block),
            #[cfg(target_arch = "aarch64")]
            Inner::Neon(c) => c.encrypt_in_place(block),
            Inner::Bitsliced(c) => c.encrypt_in_place(block),
            Inner::Ttable(c) => c.encrypt_in_place(block),
            Inner::Reference(c) => c.encrypt_in_place(block),
        }
    }

    fn decrypt_in_place(&self, block: &mut [u8]) {
        match &self.inner {
            #[cfg(target_arch = "x86_64")]
            Inner::AesNi(c) => c.decrypt_in_place(block),
            #[cfg(target_arch = "aarch64")]
            Inner::Neon(c) => c.decrypt_in_place(block),
            Inner::Bitsliced(c) => c.decrypt_in_place(block),
            Inner::Ttable(c) => c.decrypt_in_place(block),
            Inner::Reference(c) => c.decrypt_in_place(block),
        }
    }
}

impl BatchCipher for AutoCipher {
    fn encrypt_blocks(&self, blocks: &mut [[u8; 16]]) {
        match &self.inner {
            #[cfg(target_arch = "x86_64")]
            Inner::AesNi(c) => c.encrypt_blocks(blocks),
            #[cfg(target_arch = "aarch64")]
            Inner::Neon(c) => c.encrypt_blocks(blocks),
            Inner::Bitsliced(c) => c.encrypt_blocks(blocks),
            Inner::Ttable(c) => BatchCipher::encrypt_blocks(c, blocks),
            Inner::Reference(c) => BatchCipher::encrypt_blocks(c, blocks),
        }
    }

    fn decrypt_blocks(&self, blocks: &mut [[u8; 16]]) {
        match &self.inner {
            #[cfg(target_arch = "x86_64")]
            Inner::AesNi(c) => c.decrypt_blocks(blocks),
            #[cfg(target_arch = "aarch64")]
            Inner::Neon(c) => c.decrypt_blocks(blocks),
            Inner::Bitsliced(c) => c.decrypt_blocks(blocks),
            Inner::Ttable(c) => BatchCipher::decrypt_blocks(c, blocks),
            Inner::Reference(c) => BatchCipher::decrypt_blocks(c, blocks),
        }
    }
}

impl core::fmt::Debug for AutoCipher {
    /// Never prints key material.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "AutoCipher {{ kind: {} }}", self.kind.token())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // FIPS-197 Appendix C.1.
    const KEY: [u8; 16] = [
        0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0A, 0x0B, 0x0C, 0x0D, 0x0E,
        0x0F,
    ];
    const PT: [u8; 16] = [
        0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xAA, 0xBB, 0xCC, 0xDD, 0xEE,
        0xFF,
    ];
    const CT: [u8; 16] = [
        0x69, 0xC4, 0xE0, 0xD8, 0x6A, 0x7B, 0x04, 0x30, 0xD8, 0xCD, 0xB7, 0x80, 0x70, 0xB4, 0xC5,
        0x5A,
    ];

    #[test]
    fn tokens_roundtrip_and_unknowns_fail() {
        for kind in Kind::ALL {
            assert_eq!(Kind::from_token(kind.token()), Ok(kind));
        }
        let err = Kind::from_token("not-a-real-backend").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("not-a-real-backend"), "{msg}");
        assert!(msg.contains("bitsliced-portable"), "{msg}");
    }

    #[test]
    fn the_portable_fallback_is_always_detected() {
        let detected = Kind::detected();
        assert!(detected.contains(&Kind::BitslicedPortable));
        assert!(detected.contains(&Kind::IpCore));
        for kind in detected {
            assert!(kind.available());
        }
    }

    #[test]
    fn probe_gates_match_the_kind_availability() {
        assert_eq!(Kind::AesNi.available(), cpu().aesni);
        assert_eq!(Kind::BitslicedWide.available(), cpu().avx2);
        assert_eq!(Kind::Neon.available(), cpu().neon_aes);
    }

    #[test]
    fn selection_is_available_constant_time_and_stable() {
        let first = selection();
        assert!(first.bulk.available());
        if !first.forced {
            assert!(first.bulk.constant_time());
        }
        assert_eq!(selection(), first, "cached decision must not change");
    }

    #[test]
    fn every_available_cipher_kind_passes_the_fips_kat() {
        for kind in Kind::detected() {
            let Some(cipher) = AutoCipher::for_kind(kind, &KEY) else {
                assert_eq!(kind, Kind::IpCore);
                continue;
            };
            assert_eq!(cipher.kind(), kind);
            let mut blocks = vec![PT; 11];
            cipher.encrypt_blocks(&mut blocks);
            assert!(blocks.iter().all(|b| *b == CT), "{}", kind.token());
            cipher.decrypt_blocks(&mut blocks);
            assert!(blocks.iter().all(|b| *b == PT), "{}", kind.token());

            let mut one = PT;
            cipher.encrypt_in_place(&mut one);
            assert_eq!(one, CT, "{} single block", kind.token());
        }
    }

    #[test]
    fn every_available_cipher_kind_passes_the_long_key_kats() {
        // FIPS-197 C.2/C.3: sequential key bytes, same plaintext.
        let ct192: [u8; 16] = [
            0xDD, 0xA9, 0x7C, 0xA4, 0x86, 0x4C, 0xDF, 0xE0, 0x6E, 0xAF, 0x70, 0xA0, 0xEC, 0x0D,
            0x71, 0x91,
        ];
        let ct256: [u8; 16] = [
            0x8E, 0xA2, 0xB7, 0xCA, 0x51, 0x67, 0x45, 0xBF, 0xEA, 0xFC, 0x49, 0x90, 0x4B, 0x49,
            0x60, 0x89,
        ];
        for (len, expect) in [(24usize, ct192), (32, ct256)] {
            let key: Vec<u8> = (0..len as u8).collect();
            for kind in Kind::detected() {
                let Some(cipher) = AutoCipher::for_kind(kind, &key) else {
                    assert_eq!(kind, Kind::IpCore);
                    continue;
                };
                let mut blocks = vec![PT; 11];
                cipher.encrypt_blocks(&mut blocks);
                assert!(
                    blocks.iter().all(|b| *b == expect),
                    "AES-{} {}",
                    len * 8,
                    kind.token()
                );
                cipher.decrypt_blocks(&mut blocks);
                assert!(
                    blocks.iter().all(|b| *b == PT),
                    "AES-{} {} inverse",
                    len * 8,
                    kind.token()
                );
            }
        }
    }

    #[test]
    fn auto_cipher_matches_the_selection_and_the_kat() {
        match AutoCipher::new(&KEY) {
            Some(cipher) => {
                assert_eq!(cipher.kind(), selection().bulk);
                let mut block = PT;
                cipher.encrypt_in_place(&mut block);
                assert_eq!(block, CT);
            }
            None => assert_eq!(selection().bulk, Kind::IpCore),
        }
    }

    #[test]
    #[should_panic(expected = "is not available on this CPU")]
    fn forcing_an_absent_backend_panics() {
        // At most one of AES-NI / NEON exists on any real machine, so one
        // of these constructions must panic.
        let _ = AutoCipher::for_kind(Kind::AesNi, &KEY);
        let _ = AutoCipher::for_kind(Kind::Neon, &KEY);
        unreachable!("no CPU runs both AES-NI and the ARMv8 AES extension");
    }

    #[test]
    fn debug_never_leaks_key_material() {
        let cipher = AutoCipher::for_kind(Kind::BitslicedPortable, &KEY).unwrap();
        let s = format!("{cipher:?}");
        assert!(!s.contains("00"), "{s}");
    }
}
