//! Constant-time bitsliced AES-128/192/256 processing many blocks per
//! pass.
//!
//! The table-driven implementations in this crate ([`crate::aes`],
//! [`crate::ttable`]) index lookup tables with secret bytes, which leaks
//! key material through cache timing on era-typical and modern CPUs
//! alike. This module takes the opposite approach, after Biham's
//! bitslicing construction: the cipher state of a whole *batch* of blocks
//! is transposed into **bit planes**, and every round transformation is
//! computed with pure XOR/AND/NOT word arithmetic — no secret-indexed
//! loads anywhere on the per-block path.
//!
//! # Bit-plane layout
//!
//! A batch of `8 × G` blocks becomes 32 plane words (8 bit positions × 4
//! state rows). Plane word `(b, r)` holds bit `b` of the four state bytes
//! of row `r`: its lane `c ∈ 0..4` covers state slot `j = r + 4c`
//! (FIPS-197 column-major order), and the `8 × G` bits inside a lane are
//! the blocks of the batch. Three widths share one generic core:
//!
//! * `u32` — 8-bit lanes, 8 blocks per pass: the [`Bitsliced8::encrypt8`]
//!   granule and ragged-tail fallback;
//! * `[u64; 4]` — 64-bit lanes, 64 blocks per pass: portable wide path;
//! * `__m256i` — the same 64-block pass in four AVX2 registers per plane,
//!   selected **at runtime** when [`crate::dispatch`] detects AVX2 (the
//!   binary itself stays portable baseline-x86_64). `ShiftRow` is one
//!   lane permute per row and `MixColumn`'s row rotations are free index
//!   renames, which is what makes the wide pass beat the T-table
//!   baseline by >2×.
//!
//! Which width drives the wide lane of a given cipher instance is a
//! [`WideLane`] value fixed at construction: [`Bitsliced8::new`] takes
//! the dispatch decision ([`WideLane::detect`]), and
//! [`Bitsliced8::with_lane`] pins one explicitly (the forced-backend
//! test sweeps use this).
//!
//! `ByteSub` evaluates the Boyar–Peralta 113-gate AES S-box circuit over
//! the eight planes of each row word; its inverse needs no second circuit
//! because `InvByteSub = A⁻¹ ∘ S ∘ A⁻¹` where `A` is the Rijndael affine
//! step, and `A⁻¹` is three plane XORs plus two NOTs.
//!
//! # Constant time
//!
//! Per-block processing is branch-free and index-free in secret data: the
//! pack/unpack transposes, the S-box circuit, and the linear layers touch
//! memory at addresses that depend only on batch length. Key *setup*
//! reuses the crate's [`KeySchedule`], which (like every backend here)
//! indexes the S-box table with key bytes once per re-key.
//!
//! Round keys are broadcast into per-bit lane masks and wiped on drop via
//! [`crate::zeroize::wipe_words64`].

// Bit-plane code is index arithmetic over fixed 4×8 state arrays; the
// loop-counter style mirrors the round-transform equations and is kept.
#![allow(clippy::needless_range_loop)]

use crate::cipher::BlockCipher;
use crate::key_schedule::KeySchedule;

/// Blocks per [`Bitsliced8::encrypt8`] granule.
pub const GRANULE: usize = 8;

/// Blocks per wide pass (AVX2 or portable `[u64; 4]`).
pub const WIDE: usize = 64;

/// One round's key broadcast to bit-plane masks: `rk[bit][row][lane]` is
/// all-ones when that key bit is set, all-zeroes otherwise. A schedule is
/// a slice of `rounds + 1` of these (11/13/15 for AES-128/192/256) — the
/// pass functions read the round count from the slice length.
type RkRound = [[[u64; 4]; 4]; 8];

/// One plane word: 4 lanes of `8 × GROUPS` block bits each. The round
/// core is written once against this trait; each width supplies only the
/// lane plumbing (broadcast, extract, lane rotation).
trait PlaneWord: Copy {
    /// 8-block groups per lane bit-run (1 → 8-block pass, 8 → 64-block).
    const GROUPS: usize;
    fn zero() -> Self;
    fn xor(self, other: Self) -> Self;
    fn and(self, other: Self) -> Self;
    fn not(self) -> Self;
    /// Lane rotation `out lane c = in lane (c + K) % 4`.
    fn rot_lanes<const K: u32>(self) -> Self;
    /// Packs four lane values (low `8 × GROUPS` bits each are used).
    fn from_lanes(lanes: [u64; 4]) -> Self;
    fn to_lanes(self) -> [u64; 4];
}

impl PlaneWord for u32 {
    const GROUPS: usize = 1;
    #[inline(always)]
    fn zero() -> Self {
        0
    }
    #[inline(always)]
    fn xor(self, other: Self) -> Self {
        self ^ other
    }
    #[inline(always)]
    fn and(self, other: Self) -> Self {
        self & other
    }
    #[inline(always)]
    fn not(self) -> Self {
        !self
    }
    #[inline(always)]
    fn rot_lanes<const K: u32>(self) -> Self {
        self.rotate_right(8 * K)
    }
    #[inline(always)]
    fn from_lanes(lanes: [u64; 4]) -> Self {
        (lanes[0] & 0xFF) as u32
            | (((lanes[1] & 0xFF) as u32) << 8)
            | (((lanes[2] & 0xFF) as u32) << 16)
            | (((lanes[3] & 0xFF) as u32) << 24)
    }
    #[inline(always)]
    fn to_lanes(self) -> [u64; 4] {
        [
            u64::from(self & 0xFF),
            u64::from((self >> 8) & 0xFF),
            u64::from((self >> 16) & 0xFF),
            u64::from((self >> 24) & 0xFF),
        ]
    }
}

/// Portable 64-block plane word: one `u64` per lane. When runtime
/// detection finds AVX2 the wide path uses [`simd::Avx2`] instead, but
/// this stays compiled everywhere as the [`WideLane::Portable`] plane —
/// the constant-time fallback on hosts without AVX2.
#[derive(Clone, Copy)]
struct Quad([u64; 4]);

impl PlaneWord for Quad {
    const GROUPS: usize = 8;
    // Every method is `#[inline(always)]` and closure-free so the whole
    // plane algebra flattens into the pass functions — see `xtimes`.
    #[inline(always)]
    fn zero() -> Self {
        Quad([0; 4])
    }
    #[inline(always)]
    fn xor(self, other: Self) -> Self {
        let (a, b) = (self.0, other.0);
        Quad([a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2], a[3] ^ b[3]])
    }
    #[inline(always)]
    fn and(self, other: Self) -> Self {
        let (a, b) = (self.0, other.0);
        Quad([a[0] & b[0], a[1] & b[1], a[2] & b[2], a[3] & b[3]])
    }
    #[inline(always)]
    fn not(self) -> Self {
        let a = self.0;
        Quad([!a[0], !a[1], !a[2], !a[3]])
    }
    #[inline(always)]
    fn rot_lanes<const K: u32>(self) -> Self {
        let a = self.0;
        let k = K as usize;
        Quad([a[k % 4], a[(1 + k) % 4], a[(2 + k) % 4], a[(3 + k) % 4]])
    }
    #[inline(always)]
    fn from_lanes(lanes: [u64; 4]) -> Self {
        Quad(lanes)
    }
    #[inline(always)]
    fn to_lanes(self) -> [u64; 4] {
        self.0
    }
}

/// One of the two `unsafe`-bearing modules of the crate (the other is
/// [`crate::aesni`]): value-only AVX2 intrinsics behind a **runtime**
/// feature gate.
///
/// Soundness argument: the only entry point is [`simd::run_wide`], which
/// asserts `is_x86_feature_detected!("avx2")` before entering the
/// `#[target_feature(enable = "avx2")]` pass functions, so every
/// intrinsic precondition holds on any CPU that reaches them — no
/// compile-time `target_feature` flags are involved, and the binary
/// stays a portable baseline-x86_64 artifact. All intrinsics used are
/// pure value operations (`xor`/`and`/`permute`/`set`/`extract`) — no
/// raw pointers, no aliasing, no transmutes — so no other safety
/// obligations exist. The round core is `#[inline(always)]` end to end,
/// so the whole generic pass monomorphizes *inside* the gated functions
/// and is compiled with AVX2 codegen.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd {
    use super::{PlaneWord, RkRound};
    use core::arch::x86_64::{
        __m256i, _mm256_and_si256, _mm256_extract_epi64, _mm256_permute4x64_epi64,
        _mm256_set1_epi64x, _mm256_set_epi64x, _mm256_setzero_si256, _mm256_xor_si256,
    };

    /// 64-block plane word held in one AVX2 register (lane = 64 blocks/4).
    #[derive(Clone, Copy)]
    pub(super) struct Avx2(__m256i);

    impl PlaneWord for Avx2 {
        const GROUPS: usize = 8;
        #[inline(always)]
        fn zero() -> Self {
            // SAFETY: value-only intrinsic; reached only through
            // `run_wide`, which verified AVX2 at runtime.
            Avx2(unsafe { _mm256_setzero_si256() })
        }
        #[inline(always)]
        fn xor(self, other: Self) -> Self {
            // SAFETY: as above.
            Avx2(unsafe { _mm256_xor_si256(self.0, other.0) })
        }
        #[inline(always)]
        fn and(self, other: Self) -> Self {
            // SAFETY: as above.
            Avx2(unsafe { _mm256_and_si256(self.0, other.0) })
        }
        #[inline(always)]
        fn not(self) -> Self {
            // SAFETY: as above.
            Avx2(unsafe { _mm256_xor_si256(self.0, _mm256_set1_epi64x(-1)) })
        }
        #[inline(always)]
        fn rot_lanes<const K: u32>(self) -> Self {
            // SAFETY: as above; the immediate selects lane (c + K) % 4.
            Avx2(unsafe {
                match K {
                    1 => _mm256_permute4x64_epi64(self.0, 0x39),
                    2 => _mm256_permute4x64_epi64(self.0, 0x4E),
                    3 => _mm256_permute4x64_epi64(self.0, 0x93),
                    _ => self.0,
                }
            })
        }
        #[inline(always)]
        fn from_lanes(lanes: [u64; 4]) -> Self {
            // SAFETY: as above.
            Avx2(unsafe {
                _mm256_set_epi64x(
                    lanes[3] as i64,
                    lanes[2] as i64,
                    lanes[1] as i64,
                    lanes[0] as i64,
                )
            })
        }
        #[inline(always)]
        fn to_lanes(self) -> [u64; 4] {
            // SAFETY: as above.
            unsafe {
                [
                    _mm256_extract_epi64(self.0, 0) as u64,
                    _mm256_extract_epi64(self.0, 1) as u64,
                    _mm256_extract_epi64(self.0, 2) as u64,
                    _mm256_extract_epi64(self.0, 3) as u64,
                ]
            }
        }
    }

    /// The AVX2 instantiation of the encrypt pass, compiled with the
    /// feature enabled so the `#[inline(always)]` round core vectorises.
    /// Takes *all* the 64-block chunks of a batch so the chunk loop
    /// itself lives inside the gated region — one feature-gate crossing
    /// (and one `vzeroupper`) per batch instead of per chunk, and the
    /// round-key plane loads optimise across chunks.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (checked by [`run_wide`]).
    #[target_feature(enable = "avx2")]
    unsafe fn encrypt_wide_avx2(rk: &[RkRound], chunks: &mut [[[u8; 16]; super::WIDE]]) {
        for chunk in chunks {
            super::encrypt_pass::<Avx2>(rk, chunk);
        }
    }

    /// The AVX2 instantiation of the decrypt pass (see
    /// [`encrypt_wide_avx2`]).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (checked by [`run_wide`]).
    #[target_feature(enable = "avx2")]
    unsafe fn decrypt_wide_avx2(rk: &[RkRound], chunks: &mut [[[u8; 16]; super::WIDE]]) {
        for chunk in chunks {
            super::decrypt_pass::<Avx2>(rk, chunk);
        }
    }

    /// Runs every 64-block AVX2 pass of a batch. Safe because it
    /// re-checks the cached runtime probe before entering the gated
    /// functions — constructing an AVX2-lane [`super::Bitsliced8`]
    /// already verified it, so the assert never fires in practice.
    pub(super) fn run_wide(rk: &[RkRound], chunks: &mut [[[u8; 16]; super::WIDE]], decrypt: bool) {
        assert!(
            std::arch::is_x86_feature_detected!("avx2"),
            "AVX2 lane invoked on a CPU without AVX2"
        );
        // SAFETY: the runtime probe above confirmed AVX2 on this CPU.
        unsafe {
            if decrypt {
                decrypt_wide_avx2(rk, chunks);
            } else {
                encrypt_wide_avx2(rk, chunks);
            }
        }
    }
}

/// Which plane implementation drives the 64-block wide lane of a
/// [`Bitsliced8`] instance — a **runtime** decision, not a compile-time
/// one (see [`crate::dispatch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WideLane {
    /// Four AVX2 registers per plane (`simd::Avx2`); requires the
    /// runtime probe to find AVX2.
    Avx2,
    /// The portable `[u64; 4]` plane; available everywhere.
    Portable,
    /// No wide pass at all: every batch runs 8-block `u32` granules.
    /// Exists for forced sweeps and as a measurement baseline.
    Narrow,
}

impl WideLane {
    /// The stable lane name reported in telemetry
    /// (`rijndael.bitslice.lane.wide.kind.<name>`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WideLane::Avx2 => "avx2",
            WideLane::Portable => "quad",
            WideLane::Narrow => "narrow",
        }
    }

    /// `true` when this CPU can run the lane.
    #[must_use]
    pub fn available(self) -> bool {
        match self {
            WideLane::Avx2 => cfg!(target_arch = "x86_64") && crate::dispatch::cpu().avx2,
            WideLane::Portable | WideLane::Narrow => true,
        }
    }

    /// The dispatch decision for this process: a bitsliced
    /// [`crate::dispatch::forced`] override wins, otherwise AVX2 when the
    /// runtime probe finds it, otherwise the portable plane.
    #[must_use]
    pub fn detect() -> WideLane {
        use crate::dispatch::Kind;
        match crate::dispatch::forced() {
            Some(Kind::BitslicedWide) => WideLane::Avx2,
            Some(Kind::BitslicedPortable) => WideLane::Portable,
            Some(Kind::BitslicedNarrow) => WideLane::Narrow,
            _ => {
                if WideLane::Avx2.available() {
                    WideLane::Avx2
                } else {
                    WideLane::Portable
                }
            }
        }
    }
}

/// 8×8 bit-matrix transpose: byte `b` of the result collects bit `b` of
/// each input byte (Hacker's Delight §7-3, three exchange rounds).
#[inline]
fn transpose8(mut x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^= t ^ (t << 28);
    x
}

/// Transposes `8 * T::GROUPS` blocks into bit-plane state.
#[inline(always)]
fn pack<T: PlaneWord>(blocks: &[[u8; 16]], st: &mut [[T; 4]; 8]) {
    debug_assert_eq!(blocks.len(), 8 * T::GROUPS);
    let mut planes = [[0u64; 16]; 8];
    for j in 0..16 {
        for m in 0..T::GROUPS {
            let mut w = 0u64;
            for k in 0..8 {
                w |= u64::from(blocks[8 * m + k][j]) << (8 * k);
            }
            let t = transpose8(w);
            for b in 0..8 {
                planes[b][j] |= ((t >> (8 * b)) & 0xFF) << (8 * m);
            }
        }
    }
    for b in 0..8 {
        for r in 0..4 {
            st[b][r] = T::from_lanes([
                planes[b][r],
                planes[b][r + 4],
                planes[b][r + 8],
                planes[b][r + 12],
            ]);
        }
    }
}

/// Inverse of [`pack`].
#[inline(always)]
fn unpack<T: PlaneWord>(st: &[[T; 4]; 8], blocks: &mut [[u8; 16]]) {
    debug_assert_eq!(blocks.len(), 8 * T::GROUPS);
    let mut planes = [[0u64; 16]; 8];
    for b in 0..8 {
        for r in 0..4 {
            let lanes = st[b][r].to_lanes();
            planes[b][r] = lanes[0];
            planes[b][r + 4] = lanes[1];
            planes[b][r + 8] = lanes[2];
            planes[b][r + 12] = lanes[3];
        }
    }
    for j in 0..16 {
        for m in 0..T::GROUPS {
            let mut w = 0u64;
            for b in 0..8 {
                w |= ((planes[b][j] >> (8 * m)) & 0xFF) << (8 * b);
            }
            let t = transpose8(w);
            for k in 0..8 {
                blocks[8 * m + k][j] = ((t >> (8 * k)) & 0xFF) as u8;
            }
        }
    }
}

/// The Boyar–Peralta 113-gate AES S-box over one row's eight planes.
///
/// `v[b]` is plane `b` (bit significance `b`); the circuit's `u0..u7`
/// convention is MSB-first, hence the index reversal at entry and exit.
#[inline(always)]
#[allow(clippy::similar_names)]
fn bp_sbox<T: PlaneWord>(v: [T; 8]) -> [T; 8] {
    let (u0, u1, u2, u3, u4, u5, u6, u7) = (v[7], v[6], v[5], v[4], v[3], v[2], v[1], v[0]);
    // Top linear layer.
    let y14 = u3.xor(u5);
    let y13 = u0.xor(u6);
    let y9 = u0.xor(u3);
    let y8 = u0.xor(u5);
    let t0 = u1.xor(u2);
    let y1 = t0.xor(u7);
    let y4 = y1.xor(u3);
    let y12 = y13.xor(y14);
    let y2 = y1.xor(u0);
    let y5 = y1.xor(u6);
    let y3 = y5.xor(y8);
    let t1 = u4.xor(y12);
    let y15 = t1.xor(u5);
    let y20 = t1.xor(u1);
    let y6 = y15.xor(u7);
    let y10 = y15.xor(t0);
    let y11 = y20.xor(y9);
    let y7 = u7.xor(y11);
    let y17 = y10.xor(y11);
    let y19 = y10.xor(y8);
    let y16 = t0.xor(y11);
    let y21 = y13.xor(y16);
    let y18 = u0.xor(y16);
    // Middle nonlinear layer (GF(2^4) inversion tower).
    let t2 = y12.and(y15);
    let t3 = y3.and(y6);
    let t4 = t3.xor(t2);
    let t5 = y4.and(u7);
    let t6 = t5.xor(t2);
    let t7 = y13.and(y16);
    let t8 = y5.and(y1);
    let t9 = t8.xor(t7);
    let t10 = y2.and(y7);
    let t11 = t10.xor(t7);
    let t12 = y9.and(y11);
    let t13 = y14.and(y17);
    let t14 = t13.xor(t12);
    let t15 = y8.and(y10);
    let t16 = t15.xor(t12);
    let t17 = t4.xor(t14);
    let t18 = t6.xor(t16);
    let t19 = t9.xor(t14);
    let t20 = t11.xor(t16);
    let t21 = t17.xor(y20);
    let t22 = t18.xor(y19);
    let t23 = t19.xor(y21);
    let t24 = t20.xor(y18);
    let t25 = t21.xor(t22);
    let t26 = t21.and(t23);
    let t27 = t24.xor(t26);
    let t28 = t25.and(t27);
    let t29 = t28.xor(t22);
    let t30 = t23.xor(t24);
    let t31 = t22.xor(t26);
    let t32 = t31.and(t30);
    let t33 = t32.xor(t24);
    let t34 = t23.xor(t33);
    let t35 = t27.xor(t33);
    let t36 = t24.and(t35);
    let t37 = t36.xor(t34);
    let t38 = t27.xor(t36);
    let t39 = t29.and(t38);
    let t40 = t25.xor(t39);
    let t41 = t40.xor(t37);
    let t42 = t29.xor(t33);
    let t43 = t29.xor(t40);
    let t44 = t33.xor(t37);
    let t45 = t42.xor(t41);
    let z0 = t44.and(y15);
    let z1 = t37.and(y6);
    let z2 = t33.and(u7);
    let z3 = t43.and(y16);
    let z4 = t40.and(y1);
    let z5 = t29.and(y7);
    let z6 = t42.and(y11);
    let z7 = t45.and(y17);
    let z8 = t41.and(y10);
    let z9 = t44.and(y12);
    let z10 = t37.and(y3);
    let z11 = t33.and(y4);
    let z12 = t43.and(y13);
    let z13 = t40.and(y5);
    let z14 = t29.and(y2);
    let z15 = t42.and(y9);
    let z16 = t45.and(y14);
    let z17 = t41.and(y8);
    // Bottom linear layer (output affine step folded in).
    let t46 = z15.xor(z16);
    let t47 = z10.xor(z11);
    let t48 = z5.xor(z13);
    let t49 = z9.xor(z10);
    let t50 = z2.xor(z12);
    let t51 = z2.xor(z5);
    let t52 = z7.xor(z8);
    let t53 = z0.xor(z3);
    let t54 = z6.xor(z7);
    let t55 = z16.xor(z17);
    let t56 = z12.xor(t48);
    let t57 = t50.xor(t53);
    let t58 = z4.xor(t46);
    let t59 = z3.xor(t54);
    let t60 = t46.xor(t57);
    let t61 = z14.xor(t57);
    let t62 = t52.xor(t58);
    let t63 = t49.xor(t58);
    let t64 = z4.xor(t59);
    let t65 = t61.xor(t62);
    let t66 = z1.xor(t63);
    let s0 = t59.xor(t63);
    let s6 = t56.xor(t62).not();
    let s7 = t48.xor(t60).not();
    let t67 = t64.xor(t65);
    let s3 = t53.xor(t66);
    let s4 = t51.xor(t66);
    let s5 = t47.xor(t65);
    let s1 = t64.xor(s3).not();
    let s2 = t55.xor(t67).not();
    [s7, s6, s5, s4, s3, s2, s1, s0]
}

/// Inverse Rijndael affine step on bit planes: `out_i = in_{i+2} ⊕
/// in_{i+5} ⊕ in_{i+7}` (indices mod 8), then complement planes 0 and 2.
#[inline(always)]
fn inv_affine<T: PlaneWord>(v: [T; 8]) -> [T; 8] {
    // Loop instead of `core::array::from_fn` — see `xtimes` for why.
    let mut out = [T::zero(); 8];
    for (i, o) in out.iter_mut().enumerate() {
        *o = v[(i + 2) % 8].xor(v[(i + 5) % 8]).xor(v[(i + 7) % 8]);
    }
    out[0] = out[0].not();
    out[2] = out[2].not();
    out
}

#[inline(always)]
fn sub_bytes<T: PlaneWord>(st: &mut [[T; 4]; 8]) {
    for r in 0..4 {
        let v = bp_sbox([
            st[0][r], st[1][r], st[2][r], st[3][r], st[4][r], st[5][r], st[6][r], st[7][r],
        ]);
        for (b, plane) in v.into_iter().enumerate() {
            st[b][r] = plane;
        }
    }
}

#[inline(always)]
fn inv_sub_bytes<T: PlaneWord>(st: &mut [[T; 4]; 8]) {
    for r in 0..4 {
        let v = inv_affine(bp_sbox(inv_affine([
            st[0][r], st[1][r], st[2][r], st[3][r], st[4][r], st[5][r], st[6][r], st[7][r],
        ])));
        for (b, plane) in v.into_iter().enumerate() {
            st[b][r] = plane;
        }
    }
}

#[inline(always)]
fn shift_rows<T: PlaneWord>(st: &mut [[T; 4]; 8]) {
    for planes in st.iter_mut() {
        planes[1] = planes[1].rot_lanes::<1>();
        planes[2] = planes[2].rot_lanes::<2>();
        planes[3] = planes[3].rot_lanes::<3>();
    }
}

#[inline(always)]
fn inv_shift_rows<T: PlaneWord>(st: &mut [[T; 4]; 8]) {
    for planes in st.iter_mut() {
        planes[1] = planes[1].rot_lanes::<3>();
        planes[2] = planes[2].rot_lanes::<2>();
        planes[3] = planes[3].rot_lanes::<1>();
    }
}

/// GF(2⁸) multiply-by-x of every state byte, as a plane permutation plus
/// three XORs with the modulus plane (x⁸ ≡ x⁴ + x³ + x + 1).
///
/// Plain loops, no `core::array::from_fn`: the closure thunks inside
/// `from_fn` monomorphize outside the `#[target_feature(enable =
/// "avx2")]` wrappers and are not reliably inlined back in, which left
/// non-vectorized calls in the middle of the hottest per-round function
/// (measured ~30% off the whole wide pass).
#[inline(always)]
fn xtimes<T: PlaneWord>(p: &[[T; 4]; 8]) -> [[T; 4]; 8] {
    let mut out = [[T::zero(); 4]; 8];
    for r in 0..4 {
        out[0][r] = p[7][r];
        out[1][r] = p[0][r].xor(p[7][r]);
        out[2][r] = p[1][r];
        out[3][r] = p[2][r].xor(p[7][r]);
        out[4][r] = p[3][r].xor(p[7][r]);
        out[5][r] = p[4][r];
        out[6][r] = p[5][r];
        out[7][r] = p[6][r];
    }
    out
}

/// `MixColumn`: with the column bytes renamed `a_r`, the output row is
/// `b_r = xtimes(a_r ⊕ a_{r+1}) ⊕ a_{r+1} ⊕ a_{r+2} ⊕ a_{r+3}` — the row
/// rotations are free index renames in this layout.
#[inline(always)]
fn mix_columns<T: PlaneWord>(st: &mut [[T; 4]; 8]) {
    let mut t = [[T::zero(); 4]; 8];
    let mut u = [[T::zero(); 4]; 8];
    for b in 0..8 {
        for r in 0..4 {
            let a1 = st[b][(r + 1) % 4];
            t[b][r] = st[b][r].xor(a1);
            u[b][r] = a1.xor(st[b][(r + 2) % 4]).xor(st[b][(r + 3) % 4]);
        }
    }
    let x = xtimes(&t);
    for b in 0..8 {
        for r in 0..4 {
            st[b][r] = x[b][r].xor(u[b][r]);
        }
    }
}

/// `IMixColumn` via the standard decomposition `InvMix = Mix ∘ (I ⊕ x²·E)`
/// with `E` pairing rows two apart: add `xtimes²(a_r ⊕ a_{r+2})`, then run
/// the forward `MixColumn`.
#[inline(always)]
fn inv_mix_columns<T: PlaneWord>(st: &mut [[T; 4]; 8]) {
    let mut d = [[T::zero(); 4]; 8];
    for b in 0..8 {
        for r in 0..4 {
            d[b][r] = st[b][r].xor(st[b][(r + 2) % 4]);
        }
    }
    let dd = xtimes(&xtimes(&d));
    for b in 0..8 {
        for r in 0..4 {
            st[b][r] = st[b][r].xor(dd[b][r]);
        }
    }
    mix_columns(st);
}

#[inline(always)]
fn add_round_key<T: PlaneWord>(st: &mut [[T; 4]; 8], rk: &[[[u64; 4]; 4]; 8]) {
    for b in 0..8 {
        for r in 0..4 {
            st[b][r] = st[b][r].xor(T::from_lanes(rk[b][r]));
        }
    }
}

/// Encrypts `8 * T::GROUPS` blocks through one bitsliced pass of
/// `rk.len() - 1` rounds.
#[inline(always)]
fn encrypt_pass<T: PlaneWord>(rk: &[RkRound], blocks: &mut [[u8; 16]]) {
    let last = rk.len() - 1;
    let mut st = [[T::zero(); 4]; 8];
    pack(blocks, &mut st);
    add_round_key(&mut st, &rk[0]);
    for round in &rk[1..last] {
        sub_bytes(&mut st);
        shift_rows(&mut st);
        mix_columns(&mut st);
        add_round_key(&mut st, round);
    }
    sub_bytes(&mut st);
    shift_rows(&mut st);
    add_round_key(&mut st, &rk[last]);
    unpack(&st, blocks);
}

/// Decrypts `8 * T::GROUPS` blocks through one bitsliced pass of
/// `rk.len() - 1` rounds.
#[inline(always)]
fn decrypt_pass<T: PlaneWord>(rk: &[RkRound], blocks: &mut [[u8; 16]]) {
    let last = rk.len() - 1;
    let mut st = [[T::zero(); 4]; 8];
    pack(blocks, &mut st);
    add_round_key(&mut st, &rk[last]);
    inv_shift_rows(&mut st);
    inv_sub_bytes(&mut st);
    for round in rk[1..last].iter().rev() {
        add_round_key(&mut st, round);
        inv_mix_columns(&mut st);
        inv_shift_rows(&mut st);
        inv_sub_bytes(&mut st);
    }
    add_round_key(&mut st, &rk[0]);
    unpack(&st, blocks);
}

/// Broadcasts byte-wise round keys into all-ones/all-zeroes lane masks,
/// one [`RkRound`] per round key (`rounds + 1` in total).
fn broadcast_keys(schedule: &KeySchedule) -> Box<[RkRound]> {
    let mut out: Box<[RkRound]> =
        vec![[[[0u64; 4]; 4]; 8]; schedule.rounds() + 1].into_boxed_slice();
    for (round, masks) in out.iter_mut().enumerate() {
        let mut bytes = [0u8; 16];
        for (c, word) in schedule.round_key(round).iter().enumerate() {
            bytes[4 * c..4 * c + 4].copy_from_slice(&word.to_be_bytes());
        }
        for (j, byte) in bytes.iter().enumerate() {
            let (r, c) = (j % 4, j / 4);
            for (b, plane) in masks.iter_mut().enumerate() {
                plane[r][c] = 0u64.wrapping_sub(u64::from((byte >> b) & 1));
            }
        }
    }
    out
}

/// Constant-time bitsliced AES-128/192/256 over batches of blocks (the
/// key length picks the round count; the round core is shared).
///
/// The natural granule is [`GRANULE`] (8) blocks — [`Self::encrypt8`] /
/// [`Self::decrypt8`] — and the bulk entry points [`Self::encrypt_blocks`]
/// / [`Self::decrypt_blocks`] split arbitrary batches into 64-block wide
/// passes, 8-block granules, and one zero-padded granule for a ragged
/// tail. Throughput comes from the wide pass: sizing batches in multiples
/// of [`WIDE`] keeps every lane full.
///
/// Implements [`BlockCipher`] (via a padded single-block granule) so it
/// drops into every mode and backend slot the other software ciphers fit,
/// and [`crate::cipher::BatchCipher`] for the multi-block fast paths.
///
/// # Examples
///
/// ```
/// use rijndael::{Aes128, Bitsliced8};
///
/// let key = [0x2Bu8; 16];
/// let reference = Aes128::new(&key);
/// let sliced = Bitsliced8::new(&key);
/// let mut blocks = [[0x5Au8; 16]; 8];
/// sliced.encrypt8(&mut blocks);
/// assert_eq!(blocks[3], reference.encrypt_block(&[0x5Au8; 16]));
/// ```
pub struct Bitsliced8 {
    rk: Box<[RkRound]>,
    lane: WideLane,
}

impl Bitsliced8 {
    /// Expands `key` (16, 24, or 32 bytes) and broadcasts the schedule
    /// into bit-plane masks, with the wide lane chosen by the runtime
    /// dispatch decision ([`WideLane::detect`]).
    ///
    /// # Panics
    ///
    /// Panics on an invalid key length — lengths are validated at the
    /// service boundary before any backend is keyed.
    #[must_use]
    pub fn new(key: &[u8]) -> Self {
        Self::with_lane(key, WideLane::detect())
    }

    /// Like [`Self::new`] but pins the wide lane explicitly.
    ///
    /// # Panics
    ///
    /// Panics when `lane` is not [`WideLane::available`] on this CPU —
    /// pinning a lane the hardware cannot run must fail loudly, never
    /// silently substitute another plane. Also panics on an invalid key
    /// length, as in [`Self::new`].
    #[must_use]
    pub fn with_lane(key: &[u8], lane: WideLane) -> Self {
        assert!(
            lane.available(),
            "bitsliced {} lane is not available on this CPU",
            lane.name()
        );
        let schedule = KeySchedule::expand(key, 4).expect("key must be 16, 24, or 32 bytes");
        Bitsliced8 {
            rk: broadcast_keys(&schedule),
            lane,
        }
    }

    /// The wide lane this instance was constructed with.
    #[must_use]
    pub fn lane(&self) -> WideLane {
        self.lane
    }

    /// Number of cipher rounds (10, 12, or 14).
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.rk.len() - 1
    }

    /// Encrypts 8 blocks in one constant-time pass.
    pub fn encrypt8(&self, blocks: &mut [[u8; 16]; GRANULE]) {
        encrypt_pass::<u32>(&self.rk, blocks);
    }

    /// Decrypts 8 blocks in one constant-time pass.
    pub fn decrypt8(&self, blocks: &mut [[u8; 16]; GRANULE]) {
        decrypt_pass::<u32>(&self.rk, blocks);
    }

    /// Encrypts any number of blocks: [`WIDE`] blocks per wide pass, then
    /// 8-block granules, then one zero-padded granule for the tail.
    pub fn encrypt_blocks(&self, blocks: &mut [[u8; 16]]) {
        self.process(blocks, false);
    }

    /// Decrypts any number of blocks (same splitting as
    /// [`Self::encrypt_blocks`]).
    pub fn decrypt_blocks(&self, blocks: &mut [[u8; 16]]) {
        self.process(blocks, true);
    }

    fn process(&self, blocks: &mut [[u8; 16]], decrypt: bool) {
        lane_stats().record(blocks.len(), self.lane);
        let run8 = |chunk: &mut [[u8; 16]]| {
            if decrypt {
                decrypt_pass::<u32>(&self.rk, chunk);
            } else {
                encrypt_pass::<u32>(&self.rk, chunk);
            }
        };
        let rest: &mut [[u8; 16]] = match self.lane {
            // The narrow lane skips the wide split entirely.
            WideLane::Narrow => blocks,
            lane => {
                let (wide, rest) = blocks.as_chunks_mut::<WIDE>();
                match lane {
                    #[cfg(target_arch = "x86_64")]
                    WideLane::Avx2 => simd::run_wide(&self.rk, wide, decrypt),
                    #[cfg(not(target_arch = "x86_64"))]
                    WideLane::Avx2 => {
                        unreachable!("the AVX2 lane cannot be constructed off x86_64")
                    }
                    _ => {
                        for chunk in wide {
                            if decrypt {
                                decrypt_pass::<Quad>(&self.rk, chunk);
                            } else {
                                encrypt_pass::<Quad>(&self.rk, chunk);
                            }
                        }
                    }
                }
                rest
            }
        };
        let (granules, tail) = rest.as_chunks_mut::<GRANULE>();
        for chunk in granules {
            run8(chunk);
        }
        if !tail.is_empty() {
            let mut padded = [[0u8; 16]; GRANULE];
            padded[..tail.len()].copy_from_slice(tail);
            run8(&mut padded);
            tail.copy_from_slice(&padded[..tail.len()]);
        }
    }
}

/// Which implementation backs the wide lane of a default-constructed
/// [`Bitsliced8`] on this host: the **runtime** dispatch decision
/// ([`WideLane::detect`]), not a compile-time `cfg!` answer.
#[must_use]
pub fn wide_lane() -> &'static str {
    WideLane::detect().name()
}

/// Global-registry counters for the lane split of [`Bitsliced8::process`]:
/// `rijndael.bitslice.lane.wide.blocks` counts blocks that rode a full
/// [`WIDE`] pass (the `avx2`/`quad` plane — see
/// `rijndael.bitslice.lane.wide.kind`, which names the *detected* lane of
/// this process), `...lane.narrow.blocks` counts blocks handled by the
/// 8-block `u32` granule path (padded tails count the real blocks only;
/// on a [`WideLane::Narrow`] instance every block counts as narrow).
struct LaneStats {
    wide: telemetry::Counter,
    narrow: telemetry::Counter,
}

impl LaneStats {
    fn record(&self, blocks: usize, lane: WideLane) {
        let wide = if lane == WideLane::Narrow {
            0
        } else {
            blocks - blocks % WIDE
        };
        if wide > 0 {
            self.wide.add(wide as u64);
        }
        if blocks > wide {
            self.narrow.add((blocks - wide) as u64);
        }
    }
}

fn lane_stats() -> &'static LaneStats {
    static STATS: std::sync::OnceLock<LaneStats> = std::sync::OnceLock::new();
    STATS.get_or_init(|| {
        let reg = telemetry::Registry::global();
        // A gauge has no natural string value, so the lane kind is encoded
        // in a counter name holding 1 — stable to read, zero overhead.
        reg.counter(&format!("rijndael.bitslice.lane.wide.kind.{}", wide_lane()))
            .incr();
        LaneStats {
            wide: reg.counter("rijndael.bitslice.lane.wide.blocks"),
            narrow: reg.counter("rijndael.bitslice.lane.narrow.blocks"),
        }
    })
}

impl Clone for Bitsliced8 {
    fn clone(&self) -> Self {
        Bitsliced8 {
            rk: self.rk.clone(),
            lane: self.lane,
        }
    }
}

impl core::fmt::Debug for Bitsliced8 {
    /// Never prints key material.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Bitsliced8 {{ rounds: {}, wide: 64 }}", self.rounds())
    }
}

impl Drop for Bitsliced8 {
    /// Wipes the broadcast round-key masks (see [`crate::zeroize`]).
    fn drop(&mut self) {
        crate::zeroize::wipe_words64(
            self.rk
                .as_flattened_mut()
                .as_flattened_mut()
                .as_flattened_mut(),
        );
    }
}

impl BlockCipher for Bitsliced8 {
    fn block_len(&self) -> usize {
        16
    }

    fn encrypt_in_place(&self, block: &mut [u8]) {
        assert_eq!(block.len(), 16, "Bitsliced8 encrypts 16-byte blocks");
        let mut padded = [[0u8; 16]; GRANULE];
        padded[0].copy_from_slice(block);
        self.encrypt8(&mut padded);
        block.copy_from_slice(&padded[0]);
    }

    fn decrypt_in_place(&self, block: &mut [u8]) {
        assert_eq!(block.len(), 16, "Bitsliced8 decrypts 16-byte blocks");
        let mut padded = [[0u8; 16]; GRANULE];
        padded[0].copy_from_slice(block);
        self.decrypt8(&mut padded);
        block.copy_from_slice(&padded[0]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Aes128;

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

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn random_blocks(n: usize, seed: u64) -> Vec<[u8; 16]> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| core::array::from_fn(|_| (xorshift(&mut s) >> 32) as u8))
            .collect()
    }

    #[test]
    fn sbox_circuit_matches_table_for_all_bytes() {
        // Eight granules of 8 distinct bytes apiece sweep a plane-aligned
        // slice of inputs; four sweeps with different offsets cover all
        // 256 bytes in every state slot position 0 and 5.
        let cipher = Bitsliced8::new(&KEY);
        let reference = Aes128::new(&KEY);
        for base in 0..32u16 {
            let mut group: [[u8; 16]; 8] = core::array::from_fn(|k| {
                let v = (base as u8).wrapping_mul(8).wrapping_add(k as u8);
                let mut b = [v; 16];
                b[5] = v.wrapping_add(97);
                b
            });
            let expect: Vec<[u8; 16]> = group.iter().map(|b| reference.encrypt_block(b)).collect();
            cipher.encrypt8(&mut group);
            assert_eq!(group.to_vec(), expect, "granule base {base}");
        }
    }

    #[test]
    fn fips197_c1_known_answer_through_both_cores() {
        let cipher = Bitsliced8::new(&KEY);

        let mut granule = [PT; 8];
        cipher.encrypt8(&mut granule);
        assert!(granule.iter().all(|b| *b == CT), "8-block core KAT");
        cipher.decrypt8(&mut granule);
        assert!(granule.iter().all(|b| *b == PT), "8-block core inverse");

        let mut wide = vec![PT; WIDE];
        cipher.encrypt_blocks(&mut wide);
        assert!(wide.iter().all(|b| *b == CT), "wide core KAT");
        cipher.decrypt_blocks(&mut wide);
        assert!(wide.iter().all(|b| *b == PT), "wide core inverse");
    }

    #[test]
    fn wide_and_granule_cores_agree_with_the_reference() {
        let key: [u8; 16] = core::array::from_fn(|i| (i as u8).wrapping_mul(37) ^ 0xC3);
        let cipher = Bitsliced8::new(&key);
        let reference = Aes128::new(&key);
        let original = random_blocks(WIDE, 0xB17_51ED);

        let mut wide = original.clone();
        cipher.encrypt_blocks(&mut wide);
        for (i, (got, pt)) in wide.iter().zip(&original).enumerate() {
            assert_eq!(*got, reference.encrypt_block(pt), "block {i}");
        }

        let mut granules = original.clone();
        for chunk in granules.chunks_exact_mut(GRANULE) {
            encrypt_pass::<u32>(&cipher.rk, chunk);
        }
        assert_eq!(granules, wide, "u32 core diverges from wide core");
    }

    #[test]
    fn portable_quad_core_agrees_with_the_dispatched_wide_core() {
        // On AVX2 hosts the detected lane is `Avx2` and the portable core
        // sits idle in production; keep it honest by cross-checking both
        // directions.
        let cipher = Bitsliced8::new(&KEY);
        let original = random_blocks(WIDE, 0x0DD5EED);
        let mut via_dispatch = original.clone();
        cipher.encrypt_blocks(&mut via_dispatch);
        let mut via_quad = original.clone();
        encrypt_pass::<Quad>(&cipher.rk, &mut via_quad);
        assert_eq!(via_quad, via_dispatch);
        decrypt_pass::<Quad>(&cipher.rk, &mut via_quad);
        assert_eq!(via_quad, original);
    }

    #[test]
    fn every_available_lane_agrees_on_ragged_batches() {
        let expected = {
            let reference = Aes128::new(&KEY);
            random_blocks(WIDE + GRANULE + 3, 0x1A_4E5)
                .iter()
                .map(|b| reference.encrypt_block(b))
                .collect::<Vec<_>>()
        };
        let original = random_blocks(WIDE + GRANULE + 3, 0x1A_4E5);
        for lane in [WideLane::Avx2, WideLane::Portable, WideLane::Narrow] {
            if !lane.available() {
                continue;
            }
            let cipher = Bitsliced8::with_lane(&KEY, lane);
            assert_eq!(cipher.lane(), lane);
            let mut got = original.clone();
            cipher.encrypt_blocks(&mut got);
            assert_eq!(got, expected, "lane {}", lane.name());
            cipher.decrypt_blocks(&mut got);
            assert_eq!(got, original, "lane {} inverse", lane.name());
        }
    }

    #[test]
    #[cfg(not(target_arch = "x86_64"))]
    fn pinning_the_avx2_lane_off_x86_panics() {
        let caught = std::panic::catch_unwind(|| Bitsliced8::with_lane(&KEY, WideLane::Avx2));
        assert!(caught.is_err());
    }

    #[test]
    fn fips197_long_key_known_answers_on_every_available_lane() {
        // FIPS-197 C.2 (AES-192) and C.3 (AES-256) for the sequential
        // key bytes, swept across every lane and both split paths.
        let cases: [(usize, usize, [u8; 16]); 2] = [
            (
                24,
                12,
                [
                    0xDD, 0xA9, 0x7C, 0xA4, 0x86, 0x4C, 0xDF, 0xE0, 0x6E, 0xAF, 0x70, 0xA0, 0xEC,
                    0x0D, 0x71, 0x91,
                ],
            ),
            (
                32,
                14,
                [
                    0x8E, 0xA2, 0xB7, 0xCA, 0x51, 0x67, 0x45, 0xBF, 0xEA, 0xFC, 0x49, 0x90, 0x4B,
                    0x49, 0x60, 0x89,
                ],
            ),
        ];
        for (len, rounds, expect) in cases {
            let key: Vec<u8> = (0..len as u8).collect();
            for lane in [WideLane::Avx2, WideLane::Portable, WideLane::Narrow] {
                if !lane.available() {
                    continue;
                }
                let cipher = Bitsliced8::with_lane(&key, lane);
                assert_eq!(cipher.rounds(), rounds);
                let mut blocks = vec![PT; WIDE + 3];
                cipher.encrypt_blocks(&mut blocks);
                assert!(
                    blocks.iter().all(|b| *b == expect),
                    "AES-{} lane {} KAT",
                    len * 8,
                    lane.name()
                );
                cipher.decrypt_blocks(&mut blocks);
                assert!(
                    blocks.iter().all(|b| *b == PT),
                    "AES-{} lane {} inverse",
                    len * 8,
                    lane.name()
                );
            }
        }
    }

    #[test]
    fn long_keys_agree_with_the_reference_on_random_batches() {
        let key192: Vec<u8> = (0..24u8).map(|i| i.wrapping_mul(7) ^ 0x1D).collect();
        let key256: Vec<u8> = (0..32u8).map(|i| i.wrapping_mul(5) ^ 0xB2).collect();
        let original = random_blocks(WIDE + 5, 0x256_192);

        let cipher = Bitsliced8::new(&key192);
        let reference = crate::Aes192::new(&key192.clone().try_into().unwrap());
        let mut got = original.clone();
        cipher.encrypt_blocks(&mut got);
        for (i, (g, pt)) in got.iter().zip(&original).enumerate() {
            assert_eq!(*g, reference.encrypt_block(pt), "aes-192 block {i}");
        }
        cipher.decrypt_blocks(&mut got);
        assert_eq!(got, original, "aes-192 roundtrip");

        let cipher = Bitsliced8::new(&key256);
        let reference = crate::Aes256::new(&key256.clone().try_into().unwrap());
        let mut got = original.clone();
        cipher.encrypt_blocks(&mut got);
        for (i, (g, pt)) in got.iter().zip(&original).enumerate() {
            assert_eq!(*g, reference.encrypt_block(pt), "aes-256 block {i}");
        }
        cipher.decrypt_blocks(&mut got);
        assert_eq!(got, original, "aes-256 roundtrip");
    }

    #[test]
    fn ragged_tails_match_the_reference_both_directions() {
        let cipher = Bitsliced8::new(&KEY);
        let reference = Aes128::new(&KEY);
        for n in 1..=23usize {
            let original = random_blocks(n, 0xDEAD + n as u64);
            let mut enc = original.clone();
            cipher.encrypt_blocks(&mut enc);
            for (got, pt) in enc.iter().zip(&original) {
                assert_eq!(*got, reference.encrypt_block(pt), "encrypt n={n}");
            }
            let mut dec = enc.clone();
            cipher.decrypt_blocks(&mut dec);
            assert_eq!(dec, original, "decrypt n={n}");
        }
    }

    #[test]
    fn block_cipher_impl_roundtrips_single_blocks() {
        let cipher = Bitsliced8::new(&KEY);
        let mut block = PT;
        cipher.encrypt_in_place(&mut block);
        assert_eq!(block, CT);
        cipher.decrypt_in_place(&mut block);
        assert_eq!(block, PT);
    }

    #[test]
    fn rekeying_after_drop_yields_a_fresh_correct_cipher() {
        let first = Bitsliced8::new(&KEY);
        let mut g = [PT; 8];
        first.encrypt8(&mut g);
        assert_eq!(g[0], CT);
        drop(first);
        let second = Bitsliced8::new(&KEY);
        let mut g = [PT; 8];
        second.encrypt8(&mut g);
        assert_eq!(g[0], CT);
    }

    #[test]
    fn dropping_a_clone_leaves_the_original_usable() {
        let original = Bitsliced8::new(&KEY);
        drop(original.clone());
        let mut g = [PT; 8];
        original.encrypt8(&mut g);
        assert_eq!(g[0], CT);
    }

    #[test]
    fn debug_never_leaks_key_material() {
        let cipher = Bitsliced8::new(&KEY);
        let s = format!("{cipher:?}");
        assert!(!s.contains("00"), "{s}");
    }
}
