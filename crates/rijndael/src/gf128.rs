//! Carry-less multiplication in GF(2^128) for GHASH (NIST SP 800-38D).
//!
//! The GHASH field is GF(2)\[x\] / (x^128 + x^7 + x^2 + x + 1) with SP
//! 800-38D's *reflected* bit order: bit 0 of a block (the MSB of byte 0)
//! is the coefficient of x^0, and bit 127 (the LSB of byte 15) is the
//! coefficient of x^127. Loading a block with `u128::from_be_bytes` puts
//! the coefficient of x^i at u128 bit `127 - i`, so *multiplying by x*
//! is a **right** shift with a conditional reduction by
//! `0xE1 << 120` (x^7 + x^2 + x + 1 at the top of the word).
//!
//! Two multiplier cores share one public surface, mirroring the way
//! [`crate::bitslice`] and [`crate::aesni`] split the AES data path:
//!
//! * [`GfTable`] — Shoup's 4-bit table method: 16 precomputed multiples
//!   of the (secret) hash subkey `H`, walked nibble-by-nibble with a
//!   16-entry reduction table. The table *indices* come from GHASH input
//!   (AAD and ciphertext — public values in GCM), never from `H`
//!   itself, so the secret-dependent-lookup objection to the T-tables
//!   does not apply here. This is the sibling of the in-repo
//!   [`gf256`-style](crate::diffusion) table fields, lifted to 128 bits.
//! * [`pclmul`] — the x86 `PCLMULQDQ` carry-less multiplier behind the
//!   same runtime-probe contract as [`crate::aesni`]: the
//!   [`crate::dispatch::cpu`] probe gains a `pclmul` flag, and the
//!   kernel is only reachable once [`pclmul::available`] returned true.
//!
//! Correctness of both cores is anchored to [`mul_bitwise`], a 128-step
//! shift-and-add reference, and to the NIST GCM vectors in
//! `tests/aead_kats.rs`.

/// The reduction constant: x^7 + x^2 + x + 1 in the reflected layout,
/// applied when a multiplication by x shifts a set bit out of x^127.
const R: u128 = 0xE1 << 120;

/// Multiplies a field element by x (degree +1): right shift in the
/// reflected representation, reducing when x^128 appears.
#[inline]
#[must_use]
pub fn mul_x(v: u128) -> u128 {
    let carry = v & 1;
    (v >> 1) ^ (R * carry)
}

/// Bitwise shift-and-add product — the reference the table and
/// `PCLMULQDQ` cores are tested against. 128 steps, branch-free.
#[must_use]
pub fn mul_bitwise(x: u128, y: u128) -> u128 {
    let mut z = 0u128;
    let mut v = y;
    for i in 0..128 {
        // Bit i of the block string = u128 bit 127 - i = coefficient x^i.
        let coeff = (x >> (127 - i)) & 1;
        z ^= v * coeff;
        v = mul_x(v);
    }
    z
}

/// Per-nibble reduction for the 4-bit table walk: entry `r` is the field
/// value of `r`'s overflow bits (degrees 128..=131) folded back below
/// x^128, as the top 16 bits of the reflected word.
///
/// Entry `r` with nibble bit 3 (value 8) set contributes x^128, bit 0
/// (value 1) contributes x^131.
const REM_4BIT: [u16; 16] = [
    0x0000, 0x1C20, 0x3840, 0x2460, 0x7080, 0x6CA0, 0x48C0, 0x54E0, 0xE100, 0xFD20, 0xD940, 0xC560,
    0x9180, 0x8DA0, 0xA9C0, 0xB5E0,
];

/// Shoup's 4-bit table for a fixed multiplicand `H`: the 16 products
/// `n · H` for every 4-bit polynomial `n`, plus the walk that evaluates
/// `X · H` in 32 nibble steps (Horner in x^4).
///
/// The table caches 256 bytes of key-derived material, so [`Drop`] wipes
/// it through [`crate::zeroize`] exactly like a round-key schedule.
pub struct GfTable {
    /// `table[n] = poly(n) · H` where nibble bit 3 (value 8) is the
    /// constant term: `table[8] = H`, `table[4] = H·x`, `table[2] =
    /// H·x²`, `table[1] = H·x³`.
    table: [u128; 16],
}

impl GfTable {
    /// Precomputes the 16 multiples of `h` (a block in GHASH byte
    /// order).
    #[must_use]
    pub fn new(h: &[u8; 16]) -> Self {
        let h = u128::from_be_bytes(*h);
        let mut table = [0u128; 16];
        table[8] = h;
        table[4] = mul_x(table[8]);
        table[2] = mul_x(table[4]);
        table[1] = mul_x(table[2]);
        // Composites: XOR of the single-bit entries.
        for n in 1..16usize {
            if !n.is_power_of_two() {
                let low = n & n.wrapping_neg();
                table[n] = table[low] ^ table[n ^ low];
            }
        }
        GfTable { table }
    }

    /// `X · H` via the 4-bit walk: nibbles of `x` from the highest
    /// degree (low nibble of byte 15) down, shifting the accumulator by
    /// x^4 and folding the four overflow bits with `REM_4BIT`.
    #[must_use]
    pub fn mul(&self, x: u128) -> u128 {
        let bytes = x.to_be_bytes();
        let mut z = 0u128;
        let mut first = true;
        for i in (0..16).rev() {
            for nibble in [bytes[i] & 0x0F, bytes[i] >> 4] {
                if !first {
                    let rem = (z & 0x0F) as usize;
                    z >>= 4;
                    z ^= u128::from(REM_4BIT[rem]) << 112;
                }
                first = false;
                z ^= self.table[nibble as usize];
            }
        }
        z
    }
}

impl core::fmt::Debug for GfTable {
    /// Never prints the (key-derived) table contents.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("GfTable { entries: 16 }")
    }
}

impl Clone for GfTable {
    fn clone(&self) -> Self {
        GfTable { table: self.table }
    }
}

impl Drop for GfTable {
    /// Wipes the key-derived multiples (see [`crate::zeroize`];
    /// `wipe_u128` is the 128-bit sibling added for this table).
    fn drop(&mut self) {
        crate::zeroize::wipe_u128(&mut self.table);
    }
}

/// One of the `unsafe`-bearing modules of the crate (with
/// [`crate::aesni`] and the AVX2 lane of [`crate::bitslice`]): the x86
/// `PCLMULQDQ` carry-less multiplier behind a **runtime** feature gate.
///
/// Soundness argument: the only entry point is [`pclmul::mul`], which is
/// safe because it asserts the cached [`available`](pclmul::available)
/// probe before entering the `#[target_feature]` kernel; all intrinsics
/// used are pure value operations plus unaligned loads/stores of local
/// `[u8; 16]` buffers.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub mod pclmul {
    use core::arch::x86_64::{
        __m128i, _mm_clmulepi64_si128, _mm_loadu_si128, _mm_or_si128, _mm_setzero_si128,
        _mm_slli_epi32, _mm_slli_si128, _mm_srli_epi32, _mm_srli_si128, _mm_storeu_si128,
        _mm_xor_si128,
    };

    /// `true` when this CPU executes `PCLMULQDQ` (cached probe).
    #[must_use]
    pub fn available() -> bool {
        static PROBE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *PROBE.get_or_init(|| std::arch::is_x86_feature_detected!("pclmulqdq"))
    }

    /// GHASH product of two field elements in the reflected (`u128`
    /// big-endian block) representation.
    ///
    /// # Panics
    ///
    /// Panics when the CPU lacks `PCLMULQDQ` — callers gate on
    /// [`available`], and reaching the kernel without the instruction
    /// must fail loudly.
    #[must_use]
    pub fn mul(x: u128, y: u128) -> u128 {
        assert!(available(), "PCLMULQDQ kernel invoked without CPU support");
        // SAFETY: the runtime probe above confirmed PCLMULQDQ.
        unsafe { gfmul(x, y) }
    }

    /// How many blocks [`fold`] aggregates per reduction; callers keep
    /// this many descending subkey powers on hand.
    pub const FOLD_WIDTH: usize = 8;

    /// Aggregated GHASH fold (Gueron's aggregated reduction): returns
    ///
    /// `(y ⊕ x₁)·h₁ ⊕ x₂·h₂ ⊕ … ⊕ xₙ·hₙ`
    ///
    /// with a **single** polynomial reduction for the whole span. When
    /// the caller passes descending subkey powers `hᵢ = H^(n-i+1)` this
    /// advances the GHASH accumulator by `n` blocks in one call — the
    /// throughput trick that lets GHASH keep pace with pipelined
    /// hardware AES keystream.
    ///
    /// # Panics
    ///
    /// Panics when the CPU lacks `PCLMULQDQ`, when `xs` and `hs` differ
    /// in length, or when more than [`FOLD_WIDTH`] blocks are passed.
    #[must_use]
    pub fn fold(y: u128, xs: &[u128], hs: &[u128]) -> u128 {
        assert!(available(), "PCLMULQDQ kernel invoked without CPU support");
        assert_eq!(xs.len(), hs.len(), "one subkey power per block");
        assert!(xs.len() <= FOLD_WIDTH, "fold span exceeds FOLD_WIDTH");
        // SAFETY: the runtime probe above confirmed PCLMULQDQ.
        unsafe { gffold(y, xs, hs) }
    }

    /// Carry-less multiply + reduction (Gueron & Kounavis, "Intel
    /// Carry-Less Multiplication Instruction and its Usage for Computing
    /// the GCM Mode", Algorithm 2).
    ///
    /// The GHASH bit order is the reverse of the `PCLMULQDQ` bit order,
    /// so operands are fed in **byte-reversed** (`to_le_bytes` of the
    /// big-endian-loaded value); the 256-bit product is then one bit
    /// short of byte-reversed and is fixed with a shift-left-by-1 before
    /// reducing modulo the reflected polynomial.
    ///
    /// # Safety
    ///
    /// The CPU must support `PCLMULQDQ` (checked by [`mul`]).
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn gfmul(x: u128, y: u128) -> u128 {
        // Byte-reverse into PCLMUL's little-endian bit order.
        let xb = x.to_le_bytes();
        let yb = y.to_le_bytes();
        let a = _mm_loadu_si128(xb.as_ptr().cast::<__m128i>());
        let b = _mm_loadu_si128(yb.as_ptr().cast::<__m128i>());

        // 256-bit carry-less product in (tmp3 = low, tmp6 = high).
        let mut tmp3 = _mm_clmulepi64_si128(a, b, 0x00);
        let tmp4 = _mm_clmulepi64_si128(a, b, 0x10);
        let tmp5 = _mm_clmulepi64_si128(a, b, 0x01);
        let mut tmp6 = _mm_clmulepi64_si128(a, b, 0x11);
        let mid = _mm_xor_si128(tmp4, tmp5);
        tmp3 = _mm_xor_si128(tmp3, _mm_slli_si128(mid, 8));
        tmp6 = _mm_xor_si128(tmp6, _mm_srli_si128(mid, 8));

        shift_reduce(tmp3, tmp6)
    }

    /// Accumulated Karatsuba products over up to [`FOLD_WIDTH`] blocks,
    /// one [`shift_reduce`] at the end. Each block costs three `clmul`s
    /// (low, high, and the folded middle term); the middle terms are
    /// recovered from the accumulated low/high sums after the loop.
    ///
    /// # Safety
    ///
    /// The CPU must support `PCLMULQDQ` (checked by [`fold`]).
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn gffold(y: u128, xs: &[u128], hs: &[u128]) -> u128 {
        let mut acc_lo = _mm_setzero_si128();
        let mut acc_hi = _mm_setzero_si128();
        let mut acc_mid = _mm_setzero_si128();
        let mut first = y;
        for (&x, &h) in xs.iter().zip(hs) {
            let xb = (x ^ first).to_le_bytes();
            first = 0;
            let hb = h.to_le_bytes();
            let a = _mm_loadu_si128(xb.as_ptr().cast::<__m128i>());
            let b = _mm_loadu_si128(hb.as_ptr().cast::<__m128i>());
            acc_lo = _mm_xor_si128(acc_lo, _mm_clmulepi64_si128(a, b, 0x00));
            acc_hi = _mm_xor_si128(acc_hi, _mm_clmulepi64_si128(a, b, 0x11));
            // Karatsuba middle: (a₀⊕a₁)·(b₀⊕b₁) accumulated raw; the
            // missing a₀b₀ ⊕ a₁b₁ correction is linear, so it is applied
            // once to the sums below instead of per block.
            let am = _mm_xor_si128(a, _mm_srli_si128(a, 8));
            let bm = _mm_xor_si128(b, _mm_srli_si128(b, 8));
            acc_mid = _mm_xor_si128(acc_mid, _mm_clmulepi64_si128(am, bm, 0x00));
        }
        let mid = _mm_xor_si128(acc_mid, _mm_xor_si128(acc_lo, acc_hi));
        let tmp3 = _mm_xor_si128(acc_lo, _mm_slli_si128(mid, 8));
        let tmp6 = _mm_xor_si128(acc_hi, _mm_srli_si128(mid, 8));
        shift_reduce(tmp3, tmp6)
    }

    /// Bit-order fixup and one reduction of a 256-bit carry-less product
    /// (`tmp3` low, `tmp6` high) back to the field.
    ///
    /// # Safety
    ///
    /// The CPU must support `PCLMULQDQ` (callers sit behind the probe).
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn shift_reduce(mut tmp3: __m128i, mut tmp6: __m128i) -> u128 {
        // Shift the whole 256-bit product left by one bit: the product
        // of two 128-bit reflected operands occupies bits 0..255 of a
        // 256-bit reflection, i.e. everything sits one bit low.
        let tmp7 = _mm_srli_epi32(tmp3, 31);
        let tmp8 = _mm_srli_epi32(tmp6, 31);
        tmp3 = _mm_slli_epi32(tmp3, 1);
        tmp6 = _mm_slli_epi32(tmp6, 1);
        let tmp9 = _mm_srli_si128(tmp7, 12);
        let tmp8 = _mm_slli_si128(tmp8, 4);
        let tmp7 = _mm_slli_si128(tmp7, 4);
        tmp3 = _mm_or_si128(tmp3, tmp7);
        tmp6 = _mm_or_si128(tmp6, tmp8);
        tmp6 = _mm_or_si128(tmp6, tmp9);

        // Reduce modulo x^128 + x^127 + x^126 + x^121 + 1 (the GHASH
        // polynomial seen through the bit reflection).
        let tmp7 = _mm_slli_epi32(tmp3, 31);
        let tmp8 = _mm_slli_epi32(tmp3, 30);
        let tmp9 = _mm_slli_epi32(tmp3, 25);
        let folded = _mm_xor_si128(_mm_xor_si128(tmp7, tmp8), tmp9);
        let tmp8 = _mm_srli_si128(folded, 4);
        let tmp7 = _mm_slli_si128(folded, 12);
        tmp3 = _mm_xor_si128(tmp3, tmp7);
        let t2 = _mm_srli_epi32(tmp3, 1);
        let t4 = _mm_srli_epi32(tmp3, 2);
        let t5 = _mm_srli_epi32(tmp3, 7);
        let t2 = _mm_xor_si128(_mm_xor_si128(t2, t4), _mm_xor_si128(t5, tmp8));
        tmp3 = _mm_xor_si128(tmp3, t2);
        tmp6 = _mm_xor_si128(tmp6, tmp3);

        let mut out = [0u8; 16];
        _mm_storeu_si128(out.as_mut_ptr().cast::<__m128i>(), tmp6);
        u128::from_le_bytes(out)
    }
}

/// Stub so callers can write one `pclmul::available()` gate on every
/// architecture; always `false` off x86_64.
#[cfg(not(target_arch = "x86_64"))]
pub mod pclmul {
    /// `PCLMULQDQ` is an x86 instruction; never available here.
    #[must_use]
    pub fn available() -> bool {
        false
    }

    /// Unreachable off x86_64 — callers gate on [`available`].
    #[must_use]
    pub fn mul(_x: u128, _y: u128) -> u128 {
        unreachable!("PCLMULQDQ kernel invoked on a non-x86_64 build")
    }

    /// Mirror of the x86_64 aggregation width so callers size their
    /// subkey-power arrays identically on every architecture.
    pub const FOLD_WIDTH: usize = 8;

    /// Unreachable off x86_64 — callers gate on [`available`].
    #[must_use]
    pub fn fold(_y: u128, _xs: &[u128], _hs: &[u128]) -> u128 {
        unreachable!("PCLMULQDQ kernel invoked on a non-x86_64 build")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn random_u128(state: &mut u64) -> u128 {
        (u128::from(xorshift(state)) << 64) | u128::from(xorshift(state))
    }

    // The worked multiplication from the GCM spec's validation suite:
    // H = 66e94bd4ef8a2c3b884cfa59ca342b2e (E_K(0) for the all-zero
    // AES-128 key), X = 0388dace60b6a392f328c2b971b2fe78 (first
    // ciphertext block of test case 2); X · H =
    // 5e2ec746917062882c85b0685353deb7.
    const H: u128 = 0x66E9_4BD4_EF8A_2C3B_884C_FA59_CA34_2B2E;
    const X: u128 = 0x0388_DACE_60B6_A392_F328_C2B9_71B2_FE78;
    const XH: u128 = 0x5E2E_C746_9170_6288_2C85_B068_5353_DEB7;

    #[test]
    fn bitwise_core_matches_the_nist_worked_example() {
        assert_eq!(mul_bitwise(X, H), XH);
        // The field is commutative.
        assert_eq!(mul_bitwise(H, X), XH);
    }

    #[test]
    fn multiplication_identities_hold() {
        // 1 in the reflected representation is the MSB (x^0 coefficient).
        let one = 1u128 << 127;
        let mut s = 0x9E37_79B9;
        for _ in 0..64 {
            let a = random_u128(&mut s);
            let b = random_u128(&mut s);
            let c = random_u128(&mut s);
            assert_eq!(mul_bitwise(a, one), a, "right identity");
            assert_eq!(mul_bitwise(one, a), a, "left identity");
            assert_eq!(mul_bitwise(a, 0), 0, "absorbing zero");
            assert_eq!(mul_bitwise(a, b), mul_bitwise(b, a), "commutativity");
            assert_eq!(
                mul_bitwise(a, b ^ c),
                mul_bitwise(a, b) ^ mul_bitwise(a, c),
                "distributivity"
            );
        }
    }

    #[test]
    fn table_core_matches_the_bitwise_reference() {
        let mut s = 0xC0FF_EE11;
        for _ in 0..128 {
            let h = random_u128(&mut s);
            let table = GfTable::new(&h.to_be_bytes());
            for _ in 0..8 {
                let x = random_u128(&mut s);
                assert_eq!(table.mul(x), mul_bitwise(x, h), "h={h:032x} x={x:032x}");
            }
        }
    }

    #[test]
    fn table_core_matches_the_nist_worked_example() {
        let table = GfTable::new(&H.to_be_bytes());
        assert_eq!(table.mul(X), XH);
    }

    #[test]
    fn pclmul_core_matches_the_bitwise_reference() {
        if !pclmul::available() {
            return;
        }
        assert_eq!(pclmul::mul(X, H), XH);
        let mut s = 0xB16B_00B5;
        for _ in 0..256 {
            let a = random_u128(&mut s);
            let b = random_u128(&mut s);
            assert_eq!(
                pclmul::mul(a, b),
                mul_bitwise(a, b),
                "a={a:032x} b={b:032x}"
            );
        }
    }

    #[test]
    fn sparse_and_boundary_operands_agree_across_cores() {
        let patterns: [u128; 8] = [
            0,
            1,
            1 << 127,
            u128::MAX,
            R,
            0x8000_0000_0000_0000_0000_0000_0000_0001,
            0x0101_0101_0101_0101_0101_0101_0101_0101,
            0xFFFF_0000_FFFF_0000_FFFF_0000_FFFF_0000,
        ];
        for &a in &patterns {
            let table = GfTable::new(&a.to_be_bytes());
            for &b in &patterns {
                let expect = mul_bitwise(b, a);
                assert_eq!(table.mul(b), expect, "table a={a:032x} b={b:032x}");
                if pclmul::available() {
                    assert_eq!(pclmul::mul(b, a), expect, "pclmul a={a:032x} b={b:032x}");
                }
            }
        }
    }

    #[test]
    fn debug_never_leaks_table_contents() {
        let table = GfTable::new(&H.to_be_bytes());
        let s = format!("{table:?}");
        assert!(!s.contains("66e9"), "{s}");
        assert!(!s.contains("66E9"), "{s}");
    }
}
