//! A minimal deterministic property-test harness (hermetic `proptest`
//! replacement).
//!
//! [`forall!`](crate::forall) runs a property over N pseudo-random cases. Every case seed
//! is derived from one base seed, so a failure is reproducible bit-for-bit
//! on any machine; the base seed can be overridden with the `TESTKIT_SEED`
//! environment variable and is printed in every failure report. On
//! failure the harness shrinks the counterexample by bisection (integers
//! halve toward zero, byte arrays zero progressively smaller windows,
//! vectors drop halves) and reports both the original and the shrunk
//! input.
//!
//! ```
//! use testkit::forall;
//! use testkit::prop::any;
//!
//! forall!(cases = 64, fn xor_is_involutive(a in any::<u64>(), b in any::<u64>()) {
//!     assert_eq!(a ^ b ^ b, a);
//! });
//! ```

use std::cell::{Cell, RefCell};
use std::fmt::Debug;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use crate::rng::{splitmix64, Rng};

/// Default case count, matching the workspace's historical
/// `ProptestConfig::with_cases(64)`.
pub const DEFAULT_CASES: u32 = 64;

/// Base seed used when `TESTKIT_SEED` is not set. Fixed so that CI and
/// local runs exercise identical stimulus.
pub const DEFAULT_SEED: u64 = 0xDA7E_2003_0311;

/// Upper bound on shrink iterations, to keep a pathological shrinker from
/// hanging a failing test.
const MAX_SHRINK_STEPS: usize = 500;

// ---------------------------------------------------------------------------
// Value generation
// ---------------------------------------------------------------------------

/// Types with a canonical uniform generator and a bisection shrinker.
pub trait Arbitrary: Clone + Debug {
    /// Draws a uniformly distributed value.
    fn arbitrary(rng: &mut Rng) -> Self;

    /// Candidate simpler values to try when this value falsifies a
    /// property. Candidates must be "smaller" in some well-founded sense
    /// so the shrink loop terminates.
    fn shrink(&self) -> Vec<Self> {
        Vec::new()
    }
}

macro_rules! arbitrary_uint {
    ($($t:ty => $draw:ident),+ $(,)?) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut Rng) -> Self {
                rng.$draw() as $t
            }
            fn shrink(&self) -> Vec<Self> {
                let v = *self;
                if v == 0 {
                    return Vec::new();
                }
                // Bisection toward zero, with a −1 fallback so minima that
                // are not powers of two are still reached exactly.
                let mut out = vec![0, v / 2, v - 1];
                out.dedup();
                out.retain(|&c| c != v);
                out
            }
        }
    )+};
}

arbitrary_uint! {
    u8 => gen_byte,
    u16 => next_u32,
    u32 => next_u32,
    u64 => next_u64,
    usize => next_u64,
    u128 => next_u128,
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut Rng) -> Self {
        rng.gen_bool()
    }
    fn shrink(&self) -> Vec<Self> {
        if *self {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

impl<const N: usize> Arbitrary for [u8; N] {
    fn arbitrary(rng: &mut Rng) -> Self {
        rng.gen_array()
    }
    fn shrink(&self) -> Vec<Self> {
        let mut out = Vec::new();
        // Zero aligned windows, bisecting the window size down to single
        // bytes: [0..N), [0..N/2), [N/2..N), [0..N/4), ...
        let mut window = N;
        while window >= 1 {
            for start in (0..N).step_by(window) {
                let end = (start + window).min(N);
                if self[start..end].iter().any(|&b| b != 0) {
                    let mut cand = *self;
                    cand[start..end].fill(0);
                    out.push(cand);
                }
            }
            if window == 1 {
                break;
            }
            window /= 2;
        }
        // Halve individual bytes (with a −1 fallback) so minimal
        // counterexamples are reached exactly, not just to the nearest
        // power of two.
        for i in 0..N {
            if self[i] > 1 {
                let mut cand = *self;
                cand[i] /= 2;
                out.push(cand);
                let mut cand = *self;
                cand[i] -= 1;
                out.push(cand);
            }
        }
        out
    }
}

macro_rules! arbitrary_tuple {
    ($(($($T:ident . $i:tt),+))+) => {$(
        impl<$($T: Arbitrary),+> Arbitrary for ($($T,)+) {
            fn arbitrary(rng: &mut Rng) -> Self {
                ($($T::arbitrary(rng),)+)
            }
            fn shrink(&self) -> Vec<Self> {
                let mut out = Vec::new();
                $(
                    for cand in self.$i.shrink() {
                        let mut next = self.clone();
                        next.$i = cand;
                        out.push(next);
                    }
                )+
                out
            }
        }
    )+};
}

arbitrary_tuple! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// A value generator with an attached shrinker — the binding form the
/// [`forall!`](crate::forall) macro consumes (`x in <strategy>`).
pub trait Strategy {
    /// The type of generated values.
    type Value: Clone + Debug;

    /// Draws one value.
    fn generate(&self, rng: &mut Rng) -> Self::Value;

    /// Candidate simpler values for a falsifying input.
    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        let _ = value;
        Vec::new()
    }
}

/// The canonical strategy for an [`Arbitrary`] type: `any::<[u8; 16]>()`.
pub struct Any<T>(PhantomData<T>);

/// Uniform values of `T` (the analogue of proptest's `any::<T>()`).
#[must_use]
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut Rng) -> T {
        T::arbitrary(rng)
    }
    fn shrink(&self, value: &T) -> Vec<T> {
        value.shrink()
    }
}

impl Strategy for std::ops::RangeInclusive<usize> {
    type Value = usize;
    fn generate(&self, rng: &mut Rng) -> usize {
        rng.gen_range_inclusive(self.clone())
    }
    fn shrink(&self, value: &usize) -> Vec<usize> {
        let (lo, v) = (*self.start(), *value);
        if v <= lo {
            return Vec::new();
        }
        let mut out = vec![lo, lo + (v - lo) / 2, v - 1];
        out.dedup();
        out.retain(|&c| c != v);
        out
    }
}

impl Strategy for std::ops::Range<usize> {
    type Value = usize;
    fn generate(&self, rng: &mut Rng) -> usize {
        rng.gen_range(self.clone())
    }
    fn shrink(&self, value: &usize) -> Vec<usize> {
        (self.start..=self.end - 1).shrink(value)
    }
}

/// Vectors with a length drawn from `len` and elements from `elem`
/// (the analogue of `prop::collection::vec`).
pub struct VecOf<S> {
    elem: S,
    len: std::ops::Range<usize>,
}

/// `vec_of(any::<(bool, u128)>(), 0..40)` — random-length vectors.
#[must_use]
pub fn vec_of<S: Strategy>(elem: S, len: std::ops::Range<usize>) -> VecOf<S> {
    VecOf { elem, len }
}

impl<S: Strategy> Strategy for VecOf<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut Rng) -> Self::Value {
        let n = rng.gen_range(self.len.clone());
        (0..n).map(|_| self.elem.generate(rng)).collect()
    }

    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        let min = self.len.start;
        let mut out: Vec<Self::Value> = Vec::new();
        // Length bisection: empty (or minimal), front half, back half,
        // drop-last — all clamped to the declared minimum length.
        if value.len() > min {
            out.push(value[..min].to_vec());
            let half = (value.len() / 2).max(min);
            if half < value.len() {
                out.push(value[..half].to_vec());
                out.push(value[value.len() - half..].to_vec());
            }
            out.push(value[..value.len() - 1].to_vec());
        }
        // Element-wise shrink for short vectors (kept bounded so shrink
        // rounds stay cheap on long inputs).
        if value.len() <= 8 {
            for (i, v) in value.iter().enumerate() {
                for cand in self.elem.shrink(v) {
                    let mut next = value.clone();
                    next[i] = cand;
                    out.push(next);
                }
            }
        }
        out.dedup_by(|a, b| format!("{a:?}") == format!("{b:?}"));
        out
    }
}

macro_rules! tuple_strategy {
    ($(($($S:ident . $i:tt),+ $(,)?))+) => {$(
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);
            fn generate(&self, rng: &mut Rng) -> Self::Value {
                ($(self.$i.generate(rng),)+)
            }
            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$i.shrink(&value.$i) {
                        let mut next = value.clone();
                        next.$i = cand;
                        out.push(next);
                    }
                )+
                out
            }
        }
    )+};
}

tuple_strategy! {
    (A.0,)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

thread_local! {
    static QUIET: Cell<bool> = const { Cell::new(false) };
    static LAST_PANIC: RefCell<Option<String>> = const { RefCell::new(None) };
}

static HOOK: Once = Once::new();

/// Installs (once, process-wide) a panic hook that suppresses the default
/// backtrace spew for panics the harness intentionally provokes while
/// probing shrink candidates, and forwards everything else to the
/// previous hook. The suppression flag is thread-local, so parallel test
/// threads are unaffected.
fn install_quiet_hook() {
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if QUIET.with(Cell::get) {
                let loc = info
                    .location()
                    .map(|l| format!(" (at {}:{}:{})", l.file(), l.line(), l.column()))
                    .unwrap_or_default();
                let msg = if let Some(s) = info.payload().downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = info.payload().downcast_ref::<String>() {
                    s.clone()
                } else {
                    "<non-string panic payload>".to_string()
                };
                LAST_PANIC.with(|l| *l.borrow_mut() = Some(format!("{msg}{loc}")));
            } else {
                prev(info);
            }
        }));
    });
}

/// Runs `body(value)`, returning the panic message if it fails.
fn probe<V, F: Fn(V)>(body: &F, value: V) -> Option<String> {
    install_quiet_hook();
    QUIET.with(|q| q.set(true));
    let result = panic::catch_unwind(AssertUnwindSafe(|| body(value)));
    QUIET.with(|q| q.set(false));
    match result {
        Ok(()) => None,
        Err(_) => Some(
            LAST_PANIC
                .with(|l| l.borrow_mut().take())
                .unwrap_or_else(|| "<panic>".to_string()),
        ),
    }
}

fn base_seed() -> u64 {
    match std::env::var("TESTKIT_SEED") {
        Ok(raw) => {
            let raw = raw.trim();
            let parsed = raw
                .strip_prefix("0x")
                .map_or_else(|| raw.parse(), |hex| u64::from_str_radix(hex, 16));
            parsed.unwrap_or_else(|_| panic!("TESTKIT_SEED is not a u64: {raw:?}"))
        }
        Err(_) => DEFAULT_SEED,
    }
}

/// Executes `cases` deterministic cases of a property. Used through the
/// [`forall!`](crate::forall) macro; exposed for harness self-tests.
///
/// # Panics
/// Panics with a seed-bearing report (original input, shrunk input,
/// failure message) when the property is falsified.
pub fn run_forall<S, F>(name: &str, cases: u32, strategy: &S, body: F)
where
    S: Strategy,
    F: Fn(S::Value),
{
    let seed = base_seed();
    for case in 0..cases {
        // Independent per-case seed: one SplitMix64 step over a
        // golden-ratio spaced offset of the base seed.
        let mut sm = seed ^ u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = Rng::seed_from_u64(splitmix64(&mut sm));
        let original = strategy.generate(&mut rng);
        let Some(first_msg) = probe(&body, original.clone()) else {
            continue;
        };

        // Shrink: greedily accept the first candidate that still fails,
        // until a full round of candidates all pass.
        let mut current = original.clone();
        let mut message = first_msg;
        let mut steps = 0;
        'shrinking: while steps < MAX_SHRINK_STEPS {
            for cand in strategy.shrink(&current) {
                if let Some(msg) = probe(&body, cand.clone()) {
                    current = cand;
                    message = msg;
                    steps += 1;
                    continue 'shrinking;
                }
            }
            break;
        }

        panic!(
            "forall `{name}` falsified at case {case}/{cases} \
             (base seed {seed:#x}; rerun with TESTKIT_SEED={seed})\n\
             original input: {original:?}\n\
             shrunk input ({steps} bisection steps): {current:?}\n\
             failure: {message}"
        );
    }
}

/// Declares a `#[test]` running a property over deterministic
/// pseudo-random cases:
///
/// ```ignore
/// forall!(cases = 64, fn roundtrip(key in any::<[u8; 16]>(), n in 0usize..=10) {
///     assert!(...);
/// });
/// ```
///
/// Each binding takes a [`Strategy`](crate::prop::Strategy): `any::<T>()`,
/// a `usize` range, or [`vec_of`](crate::prop::vec_of). Omitting
/// `cases = N` uses [`DEFAULT_CASES`](crate::prop::DEFAULT_CASES).
#[macro_export]
macro_rules! forall {
    (cases = $cases:expr, fn $name:ident($($bind:ident in $strat:expr),+ $(,)?) $body:block) => {
        #[test]
        fn $name() {
            let strategy = ($($strat,)+);
            $crate::prop::run_forall(
                stringify!($name),
                $cases,
                &strategy,
                |($($bind,)+)| $body,
            );
        }
    };
    (fn $name:ident($($bind:ident in $strat:expr),+ $(,)?) $body:block) => {
        $crate::forall!(cases = $crate::prop::DEFAULT_CASES,
                        fn $name($($bind in $strat),+) $body);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let counter = std::cell::Cell::new(0u32);
        run_forall("counts", 64, &(any::<u64>(),), |(v,)| {
            counter.set(counter.get() + 1);
            assert_eq!(v ^ v, 0);
        });
        assert_eq!(counter.get(), 64);
    }

    #[test]
    fn failing_property_reports_seed_and_shrinks_to_minimum() {
        let outcome = panic::catch_unwind(|| {
            run_forall("ge_ten_fails", 64, &(any::<u64>(),), |(v,)| {
                assert!(v < 10, "value {v} too large");
            });
        });
        let payload = outcome.expect_err("property must be falsified");
        let msg = payload
            .downcast_ref::<String>()
            .expect("harness panics with String")
            .clone();
        assert!(msg.contains("TESTKIT_SEED="), "{msg}");
        assert!(msg.contains("ge_ten_fails"), "{msg}");
        // Bisection must land exactly on the boundary counterexample.
        assert!(msg.contains("shrunk input"), "{msg}");
        assert!(msg.contains("(10,)"), "{msg}");
    }

    #[test]
    fn failures_are_deterministic() {
        let grab = || {
            panic::catch_unwind(|| {
                run_forall("det", 32, &(any::<[u8; 16]>(),), |(b,)| {
                    assert!(b[3] < 8);
                });
            })
            .expect_err("falsified")
            .downcast_ref::<String>()
            .expect("String payload")
            .clone()
        };
        assert_eq!(grab(), grab());
    }

    #[test]
    fn array_shrinker_zeroes_irrelevant_bytes() {
        let msg = panic::catch_unwind(|| {
            run_forall("arr", 32, &(any::<[u8; 16]>(),), |(b,)| {
                assert!(b[0] == 0, "first byte set");
            });
        })
        .expect_err("falsified")
        .downcast_ref::<String>()
        .expect("String payload")
        .clone();
        // Only byte 0 matters; the shrunk witness must be minimal: a one
        // in position 0, zeros elsewhere.
        assert!(
            msg.contains("[1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]"),
            "{msg}"
        );
    }

    #[test]
    fn vec_strategy_respects_length_bounds() {
        let strat = vec_of(any::<u8>(), 3..7);
        let mut rng = Rng::seed_from_u64(11);
        for _ in 0..200 {
            let v = strat.generate(&mut rng);
            assert!((3..7).contains(&v.len()), "len {}", v.len());
            for cand in strat.shrink(&v) {
                assert!(cand.len() >= 3, "shrink broke min length");
            }
        }
    }

    #[test]
    fn range_strategy_stays_in_range() {
        let mut rng = Rng::seed_from_u64(5);
        for _ in 0..200 {
            let v = (0usize..=10).generate(&mut rng);
            assert!(v <= 10);
        }
    }

    forall!(cases = 64, fn macro_smoke(a in any::<u64>(), b in any::<u64>()) {
        assert_eq!(a ^ b ^ b, a);
    });

    forall!(fn macro_default_cases(v in any::<u128>()) {
        assert_eq!(v.rotate_left(32).rotate_right(32), v);
    });
}
