//! Seeded, shrinking property-test harness — an in-tree replacement for
//! the slice of `proptest` this workspace uses.
//!
//! A property test is three pieces: a [`Gen`] that produces random inputs
//! and can shrink them, a property function returning `Result<(), String>`,
//! and [`prop_check`] which drives generation, detects failures (including
//! panics), and shrinks the failing input to a local minimum before
//! reporting. Everything is seeded, so failures reproduce exactly.
//!
//! ```ignore
//! use nautilus_util::prop::{prop_check, vec_of, u64s};
//!
//! prop_check(0xSEED, 64, &vec_of(u64s(0..100), 0..20), |xs| {
//!     prop_assert!(xs.iter().sum::<u64>() >= *xs.iter().max().unwrap_or(&0));
//!     Ok(())
//! });
//! ```

use crate::rng::{Rng, SeedableRng, StdRng};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A generator of random values with shrinking.
pub trait Gen {
    /// The generated value type.
    type Value: Clone + std::fmt::Debug;

    /// Produces one random value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Candidate "smaller" versions of `v`, most aggressive first.
    /// Returning an empty vec means `v` is fully shrunk.
    fn shrink(&self, v: &Self::Value) -> Vec<Self::Value>;
}

/// Outcome of one property evaluation.
fn run_prop<V, P>(prop: &P, v: &V) -> Result<(), String>
where
    V: Clone,
    P: Fn(&V) -> Result<(), String>,
{
    match catch_unwind(AssertUnwindSafe(|| prop(v))) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic (non-string payload)".to_string());
            Err(format!("panic: {msg}"))
        }
    }
}

/// Runs `cases` random trials of `prop` over inputs from `gen`, seeded by
/// `seed`. On failure, shrinks the input to a local minimum and panics
/// with the minimal counterexample — call from `#[test]` functions.
pub fn prop_check<G, P>(seed: u64, cases: u32, gen: &G, prop: P)
where
    G: Gen,
    P: Fn(&G::Value) -> Result<(), String>,
{
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..cases {
        let input = gen.generate(&mut rng);
        if let Err(first_err) = run_prop(&prop, &input) {
            let (minimal, err, steps) = shrink_loop(gen, &prop, input, first_err);
            panic!(
                "property failed (seed={seed:#x}, case {case}/{cases}, {steps} shrink steps)\n\
                 minimal input: {minimal:?}\nerror: {err}"
            );
        }
    }
}

fn shrink_loop<G, P>(gen: &G, prop: &P, mut cur: G::Value, mut err: String) -> (G::Value, String, u32)
where
    G: Gen,
    P: Fn(&G::Value) -> Result<(), String>,
{
    let mut steps = 0u32;
    // Bounded greedy descent: take the first shrink candidate that still
    // fails, repeat until none do (or we hit the safety cap).
    'outer: while steps < 10_000 {
        for cand in gen.shrink(&cur) {
            if let Err(e) = run_prop(prop, &cand) {
                cur = cand;
                err = e;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    (cur, err, steps)
}

/// Asserts a condition inside a property, returning `Err` instead of
/// panicking so shrinking sees a clean failure.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!("assertion failed: {} ({}:{})", stringify!($cond), file!(), line!()));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!("{} ({}:{})", format!($($fmt)+), file!(), line!()));
        }
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return Err(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?} ({}:{})",
                stringify!($a), stringify!($b), a, b, file!(), line!()
            ));
        }
    }};
}

// ---------------------------------------------------------------------------
// Primitive generators
// ---------------------------------------------------------------------------

/// Shrink an integer toward `lo`: try `lo`, then halves of the distance.
fn shrink_toward_u64(v: u64, lo: u64) -> Vec<u64> {
    if v == lo {
        return Vec::new();
    }
    let mut out = vec![lo];
    let mut delta = (v - lo) / 2;
    while delta > 0 {
        let cand = v - delta;
        if cand != lo && !out.contains(&cand) {
            out.push(cand);
        }
        delta /= 2;
    }
    if v > lo {
        out.push(v - 1);
    }
    out.dedup();
    out
}

/// Generator for `u64` in `[range.start, range.end)`.
pub struct U64s(pub Range<u64>);

/// `u64` values in a half-open range.
pub fn u64s(range: Range<u64>) -> U64s {
    U64s(range)
}

impl Gen for U64s {
    type Value = u64;
    fn generate(&self, rng: &mut StdRng) -> u64 {
        rng.gen_range(self.0.clone())
    }
    fn shrink(&self, v: &u64) -> Vec<u64> {
        shrink_toward_u64(*v, self.0.start)
    }
}

/// Generator for `usize` in `[range.start, range.end)`.
pub struct Usizes(pub Range<usize>);

/// `usize` values in a half-open range.
pub fn usizes(range: Range<usize>) -> Usizes {
    Usizes(range)
}

impl Gen for Usizes {
    type Value = usize;
    fn generate(&self, rng: &mut StdRng) -> usize {
        rng.gen_range(self.0.clone())
    }
    fn shrink(&self, v: &usize) -> Vec<usize> {
        shrink_toward_u64(*v as u64, self.0.start as u64)
            .into_iter()
            .map(|x| x as usize)
            .collect()
    }
}

/// Generator for `i64` in `[range.start, range.end)`; shrinks toward 0
/// (clamped into range).
pub struct I64s(pub Range<i64>);

/// `i64` values in a half-open range.
pub fn i64s(range: Range<i64>) -> I64s {
    I64s(range)
}

impl Gen for I64s {
    type Value = i64;
    fn generate(&self, rng: &mut StdRng) -> i64 {
        rng.gen_range(self.0.clone())
    }
    fn shrink(&self, v: &i64) -> Vec<i64> {
        let target = 0i64.clamp(self.0.start, self.0.end - 1);
        if *v == target {
            return Vec::new();
        }
        let mut out = vec![target];
        let mut delta = (*v - target) / 2;
        while delta != 0 {
            let cand = *v - delta;
            if cand != target && !out.contains(&cand) {
                out.push(cand);
            }
            delta /= 2;
        }
        out.push(if *v > target { *v - 1 } else { *v + 1 });
        out.dedup();
        out
    }
}

/// Generator for `f32` in `[range.start, range.end)`; shrinks toward 0
/// (clamped into range) via halving, plus integral truncation.
pub struct F32s(pub Range<f32>);

/// `f32` values in a half-open range.
pub fn f32s(range: Range<f32>) -> F32s {
    F32s(range)
}

impl Gen for F32s {
    type Value = f32;
    fn generate(&self, rng: &mut StdRng) -> f32 {
        rng.gen_range(self.0.clone())
    }
    fn shrink(&self, v: &f32) -> Vec<f32> {
        let lo = self.0.start;
        let hi = self.0.end;
        let target = if lo <= 0.0 && 0.0 < hi { 0.0 } else { lo };
        if *v == target {
            return Vec::new();
        }
        let mut out = vec![target];
        let half = target + (*v - target) / 2.0;
        if half != *v && half != target {
            out.push(half);
        }
        let trunc = v.trunc();
        if trunc != *v && trunc >= lo && trunc < hi && trunc != target {
            out.push(trunc);
        }
        out
    }
}

/// Generator for `bool`; shrinks `true` → `false`.
pub struct Bools;

/// Random booleans.
pub fn bools() -> Bools {
    Bools
}

impl Gen for Bools {
    type Value = bool;
    fn generate(&self, rng: &mut StdRng) -> bool {
        rng.gen_bool(0.5)
    }
    fn shrink(&self, v: &bool) -> Vec<bool> {
        if *v {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

/// Generator that always yields one value (no shrinking).
pub struct Just<T: Clone + std::fmt::Debug>(pub T);

/// A constant generator.
pub fn just<T: Clone + std::fmt::Debug>(v: T) -> Just<T> {
    Just(v)
}

impl<T: Clone + std::fmt::Debug> Gen for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
    fn shrink(&self, _v: &T) -> Vec<T> {
        Vec::new()
    }
}

// ---------------------------------------------------------------------------
// Combinators
// ---------------------------------------------------------------------------

/// Generator for `Vec<T>` with a length range; shrinks by removing
/// elements (halves, then one-by-one) and by shrinking each element.
pub struct VecOf<G: Gen> {
    elem: G,
    len: Range<usize>,
}

/// Vectors of values from `elem`, with length in `len`.
pub fn vec_of<G: Gen>(elem: G, len: Range<usize>) -> VecOf<G> {
    VecOf { elem, len }
}

impl<G: Gen> Gen for VecOf<G> {
    type Value = Vec<G::Value>;

    fn generate(&self, rng: &mut StdRng) -> Vec<G::Value> {
        let n = if self.len.start >= self.len.end {
            self.len.start
        } else {
            rng.gen_range(self.len.clone())
        };
        (0..n).map(|_| self.elem.generate(rng)).collect()
    }

    fn shrink(&self, v: &Vec<G::Value>) -> Vec<Vec<G::Value>> {
        let mut out = Vec::new();
        let min = self.len.start;
        // Structural shrinks: drop chunks, then single elements.
        if v.len() > min {
            let half = (v.len() + min) / 2;
            if half < v.len() {
                out.push(v[..half].to_vec());
            }
            for i in (0..v.len()).rev() {
                if v.len() - 1 >= min {
                    let mut smaller = v.clone();
                    smaller.remove(i);
                    out.push(smaller);
                }
            }
        }
        // Element shrinks: first shrink candidate per position.
        for (i, item) in v.iter().enumerate() {
            for cand in self.elem.shrink(item).into_iter().take(2) {
                let mut copy = v.clone();
                copy[i] = cand;
                out.push(copy);
            }
        }
        out
    }
}

/// Generator mapping another generator's values (shrinks map through).
pub struct Map<G: Gen, T, F: Fn(G::Value) -> T> {
    inner: G,
    f: F,
    _t: std::marker::PhantomData<T>,
}

/// Maps `f` over `inner`'s values. Shrinking happens on the *inner*
/// representation, so `f` should be cheap and total.
pub fn map<G: Gen, T: Clone + std::fmt::Debug, F: Fn(G::Value) -> T>(inner: G, f: F) -> Map<G, T, F> {
    Map { inner, f, _t: std::marker::PhantomData }
}

impl<G: Gen, T: Clone + std::fmt::Debug, F: Fn(G::Value) -> T> Gen for Map<G, T, F> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        (self.f)(self.inner.generate(rng))
    }
    // Without the inverse of `f` we cannot shrink the mapped value; for
    // shrinkable composites, generate tuples/vecs and map inside the
    // property instead.
    fn shrink(&self, _v: &T) -> Vec<T> {
        Vec::new()
    }
}

// ---------------------------------------------------------------------------
// Bitwise differential helpers
// ---------------------------------------------------------------------------

/// `n` values in ±2 salted with the encodings a rewritten float kernel is
/// most likely to treat differently from the code it replaces: `0.0`,
/// `-0.0` and denormals. Seeded, so a property can take the seed as its
/// (shrinkable) input and rebuild the data.
pub fn salted_f32s(seed: u64, n: usize) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| match rng.gen_range(0u32..12) {
            0 => 0.0,
            1 => -0.0,
            2 => 1e-40,
            3 => -f32::MIN_POSITIVE / 2.0,
            _ => rng.gen_range(-2.0f32..2.0),
        })
        .collect()
}

/// Bit patterns of `x`, so a comparison tells `-0.0` from `0.0` (and one
/// NaN from another) where `==` on floats would not.
pub fn f32_bits(x: &[f32]) -> Vec<u32> {
    x.iter().map(|v| v.to_bits()).collect()
}

macro_rules! impl_gen_tuple {
    ($(($($g:ident : $idx:tt),+);)*) => {$(
        impl<$($g: Gen),+> Gen for ($($g,)+) {
            type Value = ($($g::Value,)+);
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
            fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink(&v.$idx) {
                        let mut copy = v.clone();
                        copy.$idx = cand;
                        out.push(copy);
                    }
                )+
                out
            }
        }
    )*};
}

impl_gen_tuple! {
    (A: 0, B: 1);
    (A: 0, B: 1, C: 2);
    (A: 0, B: 1, C: 2, D: 3);
    (A: 0, B: 1, C: 2, D: 3, E: 4);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut count = 0u32;
        let counter = std::cell::Cell::new(0u32);
        prop_check(1, 50, &u64s(0..1000), |_| {
            counter.set(counter.get() + 1);
            Ok(())
        });
        count += counter.get();
        assert_eq!(count, 50);
    }

    #[test]
    fn deterministic_across_runs() {
        let collect = |seed: u64| {
            let out = std::cell::RefCell::new(Vec::new());
            prop_check(seed, 20, &u64s(0..u64::MAX / 2), |v| {
                out.borrow_mut().push(*v);
                Ok(())
            });
            out.into_inner()
        };
        assert_eq!(collect(42), collect(42));
        assert_ne!(collect(42), collect(43));
    }

    #[test]
    fn shrinks_to_minimal_counterexample() {
        // Property "all values < 500" fails for any v >= 500; the minimal
        // failing input is exactly 500 and shrinking must find it.
        let result = catch_unwind(AssertUnwindSafe(|| {
            prop_check(7, 200, &u64s(0..10_000), |v| {
                prop_assert!(*v < 500);
                Ok(())
            });
        }));
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("minimal input: 500"), "got: {msg}");
    }

    #[test]
    fn shrinks_vec_to_minimal_length() {
        // "No vec contains a 9" — minimal counterexample is [9].
        let result = catch_unwind(AssertUnwindSafe(|| {
            prop_check(3, 300, &vec_of(u64s(0..10), 0..20), |xs| {
                prop_assert!(!xs.contains(&9), "found 9 in {xs:?}");
                Ok(())
            });
        }));
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("minimal input: [9]"), "got: {msg}");
    }

    #[test]
    fn panicking_property_is_caught_and_shrunk() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            prop_check(11, 100, &u64s(0..1000), |v| {
                assert!(*v < 800, "too big");
                Ok(())
            });
        }));
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("minimal input: 800"), "got: {msg}");
        assert!(msg.contains("panic"), "got: {msg}");
    }

    #[test]
    fn tuple_generators_shrink_componentwise() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            prop_check(5, 200, &(u64s(0..100), u64s(0..100)), |(a, b)| {
                prop_assert!(a + b < 120);
                Ok(())
            });
        }));
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        // Greedy componentwise shrinking lands on a + b == 120 exactly.
        assert!(msg.contains("minimal input: ("), "got: {msg}");
    }
}
