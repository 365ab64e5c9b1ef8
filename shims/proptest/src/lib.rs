//! Offline stand-in for [`proptest`](https://crates.io/crates/proptest).
//!
//! The build environment has no registry access, so this crate implements
//! the subset of the proptest API the workspace's property tests use: the
//! [`proptest!`] macro, [`Strategy`] with `prop_map`, integer-range /
//! tuple / [`Just`] / `any::<T>()` strategies, `prop::collection::{vec,
//! hash_set}`, `prop::array::uniform{16,32}`, weighted [`prop_oneof!`], and
//! the `prop_assert*` / [`prop_assume!`] macros.
//!
//! Differences from real proptest, by design:
//!
//! * **No shrinking.** A failing case reports the generated inputs (via the
//!   panic message, so every generated value must be `Debug`) but does not
//!   minimize them.
//! * **Deterministic generation.** Each test function derives its RNG seed
//!   from its own name, so runs are reproducible without a persistence
//!   file. Set `PROPTEST_SEED=<u64>` to perturb the whole suite.

use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::ops::{Range, RangeInclusive};

/// Error type carried out of a single property-test case.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// The case's inputs were rejected by `prop_assume!`.
    Reject(String),
    /// An assertion failed.
    Fail(String),
}

impl TestCaseError {
    /// Creates a failure with the given message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// Creates a rejection with the given message.
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

/// Result alias used by generated test bodies.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Runner configuration; only `cases` is meaningful in this shim.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of successful cases required for the property to pass.
    pub cases: u32,
    /// Maximum rejected cases (via `prop_assume!`) before giving up.
    pub max_global_rejects: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256, max_global_rejects: 65536 }
    }
}

impl ProptestConfig {
    /// Config requiring `cases` successful runs.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases, ..Default::default() }
    }
}

/// Deterministic test RNG (xorshift64*), seeded per test + case.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds from a test identifier and case number (plus `PROPTEST_SEED`).
    pub fn for_case(test_id: &str, case: u64) -> Self {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        test_id.hash(&mut h);
        let env: u64 = std::env::var("PROPTEST_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0x9e3779b97f4a7c15);
        let mut state = h.finish() ^ env ^ case.wrapping_mul(0xa076_1d64_78bd_642f);
        if state == 0 {
            state = 0xdead_beef_cafe_f00d;
        }
        TestRng { state }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        // xorshift64* — adequate statistical quality for test generation.
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value below `bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        // Rejection sampling to avoid modulo bias.
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A value generator. The shim generates independently per case and does
/// not shrink.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Discards generated values failing `f` (retries, then rejects).
    fn prop_filter<F: Fn(&Self::Value) -> bool>(self, whence: &'static str, f: F) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter { inner: self, f, whence }
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for Box<dyn Strategy<Value = T>> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

/// Strategy produced by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Strategy produced by [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    f: F,
    whence: &'static str,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.generate(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!("prop_filter({}) rejected 1000 consecutive values", self.whence);
    }
}

/// Strategy yielding a constant value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical "any value" strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    /// Generates an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        rng.unit_f64()
    }
}

/// Strategy for any value of `T` (see [`any`]).
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Canonical strategy for `T`: `any::<u8>()` etc.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// String-pattern strategies: a `&str` is interpreted as a small regex
/// subset — literal characters, `[a-z0-9]`-style classes (ranges and single
/// characters), and `{n}` / `{m,n}` quantifiers. That covers the patterns
/// used as strategies in this workspace; anything fancier panics loudly.
impl Strategy for str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let mut out = String::new();
        let chars: Vec<char> = self.chars().collect();
        let mut i = 0usize;
        while i < chars.len() {
            let alphabet: Vec<char> = match chars[i] {
                '[' => {
                    let close = chars[i..]
                        .iter()
                        .position(|&c| c == ']')
                        .unwrap_or_else(|| panic!("unclosed '[' in pattern {self:?}"))
                        + i;
                    let mut set = Vec::new();
                    let mut j = i + 1;
                    while j < close {
                        if j + 2 < close && chars[j + 1] == '-' {
                            for c in chars[j]..=chars[j + 2] {
                                set.push(c);
                            }
                            j += 3;
                        } else {
                            set.push(chars[j]);
                            j += 1;
                        }
                    }
                    i = close + 1;
                    set
                }
                '{' | '}' | ']' | '(' | ')' | '|' | '*' | '+' | '?' | '\\' | '.' => {
                    panic!("unsupported regex construct {:?} in pattern {self:?}", chars[i])
                }
                literal => {
                    i += 1;
                    vec![literal]
                }
            };
            assert!(!alphabet.is_empty(), "empty character class in pattern {self:?}");
            // Optional quantifier.
            let (lo, hi) = if i < chars.len() && chars[i] == '{' {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == '}')
                    .unwrap_or_else(|| panic!("unclosed '{{' in pattern {self:?}"))
                    + i;
                let body: String = chars[i + 1..close].iter().collect();
                i = close + 1;
                match body.split_once(',') {
                    Some((m, n)) => (
                        m.trim().parse::<usize>().expect("bad quantifier"),
                        n.trim().parse::<usize>().expect("bad quantifier"),
                    ),
                    None => {
                        let n = body.trim().parse::<usize>().expect("bad quantifier");
                        (n, n)
                    }
                }
            } else {
                (1, 1)
            };
            let count = lo + rng.below((hi - lo + 1) as u64) as usize;
            for _ in 0..count {
                out.push(alphabet[rng.below(alphabet.len() as u64) as usize]);
            }
        }
        out
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    // Full-width inclusive range.
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(rng.below(span) as $t)
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize);

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}
tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, F);

/// A weighted union of boxed strategies — what [`prop_oneof!`] builds.
pub struct Union<T> {
    arms: Vec<(u32, BoxedStrategy<T>)>,
    total_weight: u64,
}

impl<T> Union<T> {
    /// Builds a union from `(weight, strategy)` arms.
    pub fn new_weighted(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        let total_weight = arms.iter().map(|(w, _)| *w as u64).sum();
        assert!(total_weight > 0, "prop_oneof! weights must not all be zero");
        Union { arms, total_weight }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let mut pick = rng.below(self.total_weight);
        for (w, strat) in &self.arms {
            if pick < *w as u64 {
                return strat.generate(rng);
            }
            pick -= *w as u64;
        }
        unreachable!("weighted pick out of range")
    }
}

/// Strategy namespace mirroring `proptest::prop`.
pub mod prop {
    /// Collection strategies (`vec`, `hash_set`).
    pub mod collection {
        use super::super::*;

        /// Inclusive-capable size specification for collection strategies.
        #[derive(Debug, Clone)]
        pub struct SizeRange {
            lo: usize,
            hi_exclusive: usize,
        }

        impl From<Range<usize>> for SizeRange {
            fn from(r: Range<usize>) -> Self {
                assert!(r.start < r.end, "empty collection size range");
                SizeRange { lo: r.start, hi_exclusive: r.end }
            }
        }

        impl From<RangeInclusive<usize>> for SizeRange {
            fn from(r: RangeInclusive<usize>) -> Self {
                SizeRange { lo: *r.start(), hi_exclusive: *r.end() + 1 }
            }
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                SizeRange { lo: n, hi_exclusive: n + 1 }
            }
        }

        impl SizeRange {
            fn sample(&self, rng: &mut TestRng) -> usize {
                let span = (self.hi_exclusive - self.lo) as u64;
                self.lo + rng.below(span.max(1)) as usize
            }
        }

        /// Strategy for `Vec<S::Value>` with a size in `size`.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy { element, size: size.into() }
        }

        /// Strategy returned by [`vec`].
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let len = self.size.sample(rng);
                (0..len).map(|_| self.element.generate(rng)).collect()
            }
        }

        /// Strategy for `HashSet<S::Value>` targeting a size in `size`.
        ///
        /// If the element domain is too small to reach the sampled size the
        /// set is returned smaller (mirrors proptest's best-effort filling).
        pub fn hash_set<S>(element: S, size: impl Into<SizeRange>) -> HashSetStrategy<S>
        where
            S: Strategy,
            S::Value: Hash + Eq,
        {
            HashSetStrategy { element, size: size.into() }
        }

        /// Strategy returned by [`hash_set`].
        pub struct HashSetStrategy<S> {
            element: S,
            size: SizeRange,
        }

        impl<S> Strategy for HashSetStrategy<S>
        where
            S: Strategy,
            S::Value: Hash + Eq,
        {
            type Value = HashSet<S::Value>;

            fn generate(&self, rng: &mut TestRng) -> HashSet<S::Value> {
                let target = self.size.sample(rng);
                let mut out = HashSet::with_capacity(target);
                let mut attempts = 0usize;
                while out.len() < target && attempts < target * 20 + 100 {
                    out.insert(self.element.generate(rng));
                    attempts += 1;
                }
                out
            }
        }
    }

    /// Fixed-size array strategies (`uniform16`, `uniform32`).
    pub mod array {
        use super::super::*;

        /// Strategy for `[S::Value; N]` drawing each element from `element`.
        pub struct UniformArray<S, const N: usize> {
            element: S,
        }

        impl<S: Strategy, const N: usize> Strategy for UniformArray<S, N> {
            type Value = [S::Value; N];

            fn generate(&self, rng: &mut TestRng) -> [S::Value; N] {
                std::array::from_fn(|_| self.element.generate(rng))
            }
        }

        /// `[T; 16]` strategy.
        pub fn uniform16<S: Strategy>(element: S) -> UniformArray<S, 16> {
            UniformArray { element }
        }

        /// `[T; 32]` strategy.
        pub fn uniform32<S: Strategy>(element: S) -> UniformArray<S, 32> {
            UniformArray { element }
        }
    }
}

/// Everything a property test needs, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError, TestCaseResult,
        TestRng,
    };
}

/// Runs `cases` instances of a property, panicking on the first failure.
///
/// This is the engine behind [`proptest!`]; `run_one` generates inputs from
/// its `TestRng` and runs the case. `render` generates the same inputs from
/// a fresh `TestRng` and formats them, and runs only for the failing case,
/// so passing cases never pay for the formatting.
pub fn run_property(
    test_id: &str,
    config: &ProptestConfig,
    mut run_one: impl FnMut(&mut TestRng) -> TestCaseResult,
    render: impl Fn(&mut TestRng) -> String,
) {
    let mut passed = 0u32;
    let mut rejected = 0u32;
    let mut case = 0u64;
    while passed < config.cases {
        match run_one(&mut TestRng::for_case(test_id, case)) {
            Ok(()) => passed += 1,
            Err(TestCaseError::Reject(_)) => {
                rejected += 1;
                if rejected > config.max_global_rejects {
                    panic!(
                        "{test_id}: exceeded {} rejected cases (prop_assume too strict)",
                        config.max_global_rejects
                    );
                }
            }
            Err(TestCaseError::Fail(msg)) => {
                let inputs = render(&mut TestRng::for_case(test_id, case));
                panic!(
                    "{test_id}: property failed at case {case}: {msg}\n\
                     inputs:{inputs}\n\
                     (re-run deterministically; set PROPTEST_SEED to vary)"
                );
            }
        }
        case += 1;
    }
}

/// Declares property tests: `proptest! { #[test] fn f(x in strat) { .. } }`.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_fns!(($config) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!(($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Internal: expands each test fn inside [`proptest!`]. Not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($config:expr)) => {};
    (
        ($config:expr)
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            let test_id = concat!(module_path!(), "::", stringify!($name));
            $crate::run_property(
                test_id,
                &config,
                |rng| {
                    $(let $pat = $crate::Strategy::generate(&($strat), rng);)+
                    (|| { $body Ok(()) })()
                },
                |rng| {
                    let mut inputs = String::new();
                    $(inputs += &format!(
                        "\n  {} = {:?}",
                        stringify!($pat),
                        $crate::Strategy::generate(&($strat), rng),
                    );)+
                    inputs
                },
            );
        }
        $crate::__proptest_fns!(($config) $($rest)*);
    };
}

/// `prop_assert!(cond)` / `prop_assert!(cond, "msg", args..)`.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::TestCaseError::fail(concat!(
                "assertion failed: ",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// `prop_assert_eq!(a, b)` with optional message.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        // `match` keeps temporaries in the operands alive (as assert_eq!
        // does), unlike a `let` of references.
        match (&$left, &$right) {
            (l, r) => {
                if !(*l == *r) {
                    return Err($crate::TestCaseError::fail(format!(
                        "assertion failed: `{:?} == {:?}` ({} == {})",
                        l, r, stringify!($left), stringify!($right)
                    )));
                }
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (l, r) => {
                if !(*l == *r) {
                    return Err($crate::TestCaseError::fail(format!(
                        "assertion failed: `{:?} == {:?}`: {}",
                        l, r, format!($($fmt)+)
                    )));
                }
            }
        }
    };
}

/// `prop_assert_ne!(a, b)` with optional message.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                if *l == *r {
                    return Err($crate::TestCaseError::fail(format!(
                        "assertion failed: `{:?} != {:?}` ({} != {})",
                        l, r, stringify!($left), stringify!($right)
                    )));
                }
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (l, r) => {
                if *l == *r {
                    return Err($crate::TestCaseError::fail(format!(
                        "assertion failed: `{:?} != {:?}`: {}",
                        l, r, format!($($fmt)+)
                    )));
                }
            }
        }
    };
}

/// Skips the current case when `cond` does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

/// Weighted choice between strategies producing a common value type.
///
/// `prop_oneof![s1, 2 => s2, ...]` — arms default to weight 1.
#[macro_export]
macro_rules! prop_oneof {
    ($($arms:tt)*) => {
        $crate::Union::new_weighted($crate::__prop_oneof_arms!(@acc [] $($arms)*))
    };
}

/// Internal: accumulates `prop_oneof!` arms into a vec. Not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __prop_oneof_arms {
    (@acc [$($done:expr,)*]) => { vec![$($done,)*] };
    (@acc [$($done:expr,)*] $weight:literal => $strat:expr $(, $($rest:tt)*)?) => {
        $crate::__prop_oneof_arms!(
            @acc [$($done,)* ($weight as u32, $crate::Strategy::boxed($strat)),]
            $($($rest)*)?
        )
    };
    (@acc [$($done:expr,)*] $strat:expr $(, $($rest:tt)*)?) => {
        $crate::__prop_oneof_arms!(
            @acc [$($done,)* (1u32, $crate::Strategy::boxed($strat)),]
            $($($rest)*)?
        )
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::for_case("ranges", 0);
        for _ in 0..1000 {
            let v = Strategy::generate(&(10u64..20), &mut rng);
            assert!((10..20).contains(&v));
            let w = Strategy::generate(&(1u32..=3), &mut rng);
            assert!((1..=3).contains(&w));
        }
    }

    #[test]
    fn collections_and_arrays_have_requested_shapes() {
        let mut rng = TestRng::for_case("coll", 0);
        let v = Strategy::generate(&prop::collection::vec(any::<u8>(), 3..7), &mut rng);
        assert!((3..7).contains(&v.len()));
        let s = Strategy::generate(&prop::collection::hash_set(0u64..100, 5..10), &mut rng);
        assert!(s.len() < 10);
        let a = Strategy::generate(&prop::array::uniform32(any::<u8>()), &mut rng);
        assert_eq!(a.len(), 32);
    }

    #[test]
    fn oneof_honours_weights() {
        let strat = prop_oneof![
            9 => Just(true),
            Just(false),
        ];
        let mut rng = TestRng::for_case("weights", 0);
        let hits = (0..2000).filter(|_| strat.generate(&mut rng)).count();
        assert!(hits > 1500, "weight-9 arm should dominate, got {hits}/2000");
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        #[test]
        fn macro_generates_and_asserts(
            x in 0u64..100,
            (a, b) in (0u8..10, any::<bool>()),
            v in prop::collection::vec(any::<u8>(), 0..20),
        ) {
            prop_assert!(x < 100);
            prop_assert!(a < 10, "a was {a}");
            prop_assert_eq!(b, b);
            prop_assert_ne!(v.len(), 100);
            prop_assume!(x != 1_000_000); // never rejects
        }
    }

    #[test]
    #[should_panic(expected = "property failed")]
    fn failing_property_panics() {
        run_one_failing();
    }

    // No #[test] attribute: only invoked via failing_property_panics.
    proptest! {
        #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]
        fn run_one_failing(x in 0u8..10) {
            prop_assert!(x > 200, "x is only {x}");
        }
    }

    // No #[test] attribute: only invoked via
    // failing_property_reports_its_inputs.
    proptest! {
        fn run_failing_late(x in 0u8..10, (a, v) in (any::<bool>(), prop::collection::vec(0u8..3, 2))) {
            prop_assert!(x != 3, "x is {x} beside {a} and {v:?}");
        }
    }

    #[test]
    fn failing_property_reports_its_inputs() {
        // The first case whose `x` breaks the property, drawn as the macro
        // draws it.
        let id = concat!(module_path!(), "::run_failing_late");
        let (case, x, rest) = (0u64..)
            .map(|case| {
                let mut rng = TestRng::for_case(id, case);
                let x = Strategy::generate(&(0u8..10), &mut rng);
                let rest = Strategy::generate(
                    &(any::<bool>(), prop::collection::vec(0u8..3, 2)),
                    &mut rng,
                );
                (case, x, rest)
            })
            .find(|&(_, x, _)| x == 3)
            .unwrap();
        let panic = std::panic::catch_unwind(run_failing_late).unwrap_err();
        let msg = panic.downcast_ref::<String>().unwrap();
        let (a, v) = &rest;
        let expected = format!(
            "failed at case {case}: x is {x} beside {a} and {v:?}\n\
             inputs:\n  x = {x}\n  (a, v) = {rest:?}\n"
        );
        assert!(msg.contains(&expected), "{msg}\ndoes not contain\n{expected}");
    }

    #[test]
    fn string_patterns_generate_matching_strings() {
        let mut rng = TestRng::for_case("pattern", 0);
        for _ in 0..200 {
            let s = Strategy::generate(&"[a-z0-9]{1,12}", &mut rng);
            assert!((1..=12).contains(&s.len()), "{s:?}");
            assert!(s.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit()), "{s:?}");
            let t = Strategy::generate(&"ab[0-1]{3}", &mut rng);
            assert!(t.starts_with("ab") && t.len() == 5, "{t:?}");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = TestRng::for_case("same", 7);
        let mut b = TestRng::for_case("same", 7);
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
