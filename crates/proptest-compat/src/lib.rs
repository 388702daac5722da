//! Offline drop-in subset of the
//! [`proptest`](https://crates.io/crates/proptest) API.
//!
//! The build environment for this repository has no network access to
//! crates.io, so the workspace vendors the slice of `proptest` its test
//! suites use:
//!
//! * the [`proptest!`] macro with an optional
//!   `#![proptest_config(...)]` header,
//! * [`prop_assert!`], [`prop_assert_eq!`], [`prop_assert_ne!`] and
//!   [`prop_assume!`],
//! * `any::<T>()` for the primitive integer/float/bool types,
//! * numeric `Range` / `RangeInclusive` strategies, and
//! * `proptest::collection::vec(strategy, size_range)`.
//!
//! Differences from upstream: generation is deterministic per test
//! (seeded from the test's module path and name, so failures reproduce
//! on every run), edge values (min/max/zero) are injected into the
//! first cases of every integer strategy, and there is **no shrinking**
//! — a failing case reports the values that failed instead. Regression
//! seed files (`proptest-regressions/`) are not consumed; known
//! regressions should be promoted to explicit unit tests.

pub mod strategy {
    //! The [`Strategy`] trait and primitive strategy types.

    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A source of random values of one type.
    ///
    /// Upstream proptest's `Strategy` produces value *trees* to support
    /// shrinking; this subset just samples concrete values.
    pub trait Strategy {
        /// The type of generated values.
        type Value;
        /// Generates the value for case number `case` (0-based).
        fn generate(&self, rng: &mut TestRng, case: u32) -> Self::Value;
    }

    /// Strategy returned by [`crate::prelude::any`].
    pub struct Any<T> {
        _marker: std::marker::PhantomData<T>,
    }

    impl<T> Any<T> {
        pub(crate) fn new() -> Self {
            Any {
                _marker: std::marker::PhantomData,
            }
        }
    }

    /// Types with a canonical "whole domain" strategy.
    pub trait Arbitrary: Sized {
        /// Generates an arbitrary value of the type.
        fn arbitrary(rng: &mut TestRng, case: u32) -> Self;
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng, case: u32) -> T {
            T::arbitrary(rng, case)
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng, case: u32) -> Self {
                    // Deterministically exercise the edge values first;
                    // they are where integer strategies earn their keep.
                    match case {
                        0 => 0 as $t,
                        1 => <$t>::MAX,
                        2 => <$t>::MIN,
                        3 => 1 as $t,
                        _ => rng.next_u64() as $t,
                    }
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng, _case: u32) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f32 {
        /// Arbitrary bit patterns: includes NaNs, infinities and
        /// subnormals, like upstream's full `any::<f32>()` domain.
        fn arbitrary(rng: &mut TestRng, case: u32) -> Self {
            match case {
                0 => 0.0,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                3 => f32::NAN,
                _ => f32::from_bits(rng.next_u64() as u32),
            }
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng, case: u32) -> Self {
            match case {
                0 => 0.0,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => f64::NAN,
                _ => f64::from_bits(rng.next_u64()),
            }
        }
    }

    macro_rules! impl_range_strategy_int {
        ($($t:ty => $wide:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng, case: u32) -> $t {
                    assert!(self.start < self.end, "strategy range is empty");
                    let span = (self.end as $wide).wrapping_sub(self.start as $wide) as u64;
                    // Hit both endpoints of the range early.
                    let draw = match case {
                        0 => 0,
                        1 => span - 1,
                        _ => rng.next_u64() % span,
                    };
                    (self.start as $wide).wrapping_add(draw as $wide) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng, case: u32) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "strategy range is empty");
                    let span = (hi as $wide).wrapping_sub(lo as $wide) as u64;
                    let draw = match case {
                        0 => 0,
                        1 => span,
                        _ if span == u64::MAX => rng.next_u64(),
                        _ => rng.next_u64() % (span + 1),
                    };
                    (lo as $wide).wrapping_add(draw as $wide) as $t
                }
            }
        )*};
    }

    impl_range_strategy_int!(
        u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
        i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64
    );

    macro_rules! impl_range_strategy_float {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng, case: u32) -> $t {
                    assert!(self.start < self.end, "strategy range is empty");
                    let unit = match case {
                        0 => 0.0,
                        1 => 0.5,
                        _ => rng.unit_f64(),
                    } as $t;
                    let v = self.start + unit * (self.end - self.start);
                    // Guard against rounding onto the exclusive endpoint.
                    if v >= self.end { self.start } else { v }
                }
            }
        )*};
    }

    impl_range_strategy_float!(f32, f64);

    /// Strategy that always yields a clone of one value.
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng, _case: u32) -> T {
            self.0.clone()
        }
    }
}

pub mod collection {
    //! Collection strategies (subset: [`vec()`]).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A range of collection sizes.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        /// Smallest size, inclusive.
        pub min: usize,
        /// Largest size, inclusive.
        pub max: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }

    /// Strategy for `Vec<S::Value>` with lengths drawn from a size range.
    pub struct VecStrategy<S: Strategy> {
        element: S,
        size: SizeRange,
    }

    /// Generates vectors whose elements come from `element` and whose
    /// lengths are drawn uniformly from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng, case: u32) -> Vec<S::Value> {
            // Exercise the smallest and largest sizes in the first cases.
            let len = match case {
                0 => self.size.min,
                1 => self.size.max,
                _ => {
                    let span = (self.size.max - self.size.min) as u64 + 1;
                    self.size.min + (rng.next_u64() % span) as usize
                }
            };
            // Element generation always uses the "interior" case number so
            // a vec of 20k elements isn't 20k copies of an edge value.
            (0..len)
                .map(|i| {
                    let elem_case = if case <= 1 { 4 + i as u32 % 4 } else { 4 };
                    self.element.generate(rng, elem_case.max(4))
                })
                .collect()
        }
    }
}

pub mod test_runner {
    //! Configuration and the deterministic test RNG.

    /// Per-test configuration (subset: `cases`).
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of successful cases required for the test to pass.
        pub cases: u32,
        /// Maximum rejected cases (via `prop_assume!`) before giving up.
        pub max_global_rejects: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig {
                cases,
                ..Default::default()
            }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig {
                cases: 64,
                max_global_rejects: 4096,
            }
        }
    }

    /// Why a single test case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// The case was rejected by `prop_assume!` — try another input.
        Reject(String),
        /// The case failed an assertion.
        Fail(String),
    }

    /// Deterministic RNG for test-case generation (xoshiro256**).
    ///
    /// Seeded from the test's full path so every run of a given test
    /// sees the same sequence — failures always reproduce.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        s: [u64; 4],
    }

    impl TestRng {
        /// Creates the RNG for the named test.
        pub fn for_test(name: &str) -> Self {
            // FNV-1a over the name, then SplitMix64 expansion.
            let mut h: u64 = 0xCBF2_9CE4_8422_2325;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            let mut sm = h;
            let mut next = || {
                sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            TestRng {
                s: [next(), next(), next(), next()],
            }
        }

        /// Next 64 uniformly random bits.
        pub fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }

        /// Uniform `f64` in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

pub mod prelude {
    //! Everything a `proptest!` test file needs in scope.

    pub use crate::strategy::{Any, Arbitrary, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};

    /// The canonical whole-domain strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any::new()
    }
}

/// Defines property tests.
///
/// ```text
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(12))]
///     #[test]
///     fn my_prop(x in 0u32..100, v in proptest::collection::vec(any::<u16>(), 1..50)) {
///         prop_assert!(v.len() >= 1);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests! { ($crate::test_runner::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    (($cfg:expr); $(
        #[test]
        fn $name:ident($($arg:pat_param in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        #[test]
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $cfg;
            let mut __rng = $crate::test_runner::TestRng::for_test(concat!(
                module_path!(),
                "::",
                stringify!($name)
            ));
            let mut __passed: u32 = 0;
            let mut __rejected: u32 = 0;
            let mut __case: u32 = 0;
            while __passed < __config.cases {
                if __rejected > __config.max_global_rejects {
                    panic!(
                        "proptest '{}': too many prop_assume! rejections ({})",
                        stringify!($name),
                        __rejected
                    );
                }
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng, __case);)+
                __case = __case.wrapping_add(1);
                let __outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        { $body }
                        Ok(())
                    })();
                match __outcome {
                    Ok(()) => __passed += 1,
                    Err($crate::test_runner::TestCaseError::Reject(_)) => __rejected += 1,
                    Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                        panic!(
                            "proptest '{}' failed at case {}: {}",
                            stringify!($name),
                            __case,
                            msg
                        );
                    }
                }
            }
        }
    )*};
}

/// Fails the current test case if the condition does not hold.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::Fail(format!($($fmt)*))
            );
        }
    };
}

/// Fails the current test case if the two expressions are not equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`",
            *l,
            *r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, $($fmt)*);
    }};
}

/// Fails the current test case if the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `(left != right)`\n  both: `{:?}`",
            *l
        );
    }};
}

/// Rejects the current test case (it is re-drawn, not failed).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(
                stringify!($cond).to_string(),
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn deterministic_rng_per_name() {
        let mut a = TestRng::for_test("a::b");
        let mut b = TestRng::for_test("a::b");
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = TestRng::for_test("a::c");
        let _ = c.next_u64();
    }

    #[test]
    fn range_strategies_respect_bounds() {
        let mut rng = TestRng::for_test("bounds");
        for case in 0..1000 {
            let v = Strategy::generate(&(10u32..20), &mut rng, case);
            assert!((10..20).contains(&v));
            let w = Strategy::generate(&(5i8..=7), &mut rng, case);
            assert!((5..=7).contains(&w));
            let f = Strategy::generate(&(-1.0f32..1.0), &mut rng, case);
            assert!((-1.0..1.0).contains(&f));
        }
    }

    #[test]
    fn vec_strategy_hits_min_and_max_sizes() {
        let mut rng = TestRng::for_test("sizes");
        let strat = crate::collection::vec(0u8..=1, 3..10);
        let first = Strategy::generate(&strat, &mut rng, 0);
        assert_eq!(first.len(), 3);
        let second = Strategy::generate(&strat, &mut rng, 1);
        assert_eq!(second.len(), 9);
        for case in 2..200 {
            let v = Strategy::generate(&strat, &mut rng, case);
            assert!((3..10).contains(&v.len()));
            assert!(v.iter().all(|&b| b <= 1));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_end_to_end(x in 0u32..50, v in crate::collection::vec(any::<u16>(), 1..9)) {
            prop_assert!(x < 50);
            prop_assert!(!v.is_empty() && v.len() < 9);
            prop_assert_eq!(v.len(), v.len());
            prop_assert_ne!(v.len(), 0);
        }

        #[test]
        fn assume_rejects_without_failing(x in 0u32..10) {
            prop_assume!(x % 2 == 0);
            prop_assert!(x % 2 == 0);
        }
    }
}
