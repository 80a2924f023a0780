//! Offline stand-in for the subset of the `proptest` crate used by this
//! workspace.
//!
//! Implements the strategy combinators (`prop_map`, `prop_flat_map`,
//! tuples, ranges, `Just`, `prop_oneof!`, `prop::collection::vec`,
//! `any::<T>()`), the `proptest!` macro with `#![proptest_config(..)]`,
//! and the `prop_assert*` / `prop_assume!` macros.
//!
//! Differences from upstream, deliberate for an offline build container:
//!
//! * no shrinking — a failing case panics with the generated inputs'
//!   `Debug` rendering via the assertion message instead;
//! * generation is derived from a fixed per-test seed (hash of the test
//!   name), so runs are fully deterministic;
//! * no persistence files, forking, or timeouts.

/// Test-runner types: configuration, case errors, and the generator.
pub mod test_runner {
    /// Configuration accepted by `#![proptest_config(..)]`.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of successful cases required.
        pub cases: u32,
        /// Maximum rejected cases (`prop_assume!`) tolerated globally.
        pub max_global_rejects: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` successful cases.
        #[must_use]
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases, ..ProptestConfig::default() }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 256, max_global_rejects: 65_536 }
        }
    }

    /// Why a single test case did not succeed.
    #[derive(Clone, Debug)]
    pub enum TestCaseError {
        /// The case was rejected by `prop_assume!` — try another input.
        Reject(String),
        /// The case failed an assertion.
        Fail(String),
    }

    impl TestCaseError {
        /// Builds a failure.
        #[must_use]
        pub fn fail(message: impl Into<String>) -> TestCaseError {
            TestCaseError::Fail(message.into())
        }

        /// Builds a rejection.
        #[must_use]
        pub fn reject(message: impl Into<String>) -> TestCaseError {
            TestCaseError::Reject(message.into())
        }
    }

    /// Deterministic generator threading through strategy sampling
    /// (splitmix64-seeded xoshiro256**).
    #[derive(Clone, Debug)]
    pub struct TestRng {
        s: [u64; 4],
    }

    impl TestRng {
        /// Seeds from an arbitrary state word.
        #[must_use]
        pub fn seed_from_u64(state: u64) -> TestRng {
            let mut sm = state;
            let mut next = || {
                sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            TestRng { s: [next(), next(), next(), next()] }
        }

        /// Seeds deterministically from a test name.
        #[must_use]
        pub fn from_name(name: &str) -> TestRng {
            // FNV-1a over the name gives a stable per-test stream.
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng::seed_from_u64(h)
        }

        /// Next uniform 64-bit word (xoshiro256**).
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

        /// Uniform draw from `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
        }
    }
}

/// Strategies: value generators composed with combinators.
pub mod strategy {
    use super::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};
    use std::rc::Rc;

    /// A generator of values of type `Self::Value`.
    ///
    /// The shim has no shrinking, so a strategy is just a sampling
    /// function over the deterministic [`TestRng`].
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn new_value(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { source: self, f }
        }

        /// Generates a value, then samples the strategy `f` derives from
        /// it.
        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { source: self, f }
        }

        /// Type-erases the strategy (used by `prop_oneof!`).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Rc::new(move |rng: &mut TestRng| self.new_value(rng)))
        }
    }

    /// Always produces a clone of the wrapped value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn new_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// `prop_map` adapter.
    #[derive(Clone)]
    pub struct Map<S, F> {
        source: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn new_value(&self, rng: &mut TestRng) -> U {
            (self.f)(self.source.new_value(rng))
        }
    }

    /// `prop_flat_map` adapter.
    #[derive(Clone)]
    pub struct FlatMap<S, F> {
        source: S,
        f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;
        fn new_value(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.source.new_value(rng)).new_value(rng)
        }
    }

    /// A type-erased strategy.
    #[derive(Clone)]
    pub struct BoxedStrategy<T>(Rc<dyn Fn(&mut TestRng) -> T>);

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    /// Uniform choice among alternatives (`prop_oneof!`).
    pub struct Union<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Builds a union of the given arms (at least one required).
        #[must_use]
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Union<T> {
            assert!(!arms.is_empty(), "prop_oneof! requires at least one arm");
            Union { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.arms.len() as u64) as usize;
            self.arms[i].new_value(rng)
        }
    }

    macro_rules! impl_int_range_strategy {
        ($($t:ty => $u:ty),* $(,)?) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as $u).wrapping_sub(self.start as $u) as u64;
                    let off = rng.below(span) as $u;
                    (self.start as $u).wrapping_add(off) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "empty range strategy");
                    let span = (end as $u).wrapping_sub(start as $u) as u64;
                    let off = if span == u64::MAX {
                        rng.next_u64() as $u
                    } else {
                        rng.below(span + 1) as $u
                    };
                    (start as $u).wrapping_add(off) as $t
                }
            }
        )*};
    }

    impl_int_range_strategy!(
        u8 => u8, u16 => u16, u32 => u32, u64 => u64, usize => usize,
        i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize,
    );

    macro_rules! impl_tuple_strategy {
        ($($name:ident : $idx:tt),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.new_value(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A: 0, B: 1);
    impl_tuple_strategy!(A: 0, B: 1, C: 2);
    impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3);
    impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4);
    impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);
    impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6);
    impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7);
}

/// `any::<T>()` — full-domain strategies for primitives.
pub mod arbitrary {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draws a uniform value over the whole domain.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    /// The strategy returned by [`any`].
    pub struct Any<A>(PhantomData<A>);

    impl<A: Arbitrary> Strategy for Any<A> {
        type Value = A;
        fn new_value(&self, rng: &mut TestRng) -> A {
            A::arbitrary(rng)
        }
    }

    /// Full-domain strategy for `A`.
    #[must_use]
    pub fn any<A: Arbitrary>() -> Any<A> {
        Any(PhantomData)
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                #[allow(clippy::cast_possible_truncation)]
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Sizes accepted by [`vec()`]: an exact length or a length range.
    pub trait IntoSizeRange {
        /// Draws a length.
        fn pick_len(&self, rng: &mut TestRng) -> usize;
    }

    impl IntoSizeRange for usize {
        fn pick_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl IntoSizeRange for Range<usize> {
        fn pick_len(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "empty size range");
            self.start + rng.below((self.end - self.start) as u64) as usize
        }
    }

    impl IntoSizeRange for RangeInclusive<usize> {
        fn pick_len(&self, rng: &mut TestRng) -> usize {
            assert!(self.start() <= self.end(), "empty size range");
            self.start() + rng.below((self.end() - self.start() + 1) as u64) as usize
        }
    }

    /// Strategy generating vectors of `element`-generated values.
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    /// Vector strategy over `element` with the given size (exact or
    /// range).
    pub fn vec<S: Strategy, L: IntoSizeRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }

    impl<S: Strategy, L: IntoSizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.pick_len(rng);
            (0..n).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

/// The glob-import surface, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Defines property tests: each `fn name(arg in strategy, ..) { body }`
/// becomes a `#[test]` running `cases` deterministic samples.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($config); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::test_runner::ProptestConfig::default()); $($rest)* }
    };
}

/// Internal expansion of [`proptest!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($config:expr); $( $(#[$meta:meta])* fn $name:ident ( $($arg:pat_param in $strategy:expr),+ $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $config;
                let mut rng = $crate::test_runner::TestRng::from_name(stringify!($name));
                let mut passed: u32 = 0;
                let mut rejected: u32 = 0;
                while passed < config.cases {
                    #[allow(unused_imports)]
                    use $crate::strategy::Strategy as _;
                    $(let $arg = ($strategy).new_value(&mut rng);)+
                    let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| { { $body } ::std::result::Result::Ok(()) })();
                    match outcome {
                        ::std::result::Result::Ok(()) => passed += 1,
                        ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(_)) => {
                            rejected += 1;
                            assert!(
                                rejected <= config.max_global_rejects,
                                "proptest: too many prop_assume! rejections ({rejected})"
                            );
                        }
                        ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(message)) => {
                            panic!("proptest case {passed} failed: {message}");
                        }
                    }
                }
            }
        )*
    };
}

/// Uniform choice among the listed strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $( $crate::strategy::Strategy::boxed($strategy) ),+
        ])
    };
}

/// Asserts within a property body; failures report the case rather than
/// unwinding through arbitrary frames.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Equality assertion within a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left == right,
            "assertion failed: `{:?}` == `{:?}`", left, right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left == right,
            "assertion failed: `{:?}` == `{:?}`: {}", left, right, format!($($fmt)*)
        );
    }};
}

/// Inequality assertion within a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left != right,
            "assertion failed: `{:?}` != `{:?}`", left, right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left != right,
            "assertion failed: `{:?}` != `{:?}`: {}", left, right, format!($($fmt)*)
        );
    }};
}

/// Discards the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                concat!("assumption failed: ", stringify!($cond)),
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn small_even() -> impl Strategy<Value = u32> {
        (0u32..100).prop_map(|v| v * 2)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn mapped_values_hold_invariants(v in small_even()) {
            prop_assert!(v.is_multiple_of(2));
            prop_assert!(v < 200, "v was {}", v);
        }

        #[test]
        fn tuples_and_oneof_compose(
            (a, b) in (0u8..10, 0u8..10),
            pick in prop_oneof![Just(1u8), Just(2), 5u8..7],
        ) {
            prop_assert!(a < 10 && b < 10);
            prop_assert!(pick == 1 || pick == 2 || (5..7).contains(&pick));
        }

        #[test]
        fn flat_map_respects_dependency(v in (1usize..5).prop_flat_map(|n| prop::collection::vec(any::<bool>(), n))) {
            prop_assert!(!v.is_empty() && v.len() < 5);
        }

        #[test]
        fn assume_rejects_without_failing(v in 0u32..10) {
            prop_assume!(v > 0);
            prop_assert_ne!(v, 0);
        }

        #[test]
        fn inclusive_and_negative_ranges(r in 0u8..=31, s in -50i32..50) {
            prop_assert!(r <= 31);
            prop_assert!((-50..50).contains(&s));
            prop_assert_eq!(r as u32 + 1, u32::from(r) + 1);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        use crate::strategy::Strategy;
        let strat = (0u64..1_000_000, 0u64..1_000_000);
        let mut a = crate::test_runner::TestRng::from_name("x");
        let mut b = crate::test_runner::TestRng::from_name("x");
        for _ in 0..100 {
            assert_eq!(strat.new_value(&mut a), strat.new_value(&mut b));
        }
    }

    #[test]
    #[should_panic(expected = "proptest case")]
    fn failures_panic_with_context() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]
            fn inner(v in 10u32..20) {
                prop_assert!(v < 15, "v too big: {}", v);
            }
        }
        inner();
    }
}
