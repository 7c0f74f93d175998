//! Offline stand-in for `proptest`.
//!
//! Provides a deterministic random-input test harness with the strategy
//! surface this workspace uses: range/tuple/`Just` strategies, `prop_map` /
//! `prop_flat_map`, `collection::vec`, `bool::ANY`, `prop_oneof!`, and the
//! `proptest!` / `prop_assert*` / `prop_assume!` macros. No shrinking: a
//! failing case panics with the assertion message and the case number.

use std::ops::Range;

/// Deterministic generator state (SplitMix64 stream).
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, span)`; `span` must be nonzero.
    pub fn below(&mut self, span: u64) -> u64 {
        ((self.next_u64() as u128 * span as u128) >> 64) as u64
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A generator of test inputs.
///
/// Unlike upstream proptest there is no value tree or shrinking: a strategy
/// simply produces a value from deterministic generator state.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { source: self, f }
    }

    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { source: self, f }
    }

    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// A type-erased strategy, as produced by [`Strategy::boxed`].
pub struct BoxedStrategy<V>(Box<dyn Strategy<Value = V>>);

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        self.0.generate(rng)
    }
}

/// Output of [`Strategy::prop_map`].
pub struct Map<S, F> {
    source: S,
    f: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.source.generate(rng))
    }
}

/// Output of [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    source: S,
    f: F,
}

impl<S, T, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    T: Strategy,
    F: Fn(S::Value) -> T,
{
    type Value = T::Value;
    fn generate(&self, rng: &mut TestRng) -> T::Value {
        (self.f)(self.source.generate(rng)).generate(rng)
    }
}

/// Strategy producing one fixed value.
#[derive(Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between boxed alternatives (see [`prop_oneof!`]).
pub struct Union<V> {
    options: Vec<BoxedStrategy<V>>,
}

impl<V> Union<V> {
    pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Union { options }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let idx = rng.below(self.options.len() as u64) as usize;
        self.options[idx].generate(rng)
    }
}

macro_rules! impl_uint_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + rng.below(span) as $t
            }
        }
    )*};
}
impl_uint_range!(u8, u16, u32, u64, usize);

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = self.end.wrapping_sub(self.start) as u64;
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
    )*};
}
impl_int_range!(i8, i16, i32, i64, isize);

macro_rules! impl_float_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let lo = self.start as f64;
                let hi = self.end as f64;
                let v = (lo + rng.unit_f64() * (hi - lo)) as $t;
                if v >= self.end { self.start } else { v }
            }
        }
    )*};
}
impl_float_range!(f32, f64);

macro_rules! impl_tuple_strategy {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7)
}

pub mod bool {
    //! Boolean strategies (`proptest::bool::ANY`).

    /// Strategy yielding uniformly random booleans.
    pub struct Any;

    pub const ANY: Any = Any;

    impl crate::Strategy for Any {
        type Value = ::core::primitive::bool;
        fn generate(&self, rng: &mut crate::TestRng) -> ::core::primitive::bool {
            rng.next_u64() & 1 == 1
        }
    }
}

pub mod collection {
    //! Collection strategies (`proptest::collection::vec`).

    use crate::{Strategy, TestRng};

    /// Element count for [`vec()`]: an exact size or a half-open range.
    pub struct SizeRange {
        min: usize,
        max_excl: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max_excl: n + 1 }
        }
    }

    impl From<::std::ops::Range<usize>> for SizeRange {
        fn from(r: ::std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange { min: r.start, max_excl: r.end }
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max_excl - self.size.min) as u64;
            let len = self.size.min + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Per-`proptest!` block configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Stable 64-bit FNV-1a over the test name, so each test gets its own
/// deterministic input stream.
pub fn seed_from_name(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[macro_export]
macro_rules! prop_oneof {
    ($($option:expr),+ $(,)?) => {
        $crate::Union::new(::std::vec![$($crate::Strategy::boxed($option)),+])
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        ::std::assert!($cond)
    };
    ($cond:expr, $($fmt:tt)+) => {
        ::std::assert!($cond, $($fmt)+)
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {
        ::std::assert_eq!($left, $right)
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        ::std::assert_eq!($left, $right, $($fmt)+)
    };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {
        ::std::assert_ne!($left, $right)
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        ::std::assert_ne!($left, $right, $($fmt)+)
    };
}

/// Skips the current case when `cond` is false (no retry accounting).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::option::Option::None;
        }
    };
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    (($config:expr)) => {};
    (($config:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            let mut rng = $crate::TestRng::new($crate::seed_from_name(::std::stringify!($name)));
            for case in 0..config.cases {
                let outcome = (|| -> ::std::option::Option<()> {
                    $(let $arg = $crate::Strategy::generate(&($strategy), &mut rng);)+
                    $body
                    ::std::option::Option::Some(())
                })();
                // `None` means a `prop_assume!` rejected the case.
                let _ = (case, outcome);
            }
        }
        $crate::__proptest_tests! { ($config) $($rest)* }
    };
}

pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
    pub use crate::{BoxedStrategy, Just, ProptestConfig, Strategy, TestRng, Union};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::new(7);
        for _ in 0..2000 {
            let u = Strategy::generate(&(3u32..17), &mut rng);
            assert!((3..17).contains(&u));
            let f = Strategy::generate(&(-2.0f32..2.0), &mut rng);
            assert!((-2.0..2.0).contains(&f));
            let i = Strategy::generate(&(-5i64..5), &mut rng);
            assert!((-5..5).contains(&i));
        }
    }

    #[test]
    fn streams_are_deterministic() {
        let strat = crate::collection::vec((0u32..10, 0u64..100), 1..8);
        let run = |seed| {
            let mut rng = TestRng::new(seed);
            Strategy::generate(&strat, &mut rng)
        };
        assert_eq!(run(42), run(42));
        assert_ne!(
            (0..16).map(|_| run(1)).collect::<Vec<_>>(),
            (0..16).map(|_| run(2)).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn oneof_and_combinators_compose() {
        let strat = prop_oneof![
            (1u32..5).prop_map(|x| x as u64),
            Just(99u64),
            (0usize..3).prop_flat_map(|n| crate::collection::vec(7u64..8, n)).prop_map(|v| v.len() as u64),
        ];
        let mut rng = TestRng::new(11);
        let mut seen_just = false;
        for _ in 0..200 {
            let v = Strategy::generate(&strat, &mut rng);
            assert!(v < 5 || v == 99);
            seen_just |= v == 99;
        }
        assert!(seen_just);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_harness_runs(xs in crate::collection::vec(0u8..10, 0..6), flip in crate::bool::ANY) {
            prop_assume!(xs.len() != 5);
            prop_assert!(xs.iter().all(|&x| x < 10));
            prop_assert!(u8::from(flip) <= 1);
        }
    }
}
