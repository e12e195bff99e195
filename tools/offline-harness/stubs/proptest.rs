//! Offline stand-in for proptest: same API shape for the slice this
//! workspace uses, backed by a fixed-seed splitmix64 sampler. No
//! shrinking — failures panic with the offending inputs via assert.

pub mod test_runner {
    /// Deterministic per-test RNG.
    #[derive(Debug, Clone)]
    pub struct TestRng(u64);

    impl TestRng {
        pub fn for_test(name: &str) -> Self {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in name.as_bytes() {
                h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng(h)
        }
        pub fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        pub fn below(&mut self, n: usize) -> usize {
            assert!(n > 0, "below(0)");
            (self.next_u64() % n as u64) as usize
        }
    }

    #[derive(Debug, Clone)]
    pub struct Config {
        pub cases: u32,
        /// Unused (nothing shrinks here); present, as in the real crate, so
        /// `Config { cases, ..Config::default() }` is not a no-op update.
        pub max_shrink_iters: u32,
    }

    impl Config {
        pub fn with_cases(cases: u32) -> Self {
            Config {
                cases,
                ..Config::default()
            }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config {
                cases: 256,
                max_shrink_iters: 0,
            }
        }
    }

    /// A rejected case (`prop_assume!` failed): skipped, not a failure.
    #[derive(Debug)]
    pub struct Reject;
}

pub mod strategy {
    use crate::test_runner::TestRng;

    pub trait Strategy {
        type Value;
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { inner: self, f }
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn sample(&self, rng: &mut TestRng) -> S::Value {
            (**self).sample(rng)
        }
    }

    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn sample(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    pub struct FlatMap<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
        type Value = T::Value;
        fn sample(&self, rng: &mut TestRng) -> T::Value {
            (self.f)(self.inner.sample(rng)).sample(rng)
        }
    }

    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! int_ranges {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    (self.start as i128 + (u128::from(rng.next_u64()) % span) as i128) as $t
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128 + 1) as u128;
                    (lo as i128 + (u128::from(rng.next_u64()) % span) as i128) as $t
                }
            }
        )*};
    }
    int_ranges!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// Uniform in `[0, 1)`.
    pub(crate) fn unit_f64(rng: &mut TestRng) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    impl Strategy for core::ops::Range<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + unit_f64(rng) * (self.end - self.start)
        }
    }
    impl Strategy for core::ops::RangeInclusive<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            let (lo, hi) = (*self.start(), *self.end());
            assert!(lo <= hi, "empty range strategy");
            lo + unit_f64(rng) * (hi - lo)
        }
    }

    pub fn boxed<S: Strategy + 'static>(s: S) -> Box<dyn Strategy<Value = S::Value>> {
        Box::new(s)
    }

    /// What `prop_oneof!` builds: weighted, type-erased alternatives.
    pub struct Union<T>(pub Vec<(u32, Box<dyn Strategy<Value = T>>)>);

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            let total: u64 = self.0.iter().map(|(w, _)| u64::from(*w)).sum();
            assert!(total > 0, "prop_oneof! with no weight");
            let mut pick = rng.next_u64() % total;
            for (w, s) in &self.0 {
                if pick < u64::from(*w) {
                    return s.sample(rng);
                }
                pick -= u64::from(*w);
            }
            unreachable!("pick < total")
        }
    }

    macro_rules! tuple_strategy {
        ($($s:ident/$v:ident),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                #[allow(non_snake_case)]
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($v,)+) = self;
                    ($($v.sample(rng),)+)
                }
            }
        };
    }
    tuple_strategy!(A/a);
    tuple_strategy!(A/a, B/b);
    tuple_strategy!(A/a, B/b, C/c);
    tuple_strategy!(A/a, B/b, C/c, D/d);
    tuple_strategy!(A/a, B/b, C/c, D/d, E/e);
    tuple_strategy!(A/a, B/b, C/c, D/d, E/e, F/f);
    tuple_strategy!(A/a, B/b, C/c, D/d, E/e, F/f, G/g);
    tuple_strategy!(A/a, B/b, C/c, D/d, E/e, F/f, G/g, H/h);
    tuple_strategy!(A/a, B/b, C/c, D/d, E/e, F/f, G/g, H/h, I/i);
    tuple_strategy!(A/a, B/b, C/c, D/d, E/e, F/f, G/g, H/h, I/i, J/j);
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    pub trait Arbitrary: Sized {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            crate::strategy::unit_f64(rng)
        }
    }

    macro_rules! arb_tuple {
        ($($t:ident),+) => {
            impl<$($t: Arbitrary),+> Arbitrary for ($($t,)+) {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    ($($t::arbitrary(rng),)+)
                }
            }
        };
    }
    arb_tuple!(A);
    arb_tuple!(A, B);
    arb_tuple!(A, B, C);
    arb_tuple!(A, B, C, D);

    pub struct Any<T>(core::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(core::marker::PhantomData)
    }
}

pub mod bool {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// `true` with the given probability.
    #[derive(Debug, Clone, Copy)]
    pub struct Weighted(f64);

    impl Strategy for Weighted {
        type Value = bool;
        fn sample(&self, rng: &mut TestRng) -> bool {
            crate::strategy::unit_f64(rng) < self.0
        }
    }

    pub fn weighted(probability: f64) -> Weighted {
        assert!((0.0..=1.0).contains(&probability), "weighted({probability})");
        Weighted(probability)
    }

    /// A fair coin.
    pub const ANY: Weighted = Weighted(0.5);
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }
    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }
    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end() + 1,
            }
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = self.size.hi - self.size.lo;
            let len = self.size.lo + if span > 0 { rng.below(span) } else { 0 };
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod sample {
    use crate::arbitrary::Arbitrary;
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// An index usable against any non-empty collection length.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Index(u64);

    impl Index {
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            (self.0 % len as u64) as usize
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut TestRng) -> Self {
            Index(rng.next_u64())
        }
    }

    pub struct Select<T: Clone>(Vec<T>);

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            self.0[rng.below(self.0.len())].clone()
        }
    }

    pub fn select<T: Clone>(items: &[T]) -> Select<T> {
        assert!(!items.is_empty(), "select from empty slice");
        Select(items.to_vec())
    }
}

pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    pub struct OptionStrategy<S>(S);

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Option<S::Value> {
            // Match proptest's default: Some three times out of four.
            if rng.next_u64() % 4 == 0 {
                None
            } else {
                Some(self.0.sample(rng))
            }
        }
    }

    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }
}

/// The `prop::` module-alias namespace (`prop::sample::Index`, …).
pub mod prop {
    pub use crate::bool;
    pub use crate::collection;
    pub use crate::sample;
    pub use crate::strategy;
}

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::prop;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($fmt:tt)*)?) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::Reject);
        }
    };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union(vec![$(($weight, $crate::strategy::boxed($strat))),+])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::prop_oneof![$(1 => $strat),+]
    };
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!{$cfg; $($rest)*}
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!{$crate::test_runner::Config::default(); $($rest)*}
    };
}

#[macro_export]
macro_rules! __proptest_fns {
    (
        $cfg:expr;
        $(#[$meta:meta])*
        fn $name:ident($($param:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::test_runner::Config = $cfg;
            let mut rng = $crate::test_runner::TestRng::for_test(
                concat!(module_path!(), "::", stringify!($name)),
            );
            for _case in 0..cfg.cases {
                let ($($param,)+) = (
                    $($crate::strategy::Strategy::sample(&$strat, &mut rng),)+
                );
                let outcome: ::core::result::Result<(), $crate::test_runner::Reject> =
                    (|| {
                        $body
                        ::core::result::Result::Ok(())
                    })();
                let _ = outcome; // Err = rejected case, skipped.
            }
        }
        $crate::__proptest_fns!{$cfg; $($rest)*}
    };
    ($cfg:expr;) => {};
}
