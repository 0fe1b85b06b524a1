//! Offline stand-in for the `proptest` crate.
//!
//! Implements the strategy/combinator/macro surface resildb's property
//! tests use — `proptest!`, `prop_oneof!`, `prop_assert*!`, `Strategy`
//! with `prop_map`/`prop_filter`/`prop_flat_map`/`prop_recursive`,
//! `Just`, `any`, numeric ranges, regex-literal string strategies,
//! `collection::vec` and `option::of` — as a **generate-only** engine:
//! inputs are produced from a deterministic per-test PRNG and failures
//! report the offending input, but there is no shrinking and no
//! regression-file persistence.

#![forbid(unsafe_code)]

use std::fmt;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

/// Deterministic generator handed to strategies (splitmix64 core).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Builds the RNG for one test case; seeded from the test's path so
/// different tests see different input streams, reproducibly.
pub fn rng_for(test_path: &str, case: u32) -> TestRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_path.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    TestRng::new(h ^ ((case as u64) << 1 | 1))
}

// ---------------------------------------------------------------------------
// Config and errors
// ---------------------------------------------------------------------------

/// Per-`proptest!` block configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

/// A failed test case (the only variant this shim distinguishes).
#[derive(Debug, Clone)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Fails the current case with `reason`.
    pub fn fail(reason: impl Into<String>) -> Self {
        Self(reason.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for TestCaseError {}

// ---------------------------------------------------------------------------
// Strategy trait and combinators
// ---------------------------------------------------------------------------

/// A recipe for generating values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms generated values.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Rejects values failing `pred` (regenerates, up to a retry cap).
    fn prop_filter<F>(self, reason: impl Into<String>, pred: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            reason: reason.into(),
            pred,
        }
    }

    /// Builds a second strategy from each generated value.
    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMap { inner: self, f }
    }

    /// Recursively composes this (leaf) strategy through `recurse` up to
    /// `depth` levels; the size hints are accepted but unused.
    fn prop_recursive<R, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        R: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> R + 'static,
    {
        let leaf = self.boxed();
        let mut level = leaf.clone();
        for _ in 0..depth {
            let composite = recurse(level).boxed();
            // Mix the leaf back in at every level so generation can stop
            // early; only the outermost level is guaranteed composite-capable.
            level = Union::weighted(vec![(1, leaf.clone()), (2, composite)]).boxed();
        }
        level
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Arc::new(self))
    }
}

/// Type-erased, cheaply cloneable strategy.
pub struct BoxedStrategy<T>(Arc<dyn DynStrategy<T>>);

trait DynStrategy<T> {
    fn dyn_generate(&self, rng: &mut TestRng) -> T;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn dyn_generate(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        Self(Arc::clone(&self.0))
    }
}

impl<T> fmt::Debug for BoxedStrategy<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("BoxedStrategy")
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.dyn_generate(rng)
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_filter`].
#[derive(Debug, Clone)]
pub struct Filter<S, F> {
    inner: S,
    reason: String,
    pred: F,
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.generate(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!(
            "prop_filter rejected 1000 candidates in a row: {}",
            self.reason
        );
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Weighted choice among same-typed strategies (backs `prop_oneof!`).
pub struct Union<T> {
    arms: Vec<(u32, BoxedStrategy<T>)>,
    total: u64,
}

impl<T> Clone for Union<T> {
    fn clone(&self) -> Self {
        Self {
            arms: self.arms.clone(),
            total: self.total,
        }
    }
}

impl<T> fmt::Debug for Union<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Union({} arms)", self.arms.len())
    }
}

impl<T> Union<T> {
    /// Uniform choice.
    pub fn uniform(arms: Vec<BoxedStrategy<T>>) -> Self {
        Self::weighted(arms.into_iter().map(|a| (1, a)).collect())
    }

    /// Choice proportional to the attached weights.
    pub fn weighted(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        assert!(!arms.is_empty(), "Union needs at least one arm");
        let total = arms.iter().map(|(w, _)| *w as u64).sum::<u64>();
        assert!(total > 0, "Union weights sum to zero");
        Self { arms, total }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let mut pick = rng.below(self.total);
        for (w, arm) in &self.arms {
            if pick < *w as u64 {
                return arm.generate(rng);
            }
            pick -= *w as u64;
        }
        unreachable!("weights exhausted")
    }
}

// ---------------------------------------------------------------------------
// any / Arbitrary
// ---------------------------------------------------------------------------

/// Types with a canonical full-range strategy.
pub trait Arbitrary: Sized {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy for [`Arbitrary`] types; see [`any`].
#[derive(Debug)]
pub struct Any<T>(PhantomData<fn() -> T>);

impl<T> Clone for Any<T> {
    fn clone(&self) -> Self {
        Self(PhantomData)
    }
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T` (`any::<u64>()` etc.).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

// ---------------------------------------------------------------------------
// Numeric range strategies
// ---------------------------------------------------------------------------

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let offset = (rng.next_u64() as u128) % span;
                (self.start as i128 + offset as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let offset = (rng.next_u64() as u128) % span;
                (lo as i128 + offset as i128) as $t
            }
        }
    )*};
}

impl_range_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

// ---------------------------------------------------------------------------
// Tuple strategies
// ---------------------------------------------------------------------------

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);
impl_tuple_strategy!(A, B, C, D, E, F, G);
impl_tuple_strategy!(A, B, C, D, E, F, G, H);

// ---------------------------------------------------------------------------
// Regex-literal string strategies
// ---------------------------------------------------------------------------

/// `&str` patterns act as string strategies for the tiny regex dialect the
/// tests use: literal chars and `[class]` atoms, optionally quantified
/// with `{m,n}`. Classes support ranges (`a-z`) and literal members.
impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        generate_from_pattern(self, rng)
    }
}

fn generate_from_pattern(pattern: &str, rng: &mut TestRng) -> String {
    let chars: Vec<char> = pattern.chars().collect();
    let mut out = String::new();
    let mut i = 0;
    while i < chars.len() {
        let (choices, next) = if chars[i] == '[' {
            let close = chars[i..]
                .iter()
                .position(|&c| c == ']')
                .map(|p| i + p)
                .unwrap_or_else(|| panic!("unclosed class in pattern {pattern:?}"));
            (parse_class(&chars[i + 1..close], pattern), close + 1)
        } else {
            (vec![(chars[i], chars[i])], i + 1)
        };
        let (min, max, next) = parse_quantifier(&chars, next, pattern);
        let count = min + (rng.below((max - min + 1) as u64) as usize);
        for _ in 0..count {
            out.push(pick_from_class(&choices, rng));
        }
        i = next;
    }
    out
}

fn parse_class(body: &[char], pattern: &str) -> Vec<(char, char)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < body.len() {
        if i + 2 < body.len() && body[i + 1] == '-' {
            assert!(body[i] <= body[i + 2], "bad class range in {pattern:?}");
            ranges.push((body[i], body[i + 2]));
            i += 3;
        } else {
            ranges.push((body[i], body[i]));
            i += 1;
        }
    }
    assert!(!ranges.is_empty(), "empty class in pattern {pattern:?}");
    ranges
}

fn parse_quantifier(chars: &[char], at: usize, pattern: &str) -> (usize, usize, usize) {
    if at >= chars.len() || chars[at] != '{' {
        return (1, 1, at);
    }
    let close = chars[at..]
        .iter()
        .position(|&c| c == '}')
        .map(|p| at + p)
        .unwrap_or_else(|| panic!("unclosed quantifier in {pattern:?}"));
    let body: String = chars[at + 1..close].iter().collect();
    let (min, max) = match body.split_once(',') {
        Some((m, n)) => (
            m.parse().expect("quantifier min"),
            n.parse().expect("quantifier max"),
        ),
        None => {
            let n = body.parse().expect("quantifier count");
            (n, n)
        }
    };
    assert!(min <= max, "bad quantifier in {pattern:?}");
    (min, max, close + 1)
}

fn pick_from_class(ranges: &[(char, char)], rng: &mut TestRng) -> char {
    let total: u64 = ranges
        .iter()
        .map(|(a, b)| (*b as u64) - (*a as u64) + 1)
        .sum();
    let mut pick = rng.below(total);
    for (a, b) in ranges {
        let width = (*b as u64) - (*a as u64) + 1;
        if pick < width {
            return char::from_u32(*a as u32 + pick as u32).expect("valid char");
        }
        pick -= width;
    }
    unreachable!("class exhausted")
}

// ---------------------------------------------------------------------------
// collection / option modules
// ---------------------------------------------------------------------------

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Length bounds for [`fn@vec`].
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        max: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            Self {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { min: n, max: n }
        }
    }

    /// Strategy producing `Vec`s of `element` values; see [`fn@vec`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Vectors with lengths drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max - self.size.min + 1) as u64;
            let len = self.size.min + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// `Option` strategies.
pub mod option {
    use super::{Strategy, TestRng};

    /// Strategy producing `Option`s; see [`of`].
    #[derive(Debug, Clone)]
    pub struct OptionStrategy<S>(S);

    /// `Some(value)` three times out of four, `None` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.0.generate(rng))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Uniform (or `weight => arm` weighted) choice among strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::Union::weighted(::std::vec![
            $(($weight, $crate::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::uniform(::std::vec![
            $($crate::Strategy::boxed($strat)),+
        ])
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                ::std::format!($($fmt)*),
            ));
        }
    };
}

/// Fails the current case unless the two values compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        $crate::prop_assert_eq!($left, $right, "")
    };
    ($left:expr, $right:expr, $($fmt:tt)*) => {
        match (&$left, &$right) {
            (left, right) => {
                if !(*left == *right) {
                    return ::std::result::Result::Err($crate::TestCaseError::fail(
                        ::std::format!(
                            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}\n{}",
                            stringify!($left),
                            stringify!($right),
                            left,
                            right,
                            ::std::format!($($fmt)*),
                        ),
                    ));
                }
            }
        }
    };
}

/// Declares property tests; each `pat in strategy` argument is generated
/// afresh for every case.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { config = $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_body {
    (config = $config:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            let strategies = ($($strat,)+);
            for case in 0..config.cases {
                let mut rng = $crate::rng_for(
                    concat!(module_path!(), "::", stringify!($name)),
                    case,
                );
                let values = $crate::Strategy::generate(&strategies, &mut rng);
                let repr = ::std::format!("{:?}", &values);
                let outcome = ::std::panic::catch_unwind(
                    ::std::panic::AssertUnwindSafe(move || {
                        let ($($pat,)+) = values;
                        let run = || -> ::std::result::Result<(), $crate::TestCaseError> {
                            $body
                            #[allow(unreachable_code)]
                            ::std::result::Result::Ok(())
                        };
                        run()
                    }),
                );
                match outcome {
                    ::std::result::Result::Ok(::std::result::Result::Ok(())) => {}
                    ::std::result::Result::Ok(::std::result::Result::Err(e)) => {
                        ::std::panic!(
                            "proptest {} failed at case {case}: {e}\ninput: {repr}",
                            stringify!($name),
                        );
                    }
                    ::std::result::Result::Err(payload) => {
                        ::std::eprintln!(
                            "proptest {} panicked at case {case}; input: {repr}",
                            stringify!($name),
                        );
                        ::std::panic::resume_unwind(payload);
                    }
                }
            }
        }
    )*};
}

/// The usual glob import: the strategy trait, core combinators and macros.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_oneof, proptest, Just, ProptestConfig, Strategy,
        TestCaseError,
    };
}

// ---------------------------------------------------------------------------
// Self-tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn regex_pattern_shapes() {
        let mut rng = TestRng::new(3);
        for _ in 0..200 {
            let ident = "[a-z][a-z0-9_]{0,8}".generate(&mut rng);
            assert!(!ident.is_empty() && ident.len() <= 9, "bad ident {ident:?}");
            assert!(ident.chars().next().unwrap().is_ascii_lowercase());
            let printable = "[ -~]{0,12}".generate(&mut rng);
            assert!(printable.len() <= 12);
            assert!(printable.chars().all(|c| (' '..='~').contains(&c)));
        }
    }

    #[test]
    fn ranges_and_tuples_generate_in_bounds() {
        let mut rng = TestRng::new(9);
        for _ in 0..500 {
            let (a, b, c) = (0u32..4, 0u64..12, any::<bool>()).generate(&mut rng);
            assert!(a < 4 && b < 12);
            let _ = c;
            let v = collection::vec(0i64..20, 1..4).generate(&mut rng);
            assert!((1..=3).contains(&v.len()));
            assert!(v.iter().all(|x| (0..20).contains(x)));
        }
    }

    #[test]
    fn recursive_strategy_terminates() {
        #[derive(Debug, Clone)]
        enum Tree {
            Leaf(#[allow(dead_code)] i64),
            Node(Vec<Tree>),
        }
        fn depth(t: &Tree) -> usize {
            match t {
                Tree::Leaf(_) => 1,
                Tree::Node(children) => 1 + children.iter().map(depth).max().unwrap_or(0),
            }
        }
        let leaf = (0i64..10).prop_map(Tree::Leaf);
        let strat = leaf.prop_recursive(3, 16, 4, |inner| {
            collection::vec(inner, 1..4).prop_map(Tree::Node)
        });
        let mut rng = TestRng::new(11);
        for _ in 0..200 {
            assert!(depth(&strat.generate(&mut rng)) <= 4);
        }
    }

    #[test]
    fn filter_and_flat_map_compose() {
        let even = (0i64..100).prop_filter("even", |v| v % 2 == 0);
        let pairs = even.prop_flat_map(|n| (Just(n), 0i64..(n + 1)));
        let mut rng = TestRng::new(5);
        for _ in 0..200 {
            let (n, m) = pairs.generate(&mut rng);
            assert!(n % 2 == 0 && m <= n);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_round_trip(x in 0u64..100, flip in any::<bool>()) {
            prop_assert!(x < 100);
            prop_assert_eq!(flip, flip, "tautology on {}", x);
        }
    }
}
