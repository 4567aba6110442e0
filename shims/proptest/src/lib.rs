//! Offline stand-in for the subset of `proptest` this workspace uses.
//!
//! Provides the `proptest! { #[test] fn name(x in strategy, ...) { ... } }`
//! macro, `prop_assert!` / `prop_assert_eq!`, range and tuple strategies,
//! `proptest::collection::vec`, and string strategies for the small regex
//! subset the tests rely on (`[a-z]{1,8}`-style classes and `\PC`).
//!
//! Differences from the real crate: no shrinking (the failing inputs are
//! printed verbatim, for a failed `prop_assert` and for a panicking body
//! alike), and a fixed deterministic seed per test derived from the test
//! name (override the case count with `PROPTEST_CASES`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub mod collection;
pub mod string;

pub mod prelude {
    //! Everything a `use proptest::prelude::*;` test expects in scope.
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
    pub use crate::{Strategy, TestCaseError, TestRunner};
}

/// A failed property (carried by `prop_assert!` and friends).
#[derive(Debug, Clone)]
pub struct TestCaseError(pub String);

impl TestCaseError {
    /// Build from a message.
    pub fn fail(m: impl Into<String>) -> TestCaseError {
        TestCaseError(m.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Per-test driver: RNG plus case budget.
pub struct TestRunner {
    /// Deterministic generator (seeded from the test name).
    pub rng: StdRng,
    /// Number of cases to run (default 128; `PROPTEST_CASES` overrides).
    pub cases: usize,
}

impl TestRunner {
    /// New runner for the named test.
    pub fn new(test_name: &str) -> TestRunner {
        let mut seed = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
        for b in test_name.bytes() {
            seed ^= b as u64;
            seed = seed.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(128);
        TestRunner {
            rng: StdRng::seed_from_u64(seed),
            cases,
        }
    }
}

/// A generator of random values (no shrinking in the shim).
pub trait Strategy {
    /// The value type produced.
    type Value;
    /// Generate one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut StdRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Strategy producing a fixed value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! impl_range_inclusive_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_inclusive_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for bool {
    type Value = bool;
    fn generate(&self, _rng: &mut StdRng) -> bool {
        *self
    }
}

/// String literals are regex-subset strategies, as in the real crate.
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut StdRng) -> String {
        string::generate_from_pattern(self, rng)
    }
}

macro_rules! impl_tuple_strategy {
    ($($s:ident . $idx:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A.0);
impl_tuple_strategy!(A.0, B.1);
impl_tuple_strategy!(A.0, B.1, C.2);
impl_tuple_strategy!(A.0, B.1, C.2, D.3);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4);

/// The property-test entry macro. Mirrors the real crate's surface for the
/// forms used in this workspace:
///
/// ```ignore
/// proptest! {
///     #[test]
///     fn my_property(x in 0usize..10, s in "[a-z]{1,4}") { prop_assert!(x < 10); }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    ($(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let mut runner = $crate::TestRunner::new(stringify!($name));
            for case in 0..runner.cases {
                $(let $arg = $crate::Strategy::generate(&($strat), &mut runner.rng);)*
                // Render inputs up front: the body may consume them, and on
                // failure we still want them in the panic message.
                let inputs = format!("{:#?}", ($(&$arg,)*));
                let result = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(
                    || -> ::std::result::Result<(), $crate::TestCaseError> {
                        $body
                        #[allow(unreachable_code)]
                        Ok(())
                    },
                ))
                .unwrap_or_else(|payload| {
                    $crate::resume_panicked_case(
                        payload,
                        stringify!($name),
                        case + 1,
                        runner.cases,
                        &inputs,
                    )
                });
                if let Err(e) = result {
                    panic!(
                        "proptest `{}` failed at case {}/{}:\n  {}\n  inputs: {}",
                        stringify!($name),
                        case + 1,
                        runner.cases,
                        e,
                        inputs
                    );
                }
            }
        }
    )*};
}

/// Re-raise a panic from case `case` of `cases` of property `name`,
/// naming the case and its inputs as a `prop_assert` failure does: the
/// report is printed and becomes the new panic payload.
#[doc(hidden)]
pub fn resume_panicked_case(
    payload: Box<dyn std::any::Any + Send>,
    name: &str,
    case: usize,
    cases: usize,
    inputs: &str,
) -> ! {
    let msg = match (
        payload.downcast_ref::<&str>(),
        payload.downcast_ref::<String>(),
    ) {
        (Some(s), _) => s,
        (_, Some(s)) => s.as_str(),
        _ => "(non-string panic payload)",
    };
    let report =
        format!("proptest `{name}` panicked at case {case}/{cases}:\n  {msg}\n  inputs: {inputs}");
    eprintln!("{report}");
    std::panic::resume_unwind(Box::new(report))
}

/// Fail the enclosing property unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Fail the enclosing property unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(left == right, "assertion failed: {:?} != {:?}", left, right);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(left == right, $($fmt)*);
    }};
}

/// Fail the enclosing property if the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(left != right, "assertion failed: {:?} == {:?}", left, right);
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    proptest! {
        #[test]
        fn ranges_in_bounds(x in 3usize..9, f in -1.0f32..1.0, i in 0i32..=4) {
            prop_assert!((3..9).contains(&x));
            prop_assert!((-1.0..1.0).contains(&f));
            prop_assert!((0..=4).contains(&i));
        }

        #[test]
        fn tuples_and_vecs(pair in (0usize..5, 1usize..3), v in crate::collection::vec(0u8..10, 0..6)) {
            prop_assert!(pair.0 < 5 && pair.1 >= 1);
            prop_assert!(v.len() < 6);
            for x in &v {
                prop_assert!(*x < 10);
            }
        }

        /// A panicking body names its case, as a failed assertion does.
        #[test]
        #[should_panic(expected = "proptest `body_panic_names_its_case` panicked at case 1/")]
        fn body_panic_names_its_case(x in 5usize..6) {
            if x == 5 {
                panic!("boom at {x}");
            }
        }

        /// ... and carries the original message and the inputs.
        #[test]
        #[should_panic(expected = "boom at 5\n  inputs: (\n    5,\n)")]
        fn body_panic_shows_its_message_and_inputs(x in 5usize..6) {
            if x == 5 {
                panic!("boom at {x}");
            }
        }

        #[test]
        fn string_patterns(s in "[a-z]{1,8}", t in "\\PC{0,20}") {
            prop_assert!(!s.is_empty() && s.len() <= 8);
            prop_assert!(s.chars().all(|c| c.is_ascii_lowercase()));
            prop_assert!(t.chars().count() <= 20);
            prop_assert!(t.chars().all(|c| !c.is_control()));
        }
    }

    #[test]
    fn failures_panic_with_inputs() {
        let result = std::panic::catch_unwind(|| {
            proptest! {
                fn always_fails(x in 0usize..10) {
                    prop_assert!(x > 100, "x was {}", x);
                }
            }
            always_fails();
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("always_fails"), "panic message was: {msg}");
        assert!(msg.contains("inputs"), "panic message was: {msg}");
    }

    #[test]
    fn deterministic_per_test_name() {
        let mut a = TestRunner::new("some_test");
        let mut b = TestRunner::new("some_test");
        assert_eq!(
            (0usize..100).generate(&mut a.rng),
            (0usize..100).generate(&mut b.rng)
        );
    }
}
