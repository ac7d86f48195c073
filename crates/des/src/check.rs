//! Minimal in-tree property-testing harness.
//!
//! A self-contained replacement for the `proptest` dev-dependency so the
//! workspace's randomized test suites build and run fully offline. The
//! design is Hedgehog-style *integrated shrinking*: a [`Gen`] produces a
//! [`Shrinkable`] — a value plus a lazy tree of simpler candidate values —
//! so combinators like [`Gen::map`] and [`vec_of`] shrink for free.
//!
//! ```
//! use robonet_des::check::{self, Gen, Outcome};
//!
//! check::forall("addition commutes", &check::pair(
//!     check::u64s(0..1000),
//!     check::u64s(0..1000),
//! ), |&(a, b)| {
//!     assert_eq!(a + b, b + a);
//!     Outcome::Pass
//! });
//! ```
//!
//! Environment knobs:
//!
//! - `ROBONET_CHECK_CASES`: overrides the number of cases per property.
//! - `ROBONET_CHECK_SEED`: overrides the root seed (printed on failure so
//!   a failing run can be replayed exactly).
//!
//! On failure the harness shrinks the counterexample by halving toward
//! each generator's lower bound, then panics with the property name, the
//! seed, and the minimal value found.

use std::cell::Cell;
use std::fmt::Debug;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Once;

use crate::rng::{self, Rng, Xoshiro256};

/// Default number of cases when neither the call site nor the
/// environment says otherwise.
pub const DEFAULT_CASES: u32 = 64;

/// Result a property returns for one generated case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The case passed (assertion panics signal failure instead).
    Pass,
    /// The case does not satisfy the property's precondition; it is not
    /// counted. The proptest equivalent is `prop_assume!`.
    Discard,
}

/// A generated value together with a lazy tree of simpler candidates.
pub struct Shrinkable<T> {
    /// The generated value.
    pub value: T,
    shrink: Rc<dyn Fn() -> Vec<Shrinkable<T>>>,
}

impl<T> Clone for Shrinkable<T>
where
    T: Clone,
{
    fn clone(&self) -> Self {
        Shrinkable {
            value: self.value.clone(),
            shrink: Rc::clone(&self.shrink),
        }
    }
}

impl<T: 'static> Shrinkable<T> {
    /// A value with no simpler forms.
    pub fn leaf(value: T) -> Self {
        Shrinkable {
            value,
            shrink: Rc::new(Vec::new),
        }
    }

    /// One level of candidate simplifications, simplest first.
    pub fn shrinks(&self) -> Vec<Shrinkable<T>> {
        (self.shrink)()
    }

    fn map<U: 'static>(self, f: Rc<dyn Fn(&T) -> U>) -> Shrinkable<U> {
        let value = f(&self.value);
        let shrink = self.shrink;
        Shrinkable {
            value,
            shrink: Rc::new(move || shrink().into_iter().map(|c| c.map(Rc::clone(&f))).collect()),
        }
    }
}

/// A generator's boxed sampling function.
type RunFn<T> = Rc<dyn Fn(&mut Xoshiro256) -> Shrinkable<T>>;

/// A generator of shrinkable random values.
pub struct Gen<T> {
    run: RunFn<T>,
}

impl<T> Clone for Gen<T> {
    fn clone(&self) -> Self {
        Gen {
            run: Rc::clone(&self.run),
        }
    }
}

impl<T: 'static> Gen<T> {
    /// Wraps a sampling function as a generator.
    pub fn new(f: impl Fn(&mut Xoshiro256) -> Shrinkable<T> + 'static) -> Self {
        Gen { run: Rc::new(f) }
    }

    /// Draws one shrinkable value.
    pub fn sample(&self, rng: &mut Xoshiro256) -> Shrinkable<T> {
        (self.run)(rng)
    }

    /// Transforms generated values; shrinking happens on the source and
    /// is mapped through `f`, so no shrink information is lost.
    pub fn map<U: 'static>(self, f: impl Fn(&T) -> U + 'static) -> Gen<U> {
        let f: Rc<dyn Fn(&T) -> U> = Rc::new(f);
        Gen::new(move |rng| (self.run)(rng).map(Rc::clone(&f)))
    }
}

// ---------------------------------------------------------------------
// Primitive generators
// ---------------------------------------------------------------------

fn shrink_u64_toward(low: u64, v: u64) -> Vec<u64> {
    if v <= low {
        return Vec::new();
    }
    let mut out = vec![low];
    // Halving from below: midpoint, then increasingly close to v. Each
    // candidate re-shrinks recursively, giving binary-search descent.
    let mut delta = (v - low) / 2;
    while delta > 0 {
        let c = v - delta;
        if *out.last().unwrap() != c {
            out.push(c);
        }
        delta /= 2;
    }
    out
}

fn shrinkable_u64(low: u64, v: u64) -> Shrinkable<u64> {
    Shrinkable {
        value: v,
        shrink: Rc::new(move || {
            shrink_u64_toward(low, v)
                .into_iter()
                .map(|c| shrinkable_u64(low, c))
                .collect()
        }),
    }
}

/// Uniform `u64` in `range`, shrinking toward `range.start`.
pub fn u64s(range: Range<u64>) -> Gen<u64> {
    assert!(range.start < range.end, "empty range");
    Gen::new(move |rng| shrinkable_u64(range.start, rng.gen_range(range.clone())))
}

/// Any `u64` (full width), shrinking toward zero.
pub fn u64_any() -> Gen<u64> {
    Gen::new(|rng| shrinkable_u64(0, rng.next_u64()))
}

/// Uniform `u32` in `range`, shrinking toward `range.start`.
pub fn u32s(range: Range<u32>) -> Gen<u32> {
    assert!(range.start < range.end, "empty range");
    u64s(u64::from(range.start)..u64::from(range.end)).map(|&v| v as u32)
}

/// Uniform `usize` in `range`, shrinking toward `range.start`.
pub fn usizes(range: Range<usize>) -> Gen<usize> {
    assert!(range.start < range.end, "empty range");
    u64s(range.start as u64..range.end as u64).map(|&v| v as usize)
}

fn shrink_f64_toward(low: f64, v: f64) -> Vec<f64> {
    // Nothing to do unless strictly above `low` (NaN shrinks to nothing).
    if v.partial_cmp(&low) != Some(std::cmp::Ordering::Greater) {
        return Vec::new();
    }
    let mut out = vec![low];
    let mid = low + (v - low) / 2.0;
    // Stop bisecting once the step is negligible relative to the value;
    // otherwise f64 density makes shrink chains effectively unbounded.
    if mid > low && mid < v && (v - mid) > 1e-9 * (1.0 + v.abs()) {
        out.push(mid);
    }
    out
}

fn shrinkable_f64(low: f64, v: f64) -> Shrinkable<f64> {
    Shrinkable {
        value: v,
        shrink: Rc::new(move || {
            shrink_f64_toward(low, v)
                .into_iter()
                .map(|c| shrinkable_f64(low, c))
                .collect()
        }),
    }
}

/// Uniform `f64` in `[range.start, range.end)`, shrinking toward
/// `range.start`.
pub fn f64s(range: Range<f64>) -> Gen<f64> {
    assert!(range.start < range.end, "empty range");
    Gen::new(move |rng| shrinkable_f64(range.start, rng.gen_range(range.clone())))
}

/// Fair coin, shrinking `true` to `false`.
pub fn bools() -> Gen<bool> {
    Gen::new(|rng| {
        let v = rng.gen_bool(0.5);
        Shrinkable {
            value: v,
            shrink: Rc::new(move || {
                if v {
                    vec![Shrinkable::leaf(false)]
                } else {
                    Vec::new()
                }
            }),
        }
    })
}

/// ASCII lowercase string with length in `len`, shrinking both length
/// and characters (toward `'a'`).
pub fn lowercase_strings(len: Range<usize>) -> Gen<String> {
    vec_of(usizes(0..26), len).map(|v| v.iter().map(|&i| (b'a' + i as u8) as char).collect())
}

// ---------------------------------------------------------------------
// Combinators
// ---------------------------------------------------------------------

fn shrinkable_vec<T: Clone + 'static>(
    items: Vec<Shrinkable<T>>,
    min_len: usize,
) -> Shrinkable<Vec<T>> {
    let value: Vec<T> = items.iter().map(|s| s.value.clone()).collect();
    Shrinkable {
        value,
        shrink: Rc::new(move || {
            let n = items.len();
            let mut out = Vec::new();
            // Structural shrinks first: shorter vectors are simpler than
            // element-wise-smaller ones.
            if n > min_len {
                let half = (n / 2).max(min_len);
                if half < n {
                    out.push(shrinkable_vec(items[..half].to_vec(), min_len));
                    out.push(shrinkable_vec(items[n - half..].to_vec(), min_len));
                }
                for i in 0..n {
                    let mut shorter = items.clone();
                    shorter.remove(i);
                    out.push(shrinkable_vec(shorter, min_len));
                }
            }
            for i in 0..n {
                for cand in items[i].shrinks() {
                    let mut copy = items.clone();
                    copy[i] = cand;
                    out.push(shrinkable_vec(copy, min_len));
                }
            }
            out
        }),
    }
}

/// Vector of `elem` draws with length uniform in `len`; shrinks by
/// dropping halves/elements, then by shrinking elements.
pub fn vec_of<T: Clone + 'static>(elem: Gen<T>, len: Range<usize>) -> Gen<Vec<T>> {
    assert!(len.start < len.end, "empty length range");
    Gen::new(move |rng| {
        let n = rng.gen_range(len.clone());
        let items: Vec<Shrinkable<T>> = (0..n).map(|_| elem.sample(rng)).collect();
        shrinkable_vec(items, len.start)
    })
}

fn shrinkable_pair<A: Clone + 'static, B: Clone + 'static>(
    a: Shrinkable<A>,
    b: Shrinkable<B>,
) -> Shrinkable<(A, B)> {
    let value = (a.value.clone(), b.value.clone());
    Shrinkable {
        value,
        shrink: Rc::new(move || {
            let mut out = Vec::new();
            for ca in a.shrinks() {
                out.push(shrinkable_pair(ca, b.clone()));
            }
            for cb in b.shrinks() {
                out.push(shrinkable_pair(a.clone(), cb));
            }
            out
        }),
    }
}

/// Pairs of independent draws; shrinks each component in turn.
pub fn pair<A: Clone + 'static, B: Clone + 'static>(a: Gen<A>, b: Gen<B>) -> Gen<(A, B)> {
    Gen::new(move |rng| {
        let sa = a.sample(rng);
        let sb = b.sample(rng);
        shrinkable_pair(sa, sb)
    })
}

/// Triples of independent draws.
pub fn triple<A: Clone + 'static, B: Clone + 'static, C: Clone + 'static>(
    a: Gen<A>,
    b: Gen<B>,
    c: Gen<C>,
) -> Gen<(A, B, C)> {
    pair(pair(a, b), c).map(|((a, b), c)| (a.clone(), b.clone(), c.clone()))
}

/// Quadruples of independent draws.
pub fn quad<A: Clone + 'static, B: Clone + 'static, C: Clone + 'static, D: Clone + 'static>(
    a: Gen<A>,
    b: Gen<B>,
    c: Gen<C>,
    d: Gen<D>,
) -> Gen<(A, B, C, D)> {
    pair(pair(a, b), pair(c, d))
        .map(|((a, b), (c, d))| (a.clone(), b.clone(), c.clone(), d.clone()))
}

/// Coordinates that probe a cell lookup's edges on a grid of `cell`-wide
/// cells over `[0, side)`: NaN, ±∞, ±0.0, magnitudes up to `1e300`,
/// exact multiples of `cell` from −3 to 20 cells and their neighbouring
/// floats, and plain values in `[−side, 2·side)`.
pub fn cell_edge_f64s(side: f64, cell: f64) -> Gen<f64> {
    triple(usizes(0..10), usizes(0..24), f64s(-1.0..2.0)).map(move |&(mode, j, v)| {
        let multiple = (j as f64 - 3.0) * cell;
        match mode {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -0.0,
            4 => v * 1e300,
            5 => multiple,
            6 => multiple.next_up(),
            7 => multiple.next_down(),
            _ => v * side,
        }
    })
}

// ---------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------

thread_local! {
    static QUIET_PANICS: Cell<bool> = const { Cell::new(false) };
}

/// Panic messages from property bodies are expected while probing and
/// shrinking; suppress the default hook's noise for those, thread-locally.
fn install_quiet_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

enum CaseResult {
    Pass,
    Discard,
    Fail(String),
}

fn run_case<T>(prop: &impl Fn(&T) -> Outcome, value: &T) -> CaseResult {
    QUIET_PANICS.with(|q| q.set(true));
    let r = panic::catch_unwind(AssertUnwindSafe(|| prop(value)));
    QUIET_PANICS.with(|q| q.set(false));
    match r {
        Ok(Outcome::Pass) => CaseResult::Pass,
        Ok(Outcome::Discard) => CaseResult::Discard,
        Err(payload) => CaseResult::Fail(panic_message(payload)),
    }
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// Checks `prop` against [`DEFAULT_CASES`] generated cases (or
/// `ROBONET_CHECK_CASES`), panicking with a shrunk counterexample and
/// the replay seed on failure.
pub fn forall<T: Clone + Debug + 'static>(name: &str, gen: &Gen<T>, prop: impl Fn(&T) -> Outcome) {
    forall_cases(name, DEFAULT_CASES, gen, prop)
}

/// [`forall`] with an explicit case count (still overridden by
/// `ROBONET_CHECK_CASES` so CI can globally dial effort up or down).
pub fn forall_cases<T: Clone + Debug + 'static>(
    name: &str,
    cases: u32,
    gen: &Gen<T>,
    prop: impl Fn(&T) -> Outcome,
) {
    install_quiet_hook();
    let cases = env_u64("ROBONET_CHECK_CASES").map_or(cases, |v| v.max(1) as u32);
    let root = env_u64("ROBONET_CHECK_SEED").unwrap_or_else(|| rng::derive_seed(0, name));
    let max_discards = cases as u64 * 16;

    let mut passed = 0u32;
    let mut discarded = 0u64;
    let mut case = 0u64;
    while passed < cases {
        // Each case gets its own derived stream so a failure replays
        // from (root, case) alone, independent of draw counts elsewhere.
        let mut case_rng = Xoshiro256::seed_from_u64(rng::derive_seed_u64(root, case));
        case += 1;
        let sample = gen.sample(&mut case_rng);
        match run_case(&prop, &sample.value) {
            CaseResult::Pass => passed += 1,
            CaseResult::Discard => {
                discarded += 1;
                if discarded > max_discards {
                    eprintln!(
                        "check '{name}': giving up after {discarded} discards \
                         ({passed}/{cases} cases passed) — precondition too strict"
                    );
                    return;
                }
            }
            CaseResult::Fail(msg) => {
                let (minimal, steps, msg) = shrink(sample, &prop, msg);
                panic!(
                    "property '{name}' falsified after {passed} passing case(s)\n\
                     minimal counterexample ({steps} shrink steps): {minimal:?}\n\
                     failure: {msg}\n\
                     replay with ROBONET_CHECK_SEED={root}"
                );
            }
        }
    }
}

/// Greedy descent through the shrink tree: take the first candidate that
/// still fails, repeat from there, bounded by a global attempt budget.
fn shrink<T: Clone + Debug + 'static>(
    mut current: Shrinkable<T>,
    prop: &impl Fn(&T) -> Outcome,
    mut msg: String,
) -> (T, u32, String) {
    const MAX_ATTEMPTS: u32 = 1024;
    let mut attempts = 0u32;
    let mut steps = 0u32;
    'descend: loop {
        for cand in current.shrinks() {
            attempts += 1;
            if attempts > MAX_ATTEMPTS {
                break 'descend;
            }
            if let CaseResult::Fail(m) = run_case(prop, &cand.value) {
                current = cand;
                msg = m;
                steps += 1;
                continue 'descend;
            }
        }
        break;
    }
    (current.value, steps, msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let hits = std::cell::Cell::new(0u32);
        forall_cases("trivially true", 32, &u64s(0..100), |_| {
            hits.set(hits.get() + 1);
            Outcome::Pass
        });
        assert!(hits.get() >= 32);
    }

    #[test]
    fn failing_property_panics_with_context() {
        let r = std::panic::catch_unwind(|| {
            forall_cases("always false", 16, &u64s(0..100), |_| {
                panic!("nope");
            })
        });
        let msg = match r {
            Err(p) => super::panic_message(p),
            Ok(()) => panic!("property should have failed"),
        };
        assert!(msg.contains("always false"), "{msg}");
        assert!(msg.contains("ROBONET_CHECK_SEED="), "{msg}");
    }

    #[test]
    fn integers_shrink_to_the_boundary() {
        // Fails for v >= 57: minimal counterexample must be exactly 57.
        let r = std::panic::catch_unwind(|| {
            forall_cases("ge 57", 64, &u64s(0..10_000), |&v| {
                assert!(v < 57);
                Outcome::Pass
            })
        });
        let msg = super::panic_message(r.expect_err("must fail"));
        assert!(
            msg.contains("counterexample") && msg.contains(": 57\n"),
            "expected minimal 57 in: {msg}"
        );
    }

    #[test]
    fn vectors_shrink_to_minimal_failing_shape() {
        // Fails when any element >= 50; minimal case is a single [50].
        let r = std::panic::catch_unwind(|| {
            forall_cases("elem ge 50", 64, &vec_of(u64s(0..100), 0..20), |v| {
                assert!(v.iter().all(|&x| x < 50));
                Outcome::Pass
            })
        });
        let msg = super::panic_message(r.expect_err("must fail"));
        assert!(msg.contains("[50]"), "expected [50] in: {msg}");
    }

    #[test]
    fn map_preserves_shrinking() {
        // Doubling map: property fails for doubled >= 40, i.e. raw >= 20;
        // minimal doubled value must be 40.
        let r = std::panic::catch_unwind(|| {
            forall_cases("mapped", 64, &u64s(0..1000).map(|&v| v * 2), |&v| {
                assert!(v < 40);
                Outcome::Pass
            })
        });
        let msg = super::panic_message(r.expect_err("must fail"));
        assert!(msg.contains(": 40\n"), "expected minimal 40 in: {msg}");
    }

    #[test]
    fn discard_does_not_consume_cases() {
        let passed = std::cell::Cell::new(0u32);
        forall_cases("half discarded", 16, &u64s(0..100), |&v| {
            if v < 50 {
                return Outcome::Discard;
            }
            passed.set(passed.get() + 1);
            Outcome::Pass
        });
        assert!(passed.get() >= 16);
    }

    #[test]
    fn pairs_and_strings_generate_and_shrink() {
        forall_cases(
            "pair/string smoke",
            32,
            &pair(lowercase_strings(1..12), bools()),
            |(s, _)| {
                assert!(!s.is_empty() && s.len() < 12);
                assert!(s.bytes().all(|b| b.is_ascii_lowercase()));
                Outcome::Pass
            },
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let first: std::cell::RefCell<Vec<u64>> = Default::default();
        forall_cases("collect a", 8, &u64s(0..1_000_000), |&v| {
            first.borrow_mut().push(v);
            Outcome::Pass
        });
        let second: std::cell::RefCell<Vec<u64>> = Default::default();
        forall_cases("collect a", 8, &u64s(0..1_000_000), |&v| {
            second.borrow_mut().push(v);
            Outcome::Pass
        });
        assert_eq!(first, second, "same name+seed must replay identically");
    }
}
