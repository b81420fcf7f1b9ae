//! A byte-domain constraint solver for path conditions.
//!
//! Inputs are bytes, so every variable ranges over `0..=255`. That small
//! domain lets us combine two complete techniques:
//!
//! 1. **Unary filtering** — a constraint touching exactly one variable is
//!    solved *exactly* by evaluating all 256 values; intersecting these sets
//!    per variable prunes most of the space (BGP parsers branch mostly on
//!    single bytes: flags, type codes, lengths).
//! 2. **Bounded backtracking** — remaining multi-variable constraints (e.g.
//!    16-bit length fields spanning two bytes) are settled by depth-first
//!    search over the filtered candidate sets, with a step budget.
//!
//! Every SAT answer returns a model that is re-checkable with
//! [`Solver::check`]; the test suite verifies soundness on random systems.

use crate::ctx::BranchRec;
use crate::expr::{ExprArena, ExprId};
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

/// 256-bit set of candidate byte values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByteSet {
    words: [u64; 4],
}

impl ByteSet {
    /// The full set (all 256 values).
    pub fn full() -> Self {
        ByteSet {
            words: [u64::MAX; 4],
        }
    }

    /// The empty set.
    pub fn empty() -> Self {
        ByteSet { words: [0; 4] }
    }

    /// Membership test.
    // dice-lint: allow(panic-freedom): v >> 6 < 4 indexes the fixed [u64; 4] word array
    pub fn contains(&self, v: u8) -> bool {
        self.words[(v >> 6) as usize] >> (v & 63) & 1 == 1
    }

    /// Insert a value.
    // dice-lint: allow(panic-freedom): v >> 6 < 4 indexes the fixed [u64; 4] word array
    pub fn insert(&mut self, v: u8) {
        self.words[(v >> 6) as usize] |= 1 << (v & 63);
    }

    /// Remove a value.
    // dice-lint: allow(panic-freedom): v >> 6 < 4 indexes the fixed [u64; 4] word array
    pub fn remove(&mut self, v: u8) {
        self.words[(v >> 6) as usize] &= !(1 << (v & 63));
    }

    /// Set intersection.
    // dice-lint: allow(panic-freedom): the 0..4 loop stays inside the fixed [u64; 4] word array
    pub fn intersect(&mut self, other: &ByteSet) {
        for i in 0..4 {
            self.words[i] &= other.words[i];
        }
    }

    /// Number of members.
    pub fn len(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Whether no value remains.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterate members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u8> + '_ {
        self.words
            .iter()
            .zip((0u8..4).map(|i| i * 64))
            .flat_map(|(&word, base)| {
                let mut rest = word;
                std::iter::from_fn(move || {
                    if rest == 0 {
                        return None;
                    }
                    let bit = rest.trailing_zeros() as u8;
                    rest &= rest - 1;
                    Some(base + bit)
                })
            })
    }
}

/// The verdict of a solve call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveResult {
    /// Satisfiable; the model assigns every variable that appears in the
    /// constraint system.
    Sat(BTreeMap<u32, u8>),
    /// Proven unsatisfiable.
    Unsat,
    /// Budget exhausted before an answer.
    Unknown,
}

/// Tuning knobs.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct SolverBudget {
    /// Maximum backtracking steps (assignments attempted).
    pub max_steps: u64,
}

impl Default for SolverBudget {
    fn default() -> Self {
        SolverBudget { max_steps: 500_000 }
    }
}

/// Cumulative statistics across solver invocations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// solve() calls.
    pub queries: u64,
    /// SAT answers.
    pub sat: u64,
    /// UNSAT answers.
    pub unsat: u64,
    /// Unknown answers (budget exhausted).
    pub unknown: u64,
    /// Total backtracking steps.
    pub steps: u64,
    /// Negation queries answered from the refutation cache *without*
    /// reaching [`Solver::solve`] (maintained by the exploration loop,
    /// which keys the cache on the canonical structural hash of the
    /// hash-consed constraint set).
    pub cache_hits: u64,
    /// Branch flips skipped before query construction because the target
    /// (site, direction) was already covered.
    pub covered_skips: u64,
    /// Per-constraint [`UnaryMemo`] hits inside [`Solver::solve_memo`]:
    /// variable lists and unary-filter byte sets reused instead of
    /// recomputed. Negation queries of one path share their prefix, so
    /// this grows quadratically faster than `queries`.
    pub unary_memo_hits: u64,
}

impl SolverStats {
    /// Fraction of negation queries served by the refutation cache.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.queries;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// The solver. Holds no state besides statistics; borrow an arena per call.
#[derive(Debug, Default)]
pub struct Solver {
    /// Cumulative statistics.
    pub stats: SolverStats,
    /// Budget applied to each query.
    pub budget: SolverBudget,
}

/// Cross-query memo of the per-constraint work [`Solver::solve`] redoes
/// for every negation query of a path: the referenced variable list and —
/// for single-variable constraints — the exact unary-filter [`ByteSet`]
/// (256 evaluations each). Keyed by the *canonical structural hash* of
/// `(constraint, polarity)` supplied by the caller (see
/// `ExprArena::node_hashes`), so entries are valid across arenas — the
/// negation queries of one path share their prefix constraints, and
/// different seeds with the same parse shape share whole queries. Both
/// memoized facts are pure functions of the constraint's structure, so
/// reuse cannot change any solve outcome.
#[derive(Debug, Default)]
pub struct UnaryMemo {
    map: HashMap<u64, MemoEntry, BuildHasherDefault<PremixedHasher>>,
    /// Entries served from the memo (vars + unary set count as one hit).
    pub hits: u64,
}

#[derive(Debug)]
struct MemoEntry {
    /// Shared with every query that mentions the constraint.
    vars: Rc<[u32]>,
    unary: Option<ByteSet>,
}

impl UnaryMemo {
    /// The variable list of the constraint keyed `key`, computing and
    /// recording it on a miss.
    fn vars(&mut self, key: u64, arena: &ExprArena, e: ExprId) -> Rc<[u32]> {
        match self.map.entry(key) {
            Entry::Occupied(entry) => {
                self.hits += 1;
                Rc::clone(&entry.get().vars)
            }
            Entry::Vacant(slot) => {
                let vars: Rc<[u32]> = arena.vars(e).into();
                slot.insert(MemoEntry {
                    vars: Rc::clone(&vars),
                    unary: None,
                });
                vars
            }
        }
    }

    fn unary(&self, key: u64) -> Option<ByteSet> {
        self.map.get(&key).and_then(|entry| entry.unary)
    }

    fn set_unary(&mut self, key: u64, set: ByteSet) {
        if let Some(entry) = self.map.get_mut(&key) {
            entry.unary = Some(set);
        }
    }
}

/// Hasher for [`UnaryMemo`] keys, which are already mixed structural
/// hashes: the key is its own hash.
#[derive(Debug, Default)]
struct PremixedHasher(u64);

impl Hasher for PremixedHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only `write_u64` is reached for `u64` keys; fold anything else.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ b as u64;
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

/// A constraint: an expression that must evaluate truthy (`true`) or falsy
/// (`false`).
pub type Constraint = (ExprId, bool);

/// Build the constraint system "path prefix holds, branch `k` negated" —
/// the concolic negation query.
pub fn negation_query(path: &[BranchRec], k: usize) -> Vec<Constraint> {
    assert!(k < path.len());
    let mut taken = taken_constraints(path);
    with_negation_query(&mut taken, k, <[Constraint]>::to_vec)
}

/// The as-taken constraints of `path`: the buffer in which
/// [`with_negation_query`] poses each of the path's negation queries.
pub(crate) fn taken_constraints(path: &[BranchRec]) -> Vec<Constraint> {
    path.iter().map(|rec| (rec.constraint, rec.taken)).collect()
}

/// Run `f` on the negation query for branch `k` (`k < taken.len()`),
/// posed in place in the path's as-taken constraints `taken`: branch `k`
/// is negated for the call and restored after it, so no prefix is copied.
pub(crate) fn with_negation_query<R>(
    taken: &mut [Constraint],
    k: usize,
    f: impl FnOnce(&[Constraint]) -> R,
) -> R {
    let query = taken.get_mut(..=k).unwrap_or_default();
    let flip = |query: &mut [Constraint]| {
        if let Some((_, want)) = query.last_mut() {
            *want = !*want;
        }
    };
    flip(query);
    let out = f(query);
    flip(query);
    out
}

impl Solver {
    /// A solver with the default budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// A solver with a custom budget.
    pub fn with_budget(budget: SolverBudget) -> Self {
        Solver {
            stats: SolverStats::default(),
            budget,
        }
    }

    /// Check a full model against a constraint system.
    pub fn check(
        arena: &ExprArena,
        constraints: &[Constraint],
        model: &BTreeMap<u32, u8>,
        seed: &dyn Fn(u32) -> u8,
    ) -> bool {
        let lookup = |idx: u32| -> Option<u64> {
            Some(model.get(&idx).copied().unwrap_or_else(|| seed(idx)) as u64)
        };
        constraints.iter().all(|&(e, want)| {
            arena
                .eval(e, &lookup)
                .map(|v| (v != 0) == want)
                .unwrap_or(false)
        })
    }

    /// Solve a conjunction of constraints. `seed` provides default values
    /// for unconstrained bytes (the original input), so models stay close
    /// to the seed input — a concolic-execution requirement.
    pub fn solve(
        &mut self,
        arena: &ExprArena,
        constraints: &[Constraint],
        seed: &dyn Fn(u32) -> u8,
    ) -> SolveResult {
        self.solve_impl(arena, constraints, seed, None)
    }

    /// Like [`Solver::solve`], reusing per-constraint work through `memo`.
    /// `chashes[i]` must be the canonical structural hash of
    /// `constraints[i]` *including its polarity*; the exploration loop
    /// derives it from `ExprArena::node_hashes`, which makes entries
    /// shareable across the separately grown arenas of different
    /// executions and seeds.
    pub fn solve_memo(
        &mut self,
        arena: &ExprArena,
        constraints: &[Constraint],
        seed: &dyn Fn(u32) -> u8,
        chashes: &[u64],
        memo: &mut UnaryMemo,
    ) -> SolveResult {
        debug_assert_eq!(constraints.len(), chashes.len());
        self.solve_impl(arena, constraints, seed, Some((chashes, memo)))
    }

    fn solve_impl(
        &mut self,
        arena: &ExprArena,
        constraints: &[Constraint],
        seed: &dyn Fn(u32) -> u8,
        memo: Option<(&[u64], &mut UnaryMemo)>,
    ) -> SolveResult {
        self.stats.queries += 1;
        let (chashes, mut memo) = match memo {
            Some((chashes, memo)) => (chashes, Some(memo)),
            None => (&[][..], None),
        };
        let key = |ci: usize| chashes.get(ci).copied();

        // Gather variables and classify constraints (memoized by
        // structural hash when available).
        let con_vars: Vec<Rc<[u32]>> = constraints
            .iter()
            .enumerate()
            .map(|(ci, &(e, _))| match (key(ci), memo.as_deref_mut()) {
                (Some(k), Some(m)) => m.vars(k, arena, e),
                _ => arena.vars(e).into(),
            })
            .collect();
        let mut var_list: Vec<u32> = con_vars
            .iter()
            .flat_map(|vars| vars.iter().copied())
            .collect();
        var_list.sort_unstable();
        var_list.dedup();

        // Zero-variable constraints are decidable right now; one failing
        // constant constraint refutes the whole conjunction.
        for (&(e, want), vars) in constraints.iter().zip(&con_vars) {
            if vars.is_empty() {
                let ok = arena
                    .eval(e, &|_| None)
                    .map(|v| (v != 0) == want)
                    .unwrap_or(false);
                if !ok {
                    self.stats.unsat += 1;
                    return SolveResult::Unsat;
                }
            }
        }
        // Trivial system: no symbolic vars at all (and all constants held).
        if var_list.is_empty() {
            self.stats.sat += 1;
            return SolveResult::Sat(BTreeMap::new());
        }

        // Unary filtering. A single-variable constraint's admissible set
        // is an exact pure function of its structure, so the 256-value
        // sweep is memoized across queries (and seeds) when a memo is
        // supplied. `candidates` is aligned with `var_list`.
        let mut candidates: Vec<ByteSet> = vec![ByteSet::full(); var_list.len()];
        for (ci, (&(e, want), vars)) in constraints.iter().zip(&con_vars).enumerate() {
            let &[v] = &**vars else {
                continue;
            };
            let cached = key(ci).zip(memo.as_deref()).and_then(|(k, m)| m.unary(k));
            let ok = cached.unwrap_or_else(|| {
                let ok = unary_set(arena, e, want, v);
                if let (Some(k), Some(m)) = (key(ci), memo.as_deref_mut()) {
                    m.set_unary(k, ok);
                }
                ok
            });
            // Every constrained var was registered above; a missing
            // entry means no candidate set to narrow.
            let Some(set) = var_list
                .binary_search(&v)
                .ok()
                .and_then(|p| candidates.get_mut(p))
            else {
                continue;
            };
            set.intersect(&ok);
            if set.is_empty() {
                self.stats.unsat += 1;
                return SolveResult::Unsat;
            }
        }

        // Multi-var constraints for the search phase, listed per variable
        // in constraint order.
        let mut watches: Vec<Vec<Constraint>> = vec![Vec::new(); var_list.len()];
        for (&c, vars) in constraints.iter().zip(&con_vars) {
            if vars.len() > 1 {
                for v in vars.iter() {
                    if let Some(w) = var_list
                        .binary_search(v)
                        .ok()
                        .and_then(|p| watches.get_mut(p))
                    {
                        w.push(c);
                    }
                }
            }
        }

        if watches.iter().all(Vec::is_empty) {
            // Unary candidates are exact: pick per-var values, preferring
            // the seed value when it remains admissible.
            let model = var_list
                .iter()
                .zip(&candidates)
                .map(|(&v, set)| {
                    let sv = seed(v);
                    // Empty sets returned Unsat above, so iter() yields a
                    // value; fall back to the seed if that ever changes.
                    let pick = if set.contains(sv) {
                        sv
                    } else {
                        set.iter().next().unwrap_or(sv)
                    };
                    (v, pick)
                })
                .collect();
            self.stats.sat += 1;
            return SolveResult::Sat(model);
        }

        // Order variables: most-constrained (smallest candidate set) first,
        // then by how many multi-constraints mention them, then by id.
        let mut assignment = Assignment::new(&var_list);
        let mut order: Vec<SearchVar> = var_list
            .iter()
            .zip(candidates)
            .zip(watches)
            .map(|((&v, set), watch)| SearchVar {
                key: (set.len(), Reverse(watch.len()), v),
                slot: assignment.slot(v),
                seed: seed(v),
                set,
                watch,
            })
            .collect();
        order.sort_unstable_by_key(|sv| sv.key);

        let mut steps = 0u64;
        let ok = self.search(arena, &order, &mut assignment, &mut steps);
        self.stats.steps += steps;
        match ok {
            Some(true) => {
                self.stats.sat += 1;
                SolveResult::Sat(assignment.model())
            }
            Some(false) => {
                self.stats.unsat += 1;
                SolveResult::Unsat
            }
            None => {
                self.stats.unknown += 1;
                SolveResult::Unknown
            }
        }
    }

    /// DFS over candidate values of `order[0]`, then the rest. Returns
    /// `Some(true)` on success (model in `assignment`), `Some(false)`
    /// when exhaustively refuted, `None` on budget exhaustion.
    fn search(
        &self,
        arena: &ExprArena,
        order: &[SearchVar],
        assignment: &mut Assignment,
        steps: &mut u64,
    ) -> Option<bool> {
        let Some((var, rest)) = order.split_first() else {
            return Some(true);
        };
        // Try the seed value first to keep models minimal.
        let sv = var.seed;
        let tries = std::iter::once(sv)
            .filter(|s| var.set.contains(*s))
            .chain(var.set.iter().filter(move |&x| x != sv));
        for val in tries {
            *steps += 1;
            if *steps > self.budget.max_steps {
                return None;
            }
            assignment.set(var.slot, Some(val));
            // Ternary (known-bits) propagation: a constraint involving the
            // variable is pruned as soon as the assigned bits alone refute
            // it — e.g. `(addr & 0xFF000000) == K` dies on the first byte,
            // without enumerating the masked-out ones.
            let consistent = var.watch.iter().all(|&(e, want)| {
                let lookup = |idx: u32| assignment.get(idx).map(u64::from);
                match arena.eval3(e, &lookup).as_bool() {
                    Some(r) => r == want,
                    None => true, // not yet decidable
                }
            });
            if consistent {
                match self.search(arena, rest, assignment, steps) {
                    Some(true) => return Some(true),
                    Some(false) => {}
                    None => return None,
                }
            }
            assignment.set(var.slot, None);
        }
        Some(false)
    }
}

/// The exact admissible set of a single-variable constraint: all 256
/// values of `v` swept through `e`. `e` reads only `v`, so the sweep
/// covers it; were it to read another byte, no value would be admitted.
fn unary_set(arena: &ExprArena, e: ExprId, want: bool, v: u32) -> ByteSet {
    let mut ok = ByteSet::empty();
    let mut lanes = [0u64; 256];
    if arena.eval_sweep(e, v, &mut lanes) {
        for (val, r) in (0..=u8::MAX).zip(lanes) {
            if (r != 0) == want {
                ok.insert(val);
            }
        }
    }
    ok
}

/// One search variable, in search order.
struct SearchVar {
    /// Sort key, computed once: candidate-set size, then most
    /// multi-constraint mentions, then id.
    key: (u32, Reverse<usize>, u32),
    /// Where the variable's value lives in the [`Assignment`].
    slot: usize,
    /// The seed input's value, tried first.
    seed: u8,
    /// Unary-filtered candidate values.
    set: ByteSet,
    /// Multi-variable constraints mentioning the variable, in constraint
    /// order.
    watch: Vec<Constraint>,
}

/// The search's partial assignment: one slot per input byte from the
/// smallest variable to the largest. Variables are input-byte and oracle
/// indices, so the span is at most the input plus its oracles.
struct Assignment<'a> {
    /// The system's variables, ascending.
    vars: &'a [u32],
    /// The smallest variable; slot `s` holds byte `lo + s`.
    lo: u32,
    vals: Vec<Option<u8>>,
}

impl<'a> Assignment<'a> {
    fn new(vars: &'a [u32]) -> Self {
        let (lo, len) = match (vars.first(), vars.last()) {
            (Some(&lo), Some(&hi)) => (lo, (hi - lo) as usize + 1),
            _ => (0, 0),
        };
        Assignment {
            vars,
            lo,
            vals: vec![None; len],
        }
    }

    /// The slot of variable `idx`; out of range for a non-variable.
    fn slot(&self, idx: u32) -> usize {
        idx.wrapping_sub(self.lo) as usize
    }

    fn get(&self, idx: u32) -> Option<u8> {
        self.vals.get(self.slot(idx)).copied().flatten()
    }

    fn set(&mut self, slot: usize, val: Option<u8>) {
        if let Some(v) = self.vals.get_mut(slot) {
            *v = val;
        }
    }

    /// The assignment as a model over every variable.
    fn model(&self) -> BTreeMap<u32, u8> {
        self.vars
            .iter()
            .filter_map(|&v| Some((v, self.get(v)?)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, CmpOp};

    fn seed_zero(_: u32) -> u8 {
        0
    }

    #[test]
    fn byteset_basics() {
        let mut s = ByteSet::empty();
        assert!(s.is_empty());
        s.insert(0);
        s.insert(255);
        s.insert(100);
        assert_eq!(s.len(), 3);
        assert!(s.contains(0) && s.contains(255) && s.contains(100));
        s.remove(100);
        assert!(!s.contains(100));
        let all = ByteSet::full();
        assert_eq!(all.len(), 256);
        let mut inter = all;
        inter.intersect(&s);
        assert_eq!(inter.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 255]);
    }

    #[test]
    fn solves_single_byte_equality() {
        let mut a = ExprArena::new();
        let x = a.input(0);
        let k = a.constant(8, 0xF5);
        let c = a.cmp(CmpOp::Eq, x, k);
        let mut s = Solver::new();
        match s.solve(&a, &[(c, true)], &seed_zero) {
            SolveResult::Sat(m) => assert_eq!(m[&0], 0xF5),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn negated_equality_avoids_value() {
        let mut a = ExprArena::new();
        let x = a.input(0);
        let k = a.constant(8, 7);
        let c = a.cmp(CmpOp::Eq, x, k);
        let mut s = Solver::new();
        match s.solve(&a, &[(c, false)], &|_| 7) {
            SolveResult::Sat(m) => assert_ne!(m[&0], 7),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn detects_unsat_single_var() {
        let mut a = ExprArena::new();
        let x = a.input(0);
        let k5 = a.constant(8, 5);
        let k9 = a.constant(8, 9);
        let c1 = a.cmp(CmpOp::Eq, x, k5);
        let c2 = a.cmp(CmpOp::Eq, x, k9);
        let mut s = Solver::new();
        assert_eq!(
            s.solve(&a, &[(c1, true), (c2, true)], &seed_zero),
            SolveResult::Unsat
        );
    }

    #[test]
    fn solves_u16_length_bound() {
        // (in[0] << 8 | in[1]) >= 0x0F00 — the shape of the seeded-bug
        // trigger constraint.
        let mut a = ExprArena::new();
        let hi = a.input(0);
        let lo = a.input(1);
        let hi16 = a.zext(16, hi);
        let lo16 = a.zext(16, lo);
        let k8 = a.constant(16, 8);
        let sh = a.bin(BinOp::Shl, 16, hi16, k8);
        let word = a.bin(BinOp::Or, 16, sh, lo16);
        let bound = a.constant(16, 0x0F00);
        let lt = a.cmp(CmpOp::Ult, word, bound);
        let mut s = Solver::new();
        match s.solve(&a, &[(lt, false)], &seed_zero) {
            SolveResult::Sat(m) => {
                let w = ((m[&0] as u16) << 8) | m[&1] as u16;
                assert!(w >= 0x0F00, "got {w:#x}");
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn model_prefers_seed_values() {
        let mut a = ExprArena::new();
        let x = a.input(0);
        let k = a.constant(8, 100);
        let c = a.cmp(CmpOp::Ule, x, k); // in[0] <= 100
        let mut s = Solver::new();
        match s.solve(&a, &[(c, true)], &|_| 42) {
            SolveResult::Sat(m) => assert_eq!(m[&0], 42, "seed within range is kept"),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn unsat_multivar_exhausts() {
        // in[0] ^ in[1] == 1 AND in[0] == in[1] is unsatisfiable.
        let mut a = ExprArena::new();
        let x = a.input(0);
        let y = a.input(1);
        let xor = a.bin(BinOp::Xor, 8, x, y);
        let one = a.constant(8, 1);
        let c1 = a.cmp(CmpOp::Eq, xor, one);
        let c2 = a.cmp(CmpOp::Eq, x, y);
        let mut s = Solver::new();
        assert_eq!(
            s.solve(&a, &[(c1, true), (c2, true)], &seed_zero),
            SolveResult::Unsat
        );
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        // A hard 3-var relation with a tiny budget.
        let mut a = ExprArena::new();
        let x = a.input(0);
        let y = a.input(1);
        let z = a.input(2);
        let xy = a.bin(BinOp::Mul, 8, x, y);
        let xyz = a.bin(BinOp::Mul, 8, xy, z);
        let k = a.constant(8, 251);
        let c = a.cmp(CmpOp::Eq, xyz, k);
        let mut s = Solver::with_budget(SolverBudget { max_steps: 10 });
        let r = s.solve(&a, &[(c, true)], &seed_zero);
        assert_eq!(r, SolveResult::Unknown);
        assert_eq!(s.stats.unknown, 1);
    }

    #[test]
    fn far_apart_variables_solve_like_near_ones() {
        // Variables far apart in the input take the same search, with the
        // same answer and effort, as adjacent ones.
        let solve_pair = |far: u32| {
            let mut a = ExprArena::new();
            let x = a.input(3);
            let y = a.input(far);
            let sum = a.bin(BinOp::Add, 8, x, y);
            let ten = a.constant(8, 10);
            let c = a.cmp(CmpOp::Eq, sum, ten);
            let mut s = Solver::new();
            let r = s.solve(&a, &[(c, true)], &seed_zero);
            (r, s.stats.steps)
        };
        let (near, near_steps) = solve_pair(4);
        let (far, far_steps) = solve_pair(4_099);
        assert_eq!(near, SolveResult::Sat(BTreeMap::from([(3, 0), (4, 10)])));
        assert_eq!(far, SolveResult::Sat(BTreeMap::from([(3, 0), (4_099, 10)])));
        assert_eq!(near_steps, far_steps);
    }

    #[test]
    fn sat_models_always_check() {
        // Randomized soundness: any SAT model must satisfy its system.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..50 {
            let mut a = ExprArena::new();
            let mut cons: Vec<Constraint> = Vec::new();
            for _ in 0..(1 + rnd() % 4) {
                let v0 = a.input((rnd() % 3) as u32);
                let v1 = a.input((rnd() % 3) as u32);
                let k = a.constant(8, rnd() % 256);
                let mix = a.bin(
                    match rnd() % 3 {
                        0 => BinOp::Add,
                        1 => BinOp::Xor,
                        _ => BinOp::And,
                    },
                    8,
                    v0,
                    v1,
                );
                let c = a.cmp(
                    match rnd() % 3 {
                        0 => CmpOp::Eq,
                        1 => CmpOp::Ult,
                        _ => CmpOp::Ule,
                    },
                    mix,
                    k,
                );
                cons.push((c, rnd() % 2 == 0));
            }
            let mut s = Solver::new();
            if let SolveResult::Sat(model) = s.solve(&a, &cons, &seed_zero) {
                assert!(
                    Solver::check(&a, &cons, &model, &seed_zero),
                    "model failed its own constraints"
                );
            }
        }
    }

    #[test]
    fn negation_query_shape() {
        use crate::ctx::{BranchRec, SiteId};
        let mut a = ExprArena::new();
        let x = a.input(0);
        let k1 = a.constant(8, 1);
        let k2 = a.constant(8, 2);
        let c1 = a.cmp(CmpOp::Eq, x, k1);
        let c2 = a.cmp(CmpOp::Ult, x, k2);
        let path = vec![
            BranchRec {
                site: SiteId(1),
                constraint: c1,
                taken: false,
            },
            BranchRec {
                site: SiteId(2),
                constraint: c2,
                taken: true,
            },
        ];
        let q = negation_query(&path, 1);
        assert_eq!(q, vec![(c1, false), (c2, false)]);
        let q0 = negation_query(&path, 0);
        assert_eq!(q0, vec![(c1, true)]);
    }
}
