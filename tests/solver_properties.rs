//! Property-based tests of the concolic engine: solver soundness (every
//! SAT model satisfies its system), negation-query semantics,
//! concrete/symbolic evaluation agreement, and a differential check of
//! the solver against a frozen reference implementation.

use std::collections::BTreeMap;

use dice_system::concolic::solve::UnaryMemo;
use dice_system::concolic::{
    BinOp, BoolOp, BranchRec, ByteSet, CmpOp, ConcolicCtx, Constraint, ExprArena, ExprId, SiteId,
    SolveResult, Solver, SolverBudget, SymInput,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Shape {
    Bin(BinOp, Box<Shape>, Box<Shape>),
    Var(u8),   // input index
    Const(u8), // 8-bit constant
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    arb_shape_over(4)
}

/// 8-bit expression shapes over input bytes `0..vars`.
fn arb_shape_over(vars: u8) -> impl Strategy<Value = Shape> {
    let leaf = prop_oneof![
        (0u8..vars).prop_map(Shape::Var),
        any::<u8>().prop_map(Shape::Const),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        (
            prop_oneof![
                Just(BinOp::Add),
                Just(BinOp::Sub),
                Just(BinOp::And),
                Just(BinOp::Or),
                Just(BinOp::Xor),
            ],
            inner.clone(),
            inner,
        )
            .prop_map(|(op, a, b)| Shape::Bin(op, Box::new(a), Box::new(b)))
    })
}

fn build(arena: &mut ExprArena, s: &Shape) -> ExprId {
    match s {
        Shape::Var(i) => arena.input(*i as u32),
        Shape::Const(c) => arena.constant(8, *c as u64),
        Shape::Bin(op, a, b) => {
            let ea = build(arena, a);
            let eb = build(arena, b);
            arena.bin(*op, 8, ea, eb)
        }
    }
}

fn arb_cmp() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Ult),
        Just(CmpOp::Ule)
    ]
}

proptest! {
    /// Soundness: whatever the solver answers SAT must check.
    #[test]
    fn sat_models_satisfy_their_systems(
        shapes in prop::collection::vec((arb_shape(), arb_cmp(), any::<u8>(), any::<bool>()), 1..5)
    ) {
        let mut arena = ExprArena::new();
        let mut cons: Vec<Constraint> = Vec::new();
        for (shape, op, k, want) in &shapes {
            let e = build(&mut arena, shape);
            let c = arena.constant(8, *k as u64);
            let cmp = arena.cmp(*op, e, c);
            cons.push((cmp, *want));
        }
        let mut solver = Solver::new();
        if let SolveResult::Sat(model) = solver.solve(&arena, &cons, &|_| 0) {
            prop_assert!(
                Solver::check(&arena, &cons, &model, &|_| 0),
                "solver produced a non-model"
            );
        }
    }

    /// Expression evaluation agrees with concrete concolic execution.
    #[test]
    fn concrete_symbolic_agreement(bytes in prop::collection::vec(any::<u8>(), 4..8)) {
        let mut ctx = ConcolicCtx::new(SymInput::all_symbolic(bytes.clone()));
        let a = ctx.read_u8(0);
        let b = ctx.read_u8(1);
        let c = ctx.read_u16_be(2);
        let sum = ctx.bin(BinOp::Add, a, b);
        let sum16 = ctx.zext(16, sum);
        let mix = ctx.bin(BinOp::Xor, sum16, c);
        // Symbolic expression evaluated under the same bytes equals the
        // concrete value computed during execution.
        let expr = mix.expr.expect("symbolic");
        let v = ctx.arena().eval(expr, &|i| Some(bytes[i as usize] as u64)).unwrap();
        prop_assert_eq!(v, mix.val);
    }

    /// Negating a recorded branch and re-running flips that branch.
    #[test]
    fn negation_actually_flips(byte in any::<u8>(), threshold in 1u8..255) {
        let program = |ctx: &mut ConcolicCtx| {
            let w = ctx.read_u8(0);
            let c = ctx.ult_const(w, threshold as u64);
            ctx.branch(SiteId(1), c)
        };
        let mut ctx = ConcolicCtx::new(SymInput::all_symbolic(vec![byte]));
        let taken = program(&mut ctx);
        let path = ctx.path().to_vec();
        prop_assert_eq!(path.len(), 1);

        let q = dice_system::concolic::negation_query(&path, 0);
        let mut solver = Solver::new();
        match solver.solve(ctx.arena(), &q, &|_| byte) {
            SolveResult::Sat(model) => {
                let new_byte = model.get(&0).copied().unwrap_or(byte);
                let mut ctx2 = ConcolicCtx::new(SymInput::all_symbolic(vec![new_byte]));
                let taken2 = program(&mut ctx2);
                prop_assert_eq!(taken2, !taken, "negated input must flip the branch");
            }
            SolveResult::Unsat => {
                // Only possible if the branch is a tautology over bytes,
                // which `1 <= threshold <= 254` rules out.
                prop_assert!(false, "branch must be negatable");
            }
            SolveResult::Unknown => {} // budget, acceptable
        }
    }

    /// Path signatures are stable for equal paths and sensitive to inputs
    /// that diverge.
    #[test]
    fn path_signature_stability(bytes in prop::collection::vec(any::<u8>(), 2..6)) {
        let run = |bytes: &[u8]| {
            let mut ctx = ConcolicCtx::new(SymInput::all_symbolic(bytes.to_vec()));
            let w = ctx.read_u8(0);
            let c = ctx.ult_const(w, 128);
            ctx.branch(SiteId(1), c);
            ctx.path_signature()
        };
        prop_assert_eq!(run(&bytes), run(&bytes));
    }
}

#[test]
fn unsat_on_contradiction_is_proven() {
    let mut arena = ExprArena::new();
    let x = arena.input(0);
    let k = arena.constant(8, 10);
    let c = arena.cmp(CmpOp::Ult, x, k);
    let mut solver = Solver::new();
    // x < 10 AND NOT(x < 10) is a contradiction.
    let r = solver.solve(&arena, &[(c, true), (c, false)], &|_| 0);
    assert_eq!(r, SolveResult::Unsat);
}

// ---- differential check against a frozen reference solver -------------

/// The solver's search as first written: variable lists, candidate sets
/// and the assignment in `BTreeMap`s, the search order sorted on keys
/// recomputed per comparison, and every multi-variable constraint
/// scanned at every assignment. Kept verbatim in behaviour (written
/// against the public API) as the reference the optimised
/// [`Solver`] must match answer for answer and step for step.
#[derive(Debug, Default)]
struct ReferenceSolver {
    max_steps: u64,
    steps: u64,
    sat: u64,
    unsat: u64,
    unknown: u64,
}

/// Members of `set` in ascending order, one membership test per value.
fn members(set: &ByteSet) -> impl Iterator<Item = u8> + '_ {
    (0u16..256)
        .map(|v| v as u8)
        .filter(move |&v| set.contains(v))
}

impl ReferenceSolver {
    fn solve(
        &mut self,
        arena: &ExprArena,
        constraints: &[Constraint],
        seed: &dyn Fn(u32) -> u8,
    ) -> SolveResult {
        let mut var_list: Vec<u32> = Vec::new();
        let mut con_vars: Vec<Vec<u32>> = Vec::new();
        for &(e, _) in constraints {
            let vars = arena.vars(e);
            for &v in &vars {
                if !var_list.contains(&v) {
                    var_list.push(v);
                }
            }
            con_vars.push(vars);
        }
        var_list.sort_unstable();
        for (ci, &(e, want)) in constraints.iter().enumerate() {
            if con_vars[ci].is_empty() {
                let ok = arena
                    .eval(e, &|_| None)
                    .map(|v| (v != 0) == want)
                    .unwrap_or(false);
                if !ok {
                    self.unsat += 1;
                    return SolveResult::Unsat;
                }
            }
        }
        if var_list.is_empty() {
            self.sat += 1;
            return SolveResult::Sat(BTreeMap::new());
        }
        let mut candidates: BTreeMap<u32, ByteSet> =
            var_list.iter().map(|&v| (v, ByteSet::full())).collect();
        for (ci, &(e, want)) in constraints.iter().enumerate() {
            if con_vars[ci].len() == 1 {
                let v = con_vars[ci][0];
                let mut ok = ByteSet::empty();
                for byte in 0u16..256 {
                    let val = byte as u8;
                    let lookup = |idx: u32| -> Option<u64> {
                        if idx == v {
                            Some(val as u64)
                        } else {
                            None
                        }
                    };
                    if let Some(r) = arena.eval(e, &lookup) {
                        if (r != 0) == want {
                            ok.insert(val);
                        }
                    }
                }
                let set = candidates.get_mut(&v).expect("registered var");
                set.intersect(&ok);
                if set.is_empty() {
                    self.unsat += 1;
                    return SolveResult::Unsat;
                }
            }
        }
        let multi: Vec<(ExprId, bool, &[u32])> = constraints
            .iter()
            .zip(&con_vars)
            .filter(|(_, vars)| vars.len() > 1)
            .map(|(&(e, want), vars)| (e, want, vars.as_slice()))
            .collect();
        if multi.is_empty() {
            let mut model = BTreeMap::new();
            for (&v, set) in &candidates {
                let sv = seed(v);
                let pick = if set.contains(sv) {
                    sv
                } else {
                    members(set).next().unwrap_or(sv)
                };
                model.insert(v, pick);
            }
            self.sat += 1;
            return SolveResult::Sat(model);
        }
        let mut order: Vec<u32> = var_list.clone();
        let mentions = |v: u32| {
            multi
                .iter()
                .filter(|(_, _, vars)| vars.contains(&v))
                .count()
        };
        order.sort_by_key(|&v| (candidates[&v].len(), usize::MAX - mentions(v), v));
        let mut assignment: BTreeMap<u32, u8> = BTreeMap::new();
        let mut steps = 0u64;
        let ok = self.search(
            arena,
            &multi,
            &order,
            0,
            &candidates,
            &mut assignment,
            seed,
            &mut steps,
        );
        self.steps += steps;
        match ok {
            Some(true) => {
                self.sat += 1;
                SolveResult::Sat(assignment)
            }
            Some(false) => {
                self.unsat += 1;
                SolveResult::Unsat
            }
            None => {
                self.unknown += 1;
                SolveResult::Unknown
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn search(
        &self,
        arena: &ExprArena,
        multi: &[(ExprId, bool, &[u32])],
        order: &[u32],
        depth: usize,
        candidates: &BTreeMap<u32, ByteSet>,
        assignment: &mut BTreeMap<u32, u8>,
        seed: &dyn Fn(u32) -> u8,
        steps: &mut u64,
    ) -> Option<bool> {
        if depth == order.len() {
            return Some(true);
        }
        let v = order[depth];
        let set = &candidates[&v];
        let sv = seed(v);
        let tries = std::iter::once(sv)
            .filter(|s| set.contains(*s))
            .chain(members(set).filter(move |&x| x != sv));
        for val in tries {
            *steps += 1;
            if *steps > self.max_steps {
                return None;
            }
            assignment.insert(v, val);
            let consistent = multi.iter().all(|&(e, want, vars)| {
                if !vars.contains(&v) {
                    return true;
                }
                let lookup = |idx: u32| -> Option<u64> { assignment.get(&idx).map(|&b| b as u64) };
                match arena.eval3(e, &lookup).as_bool() {
                    Some(r) => r == want,
                    None => true,
                }
            });
            if consistent {
                match self.search(
                    arena,
                    multi,
                    order,
                    depth + 1,
                    candidates,
                    assignment,
                    seed,
                    steps,
                ) {
                    Some(true) => return Some(true),
                    Some(false) => {}
                    None => return None,
                }
            }
            assignment.remove(&v);
        }
        Some(false)
    }
}

/// One generated branch condition over input bytes `0..6`.
#[derive(Debug, Clone)]
enum Cond {
    /// An 8-bit expression (any number of variables) compared with a
    /// constant.
    Byte(Shape, CmpOp, u8),
    /// Two distinct bytes combined by an 8-bit operator, compared with a
    /// constant: always a multi-variable constraint.
    Pair(u8, u8, BinOp, CmpOp, u8),
    /// The 16-bit length field `zext(hi) << 8 | zext(lo)` of a parser,
    /// compared with a 16-bit constant.
    Length(u8, u8, CmpOp, u16),
}

/// Bytes biased toward the edges of the domain, so that constants and
/// seed values collide often enough for off-by-one differences in a
/// candidate set to change the chosen model.
fn arb_byte() -> impl Strategy<Value = u8> {
    prop_oneof![0u8..3, 0x7Fu8..0x82, 0xFDu8..=0xFF, any::<u8>()]
}

fn arb_pair() -> impl Strategy<Value = Cond> {
    (
        0u8..6,
        1u8..6,
        prop_oneof![
            Just(BinOp::Add),
            Just(BinOp::Sub),
            Just(BinOp::Xor),
            Just(BinOp::And),
            Just(BinOp::Or),
        ],
        arb_cmp(),
        arb_byte(),
    )
        .prop_map(|(a, d, op, cmp, k)| Cond::Pair(a, (a + d) % 6, op, cmp, k))
}

fn arb_length() -> impl Strategy<Value = Cond> {
    (0u8..6, 1u8..6, arb_cmp(), any::<u16>())
        .prop_map(|(hi, d, cmp, k)| Cond::Length(hi, (hi + d) % 6, cmp, k))
}

fn arb_cond() -> impl Strategy<Value = Cond> {
    prop_oneof![
        (arb_shape_over(6), arb_cmp(), arb_byte()).prop_map(|(s, c, k)| Cond::Byte(s, c, k)),
        arb_pair(),
        arb_length(),
    ]
}

fn arb_multi() -> impl Strategy<Value = Cond> {
    prop_oneof![arb_pair(), arb_length()]
}

fn build_cond(arena: &mut ExprArena, c: &Cond) -> ExprId {
    match c {
        Cond::Byte(shape, op, k) => {
            let e = build(arena, shape);
            let k = arena.constant(8, *k as u64);
            arena.cmp(*op, e, k)
        }
        Cond::Pair(a, b, bin, op, k) => {
            let x = arena.input(*a as u32);
            let y = arena.input(*b as u32);
            let e = arena.bin(*bin, 8, x, y);
            let k = arena.constant(8, *k as u64);
            arena.cmp(*op, e, k)
        }
        Cond::Length(hi, lo, op, k) => {
            let hi = arena.input(*hi as u32);
            let lo = arena.input(*lo as u32);
            let hi16 = arena.zext(16, hi);
            let lo16 = arena.zext(16, lo);
            let eight = arena.constant(16, 8);
            let shifted = arena.bin(BinOp::Shl, 16, hi16, eight);
            let word = arena.bin(BinOp::Or, 16, shifted, lo16);
            let k = arena.constant(16, *k as u64);
            arena.cmp(*op, word, k)
        }
    }
}

/// Conditions over input byte 0 alone, optionally negated or joined with
/// a second one by `&&`/`||`.
fn arb_unary_cond() -> impl Strategy<Value = (Cond, bool, Option<(bool, Cond)>)> {
    let one = || {
        prop_oneof![
            (arb_shape_over(1), arb_cmp(), arb_byte()).prop_map(|(s, c, k)| Cond::Byte(s, c, k)),
            arb_pair().prop_map(|c| match c {
                Cond::Pair(_, _, op, cmp, k) => Cond::Pair(0, 0, op, cmp, k),
                other => other,
            }),
            (arb_cmp(), any::<u16>()).prop_map(|(c, k)| Cond::Length(0, 0, c, k)),
        ]
    };
    (
        one(),
        any::<bool>(),
        prop::option::of((any::<bool>(), one())),
    )
}

fn arb_budget() -> impl Strategy<Value = u64> {
    prop_oneof![1u64..12, 12u64..600, Just(20_000u64)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The solver answers every negation query of a random path exactly
    /// as the reference does — verdict, model and search effort — both
    /// without a memo and with one memo shared by all of the path's
    /// queries.
    #[test]
    fn solver_matches_frozen_reference(
        extra in prop::collection::vec((arb_cond(), any::<bool>()), 0..4),
        multi in prop::collection::vec((arb_multi(), any::<bool>(), 0usize..8), 2..4),
        seed_bytes in prop::collection::vec(arb_byte(), 6),
        max_steps in arb_budget(),
    ) {
        // The path: the extra conditions, with the multi-variable ones
        // spliced in at generated positions.
        let mut conds: Vec<(Cond, bool)> = extra.clone();
        for (c, taken, at) in &multi {
            conds.insert(at % (conds.len() + 1), (c.clone(), *taken));
        }
        let mut arena = ExprArena::new();
        let path: Vec<BranchRec> = conds
            .iter()
            .zip(1u32..)
            .map(|((c, taken), site)| BranchRec {
                site: SiteId(site),
                constraint: build_cond(&mut arena, c),
                taken: *taken,
            })
            .collect();
        let hashes = arena.node_hashes();
        let key = |&(e, want): &Constraint| {
            hashes[e.0 as usize] ^ if want { 0x9E37_79B9_7F4A_7C15 } else { 0 }
        };
        let seed = |idx: u32| seed_bytes[idx as usize % seed_bytes.len()];

        let budget = SolverBudget { max_steps };
        let mut reference = ReferenceSolver { max_steps, ..Default::default() };
        let mut plain = Solver::with_budget(budget);
        let mut memoized = Solver::with_budget(budget);
        let mut memo = UnaryMemo::default();
        for k in 0..path.len() {
            let q = dice_system::concolic::negation_query(&path, k);
            let chashes: Vec<u64> = q.iter().map(key).collect();
            let want = reference.solve(&arena, &q, &seed);
            prop_assert_eq!(plain.solve(&arena, &q, &seed), want.clone(), "solve, query {}", k);
            prop_assert_eq!(
                memoized.solve_memo(&arena, &q, &seed, &chashes, &mut memo),
                want,
                "solve_memo, query {}",
                k
            );
        }
        let effort = |s: &Solver| (s.stats.steps, s.stats.sat, s.stats.unsat, s.stats.unknown);
        let reference_effort =
            (reference.steps, reference.sat, reference.unsat, reference.unknown);
        prop_assert_eq!(effort(&plain), reference_effort, "solve stats");
        prop_assert_eq!(effort(&memoized), reference_effort, "solve_memo stats");
    }
}

proptest! {
    /// The 256-lane sweep the unary filter uses agrees with evaluating
    /// each value on its own, and refuses expressions that read any other
    /// input byte.
    #[test]
    fn eval_sweep_matches_scalar_eval(cond in arb_unary_cond()) {
        let (c, negate, join) = cond;
        let mut arena = ExprArena::new();
        let mut e = build_cond(&mut arena, &c);
        if negate {
            e = arena.not(e);
        }
        if let Some((and, other)) = join {
            let o = build_cond(&mut arena, &other);
            let op = if and { BoolOp::And } else { BoolOp::Or };
            e = arena.boolean(op, e, o);
        }
        let mut lanes = [0u64; 256];
        prop_assert!(arena.eval_sweep(e, 0, &mut lanes));
        for (b, &lane) in (0u64..).zip(&lanes) {
            prop_assert_eq!(Some(lane), arena.eval(e, &|_| Some(b)), "value {}", b);
        }
        prop_assert_eq!(arena.eval_sweep(e, 1, &mut lanes), arena.vars(e).is_empty());
    }
}
