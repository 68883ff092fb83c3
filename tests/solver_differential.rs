//! Seeded differential test across the in-repo kernel backends.
//!
//! A small in-repo LCG (no new dependencies, no global randomness) generates
//! random literal sequences with interleaved `push`/`pop` and queries, and
//! drives them through two backends side by side:
//!
//! * `OneShot` — the reference: re-simplifies and re-runs the kernel from
//!   scratch per query,
//! * `IncrementalState` — the persistent trail-based theory state.
//!
//! Every query's **verdict** must agree (the incremental state must be
//! exactly as strong as the batch kernel on this fragment — neither weaker
//! from stale theory state nor spuriously refuting), and the **leaf-case
//! counters** must satisfy the redesign's contract: the incremental state
//! explores at most as many leaves as the reference (it answers
//! straight-line queries from the maintained closure and prunes refuted
//! subtrees early).
//!
//! Two families of seeds draw from different literal mixes: every
//! comparison shape over a few variables, and an equality-dense mix over
//! more variables that stresses the linear store's solved form (equalities
//! eliminating atoms, congruence merges arriving as equalities, and both
//! rolling back with `pop`).
//!
//! At every query point on a satisfiable path the runner also probes the
//! closure lookup `congruent` on a few term pairs: it must imply
//! `must_equal`, and the two backends must give the same answer.
//!
//! Agreement between backends cannot catch a bug they share, so a model
//! oracle checks every backend against concrete arithmetic too: a
//! refutation or an entailment must have no counter-model among small
//! integer assignments ([`refutations_have_no_model_in_a_small_box`]).

use gillian_solver::{eval, BackendKind, Env, Expr, SVar, Solver, SolverCtx, Value, VarGen};
use std::collections::HashMap;

/// A tiny deterministic linear congruential generator.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Lcg {
        Lcg(seed
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493))
    }

    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The literal mix a seed family draws from.
#[derive(Clone, Copy, Debug)]
enum Mix {
    /// Every comparison shape, over five variables.
    Mixed,
    /// Mostly `a + k == b` and `f(v) == w`, over nine variables.
    EqualityDense,
}

impl Mix {
    fn nvars(self) -> u64 {
        match self {
            Mix::Mixed => 5,
            Mix::EqualityDense => 9,
        }
    }
}

fn var(i: u64) -> Expr {
    Expr::lvar(&format!("v{i}"))
}

/// A random ground atom over a small variable/constant pool. One side is
/// occasionally an uninterpreted application `f(v)` — the shape that
/// exercises congruence-merge interaction with linear atom keys (classes
/// gaining and losing representatives while rows reference them).
fn atom(g: &mut Lcg, mix: Mix) -> Expr {
    let n = mix.nvars();
    let side = |g: &mut Lcg| {
        if g.below(4) == 0 {
            Expr::app("f", vec![var(g.below(n))])
        } else {
            var(g.below(n))
        }
    };
    let a = side(g);
    if let Mix::EqualityDense = mix {
        return match g.below(8) {
            0..=3 => {
                let k = Expr::Int(g.below(5) as i128 - 2);
                Expr::eq(Expr::add(a, k), side(g))
            }
            4 | 5 => Expr::eq(Expr::app("f", vec![var(g.below(n))]), var(g.below(n))),
            6 => Expr::lt(a, side(g)),
            _ => Expr::le(a, Expr::Int(g.below(7) as i128 - 3)),
        };
    }
    let b = if g.below(2) == 0 {
        var(g.below(n))
    } else {
        Expr::Int(g.below(7) as i128 - 3)
    };
    match g.below(6) {
        0 => Expr::eq(a, b),
        1 => Expr::ne(a, b),
        2 => Expr::lt(a, b),
        3 => Expr::le(a, b),
        4 => Expr::eq(Expr::add(a, Expr::Int(g.below(3) as i128 + 1)), b),
        _ => Expr::gt(a, b),
    }
}

/// How many splittable literals a fact contributes once flattened (the
/// kernel's own classification, so the count matches what the case split
/// will actually see).
fn splittable_parts(f: &Expr) -> usize {
    let mut lits = Vec::new();
    let mut df = false;
    gillian_solver::kernel::flatten_conjuncts(&gillian_solver::simplify(f), &mut lits, &mut df);
    lits.iter()
        .filter(|l| gillian_solver::kernel::split_of(l).is_some())
        .count()
}

/// A random fact: mostly atoms, sometimes boolean structure (disjunctions
/// and implications exercise the case split; conjunctions the flattening;
/// negations the negated-atom path). `structured` caps how many splittable
/// literals one run may accumulate, so the case-split width stays far below
/// the raised budget — a budget-exhausted answer is the one kernel answer
/// that legitimately differs between batch and incremental exploration, and
/// this test wants complete verdicts only.
fn fact(g: &mut Lcg, mix: Mix, structured: &mut usize) -> Expr {
    let f = match g.below(8) {
        0 => Expr::or(atom(g, mix), atom(g, mix)),
        1 => Expr::implies(atom(g, mix), atom(g, mix)),
        2 => Expr::and(atom(g, mix), atom(g, mix)),
        3 => Expr::not(atom(g, mix)),
        _ => atom(g, mix),
    };
    let parts = splittable_parts(&f);
    if *structured + parts <= 6 {
        *structured += parts;
        return f;
    }
    // Over the cap: a guaranteed-unit literal instead.
    let a = var(g.below(mix.nvars()));
    let b = Expr::Int(g.below(7) as i128 - 3);
    match g.below(3) {
        0 => Expr::eq(a, b),
        1 => Expr::lt(a, b),
        _ => Expr::le(a, b),
    }
}

/// A term for the closure probes: a variable, `f(v)`, a small integer or
/// `v + k`.
fn term(g: &mut Lcg, mix: Mix) -> Expr {
    let v = var(g.below(mix.nvars()));
    match g.below(4) {
        0 => v,
        1 => Expr::app("f", vec![v]),
        2 => Expr::Int(g.below(7) as i128 - 3),
        _ => Expr::add(v, Expr::Int(g.below(5) as i128 - 2)),
    }
}

struct Runner {
    kind: BackendKind,
    hub: Solver,
    ctx: SolverCtx,
}

fn runners() -> Vec<Runner> {
    [BackendKind::OneShot, BackendKind::IncrementalState]
        .into_iter()
        .map(|kind| {
            let mut hub = Solver::with_backend(kind);
            // A budget far above the capped split width: exhaustion is the one
            // kernel answer that may differ between exploration strategies, and
            // this test wants complete verdicts only.
            hub.case_budget = 1_000_000;
            let ctx = hub.ctx();
            Runner { kind, hub, ctx }
        })
        .collect()
}

/// Is the conjunction of `ctx`'s path refuted? Asked of a fresh one-shot
/// context on a hub of its own, so no runner's state or counters move.
fn refuted(ctx: &SolverCtx) -> bool {
    let mut hub = Solver::with_backend(BackendKind::OneShot);
    hub.case_budget = 1_000_000;
    let oracle = hub.ctx();
    for fact in ctx.path() {
        oracle.assert_expr(&fact);
    }
    oracle.check_unsat()
}

/// Probes the closure lookup at a query point on a satisfiable path: on
/// every backend `congruent` implies `must_equal`, and the one-shot
/// reference's closure, built afresh from its stack, answers like the
/// incremental state's. (On a refuted path every answer is sound, and they
/// may differ: the incremental state can already know the contradiction
/// from an earlier check, where the reference's closure runs no linear
/// solve.) The pairs come from a generator of their own, so the op sequence
/// is the one the seed draws without the probes.
fn probe_congruent(rs: &[Runner], seed: u64, step: usize, mix: Mix) {
    let mut g = Lcg::new(seed.wrapping_mul(1_000).wrapping_add(step as u64));
    for _ in 0..4 {
        let (a, b) = (term(&mut g, mix), term(&mut g, mix));
        let answers: Vec<bool> = rs.iter().map(|r| r.ctx.congruent(&a, &b)).collect();
        for (r, &c) in rs.iter().zip(&answers) {
            assert_eq!(
                c, answers[0],
                "{mix:?} seed {seed} step {step}: {} disagrees with {} on congruent({a}, {b})",
                r.kind, rs[0].kind
            );
            assert!(
                !c || r.ctx.must_equal(&a, &b),
                "{mix:?} seed {seed} step {step}: {} has {a}, {b} congruent but not must_equal",
                r.kind
            );
        }
    }
}

/// Drives one seeded op sequence through both backends, comparing verdicts
/// query by query.
fn run_seed(seed: u64, mix: Mix) {
    let mut g = Lcg::new(seed);
    let rs = runners();
    let mut depth = 0usize;
    let mut structured = 0usize;
    for step in 0..120 {
        match g.below(10) {
            0 if depth < 6 => {
                depth += 1;
                for r in &rs {
                    r.ctx.push();
                }
            }
            1 if depth > 0 => {
                depth -= 1;
                for r in &rs {
                    r.ctx.pop();
                }
            }
            2 | 3 => {
                let verdicts: Vec<bool> = rs.iter().map(|r| r.ctx.check_unsat()).collect();
                for (r, v) in rs.iter().zip(&verdicts) {
                    assert_eq!(
                        *v, verdicts[0],
                        "{mix:?} seed {seed} step {step}: {} disagrees with {} on check_unsat",
                        r.kind, rs[0].kind
                    );
                }
                if !verdicts[0] {
                    probe_congruent(&rs, seed, step, mix);
                }
            }
            4 => {
                let goal = atom(&mut g, mix);
                let verdicts: Vec<bool> = rs.iter().map(|r| r.ctx.entails(&goal)).collect();
                for (r, v) in rs.iter().zip(&verdicts) {
                    assert_eq!(
                        *v, verdicts[0],
                        "{mix:?} seed {seed} step {step}: {} disagrees with {} on entails({goal})",
                        r.kind, rs[0].kind
                    );
                }
                if !refuted(&rs[0].ctx) {
                    probe_congruent(&rs, seed, step, mix);
                }
            }
            _ => {
                let f = fact(&mut g, mix, &mut structured);
                for r in &rs {
                    r.ctx.assert_expr(&f);
                }
            }
        }
        // The assertion stacks stay aligned (the same facts everywhere).
        let path = rs[0].ctx.path();
        for r in &rs[1..] {
            assert_eq!(r.ctx.path(), path, "{mix:?} seed {seed}: stack skew");
        }
    }
    // Counter contract: the incremental state answers from its maintained
    // closure and must never explore more leaves than the reference.
    let one_shot = rs[0].hub.stats();
    let incremental = rs[1].hub.stats();
    assert!(
        incremental.cases_explored <= one_shot.cases_explored,
        "{mix:?} seed {seed}: incremental-state explored {} leaf cases, one-shot {}",
        incremental.cases_explored,
        one_shot.cases_explored
    );
    // The new counter is actually collected: straight-line queries (no live
    // disjuncts) are answered from the maintained state.
    assert!(
        incremental.incremental_hits > 0,
        "{mix:?} seed {seed}: the incremental state never answered a query fast"
    );
}

#[test]
fn backends_agree_on_random_literal_sequences() {
    for seed in 0..48 {
        run_seed(seed, Mix::Mixed);
    }
}

#[test]
fn backends_agree_on_equality_dense_sequences() {
    for seed in 0..24 {
        run_seed(seed, Mix::EqualityDense);
    }
}

#[test]
fn incremental_state_is_strictly_cheaper_on_straight_line_chains() {
    // A long chain of unit equalities with a feasibility query after every
    // assert (the engine's `assume` pattern). The one-shot reference pays
    // one kernel leaf per query; the incremental state answers every one
    // from the maintained closure.
    let run = |kind: BackendKind| {
        let hub = Solver::with_backend(kind);
        let ctx = hub.ctx();
        for i in 0..40 {
            ctx.assert_expr(&Expr::eq(var(i + 1), Expr::add(var(i), Expr::Int(1))));
            assert!(!ctx.check_unsat());
        }
        // Equalities are solved by substitution, so the goal's distance
        // along the chain does not matter.
        assert!(ctx.entails(&Expr::lt(var(0), var(8))));
        hub.stats()
    };
    let one_shot = run(BackendKind::OneShot);
    let incremental = run(BackendKind::IncrementalState);
    assert!(
        incremental.cases_explored * 5 <= one_shot.cases_explored,
        "incremental-state {} leaf cases, one-shot {} — expected ≥5× fewer",
        incremental.cases_explored,
        one_shot.cases_explored
    );
}

fn named(prefix: &str, i: usize) -> Expr {
    Expr::lvar(&format!("{prefix}{i}"))
}

/// `k` wide splits `b_i == 0 || b_i == 1`, each followed by `units` unit
/// bounds, then a nested three-way split in a scope, then a refutable
/// overlay that leaves `b0` no value. Every check is satisfiable except the
/// one under the overlay.
fn case_split_suite(ctx: &SolverCtx, kind: BackendKind, k: usize, units: usize) {
    for i in 0..k {
        ctx.assert_expr(&Expr::or(
            Expr::eq(named("b", i), Expr::Int(0)),
            Expr::eq(named("b", i), Expr::Int(1)),
        ));
        for j in 0..units {
            ctx.assert_expr(&Expr::le(named("u", i * units + j), Expr::Int(7)));
        }
        assert!(!ctx.check_unsat(), "{kind}: split {i} is satisfiable");
    }
    ctx.push();
    ctx.assert_expr(&Expr::or(
        Expr::or(
            Expr::eq(named("c", 0), Expr::Int(0)),
            Expr::eq(named("c", 0), Expr::Int(1)),
        ),
        Expr::eq(named("c", 0), Expr::Int(2)),
    ));
    assert!(
        !ctx.check_unsat(),
        "{kind}: the nested split is satisfiable"
    );
    ctx.assert_expr(&Expr::lt(named("b", 0), Expr::Int(0)));
    ctx.assert_expr(&Expr::gt(named("b", 0), Expr::Int(1)));
    assert!(ctx.check_unsat(), "{kind}: b0 has no value left");
    ctx.pop();
    assert!(
        !ctx.check_unsat(),
        "{kind}: satisfiable again after popping the overlay"
    );
}

/// `depth` nested scopes, each adding an equality link `t_d == t_{d-1} + 1`
/// and an inequality link `s_d <= s_{d-1}`, checked on the way down and on
/// the way back up.
fn push_pop_tower(ctx: &SolverCtx, kind: BackendKind, depth: usize) {
    for d in 1..=depth {
        ctx.push();
        ctx.assert_expr(&Expr::eq(
            named("t", d),
            Expr::add(named("t", d - 1), Expr::Int(1)),
        ));
        ctx.assert_expr(&Expr::le(named("s", d), named("s", d - 1)));
        assert!(!ctx.check_unsat(), "{kind}: tower depth {d} is satisfiable");
    }
    // Equalities are solved by substitution, so the whole chain's length is
    // exact on every backend.
    let span = Expr::add(named("t", 0), Expr::Int(depth as i128));
    assert!(
        ctx.entails(&Expr::eq(named("t", depth), span)),
        "{kind}: the equality chain spans the tower"
    );
    for d in (0..depth).rev() {
        ctx.pop();
        assert!(!ctx.check_unsat(), "{kind}: tower back at depth {d}");
    }
}

/// Fixed answers on every in-repo backend, each suite on a fresh hub: wide
/// and nested case splits with a refutable overlay (k = 5 splits, 2 unit
/// bounds each), and a 60-deep push/pop tower.
#[test]
fn case_splits_and_push_pop_tower_answer_alike_on_every_backend() {
    for kind in BackendKind::ALL {
        let hub = Solver::with_backend(kind);
        case_split_suite(&hub.ctx(), kind, 5, 2);
        let hub = Solver::with_backend(kind);
        push_pop_tower(&hub.ctx(), kind, 60);
    }
}

/// Side of the oracle's box: every variable ranges over `-BOX..=BOX`.
const BOX: i128 = 4;

/// Constants next to the `usize`/`i64` bounds, where a wrapped product
/// would read as a contradiction.
const BIG: [i128; 5] = [
    u64::MAX as i128,
    u64::MAX as i128 + 1,
    i64::MAX as i128,
    i64::MIN as i128,
    -(u64::MAX as i128),
];

/// A linear atom over the oracle's variables: `c1·a + c2·b + k ⋈ r` with
/// coefficients in `-3..=3`, or one of the near-bound shapes
/// (`v <= usize::MAX`, `usize::MAX·v >= 1`, `v + B ⋈ B + k`, …). A `unit`
/// atom is never a disequality, which the case split would split.
fn box_atom(g: &mut Lcg, vars: &[Expr], unit: bool) -> Expr {
    let v = |g: &mut Lcg| vars[g.below(vars.len() as u64) as usize].clone();
    let small = |g: &mut Lcg| Expr::Int(g.below(2 * BOX as u64 + 1) as i128 - BOX);
    let coef = |g: &mut Lcg| g.below(7) as i128 - 3;
    let cmp = |g: &mut Lcg, a: Expr, b: Expr| match g.below(if unit { 5 } else { 6 }) {
        0 => Expr::eq(a, b),
        1 => Expr::lt(a, b),
        2 => Expr::le(a, b),
        3 => Expr::gt(a, b),
        4 => Expr::ge(a, b),
        _ => Expr::ne(a, b),
    };
    if g.below(5) == 0 {
        let big = Expr::Int(BIG[g.below(BIG.len() as u64) as usize]);
        let x = v(g);
        return match g.below(3) {
            0 => cmp(g, x, big),
            1 => {
                let k = small(g);
                cmp(g, Expr::mul(big, x), k)
            }
            _ => {
                let k = small(g);
                cmp(g, Expr::add(x, big.clone()), Expr::add(big, k))
            }
        };
    }
    let mut lhs = Expr::mul(Expr::Int(coef(g)), v(g));
    if g.below(2) == 0 {
        lhs = Expr::add(lhs, Expr::mul(Expr::Int(coef(g)), v(g)));
    }
    if g.below(2) == 0 {
        lhs = Expr::add(lhs, small(g));
    }
    let rhs = if g.below(3) == 0 { v(g) } else { small(g) };
    cmp(g, lhs, rhs)
}

/// A fact for the oracle: mostly atoms, sometimes a disjunction, an
/// implication, a conjunction or a negation. `structured` counts the
/// splittable literals of a run; past five, the fact is a unit atom, which
/// keeps every case split small.
fn box_fact(g: &mut Lcg, vars: &[Expr], structured: &mut usize) -> Expr {
    let f = match g.below(8) {
        0 => Expr::or(box_atom(g, vars, false), box_atom(g, vars, false)),
        1 => Expr::implies(box_atom(g, vars, false), box_atom(g, vars, false)),
        2 => Expr::and(box_atom(g, vars, false), box_atom(g, vars, false)),
        3 => Expr::not(box_atom(g, vars, false)),
        _ => box_atom(g, vars, false),
    };
    let parts = splittable_parts(&f);
    if *structured + parts <= 5 {
        *structured += parts;
        return f;
    }
    box_atom(g, vars, true)
}

/// The oracle's box: every assignment of four variables over
/// `-BOX..=BOX`, point `i` giving variable `j` the `j`-th base-`SIDE` digit
/// of `i`.
struct ModelBox {
    vars: Vec<SVar>,
    envs: Vec<Env>,
}

const SIDE: usize = 2 * BOX as usize + 1;

impl ModelBox {
    fn new(vars: Vec<SVar>) -> ModelBox {
        let envs = (0..SIDE.pow(vars.len() as u32))
            .map(|mut i| {
                let mut env = Env::new();
                for &v in &vars {
                    env.bind(v, Value::Int((i % SIDE) as i128 - BOX));
                    i /= SIDE;
                }
                env
            })
            .collect();
        ModelBox { vars, envs }
    }

    /// The points of `points` at which `e` evaluates to `b`. An expression
    /// without a value (an overflow) is neither `true` nor `false`. `e` is
    /// evaluated once per assignment of the variables it mentions, at the
    /// point that gives every other variable digit 0, which `e` cannot see.
    fn filter(&self, e: &Expr, b: bool, points: &[usize]) -> Vec<usize> {
        let seen = e.svars();
        let mut memo = HashMap::new();
        let mut holds = |p: usize| {
            let (mut key, mut place, mut rest) = (0, 1, p);
            for v in &self.vars {
                if seen.contains(v) {
                    key += rest % SIDE * place;
                }
                rest /= SIDE;
                place *= SIDE;
            }
            *memo
                .entry(key)
                .or_insert_with(|| eval(e, &self.envs[key]) == Some(Value::Bool(b)))
        };
        points.iter().copied().filter(|&p| holds(p)).collect()
    }
}

/// The model oracle. Seeded sequences of linear facts over four variables,
/// with `push`/`pop`, run through every in-repo backend. The runner keeps
/// the assignments in `[-4, 4]⁴` under which every `ctx.path()` fact
/// evaluates to `true` (filtered fact by fact as the path grows, restored
/// on `pop`). A `check_unsat` answering `true` must leave no such
/// assignment; an `entails(goal)` answering `true` must leave none under
/// which the goal evaluates to `false`. (`interp::eval` has no value for
/// `LVar`s, so the variables come from a `VarGen`.)
#[test]
fn refutations_have_no_model_in_a_small_box() {
    let mut vg = VarGen::new();
    let space = ModelBox::new((0..4).map(|_| vg.fresh()).collect());
    let vars: Vec<Expr> = space.vars.iter().map(|&v| Expr::Var(v)).collect();
    let (mut refutations, mut entailments) = (0, 0);
    for seed in 0..200 {
        let mut g = Lcg::new(seed);
        let ctxs: Vec<(BackendKind, SolverCtx)> = BackendKind::ALL
            .iter()
            .map(|&kind| (kind, Solver::with_backend(kind).ctx()))
            .collect();
        // Indices into `envs` of the assignments satisfying the whole path,
        // and the sets saved at each open scope.
        let mut models: Vec<usize> = (0..space.envs.len()).collect();
        let mut saved: Vec<Vec<usize>> = Vec::new();
        let mut structured = 0;
        for step in 0..16 {
            match g.below(10) {
                0 if saved.len() < 4 => {
                    saved.push(models.clone());
                    for (_, ctx) in &ctxs {
                        ctx.push();
                    }
                }
                1 if !saved.is_empty() => {
                    models = saved.pop().unwrap();
                    for (_, ctx) in &ctxs {
                        ctx.pop();
                    }
                }
                2 | 3 => {
                    for (kind, ctx) in &ctxs {
                        if ctx.check_unsat() {
                            refutations += 1;
                            assert!(
                                models.is_empty(),
                                "seed {seed} step {step}: {kind} refuted {:?}, which holds at {:?}",
                                ctx.path(),
                                space.envs[models[0]]
                            );
                        }
                    }
                }
                4 => {
                    let goal = box_fact(&mut g, &vars, &mut 0);
                    for (kind, ctx) in &ctxs {
                        if ctx.entails(&goal) {
                            entailments += 1;
                            let counter = space.filter(&goal, false, &models);
                            assert!(
                                counter.is_empty(),
                                "seed {seed} step {step}: {kind} entails {goal} from {:?}, which fails at {:?}",
                                ctx.path(),
                                counter.first().map(|&m| &space.envs[m])
                            );
                        }
                    }
                }
                _ => {
                    let fact = box_fact(&mut g, &vars, &mut structured);
                    for (_, ctx) in &ctxs {
                        ctx.assert_expr(&fact);
                    }
                    let path = ctxs[0].1.path();
                    for (kind, ctx) in &ctxs[1..] {
                        assert_eq!(ctx.path(), path, "seed {seed}: {kind} stack skew");
                    }
                    let last = path.last().expect("the fact was asserted");
                    models = space.filter(last, true, &models);
                }
            }
        }
    }
    // The oracle had something to check.
    assert!(
        refutations > 100 && entailments > 100,
        "{refutations} refutations, {entailments} entailments"
    );
}
