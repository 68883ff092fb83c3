//! The refutation kernel shared by every solver backend.
//!
//! A query arrives as a set of literals (already simplified and split out of
//! top-level conjunctions). The kernel case-splits on disjunctive structure
//! and runs congruence closure, constructor reasoning, linear integer
//! arithmetic, sequence-length abstraction and multiset normalisation on each
//! leaf case. It is *sound for refutation*: `true` means the literals are
//! genuinely unsatisfiable; `false` means "could not refute".
//!
//! The kernel is a pure function of its inputs; how literals are accumulated
//! (one-shot per query, or incrementally at assert time) is the backends'
//! business ([`crate::backend`]).

use crate::bags;
use crate::congruence::{CcSnapshot, Congruence};
use crate::expr::{BinOp, Expr, UnOp};
use crate::linear::{LinSnapshot, Linear};
use crate::simplify::simplify;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The outcome of one kernel run.
#[derive(Clone, Copy, Debug)]
pub struct RefuteOutcome {
    /// Were the literals refuted (definitely unsatisfiable)?
    pub refuted: bool,
    /// Number of leaf conjunctions explored (the "raw work" measure the
    /// backend comparisons use).
    pub leaf_cases: u64,
}

/// Attempts to refute the conjunction of `literals` within `case_budget`
/// leaf cases.
pub fn refute(literals: &[Arc<Expr>], case_budget: usize) -> RefuteOutcome {
    let mut budget = case_budget;
    let mut leaf_cases = 0u64;
    let refuted = refute_cases(literals, &mut budget, &mut leaf_cases);
    RefuteOutcome {
        refuted,
        leaf_cases,
    }
}

/// Splits nested conjunctions into individual literals. Sets
/// `definitely_false` when a literal simplifies to `false`.
pub fn flatten_conjuncts(e: &Expr, out: &mut Vec<Arc<Expr>>, definitely_false: &mut bool) {
    match e {
        Expr::Bool(true) => {}
        Expr::Bool(false) => *definitely_false = true,
        Expr::BinOp(BinOp::And, a, b) => {
            flatten_conjuncts(a, out, definitely_false);
            flatten_conjuncts(b, out, definitely_false);
        }
        _ => out.push(Arc::new(e.clone())),
    }
}

/// Like [`flatten_conjuncts`], but reuses the shared allocation when the
/// expression is already a single literal (the common case on the hot path).
pub fn flatten_shared(e: &Arc<Expr>, out: &mut Vec<Arc<Expr>>, definitely_false: &mut bool) {
    match e.as_ref() {
        Expr::Bool(true) => {}
        Expr::Bool(false) => *definitely_false = true,
        Expr::BinOp(BinOp::And, a, b) => {
            flatten_conjuncts(a, out, definitely_false);
            flatten_conjuncts(b, out, definitely_false);
        }
        _ => out.push(Arc::clone(e)),
    }
}

/// The case split applied to a disjunctive literal, shared by the batch
/// refutation and the incremental state so both explore the same cases:
/// `a ∨ b` splits into its arms, `a ⟹ b` into `¬a | b`, an arithmetic
/// disequality into the two strict orders (so the linear module can refute
/// each), and a boolean-sorted `ite` into its two guarded arms. `None`
/// means the literal is a unit fact for the theories.
pub fn split_of(lit: &Expr) -> Option<(Expr, Expr)> {
    match lit {
        Expr::BinOp(BinOp::Or, a, b) => Some(((**a).clone(), (**b).clone())),
        Expr::BinOp(BinOp::Implies, a, b) => {
            Some((simplify(&Expr::not((**a).clone())), (**b).clone()))
        }
        // Integer disequalities split into strict inequalities so that
        // the linear module can refute them (e.g. `x + 1 != 1 + y`
        // under `x == y`).
        Expr::BinOp(BinOp::Ne, a, b) if is_arith_like(a) || is_arith_like(b) => Some((
            Expr::bin(BinOp::Lt, (**a).clone(), (**b).clone()),
            Expr::bin(BinOp::Lt, (**b).clone(), (**a).clone()),
        )),
        Expr::Ite(c, t, e) => {
            // A boolean-sorted ite used as a fact.
            Some((
                Expr::and((**c).clone(), (**t).clone()),
                Expr::and(simplify(&Expr::not((**c).clone())), (**e).clone()),
            ))
        }
        _ => None,
    }
}

/// Recursively case-splits on disjunctive literals, refuting every case.
fn refute_cases(literals: &[Arc<Expr>], budget: &mut usize, leaf_cases: &mut u64) -> bool {
    if *budget == 0 {
        return false;
    }
    // Find a disjunctive literal to split on.
    for (idx, lit) in literals.iter().enumerate() {
        if let Some((left, right)) = split_of(lit) {
            let mut rest: Vec<Arc<Expr>> = literals.to_vec();
            rest.remove(idx);
            for case in [left, right] {
                let mut case_literals = rest.clone();
                let mut definitely_false = false;
                flatten_conjuncts(&simplify(&case), &mut case_literals, &mut definitely_false);
                if definitely_false {
                    continue;
                }
                if !refute_cases(&case_literals, budget, leaf_cases) {
                    return false;
                }
            }
            return true;
        }
    }
    if *budget > 0 {
        *budget -= 1;
    }
    *leaf_cases += 1;
    refute_conjunction(literals)
}

/// Attempts to refute a conjunction of non-disjunctive literals.
fn refute_conjunction(literals: &[Arc<Expr>]) -> bool {
    let mut cc = Congruence::new();
    let mut disequalities: Vec<(Expr, Expr)> = Vec::new();
    let mut negated_atoms: Vec<Expr> = Vec::new();

    // Pass 1: equalities and boolean atoms into the congruence closure.
    for lit in literals {
        match lit.as_ref() {
            Expr::Bool(false) => return true,
            Expr::Bool(true) => {}
            Expr::BinOp(BinOp::Eq, a, b) => {
                let ta = cc.intern(a);
                let tb = cc.intern(b);
                cc.merge(ta, tb);
            }
            Expr::BinOp(BinOp::Ne, a, b) => {
                disequalities.push(((**a).clone(), (**b).clone()));
                let _ = cc.intern(a);
                let _ = cc.intern(b);
            }
            Expr::UnOp(UnOp::Not, inner) => {
                negated_atoms.push((**inner).clone());
                let ti = cc.intern(inner);
                let tf = cc.intern(&Expr::Bool(false));
                cc.merge(ti, tf);
            }
            other => {
                // Assert the atom itself to be true.
                let ti = cc.intern(other);
                let tt = cc.intern(&Expr::Bool(true));
                cc.merge(ti, tt);
            }
        }
    }
    cc.rebuild();
    if cc.contradictory() {
        return true;
    }

    // Disequality check against the closure.
    for (a, b) in &disequalities {
        if cc.are_equal(a, b) {
            return true;
        }
        // Bag disequalities: refute when both sides normalise identically.
        if (bags::is_bag_expr(a) || bags::is_bag_expr(b)) && bags::definitely_equal(a, b, &mut cc) {
            return true;
        }
    }
    // An atom asserted both positively and negatively.
    for atom in &negated_atoms {
        if cc.are_equal(atom, &Expr::Bool(true)) {
            return true;
        }
    }
    if cc.contradictory() {
        return true;
    }

    // Pass 2: linear arithmetic.
    let mut lin = Linear::new();
    let mut derived_len_eqs: Vec<Expr> = Vec::new();
    for lit in literals {
        match lit.as_ref() {
            Expr::BinOp(BinOp::Lt, a, b) => lin.add_lt(a, b, &mut cc),
            Expr::BinOp(BinOp::Le, a, b) => lin.add_le(a, b, &mut cc),
            Expr::BinOp(BinOp::Gt, a, b) => lin.add_lt(b, a, &mut cc),
            Expr::BinOp(BinOp::Ge, a, b) => lin.add_le(b, a, &mut cc),
            Expr::BinOp(BinOp::Eq, a, b) => lin.add_eq(a, b, &mut cc),
            Expr::UnOp(UnOp::Not, inner) => match inner.as_ref() {
                Expr::BinOp(BinOp::Lt, a, b) => lin.add_le(b, a, &mut cc),
                Expr::BinOp(BinOp::Le, a, b) => lin.add_lt(b, a, &mut cc),
                _ => {}
            },
            _ => {}
        }
        // Sequence equalities imply length equalities.
        if let Expr::BinOp(BinOp::Eq, a, b) = lit.as_ref() {
            if is_seq_structured(a) || is_seq_structured(b) {
                let la = simplify(&Expr::seq_len((**a).clone()));
                let lb = simplify(&Expr::seq_len((**b).clone()));
                lin.add_eq(&la, &lb, &mut cc);
                derived_len_eqs.push(la);
                derived_len_eqs.push(lb);
            }
        }
    }
    // Length terms are non-negative — including the ones that only appear
    // in *derived* length equalities (e.g. `repr == [v] ++ tail` derives
    // `len(repr) == 1 + len(tail)`; without `len(tail) >= 0` the system
    // cannot conclude `len(repr) >= 1`, which is exactly what underflow
    // checks like `len - 1` need).
    let mut len_terms: Vec<Expr> = Vec::new();
    for lit in literals {
        lit.visit(&mut |e| {
            if matches!(e, Expr::UnOp(UnOp::SeqLen, _)) {
                len_terms.push(e.clone());
            }
        });
    }
    for e in &derived_len_eqs {
        e.visit(&mut |sub| {
            if matches!(sub, Expr::UnOp(UnOp::SeqLen, _)) {
                len_terms.push(sub.clone());
            }
        });
    }
    len_terms.sort_by_key(|e| format!("{e}"));
    len_terms.dedup();
    for t in &len_terms {
        lin.add_nonneg(t, &mut cc);
    }
    lin.solve();
    if lin.contradictory() {
        return true;
    }

    false
}

// ---------------------------------------------------------------------------
// Persistent incremental theory state
// ---------------------------------------------------------------------------

/// The outcome of one incremental [`IncrementalState::check`].
#[derive(Clone, Copy, Debug)]
pub struct IncOutcome {
    /// Were the asserted literals refuted (definitely unsatisfiable)?
    pub refuted: bool,
    /// Leaf conjunctions explored by the disjunctive case split (0 when the
    /// answer came straight from the maintained closure).
    pub leaf_cases: u64,
    /// Was the query answered from the maintained theory state alone,
    /// without running the case split?
    pub fast: bool,
}

/// One decomposed case of a disjunctive literal: the unit facts to assert
/// and the nested disjuncts still to split.
#[derive(Clone, Debug)]
struct SplitCase {
    units: Vec<Arc<Expr>>,
    splits: Vec<Arc<Expr>>,
}

/// The decomposition of one disjunctive literal; `None` marks a case whose
/// conjunction simplifies to `false` (refuted without exploring).
type Decomp = Vec<Option<SplitCase>>;

/// A restore point for the whole theory state.
#[derive(Clone, Debug)]
struct StateMark {
    cc: CcSnapshot,
    lin: LinSnapshot,
    units: usize,
    disjuncts: usize,
    diseqs: usize,
    negs: usize,
    len_terms: usize,
    memo_keys: usize,
    contradiction: bool,
    ground_at: usize,
    merges_scanned: usize,
    lin_epoch: u64,
}

/// Persistent incremental theory state: the congruence closure and linear
/// context are maintained **across queries** as literals are asserted, with
/// an undo trail so `push`/`pop` restore exact state in O(changes) instead
/// of O(context).
///
/// * Unit literals do their theory work once, at assert time (congruence
///   merges, disequality registration, linear rows, derived sequence-length
///   facts).
/// * `check` consults the maintained closure; only when *disjunctive*
///   literals are present does it re-run the case split over them, asserting
///   each case's units into the same trail-scoped state (and memoising each
///   disjunct's decomposition, so an unchanged disjunct is never re-split).
/// * Linear atoms are keyed by their congruence representative at assert
///   time. A congruence merge that absorbs an atom-keyed class reaches the
///   linear store as the equality `absorb == keep`, which substitutes the
///   absorbed key away, so rows keyed before and after the merge meet. The
///   store is rebuilt from the live unit literals only when it saturated
///   and kept receiving rows.
/// * **Soundness** (refuted ⇒ genuinely unsat) is preserved because every
///   maintained fact is a logical consequence of literals currently on the
///   assertion stack: congruence merges, linear eliminations (including
///   the ones made from merges) and Fourier–Motzkin rows derived in a scope
///   are rolled back with it.
/// * **Completeness is one-sided versus the batch kernel on inequality
///   chains.** Equalities with a unit coefficient are solved exactly on
///   every backend, however long the chain. Inequalities are not: the
///   maintained store keeps *sound* derivations across queries, so N
///   solves accumulate up to N × the per-solve Fourier–Motzkin round cap
///   while a batch backend gets one cap's worth per query. On inequality
///   chains longer than a single solve's reach this state can therefore
///   refute/entail strictly **more** than the one-shot reference — never
///   less, and never unsoundly (a flipped verdict is always in the
///   proves-more direction). Cross-backend agreement suites must keep
///   inequality chains within single-solve reach (the differential suites
///   do, by construction) or accept the one-sided direction.
#[derive(Clone, Debug, Default)]
pub struct IncrementalState {
    cc: Congruence,
    lin: Linear,
    /// Every unit literal currently asserted, in order — the linear rebuild
    /// source after saturation.
    units: Vec<Arc<Expr>>,
    /// Splittable literals (`∨`, `⟹`, arithmetic `≠`, boolean `ite`),
    /// decomposed lazily at check time.
    disjuncts: Vec<Arc<Expr>>,
    /// Asserted disequality literals, re-checked against the closure
    /// whenever it grows.
    diseqs: Vec<Arc<Expr>>,
    /// Asserted negated atoms, re-checked likewise.
    negs: Vec<Arc<Expr>>,
    /// Sequence-length terms registered for non-negativity, with exact undo
    /// (`len_seen` mirrors the vector as a set).
    len_terms: Vec<Expr>,
    len_seen: HashSet<Expr>,
    /// The theory verdict for the current unit set (monotone within a
    /// scope; restored on pop).
    contradiction: bool,
    /// Merge-log length at the last ground (disequality/negation) recheck.
    ground_at: usize,
    /// Merge-log length up to which merges have been passed to the linear
    /// store.
    merges_scanned: usize,
    /// Set when a pop crossed a linear rebuild and dropped the store: it is
    /// rebuilt from `units` at the next check.
    lin_stale: bool,
    /// Bumped at every linear rebuild; a pop across a rebuild cannot
    /// truncate the rebuilt vector, so it resets and marks it stale.
    lin_epoch: u64,
    scopes: Vec<StateMark>,
    /// Memoised decompositions, keyed by literal allocation (the held `Arc`
    /// keeps the address stable and unique). Evicted with the scope that
    /// first decomposed the literal (`memo_keys` + the mark's length), so
    /// the map — copied into every branch clone — stays bounded by the
    /// *live* disjuncts instead of every disjunct ever seen.
    split_memo: HashMap<usize, (Arc<Expr>, Arc<Decomp>)>,
    /// Insertion order of `split_memo` keys, for scope-based eviction.
    memo_keys: Vec<usize>,
}

impl IncrementalState {
    pub fn new() -> Self {
        Self::default()
    }

    /// Is the current unit set already known contradictory? (Cheap; the
    /// full verdict — including the disjunctive case split — is
    /// [`IncrementalState::check`].)
    pub fn known_contradictory(&self) -> bool {
        self.contradiction
    }

    /// Opens a scope: later assertions are rolled back by the matching
    /// [`IncrementalState::pop`].
    pub fn push(&mut self) {
        let m = self.mark();
        self.scopes.push(m);
    }

    /// Closes the innermost scope, restoring the exact prior theory state.
    pub fn pop(&mut self) {
        if let Some(m) = self.scopes.pop() {
            self.undo_to_mark(m);
        }
    }

    /// Poisons the current scope (a literal simplified to `false`).
    pub fn set_false(&mut self) {
        self.contradiction = true;
    }

    /// Asserts one simplified, conjunction-free literal.
    pub fn assert_lit(&mut self, lit: &Arc<Expr>) {
        match lit.as_ref() {
            Expr::Bool(true) => return,
            Expr::Bool(false) => {
                self.contradiction = true;
                return;
            }
            _ => {}
        }
        if split_of(lit).is_some() {
            self.disjuncts.push(Arc::clone(lit));
        } else {
            self.assert_unit(lit);
        }
    }

    /// Are `a` and `b` in one class of the congruence closure over the unit
    /// literals asserted so far? `true` when the unit set is already known
    /// contradictory. Sound but incomplete: it runs no case split and no
    /// linear solve, so an equality that holds only through arithmetic or
    /// a case split reads `false`. The terms it interns, and the merges
    /// their normalisation makes, are undone before it returns.
    pub fn congruent(&mut self, a: &Expr, b: &Expr) -> bool {
        if self.contradiction {
            return true;
        }
        let snap = self.cc.snapshot();
        let equal = self.cc.are_equal(a, b);
        self.cc.undo_to(&snap);
        equal
    }

    /// Answers "is the conjunction of everything asserted definitely
    /// unsatisfiable?" from the maintained state, case-splitting only over
    /// the disjunctive literals.
    pub fn check(&mut self, case_budget: usize) -> IncOutcome {
        self.settle();
        if self.contradiction {
            return IncOutcome {
                refuted: true,
                leaf_cases: 0,
                fast: true,
            };
        }
        if self.disjuncts.is_empty() {
            return IncOutcome {
                refuted: false,
                leaf_cases: 0,
                fast: true,
            };
        }
        let mut budget = case_budget;
        let mut leaves = 0u64;
        let pending = self.disjuncts.clone();
        let refuted = self.split(&pending, &mut budget, &mut leaves);
        IncOutcome {
            refuted,
            leaf_cases: leaves,
            fast: false,
        }
    }

    // ---- internals ------------------------------------------------------

    fn mark(&self) -> StateMark {
        StateMark {
            cc: self.cc.snapshot(),
            lin: self.lin.snapshot(),
            units: self.units.len(),
            disjuncts: self.disjuncts.len(),
            diseqs: self.diseqs.len(),
            negs: self.negs.len(),
            len_terms: self.len_terms.len(),
            memo_keys: self.memo_keys.len(),
            contradiction: self.contradiction,
            ground_at: self.ground_at,
            merges_scanned: self.merges_scanned,
            lin_epoch: self.lin_epoch,
        }
    }

    fn undo_to_mark(&mut self, m: StateMark) {
        self.cc.undo_to(&m.cc);
        if self.lin_epoch == m.lin_epoch {
            self.lin.undo_to(&m.lin);
        } else {
            // A rebuild happened inside the scope: the constraint vector no
            // longer corresponds to the snapshot's indices. Drop it and
            // rebuild lazily from the surviving units at the next check.
            // (`lin_epoch` is NOT restored — it is monotone, so outer marks
            // also detect that their snapshots are invalid.)
            self.lin = Linear::new();
            self.lin_stale = true;
        }
        self.units.truncate(m.units);
        self.disjuncts.truncate(m.disjuncts);
        self.diseqs.truncate(m.diseqs);
        self.negs.truncate(m.negs);
        while self.len_terms.len() > m.len_terms {
            let t = self.len_terms.pop().unwrap();
            self.len_seen.remove(&t);
        }
        while self.memo_keys.len() > m.memo_keys {
            let k = self.memo_keys.pop().unwrap();
            self.split_memo.remove(&k);
        }
        self.contradiction = m.contradiction;
        self.ground_at = m.ground_at;
        self.merges_scanned = m.merges_scanned;
    }

    /// Pass-1 + pass-2 theory work for one unit literal, done once at
    /// assert time.
    fn assert_unit(&mut self, lit: &Arc<Expr>) {
        self.units.push(Arc::clone(lit));
        if self.contradiction {
            // Already refuted at this scope depth: skipping the theory work
            // is safe because any pop that unwinds the contradiction also
            // unwinds this literal (it sits above the same mark).
            return;
        }
        match lit.as_ref() {
            Expr::BinOp(BinOp::Eq, a, b) => {
                let ta = self.cc.intern(a);
                let tb = self.cc.intern(b);
                self.cc.merge(ta, tb);
            }
            Expr::BinOp(BinOp::Ne, a, b) => {
                self.diseqs.push(Arc::clone(lit));
                // A fresh disequality is checked right away (the periodic
                // recheck only fires when the closure *grows*, and this
                // pair may already be equal — e.g. bag normal forms).
                if self.cc.are_equal(a, b)
                    || ((bags::is_bag_expr(a) || bags::is_bag_expr(b))
                        && bags::definitely_equal(a, b, &mut self.cc))
                {
                    self.contradiction = true;
                    return;
                }
            }
            Expr::UnOp(UnOp::Not, inner) => {
                self.negs.push(Arc::clone(lit));
                let ti = self.cc.intern(inner);
                let tf = self.cc.intern(&Expr::Bool(false));
                self.cc.merge(ti, tf);
            }
            other => {
                let ti = self.cc.intern(other);
                let tt = self.cc.intern(&Expr::Bool(true));
                self.cc.merge(ti, tt);
            }
        }
        self.cc.rebuild();
        if self.cc.contradictory() {
            self.contradiction = true;
            return;
        }
        self.linear_rows_for(&Arc::clone(lit), true);
        if self.lin.contradictory() {
            self.contradiction = true;
        }
    }

    /// The linear constraints contributed by one literal (mirrors the batch
    /// kernel's pass 2). `register` also records fresh sequence-length terms
    /// for non-negativity; the linear rebuild passes `false` and replays the
    /// recorded list instead.
    fn linear_rows_for(&mut self, lit: &Arc<Expr>, register: bool) {
        match lit.as_ref() {
            Expr::BinOp(BinOp::Lt, a, b) => self.lin.add_lt(a, b, &mut self.cc),
            Expr::BinOp(BinOp::Le, a, b) => self.lin.add_le(a, b, &mut self.cc),
            Expr::BinOp(BinOp::Gt, a, b) => self.lin.add_lt(b, a, &mut self.cc),
            Expr::BinOp(BinOp::Ge, a, b) => self.lin.add_le(b, a, &mut self.cc),
            Expr::BinOp(BinOp::Eq, a, b) => self.lin.add_eq(a, b, &mut self.cc),
            Expr::UnOp(UnOp::Not, inner) => match inner.as_ref() {
                Expr::BinOp(BinOp::Lt, a, b) => self.lin.add_le(b, a, &mut self.cc),
                Expr::BinOp(BinOp::Le, a, b) => self.lin.add_lt(b, a, &mut self.cc),
                _ => {}
            },
            _ => {}
        }
        if let Expr::BinOp(BinOp::Eq, a, b) = lit.as_ref() {
            if is_seq_structured(a) || is_seq_structured(b) {
                let la = simplify(&Expr::seq_len((**a).clone()));
                let lb = simplify(&Expr::seq_len((**b).clone()));
                self.lin.add_eq(&la, &lb, &mut self.cc);
                if register {
                    self.register_lens(&la);
                    self.register_lens(&lb);
                }
            }
        }
        if register {
            let lit = Arc::clone(lit);
            self.register_lens(&lit);
        }
    }

    /// Records every sequence-length sub-term of `e` not yet seen, asserting
    /// its non-negativity.
    fn register_lens(&mut self, e: &Expr) {
        let mut found: Vec<Expr> = Vec::new();
        e.visit(&mut |sub| {
            if matches!(sub, Expr::UnOp(UnOp::SeqLen, _)) && !self.len_seen.contains(sub) {
                found.push(sub.clone());
            }
        });
        for t in found {
            if self.len_seen.insert(t.clone()) {
                self.len_terms.push(t.clone());
                self.lin.add_nonneg(&t, &mut self.cc);
            }
        }
    }

    /// Passes the merges not yet seen to the linear store: a merge that
    /// absorbs an atom-keyed class becomes the equality `absorb == keep`,
    /// so rows referencing the absorbed root meet rows keyed under the
    /// surviving representative (even when the surviving class carries no
    /// atoms *yet*: later rows are keyed under it). A merge whose absorbed
    /// root was never an atom key references no row and is skipped.
    fn process_merges(&mut self) {
        let log = self.cc.merge_log();
        if self.merges_scanned >= log.len() {
            return;
        }
        let fresh: Vec<_> = log[self.merges_scanned..].to_vec();
        self.merges_scanned = log.len();
        for (keep, absorb) in fresh {
            if self.lin.is_atom(absorb) {
                self.lin.assert_merge(absorb, keep);
            }
        }
    }

    /// Rebuilds the linear context from the live unit literals, keying every
    /// atom by its *current* congruence representative — exactly what the
    /// batch kernel computes for the same conjunction. Only a saturated
    /// store (or a pop across an earlier rebuild) needs it.
    fn rebuild_linear(&mut self) {
        self.lin_epoch += 1;
        self.lin_stale = false;
        self.merges_scanned = self.cc.merge_log().len();
        self.lin = Linear::new();
        let units = self.units.clone();
        for u in &units {
            self.linear_rows_for(u, false);
        }
        let lens = self.len_terms.clone();
        for t in &lens {
            self.lin.add_nonneg(t, &mut self.cc);
        }
    }

    /// Re-checks all asserted disequalities and negated atoms against the
    /// (grown) closure.
    fn recheck_ground(&mut self) {
        self.ground_at = self.cc.merge_log().len();
        let diseqs = self.diseqs.clone();
        for d in &diseqs {
            let Expr::BinOp(BinOp::Ne, a, b) = d.as_ref() else {
                continue;
            };
            if self.cc.are_equal(a, b) {
                self.contradiction = true;
                return;
            }
            if (bags::is_bag_expr(a) || bags::is_bag_expr(b))
                && bags::definitely_equal(a, b, &mut self.cc)
            {
                self.contradiction = true;
                return;
            }
        }
        let negs = self.negs.clone();
        for n in &negs {
            let Expr::UnOp(UnOp::Not, inner) = n.as_ref() else {
                continue;
            };
            if self.cc.are_equal(inner, &Expr::Bool(true)) {
                self.contradiction = true;
                return;
            }
        }
        if self.cc.contradictory() {
            self.contradiction = true;
        }
    }

    /// Brings every maintained theory up to date with the current unit set.
    fn settle(&mut self) {
        if self.contradiction {
            return;
        }
        self.cc.rebuild();
        if self.cc.contradictory() {
            self.contradiction = true;
            return;
        }
        if self.ground_at < self.cc.merge_log().len() {
            self.recheck_ground();
            if self.contradiction {
                return;
            }
        }
        // Linear: pass new merges to the store as equalities, rebuild a
        // saturated store that received uncombined rows (the rebuild can
        // itself trigger normalisation merges), then solve.
        self.process_merges();
        if self.lin_stale || self.lin.needs_rebuild() {
            self.rebuild_linear();
            self.process_merges();
        }
        self.lin.solve();
        if self.lin.contradictory() {
            self.contradiction = true;
            return;
        }
        // A linear rebuild may have interned/normalised new terms into the
        // closure; give the ground facts one more look if it moved.
        if self.ground_at < self.cc.merge_log().len() {
            self.recheck_ground();
        }
    }

    /// The memoised decomposition of one disjunctive literal.
    fn decompose(&mut self, lit: &Arc<Expr>) -> Arc<Decomp> {
        let key = Arc::as_ptr(lit) as usize;
        if let Some((held, d)) = self.split_memo.get(&key) {
            if Arc::ptr_eq(held, lit) {
                return Arc::clone(d);
            }
        }
        let (left, right) = split_of(lit).expect("only splittable literals are decomposed");
        let mut out: Decomp = Vec::with_capacity(2);
        for side in [left, right] {
            let mut lits: Vec<Arc<Expr>> = Vec::new();
            let mut definitely_false = false;
            flatten_conjuncts(&simplify(&side), &mut lits, &mut definitely_false);
            if definitely_false {
                out.push(None);
                continue;
            }
            let mut units = Vec::new();
            let mut splits = Vec::new();
            for l in lits {
                if split_of(&l).is_some() {
                    splits.push(l);
                } else {
                    units.push(l);
                }
            }
            out.push(Some(SplitCase { units, splits }));
        }
        let d = Arc::new(out);
        if self
            .split_memo
            .insert(key, (Arc::clone(lit), Arc::clone(&d)))
            .is_none()
        {
            self.memo_keys.push(key);
        }
        d
    }

    /// The case split over pending disjuncts, exploring each combination on
    /// top of the maintained state (assert into a trail scope, recurse,
    /// undo). Mirrors the batch kernel's exploration order: first pending
    /// disjunct first, nested disjuncts appended behind the remaining ones.
    fn split(&mut self, pending: &[Arc<Expr>], budget: &mut usize, leaves: &mut u64) -> bool {
        if *budget == 0 {
            return false;
        }
        let Some((first, rest)) = pending.split_first() else {
            // Leaf: the maintained theories decide this combination.
            *budget -= 1;
            *leaves += 1;
            self.settle();
            return self.contradiction;
        };
        let decomp = self.decompose(first);
        // Pre-warm the memo for the remaining pending disjuncts *outside*
        // the per-case marks below: their entries would otherwise be
        // created inside the first case's scope and evicted by its undo,
        // forcing every sibling case to re-split them.
        for p in rest {
            let _ = self.decompose(p);
        }
        for case in decomp.iter() {
            let Some(case) = case else {
                // The case simplified to `false`: refuted without exploring.
                continue;
            };
            let m = self.mark();
            for u in &case.units {
                self.assert_unit(u);
            }
            let result = if self.contradiction {
                // The theories refuted this case while asserting its units:
                // the whole subtree below it is refuted at the cost of one
                // leaf instead of the batch kernel's full expansion.
                if *budget > 0 {
                    *budget -= 1;
                }
                *leaves += 1;
                true
            } else {
                let mut sub: Vec<Arc<Expr>> = Vec::with_capacity(rest.len() + case.splits.len());
                sub.extend(rest.iter().cloned());
                sub.extend(case.splits.iter().cloned());
                self.split(&sub, budget, leaves)
            };
            self.undo_to_mark(m);
            if !result {
                return false;
            }
        }
        true
    }
}

/// Does the expression look integer-sorted (contains arithmetic structure,
/// an integer literal or a sequence length)?
fn is_arith_like(e: &Expr) -> bool {
    let mut found = false;
    e.visit(&mut |sub| {
        if matches!(
            sub,
            Expr::Int(_)
                | Expr::BinOp(BinOp::Add, _, _)
                | Expr::BinOp(BinOp::Sub, _, _)
                | Expr::BinOp(BinOp::Mul, _, _)
                | Expr::UnOp(UnOp::SeqLen, _)
                | Expr::UnOp(UnOp::Neg, _)
        ) {
            found = true;
        }
    });
    found
}

/// Does this expression have visible sequence structure?
fn is_seq_structured(e: &Expr) -> bool {
    matches!(
        e,
        Expr::SeqLit(_)
            | Expr::BinOp(BinOp::SeqConcat, _, _)
            | Expr::BinOp(BinOp::SeqRepeat, _, _)
            | Expr::NOp(_, _)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::VarGen;

    #[test]
    fn merges_of_atom_keyed_classes_do_not_rebuild_the_linear_store() {
        // The sequence of `interleaved_checks_do_not_stale_linear_atom_keys`:
        // the merge `f(a) ~ f(b)` absorbs an atom-keyed class, and reaches
        // the linear store as an equality instead of a rebuild.
        let mut g = VarGen::new();
        let (a, b, q) = (g.fresh_expr(), g.fresh_expr(), g.fresh_expr());
        let fa = Expr::app("f", vec![a.clone()]);
        let fb = Expr::app("f", vec![b.clone()]);
        let mut st = IncrementalState::new();
        for lit in [
            Expr::ne(q, fb.clone()),
            Expr::ge(fa, Expr::Int(3)),
            Expr::eq(a, b),
        ] {
            st.assert_lit(&Arc::new(lit));
        }
        assert!(!st.check(64).refuted);
        st.assert_lit(&Arc::new(Expr::lt(fb, Expr::Int(3))));
        assert!(st.check(64).refuted);
        assert_eq!(st.lin_epoch, 0, "no linear rebuild");
    }

    #[test]
    fn congruent_leaves_no_term_or_merge_behind() {
        let (c, e) = (Expr::lvar("c"), Expr::lvar("e"));
        let single = Expr::seq(vec![e]);
        let mut st = IncrementalState::new();
        st.assert_lit(&Arc::new(Expr::eq(c.clone(), Expr::empty_seq())));
        let (terms, merges) = (st.cc.len(), st.cc.merge_log().len());
        // `[e] ++ c` is new to the closure, and normalising it merges it
        // with `[e]`: both are undone.
        assert!(st.congruent(&Expr::seq_concat(single.clone(), c), &single));
        assert_eq!(st.cc.len(), terms);
        assert_eq!(st.cc.merge_log().len(), merges);
    }

    #[test]
    fn a_pop_across_a_saturation_rebuild_rebuilds_from_the_surviving_units() {
        let add = |st: &mut IncrementalState, e: Expr| st.assert_lit(&Arc::new(e));
        let v = |name: &str, i: usize| Expr::lvar(&format!("{name}{i}"));
        let (x, y, z) = (Expr::lvar("x"), Expr::lvar("y"), Expr::lvar("z"));
        let mut st = IncrementalState::new();
        add(
            &mut st,
            Expr::eq(y.clone(), Expr::add(z.clone(), Expr::Int(1))),
        );
        // 70 lower and 70 upper bounds on `x` derive 4900 rows in one
        // round: the store saturates at its row cap.
        for i in 0..70 {
            add(&mut st, Expr::le(v("lo", i), x.clone()));
            add(&mut st, Expr::le(x.clone(), v("hi", i)));
        }
        assert!(!st.check(64).refuted);
        assert_eq!(st.lin_epoch, 0, "saturating alone does not rebuild");
        st.push();
        add(&mut st, Expr::le(Expr::lvar("w"), Expr::Int(0)));
        assert!(st.lin.needs_rebuild(), "a row after saturation");
        assert!(!st.check(64).refuted);
        assert_eq!(st.lin_epoch, 1, "rebuilt on saturation");
        // The rebuilt store goes with the scope; the next check rebuilds it
        // from the surviving units, `y == z + 1`'s elimination included.
        st.pop();
        add(&mut st, Expr::eq(z, y));
        assert!(st.check(64).refuted);
        assert_eq!(st.lin_epoch, 2);
    }
}
