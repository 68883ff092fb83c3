//! Linear integer arithmetic reasoning.
//!
//! Integer-sorted facts from the path condition are converted into linear
//! constraints over *atoms* (maximal non-arithmetic sub-terms, keyed by their
//! congruence-closure representative). An equality with a unit coefficient
//! is solved for one atom and substituted away: the store keeps it in solved
//! form (`atom := poly`) and rewrites every row by it, so equality chains
//! never reach the inequality pass. Congruence merges between atom-keyed
//! classes arrive the same way, as equalities ([`Linear::assert_merge`]).
//! The remaining inequalities are decided by a bounded Fourier–Motzkin-style
//! elimination pass. The procedure is sound for unsatisfiability: it only
//! ever answers "definitely contradictory" when the constraints have no
//! integer solution. Coefficient arithmetic is checked; a row, derivation or
//! elimination whose arithmetic would overflow is dropped, and fewer facts
//! can only mean fewer refutations.

use crate::congruence::{Congruence, TermId};
use crate::expr::{BinOp, Expr, UnOp};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// A linear polynomial: constant + sum of coefficient * atom.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct Poly {
    /// Constant term.
    pub constant: i128,
    /// Coefficients keyed by atom (congruence representative).
    pub coeffs: BTreeMap<TermId, i128>,
}

/// All coefficient arithmetic lives here, checked: `None` means the result
/// does not fit in `i128`.
#[deny(clippy::arithmetic_side_effects)]
impl Poly {
    /// The zero polynomial.
    pub fn zero() -> Poly {
        Poly::default()
    }

    /// A constant polynomial.
    pub fn constant(c: i128) -> Poly {
        Poly {
            constant: c,
            coeffs: BTreeMap::new(),
        }
    }

    /// A single atom with coefficient 1.
    pub fn atom(t: TermId) -> Poly {
        let mut coeffs = BTreeMap::new();
        coeffs.insert(t, 1);
        Poly {
            constant: 0,
            coeffs,
        }
    }

    /// Polynomial addition.
    pub fn add(&self, other: &Poly) -> Option<Poly> {
        let mut out = self.clone();
        out.constant = out.constant.checked_add(other.constant)?;
        for (k, v) in &other.coeffs {
            let c = out.coeffs.entry(*k).or_insert(0);
            *c = c.checked_add(*v)?;
        }
        out.normalize();
        Some(out)
    }

    /// Polynomial subtraction.
    pub fn sub(&self, other: &Poly) -> Option<Poly> {
        self.add(&other.scale(-1)?)
    }

    /// Multiplication by a constant.
    pub fn scale(&self, c: i128) -> Option<Poly> {
        let mut coeffs = BTreeMap::new();
        for (k, v) in &self.coeffs {
            coeffs.insert(*k, v.checked_mul(c)?);
        }
        let mut out = Poly {
            constant: self.constant.checked_mul(c)?,
            coeffs,
        };
        out.normalize();
        Some(out)
    }

    /// The Fourier–Motzkin step for rows `self <= 0` and `other <= 0` in
    /// which one atom has the opposite-signed coefficients `ca` and `cb`:
    /// `|cb| * self + |ca| * other <= 0` no longer mentions that atom.
    fn combine(&self, ca: i128, other: &Poly, cb: i128) -> Option<Poly> {
        self.scale(cb.checked_abs()?)?
            .add(&other.scale(ca.checked_abs()?)?)
    }

    /// Solves `self == 0` for `atom`, whose coefficient `c` is ±1: the atom
    /// equals `-c` times the rest.
    fn solve_for(&self, atom: TermId) -> Option<Poly> {
        let mut rest = self.clone();
        let c = rest.coeffs.remove(&atom)?;
        rest.scale(c.checked_neg()?)
    }

    /// `self` with `atom` replaced by `value`.
    fn substitute(&self, atom: TermId, value: &Poly) -> Option<Poly> {
        let mut rest = self.clone();
        match rest.coeffs.remove(&atom) {
            Some(c) => rest.add(&value.scale(c)?),
            None => Some(rest),
        }
    }

    fn normalize(&mut self) {
        self.coeffs.retain(|_, v| *v != 0);
    }

    /// Is this polynomial a constant?
    pub fn as_constant(&self) -> Option<i128> {
        if self.coeffs.is_empty() {
            Some(self.constant)
        } else {
            None
        }
    }
}

/// A constraint `poly <= 0` (non-strict; strict inequalities over integers are
/// converted with `a < b  ==>  a - b + 1 <= 0`).
#[derive(Clone, Debug)]
pub struct LeZero(pub Poly);

/// The linear-arithmetic context built from a set of literals.
///
/// Equalities with a unit coefficient eliminate an atom: `solved` maps it to
/// its value, rows are rewritten by the solved form as they arrive, and rows
/// that mention an atom eliminated after them are *dead* — [`Linear::solve`]
/// skips them, and their rewritten copies take their place.
///
/// Supports **incremental** use: constraints accumulate across
/// [`Linear::solve`] calls, a `frontier` marks how far pairwise elimination
/// has already been pushed (so a re-solve after a few new constraints only
/// combines pairs involving the new rows — semi-naive evaluation), and
/// [`Linear::snapshot`]/[`Linear::undo_to`] restore an earlier state in
/// O(changes): rows and eliminations made since are dropped, and dead rows
/// below the snapshot come back to life with the eliminations that killed
/// them gone. Derived rows carried across solves are consequences of rows
/// below them in the vector, so truncation is always sound.
#[derive(Clone, Debug, Default)]
pub struct Linear {
    constraints: Vec<LeZero>,
    contradiction: bool,
    /// Live constraints below this index have been exhaustively
    /// pairwise-combined against each other by earlier [`Linear::solve`]
    /// calls.
    frontier: usize,
    /// Every [`TermId`] ever used as an atom key (conservative: entries are
    /// *not* removed on undo — a stale entry can only pass a needless
    /// equality to the store, and every merge it passes is true).
    atoms: BTreeSet<TermId>,
    /// The solved form: each eliminated atom's value, with its position in
    /// `eliminated`. A value only mentions atoms that were not eliminated
    /// when it was added, so rewriting by the earliest-eliminated atom first
    /// visits every entry at most once.
    solved: HashMap<TermId, (usize, Poly)>,
    /// Eliminated atoms in elimination order: the undo trail of `solved`.
    eliminated: Vec<TermId>,
    /// The constraint store hit `MAX_CONSTRAINTS`: derivation stopped. A
    /// persistent context that keeps asserting afterwards must rebuild (see
    /// [`Linear::needs_rebuild`]) — a saturated store silently blocks the
    /// eliminations new facts would need, which a per-query rebuild never
    /// experiences.
    saturated: bool,
    /// Rows asserted after saturation (they were never combined).
    rows_since_saturation: usize,
    /// The rows of `constraints` as a set, for O(1) dedup: asserted and
    /// derived rows are both checked against it, so no row is stored twice
    /// and an undo removes exactly the entries of the rows it drops.
    seen: HashSet<Poly>,
}

/// A restore point for [`Linear::undo_to`].
#[derive(Clone, Copy, Debug)]
pub struct LinSnapshot {
    constraints_len: usize,
    eliminated_len: usize,
    frontier: usize,
    contradiction: bool,
    saturated: bool,
    rows_since_saturation: usize,
}

impl Linear {
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a restore point for [`Linear::undo_to`].
    pub fn snapshot(&self) -> LinSnapshot {
        LinSnapshot {
            constraints_len: self.constraints.len(),
            eliminated_len: self.eliminated.len(),
            frontier: self.frontier,
            contradiction: self.contradiction,
            saturated: self.saturated,
            rows_since_saturation: self.rows_since_saturation,
        }
    }

    /// Restores an earlier [`Linear::snapshot`]: constraints added (asserted
    /// *or* derived) and atoms eliminated since are dropped, and the
    /// elimination frontier rolls back so re-solves recombine whatever needs
    /// recombining.
    pub fn undo_to(&mut self, snap: &LinSnapshot) {
        for c in &self.constraints[snap.constraints_len.min(self.constraints.len())..] {
            self.seen.remove(&c.0);
        }
        self.constraints.truncate(snap.constraints_len);
        for atom in self
            .eliminated
            .drain(snap.eliminated_len.min(self.eliminated.len())..)
        {
            self.solved.remove(&atom);
        }
        self.frontier = snap.frontier;
        self.contradiction = snap.contradiction;
        self.saturated = snap.saturated;
        self.rows_since_saturation = snap.rows_since_saturation;
    }

    /// Did rows arrive after the store saturated? They were never combined
    /// with anything, so a persistent caller must rebuild from its source
    /// facts (dropping the accumulated derived rows) to stay as complete as
    /// a per-query solve.
    pub fn needs_rebuild(&self) -> bool {
        self.saturated && self.rows_since_saturation > 0
    }

    /// Has this id ever been used as an atom key? Conservative over undo —
    /// see the field docs. The theory combiner passes a congruence merge to
    /// the store (as [`Linear::assert_merge`]) only when its absorbed root
    /// is an atom: no row or solution can mention any other root.
    pub fn is_atom(&self, t: TermId) -> bool {
        self.atoms.contains(&t)
    }

    /// Returns `true` if the collected constraints are definitely
    /// unsatisfiable over the integers.
    pub fn contradictory(&self) -> bool {
        self.contradiction
    }

    /// Converts an integer-sorted expression into a polynomial, interning
    /// non-arithmetic sub-terms as atoms via the congruence closure. `None`
    /// when a coefficient overflows.
    pub fn poly_of(&mut self, e: &Expr, cc: &mut Congruence) -> Option<Poly> {
        match e {
            Expr::Int(i) => Some(Poly::constant(*i)),
            Expr::BinOp(BinOp::Add, a, b) => {
                let pa = self.poly_of(a, cc);
                let pb = self.poly_of(b, cc);
                pa?.add(&pb?)
            }
            Expr::BinOp(BinOp::Sub, a, b) => {
                let pa = self.poly_of(a, cc);
                let pb = self.poly_of(b, cc);
                pa?.sub(&pb?)
            }
            Expr::BinOp(BinOp::Mul, a, b) => {
                let pa = self.poly_of(a, cc);
                let pb = self.poly_of(b, cc);
                let (pa, pb) = (pa?, pb?);
                match (pa.as_constant(), pb.as_constant()) {
                    (Some(ca), _) => pb.scale(ca),
                    (_, Some(cb)) => pa.scale(cb),
                    // Non-linear: treat the whole product as an atom.
                    _ => {
                        let rep = cc.rep_of(e);
                        self.atoms.insert(rep);
                        Some(Poly::atom(rep))
                    }
                }
            }
            Expr::UnOp(UnOp::Neg, a) => self.poly_of(a, cc)?.scale(-1),
            _ => {
                let rep = cc.rep_of(e);
                self.atoms.insert(rep);
                // Sequence lengths are always non-negative; record that fact
                // whenever a length term becomes an atom.
                if matches!(e, Expr::UnOp(UnOp::SeqLen, _)) {
                    self.push(Poly::atom(rep).scale(-1)?);
                }
                Some(Poly::atom(rep))
            }
        }
    }

    /// `lhs - rhs` as a polynomial.
    fn diff(&mut self, lhs: &Expr, rhs: &Expr, cc: &mut Congruence) -> Option<Poly> {
        let pl = self.poly_of(lhs, cc);
        let pr = self.poly_of(rhs, cc);
        pl?.sub(&pr?)
    }

    /// Adds the fact `lhs <= rhs`.
    pub fn add_le(&mut self, lhs: &Expr, rhs: &Expr, cc: &mut Congruence) {
        if let Some(d) = self.diff(lhs, rhs, cc) {
            self.push(d);
        }
    }

    /// Adds the fact `lhs < rhs`.
    pub fn add_lt(&mut self, lhs: &Expr, rhs: &Expr, cc: &mut Congruence) {
        if let Some(d) = self
            .diff(lhs, rhs, cc)
            .and_then(|d| d.add(&Poly::constant(1)))
        {
            self.push(d);
        }
    }

    /// Adds the fact `lhs == rhs`.
    pub fn add_eq(&mut self, lhs: &Expr, rhs: &Expr, cc: &mut Congruence) {
        if let Some(d) = self.diff(lhs, rhs, cc) {
            self.equate(d, None);
        }
    }

    /// Adds the fact that `e >= 0` (e.g. sequence lengths, sizes).
    pub fn add_nonneg(&mut self, e: &Expr, cc: &mut Congruence) {
        if let Some(p) = self.poly_of(e, cc).and_then(|p| p.scale(-1)) {
            self.push(p);
        }
    }

    /// Passes the congruence merge of the atom-keyed class `absorb` into
    /// `keep` to the store, as the equality `absorb == keep`: rows keyed
    /// under the absorbed root then meet rows keyed under the survivor.
    pub(crate) fn assert_merge(&mut self, absorb: TermId, keep: TermId) {
        // Rewritten rows and later merges mention the survivor.
        self.atoms.insert(keep);
        if let Some(d) = Poly::atom(absorb).sub(&Poly::atom(keep)) {
            self.equate(d, Some(absorb));
        }
    }

    /// Adds `d == 0`. After rewriting, a constant is decided on the spot;
    /// otherwise an atom with coefficient ±1 is eliminated (`prefer` if it
    /// qualifies, else the highest [`TermId`]: the newest term, so the
    /// values of a definition chain stay over its oldest atoms). Without a
    /// unit coefficient (`2x == 3y`) the equality becomes two rows.
    fn equate(&mut self, d: Poly, prefer: Option<TermId>) {
        let Some(d) = self.rewrite(d) else {
            return;
        };
        if let Some(k) = d.as_constant() {
            if k != 0 {
                self.contradiction = true;
            }
            return;
        }
        let unit = |a: &TermId| matches!(d.coeffs.get(a), Some(1 | -1));
        let Some(atom) = prefer
            .filter(unit)
            .or_else(|| d.coeffs.keys().rev().copied().find(unit))
        else {
            let neg = d.scale(-1);
            self.push(d);
            if let Some(neg) = neg {
                self.push(neg);
            }
            return;
        };
        let Some(value) = d.solve_for(atom) else {
            return;
        };
        // The live rows that mention the atom die with the elimination;
        // their rewritten copies replace them.
        let affected: Vec<Poly> = self
            .constraints
            .iter()
            .map(|c| &c.0)
            .filter(|row| row.coeffs.contains_key(&atom) && self.is_live(row))
            .cloned()
            .collect();
        self.solved.insert(atom, (self.eliminated.len(), value));
        self.eliminated.push(atom);
        for row in affected {
            self.push(row);
        }
    }

    /// Does this row mention no eliminated atom?
    fn is_live(&self, row: &Poly) -> bool {
        self.solved.is_empty() || !row.coeffs.keys().any(|a| self.solved.contains_key(a))
    }

    /// Rewrites `p` by the solved form until no eliminated atom remains,
    /// substituting the earliest-eliminated atom first.
    fn rewrite(&self, mut p: Poly) -> Option<Poly> {
        loop {
            let next = p
                .coeffs
                .keys()
                .filter_map(|a| self.solved.get(a).map(|(at, value)| (*at, *a, value)))
                .min_by_key(|(at, ..)| *at);
            let Some((_, atom, value)) = next else {
                return Some(p);
            };
            p = p.substitute(atom, value)?;
        }
    }

    /// Adds the row `p <= 0`, rewritten by the solved form. A row that
    /// becomes constant is decided on the spot; a duplicate is dropped.
    fn push(&mut self, p: Poly) {
        let Some(p) = self.rewrite(p) else {
            return;
        };
        if let Some(k) = p.as_constant() {
            if k > 0 {
                self.contradiction = true;
            }
            return;
        }
        if !self.seen.insert(p.clone()) {
            return;
        }
        if self.saturated {
            self.rows_since_saturation += 1;
        }
        self.constraints.push(LeZero(p));
    }

    /// Runs the decision procedure: bound propagation plus a bounded number of
    /// Fourier–Motzkin elimination rounds over the live rows.
    ///
    /// Semi-naive: pairs entirely below the persistent `frontier` were
    /// combined by an earlier call, so each round only pairs constraints
    /// against the rows added since (asserted or derived). On a fresh
    /// context this explores exactly the pair set the naive version did
    /// (re-derivations were discarded by the dedup anyway); on a warm
    /// context a re-solve after one new fact costs O(new × old), not
    /// O(old²).
    pub fn solve(&mut self) {
        if self.contradiction || self.frontier >= self.constraints.len() {
            return;
        }
        // Bounded elimination: repeatedly combine pairs of constraints where an
        // atom occurs with opposite signs, deriving new constraints without
        // that atom. To stay cheap we only derive combinations whose resulting
        // polynomial has at most 4 atoms, and we cap the total number of
        // constraints.
        const MAX_CONSTRAINTS: usize = 4096;
        const MAX_ROUNDS: usize = 4;
        // Derived rows only combine live rows, so they are live too.
        let mut live: Vec<bool> = self
            .constraints
            .iter()
            .map(|c| self.is_live(&c.0))
            .collect();
        let mut new_start = self.frontier;
        for _ in 0..MAX_ROUNDS {
            let n = self.constraints.len();
            if new_start >= n {
                break;
            }
            let mut new_constraints: Vec<LeZero> = Vec::new();
            for i in (0..n).filter(|&i| live[i]) {
                for j in ((i + 1).max(new_start)..n).filter(|&j| live[j]) {
                    let a = &self.constraints[i].0;
                    let b = &self.constraints[j].0;
                    // Find an atom with opposite signs.
                    let mut candidate = None;
                    for (atom, ca) in &a.coeffs {
                        if let Some(cb) = b.coeffs.get(atom) {
                            if ca.signum() != cb.signum() {
                                candidate = Some((*ca, *cb));
                                break;
                            }
                        }
                    }
                    let Some((ca, cb)) = candidate else {
                        continue;
                    };
                    let Some(combined) = a.combine(ca, b, cb) else {
                        continue;
                    };
                    if let Some(k) = combined.as_constant() {
                        if k > 0 {
                            self.contradiction = true;
                            return;
                        }
                        continue;
                    }
                    if combined.coeffs.len() <= 4 {
                        new_constraints.push(LeZero(combined));
                    }
                }
            }
            new_start = n;
            if new_constraints.is_empty() {
                break;
            }
            // Deduplicate against existing constraints.
            for c in new_constraints {
                if self.constraints.len() >= MAX_CONSTRAINTS {
                    self.saturated = true;
                    self.frontier = self.constraints.len();
                    return;
                }
                if self.seen.insert(c.0.clone()) {
                    self.constraints.push(c);
                    live.push(true);
                }
            }
        }
        self.frontier = self.constraints.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::VarGen;

    fn setup() -> (Congruence, Linear, VarGen) {
        (Congruence::new(), Linear::new(), VarGen::new())
    }

    #[test]
    fn simple_bound_conflict() {
        let (mut cc, mut lin, mut g) = setup();
        let x = g.fresh_expr();
        lin.add_lt(&x, &Expr::Int(3), &mut cc); // x < 3
        lin.add_le(&Expr::Int(5), &x, &mut cc); // 5 <= x
        lin.solve();
        assert!(lin.contradictory());
    }

    #[test]
    fn consistent_bounds_do_not_conflict() {
        let (mut cc, mut lin, mut g) = setup();
        let x = g.fresh_expr();
        lin.add_lt(&x, &Expr::Int(3), &mut cc);
        lin.add_le(&Expr::Int(0), &x, &mut cc);
        lin.solve();
        assert!(!lin.contradictory());
    }

    #[test]
    fn transitive_chain_conflict() {
        let (mut cc, mut lin, mut g) = setup();
        let x = g.fresh_expr();
        let y = g.fresh_expr();
        lin.add_lt(&x, &y, &mut cc); // x < y
        lin.add_le(&y, &x, &mut cc); // y <= x
        lin.solve();
        assert!(lin.contradictory());
    }

    #[test]
    fn equality_plus_strict_conflict() {
        let (mut cc, mut lin, mut g) = setup();
        let x = g.fresh_expr();
        let y = g.fresh_expr();
        lin.add_eq(&x, &y, &mut cc);
        lin.add_lt(&x, &y, &mut cc);
        lin.solve();
        assert!(lin.contradictory());
    }

    #[test]
    fn addition_reasoning() {
        let (mut cc, mut lin, mut g) = setup();
        let x = g.fresh_expr();
        // x + 1 <= 0 and x >= 0 is contradictory.
        lin.add_le(&Expr::add(x.clone(), Expr::Int(1)), &Expr::Int(0), &mut cc);
        lin.add_le(&Expr::Int(0), &x, &mut cc);
        lin.solve();
        assert!(lin.contradictory());
    }

    #[test]
    fn atoms_share_congruence_representative() {
        let (mut cc, mut lin, mut g) = setup();
        let x = g.fresh_expr();
        let y = g.fresh_expr();
        // If x == y is known by congruence, then x < 3 and y >= 5 conflict.
        cc.assert_eq_exprs(&x, &y);
        lin.add_lt(&x, &Expr::Int(3), &mut cc);
        lin.add_le(&Expr::Int(5), &y, &mut cc);
        lin.solve();
        assert!(lin.contradictory());
    }

    #[test]
    fn nonlinear_products_are_opaque_atoms() {
        let (mut cc, mut lin, mut g) = setup();
        let x = g.fresh_expr();
        let y = g.fresh_expr();
        let prod = Expr::mul(x.clone(), y.clone());
        lin.add_le(&prod, &Expr::Int(10), &mut cc);
        lin.add_le(&Expr::Int(20), &prod, &mut cc);
        lin.solve();
        assert!(lin.contradictory());
    }

    #[test]
    fn uninterpreted_terms_as_atoms() {
        let (mut cc, mut lin, mut g) = setup();
        let s = g.fresh_expr();
        let len = Expr::seq_len(s);
        // len(s) < 5 and len(s) > 5 conflict.
        lin.add_lt(&len, &Expr::Int(5), &mut cc);
        lin.add_lt(&Expr::Int(5), &len, &mut cc);
        lin.solve();
        assert!(lin.contradictory());
    }

    #[test]
    fn constant_only_conflict_detected_on_push() {
        let (mut cc, mut lin, _g) = setup();
        lin.add_lt(&Expr::Int(5), &Expr::Int(3), &mut cc);
        assert!(lin.contradictory());
    }

    #[test]
    fn incremental_resolve_after_new_fact() {
        // Solve, add one more fact, re-solve: the semi-naive frontier must
        // still find the conflict introduced by the late fact.
        let (mut cc, mut lin, mut g) = setup();
        let x = g.fresh_expr();
        let y = g.fresh_expr();
        lin.add_lt(&x, &y, &mut cc); // x < y
        lin.solve();
        assert!(!lin.contradictory());
        lin.add_le(&y, &x, &mut cc); // y <= x
        lin.solve();
        assert!(lin.contradictory());
    }

    #[test]
    fn snapshot_undo_restores_consistency() {
        let (mut cc, mut lin, mut g) = setup();
        let x = g.fresh_expr();
        lin.add_le(&Expr::Int(0), &x, &mut cc); // 0 <= x
        lin.solve();
        let snap = lin.snapshot();
        lin.add_lt(&x, &Expr::Int(0), &mut cc); // x < 0
        lin.solve();
        assert!(lin.contradictory());
        lin.undo_to(&snap);
        assert!(!lin.contradictory());
        // The surviving bound still works with new facts.
        lin.add_lt(&x, &Expr::Int(5), &mut cc);
        lin.solve();
        assert!(!lin.contradictory());
        lin.add_le(&Expr::Int(7), &x, &mut cc);
        lin.solve();
        assert!(lin.contradictory());
    }

    #[test]
    fn undo_rolls_back_derived_rows() {
        // Derived rows from an inner scope must not outlive it: after the
        // undo, facts that only conflicted via the inner fact are consistent.
        let (mut cc, mut lin, mut g) = setup();
        let x = g.fresh_expr();
        let y = g.fresh_expr();
        lin.add_lt(&x, &y, &mut cc); // x < y
        lin.solve();
        let snap = lin.snapshot();
        lin.add_lt(&y, &Expr::Int(0), &mut cc); // y < 0 (derives x < -1 …)
        lin.solve();
        assert!(!lin.contradictory());
        lin.undo_to(&snap);
        lin.add_le(&Expr::Int(0), &x, &mut cc); // 0 <= x — fine without y < 0
        lin.solve();
        assert!(!lin.contradictory());
    }

    #[test]
    fn atoms_are_registered() {
        let (mut cc, mut lin, mut g) = setup();
        let x = g.fresh_expr();
        lin.add_lt(&x, &Expr::Int(3), &mut cc);
        let rep = cc.rep_of(&x);
        assert!(lin.is_atom(rep));
    }

    #[test]
    fn scale_and_add_polys() {
        let (mut cc, mut lin, mut g) = setup();
        let x = g.fresh_expr();
        let p = lin
            .poly_of(&Expr::mul(Expr::Int(3), x.clone()), &mut cc)
            .unwrap();
        let q = lin.poly_of(&x, &mut cc).unwrap();
        let sum = p.add(&q.scale(-3).unwrap()).unwrap();
        assert_eq!(sum.as_constant(), Some(0));
    }

    #[test]
    fn coefficient_overflow_is_none() {
        let big = Poly::constant(i128::MAX);
        assert_eq!(big.add(&Poly::constant(1)), None);
        assert_eq!(big.scale(2), None);
        assert_eq!(Poly::constant(i128::MIN).scale(-1), None);
        assert_eq!(big.sub(&Poly::constant(-1)), None);
    }

    #[test]
    fn rows_asserted_before_an_elimination_are_rewritten() {
        let (mut cc, mut lin, mut g) = setup();
        let (x, y) = (g.fresh_expr(), g.fresh_expr());
        lin.add_le(&x, &Expr::Int(5), &mut cc); // x <= 5
        lin.add_eq(&x, &Expr::add(y.clone(), Expr::Int(1)), &mut cc); // x == y + 1
        lin.solve();
        assert!(!lin.contradictory());
        lin.add_le(&Expr::Int(5), &y, &mut cc); // y >= 5
        lin.solve();
        assert!(lin.contradictory());
    }

    #[test]
    fn undo_drops_eliminations_made_after_the_snapshot() {
        let (mut cc, mut lin, mut g) = setup();
        let (x, y) = (g.fresh_expr(), g.fresh_expr());
        lin.add_le(&x, &y, &mut cc); // x <= y
        let snap = lin.snapshot();
        lin.add_eq(&x, &Expr::add(y.clone(), Expr::Int(1)), &mut cc); // x == y + 1
        lin.solve();
        assert!(lin.contradictory());
        lin.undo_to(&snap);
        assert!(!lin.contradictory());
        // The elimination is gone: `x == y` no longer conflicts with it.
        let inner = lin.snapshot();
        lin.add_eq(&x, &y, &mut cc);
        lin.solve();
        assert!(!lin.contradictory());
        lin.undo_to(&inner);
        // The row it killed is back: `y < x` conflicts with `x <= y`.
        lin.add_lt(&y, &x, &mut cc);
        lin.solve();
        assert!(lin.contradictory());
    }

    #[test]
    fn equality_without_unit_coefficient_falls_back_to_two_rows() {
        let (mut cc, mut lin, mut g) = setup();
        let (x, y) = (g.fresh_expr(), g.fresh_expr());
        let two_x = Expr::mul(Expr::Int(2), x.clone());
        let three_y = Expr::mul(Expr::Int(3), y.clone());
        lin.add_eq(&two_x, &three_y, &mut cc); // 2x == 3y
        lin.add_le(&Expr::Int(1), &x, &mut cc); // x >= 1
        lin.solve();
        assert!(!lin.contradictory());
        lin.add_le(&y, &Expr::Int(0), &mut cc); // y <= 0
        lin.solve();
        assert!(lin.contradictory());
    }

    #[test]
    fn merges_arrive_as_equalities() {
        let (mut cc, mut lin, mut g) = setup();
        let (x, y) = (g.fresh_expr(), g.fresh_expr());
        lin.add_lt(&x, &Expr::Int(3), &mut cc); // x < 3, keyed under x
        lin.add_le(&Expr::Int(5), &y, &mut cc); // y >= 5, keyed under y
        lin.solve();
        assert!(!lin.contradictory());
        let (tx, ty) = (cc.rep_of(&x), cc.rep_of(&y));
        lin.assert_merge(tx, ty);
        assert!(lin.is_atom(ty));
        lin.solve();
        assert!(lin.contradictory());
    }
}
