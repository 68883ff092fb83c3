//! Multiset ("bag") reasoning.
//!
//! Bags are used to decide `permutation_of` obligations coming from Pearlite
//! specifications: `s.permutation_of(t)` is encoded as `bag(s) == bag(t)`.
//! A bag expression is normalised into a multiset of *element* terms plus a
//! multiset of opaque *bag atoms* (bags of sequences whose structure is
//! unknown); two bag expressions are definitely equal when their normal forms
//! coincide (with all terms keyed by congruence-closure representatives).

use crate::congruence::{Congruence, TermId};
use crate::expr::{BinOp, Expr, UnOp};
use std::collections::BTreeMap;

/// Normal form of a bag expression.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct BagNorm {
    /// Multiplicity of each known element term.
    pub elems: BTreeMap<TermId, u64>,
    /// Multiplicity of each opaque bag atom (`bag(s)` for non-literal `s`).
    pub atoms: BTreeMap<TermId, u64>,
}

impl BagNorm {
    fn add_elem(&mut self, t: TermId) {
        *self.elems.entry(t).or_insert(0) += 1;
    }

    fn add_atom(&mut self, t: TermId) {
        *self.atoms.entry(t).or_insert(0) += 1;
    }
}

/// Is the expression bag-sorted (a `bag(..)` or a bag union)?
pub fn is_bag_expr(e: &Expr) -> bool {
    matches!(
        e,
        Expr::UnOp(UnOp::BagOf, _) | Expr::BinOp(BinOp::BagUnion, _, _)
    )
}

/// Normalises a bag expression.
pub fn normalize(e: &Expr, cc: &mut Congruence) -> BagNorm {
    let mut out = BagNorm::default();
    go(e, cc, &mut out);
    out
}

fn go(e: &Expr, cc: &mut Congruence, out: &mut BagNorm) {
    match e {
        Expr::BinOp(BinOp::BagUnion, a, b) => {
            go(a, cc, out);
            go(b, cc, out);
        }
        Expr::UnOp(UnOp::BagOf, inner) => go_seq(inner, cc, out),
        // Anything else bag-sorted is opaque.
        _ => out.add_atom(cc.rep_of(e)),
    }
}

fn go_seq(s: &Expr, cc: &mut Congruence, out: &mut BagNorm) {
    match s {
        Expr::SeqLit(items) => {
            for item in items {
                let rep = cc.rep_of(item);
                out.add_elem(rep);
            }
        }
        Expr::BinOp(BinOp::SeqConcat, a, b) => {
            go_seq(a, cc, out);
            go_seq(b, cc, out);
        }
        _ => {
            let bag = Expr::bag_of(s.clone());
            let rep = cc.rep_of(&bag);
            out.add_atom(rep);
        }
    }
}

/// Are the two bag expressions definitely equal under the congruence closure?
pub fn definitely_equal(a: &Expr, b: &Expr, cc: &mut Congruence) -> bool {
    let mut na = normalize(a, cc);
    let mut nb = normalize(b, cc);
    // Cancel common atoms and elements so that leftover structure must match
    // exactly.
    cancel(&mut na.elems, &mut nb.elems);
    cancel(&mut na.atoms, &mut nb.atoms);
    na.elems.is_empty() && nb.elems.is_empty() && na.atoms.is_empty() && nb.atoms.is_empty()
}

fn cancel(a: &mut BTreeMap<TermId, u64>, b: &mut BTreeMap<TermId, u64>) {
    let keys: Vec<TermId> = a.keys().copied().collect();
    for k in keys {
        if let Some(vb) = b.get_mut(&k) {
            let va = a.get_mut(&k).unwrap();
            let common = (*va).min(*vb);
            *va -= common;
            *vb -= common;
        }
    }
    a.retain(|_, v| *v > 0);
    b.retain(|_, v| *v > 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::VarGen;
    use crate::simplify::simplify;

    #[test]
    fn bag_of_literal_sequences_with_same_elements() {
        let mut cc = Congruence::new();
        let a = Expr::bag_of(Expr::seq(vec![Expr::Int(1), Expr::Int(2)]));
        let b = Expr::bag_of(Expr::seq(vec![Expr::Int(2), Expr::Int(1)]));
        assert!(definitely_equal(&a, &b, &mut cc));
    }

    #[test]
    fn different_multiplicities_are_not_equal() {
        let mut cc = Congruence::new();
        let a = Expr::bag_of(Expr::seq(vec![Expr::Int(1), Expr::Int(1)]));
        let b = Expr::bag_of(Expr::seq(vec![Expr::Int(1)]));
        assert!(!definitely_equal(&a, &b, &mut cc));
    }

    #[test]
    fn concat_commutes_under_bag() {
        let mut g = VarGen::new();
        let mut cc = Congruence::new();
        let xs = g.fresh_expr();
        let ys = g.fresh_expr();
        let a = Expr::bag_of(Expr::seq_concat(xs.clone(), ys.clone()));
        let b = Expr::bag_of(Expr::seq_concat(ys, xs));
        assert!(definitely_equal(&a, &b, &mut cc));
    }

    #[test]
    fn singleton_prepend_matches_snoc() {
        let mut g = VarGen::new();
        let mut cc = Congruence::new();
        let x = g.fresh_expr();
        let xs = g.fresh_expr();
        let a = Expr::bag_of(Expr::seq_prepend(x.clone(), xs.clone()));
        let b = Expr::bag_of(Expr::seq_snoc(xs, x));
        assert!(definitely_equal(&a, &b, &mut cc));
    }

    #[test]
    fn congruence_equalities_are_used() {
        let mut g = VarGen::new();
        let mut cc = Congruence::new();
        let x = g.fresh_expr();
        let y = g.fresh_expr();
        cc.assert_eq_exprs(&x, &y);
        let a = Expr::bag_of(Expr::seq(vec![x]));
        let b = Expr::bag_of(Expr::seq(vec![y]));
        assert!(definitely_equal(&a, &b, &mut cc));
    }

    #[test]
    fn unrelated_bags_are_not_equal() {
        let mut g = VarGen::new();
        let mut cc = Congruence::new();
        let xs = g.fresh_expr();
        let ys = g.fresh_expr();
        let a = Expr::bag_of(xs);
        let b = Expr::bag_of(ys);
        assert!(!definitely_equal(&a, &b, &mut cc));
    }

    #[test]
    fn simplified_bag_of_concat_still_normalises() {
        let mut g = VarGen::new();
        let mut cc = Congruence::new();
        let xs = g.fresh_expr();
        let a = simplify(&Expr::bag_of(Expr::seq_concat(
            Expr::seq(vec![Expr::Int(3)]),
            xs.clone(),
        )));
        let b = Expr::bag_of(Expr::seq_concat(xs, Expr::seq(vec![Expr::Int(3)])));
        assert!(definitely_equal(&a, &b, &mut cc));
    }
}
