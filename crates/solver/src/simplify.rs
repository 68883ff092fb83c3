//! Syntactic normalisation of expressions.
//!
//! `simplify` applies local, meaning-preserving rewrites bottom-up until a
//! fixpoint (with a small iteration bound). It performs constant folding,
//! constructor-equality decomposition, sequence normalisation and basic
//! boolean/arithmetic identities. Heavier reasoning (congruence closure,
//! linear arithmetic, multisets) lives in the dedicated solver modules.

use crate::expr::{BinOp, Expr, NOp, UnOp};

/// Simplifies an expression to a normal form.
pub fn simplify(e: &Expr) -> Expr {
    let mut current = e.clone();
    for _ in 0..4 {
        let next = current.map(&rewrite);
        if next == current {
            return next;
        }
        current = next;
    }
    current
}

/// Is this expression a "value-like" term for which syntactic disequality of
/// head constructors implies semantic disequality?
fn is_constructor_like(e: &Expr) -> bool {
    matches!(
        e,
        Expr::Int(_)
            | Expr::Bool(_)
            | Expr::Loc(_)
            | Expr::Unit
            | Expr::Ctor(..)
            | Expr::SeqLit(_)
            | Expr::Tuple(_)
    )
}

fn rewrite(e: Expr) -> Expr {
    match e {
        Expr::UnOp(op, a) => rewrite_unop(op, *a),
        Expr::BinOp(op, a, b) => rewrite_binop(op, *a, *b),
        Expr::NOp(op, args) => rewrite_nop(op, args),
        Expr::Ite(c, t, els) => match c.as_bool() {
            Some(true) => *t,
            Some(false) => *els,
            None => {
                if t == els {
                    *t
                } else {
                    Expr::Ite(c, t, els)
                }
            }
        },
        other => other,
    }
}

fn rewrite_unop(op: UnOp, a: Expr) -> Expr {
    match (op, &a) {
        (UnOp::Not, Expr::Bool(b)) => Expr::Bool(!b),
        (UnOp::Not, Expr::UnOp(UnOp::Not, inner)) => (**inner).clone(),
        (UnOp::Not, Expr::BinOp(BinOp::Eq, x, y)) => Expr::BinOp(BinOp::Ne, x.clone(), y.clone()),
        (UnOp::Not, Expr::BinOp(BinOp::Ne, x, y)) => Expr::BinOp(BinOp::Eq, x.clone(), y.clone()),
        (UnOp::Not, Expr::BinOp(BinOp::Lt, x, y)) => Expr::BinOp(BinOp::Le, y.clone(), x.clone()),
        (UnOp::Not, Expr::BinOp(BinOp::Le, x, y)) => Expr::BinOp(BinOp::Lt, y.clone(), x.clone()),
        // De Morgan: push negations through conjunction/disjunction/implication
        // so that the solver's case splitting sees the disjunctive structure.
        (UnOp::Not, Expr::BinOp(BinOp::And, x, y)) => {
            Expr::or(Expr::not((**x).clone()), Expr::not((**y).clone()))
        }
        (UnOp::Not, Expr::BinOp(BinOp::Or, x, y)) => {
            Expr::and(Expr::not((**x).clone()), Expr::not((**y).clone()))
        }
        (UnOp::Not, Expr::BinOp(BinOp::Implies, x, y)) => {
            Expr::and((**x).clone(), Expr::not((**y).clone()))
        }
        (UnOp::Neg, Expr::Int(i)) if i.checked_neg().is_some() => Expr::Int(-i),
        (UnOp::Neg, Expr::UnOp(UnOp::Neg, inner)) => (**inner).clone(),
        (UnOp::SeqLen, Expr::SeqLit(items)) => Expr::Int(items.len() as i128),
        (UnOp::SeqLen, Expr::BinOp(BinOp::SeqConcat, x, y)) => {
            Expr::add(Expr::seq_len((**x).clone()), Expr::seq_len((**y).clone()))
        }
        (UnOp::SeqLen, Expr::BinOp(BinOp::SeqRepeat, _, n)) => (**n).clone(),
        (UnOp::SeqLen, Expr::NOp(NOp::SeqUpdate, args)) => Expr::seq_len(args[0].clone()),
        (UnOp::SeqLen, Expr::NOp(NOp::SeqSub, args)) => {
            // len(s[a..b]) == b - a, under the well-formedness convention that
            // 0 <= a <= b <= len(s) (enforced by all producers of SeqSub).
            Expr::sub(args[2].clone(), args[1].clone())
        }
        (UnOp::BagOf, Expr::BinOp(BinOp::SeqConcat, x, y)) => Expr::bin(
            BinOp::BagUnion,
            Expr::bag_of((**x).clone()),
            Expr::bag_of((**y).clone()),
        ),
        _ => Expr::UnOp(op, Box::new(a)),
    }
}

fn rewrite_binop(op: BinOp, a: Expr, b: Expr) -> Expr {
    use BinOp::*;
    // Literal folding is checked: a result outside `i128` stays unfolded,
    // because a wrapped constant would be a wrong one.
    match op {
        Add => match (&a, &b) {
            (Expr::Int(x), Expr::Int(y)) if x.checked_add(*y).is_some() => Expr::Int(x + y),
            (Expr::Int(0), _) => b,
            (_, Expr::Int(0)) => a,
            // (x + a) + b  ==>  x + (a + b) for literal a, b.
            (Expr::BinOp(Add, x, k1), Expr::Int(k2)) => {
                match k1.as_int().and_then(|k1| k1.checked_add(*k2)) {
                    Some(k) => Expr::add((**x).clone(), Expr::Int(k)),
                    None => Expr::bin(Add, a, b),
                }
            }
            _ => Expr::bin(Add, a, b),
        },
        Sub => match (&a, &b) {
            (Expr::Int(x), Expr::Int(y)) if x.checked_sub(*y).is_some() => Expr::Int(x - y),
            (_, Expr::Int(0)) => a,
            _ if a == b => Expr::Int(0),
            _ => Expr::bin(Sub, a, b),
        },
        Mul => match (&a, &b) {
            (Expr::Int(x), Expr::Int(y)) if x.checked_mul(*y).is_some() => Expr::Int(x * y),
            (Expr::Int(0), _) | (_, Expr::Int(0)) => Expr::Int(0),
            (Expr::Int(1), _) => b,
            (_, Expr::Int(1)) => a,
            _ => Expr::bin(Mul, a, b),
        },
        Div => match (&a, &b) {
            (Expr::Int(x), Expr::Int(y)) if x.checked_div(*y).is_some() => Expr::Int(x / y),
            (_, Expr::Int(1)) => a,
            _ => Expr::bin(Div, a, b),
        },
        Rem => match (&a, &b) {
            (Expr::Int(x), Expr::Int(y)) if x.checked_rem(*y).is_some() => Expr::Int(x % y),
            // Parity reasoning: (x + k) % 2 == x % 2 when k is even.
            (Expr::BinOp(Add, x, k), Expr::Int(2))
                if k.as_int().map(|v| v % 2 == 0) == Some(true) =>
            {
                Expr::bin(Rem, (**x).clone(), Expr::Int(2))
            }
            _ => Expr::bin(Rem, a, b),
        },
        Lt | Le | Gt | Ge => rewrite_cmp(op, a, b),
        Eq => rewrite_eq(a, b),
        Ne => match rewrite_eq(a, b) {
            Expr::Bool(v) => Expr::Bool(!v),
            Expr::BinOp(Eq, x, y) => Expr::BinOp(Ne, x, y),
            other => Expr::not(other),
        },
        And => match (&a, &b) {
            (Expr::Bool(true), _) => b,
            (_, Expr::Bool(true)) => a,
            (Expr::Bool(false), _) | (_, Expr::Bool(false)) => Expr::Bool(false),
            _ => Expr::bin(And, a, b),
        },
        Or => match (&a, &b) {
            (Expr::Bool(false), _) => b,
            (_, Expr::Bool(false)) => a,
            (Expr::Bool(true), _) | (_, Expr::Bool(true)) => Expr::Bool(true),
            _ => Expr::bin(Or, a, b),
        },
        Implies => match (&a, &b) {
            (Expr::Bool(true), _) => b,
            (Expr::Bool(false), _) => Expr::Bool(true),
            (_, Expr::Bool(true)) => Expr::Bool(true),
            (_, Expr::Bool(false)) => Expr::not(a),
            _ => Expr::bin(Implies, a, b),
        },
        SeqAt => match (&a, &b) {
            (Expr::SeqLit(items), Expr::Int(i)) if *i >= 0 && (*i as usize) < items.len() => {
                items[*i as usize].clone()
            }
            (Expr::BinOp(SeqConcat, x, y), Expr::Int(i)) => {
                if let Expr::SeqLit(items) = x.as_ref() {
                    let n = items.len() as i128;
                    if *i >= 0 && *i < n {
                        items[*i as usize].clone()
                    } else if *i >= n {
                        Expr::seq_at((**y).clone(), Expr::Int(i - n))
                    } else {
                        Expr::bin(SeqAt, a, b)
                    }
                } else {
                    Expr::bin(SeqAt, a, b)
                }
            }
            _ => Expr::bin(SeqAt, a, b),
        },
        SeqConcat => match (&a, &b) {
            (Expr::SeqLit(x), _) if x.is_empty() => b,
            (_, Expr::SeqLit(y)) if y.is_empty() => a,
            (Expr::SeqLit(x), Expr::SeqLit(y)) => {
                let mut items = x.clone();
                items.extend(y.clone());
                Expr::SeqLit(items)
            }
            // Re-associate to the right so that concatenations have a
            // canonical spine: (a ++ b) ++ c  ==>  a ++ (b ++ c).
            (Expr::BinOp(SeqConcat, x, y), _) => {
                Expr::seq_concat((**x).clone(), Expr::seq_concat((**y).clone(), b))
            }
            _ => Expr::bin(SeqConcat, a, b),
        },
        SeqRepeat => match (&a, &b) {
            (_, Expr::Int(n)) if *n >= 0 && *n <= 64 => {
                Expr::SeqLit(std::iter::repeat_n(a.clone(), *n as usize).collect())
            }
            _ => Expr::bin(SeqRepeat, a, b),
        },
        BagUnion => Expr::bin(BagUnion, a, b),
    }
}

fn rewrite_cmp(op: BinOp, a: Expr, b: Expr) -> Expr {
    if let (Some(x), Some(y)) = (a.as_int(), b.as_int()) {
        let v = match op {
            BinOp::Lt => x < y,
            BinOp::Le => x <= y,
            BinOp::Gt => x > y,
            BinOp::Ge => x >= y,
            _ => unreachable!(),
        };
        return Expr::Bool(v);
    }
    // Canonicalise Gt/Ge into Lt/Le.
    match op {
        BinOp::Gt => Expr::bin(BinOp::Lt, b, a),
        BinOp::Ge => Expr::bin(BinOp::Le, b, a),
        _ => Expr::bin(op, a, b),
    }
}

fn rewrite_eq(a: Expr, b: Expr) -> Expr {
    if a == b {
        return Expr::Bool(true);
    }
    // Parity: (x ± odd) % 2 == 0  ⟺  x % 2 != 0 (holds for Rust's `%` on
    // negative operands as well).
    for (lhs, rhs) in [(&a, &b), (&b, &a)] {
        if rhs.as_int() == Some(0) {
            if let Expr::BinOp(BinOp::Rem, inner, two) = lhs {
                if two.as_int() == Some(2) {
                    if let Expr::BinOp(BinOp::Add | BinOp::Sub, x, k) = inner.as_ref() {
                        if k.as_int().map(|v| v.rem_euclid(2) == 1) == Some(true) {
                            return Expr::ne(
                                Expr::bin(BinOp::Rem, (**x).clone(), Expr::Int(2)),
                                Expr::Int(0),
                            );
                        }
                    }
                }
            }
        }
    }
    match (&a, &b) {
        (Expr::Int(x), Expr::Int(y)) => Expr::Bool(x == y),
        (Expr::Bool(x), Expr::Bool(y)) => Expr::Bool(x == y),
        (Expr::Loc(x), Expr::Loc(y)) => Expr::Bool(x == y),
        (Expr::Ctor(t1, args1), Expr::Ctor(t2, args2)) => {
            if t1 != t2 || args1.len() != args2.len() {
                Expr::Bool(false)
            } else {
                Expr::conj(
                    args1
                        .iter()
                        .zip(args2.iter())
                        .map(|(x, y)| Expr::eq(x.clone(), y.clone())),
                )
            }
        }
        (Expr::Tuple(args1), Expr::Tuple(args2)) | (Expr::SeqLit(args1), Expr::SeqLit(args2))
            if args1.len() == args2.len() =>
        {
            Expr::conj(
                args1
                    .iter()
                    .zip(args2.iter())
                    .map(|(x, y)| Expr::eq(x.clone(), y.clone())),
            )
        }
        (Expr::SeqLit(args1), Expr::SeqLit(args2)) if args1.len() != args2.len() => {
            Expr::Bool(false)
        }
        // A literal can never equal a term with a different constructor head.
        _ if is_constructor_like(&a)
            && is_constructor_like(&b)
            && std::mem::discriminant(&a) != std::mem::discriminant(&b)
            && !matches!(
                (&a, &b),
                (Expr::SeqLit(_), _)
                    | (_, Expr::SeqLit(_))
                    | (Expr::Tuple(_), _)
                    | (_, Expr::Tuple(_))
            ) =>
        {
            Expr::Bool(false)
        }
        // A boolean literal equated with a boolean expression simplifies away.
        (Expr::Bool(true), _) => b,
        (_, Expr::Bool(true)) => a,
        (Expr::Bool(false), _) => Expr::not(b),
        (_, Expr::Bool(false)) => Expr::not(a),
        _ => Expr::bin(BinOp::Eq, a, b),
    }
}

fn rewrite_nop(op: NOp, args: Vec<Expr>) -> Expr {
    match op {
        NOp::SeqSub => {
            let (s, from, to) = (&args[0], &args[1], &args[2]);
            match (s, from.as_int(), to.as_int()) {
                (Expr::SeqLit(items), Some(f), Some(t))
                    if f >= 0 && t >= f && (t as usize) <= items.len() =>
                {
                    Expr::SeqLit(items[f as usize..t as usize].to_vec())
                }
                _ => {
                    if from == to {
                        return Expr::empty_seq();
                    }
                    // s[i..i+1] is the singleton [s[i]].
                    if *to == Expr::add(from.clone(), Expr::Int(1))
                        || (from.as_int().is_some()
                            && to.as_int() == Some(from.as_int().unwrap() + 1))
                    {
                        return Expr::SeqLit(vec![Expr::seq_at(s.clone(), from.clone())]);
                    }
                    if from.as_int() == Some(0) {
                        if let Expr::UnOp(UnOp::SeqLen, inner) = to {
                            if inner.as_ref() == s {
                                return s.clone();
                            }
                        }
                    }
                    Expr::NOp(NOp::SeqSub, args)
                }
            }
        }
        NOp::SeqUpdate => {
            let (s, i, v) = (&args[0], &args[1], &args[2]);
            match (s, i.as_int()) {
                (Expr::SeqLit(items), Some(idx)) if idx >= 0 && (idx as usize) < items.len() => {
                    let mut items = items.clone();
                    items[idx as usize] = v.clone();
                    Expr::SeqLit(items)
                }
                _ => Expr::NOp(NOp::SeqUpdate, args),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::VarGen;

    fn s(e: &Expr) -> Expr {
        simplify(e)
    }

    #[test]
    fn constant_folding_arithmetic() {
        let e = Expr::add(Expr::Int(2), Expr::mul(Expr::Int(3), Expr::Int(4)));
        assert_eq!(s(&e), Expr::Int(14));
    }

    #[test]
    fn add_zero_identity() {
        let mut g = VarGen::new();
        let x = g.fresh_expr();
        assert_eq!(s(&Expr::add(x.clone(), Expr::Int(0))), x);
    }

    #[test]
    fn sub_self_is_zero() {
        let mut g = VarGen::new();
        let x = g.fresh_expr();
        assert_eq!(s(&Expr::sub(x.clone(), x)), Expr::Int(0));
    }

    #[test]
    fn ctor_equality_decomposes() {
        let mut g = VarGen::new();
        let x = g.fresh_expr();
        let e = Expr::eq(Expr::some(x.clone()), Expr::some(Expr::Int(3)));
        assert_eq!(s(&e), Expr::eq(x, Expr::Int(3)));
    }

    #[test]
    fn distinct_ctors_are_unequal() {
        let e = Expr::eq(Expr::none(), Expr::some(Expr::Int(3)));
        assert_eq!(s(&e), Expr::Bool(false));
    }

    #[test]
    fn none_equals_none() {
        assert_eq!(s(&Expr::eq(Expr::none(), Expr::none())), Expr::Bool(true));
    }

    #[test]
    fn seq_len_of_literal() {
        let e = Expr::seq_len(Expr::seq(vec![Expr::Int(1), Expr::Int(2)]));
        assert_eq!(s(&e), Expr::Int(2));
    }

    #[test]
    fn seq_len_distributes_over_concat() {
        let mut g = VarGen::new();
        let xs = g.fresh_expr();
        let e = Expr::seq_len(Expr::seq_concat(Expr::seq(vec![Expr::Int(1)]), xs.clone()));
        assert_eq!(s(&e), Expr::add(Expr::Int(1), Expr::seq_len(xs)));
    }

    #[test]
    fn concat_literals_merges() {
        let e = Expr::seq_concat(
            Expr::seq(vec![Expr::Int(1)]),
            Expr::seq(vec![Expr::Int(2), Expr::Int(3)]),
        );
        assert_eq!(
            s(&e),
            Expr::seq(vec![Expr::Int(1), Expr::Int(2), Expr::Int(3)])
        );
    }

    #[test]
    fn concat_reassociates_right() {
        let mut g = VarGen::new();
        let a = g.fresh_expr();
        let b = g.fresh_expr();
        let c = g.fresh_expr();
        let e = Expr::seq_concat(Expr::seq_concat(a.clone(), b.clone()), c.clone());
        assert_eq!(s(&e), Expr::seq_concat(a, Expr::seq_concat(b, c)));
    }

    #[test]
    fn seq_at_literal_index() {
        let e = Expr::seq_at(Expr::seq(vec![Expr::Int(10), Expr::Int(20)]), Expr::Int(1));
        assert_eq!(s(&e), Expr::Int(20));
    }

    #[test]
    fn seq_at_skips_literal_prefix() {
        let mut g = VarGen::new();
        let rest = g.fresh_expr();
        let e = Expr::seq_at(
            Expr::seq_concat(Expr::seq(vec![Expr::Int(10)]), rest.clone()),
            Expr::Int(2),
        );
        assert_eq!(s(&e), Expr::seq_at(rest, Expr::Int(1)));
    }

    #[test]
    fn not_not_cancels() {
        let mut g = VarGen::new();
        let x = g.fresh_expr();
        let e = Expr::not(Expr::not(Expr::eq(x.clone(), Expr::Int(1))));
        assert_eq!(s(&e), Expr::eq(x, Expr::Int(1)));
    }

    #[test]
    fn not_lt_becomes_le() {
        let mut g = VarGen::new();
        let x = g.fresh_expr();
        let e = Expr::not(Expr::lt(x.clone(), Expr::Int(3)));
        assert_eq!(s(&e), Expr::le(Expr::Int(3), x));
    }

    #[test]
    fn ite_constant_condition() {
        let e = Expr::ite(Expr::Bool(true), Expr::Int(1), Expr::Int(2));
        assert_eq!(s(&e), Expr::Int(1));
    }

    #[test]
    fn implies_with_false_hypothesis() {
        let mut g = VarGen::new();
        let x = g.fresh_expr();
        let e = Expr::implies(Expr::Bool(false), Expr::eq(x, Expr::Int(1)));
        assert_eq!(s(&e), Expr::Bool(true));
    }

    #[test]
    fn gt_canonicalises_to_lt() {
        let mut g = VarGen::new();
        let x = g.fresh_expr();
        let e = Expr::gt(x.clone(), Expr::Int(3));
        assert_eq!(s(&e), Expr::lt(Expr::Int(3), x));
    }

    #[test]
    fn seq_sub_of_literal() {
        let e = Expr::seq_sub(
            Expr::seq(vec![Expr::Int(1), Expr::Int(2), Expr::Int(3)]),
            Expr::Int(1),
            Expr::Int(3),
        );
        assert_eq!(s(&e), Expr::seq(vec![Expr::Int(2), Expr::Int(3)]));
    }

    #[test]
    fn seq_sub_whole_range_is_identity() {
        let mut g = VarGen::new();
        let xs = g.fresh_expr();
        let e = Expr::seq_sub(xs.clone(), Expr::Int(0), Expr::seq_len(xs.clone()));
        assert_eq!(s(&e), xs);
    }

    #[test]
    fn seq_update_literal() {
        let e = Expr::seq_update(
            Expr::seq(vec![Expr::Int(1), Expr::Int(2)]),
            Expr::Int(0),
            Expr::Int(9),
        );
        assert_eq!(s(&e), Expr::seq(vec![Expr::Int(9), Expr::Int(2)]));
    }

    #[test]
    fn bag_of_concat_splits() {
        let mut g = VarGen::new();
        let a = g.fresh_expr();
        let b = g.fresh_expr();
        let e = Expr::bag_of(Expr::seq_concat(a.clone(), b.clone()));
        assert_eq!(
            s(&e),
            Expr::bin(BinOp::BagUnion, Expr::bag_of(a), Expr::bag_of(b))
        );
    }

    #[test]
    fn eq_bool_literal_simplifies() {
        let mut g = VarGen::new();
        let x = g.fresh_expr();
        let cond = Expr::lt(x.clone(), Expr::Int(3));
        assert_eq!(s(&Expr::eq(cond.clone(), Expr::Bool(true))), cond);
    }

    #[test]
    fn repeat_small_literal_unrolls() {
        let e = Expr::seq_repeat(Expr::Int(7), Expr::Int(3));
        assert_eq!(
            s(&e),
            Expr::seq(vec![Expr::Int(7), Expr::Int(7), Expr::Int(7)])
        );
    }
}
