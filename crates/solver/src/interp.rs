//! A concrete evaluator for expressions.
//!
//! This is *not* used during verification: it serves as a model-based oracle
//! for the property tests (if all facts of a query evaluate to `true` under a
//! concrete assignment, the solver must not have answered "unsatisfiable") and
//! as the reference semantics for the simplifier.

use crate::expr::{BinOp, Expr, NOp, SVar, UnOp};
use crate::symbol::Symbol;
use std::collections::{BTreeMap, HashMap};

/// A concrete value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    Int(i128),
    Bool(bool),
    Loc(u64),
    Unit,
    Ctor(Symbol, Vec<Value>),
    Tuple(Vec<Value>),
    Seq(Vec<Value>),
    /// A multiset of values (represented as sorted value/count pairs).
    Bag(BTreeMap<String, u64>),
}

impl Value {
    fn as_int(&self) -> Option<i128> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(items) => Some(items),
            _ => None,
        }
    }

    fn key(&self) -> String {
        format!("{self:?}")
    }
}

/// A concrete assignment of symbolic variables.
#[derive(Clone, Debug, Default)]
pub struct Env {
    vars: HashMap<SVar, Value>,
}

impl Env {
    pub fn new() -> Self {
        Env::default()
    }

    pub fn bind(&mut self, v: SVar, value: Value) {
        self.vars.insert(v, value);
    }

    pub fn get(&self, v: SVar) -> Option<&Value> {
        self.vars.get(&v)
    }
}

/// Evaluates an expression under an environment. Returns `None` when the
/// expression is ill-sorted, mentions an unbound variable, or overflows the
/// integer range: an overflow has no value, so it is never a model.
pub fn eval(e: &Expr, env: &Env) -> Option<Value> {
    match e {
        Expr::Var(v) => env.get(*v).cloned(),
        Expr::LVar(_) | Expr::PVar(_) => None,
        Expr::Int(i) => Some(Value::Int(*i)),
        Expr::Bool(b) => Some(Value::Bool(*b)),
        Expr::Loc(l) => Some(Value::Loc(*l)),
        Expr::Unit => Some(Value::Unit),
        Expr::Ctor(tag, args) => {
            let vals = args
                .iter()
                .map(|a| eval(a, env))
                .collect::<Option<Vec<_>>>()?;
            Some(Value::Ctor(*tag, vals))
        }
        Expr::Tuple(args) => {
            let vals = args
                .iter()
                .map(|a| eval(a, env))
                .collect::<Option<Vec<_>>>()?;
            Some(Value::Tuple(vals))
        }
        Expr::SeqLit(args) => {
            let vals = args
                .iter()
                .map(|a| eval(a, env))
                .collect::<Option<Vec<_>>>()?;
            Some(Value::Seq(vals))
        }
        Expr::UnOp(op, a) => {
            let va = eval(a, env)?;
            match op {
                UnOp::Not => Some(Value::Bool(!va.as_bool()?)),
                UnOp::Neg => Some(Value::Int(va.as_int()?.checked_neg()?)),
                UnOp::SeqLen => Some(Value::Int(va.as_seq()?.len() as i128)),
                UnOp::BagOf => {
                    let mut bag = BTreeMap::new();
                    for item in va.as_seq()? {
                        *bag.entry(item.key()).or_insert(0) += 1;
                    }
                    Some(Value::Bag(bag))
                }
            }
        }
        Expr::BinOp(op, a, b) => {
            let va = eval(a, env)?;
            let vb = eval(b, env)?;
            eval_binop(*op, va, vb)
        }
        Expr::NOp(op, args) => {
            let vals = args
                .iter()
                .map(|a| eval(a, env))
                .collect::<Option<Vec<_>>>()?;
            match op {
                NOp::SeqSub => {
                    let s = vals[0].as_seq()?;
                    let from = vals[1].as_int()?;
                    let to = vals[2].as_int()?;
                    if from < 0 || to < from || to as usize > s.len() {
                        return None;
                    }
                    Some(Value::Seq(s[from as usize..to as usize].to_vec()))
                }
                NOp::SeqUpdate => {
                    let s = vals[0].as_seq()?;
                    let i = vals[1].as_int()?;
                    if i < 0 || i as usize >= s.len() {
                        return None;
                    }
                    let mut out = s.to_vec();
                    out[i as usize] = vals[2].clone();
                    Some(Value::Seq(out))
                }
            }
        }
        Expr::Ite(c, t, els) => {
            let vc = eval(c, env)?.as_bool()?;
            if vc {
                eval(t, env)
            } else {
                eval(els, env)
            }
        }
        Expr::App(_, _) => None,
    }
}

fn eval_binop(op: BinOp, va: Value, vb: Value) -> Option<Value> {
    use BinOp::*;
    match op {
        Add => Some(Value::Int(va.as_int()?.checked_add(vb.as_int()?)?)),
        Sub => Some(Value::Int(va.as_int()?.checked_sub(vb.as_int()?)?)),
        Mul => Some(Value::Int(va.as_int()?.checked_mul(vb.as_int()?)?)),
        // `None` on a zero divisor too.
        Div => Some(Value::Int(va.as_int()?.checked_div(vb.as_int()?)?)),
        Rem => Some(Value::Int(va.as_int()?.checked_rem(vb.as_int()?)?)),
        Lt => Some(Value::Bool(va.as_int()? < vb.as_int()?)),
        Le => Some(Value::Bool(va.as_int()? <= vb.as_int()?)),
        Gt => Some(Value::Bool(va.as_int()? > vb.as_int()?)),
        Ge => Some(Value::Bool(va.as_int()? >= vb.as_int()?)),
        Eq => Some(Value::Bool(va == vb)),
        Ne => Some(Value::Bool(va != vb)),
        And => Some(Value::Bool(va.as_bool()? && vb.as_bool()?)),
        Or => Some(Value::Bool(va.as_bool()? || vb.as_bool()?)),
        Implies => Some(Value::Bool(!va.as_bool()? || vb.as_bool()?)),
        SeqAt => {
            let s = va.as_seq()?;
            let i = vb.as_int()?;
            if i < 0 || i as usize >= s.len() {
                None
            } else {
                Some(s[i as usize].clone())
            }
        }
        SeqConcat => {
            let mut out = va.as_seq()?.to_vec();
            out.extend(vb.as_seq()?.iter().cloned());
            Some(Value::Seq(out))
        }
        SeqRepeat => {
            let n = vb.as_int()?;
            if n < 0 {
                return None;
            }
            Some(Value::Seq(std::iter::repeat_n(va, n as usize).collect()))
        }
        BagUnion => match (va, vb) {
            (Value::Bag(mut a), Value::Bag(b)) => {
                for (k, v) in b {
                    *a.entry(k).or_insert(0) += v;
                }
                Some(Value::Bag(a))
            }
            _ => None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::VarGen;

    #[test]
    fn eval_arithmetic() {
        let env = Env::new();
        let e = Expr::add(Expr::Int(2), Expr::mul(Expr::Int(3), Expr::Int(4)));
        assert_eq!(eval(&e, &env), Some(Value::Int(14)));
    }

    #[test]
    fn eval_variable_lookup() {
        let mut g = VarGen::new();
        let v = g.fresh();
        let mut env = Env::new();
        env.bind(v, Value::Int(10));
        assert_eq!(eval(&Expr::Var(v), &env), Some(Value::Int(10)));
    }

    #[test]
    fn eval_unbound_variable_is_none() {
        let mut g = VarGen::new();
        let v = g.fresh();
        assert_eq!(eval(&Expr::Var(v), &Env::new()), None);
    }

    #[test]
    fn eval_sequence_ops() {
        let env = Env::new();
        let s = Expr::seq(vec![Expr::Int(1), Expr::Int(2), Expr::Int(3)]);
        assert_eq!(eval(&Expr::seq_len(s.clone()), &env), Some(Value::Int(3)));
        assert_eq!(
            eval(&Expr::seq_at(s.clone(), Expr::Int(1)), &env),
            Some(Value::Int(2))
        );
        assert_eq!(
            eval(&Expr::seq_sub(s, Expr::Int(1), Expr::Int(3)), &env),
            Some(Value::Seq(vec![Value::Int(2), Value::Int(3)]))
        );
    }

    #[test]
    fn eval_bag_ignores_order() {
        let env = Env::new();
        let a = Expr::bag_of(Expr::seq(vec![Expr::Int(1), Expr::Int(2)]));
        let b = Expr::bag_of(Expr::seq(vec![Expr::Int(2), Expr::Int(1)]));
        assert_eq!(eval(&a, &env), eval(&b, &env));
    }

    #[test]
    fn eval_out_of_bounds_is_none() {
        let env = Env::new();
        let s = Expr::seq(vec![Expr::Int(1)]);
        assert_eq!(eval(&Expr::seq_at(s, Expr::Int(5)), &env), None);
    }

    #[test]
    fn eval_overflow_is_none() {
        let env = Env::new();
        let (max, min) = (Expr::Int(i128::MAX), Expr::Int(i128::MIN));
        let overflows = [
            Expr::add(max.clone(), Expr::Int(1)),
            Expr::sub(min.clone(), Expr::Int(1)),
            Expr::mul(max.clone(), Expr::Int(2)),
            Expr::neg(min.clone()),
            Expr::bin(BinOp::Div, min.clone(), Expr::Int(-1)),
            // Inside a comparison the whole fact has no value.
            Expr::lt(Expr::Int(0), Expr::add(max.clone(), Expr::Int(1))),
        ];
        for e in &overflows {
            assert_eq!(eval(e, &env), None, "{e}");
        }
        // Right at the bounds there is a value.
        assert_eq!(
            eval(&Expr::add(max, Expr::Int(-1)), &env),
            Some(Value::Int(i128::MAX - 1))
        );
        assert_eq!(
            eval(&Expr::mul(Expr::Int(u64::MAX as i128), Expr::Int(4)), &env),
            Some(Value::Int(u64::MAX as i128 * 4))
        );
        assert_eq!(
            eval(&Expr::bin(BinOp::Div, Expr::Int(7), Expr::Int(0)), &env),
            None
        );
    }

    #[test]
    fn eval_ill_sorted_is_none() {
        let env = Env::new();
        let e = Expr::add(Expr::Bool(true), Expr::Int(1));
        assert_eq!(eval(&e, &env), None);
    }
}
