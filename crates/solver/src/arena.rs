//! Hash-consed term arena.
//!
//! Every pure fact the engine learns is interned exactly once into a
//! [`TermArena`], yielding a copyable [`TermId`]. From then on the hot solver
//! path moves ids around instead of re-walking expression trees: structural
//! equality and hashing are O(1) id comparisons, and per-term derived data
//! (the simplified form, the free symbolic variables) is memoised on the
//! arena entry so it is computed at most once per distinct term.
//!
//! The arena is internally synchronised (a read-mostly lock), so one arena is
//! shared by every [`crate::SolverCtx`] handle of a verification session —
//! including the parallel batch driver, where worker threads intern into the
//! same arena. `TermId`s are only meaningful relative to the arena that
//! produced them.

use crate::expr::{Expr, SVar};
use crate::simplify::simplify;
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, RwLock};

/// An interned term: a copyable handle into a [`TermArena`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub(crate) u32);

impl std::fmt::Debug for TermId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// One arena entry: the expression plus lazily-memoised derived data.
struct TermEntry {
    expr: Arc<Expr>,
    /// Memoised id of the simplified form (`simplified == id` for fixpoints).
    simplified: Option<TermId>,
    /// Memoised free symbolic variables.
    svars: Option<Arc<BTreeSet<SVar>>>,
}

#[derive(Default)]
struct ArenaInner {
    terms: Vec<TermEntry>,
    index: HashMap<Arc<Expr>, TermId>,
}

/// The hash-consing interner. See the module docs.
#[derive(Default)]
pub struct TermArena {
    inner: RwLock<ArenaInner>,
}

impl std::fmt::Debug for TermArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TermArena({} terms)", self.len())
    }
}

impl TermArena {
    pub fn new() -> TermArena {
        TermArena::default()
    }

    /// Number of distinct terms interned so far.
    pub fn len(&self) -> usize {
        self.inner.read().unwrap().terms.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Interns an expression, returning its unique id. Interning the same
    /// (structurally equal) expression twice returns the same id.
    pub fn intern(&self, e: &Expr) -> TermId {
        if let Some(&id) = self.inner.read().unwrap().index.get(e) {
            return id;
        }
        self.intern_arc(Arc::new(e.clone()))
    }

    /// Interns an already-owned expression (avoids one clone on a miss).
    pub fn intern_owned(&self, e: Expr) -> TermId {
        if let Some(&id) = self.inner.read().unwrap().index.get(&e) {
            return id;
        }
        self.intern_arc(Arc::new(e))
    }

    fn intern_arc(&self, e: Arc<Expr>) -> TermId {
        let mut inner = self.inner.write().unwrap();
        // Re-check: another thread may have interned between the locks.
        if let Some(&id) = inner.index.get(&e) {
            return id;
        }
        let id = TermId(inner.terms.len() as u32);
        inner.index.insert(Arc::clone(&e), id);
        inner.terms.push(TermEntry {
            expr: e,
            simplified: None,
            svars: None,
        });
        id
    }

    /// The expression behind an id, shared (no deep clone).
    pub fn resolve(&self, t: TermId) -> Arc<Expr> {
        Arc::clone(&self.inner.read().unwrap().terms[t.0 as usize].expr)
    }

    /// The expressions behind a run of ids, in order, under one read lock.
    pub(crate) fn resolve_all(&self, ts: &[TermId]) -> Vec<Arc<Expr>> {
        let inner = self.inner.read().unwrap();
        ts.iter()
            .map(|t| Arc::clone(&inner.terms[t.0 as usize].expr))
            .collect()
    }

    /// The expression behind an id as an owned value.
    pub fn resolve_owned(&self, t: TermId) -> Expr {
        (*self.resolve(t)).clone()
    }

    /// The id of the simplified form of `t` (memoised: the syntactic
    /// simplifier runs at most once per distinct term).
    pub fn simplify(&self, t: TermId) -> TermId {
        if let Some(s) = self.inner.read().unwrap().terms[t.0 as usize].simplified {
            return s;
        }
        let expr = self.resolve(t);
        let simplified = simplify(&expr);
        let s = if simplified == *expr {
            t
        } else {
            self.intern_owned(simplified)
        };
        let mut inner = self.inner.write().unwrap();
        inner.terms[t.0 as usize].simplified = Some(s);
        // A simplified form is its own fixpoint for the purposes of the
        // arena (the simplifier is idempotent on its image).
        inner.terms[s.0 as usize].simplified.get_or_insert(s);
        s
    }

    /// The free symbolic variables of `t` (memoised).
    pub fn svars(&self, t: TermId) -> Arc<BTreeSet<SVar>> {
        if let Some(v) = &self.inner.read().unwrap().terms[t.0 as usize].svars {
            return Arc::clone(v);
        }
        let expr = self.resolve(t);
        let vars = Arc::new(expr.svars());
        self.inner.write().unwrap().terms[t.0 as usize].svars = Some(Arc::clone(&vars));
        vars
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::VarGen;

    #[test]
    fn interning_round_trip() {
        let arena = TermArena::new();
        let mut g = VarGen::new();
        let x = g.fresh_expr();
        let e = Expr::add(x.clone(), Expr::Int(1));
        let t = arena.intern(&e);
        // resolve(intern(e)) is structurally e, and re-interning the resolved
        // expression yields the same id.
        assert_eq!(*arena.resolve(t), e);
        assert_eq!(arena.intern(&arena.resolve_owned(t)), t);
    }

    #[test]
    fn structural_equality_is_id_equality() {
        let arena = TermArena::new();
        let a = Expr::add(Expr::Int(1), Expr::Int(2));
        let b = Expr::add(Expr::Int(1), Expr::Int(2));
        assert_eq!(arena.intern(&a), arena.intern(&b));
        assert_ne!(
            arena.intern(&a),
            arena.intern(&Expr::add(Expr::Int(2), Expr::Int(1)))
        );
    }

    #[test]
    fn simplify_is_memoised_and_idempotent() {
        let arena = TermArena::new();
        let e = Expr::add(Expr::Int(1), Expr::Int(2));
        let t = arena.intern(&e);
        let s = arena.simplify(t);
        assert_eq!(*arena.resolve(s), Expr::Int(3));
        assert_eq!(arena.simplify(t), s);
        assert_eq!(arena.simplify(s), s);
    }

    #[test]
    fn svars_are_memoised() {
        let arena = TermArena::new();
        let mut g = VarGen::new();
        let a = g.fresh();
        let b = g.fresh();
        let t = arena.intern(&Expr::add(Expr::Var(a), Expr::Var(b)));
        let vars = arena.svars(t);
        assert!(vars.contains(&a) && vars.contains(&b) && vars.len() == 2);
        // Second call returns the same shared set.
        assert!(Arc::ptr_eq(&vars, &arena.svars(t)));
    }
}
