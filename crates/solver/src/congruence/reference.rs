//! The full-scan congruence closure, kept as a test oracle for the
//! incremental one in the parent module.
//!
//! Every non-trivial [`Congruence::rebuild`] re-scans all terms into a fresh
//! signature map and, once pure congruence is quiescent, re-simplifies every
//! interpreted term with each child steered through its class's concrete
//! member. Slow, but each step is easy to check by eye; the incremental
//! closure must give the same answers (see the `closure_oracle` test).

use super::{mk_expr, TermHead, TermId};
use crate::expr::Expr;
use crate::simplify::simplify;
use std::collections::HashMap;

#[derive(Clone, Debug)]
struct Term {
    head: TermHead,
    children: Vec<TermId>,
}

/// The full-scan closure with an undo trail of parent-pointer writes.
#[derive(Clone, Debug, Default)]
pub struct Congruence {
    terms: Vec<Term>,
    intern: HashMap<(TermHead, Vec<TermId>), TermId>,
    parent: Vec<u32>,
    contradiction: bool,
    pending: Vec<(TermId, TermId)>,
    trail: Vec<(u32, u32)>,
    clean: bool,
}

/// A restore point for [`Congruence::undo_to`].
#[derive(Clone, Debug)]
pub struct CcSnapshot {
    terms_len: usize,
    trail_len: usize,
    contradiction: bool,
    clean: bool,
    pending: Vec<(TermId, TermId)>,
}

impl Congruence {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn contradictory(&self) -> bool {
        self.contradiction
    }

    pub fn intern(&mut self, e: &Expr) -> TermId {
        let (head, child_exprs): (TermHead, Vec<&Expr>) = match e {
            Expr::Var(v) => (TermHead::Var(*v), vec![]),
            Expr::LVar(s) => (TermHead::LVar(*s), vec![]),
            Expr::PVar(s) => (TermHead::PVar(*s), vec![]),
            Expr::Int(i) => (TermHead::Int(*i), vec![]),
            Expr::Bool(b) => (TermHead::Bool(*b), vec![]),
            Expr::Loc(l) => (TermHead::Loc(*l), vec![]),
            Expr::Unit => (TermHead::Unit, vec![]),
            Expr::Ctor(tag, args) => (TermHead::Ctor(*tag), args.iter().collect()),
            Expr::Tuple(args) => (TermHead::Tuple, args.iter().collect()),
            Expr::SeqLit(args) => (TermHead::SeqLit, args.iter().collect()),
            Expr::UnOp(op, a) => (TermHead::UnOp(*op), vec![a.as_ref()]),
            Expr::BinOp(op, a, b) => (TermHead::BinOp(*op), vec![a.as_ref(), b.as_ref()]),
            Expr::NOp(op, args) => (TermHead::NOp(*op), args.iter().collect()),
            Expr::Ite(c, t, els) => (TermHead::Ite, vec![c.as_ref(), t.as_ref(), els.as_ref()]),
            Expr::App(name, args) => (TermHead::App(*name), args.iter().collect()),
        };
        let children: Vec<TermId> = child_exprs.into_iter().map(|c| self.intern(c)).collect();
        self.intern_node(head, children)
    }

    fn intern_node(&mut self, head: TermHead, children: Vec<TermId>) -> TermId {
        if let Some(&id) = self.intern.get(&(head, children.clone())) {
            return id;
        }
        let id = TermId(self.terms.len() as u32);
        self.terms.push(Term {
            head,
            children: children.clone(),
        });
        self.parent.push(id.0);
        self.intern.insert((head, children), id);
        self.clean = false;
        id
    }

    fn set_parent(&mut self, idx: u32, new: u32) {
        self.trail.push((idx, self.parent[idx as usize]));
        self.parent[idx as usize] = new;
    }

    pub fn snapshot(&self) -> CcSnapshot {
        CcSnapshot {
            terms_len: self.terms.len(),
            trail_len: self.trail.len(),
            contradiction: self.contradiction,
            clean: self.clean,
            pending: self.pending.clone(),
        }
    }

    pub fn undo_to(&mut self, snap: &CcSnapshot) {
        while self.trail.len() > snap.trail_len {
            let (idx, old) = self.trail.pop().unwrap();
            self.parent[idx as usize] = old;
        }
        while self.terms.len() > snap.terms_len {
            let term = self.terms.pop().unwrap();
            self.intern.remove(&(term.head, term.children));
        }
        self.parent.truncate(snap.terms_len);
        self.contradiction = snap.contradiction;
        self.clean = snap.clean;
        self.pending = snap.pending.clone();
    }

    pub fn find(&mut self, id: TermId) -> TermId {
        let mut root = id.0;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut cur = id.0;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.set_parent(cur, root);
            cur = next;
        }
        TermId(root)
    }

    pub fn assert_eq_exprs(&mut self, a: &Expr, b: &Expr) {
        let ta = self.intern(a);
        let tb = self.intern(b);
        self.merge(ta, tb);
        self.rebuild();
    }

    pub fn merge(&mut self, a: TermId, b: TermId) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return;
        }
        let ha = self.terms[ra.0 as usize].head;
        let hb = self.terms[rb.0 as usize].head;
        if ha.is_value_head() && hb.is_value_head() {
            if ha != hb {
                self.contradiction = true;
            } else if let (TermHead::Ctor(_), TermHead::Ctor(_)) = (&ha, &hb) {
                let ca = self.terms[ra.0 as usize].children.clone();
                let cb = self.terms[rb.0 as usize].children.clone();
                if ca.len() == cb.len() {
                    for (x, y) in ca.into_iter().zip(cb) {
                        self.pending.push((x, y));
                    }
                }
            }
        }
        if let (TermHead::SeqLit, TermHead::SeqLit) = (&ha, &hb) {
            let ca = self.terms[ra.0 as usize].children.clone();
            let cb = self.terms[rb.0 as usize].children.clone();
            if ca.len() != cb.len() {
                self.contradiction = true;
            } else {
                for (x, y) in ca.into_iter().zip(cb) {
                    self.pending.push((x, y));
                }
            }
        }
        if let (TermHead::Tuple, TermHead::Tuple) = (&ha, &hb) {
            let ca = self.terms[ra.0 as usize].children.clone();
            let cb = self.terms[rb.0 as usize].children.clone();
            if ca.len() == cb.len() {
                for (x, y) in ca.into_iter().zip(cb) {
                    self.pending.push((x, y));
                }
            }
        }
        let (keep, absorb) = if hb.is_value_head() && !ha.is_value_head() {
            (rb, ra)
        } else {
            (ra, rb)
        };
        self.set_parent(absorb.0, keep.0);
        self.clean = false;
    }

    pub fn rebuild(&mut self) {
        if self.clean && self.pending.is_empty() {
            return;
        }
        let mut normalize_rounds = 0;
        loop {
            let pending = std::mem::take(&mut self.pending);
            let had_pending = !pending.is_empty();
            for (a, b) in pending {
                self.merge(a, b);
            }
            // Congruence pass: O(n^2) signature matching.
            let n = self.terms.len();
            let mut sig: HashMap<(TermHead, Vec<TermId>), TermId> = HashMap::new();
            let mut merged = false;
            for i in 0..n {
                let head = self.terms[i].head;
                if head.is_value_head() && self.terms[i].children.is_empty() {
                    continue;
                }
                let children: Vec<TermId> = self.terms[i]
                    .children
                    .clone()
                    .into_iter()
                    .map(|c| self.find(c))
                    .collect();
                let rep = self.find(TermId(i as u32));
                match sig.get(&(head, children.clone())) {
                    Some(&other) => {
                        let other_rep = self.find(other);
                        if other_rep != rep {
                            self.merge(other_rep, rep);
                            merged = true;
                        }
                    }
                    None => {
                        sig.insert((head, children), rep);
                    }
                }
            }
            if self.contradiction {
                break;
            }
            if !merged && !had_pending && self.pending.is_empty() {
                if normalize_rounds < 4 && self.normalize_pass() {
                    normalize_rounds += 1;
                    continue;
                }
                break;
            }
        }
        self.clean = true;
    }

    fn normalize_pass(&mut self) -> bool {
        let n = self.terms.len();
        let mut concrete: HashMap<TermId, TermId> = HashMap::new();
        for i in 0..n {
            let head = &self.terms[i].head;
            if head.is_value_head() || matches!(head, TermHead::SeqLit | TermHead::Tuple) {
                let rep = self.find(TermId(i as u32));
                concrete.entry(rep).or_insert(TermId(i as u32));
            }
        }
        let mut changed = false;
        for i in 0..n {
            let head = self.terms[i].head;
            if !head.is_interpreted() {
                continue;
            }
            let children = self.terms[i].children.clone();
            let child_exprs: Vec<Expr> = children
                .iter()
                .map(|&c| self.concrete_expr(c, &concrete, 6))
                .collect();
            let e = mk_expr(&head, child_exprs);
            let s = simplify(&e);
            if s != e {
                let ts = self.intern(&s);
                let ri = self.find(TermId(i as u32));
                let rs = self.find(ts);
                if ri != rs {
                    self.merge(ri, rs);
                    changed = true;
                }
            }
        }
        changed
    }

    fn concrete_expr(
        &mut self,
        id: TermId,
        concrete: &HashMap<TermId, TermId>,
        depth: usize,
    ) -> Expr {
        let use_id = if depth > 0 {
            let rep = self.find(id);
            concrete.get(&rep).copied().unwrap_or(id)
        } else {
            id
        };
        let term = self.terms[use_id.0 as usize].clone();
        let children: Vec<Expr> = term
            .children
            .iter()
            .map(|&c| self.concrete_expr(c, concrete, depth.saturating_sub(1)))
            .collect();
        mk_expr(&term.head, children)
    }

    pub fn are_equal(&mut self, a: &Expr, b: &Expr) -> bool {
        let ta = self.intern(a);
        let tb = self.intern(b);
        self.rebuild();
        self.find(ta) == self.find(tb)
    }

    pub fn value_head_of(&mut self, e: &Expr) -> Option<TermHead> {
        let t = self.intern(e);
        self.rebuild();
        let r = self.find(t);
        let h = self.terms[r.0 as usize].head;
        if h.is_value_head() {
            Some(h)
        } else {
            None
        }
    }
}
