//! Congruence closure over uninterpreted terms, maintained incrementally.
//!
//! Every expression is interned into a term graph; equalities asserted by the
//! path condition are propagated by congruence (`f(a) ~ f(b)` whenever
//! `a ~ b`). Constructor semantics are layered on top: two terms in the same
//! class whose head constructors are distinct literals or distinct datatype
//! tags witness a contradiction, and equated constructor applications with the
//! same tag propagate equalities between their fields (injectivity).
//!
//! The closure follows the use-list scheme of Downey, Sethi & Tarjan
//! ("Variations on the common subexpression problem", JACM 1980) and
//! Nieuwenhuis & Oliveras ("Fast congruence closure and extensions", 2007),
//! so a merge costs in proportion to what it touches, not to the graph:
//!
//! * **Use-lists.** Each term lists the terms that have it as a child, and
//!   the members of each class form a ring. The users of a class are the
//!   users of its ring's members; a merge splices two rings with one swap.
//! * **Signature table.** A hash table maps a *signature* — a head plus the
//!   class roots of the children — to the terms with that signature. A
//!   merge signs again only the users of the class it absorbs: a term of
//!   another class under the new signature is a congruent pair, queued for
//!   merging. The same table is the hash-cons behind
//!   [`Congruence::intern`], which looks a term up under its children's
//!   roots: a term with exactly the same children is returned, and a new
//!   term whose signature is already listed is queued for merging with it.
//! * **Normalisation worklist.** Interpreted operators (`++`, arithmetic,
//!   `len`, `==`, `ite`, …) are handled by *normalisation*: a term is
//!   re-simplified with each child steered through its class's *concrete
//!   member* (the lowest-id literal, constructor, sequence or tuple term) and
//!   merged with the result — so `c ~ []` makes `[e] ++ c ~ [e]`, which pure
//!   congruence over uninterpreted heads cannot see. Steering reaches six
//!   levels down, so a term is queued when it is interned, and again when a
//!   class within six use-list levels below it gains a concrete member or a
//!   lower-id one. [`Congruence::rebuild`] runs at most four rounds of the
//!   queue; a round steers through the concrete members its classes had
//!   when it began, and what changes during the round is queued for the
//!   next.
//! * **One trail.** Parent-pointer writes (merges and path compressions),
//!   ring splices, concrete-member changes and signature-table inserts are
//!   logged as plain-data entries in write order, so
//!   [`Congruence::undo_to`] restores an earlier [`Congruence::snapshot`] in
//!   O(changes). A signature insert is logged without its key: unwinding
//!   restores the union-find to the insert's moment, and the key is computed
//!   again from it. Terms interned since the snapshot are dropped with their
//!   use-list nodes.

use crate::expr::{BinOp, Expr, NOp, SVar, UnOp};
use crate::simplify::simplify;
use crate::symbol::Symbol;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};

#[cfg(test)]
mod reference;

/// Identifier of an interned term.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct TermId(pub u32);

/// The head of an interned term (its children are stored separately).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TermHead {
    Var(SVar),
    LVar(Symbol),
    PVar(Symbol),
    Int(i128),
    Bool(bool),
    Loc(u64),
    Unit,
    Ctor(Symbol),
    Tuple,
    SeqLit,
    UnOp(UnOp),
    BinOp(BinOp),
    NOp(NOp),
    Ite,
    App(Symbol),
}

impl TermHead {
    /// Is this head a "constructor" in the sense that two different heads can
    /// never denote the same value?
    fn is_value_head(&self) -> bool {
        matches!(
            self,
            TermHead::Int(_)
                | TermHead::Bool(_)
                | TermHead::Loc(_)
                | TermHead::Unit
                | TermHead::Ctor(_)
        )
    }

    /// Can a term with this head be its class's concrete member?
    fn is_concrete(&self) -> bool {
        self.is_value_head() || matches!(self, TermHead::SeqLit | TermHead::Tuple)
    }

    /// Is this an operator that normalisation re-simplifies?
    fn is_interpreted(&self) -> bool {
        matches!(
            self,
            TermHead::UnOp(_) | TermHead::BinOp(_) | TermHead::NOp(_) | TermHead::Ite
        )
    }
}

/// "None" in the `u32` link fields. It is also larger than every term id, so
/// the lower of two concrete members is their `min`.
const NIL: u32 = u32::MAX;

/// How many levels below an interpreted term normalisation steers through
/// concrete members, and so how many use-list levels above a class whose
/// concrete member changed are queued for normalisation.
const STEER_DEPTH: usize = 6;

/// Normalisation rounds per [`Congruence::rebuild`]: a bound, so a
/// pathological simplify/merge interplay cannot loop.
const NORMALIZE_ROUNDS: usize = 4;

#[derive(Clone, Copy, Debug)]
struct Term {
    head: TermHead,
    /// Where the children start in [`Congruence::kids`].
    kids: u32,
    arity: u32,
}

/// One undo-trail entry.
#[derive(Clone, Copy, Debug)]
enum Undo {
    /// `parent[.0]` was `.1`.
    Parent(u32, u32),
    /// The member rings of `.0` and `.1` were spliced; splicing them again
    /// splits them.
    Splice(u32, u32),
    /// `concrete[.0]` was `.1`.
    Concrete(u32, u32),
    /// The newest signature-table node was inserted.
    Sig,
}

/// FxHash (the multiply-rotate hash of Firefox and rustc): signature keys,
/// and the signature table's hashing of them. Unkeyed, so inputs could be
/// built to collide; a collision only lengthens a chain, since every node's
/// signature is checked, and std's keyed SipHash measured 5–10 % slower on
/// `batch_corpus`.
#[derive(Clone, Copy, Default)]
struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        // The multiply leaves the best-mixed bits at the top; the table
        // indexes buckets with the bottom ones.
        self.0.rotate_left(26)
    }
}

/// The signature key's hash: a head plus the class roots of the children.
fn sig_hash(head: &TermHead, roots: &[u32]) -> u64 {
    let mut h = FxHasher::default();
    head.hash(&mut h);
    for &r in roots {
        h.write_u32(r);
    }
    h.finish()
}

/// A congruence-closure engine with an **undo trail**: every write to the
/// union-find, the member rings, the concrete members and the signature
/// table is logged, so [`Congruence::undo_to`] restores the exact state of an
/// earlier [`Congruence::snapshot`] in O(changes) — the backbone of the
/// incremental solver backend, where branch scopes push and pop around
/// transient hypotheses thousands of times per proof.
///
/// All state is plain data in flat vectors (cloning a context copies them
/// without per-term allocations):
///
/// * terms, with their children back to back in one vector;
/// * per child slot, a use-list node `(user, next)`, and per term the head of
///   its use-list;
/// * per term, its union-find parent and the next member of its class ring;
/// * per class root, its concrete member;
/// * the signature table, hash to newest node, over insert-only nodes
///   `(term, older node with the same hash)`;
/// * the queues: equalities waiting to be merged, and interpreted terms
///   waiting to be normalised.
#[derive(Clone, Debug, Default)]
pub struct Congruence {
    terms: Vec<Term>,
    /// The children of every term, back to back (`Term::kids` indexes here).
    kids: Vec<TermId>,
    /// The use-list node of each `kids` slot: the term owning the slot, and
    /// the next node of the child's use-list.
    uses: Vec<(TermId, u32)>,
    /// Per term: the first node of its use-list (`NIL` when no term has it
    /// as a child).
    use_head: Vec<u32>,
    /// Per term: its union-find parent.
    parent: Vec<u32>,
    /// Per term: the next member of its class, in a ring.
    next_member: Vec<u32>,
    /// Per class root: its concrete member, the lowest-id value,
    /// sequence-literal or tuple term of the class (`NIL` when none).
    concrete: Vec<u32>,
    /// The signature table: signature hash to the newest node in
    /// `sig_nodes` with that hash.
    sig: HashMap<u64, u32, BuildHasherDefault<FxHasher>>,
    /// Signature-table nodes `(term, older node with the same hash)`,
    /// insert-only: every term has a node under its current signature. A
    /// merge leaves the nodes under the absorbed root's signatures stale;
    /// lookups check each node's signature against the current union-find,
    /// and the trail removes nodes newest first.
    sig_nodes: Vec<(TermId, u32)>,
    /// Set to `true` when a contradiction has been found.
    contradiction: bool,
    /// Equalities waiting to be merged: injectivity consequences and the
    /// congruent pairs found by signing terms again.
    pending: Vec<(TermId, TermId)>,
    /// Interpreted terms waiting to be (re)normalised.
    dirty: Vec<TermId>,
    /// Undo log, in write order.
    trail: Vec<Undo>,
    /// Log of class merges `(kept root, absorbed root)`, in merge order.
    /// Consumed by theory-combination listeners (the incremental kernel uses
    /// it to spot merges that invalidate linear-arithmetic atom keys).
    merges: Vec<(TermId, TermId)>,
    /// The normalisation round in progress, if any.
    round: Option<Round>,
    /// Scratch stack of child ids while interning (empty between calls).
    stack: Vec<TermId>,
    /// Scratch buffer for a signature's child roots (empty between calls).
    roots: Vec<u32>,
}

/// A normalisation round steers through the concrete members its classes
/// had when it began; a change made during the round reaches the next round
/// through the queue.
#[derive(Clone, Debug)]
struct Round {
    /// Terms interned during the round have no concrete member to steer
    /// through yet.
    terms_len: u32,
    /// The concrete member at the round's start of each root whose concrete
    /// member has changed since.
    concrete: HashMap<u32, u32>,
}

/// A restore point for [`Congruence::undo_to`].
#[derive(Clone, Debug)]
pub struct CcSnapshot {
    terms_len: usize,
    trail_len: usize,
    merges_len: usize,
    contradiction: bool,
    /// The queues are normally drained by `rebuild`; a snapshot taken
    /// mid-contradiction, or after a rebuild that hit its round bound, may
    /// still carry entries.
    pending: Vec<(TermId, TermId)>,
    dirty: Vec<TermId>,
}

impl Congruence {
    /// Creates an empty congruence-closure context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `true` if a contradiction (distinct values equated) was found.
    pub fn contradictory(&self) -> bool {
        self.contradiction
    }

    /// Interns an expression and returns its term id: the existing term if
    /// `e` was interned before. A new term congruent to an existing one is
    /// queued for merging with it by the next [`Congruence::rebuild`].
    pub fn intern(&mut self, e: &Expr) -> TermId {
        let base = self.stack.len();
        let head = match e {
            Expr::Var(v) => TermHead::Var(*v),
            Expr::LVar(s) => TermHead::LVar(*s),
            Expr::PVar(s) => TermHead::PVar(*s),
            Expr::Int(i) => TermHead::Int(*i),
            Expr::Bool(b) => TermHead::Bool(*b),
            Expr::Loc(l) => TermHead::Loc(*l),
            Expr::Unit => TermHead::Unit,
            Expr::Ctor(tag, args) => {
                self.push_children(args);
                TermHead::Ctor(*tag)
            }
            Expr::Tuple(args) => {
                self.push_children(args);
                TermHead::Tuple
            }
            Expr::SeqLit(args) => {
                self.push_children(args);
                TermHead::SeqLit
            }
            Expr::UnOp(op, a) => {
                self.push_child(a);
                TermHead::UnOp(*op)
            }
            Expr::BinOp(op, a, b) => {
                self.push_child(a);
                self.push_child(b);
                TermHead::BinOp(*op)
            }
            Expr::NOp(op, args) => {
                self.push_children(args);
                TermHead::NOp(*op)
            }
            Expr::Ite(c, t, els) => {
                self.push_child(c);
                self.push_child(t);
                self.push_child(els);
                TermHead::Ite
            }
            Expr::App(name, args) => {
                self.push_children(args);
                TermHead::App(*name)
            }
        };
        let id = self.intern_node(head, base);
        self.stack.truncate(base);
        id
    }

    fn push_child(&mut self, e: &Expr) {
        let t = self.intern(e);
        self.stack.push(t);
    }

    fn push_children(&mut self, es: &[Expr]) {
        for e in es {
            self.push_child(e);
        }
    }

    /// Returns the term `head(stack[base..])`, creating it when the table
    /// holds no term with exactly these children. A new term whose signature
    /// the table already holds is queued for merging with that term.
    fn intern_node(&mut self, head: TermHead, base: usize) -> TermId {
        let mut roots = std::mem::take(&mut self.roots);
        for i in base..self.stack.len() {
            let k = self.stack[i];
            roots.push(self.find(k).0);
        }
        let h = sig_hash(&head, &roots);
        let (same, congruent) = self.scan(h, &head, &roots, |cc, t| {
            let term = cc.terms[t.0 as usize];
            term.head == head
                && cc.kids[term.kids as usize..(term.kids + term.arity) as usize]
                    == cc.stack[base..]
        });
        roots.clear();
        self.roots = roots;
        if let Some(t) = same {
            return t;
        }
        let id = TermId(self.terms.len() as u32);
        let kids = self.kids.len() as u32;
        for i in base..self.stack.len() {
            let c = self.stack[i];
            let slot = self.kids.len() as u32;
            self.uses.push((id, self.use_head[c.0 as usize]));
            self.use_head[c.0 as usize] = slot;
            self.kids.push(c);
        }
        self.terms.push(Term {
            head,
            kids,
            arity: self.kids.len() as u32 - kids,
        });
        self.use_head.push(NIL);
        self.parent.push(id.0);
        self.next_member.push(id.0);
        self.concrete
            .push(if head.is_concrete() { id.0 } else { NIL });
        self.sig_insert(h, id);
        if let Some(v) = congruent {
            self.pending.push((v, id));
        }
        if head.is_interpreted() {
            self.dirty.push(id);
        }
        id
    }

    /// Walks the table's nodes for hash `h`, newest first, until one holds a
    /// term satisfying `target`. Returns that term, and the first term met
    /// before it whose signature is `head(roots)` under the current
    /// union-find.
    fn scan(
        &mut self,
        h: u64,
        head: &TermHead,
        roots: &[u32],
        target: impl Fn(&Self, TermId) -> bool,
    ) -> (Option<TermId>, Option<TermId>) {
        let mut congruent = None;
        let mut node = self.sig.get(&h).copied().unwrap_or(NIL);
        while node != NIL {
            let (t, older) = self.sig_nodes[node as usize];
            if target(self, t) {
                return (Some(t), congruent);
            }
            if congruent.is_none() && self.has_signature(t, head, roots) {
                congruent = Some(t);
            }
            node = older;
        }
        (None, congruent)
    }

    /// Is `head(roots)` the signature of `t` under the current union-find?
    fn has_signature(&mut self, t: TermId, head: &TermHead, roots: &[u32]) -> bool {
        let term = self.terms[t.0 as usize];
        if term.head != *head || term.arity as usize != roots.len() {
            return false;
        }
        for (j, &r) in roots.iter().enumerate() {
            let k = self.kids[term.kids as usize + j];
            if self.find(k).0 != r {
                return false;
            }
        }
        true
    }

    fn sig_insert(&mut self, h: u64, t: TermId) {
        let node = self.sig_nodes.len() as u32;
        let older = self.sig.insert(h, node).unwrap_or(NIL);
        self.sig_nodes.push((t, older));
        self.trail.push(Undo::Sig);
    }

    /// Removes the newest signature-table node. The union-find is back in
    /// the state the node was inserted under, so its key is recomputed from
    /// it (without path compression, which would write the trail).
    fn sig_remove_newest(&mut self) {
        let (t, older) = self
            .sig_nodes
            .pop()
            .expect("a signature node per trail entry");
        let term = self.terms[t.0 as usize];
        let mut roots = std::mem::take(&mut self.roots);
        for j in 0..term.arity {
            let k = self.kids[(term.kids + j) as usize];
            roots.push(self.root(k));
        }
        let h = sig_hash(&term.head, &roots);
        roots.clear();
        self.roots = roots;
        debug_assert_eq!(self.sig.get(&h), Some(&(self.sig_nodes.len() as u32)));
        if older == NIL {
            self.sig.remove(&h);
        } else {
            self.sig.insert(h, older);
        }
    }

    /// The single funnel for union-find writes: logs the previous value so
    /// the trail can restore it.
    fn set_parent(&mut self, idx: u32, new: u32) {
        self.trail
            .push(Undo::Parent(idx, self.parent[idx as usize]));
        self.parent[idx as usize] = new;
    }

    /// Takes a restore point for [`Congruence::undo_to`].
    pub fn snapshot(&self) -> CcSnapshot {
        CcSnapshot {
            terms_len: self.terms.len(),
            trail_len: self.trail.len(),
            merges_len: self.merges.len(),
            contradiction: self.contradiction,
            pending: self.pending.clone(),
            dirty: self.dirty.clone(),
        }
    }

    /// Restores the exact state of an earlier [`Congruence::snapshot`] in
    /// O(changes since the snapshot): the trail is unwound newest first,
    /// terms interned since are dropped with their use-list nodes, and the
    /// merge log, contradiction flag and queues are rolled back.
    pub fn undo_to(&mut self, snap: &CcSnapshot) {
        while self.trail.len() > snap.trail_len {
            match self
                .trail
                .pop()
                .expect("the trail is longer than the snapshot's")
            {
                Undo::Parent(idx, old) => self.parent[idx as usize] = old,
                Undo::Splice(a, b) => self.next_member.swap(a as usize, b as usize),
                Undo::Concrete(root, old) => self.concrete[root as usize] = old,
                Undo::Sig => self.sig_remove_newest(),
            }
        }
        if let Some(first) = self.terms.get(snap.terms_len) {
            // Each dropped term's nodes head its children's use-lists.
            let kids_len = first.kids as usize;
            for slot in (kids_len..self.kids.len()).rev() {
                let c = self.kids[slot].0 as usize;
                debug_assert_eq!(self.use_head[c], slot as u32);
                self.use_head[c] = self.uses[slot].1;
            }
            self.kids.truncate(kids_len);
            self.uses.truncate(kids_len);
            self.terms.truncate(snap.terms_len);
            self.use_head.truncate(snap.terms_len);
            self.parent.truncate(snap.terms_len);
            self.next_member.truncate(snap.terms_len);
            self.concrete.truncate(snap.terms_len);
        }
        self.merges.truncate(snap.merges_len);
        self.contradiction = snap.contradiction;
        self.pending.clone_from(&snap.pending);
        self.dirty.clone_from(&snap.dirty);
    }

    /// The class merges performed so far, in order (`(kept, absorbed)`
    /// roots). Indices into this log are stable until an
    /// [`Congruence::undo_to`] truncates it.
    pub fn merge_log(&self) -> &[(TermId, TermId)] {
        &self.merges
    }

    /// Union-find: find with path compression (compressions go through the
    /// trail so undo stays exact).
    pub fn find(&mut self, id: TermId) -> TermId {
        let root = self.root(id);
        let mut cur = id.0;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.set_parent(cur, root);
            cur = next;
        }
        TermId(root)
    }

    /// Union-find root, without path compression.
    fn root(&self, id: TermId) -> u32 {
        let mut root = id.0;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        root
    }

    /// Asserts an equality between two expressions.
    pub fn assert_eq_exprs(&mut self, a: &Expr, b: &Expr) {
        let ta = self.intern(a);
        let tb = self.intern(b);
        self.merge(ta, tb);
        self.rebuild();
    }

    /// Asserts equality between two already-interned terms. The classes are
    /// joined at once; the congruences and injectivity consequences that
    /// follow are queued for [`Congruence::rebuild`].
    pub fn merge(&mut self, a: TermId, b: TermId) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return;
        }
        // Injectivity / conflict detection between value heads.
        let ha = self.terms[ra.0 as usize].head;
        let hb = self.terms[rb.0 as usize].head;
        if ha.is_value_head() && hb.is_value_head() {
            if ha != hb {
                self.contradiction = true;
            } else if let (TermHead::Ctor(_), TermHead::Ctor(_)) = (&ha, &hb) {
                self.queue_children(ra, rb);
            }
        }
        // SeqLit injectivity (same length literal sequences).
        if let (TermHead::SeqLit, TermHead::SeqLit) = (&ha, &hb) {
            if self.terms[ra.0 as usize].arity != self.terms[rb.0 as usize].arity {
                self.contradiction = true;
            } else {
                self.queue_children(ra, rb);
            }
        }
        // Tuple injectivity.
        if let (TermHead::Tuple, TermHead::Tuple) = (&ha, &hb) {
            self.queue_children(ra, rb);
        }
        // Prefer keeping a value head as the representative so that
        // `rep_is_value` queries work.
        if hb.is_value_head() && !ha.is_value_head() {
            self.union(rb, ra);
        } else {
            self.union(ra, rb);
        }
    }

    /// Queues the pairwise equalities of the children of two terms of the
    /// same arity.
    fn queue_children(&mut self, a: TermId, b: TermId) {
        let (ta, tb) = (self.terms[a.0 as usize], self.terms[b.0 as usize]);
        if ta.arity != tb.arity {
            return;
        }
        for j in 0..ta.arity {
            let x = self.kids[(ta.kids + j) as usize];
            let y = self.kids[(tb.kids + j) as usize];
            self.pending.push((x, y));
        }
    }

    /// Makes root `keep` the root of root `absorb`'s class: splices the
    /// member rings, updates the concrete member, signs the absorbed class's
    /// users again and queues the terms whose normalisation can see the
    /// changed concrete member.
    fn union(&mut self, keep: TermId, absorb: TermId) {
        let (k, a) = (keep.0 as usize, absorb.0 as usize);
        let (ck, ca) = (self.concrete[k], self.concrete[a]);
        let c = ck.min(ca);
        // Whose normalisation can see the merge: the kept class's users when
        // its concrete member changes, and the absorbed class's users when
        // theirs changes — or, during a round, when the round steers the
        // kept class through another one.
        let kept_changed = c != ck;
        let absorbed_changed = c != ca || (self.round.is_some() && self.steer(keep.0) != c);
        // Collected before the rings join: the users of each side alone.
        let mut absorbed_users = Vec::new();
        self.class_users(absorb.0, &mut absorbed_users);
        let mut renormalize = Vec::new();
        if kept_changed {
            self.class_users(keep.0, &mut renormalize);
        }
        self.set_parent(absorb.0, keep.0);
        self.next_member.swap(k, a);
        self.trail.push(Undo::Splice(keep.0, absorb.0));
        self.merges.push((keep, absorb));
        if kept_changed {
            if let Some(round) = &mut self.round {
                round.concrete.entry(keep.0).or_insert(ck);
            }
            self.trail.push(Undo::Concrete(keep.0, ck));
            self.concrete[k] = c;
        }
        for &u in &absorbed_users {
            self.resign(u);
        }
        if absorbed_changed {
            renormalize.extend(absorbed_users);
        }
        if !renormalize.is_empty() {
            self.renormalize_above(renormalize);
        }
    }

    /// Appends the users of every member of `member`'s class to `out`.
    fn class_users(&self, member: u32, out: &mut Vec<TermId>) {
        let mut m = member;
        loop {
            let mut node = self.use_head[m as usize];
            while node != NIL {
                let (user, next) = self.uses[node as usize];
                out.push(user);
                node = next;
            }
            m = self.next_member[m as usize];
            if m == member {
                return;
            }
        }
    }

    /// Signs `u` again under its children's current roots and inserts it
    /// there, so lookups of its exact children still find it. A term of
    /// another class with the same signature is congruent to it.
    fn resign(&mut self, u: TermId) {
        let term = self.terms[u.0 as usize];
        let mut roots = std::mem::take(&mut self.roots);
        for j in 0..term.arity {
            let k = self.kids[(term.kids + j) as usize];
            roots.push(self.find(k).0);
        }
        let h = sig_hash(&term.head, &roots);
        let (present, congruent) = self.scan(h, &term.head, &roots, |_, t| t == u);
        roots.clear();
        self.roots = roots;
        if present.is_some() {
            // Signed under this key already, and checked then.
            return;
        }
        self.sig_insert(h, u);
        if let Some(v) = congruent {
            if self.find(v) != self.find(u) {
                self.pending.push((v.min(u), v.max(u)));
            }
        }
    }

    /// Queues for normalisation every interpreted term within
    /// `STEER_DEPTH` use-list levels above a class whose concrete member
    /// changed. `level` holds the first level: that class's users.
    fn renormalize_above(&mut self, mut level: Vec<TermId>) {
        // Classes whose users are already collected, at their lowest level.
        let mut expanded: HashSet<u32> = HashSet::new();
        for depth in 1..=STEER_DEPTH {
            let mut next = Vec::new();
            for &u in &level {
                if self.terms[u.0 as usize].head.is_interpreted() {
                    self.dirty.push(u);
                }
                if depth < STEER_DEPTH {
                    let r = self.find(u).0;
                    if expanded.insert(r) {
                        self.class_users(r, &mut next);
                    }
                }
            }
            if next.is_empty() {
                return;
            }
            level = next;
        }
    }

    /// Merges the queued equalities and normalises the queued terms, to
    /// fixpoint or for at most four normalisation rounds. O(1) when both
    /// queues are empty — the persistent incremental state calls this after
    /// every assertion, and most calls find the closure already quiescent.
    pub fn rebuild(&mut self) {
        let mut rounds = 0;
        loop {
            while !self.pending.is_empty() && !self.contradiction {
                for (a, b) in std::mem::take(&mut self.pending) {
                    self.merge(a, b);
                }
            }
            if self.contradiction || self.dirty.is_empty() || rounds == NORMALIZE_ROUNDS {
                return;
            }
            rounds += 1;
            let mut batch = std::mem::take(&mut self.dirty);
            batch.sort_unstable();
            batch.dedup();
            self.round = Some(Round {
                terms_len: self.terms.len() as u32,
                concrete: HashMap::new(),
            });
            let mut changed = false;
            for t in batch {
                changed |= self.normalize(t);
            }
            self.round = None;
            if !changed {
                return;
            }
        }
    }

    /// Re-simplifies the interpreted term `t` with each child steered through
    /// its class's concrete member, and merges `t` with the result when that
    /// reduces. Returns whether it merged anything.
    fn normalize(&mut self, t: TermId) -> bool {
        let term = self.terms[t.0 as usize];
        let children: Vec<Expr> = (term.kids..term.kids + term.arity)
            .map(|slot| {
                let k = self.kids[slot as usize];
                self.concrete_expr(k, STEER_DEPTH)
            })
            .collect();
        let e = mk_expr(&term.head, children);
        let s = simplify(&e);
        if s == e {
            return false;
        }
        let ts = self.intern(&s);
        let ri = self.find(t);
        let rs = self.find(ts);
        if ri == rs {
            return false;
        }
        self.merge(ri, rs);
        true
    }

    /// Reconstructs an expression for `id`, steering through each class's
    /// concrete member where one exists. Depth-limited: union-find classes
    /// can relate a term to one of its own subterms (`x ~ f(x)`), so the
    /// walk must not chase representatives forever.
    fn concrete_expr(&mut self, id: TermId, depth: usize) -> Expr {
        let use_id = if depth > 0 {
            let root = self.find(id).0;
            let c = self.steer(root);
            if c == NIL {
                id
            } else {
                TermId(c)
            }
        } else {
            id
        };
        let term = self.terms[use_id.0 as usize];
        let children: Vec<Expr> = (term.kids..term.kids + term.arity)
            .map(|slot| {
                let k = self.kids[slot as usize];
                self.concrete_expr(k, depth.saturating_sub(1))
            })
            .collect();
        mk_expr(&term.head, children)
    }

    /// The concrete member the round in progress steers `root`'s class
    /// through (`NIL` when none).
    fn steer(&self, root: u32) -> u32 {
        let round = self.round.as_ref().expect("normalisation runs in a round");
        if root >= round.terms_len {
            return NIL;
        }
        match round.concrete.get(&root) {
            Some(&c) => c,
            None => self.concrete[root as usize],
        }
    }

    /// Are the two expressions known to be equal?
    pub fn are_equal(&mut self, a: &Expr, b: &Expr) -> bool {
        let ta = self.intern(a);
        let tb = self.intern(b);
        self.rebuild();
        self.find(ta) == self.find(tb)
    }

    /// Are the two expressions known to be distinct (different value heads in
    /// merged classes)?
    pub fn are_distinct(&mut self, a: &Expr, b: &Expr) -> bool {
        let ta = self.intern(a);
        let tb = self.intern(b);
        self.rebuild();
        let ra = self.find(ta);
        let rb = self.find(tb);
        if ra == rb {
            return false;
        }
        let ha = self.terms[ra.0 as usize].head;
        let hb = self.terms[rb.0 as usize].head;
        if ha.is_value_head() && hb.is_value_head() {
            match (&ha, &hb) {
                (TermHead::Ctor(t1), TermHead::Ctor(t2)) if t1 == t2 => {
                    // Same tag: distinct only if some child pair is distinct.
                    false
                }
                _ => ha != hb,
            }
        } else {
            false
        }
    }

    /// Returns the representative expression head of the class of `e`, if the
    /// class contains a value (literal or constructor).
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

    /// The representative term id of an expression (after rebuild).
    pub fn rep_of(&mut self, e: &Expr) -> TermId {
        let t = self.intern(e);
        self.rebuild();
        self.find(t)
    }

    /// Number of interned terms (for tests/diagnostics).
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when no terms have been interned.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }
}

/// Rebuilds an expression from a term head and child expressions (the
/// inverse of the destructuring in [`Congruence::intern`]).
fn mk_expr(head: &TermHead, children: Vec<Expr>) -> Expr {
    let mut it = children.into_iter();
    match head {
        TermHead::Var(v) => Expr::Var(*v),
        TermHead::LVar(s) => Expr::LVar(*s),
        TermHead::PVar(s) => Expr::PVar(*s),
        TermHead::Int(i) => Expr::Int(*i),
        TermHead::Bool(b) => Expr::Bool(*b),
        TermHead::Loc(l) => Expr::Loc(*l),
        TermHead::Unit => Expr::Unit,
        TermHead::Ctor(tag) => Expr::Ctor(*tag, it.collect()),
        TermHead::Tuple => Expr::Tuple(it.collect()),
        TermHead::SeqLit => Expr::SeqLit(it.collect()),
        TermHead::UnOp(op) => Expr::UnOp(*op, Box::new(it.next().expect("unop child"))),
        TermHead::BinOp(op) => {
            let a = it.next().expect("binop lhs");
            let b = it.next().expect("binop rhs");
            Expr::BinOp(*op, Box::new(a), Box::new(b))
        }
        TermHead::NOp(op) => Expr::NOp(*op, it.collect()),
        TermHead::Ite => {
            let c = it.next().expect("ite cond");
            let t = it.next().expect("ite then");
            let e = it.next().expect("ite else");
            Expr::Ite(Box::new(c), Box::new(t), Box::new(e))
        }
        TermHead::App(name) => Expr::App(*name, it.collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::VarGen;

    #[test]
    fn transitivity() {
        let mut g = VarGen::new();
        let (a, b, c) = (g.fresh_expr(), g.fresh_expr(), g.fresh_expr());
        let mut cc = Congruence::new();
        cc.assert_eq_exprs(&a, &b);
        cc.assert_eq_exprs(&b, &c);
        assert!(cc.are_equal(&a, &c));
    }

    #[test]
    fn congruence_over_function_symbols() {
        let mut g = VarGen::new();
        let (a, b) = (g.fresh_expr(), g.fresh_expr());
        let mut cc = Congruence::new();
        cc.assert_eq_exprs(&a, &b);
        let fa = Expr::app("f", vec![a]);
        let fb = Expr::app("f", vec![b]);
        assert!(cc.are_equal(&fa, &fb));
    }

    #[test]
    fn congruence_over_seq_concat() {
        let mut g = VarGen::new();
        let (s, t, x) = (g.fresh_expr(), g.fresh_expr(), g.fresh_expr());
        let mut cc = Congruence::new();
        cc.assert_eq_exprs(&s, &t);
        let c1 = Expr::seq_concat(Expr::seq(vec![x.clone()]), s);
        let c2 = Expr::seq_concat(Expr::seq(vec![x]), t);
        assert!(cc.are_equal(&c1, &c2));
    }

    #[test]
    fn distinct_int_literals_conflict() {
        let mut cc = Congruence::new();
        cc.assert_eq_exprs(&Expr::Int(1), &Expr::Int(2));
        assert!(cc.contradictory());
    }

    #[test]
    fn distinct_ctor_tags_conflict() {
        let mut g = VarGen::new();
        let x = g.fresh_expr();
        let mut cc = Congruence::new();
        cc.assert_eq_exprs(&Expr::none(), &Expr::some(x));
        assert!(cc.contradictory());
    }

    #[test]
    fn ctor_injectivity_propagates() {
        let mut g = VarGen::new();
        let (x, y) = (g.fresh_expr(), g.fresh_expr());
        let mut cc = Congruence::new();
        cc.assert_eq_exprs(&Expr::some(x.clone()), &Expr::some(y.clone()));
        assert!(cc.are_equal(&x, &y));
    }

    #[test]
    fn injectivity_derives_conflict() {
        let mut cc = Congruence::new();
        cc.assert_eq_exprs(&Expr::some(Expr::Int(1)), &Expr::some(Expr::Int(2)));
        assert!(cc.contradictory());
    }

    #[test]
    fn are_distinct_for_different_values() {
        let mut cc = Congruence::new();
        assert!(cc.are_distinct(&Expr::Int(1), &Expr::Int(2)));
        assert!(!cc.are_distinct(&Expr::Int(1), &Expr::Int(1)));
    }

    #[test]
    fn value_head_found_through_equality() {
        let mut g = VarGen::new();
        let x = g.fresh_expr();
        let mut cc = Congruence::new();
        cc.assert_eq_exprs(&x, &Expr::none());
        assert_eq!(
            cc.value_head_of(&x),
            Some(TermHead::Ctor(Symbol::new("Option::None")))
        );
    }

    #[test]
    fn snapshot_undo_restores_equalities_exactly() {
        let mut g = VarGen::new();
        let (a, b, c) = (g.fresh_expr(), g.fresh_expr(), g.fresh_expr());
        let mut cc = Congruence::new();
        cc.assert_eq_exprs(&a, &b);
        let len_before = cc.len();
        let snap = cc.snapshot();

        cc.assert_eq_exprs(&b, &c);
        assert!(cc.are_equal(&a, &c));
        cc.undo_to(&snap);

        assert!(cc.are_equal(&a, &b), "outer equality survives the undo");
        assert!(!cc.are_equal(&a, &c), "inner equality is gone");
        // `are_equal` interned `c` again after the undo removed it.
        assert_eq!(cc.len(), len_before + 1);
    }

    #[test]
    fn snapshot_undo_restores_contradiction_flag() {
        let mut g = VarGen::new();
        let x = g.fresh_expr();
        let mut cc = Congruence::new();
        cc.assert_eq_exprs(&x, &Expr::Int(1));
        let snap = cc.snapshot();
        cc.assert_eq_exprs(&x, &Expr::Int(2));
        assert!(cc.contradictory());
        cc.undo_to(&snap);
        assert!(!cc.contradictory());
        assert!(cc.are_equal(&x, &Expr::Int(1)));
    }

    #[test]
    fn nested_snapshots_unwind_one_at_a_time() {
        let mut g = VarGen::new();
        let (a, b, c, d) = (
            g.fresh_expr(),
            g.fresh_expr(),
            g.fresh_expr(),
            g.fresh_expr(),
        );
        let mut cc = Congruence::new();
        let outer = cc.snapshot();
        cc.assert_eq_exprs(&a, &b);
        let inner = cc.snapshot();
        cc.assert_eq_exprs(&c, &d);
        assert!(cc.are_equal(&c, &d));
        cc.undo_to(&inner);
        assert!(cc.are_equal(&a, &b));
        assert!(!cc.are_equal(&c, &d));
        cc.undo_to(&outer);
        assert!(!cc.are_equal(&a, &b));
        assert_eq!(cc.merge_log().len(), 0);
    }

    #[test]
    fn undo_unwinds_injectivity_and_congruence_merges() {
        let mut g = VarGen::new();
        let (x, y) = (g.fresh_expr(), g.fresh_expr());
        let mut cc = Congruence::new();
        let snap = cc.snapshot();
        // Injectivity propagates x ~ y, congruence then f(x) ~ f(y).
        cc.assert_eq_exprs(&Expr::some(x.clone()), &Expr::some(y.clone()));
        let fx = Expr::app("f", vec![x.clone()]);
        let fy = Expr::app("f", vec![y.clone()]);
        assert!(cc.are_equal(&fx, &fy));
        assert!(!cc.merge_log().is_empty());
        cc.undo_to(&snap);
        assert!(!cc.are_equal(&x, &y));
        assert!(!cc.are_equal(&fx, &fy));
    }

    #[test]
    fn seq_literal_length_mismatch_conflicts() {
        let mut g = VarGen::new();
        let x = g.fresh_expr();
        let mut cc = Congruence::new();
        cc.assert_eq_exprs(&Expr::seq(vec![x.clone()]), &Expr::seq(vec![x.clone(), x]));
        assert!(cc.contradictory());
    }

    /// A tiny deterministic linear congruential generator.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 33) % n
        }
    }

    /// A random term over four variables, small ints, `Some`/`None`, tuples,
    /// `f`/`g`, singleton sequences, `++`, `len`, `+`, `==`, `<` and `ite`.
    fn term(g: &mut Lcg, depth: u32) -> Expr {
        let leaf = depth == 0 || g.below(3) == 0;
        if leaf {
            return match g.below(6) {
                0..=2 => Expr::lvar(&format!("x{}", g.below(4))),
                3 | 4 => Expr::Int(g.below(3) as i128),
                _ => Expr::none(),
            };
        }
        let op = g.below(12);
        let mut sub = || term(g, depth - 1);
        match op {
            0 => Expr::some(sub()),
            1 => Expr::tuple(vec![sub(), sub()]),
            2 => Expr::app("f", vec![sub()]),
            3 => Expr::app("g", vec![sub(), sub()]),
            4 => Expr::seq(vec![sub()]),
            5 => Expr::seq_concat(sub(), sub()),
            6 => Expr::seq_len(sub()),
            7 => Expr::add(sub(), sub()),
            8 => Expr::eq(sub(), sub()),
            9 => Expr::lt(sub(), sub()),
            10 => Expr::ite(sub(), sub(), sub()),
            _ => Expr::empty_seq(),
        }
    }

    /// The incremental closure and the full-scan reference, driven in step.
    struct Pair {
        new: Congruence,
        old: reference::Congruence,
        /// Every side of every equality asserted and still in scope.
        sides: Vec<Expr>,
        scopes: Vec<(CcSnapshot, reference::CcSnapshot, usize)>,
    }

    impl Pair {
        /// Compares everything observable; `Err` names the first mismatch.
        fn compare(&mut self) -> Result<(), String> {
            let (c_new, c_old) = (self.new.contradictory(), self.old.contradictory());
            if c_new != c_old {
                return Err(format!("contradictory: new {c_new}, reference {c_old}"));
            }
            if c_new {
                return Ok(());
            }
            for i in 0..self.sides.len() {
                let a = &self.sides[i];
                let (v_new, v_old) = (self.new.value_head_of(a), self.old.value_head_of(a));
                if v_new != v_old {
                    return Err(format!("value_head_of({a}): {v_new:?} vs {v_old:?}"));
                }
                for b in &self.sides[i + 1..] {
                    let (e_new, e_old) = (self.new.are_equal(a, b), self.old.are_equal(a, b));
                    if e_new != e_old {
                        return Err(format!("are_equal({a}, {b}): {e_new} vs {e_old}"));
                    }
                }
            }
            Ok(())
        }
    }

    /// Runs one seeded sequence of asserts, queries, snapshots and undos.
    fn oracle_run(seed: u64) -> Result<(), String> {
        let mut g = Lcg(seed
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493));
        let mut p = Pair {
            new: Congruence::new(),
            old: reference::Congruence::new(),
            sides: Vec::new(),
            scopes: Vec::new(),
        };
        for step in 0..24 {
            match g.below(10) {
                0 | 1 => {
                    let snaps = (p.new.snapshot(), p.old.snapshot(), p.sides.len());
                    p.scopes.push(snaps);
                }
                2 => {
                    if let Some((s_new, s_old, n)) = p.scopes.pop() {
                        p.new.undo_to(&s_new);
                        p.old.undo_to(&s_old);
                        p.sides.truncate(n);
                    }
                }
                3 => {
                    let (a, b) = (term(&mut g, 3), term(&mut g, 3));
                    let (e_new, e_old) = (p.new.are_equal(&a, &b), p.old.are_equal(&a, &b));
                    // Anything is equal in a contradictory closure.
                    if e_new != e_old && !p.new.contradictory() {
                        return Err(format!(
                            "step {step}: are_equal({a}, {b}): {e_new} vs {e_old}"
                        ));
                    }
                }
                _ => {
                    let (a, b) = (term(&mut g, 3), term(&mut g, 2));
                    p.new.assert_eq_exprs(&a, &b);
                    p.old.assert_eq_exprs(&a, &b);
                    p.sides.push(a);
                    p.sides.push(b);
                }
            }
            p.compare().map_err(|m| format!("step {step}: {m}"))?;
        }
        Ok(())
    }

    /// The one-shot and incremental kernel backends share this closure, so
    /// their differential suites cannot see a closure bug: this test checks
    /// it against the full-scan reference it replaced.
    #[test]
    fn closure_oracle_matches_full_scan_reference() {
        let failures: Vec<String> = (0..300u64)
            .filter_map(|seed| oracle_run(seed).err().map(|m| format!("seed {seed}: {m}")))
            .collect();
        assert!(
            failures.is_empty(),
            "{} of 300 seeds disagree; first: {}",
            failures.len(),
            failures[0]
        );
    }
}
