//! The Gillian-Rust state model: σ = (h, ξ, γ, φ, χ).
//!
//! * `h` — the symbolic heap ([`crate::heap`], §3);
//! * `ξ` — the lifetime context (lifetime tokens, Fig. 3, §4.1);
//! * `γ` — the guarded-predicate context, handled generically by the engine
//!   ([`gillian_engine::Config::guarded`], §4.2);
//! * `φ` — the observation context (a secondary path condition, §5.2);
//! * `χ` — the prophecy context (value observers and prophecy controllers,
//!   §5.3).
//!
//! The state exposes *actions* (used by compiled code: alloc, load, store,
//! free, option destructuring, lifetime creation, ...) and *core predicates*
//! (typed points-to, uninit, slices, lifetime tokens, observations, value
//! observers and prophecy controllers), each with a consumer and a producer.

use crate::heap::{Heap, HeapError};
use crate::types::{Address, Types};
use gillian_engine::{
    ActionOk, ActionResult, ConsumeOk, ConsumeResult, ProduceOk, PureCtx, StateModel,
};
use gillian_solver::{simplify, Expr, SVar, Symbol};
use rust_ir::Ty;
use std::collections::BTreeMap;

// Core-predicate names.
pub const POINTS_TO: &str = "points_to";
pub const UNINIT: &str = "uninit";
pub const POINTS_TO_SLICE: &str = "points_to_slice";
pub const UNINIT_SLICE: &str = "uninit_slice";
pub const LFT_TOKEN: &str = gillian_engine::LFT_TOKEN;
pub const LFT_DEAD: &str = "lft_dead";
pub const OBSERVATION: &str = "observation";
pub const VALUE_OBSERVER: &str = "value_observer";
pub const PROPH_CONTROLLER: &str = "proph_controller";

/// The status of a lifetime in the lifetime context ξ.
#[derive(Clone, Debug, PartialEq)]
pub enum LftEntry {
    /// The token is owned with the given fraction.
    Alive(Expr),
    /// The lifetime has ended; `[†κ]` is persistent.
    Dead,
}

/// The lifetime context.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LifetimeCtx {
    entries: Vec<(Expr, LftEntry)>,
}

impl LifetimeCtx {
    fn find(&self, lft: &Expr, ctx: &PureCtx<'_>) -> Option<usize> {
        self.entries
            .iter()
            .position(|(l, _)| ctx.must_equal(l, lft))
    }
}

/// One entry of the prophecy context χ: the current value and whether the
/// value observer / prophecy controller resources are present in the state.
#[derive(Clone, Debug, PartialEq)]
pub struct ProphEntry {
    pub value: Expr,
    pub observer: bool,
    pub controller: bool,
}

/// The Gillian-Rust symbolic state.
#[derive(Clone, Debug)]
pub struct GRState {
    pub types: Types,
    pub heap: Heap,
    pub lifetimes: LifetimeCtx,
    /// The observation context φ: a conjunction of pure facts about prophecy
    /// (and ordinary symbolic) variables.
    pub observations: Vec<Expr>,
    /// The prophecy context χ, keyed by the prophecy variable.
    pub prophecies: BTreeMap<SVar, ProphEntry>,
}

impl GRState {
    /// Creates a state for the given type registry.
    pub fn with_types(types: Types) -> GRState {
        GRState {
            types,
            heap: Heap::new(),
            lifetimes: LifetimeCtx::default(),
            observations: Vec::new(),
            prophecies: BTreeMap::new(),
        }
    }

    fn resolve_ty(&self, e: &Expr) -> Result<Ty, String> {
        self.types
            .resolve_expr(e)
            .ok_or_else(|| format!("not a type identifier: {e}"))
    }

    fn resolve_addr(&self, e: &Expr, ctx: &PureCtx<'_>) -> Result<Address, HeapError> {
        self.heap
            .resolve_ptr(e, ctx, &self.types)
            .ok_or_else(|| HeapError::Missing {
                msg: format!("pointer {e} has no known allocation"),
                hint: e.clone(),
            })
    }

    fn proph_var(e: &Expr) -> Option<SVar> {
        match simplify(e) {
            Expr::Var(v) => Some(v),
            _ => None,
        }
    }

    fn ok_action(&self, heap: Heap, value: Expr, facts: Vec<Expr>) -> ActionResult<GRState> {
        let mut s = self.clone();
        s.heap = heap;
        ActionResult::Ok(vec![ActionOk {
            state: s,
            value,
            facts,
        }])
    }
}

impl PartialEq for GRState {
    fn eq(&self, other: &Self) -> bool {
        self.heap == other.heap
            && self.lifetimes == other.lifetimes
            && self.observations == other.observations
            && self.prophecies == other.prophecies
    }
}

/// Type-range facts for a value loaded at an integer type: a well-typed
/// heap only holds inhabitants, so `usize` loads learn `0 <= v <= MAX` —
/// exactly what overflow/underflow range checks on field reads need (e.g.
/// `pop_front`'s `self.len - 1`, where nothing else bounds the field).
fn int_range_facts(ty: &Ty, v: &Expr) -> Vec<Expr> {
    match ty {
        Ty::Int(ity) if !matches!(v, Expr::Int(_)) => vec![
            Expr::le(Expr::Int(ity.min()), v.clone()),
            Expr::le(v.clone(), Expr::Int(ity.max())),
        ],
        _ => vec![],
    }
}

fn heap_err_to_action(e: HeapError) -> ActionResult<GRState> {
    match e {
        HeapError::Missing { msg, hint } => ActionResult::Missing {
            msg,
            hint: vec![hint],
        },
        HeapError::Error(msg) => ActionResult::Error(msg),
        HeapError::Vanish => ActionResult::Ok(vec![]),
    }
}

fn heap_err_to_consume(e: HeapError) -> ConsumeResult<GRState> {
    match e {
        HeapError::Missing { msg, hint } => ConsumeResult::Missing {
            msg,
            hint: vec![hint],
        },
        HeapError::Error(msg) => ConsumeResult::Error(msg),
        HeapError::Vanish => ConsumeResult::Ok(vec![]),
    }
}

impl StateModel for GRState {
    fn empty() -> Self {
        // An "empty" state still needs a type registry; verification drivers
        // always construct states through `with_types`, and the engine only
        // calls `empty()` for `Config::new()`, whose state is immediately
        // replaced. A registry over an empty program keeps this safe.
        GRState::with_types(crate::types::TypeRegistry::new(
            rust_ir::Program::new("empty"),
            rust_ir::LayoutOracle::default(),
        ))
    }

    fn exec_action(
        &self,
        name: Symbol,
        args: &[Expr],
        ctx: &mut PureCtx<'_>,
    ) -> ActionResult<Self> {
        match name.as_str() {
            // alloc(ty) -> fresh pointer
            "alloc" => {
                let ty = match self.resolve_ty(&args[0]) {
                    Ok(t) => t,
                    Err(e) => return ActionResult::Error(e),
                };
                let mut heap = self.heap.clone();
                let addr = heap.alloc(ty);
                self.ok_action(heap, addr.to_expr(), vec![])
            }
            // alloc_array(elem_ty, count) -> fresh pointer
            "alloc_array" => {
                let ty = match self.resolve_ty(&args[0]) {
                    Ok(t) => t,
                    Err(e) => return ActionResult::Error(e),
                };
                let mut heap = self.heap.clone();
                let addr = heap.alloc_array(ty, args[1].clone());
                self.ok_action(heap, addr.to_expr(), vec![])
            }
            // free(ptr, ty)
            "free" => {
                let addr = match self.resolve_addr(&args[0], ctx) {
                    Ok(a) => a,
                    Err(e) => return heap_err_to_action(e),
                };
                let mut heap = self.heap.clone();
                match heap.free(&addr, args[0].clone()) {
                    Ok(()) => self.ok_action(heap, Expr::Unit, vec![]),
                    Err(e) => heap_err_to_action(e),
                }
            }
            // load(ptr, ty) -> value
            "load" => {
                let ty = match self.resolve_ty(&args[1]) {
                    Ok(t) => t,
                    Err(e) => return ActionResult::Error(e),
                };
                let addr = match self.resolve_addr(&args[0], ctx) {
                    Ok(a) => a,
                    Err(e) => return heap_err_to_action(e),
                };
                let mut heap = self.heap.clone();
                match heap.load(&addr, &ty, &self.types, ctx) {
                    Ok(v) => {
                        let facts = int_range_facts(&ty, &v);
                        self.ok_action(heap, v, facts)
                    }
                    Err(e) => heap_err_to_action(e),
                }
            }
            // load_move(ptr, ty) -> value, deinitialising the source
            "load_move" => {
                let ty = match self.resolve_ty(&args[1]) {
                    Ok(t) => t,
                    Err(e) => return ActionResult::Error(e),
                };
                let addr = match self.resolve_addr(&args[0], ctx) {
                    Ok(a) => a,
                    Err(e) => return heap_err_to_action(e),
                };
                let mut heap = self.heap.clone();
                match heap.move_out(&addr, &ty, &self.types, ctx) {
                    Ok(v) => {
                        let facts = int_range_facts(&ty, &v);
                        self.ok_action(heap, v, facts)
                    }
                    Err(e) => heap_err_to_action(e),
                }
            }
            // store(ptr, ty, value)
            "store" => {
                let ty = match self.resolve_ty(&args[1]) {
                    Ok(t) => t,
                    Err(e) => return ActionResult::Error(e),
                };
                let addr = match self.resolve_addr(&args[0], ctx) {
                    Ok(a) => a,
                    Err(e) => return heap_err_to_action(e),
                };
                let mut heap = self.heap.clone();
                match heap.store(&addr, &ty, args[2].clone(), &self.types, ctx) {
                    Ok(()) => self.ok_action(heap, Expr::Unit, vec![]),
                    Err(e) => heap_err_to_action(e),
                }
            }
            // retype_array(ptr, new_elem_ty, new_count)
            "retype_array" => {
                let ty = match self.resolve_ty(&args[1]) {
                    Ok(t) => t,
                    Err(e) => return ActionResult::Error(e),
                };
                let addr = match self.resolve_addr(&args[0], ctx) {
                    Ok(a) => a,
                    Err(e) => return heap_err_to_action(e),
                };
                let mut heap = self.heap.clone();
                match heap.retype_array(&addr, ty, args[2].clone(), args[0].clone()) {
                    Ok(()) => self.ok_action(heap, args[0].clone(), vec![]),
                    Err(e) => heap_err_to_action(e),
                }
            }
            // copy_slice(src, dst, elem_ty, count)
            "copy_slice" => {
                let ty = match self.resolve_ty(&args[2]) {
                    Ok(t) => t,
                    Err(e) => return ActionResult::Error(e),
                };
                let src = match self.resolve_addr(&args[0], ctx) {
                    Ok(a) => a,
                    Err(e) => return heap_err_to_action(e),
                };
                let dst = match self.resolve_addr(&args[1], ctx) {
                    Ok(a) => a,
                    Err(e) => return heap_err_to_action(e),
                };
                let mut heap = self.heap.clone();
                match heap.copy_slice(&src, &dst, &ty, &args[3], &self.types, ctx) {
                    Ok(()) => self.ok_action(heap, Expr::Unit, vec![]),
                    Err(e) => heap_err_to_action(e),
                }
            }
            // unwrap_option(v) -> payload, assuming v == Some(payload)
            "unwrap_option" => {
                let payload = ctx.fresh();
                let fact = Expr::eq(args[0].clone(), Expr::some(payload.clone()));
                ActionResult::Ok(vec![ActionOk {
                    state: self.clone(),
                    value: payload,
                    facts: vec![fact],
                }])
            }
            // destruct_struct(v, ty) -> the same value, assuming it has
            // constructor form (used for pure field access).
            "destruct_struct" => {
                let ty = match self.resolve_ty(&args[1]) {
                    Ok(t) => t,
                    Err(e) => return ActionResult::Error(e),
                };
                let Some((tag, fields)) = self.types.struct_info(&ty) else {
                    return ActionResult::Error(format!("{ty} is not a struct type"));
                };
                let field_vals: Vec<Expr> = (0..fields.len()).map(|_| ctx.fresh()).collect();
                let ctor = Expr::ctor(&format!("struct::{tag}"), field_vals);
                let fact = Expr::eq(args[0].clone(), ctor.clone());
                ActionResult::Ok(vec![ActionOk {
                    state: self.clone(),
                    value: ctor,
                    facts: vec![fact],
                }])
            }
            // new_lft() -> a fresh, alive lifetime with full token ownership
            "new_lft" => {
                let lft = ctx.fresh();
                let mut s = self.clone();
                s.lifetimes
                    .entries
                    .push((lft.clone(), LftEntry::Alive(Expr::Int(1))));
                ActionResult::Ok(vec![ActionOk {
                    state: s,
                    value: lft,
                    facts: vec![],
                }])
            }
            // kill_lft(κ): requires full ownership of the token
            "kill_lft" => {
                let mut s = self.clone();
                match s.lifetimes.find(&args[0], ctx) {
                    Some(idx) => {
                        s.lifetimes.entries[idx].1 = LftEntry::Dead;
                        ActionResult::Ok(vec![ActionOk {
                            state: s,
                            value: Expr::Unit,
                            facts: vec![],
                        }])
                    }
                    None => ActionResult::Missing {
                        msg: format!("no lifetime token for {}", args[0]),
                        hint: vec![args[0].clone()],
                    },
                }
            }
            other => ActionResult::Error(format!("unknown action {other}")),
        }
    }

    fn consume_core(
        &self,
        name: Symbol,
        ins: &[Expr],
        ctx: &mut PureCtx<'_>,
    ) -> ConsumeResult<Self> {
        match name.as_str() {
            POINTS_TO => {
                let ty = match self.resolve_ty(&ins[1]) {
                    Ok(t) => t,
                    Err(e) => return ConsumeResult::Error(e),
                };
                let addr = match self.resolve_addr(&ins[0], ctx) {
                    Ok(a) => a,
                    Err(e) => return heap_err_to_consume(e),
                };
                let mut heap = self.heap.clone();
                match heap.take(&addr, &ty, &self.types, ctx) {
                    Ok(v) => {
                        let mut s = self.clone();
                        s.heap = heap;
                        ConsumeResult::Ok(vec![ConsumeOk {
                            state: s,
                            outs: vec![v],
                            facts: vec![],
                        }])
                    }
                    Err(e) => heap_err_to_consume(e),
                }
            }
            UNINIT => {
                let ty = match self.resolve_ty(&ins[1]) {
                    Ok(t) => t,
                    Err(e) => return ConsumeResult::Error(e),
                };
                let addr = match self.resolve_addr(&ins[0], ctx) {
                    Ok(a) => a,
                    Err(e) => return heap_err_to_consume(e),
                };
                let mut heap = self.heap.clone();
                match heap.take_uninit(&addr, &ty, &self.types, ctx) {
                    Ok(()) => {
                        let mut s = self.clone();
                        s.heap = heap;
                        ConsumeResult::Ok(vec![ConsumeOk {
                            state: s,
                            outs: vec![],
                            facts: vec![],
                        }])
                    }
                    Err(e) => heap_err_to_consume(e),
                }
            }
            POINTS_TO_SLICE => {
                let ty = match self.resolve_ty(&ins[1]) {
                    Ok(t) => t,
                    Err(e) => return ConsumeResult::Error(e),
                };
                let addr = match self.resolve_addr(&ins[0], ctx) {
                    Ok(a) => a,
                    Err(e) => return heap_err_to_consume(e),
                };
                let mut heap = self.heap.clone();
                match heap.take_slice(&addr, &ty, &ins[2], &self.types, ctx) {
                    Ok(vals) => {
                        let mut s = self.clone();
                        s.heap = heap;
                        ConsumeResult::Ok(vec![ConsumeOk {
                            state: s,
                            outs: vec![vals],
                            facts: vec![],
                        }])
                    }
                    Err(e) => heap_err_to_consume(e),
                }
            }
            UNINIT_SLICE => {
                let ty = match self.resolve_ty(&ins[1]) {
                    Ok(t) => t,
                    Err(e) => return ConsumeResult::Error(e),
                };
                let addr = match self.resolve_addr(&ins[0], ctx) {
                    Ok(a) => a,
                    Err(e) => return heap_err_to_consume(e),
                };
                let mut heap = self.heap.clone();
                match heap.take_uninit_slice(&addr, &ty, &ins[2], &self.types, ctx) {
                    Ok(()) => {
                        let mut s = self.clone();
                        s.heap = heap;
                        ConsumeResult::Ok(vec![ConsumeOk {
                            state: s,
                            outs: vec![],
                            facts: vec![],
                        }])
                    }
                    Err(e) => heap_err_to_consume(e),
                }
            }
            LFT_TOKEN => {
                // Lft-Consume: take the owned fraction of an alive lifetime.
                match self.lifetimes.find(&ins[0], ctx) {
                    Some(idx) => match self.lifetimes.entries[idx].1.clone() {
                        LftEntry::Alive(q) => {
                            let mut s = self.clone();
                            s.lifetimes.entries.remove(idx);
                            ConsumeResult::Ok(vec![ConsumeOk {
                                state: s,
                                outs: vec![q],
                                facts: vec![],
                            }])
                        }
                        LftEntry::Dead => {
                            ConsumeResult::Error(format!("lifetime {} has already ended", ins[0]))
                        }
                    },
                    None => ConsumeResult::Missing {
                        msg: format!("no alive token for lifetime {}", ins[0]),
                        hint: vec![ins[0].clone()],
                    },
                }
            }
            LFT_DEAD => {
                // Lft-Consume-Exp: the dead token is persistent, so consuming
                // it does not modify the context.
                match self.lifetimes.find(&ins[0], ctx) {
                    Some(idx) if self.lifetimes.entries[idx].1 == LftEntry::Dead => {
                        ConsumeResult::Ok(vec![ConsumeOk {
                            state: self.clone(),
                            outs: vec![],
                            facts: vec![],
                        }])
                    }
                    _ => ConsumeResult::Missing {
                        msg: format!("lifetime {} is not known to be dead", ins[0]),
                        hint: vec![ins[0].clone()],
                    },
                }
            }
            OBSERVATION => {
                // Observation-Consume: π ∧ φ must entail the observation. The
                // engine asserts observations into the path as they are
                // produced; re-asserting φ in a transient scope keeps the
                // check correct when the state model is driven directly.
                if ctx.entails_under(&self.observations, &ins[0]) {
                    ConsumeResult::Ok(vec![ConsumeOk {
                        state: self.clone(),
                        outs: vec![],
                        facts: vec![],
                    }])
                } else {
                    // The entailment may only be missing pure facts that are
                    // still hidden inside folded (pure) ownership predicates,
                    // e.g. `own_usize(a, #a_repr)` holding `a == #a_repr`.
                    // Hand the observation back as the recovery hint so the
                    // engine unfolds the related predicates and retries.
                    ConsumeResult::Missing {
                        msg: format!("observation not entailed: {}", ins[0]),
                        hint: vec![ins[0].clone()],
                    }
                }
            }
            VALUE_OBSERVER => {
                let Some(x) = Self::proph_var(&ins[0]) else {
                    return ConsumeResult::Error(format!(
                        "value observer of a non-variable prophecy {}",
                        ins[0]
                    ));
                };
                match self.prophecies.get(&x) {
                    Some(entry) if entry.observer => {
                        let mut s = self.clone();
                        let e = s.prophecies.get_mut(&x).unwrap();
                        e.observer = false;
                        let value = entry.value.clone();
                        ConsumeResult::Ok(vec![ConsumeOk {
                            state: s,
                            outs: vec![value],
                            facts: vec![],
                        }])
                    }
                    _ => ConsumeResult::Missing {
                        msg: format!("no value observer for prophecy {}", ins[0]),
                        hint: vec![ins[0].clone()],
                    },
                }
            }
            PROPH_CONTROLLER => {
                let Some(x) = Self::proph_var(&ins[0]) else {
                    return ConsumeResult::Error(format!(
                        "prophecy controller of a non-variable prophecy {}",
                        ins[0]
                    ));
                };
                match self.prophecies.get(&x) {
                    Some(entry) if entry.controller => {
                        let mut s = self.clone();
                        let e = s.prophecies.get_mut(&x).unwrap();
                        e.controller = false;
                        let value = entry.value.clone();
                        ConsumeResult::Ok(vec![ConsumeOk {
                            state: s,
                            outs: vec![value],
                            facts: vec![],
                        }])
                    }
                    _ => ConsumeResult::Missing {
                        msg: format!("no prophecy controller for prophecy {}", ins[0]),
                        hint: vec![ins[0].clone()],
                    },
                }
            }
            other => ConsumeResult::Error(format!("unknown core predicate {other}")),
        }
    }

    fn produce_core(
        &self,
        name: Symbol,
        ins: &[Expr],
        outs: &[Expr],
        ctx: &mut PureCtx<'_>,
    ) -> Vec<ProduceOk<Self>> {
        let one = |state: GRState, facts: Vec<Expr>| vec![ProduceOk { state, facts }];
        match name.as_str() {
            POINTS_TO => {
                let Ok(ty) = self.resolve_ty(&ins[1]) else {
                    return vec![];
                };
                let mut s = self.clone();
                let (addr, facts) = s.heap.resolve_ptr_or_bind(&ins[0], ctx, &self.types);
                let value = outs.first().cloned().unwrap_or_else(|| ctx.fresh());
                match s.heap.give(&addr, &ty, value, &self.types, ctx) {
                    Ok(()) => one(s, facts),
                    Err(_) => vec![],
                }
            }
            UNINIT => {
                let Ok(ty) = self.resolve_ty(&ins[1]) else {
                    return vec![];
                };
                let mut s = self.clone();
                let (addr, facts) = s.heap.resolve_ptr_or_bind(&ins[0], ctx, &self.types);
                match s.heap.give_uninit(&addr, &ty, &self.types, ctx) {
                    Ok(()) => one(s, facts),
                    Err(_) => vec![],
                }
            }
            POINTS_TO_SLICE => {
                let Ok(ty) = self.resolve_ty(&ins[1]) else {
                    return vec![];
                };
                let mut s = self.clone();
                let (addr, mut facts) = s.heap.resolve_ptr_or_bind(&ins[0], ctx, &self.types);
                let vals = outs.first().cloned().unwrap_or_else(|| ctx.fresh());
                facts.push(Expr::eq(Expr::seq_len(vals.clone()), ins[2].clone()));
                match s
                    .heap
                    .give_slice(&addr, &ty, &ins[2], vals, &self.types, ctx)
                {
                    Ok(()) => one(s, facts),
                    Err(_) => vec![],
                }
            }
            UNINIT_SLICE => {
                let Ok(ty) = self.resolve_ty(&ins[1]) else {
                    return vec![];
                };
                let mut s = self.clone();
                let (addr, facts) = s.heap.resolve_ptr_or_bind(&ins[0], ctx, &self.types);
                match s
                    .heap
                    .give_uninit_slice(&addr, &ty, &ins[2], &self.types, ctx)
                {
                    Ok(()) => one(s, facts),
                    Err(_) => vec![],
                }
            }
            LFT_TOKEN => {
                // Lft-Produce-Alive-Add / Lft-Produce-Own-End (Fig. 3).
                let frac = outs.first().cloned().unwrap_or(Expr::Int(1));
                let mut s = self.clone();
                match s.lifetimes.find(&ins[0], ctx) {
                    Some(idx) => match s.lifetimes.entries[idx].1.clone() {
                        LftEntry::Dead => vec![], // vanishes
                        LftEntry::Alive(q) => {
                            let combined = simplify(&Expr::add(q, frac));
                            s.lifetimes.entries[idx].1 = LftEntry::Alive(combined.clone());
                            one(s, vec![Expr::le(combined, Expr::Int(1))])
                        }
                    },
                    None => {
                        s.lifetimes
                            .entries
                            .push((ins[0].clone(), LftEntry::Alive(frac.clone())));
                        one(
                            s,
                            vec![
                                Expr::lt(Expr::Int(0), frac.clone()),
                                Expr::le(frac, Expr::Int(1)),
                            ],
                        )
                    }
                }
            }
            LFT_DEAD => {
                let mut s = self.clone();
                match s.lifetimes.find(&ins[0], ctx) {
                    Some(idx) => match s.lifetimes.entries[idx].1 {
                        LftEntry::Alive(_) => vec![], // [κ]_q ∗ [†κ] ⇒ False
                        LftEntry::Dead => one(s, vec![]),
                    },
                    None => {
                        s.lifetimes.entries.push((ins[0].clone(), LftEntry::Dead));
                        one(s, vec![])
                    }
                }
            }
            OBSERVATION => {
                // Observation-Produce: keep π ∧ φ satisfiable, otherwise the
                // production vanishes. The observation is returned as a fact
                // so the engine asserts φ into the solver context alongside
                // the path condition (§5.2: φ is a secondary path condition).
                if !ctx.possibly_under(&self.observations, &ins[0]) {
                    vec![]
                } else {
                    let mut s = self.clone();
                    s.observations.push(ins[0].clone());
                    one(s, vec![ins[0].clone()])
                }
            }
            VALUE_OBSERVER => {
                let Some(x) = Self::proph_var(&ins[0]) else {
                    return vec![];
                };
                let value = outs.first().cloned().unwrap_or_else(|| ctx.fresh());
                let mut s = self.clone();
                match s.prophecies.get_mut(&x) {
                    None => {
                        s.prophecies.insert(
                            x,
                            ProphEntry {
                                value,
                                observer: true,
                                controller: false,
                            },
                        );
                        one(s, vec![])
                    }
                    // Neither half is owned: the tracked value is stale and
                    // may be re-bound (this is what makes Mut-Update work).
                    Some(entry) if !entry.observer && !entry.controller => {
                        entry.observer = true;
                        entry.value = value;
                        one(s, vec![])
                    }
                    // The controller is present: Mut-Agree forces equality.
                    Some(entry) if !entry.observer => {
                        entry.observer = true;
                        let fact = Expr::eq(value, entry.value.clone());
                        one(s, vec![fact])
                    }
                    Some(_) => vec![], // duplicated exclusive resource
                }
            }
            PROPH_CONTROLLER => {
                let Some(x) = Self::proph_var(&ins[0]) else {
                    return vec![];
                };
                let value = outs.first().cloned().unwrap_or_else(|| ctx.fresh());
                let mut s = self.clone();
                match s.prophecies.get_mut(&x) {
                    None => {
                        s.prophecies.insert(
                            x,
                            ProphEntry {
                                value,
                                observer: false,
                                controller: true,
                            },
                        );
                        one(s, vec![])
                    }
                    // Neither half is owned: the tracked value may be re-bound.
                    Some(entry) if !entry.observer && !entry.controller => {
                        entry.controller = true;
                        entry.value = value;
                        one(s, vec![])
                    }
                    // The observer is present: Mut-Agree forces equality.
                    Some(entry) if !entry.controller => {
                        entry.controller = true;
                        let fact = Expr::eq(value, entry.value.clone());
                        one(s, vec![fact])
                    }
                    Some(_) => vec![],
                }
            }
            _ => vec![],
        }
    }

    fn core_arity(&self, name: Symbol) -> Option<(usize, usize)> {
        match name.as_str() {
            POINTS_TO => Some((2, 1)),
            UNINIT => Some((2, 0)),
            POINTS_TO_SLICE => Some((3, 1)),
            UNINIT_SLICE => Some((3, 0)),
            LFT_TOKEN => Some((1, 1)),
            LFT_DEAD => Some((1, 0)),
            OBSERVATION => Some((1, 0)),
            VALUE_OBSERVER | PROPH_CONTROLLER => Some((1, 1)),
            _ => None,
        }
    }

    fn is_empty_heap(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
#[allow(clippy::cloned_ref_to_slice_refs)]
mod tests {
    use super::*;
    use crate::types::TypeRegistry;
    use gillian_solver::Solver;
    use rust_ir::{LayoutOracle, Program};

    fn state() -> GRState {
        GRState::with_types(TypeRegistry::new(
            Program::new("t"),
            LayoutOracle::default(),
        ))
    }

    fn run<R>(f: impl FnOnce(&GRState, &mut PureCtx<'_>) -> R) -> R {
        let solver = Solver::new();
        let s = state();
        gillian_engine::with_pure_ctx(&solver, |ctx| f(&s, ctx))
    }

    #[test]
    fn alloc_store_load_via_actions() {
        run(|s, ctx| {
            let usize_ty = s.types.intern(&Ty::usize()).to_expr();
            let ActionResult::Ok(outs) =
                s.exec_action(Symbol::new("alloc"), &[usize_ty.clone()], ctx)
            else {
                panic!("alloc failed")
            };
            let ptr = outs[0].value.clone();
            let s1 = outs[0].state.clone();
            let ActionResult::Ok(outs) = s1.exec_action(
                Symbol::new("store"),
                &[ptr.clone(), usize_ty.clone(), Expr::Int(5)],
                ctx,
            ) else {
                panic!("store failed")
            };
            let s2 = outs[0].state.clone();
            let ActionResult::Ok(outs) = s2.exec_action(Symbol::new("load"), &[ptr, usize_ty], ctx)
            else {
                panic!("load failed")
            };
            assert_eq!(outs[0].value, Expr::Int(5));
        });
    }

    #[test]
    fn load_of_unknown_pointer_is_missing_with_hint() {
        run(|s, ctx| {
            let usize_ty = s.types.intern(&Ty::usize()).to_expr();
            let p = ctx.fresh();
            match s.exec_action(Symbol::new("load"), &[p.clone(), usize_ty], ctx) {
                ActionResult::Missing { hint, .. } => assert_eq!(hint, vec![p]),
                other => panic!("expected missing, got {other:?}"),
            }
        });
    }

    #[test]
    fn lifetime_token_rules() {
        run(|s, ctx| {
            let kappa = ctx.fresh();
            // Produce a full token, then consume it back.
            let produced = s.produce_core(
                Symbol::new(LFT_TOKEN),
                &[kappa.clone()],
                &[Expr::Int(1)],
                ctx,
            );
            assert_eq!(produced.len(), 1);
            let s1 = produced[0].state.clone();
            match s1.consume_core(Symbol::new(LFT_TOKEN), &[kappa.clone()], ctx) {
                ConsumeResult::Ok(outs) => assert_eq!(outs[0].outs, vec![Expr::Int(1)]),
                other => panic!("expected ok, got {other:?}"),
            }
            // Producing an alive token for a dead lifetime vanishes.
            let dead = s.produce_core(Symbol::new(LFT_DEAD), &[kappa.clone()], &[], ctx);
            let s2 = dead[0].state.clone();
            let vanished = s2.produce_core(Symbol::new(LFT_TOKEN), &[kappa], &[Expr::Int(1)], ctx);
            assert!(vanished.is_empty());
        });
    }

    #[test]
    fn observation_produce_and_consume() {
        run(|s, ctx| {
            let x = ctx.fresh();
            let obs = Expr::lt(x.clone(), Expr::Int(10));
            let produced = s.produce_core(Symbol::new(OBSERVATION), &[obs], &[], ctx);
            assert_eq!(produced.len(), 1);
            let s1 = produced[0].state.clone();
            // Entailed observation is consumable.
            match s1.consume_core(
                Symbol::new(OBSERVATION),
                &[Expr::lt(x.clone(), Expr::Int(20))],
                ctx,
            ) {
                ConsumeResult::Ok(_) => {}
                other => panic!("expected ok, got {other:?}"),
            }
            // Contradictory observation production vanishes.
            let vanished = s1.produce_core(
                Symbol::new(OBSERVATION),
                &[Expr::lt(Expr::Int(20), x)],
                &[],
                ctx,
            );
            assert!(vanished.is_empty());
        });
    }

    #[test]
    fn prophecy_observer_controller_agree() {
        run(|s, ctx| {
            let x = match ctx.fresh() {
                Expr::Var(v) => v,
                _ => unreachable!(),
            };
            let a = ctx.fresh();
            let b = ctx.fresh();
            // Produce the observer with value a, then the controller with
            // value b: Mut-Agree forces a == b.
            let p1 = s.produce_core(
                Symbol::new(VALUE_OBSERVER),
                &[Expr::Var(x)],
                &[a.clone()],
                ctx,
            );
            let s1 = p1[0].state.clone();
            let p2 = s1.produce_core(
                Symbol::new(PROPH_CONTROLLER),
                &[Expr::Var(x)],
                &[b.clone()],
                ctx,
            );
            assert_eq!(p2.len(), 1);
            assert!(p2[0].facts.contains(&Expr::eq(b, a)));
        });
    }

    #[test]
    fn unwrap_option_learns_some() {
        run(|s, ctx| {
            let v = ctx.fresh();
            match s.exec_action(Symbol::new("unwrap_option"), &[v.clone()], ctx) {
                ActionResult::Ok(outs) => {
                    assert_eq!(outs.len(), 1);
                    let fact = &outs[0].facts[0];
                    assert!(
                        matches!(fact, Expr::BinOp(gillian_solver::BinOp::Eq, a, _) if a.as_ref() == &v)
                    );
                }
                other => panic!("expected ok, got {other:?}"),
            }
        });
    }
}
