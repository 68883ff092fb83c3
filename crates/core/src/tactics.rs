//! Semi-automatic tactics (§5.3).
//!
//! `mutref_auto_resolve` is the single annotation the paper requires for
//! functional-correctness proofs of functions that mutate through a `&mut`
//! parameter (line 4 of Fig. 8): it applies Mut-Auto-Update (choosing the
//! prophecy value that will let the borrow close), closes the borrow, and
//! applies MutRef-Resolve to obtain the observation relating the current and
//! final values of the reference.
//!
//! `prophecy_auto_update` applies only the Mut-Auto-Update step.

use crate::state::{GRState, PROPH_CONTROLLER, VALUE_OBSERVER};
use gillian_engine::{debug_enabled, Asrt, Bindings, Config, Engine, VerError};
use gillian_solver::{simplify, Expr, Symbol};

/// Finds the guarded predicate or closing token corresponding to the mutable
/// reference `p`. Returns `(pred name, args, is_open, index)`.
fn find_mutref_borrow(cfg: &Config<GRState>, p: &Expr) -> Option<(Symbol, Vec<Expr>, bool, usize)> {
    for (idx, ct) in cfg.closing.iter().enumerate() {
        if ct.pred.as_str().starts_with("mutref_inner") && cfg.must_equal(&ct.args[0], p) {
            return Some((ct.pred, ct.args.clone(), true, idx));
        }
    }
    for (idx, gp) in cfg.guarded.iter().enumerate() {
        if gp.name.as_str().starts_with("mutref_inner") && cfg.must_equal(&gp.args[0], p) {
            return Some((gp.name, gp.args.clone(), false, idx));
        }
    }
    None
}

/// Splits the instantiated borrow-body definition into the prophecy-controller
/// atom and the rest.
fn split_body(asrt: &Asrt) -> (Vec<Asrt>, Option<Asrt>) {
    let mut others = Vec::new();
    let mut pc = None;
    for atom in asrt.atoms() {
        match &atom {
            Asrt::Core { name, .. } if name.as_str() == PROPH_CONTROLLER => pc = Some(atom),
            _ => others.push(atom),
        }
    }
    (others, pc)
}

/// Applies Mut-Auto-Update: re-establishes the invariant of the borrow body,
/// reads the new representation, and moves the value observer and prophecy
/// controller to it. Returns the updated configurations together with the new
/// representation value.
fn mut_auto_update(
    engine: &Engine<GRState>,
    cfg: Config<GRState>,
    pred: Symbol,
    args: &[Expr],
) -> Result<Vec<(Config<GRState>, Expr)>, VerError> {
    let proph = args
        .get(1)
        .cloned()
        .ok_or_else(|| VerError::new("mutable-reference borrow has no prophecy variable"))?;
    let pred_def = engine
        .prog
        .pred(pred)
        .ok_or_else(|| VerError::new(format!("unknown borrow predicate {pred}")))?;
    let inst = engine.freshen_lvars(&pred_def.instantiate(0, args));
    let (others, pc_atom) = split_body(&inst);
    let pc_atom = pc_atom
        .ok_or_else(|| VerError::new("borrow body has no prophecy controller (TS mode?)"))?;
    let others_asrt = Asrt::star(others);
    if debug_enabled() {
        eprintln!("[tactic] consuming borrow body: {others_asrt}");
        eprintln!("[tactic] folded: {:?}", cfg.folded);
        eprintln!("[tactic] path:");
        for f in cfg.ctx.path() {
            eprintln!("    {f}");
        }
    }
    let branches = engine.consume(cfg, Bindings::new(), &others_asrt)?;
    let mut out = Vec::new();
    for (c, b) in branches {
        // The new representation is whatever the prophecy controller atom
        // expects after folding the ownership predicate.
        let a_new = match &pc_atom {
            Asrt::Core { outs, .. } => simplify(&outs[0].subst_lvars(&|s| b.get(&s).cloned())),
            _ => unreachable!(),
        };
        if !a_new.lvars().is_empty() {
            continue;
        }
        // Consume the old observer and controller...
        let old_vo = Expr::LVar(engine.fresh_lvar_name("old_vo"));
        let old_pc = Expr::LVar(engine.fresh_lvar_name("old_pc"));
        let consume_vo_pc = Asrt::star(vec![
            Asrt::Core {
                name: Symbol::new(VALUE_OBSERVER),
                ins: vec![proph.clone()],
                outs: vec![old_vo.clone()],
            },
            Asrt::Core {
                name: Symbol::new(PROPH_CONTROLLER),
                ins: vec![proph.clone()],
                outs: vec![old_pc.clone()],
            },
        ]);
        let consumed = engine.consume(c, b.clone(), &consume_vo_pc)?;
        for (c2, b2) in consumed {
            // ... produce them back at the new representation (Mut-Update) ...
            let produce_vo_pc = Asrt::star(vec![
                Asrt::Core {
                    name: Symbol::new(VALUE_OBSERVER),
                    ins: vec![proph.clone()],
                    outs: vec![a_new.clone()],
                },
                Asrt::Core {
                    name: Symbol::new(PROPH_CONTROLLER),
                    ins: vec![proph.clone()],
                    outs: vec![a_new.clone()],
                },
            ]);
            let mut b3 = b2.clone();
            for c3 in engine.produce(c2, &produce_vo_pc, &mut b3) {
                // ... and restore the borrow-body resources we peeked at.
                let mut b4 = b3.clone();
                for c4 in engine.produce(c3, &others_asrt, &mut b4) {
                    out.push((c4, a_new.clone()));
                }
            }
        }
    }
    if out.is_empty() {
        Err(VerError::new(
            "Mut-Auto-Update failed: could not re-establish the borrow invariant",
        ))
    } else {
        Ok(out)
    }
}

/// Applies MutRef-Resolve: consumes the mutable-reference ownership (value
/// observer and full borrow) and produces the observation that the current
/// value equals the prophecy's final value.
fn mutref_resolve(
    engine: &Engine<GRState>,
    cfg: Config<GRState>,
    pred: Symbol,
    args: &[Expr],
) -> Result<Vec<Config<GRState>>, VerError> {
    let proph = args
        .get(1)
        .cloned()
        .ok_or_else(|| VerError::new("mutable-reference borrow has no prophecy variable"))?;
    let cur = Expr::LVar(engine.fresh_lvar_name("cur"));
    let consume = Asrt::star(vec![
        Asrt::Core {
            name: Symbol::new(VALUE_OBSERVER),
            ins: vec![proph.clone()],
            outs: vec![cur.clone()],
        },
        Asrt::Guarded {
            name: pred,
            lft: Expr::LVar(engine.fresh_lvar_name("lft")),
            args: args.to_vec(),
        },
    ]);
    let branches = engine.consume(cfg, Bindings::new(), &consume)?;
    let mut out = Vec::new();
    for (c, b) in branches {
        let cur_val = simplify(&cur.subst_lvars(&|s| b.get(&s).cloned()));
        let obs = Asrt::Observation(Expr::eq(cur_val, proph.clone()));
        let mut b2 = b.clone();
        out.extend(engine.produce(c, &obs, &mut b2));
    }
    if out.is_empty() {
        Err(VerError::new("MutRef-Resolve produced no feasible state"))
    } else {
        Ok(out)
    }
}

/// The `mutref_auto_resolve!(p)` tactic.
pub fn mutref_auto_resolve(
    engine: &Engine<GRState>,
    cfg: Config<GRState>,
    args: &[Expr],
) -> Result<Vec<Config<GRState>>, VerError> {
    let p = args
        .first()
        .ok_or_else(|| VerError::new("mutref_auto_resolve needs the reference as argument"))?;
    let (pred, bargs, is_open, idx) = find_mutref_borrow(&cfg, p)
        .ok_or_else(|| VerError::new(format!("no mutable-reference borrow found for {p}")))?;
    // Type-safety mode: no prophecies — just close the borrow if it is open.
    if pred.as_str().starts_with("mutref_inner_ts") {
        return if is_open {
            engine.gfold(cfg, idx)
        } else {
            Ok(vec![cfg])
        };
    }
    if !is_open {
        // The reference was never written through: resolve directly.
        return mutref_resolve(engine, cfg, pred, &bargs);
    }
    // 1. Mut-Auto-Update (choosing the new representation automatically).
    let updated = mut_auto_update(engine, cfg, pred, &bargs)?;
    let mut out = Vec::new();
    for (c, _a_new) in updated {
        // 2. Close the borrow (recovering the lifetime token).
        let tok_idx = c
            .closing
            .iter()
            .position(|ct| ct.pred == pred && c.must_equal(&ct.args[0], p))
            .ok_or_else(|| VerError::new("open borrow disappeared during Mut-Auto-Update"))?;
        let closed = engine.gfold(c, tok_idx)?;
        // 3. MutRef-Resolve.
        for c2 in closed {
            out.extend(mutref_resolve(engine, c2, pred, &bargs)?);
        }
    }
    Ok(out)
}

/// The `prophecy_auto_update(p)` tactic: Mut-Auto-Update only.
pub fn prophecy_auto_update(
    engine: &Engine<GRState>,
    cfg: Config<GRState>,
    args: &[Expr],
) -> Result<Vec<Config<GRState>>, VerError> {
    let p = args
        .first()
        .ok_or_else(|| VerError::new("prophecy_auto_update needs the reference as argument"))?;
    let (pred, bargs, is_open, _idx) = find_mutref_borrow(&cfg, p)
        .ok_or_else(|| VerError::new(format!("no mutable-reference borrow found for {p}")))?;
    if !is_open {
        return Ok(vec![cfg]);
    }
    let updated = mut_auto_update(engine, cfg, pred, &bargs)?;
    Ok(updated.into_iter().map(|(c, _)| c).collect())
}
