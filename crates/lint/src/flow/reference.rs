//! The round-robin flow pass over `BTreeSet<Symbol>`, kept as a test oracle
//! for the bitset worklist pass in the parent module.
//!
//! Both dataflow fixpoints here sweep every command until nothing changes,
//! recomputing each command's reads on every sweep and copying a set for
//! every predecessor edge. Slow, but each step is easy to check by eye; the
//! worklist pass must report the same diagnostics, in the same order (see
//! the `flow_oracle` test).

use crate::{ItemKind, LintDiagnostic, LintSpan, Severity};
use gillian_engine::cfg::Cfg;
use gillian_engine::gil::{Cmd, Proc};
use gillian_solver::{Expr, Symbol};
use std::collections::BTreeSet;

/// Program variables read by a command. `Return` additionally reads every
/// parameter: specification postconditions are evaluated against the final
/// variable store, so parameter values stay observable to the end.
fn reads(cmd: &Cmd, params: &[Symbol]) -> BTreeSet<Symbol> {
    let mut out = BTreeSet::new();
    let mut add = |e: &Expr| out.extend(e.pvars());
    match cmd {
        Cmd::Assign(_, e) => add(e),
        Cmd::Action { args, .. } | Cmd::Call { args, .. } => {
            for a in args {
                add(a);
            }
        }
        Cmd::GotoIf { guard, .. } => add(guard),
        Cmd::Logic(l) => l.visit_exprs(&mut |e| out.extend(e.pvars())),
        Cmd::Return(e) => {
            add(e);
            out.extend(params.iter().copied());
        }
        Cmd::Goto(_) | Cmd::Fail(_) | Cmd::Skip => {}
    }
    out
}

/// The program variable a command assigns, if any.
fn def(cmd: &Cmd) -> Option<Symbol> {
    match cmd {
        Cmd::Assign(x, _) => Some(*x),
        Cmd::Action { lhs, .. } | Cmd::Call { lhs, .. } => Some(*lhs),
        _ => None,
    }
}

/// Runs the control-flow and def-use passes over one procedure.
pub(super) fn lint_proc_flow(proc: &Proc) -> Vec<LintDiagnostic> {
    let name = proc.name.as_str();
    let len = proc.body.len();
    let mut diags = Vec::new();

    if len == 0 {
        diags.push(LintDiagnostic::new(
            "GL003",
            Severity::Error,
            LintSpan::item(ItemKind::Proc, name),
            "procedure body is empty; control falls off the end",
        ));
        return diags;
    }

    // GL001: out-of-range targets. The shared CFG builder records and drops
    // invalid edges, so the reachability and dataflow passes below always
    // run on a well-formed graph.
    let cfg = Cfg::new(&proc.body);
    for &(i, t) in &cfg.out_of_range {
        diags.push(LintDiagnostic::new(
            "GL001",
            Severity::Error,
            LintSpan::at(ItemKind::Proc, name, i),
            format!("goto target {t} is out of range (body has {len} commands)"),
        ));
    }
    let succs = &cfg.succs;
    let reachable = &cfg.reachable;

    // GL002: unreachable commands, reported as maximal runs.
    let mut i = 0;
    while i < len {
        if reachable[i] {
            i += 1;
            continue;
        }
        let start = i;
        while i < len && !reachable[i] {
            i += 1;
        }
        let msg = if i - start == 1 {
            format!("command {start} is unreachable ({})", proc.body[start])
        } else {
            format!("commands {start}..{} are unreachable", i - 1)
        };
        diags.push(LintDiagnostic::new(
            "GL002",
            Severity::Warning,
            LintSpan::at(ItemKind::Proc, name, start),
            msg,
        ));
    }

    // GL003: a reachable command that falls through past the end.
    for (i, cmd) in proc.body.iter().enumerate() {
        let falls_through = !matches!(
            cmd,
            Cmd::Goto(_) | Cmd::GotoIf { .. } | Cmd::Return(_) | Cmd::Fail(_)
        );
        if reachable[i] && falls_through && i + 1 == len {
            diags.push(LintDiagnostic::new(
                "GL003",
                Severity::Error,
                LintSpan::at(ItemKind::Proc, name, i),
                format!("control falls off the end of the procedure after `{cmd}`"),
            ));
        }
    }

    // Predecessor lists for the forward pass.
    let preds = cfg.preds();

    // Forward definite-assignment: in[i] = ∩ out[p] over predecessors,
    // out[i] = in[i] ∪ def(i); the entry is seeded with the parameters.
    let params: BTreeSet<Symbol> = proc.params.iter().copied().collect();
    let all_vars: BTreeSet<Symbol> = {
        let mut vs = params.clone();
        vs.extend(proc.body.iter().filter_map(def));
        vs
    };
    let mut assigned_in: Vec<BTreeSet<Symbol>> = vec![all_vars; len];
    assigned_in[0] = params.clone();
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..len {
            if !reachable[i] {
                continue;
            }
            let mut inn: Option<BTreeSet<Symbol>> =
                if i == 0 { Some(params.clone()) } else { None };
            for &p in &preds[i] {
                if !reachable[p] {
                    continue;
                }
                let mut out_p = assigned_in[p].clone();
                out_p.extend(def(&proc.body[p]));
                inn = Some(match inn {
                    None => out_p,
                    Some(acc) => acc.intersection(&out_p).copied().collect(),
                });
            }
            let inn = inn.unwrap_or_else(|| params.clone());
            if inn != assigned_in[i] {
                assigned_in[i] = inn;
                changed = true;
            }
        }
    }

    // GL011: reads not definitely assigned.
    for (i, cmd) in proc.body.iter().enumerate() {
        if !reachable[i] {
            continue;
        }
        let read_here = reads(cmd, &proc.params);
        let mut unassigned: Vec<&str> = read_here
            .difference(&assigned_in[i])
            .map(|s| s.as_str())
            .collect();
        unassigned.sort_unstable();
        for v in unassigned {
            diags.push(LintDiagnostic::new(
                "GL011",
                Severity::Error,
                LintSpan::at(ItemKind::Proc, name, i),
                format!("variable `{v}` may be used before assignment in `{cmd}`"),
            ));
        }
    }

    // Backward liveness for GL012. Only pure `Assign` commands are
    // candidates: `Action`/`Call` left-hand sides carry effects regardless of
    // whether the result is read. Underscore-prefixed names opt out, matching
    // the compiler's convention for intentionally-unused locals.
    let mut live_in: Vec<BTreeSet<Symbol>> = vec![BTreeSet::new(); len];
    let mut changed = true;
    while changed {
        changed = false;
        for i in (0..len).rev() {
            let mut live: BTreeSet<Symbol> = BTreeSet::new();
            for &s in &succs[i] {
                live.extend(live_in[s].iter().copied());
            }
            if let Some(d) = def(&proc.body[i]) {
                live.remove(&d);
            }
            live.extend(reads(&proc.body[i], &proc.params));
            if live != live_in[i] {
                live_in[i] = live;
                changed = true;
            }
        }
    }
    for (i, cmd) in proc.body.iter().enumerate() {
        if !reachable[i] {
            continue;
        }
        if let Cmd::Assign(x, _) = cmd {
            if x.as_str().starts_with('_') {
                continue;
            }
            let live_out = succs[i].iter().any(|&s| live_in[s].contains(x));
            if !live_out {
                diags.push(LintDiagnostic::new(
                    "GL012",
                    Severity::Warning,
                    LintSpan::at(ItemKind::Proc, name, i),
                    format!("value assigned to `{x}` is never read"),
                ));
            }
        }
    }

    diags
}
