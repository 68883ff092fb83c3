//! Pass 1 + 2: control flow and def-use dataflow over procedure bodies.
//!
//! GIL control flow is fully determined by command indices: `Goto`/`GotoIf`
//! jump, `Return`/`Fail` terminate, everything else falls through, so the
//! shared [`Cfg`] is the whole graph. The two classic dataflow analyses
//! (forward definite assignment, backward liveness) run as worklists over
//! bitsets: the procedure's variables are numbered once, and each command's
//! reads and definition are computed once, before either fixpoint starts.

use crate::{ItemKind, LintDiagnostic, LintSpan, Severity};
use gillian_engine::cfg::Cfg;
use gillian_engine::gil::{Cmd, Proc};
use gillian_solver::{Expr, Symbol};
use std::collections::VecDeque;

#[cfg(test)]
mod reference;

/// Calls `f` on every program variable a command reads, repeats included.
/// `Return` additionally reads every parameter: specification
/// postconditions are evaluated against the final variable store, so
/// parameter values stay observable to the end.
fn visit_reads(cmd: &Cmd, params: &[Symbol], f: &mut impl FnMut(Symbol)) {
    cmd.visit_exprs(&mut |e| {
        e.visit(&mut |sub| {
            if let Expr::PVar(x) = sub {
                f(*x);
            }
        })
    });
    if let Cmd::Return(_) = cmd {
        params.iter().for_each(|&p| f(p));
    }
}

/// The program variable a command assigns, if any.
fn def(cmd: &Cmd) -> Option<Symbol> {
    match cmd {
        Cmd::Assign(x, _) => Some(*x),
        Cmd::Action { lhs, .. } | Cmd::Call { lhs, .. } => Some(*lhs),
        _ => None,
    }
}

/// One variable bitset per command, stored row after row in `words`-word
/// chunks of a single vector.
struct BitRows {
    words: usize,
    bits: Vec<u64>,
}

impl BitRows {
    /// `len` rows, each a copy of `row`.
    fn filled(len: usize, row: &[u64]) -> BitRows {
        BitRows {
            words: row.len(),
            bits: row.repeat(len),
        }
    }

    fn row(&self, i: usize) -> &[u64] {
        &self.bits[i * self.words..(i + 1) * self.words]
    }

    fn row_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.bits[i * self.words..(i + 1) * self.words]
    }

    fn contains(&self, i: usize, v: usize) -> bool {
        (self.row(i)[v / 64] & (1 << (v % 64))) != 0
    }
}

fn insert(row: &mut [u64], v: usize) {
    row[v / 64] |= 1 << (v % 64);
}

/// The variable numbers whose bits are set in `row`, in increasing order.
fn members(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(w, &word)| {
        (0..64usize)
            .filter(move |b| (word & (1 << b)) != 0)
            .map(move |b| w * 64 + b)
    })
}

/// Pushes `i` onto the worklist unless it is already queued.
fn enqueue(work: &mut VecDeque<usize>, queued: &mut [bool], i: usize) {
    if !std::mem::replace(&mut queued[i], true) {
        work.push_back(i);
    }
}

/// Runs the control-flow and def-use passes over one procedure, given its
/// control-flow graph.
pub(crate) fn lint_proc_flow(proc: &Proc, cfg: &Cfg) -> Vec<LintDiagnostic> {
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

    // Number the variables once: parameters, definitions and every read,
    // sorted so that a variable's number is a binary search away.
    let mut read_vars: Vec<Symbol> = Vec::with_capacity(2 * len);
    let mut read_ends: Vec<usize> = Vec::with_capacity(len);
    for cmd in &proc.body {
        visit_reads(cmd, &proc.params, &mut |x| read_vars.push(x));
        read_ends.push(read_vars.len());
    }
    let mut vars: Vec<Symbol> = Vec::with_capacity(proc.params.len() + read_vars.len() + len);
    vars.extend(&proc.params);
    vars.extend(&read_vars);
    vars.extend(proc.body.iter().filter_map(def));
    vars.sort_unstable();
    vars.dedup();
    let number = |x: Symbol| {
        vars.binary_search(&x)
            .expect("every variable the body mentions is numbered")
    };
    let empty = vec![0u64; vars.len() / 64 + 1];
    let defs: Vec<Option<usize>> = proc.body.iter().map(|c| def(c).map(number)).collect();
    let mut reads = BitRows::filled(len, &empty);
    let mut start = 0;
    for (i, &end) in read_ends.iter().enumerate() {
        for &x in &read_vars[start..end] {
            insert(reads.row_mut(i), number(x));
        }
        start = end;
    }
    let mut params = empty.clone();
    for &p in &proc.params {
        insert(&mut params, number(p));
    }

    // Forward definite assignment, the greatest fixpoint of
    // in[i] = ∩ (in[p] ∪ def(p)) over reachable predecessors, with the
    // entry seeded by the parameters. Every row starts at the parameters
    // and definitions; a command is revisited only when its row shrank.
    let mut top = params.clone();
    for &d in defs.iter().flatten() {
        insert(&mut top, d);
    }
    let mut assigned = BitRows::filled(len, &top);
    assigned.row_mut(0).copy_from_slice(&params);
    let mut work: VecDeque<usize> = VecDeque::with_capacity(len);
    let mut queued = vec![false; len];
    enqueue(&mut work, &mut queued, 0);
    let mut row = top;
    while let Some(i) = work.pop_front() {
        queued[i] = false;
        row.copy_from_slice(assigned.row(i));
        if let Some(d) = defs[i] {
            insert(&mut row, d);
        }
        for &s in &succs[i] {
            let mut shrank = false;
            for (a, o) in assigned.row_mut(s).iter_mut().zip(&row) {
                shrank |= (*a & !o) != 0;
                *a &= o;
            }
            if shrank {
                enqueue(&mut work, &mut queued, s);
            }
        }
    }

    // GL011: reads not definitely assigned.
    for (i, cmd) in proc.body.iter().enumerate() {
        if !reachable[i] {
            continue;
        }
        let mut any = false;
        for ((u, r), a) in row.iter_mut().zip(reads.row(i)).zip(assigned.row(i)) {
            *u = r & !a;
            any |= *u != 0;
        }
        if !any {
            continue;
        }
        let mut names: Vec<&str> = members(&row).map(|v| vars[v].as_str()).collect();
        names.sort_unstable();
        for v in names {
            diags.push(LintDiagnostic::new(
                "GL011",
                Severity::Error,
                LintSpan::at(ItemKind::Proc, name, i),
                format!("variable `{v}` may be used before assignment in `{cmd}`"),
            ));
        }
    }

    // Backward liveness for GL012, the least fixpoint of
    // live[i] = reads(i) ∪ (∪ live[s] over successors \ def(i)), over the
    // reachable commands (their successors are reachable too). Every
    // reachable command is visited once; after that, a command is revisited
    // only when a successor's row grew.
    let preds = cfg.preds();
    let mut live = BitRows::filled(len, &empty);
    work.extend((0..len).rev().filter(|&i| reachable[i]));
    queued.copy_from_slice(reachable);
    while let Some(i) = work.pop_front() {
        queued[i] = false;
        row.fill(0);
        for &s in &succs[i] {
            for (r, l) in row.iter_mut().zip(live.row(s)) {
                *r |= l;
            }
        }
        if let Some(d) = defs[i] {
            row[d / 64] &= !(1 << (d % 64));
        }
        for (r, rd) in row.iter_mut().zip(reads.row(i)) {
            *r |= rd;
        }
        if row != live.row(i) {
            live.row_mut(i).copy_from_slice(&row);
            for &p in &preds[i] {
                if reachable[p] {
                    enqueue(&mut work, &mut queued, p);
                }
            }
        }
    }

    // GL012: only pure `Assign` commands are candidates: `Action`/`Call`
    // left-hand sides carry effects regardless of whether the result is
    // read. Underscore-prefixed names opt out, matching the compiler's
    // convention for intentionally-unused locals.
    for (i, cmd) in proc.body.iter().enumerate() {
        if !reachable[i] {
            continue;
        }
        if let Cmd::Assign(x, _) = cmd {
            let v = number(*x);
            let live_out = succs[i].iter().any(|&s| live.contains(s, v));
            if !live_out && !x.as_str().starts_with('_') {
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

#[cfg(test)]
mod tests {
    use super::*;
    use gillian_engine::gil::LogicCmd;
    use gillian_engine::Asrt;

    fn flow(proc: &Proc) -> Vec<LintDiagnostic> {
        lint_proc_flow(proc, &Cfg::new(&proc.body))
    }

    fn codes(proc: &Proc) -> Vec<&'static str> {
        flow(proc).into_iter().map(|d| d.code).collect()
    }

    #[test]
    fn out_of_range_goto_is_gl001() {
        let p = Proc::new("f", &[], vec![Cmd::Goto(9)]);
        let diags = flow(&p);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "GL001");
        assert_eq!(diags[0].span.index, Some(0));
    }

    #[test]
    fn unreachable_run_is_gl002() {
        let p = Proc::new(
            "f",
            &[],
            vec![
                Cmd::Return(Expr::Int(0)),
                Cmd::Skip,
                Cmd::Return(Expr::Int(1)),
            ],
        );
        let diags = flow(&p);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "GL002");
        assert_eq!(diags[0].span.index, Some(1));
    }

    #[test]
    fn fall_off_the_end_is_gl003() {
        let p = Proc::new("f", &["x"], vec![Cmd::Skip]);
        assert_eq!(codes(&p), vec!["GL003"]);
        let empty = Proc::new("g", &[], vec![]);
        assert_eq!(codes(&empty), vec!["GL003"]);
    }

    #[test]
    fn use_before_assign_is_gl011_but_params_are_seeded() {
        let bad = Proc::new("f", &[], vec![Cmd::Return(Expr::pvar("y"))]);
        assert_eq!(codes(&bad), vec!["GL011"]);
        let ok = Proc::new("g", &["y"], vec![Cmd::Return(Expr::pvar("y"))]);
        assert!(codes(&ok).is_empty());
    }

    #[test]
    fn branch_join_requires_assignment_on_all_paths() {
        // if (c) { t := 1 } ; return t — t unassigned on the else path.
        let p = Proc::new(
            "f",
            &["c"],
            vec![
                Cmd::GotoIf {
                    guard: Expr::pvar("c"),
                    then_target: 1,
                    else_target: 2,
                },
                Cmd::Assign(Symbol::new("t"), Expr::Int(1)),
                Cmd::Return(Expr::pvar("t")),
            ],
        );
        let diags = flow(&p);
        assert!(
            diags
                .iter()
                .any(|d| d.code == "GL011" && d.span.index == Some(2)),
            "{diags:?}"
        );
    }

    #[test]
    fn dead_assignment_is_gl012_and_params_stay_live_to_return() {
        let dead = Proc::new(
            "f",
            &[],
            vec![
                Cmd::Assign(Symbol::new("t"), Expr::Int(1)),
                Cmd::Return(Expr::Int(0)),
            ],
        );
        assert_eq!(codes(&dead), vec!["GL012"]);
        // Assigning a *parameter* before return is not dead: postconditions
        // read the final store.
        let to_param = Proc::new(
            "g",
            &["x"],
            vec![
                Cmd::Assign(Symbol::new("x"), Expr::Int(1)),
                Cmd::Return(Expr::Int(0)),
            ],
        );
        assert!(codes(&to_param).is_empty());
        // Underscore-prefixed locals opt out.
        let underscore = Proc::new(
            "h",
            &[],
            vec![
                Cmd::Assign(Symbol::new("_t"), Expr::Int(1)),
                Cmd::Return(Expr::Int(0)),
            ],
        );
        assert!(codes(&underscore).is_empty());
    }

    #[test]
    fn loops_are_handled() {
        // while-like loop: i := 0; if (i) exit else body; body: i := 1; goto test
        let p = Proc::new(
            "f",
            &[],
            vec![
                Cmd::Assign(Symbol::new("i"), Expr::Int(0)),
                Cmd::GotoIf {
                    guard: Expr::pvar("i"),
                    then_target: 4,
                    else_target: 2,
                },
                Cmd::Assign(Symbol::new("i"), Expr::Int(1)),
                Cmd::Goto(1),
                Cmd::Return(Expr::pvar("i")),
            ],
        );
        assert!(codes(&p).is_empty(), "{:?}", flow(&p));
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

    /// What a random body draws from. The first three variables can be
    /// parameters and `_t` opts out of GL012.
    struct Shape {
        vars: Vec<Symbol>,
        max_len: u64,
        max_args: u64,
    }

    /// Six variables, up to 12 commands and up to 3 call arguments.
    fn narrow() -> Shape {
        let vars = ["p", "q", "x", "y", "z", "_t"].map(Symbol::new).to_vec();
        Shape {
            vars,
            max_len: 12,
            max_args: 3,
        }
    }

    /// 150 more variables, up to 80 commands and up to 16 call arguments:
    /// a long body numbers more than 64 variables, so its bitset rows span
    /// several words.
    fn wide() -> Shape {
        let mut shape = narrow();
        shape
            .vars
            .extend((0..150).map(|k| Symbol::new(&format!("w{k}"))));
        shape.max_len = 80;
        shape.max_args = 16;
        shape
    }

    fn var(g: &mut Lcg, vars: &[Symbol]) -> Symbol {
        vars[g.below(vars.len() as u64) as usize]
    }

    /// A random expression over the program variables, small integers and
    /// one logical variable (which no dataflow fact mentions).
    fn expr(g: &mut Lcg, vars: &[Symbol], depth: u32) -> Expr {
        let sub = |g: &mut Lcg| expr(g, vars, depth - 1);
        match g.below(if depth == 0 { 4 } else { 7 }) {
            0 => Expr::Int(g.below(3) as i128),
            1 => Expr::lvar("l"),
            2 | 3 => Expr::PVar(var(g, vars)),
            4 => Expr::add(sub(g), sub(g)),
            5 => Expr::lt(sub(g), sub(g)),
            _ => Expr::not(sub(g)),
        }
    }

    /// A random command of a body of `len` commands. Jump targets reach
    /// two past the end, so some are out of range; backward jumps make
    /// loops, and commands after a jump or a return are often unreachable.
    fn cmd(g: &mut Lcg, shape: &Shape, len: usize) -> Cmd {
        let vars = &shape.vars[..];
        let target = |g: &mut Lcg| g.below(len as u64 + 2) as usize;
        let e = |g: &mut Lcg, depth| expr(g, vars, depth);
        match g.below(13) {
            0..=2 => Cmd::Assign(var(g, vars), e(g, 2)),
            3 => Cmd::Action {
                lhs: var(g, vars),
                name: Symbol::new("load"),
                args: vec![e(g, 1)],
            },
            4 => Cmd::Call {
                lhs: var(g, vars),
                proc: Symbol::new("callee"),
                args: (0..g.below(shape.max_args + 1)).map(|_| e(g, 1)).collect(),
            },
            5 => Cmd::Goto(target(g)),
            6 | 7 => Cmd::GotoIf {
                guard: e(g, 2),
                then_target: target(g),
                else_target: target(g),
            },
            8 | 9 => Cmd::Return(e(g, 1)),
            10 => Cmd::Fail("boom".to_string()),
            11 => Cmd::Skip,
            _ => Cmd::Logic(match g.below(3) {
                0 => LogicCmd::Assume(e(g, 2)),
                1 => LogicCmd::Assert(Asrt::Pure(e(g, 2))),
                _ => LogicCmd::Fold(Symbol::new("pred"), vec![e(g, 1), e(g, 1)]),
            }),
        }
    }

    /// A random procedure: up to three parameters and up to the shape's
    /// length, empty bodies included.
    fn body(g: &mut Lcg, shape: &Shape) -> Proc {
        let mask = g.below(8);
        let params: Vec<&str> = (0..3)
            .filter(|b| mask & (1 << b) != 0)
            .map(|b| shape.vars[b].as_str())
            .collect();
        let len = g.below(shape.max_len + 1) as usize;
        let body = (0..len).map(|_| cmd(g, shape, len)).collect();
        Proc::new("f", &params, body)
    }

    /// The number of distinct program variables a procedure mentions.
    fn var_count(p: &Proc) -> usize {
        let mut vs: std::collections::BTreeSet<Symbol> = p.params.iter().copied().collect();
        for c in &p.body {
            vs.extend(def(c));
            c.visit_exprs(&mut |e| vs.extend(e.pvars()));
        }
        vs.len()
    }

    #[test]
    fn flow_oracle_matches_round_robin_reference() {
        const BODIES: usize = 3_000;
        let (narrow, wide) = (narrow(), wide());
        let mut g = Lcg(0x5eed_f10e);
        let mut seen: std::collections::BTreeMap<&str, usize> = Default::default();
        let mut multi_word = 0;
        for n in 0..BODIES {
            // Every fourth body has the wide shape.
            let p = body(&mut g, if n % 4 == 0 { &wide } else { &narrow });
            let got = flow(&p);
            let want = reference::lint_proc_flow(&p);
            assert_eq!(got, want, "body {n}: {:?} {:#?}", p.params, p.body);
            for d in got {
                *seen.entry(d.code).or_default() += 1;
            }
            multi_word += usize::from(var_count(&p) > 64);
        }
        // The oracle is only as strong as what the bodies exercise: every
        // code of both passes must fire, and rows must span several words.
        for code in ["GL001", "GL002", "GL003", "GL011", "GL012"] {
            let count = seen.get(code).copied().unwrap_or(0);
            assert!(count >= 100, "{code} fired {count} times: {seen:?}");
        }
        assert!(
            multi_word >= 100,
            "{multi_word} bodies number over 64 variables"
        );
    }
}
