//! `batch_corpus`: what a CLI or CI user pays. Every pass builds fresh
//! sessions through `SessionBuilder` and runs `verify_all` at one worker and
//! branch width 1, so it measures serial speed. The corpus is the paper's
//! evaluation plus its hardest proofs and three failure injections:
//! - the six Table 1 sessions (11 targets);
//! - the full LinkedList API (`new`, `push_front`, `pop_front`) in TS and FC;
//! - LinkedList "missing requires", LinkedList "broken length invariant" and
//!   EvenInt "wrong postcondition", built as their tests in
//!   `tests/end_to_end.rs` build them, which must be rejected.
//!
//! The rejections run the engine's failure and recovery path next to its
//! success path, so a change that speeds acceptance by weakening search
//! shows up as a wrong verdict. The seed permutes sessions and targets.

use crate::reference::Speed;
use crate::rng::Rng;
use crate::trace;
use crate::{
    finish_trace, median, ms, overhead_pct, run_blocks, run_traced, Args, Counters, Names, Outcome,
    Timings, WorkloadResult,
};
use case_studies::{even_int, linked_list, linked_pair, mini_vec, SpecMode};
use driver::{AnalysisOptions, HybridSession, LintOptions, VerificationReport};
use gillian_absint::analyze_prog;
use gillian_engine::{Asrt, Pred};
use gillian_rust::gilsonite::{lv, GilsoniteCtx};
use gillian_rust::state::POINTS_TO;
use gillian_rust::types::{TypeRegistry, Types};
use gillian_rust::verifier::{Verifier, VerifierOptions};
use gillian_solver::{Expr, Symbol};
use rust_ir::{LayoutOracle, Program, Ty};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use SpecMode::{FunctionalCorrectness as FC, TypeSafety as TS};

/// One session of the corpus, with its hand-written expected outcomes.
#[derive(Clone)]
struct Entry {
    label: &'static str,
    session: &'static str,
    program: fn() -> Program,
    specs: fn(&Types, SpecMode) -> GilsoniteCtx,
    configure: Option<fn(&mut GilsoniteCtx)>,
    mode: SpecMode,
    /// Target -> `None` when it must verify, or the diagnostic category of
    /// its expected rejection. The seed permutes the order.
    targets: Vec<(&'static str, Option<&'static str>)>,
}

fn verified(names: &[&'static str]) -> Vec<(&'static str, Option<&'static str>)> {
    names.iter().map(|&n| (n, None)).collect()
}

fn corpus() -> Vec<Entry> {
    let entry = |label, session, program, specs, mode, targets| Entry {
        label,
        session,
        program,
        specs,
        configure: None,
        mode,
        targets,
    };
    let ll_full = ["new", "push_front", "pop_front"];
    vec![
        entry(
            "EvenInt FC",
            "EvenInt",
            even_int::program,
            even_int::gilsonite,
            FC,
            verified(&["new_2", "new_3", "add_two"]),
        ),
        entry(
            "LP TS",
            "LinkedPair",
            linked_pair::program,
            linked_pair::gilsonite,
            TS,
            verified(&["new", "set_both"]),
        ),
        entry(
            "LP FC",
            "LinkedPair",
            linked_pair::program,
            linked_pair::gilsonite,
            FC,
            verified(&["new", "set_both"]),
        ),
        entry(
            "LinkedList TS",
            "LinkedList",
            linked_list::program,
            linked_list::gilsonite,
            TS,
            verified(&["new"]),
        ),
        entry(
            "LinkedList FC",
            "LinkedList",
            linked_list::program,
            linked_list::gilsonite,
            FC,
            verified(&["new"]),
        ),
        entry(
            "MiniVec FC",
            "MiniVec",
            mini_vec::program,
            mini_vec::gilsonite,
            FC,
            verified(&["new", "with_capacity"]),
        ),
        entry(
            "LinkedList TS full API",
            "LinkedList",
            linked_list::program,
            linked_list::gilsonite,
            TS,
            verified(&ll_full),
        ),
        entry(
            "LinkedList FC full API",
            "LinkedList",
            linked_list::program,
            linked_list::gilsonite,
            FC,
            verified(&ll_full),
        ),
        Entry {
            configure: Some(missing_requires),
            ..entry(
                "LinkedList missing requires",
                "LinkedList (missing requires)",
                linked_list::program,
                linked_list::gilsonite,
                FC,
                vec![("push_front", Some("engine"))],
            )
        },
        entry(
            "LinkedList broken invariant",
            "LinkedList (broken invariant)",
            linked_list::program,
            broken_invariant_specs,
            FC,
            vec![("push_front", Some("engine"))],
        ),
        Entry {
            configure: Some(wrong_even_int_post),
            ..entry(
                "EvenInt wrong postcondition",
                "EvenInt (broken postcondition)",
                even_int::program,
                even_int::gilsonite,
                FC,
                vec![("add_two", Some("spec-mismatch"))],
            )
        },
    ]
}

/// `push_front` without its `len < usize::MAX` precondition: the overflow
/// panic becomes reachable.
fn missing_requires(g: &mut GilsoniteCtx) {
    let push = g.types.program.function("push_front").unwrap().clone();
    let weak = g.fn_spec(
        &push,
        vec![],
        vec![Expr::eq(
            Expr::seq_concat(Expr::seq(vec![lv("elt_repr")]), lv("self_cur")),
            lv("self_fin"),
        )],
    );
    g.add_spec(weak);
}

/// `add_two` claimed to add 3.
fn wrong_even_int_post(g: &mut GilsoniteCtx) {
    let add_two = g.types.program.function("add_two").unwrap().clone();
    let wrong = g.fn_spec(
        &add_two,
        vec![Expr::le(lv("self_cur"), Expr::Int(1000))],
        vec![Expr::eq(
            lv("self_fin"),
            Expr::add(lv("self_cur"), Expr::Int(3)),
        )],
    );
    g.add_spec(wrong);
}

/// The LinkedList ownership predicate with a broken length invariant
/// (`len == |repr| + 1`) and the real `push_front` specification.
fn broken_invariant_specs(types: &Types, mode: SpecMode) -> GilsoniteCtx {
    let mut g = GilsoniteCtx::new(types.clone(), mode);
    let own_t = g.register_type_param("T");
    let node_id = types.intern(&Ty::adt("Node", vec![Ty::param("T")]));
    let def_empty = Asrt::star(vec![
        Asrt::pure(Expr::eq(lv("h"), lv("n"))),
        Asrt::pure(Expr::eq(lv("t"), lv("p"))),
        Asrt::pure(Expr::eq(lv("r"), Expr::empty_seq())),
    ]);
    let def_cons = Asrt::star(vec![
        Asrt::pure(Expr::eq(lv("h"), Expr::some(lv("hp")))),
        Asrt::Core {
            name: Symbol::new(POINTS_TO),
            ins: vec![lv("hp"), node_id.to_expr()],
            outs: vec![Expr::ctor("struct::Node", vec![lv("v"), lv("z"), lv("p")])],
        },
        Asrt::Pred {
            name: own_t,
            args: vec![lv("v"), lv("rv")],
        },
        Asrt::pred(
            "dll_seg",
            vec![lv("z"), lv("n"), lv("t"), lv("h"), lv("rq")],
        ),
        Asrt::pure(Expr::eq(
            lv("r"),
            Expr::seq_concat(Expr::seq(vec![lv("rv")]), lv("rq")),
        )),
    ]);
    g.register_pred(Pred::new(
        "dll_seg",
        &["h", "n", "t", "p", "r"],
        4,
        vec![def_empty, def_cons],
    ));
    let own_def = Asrt::star(vec![
        Asrt::pure(Expr::eq(
            lv("self"),
            Expr::ctor("struct::LinkedList", vec![lv("h"), lv("t"), lv("l")]),
        )),
        Asrt::pred(
            "dll_seg",
            vec![lv("h"), Expr::none(), lv("t"), Expr::none(), lv("repr")],
        ),
        Asrt::pure(Expr::eq(
            lv("l"),
            Expr::add(Expr::seq_len(lv("repr")), Expr::Int(1)),
        )),
    ]);
    g.register_own(
        &Ty::adt("LinkedList", vec![Ty::param("T")]),
        Pred::new("own_LinkedList", &["self", "repr"], 1, vec![own_def]),
    );
    let push = types.program.function("push_front").unwrap().clone();
    let spec = g.fn_spec(
        &push,
        vec![Expr::lt(
            Expr::seq_len(lv("self_cur")),
            Expr::Int(rust_ir::IntTy::Usize.max()),
        )],
        vec![Expr::eq(
            Expr::seq_concat(Expr::seq(vec![lv("elt_repr")]), lv("self_cur")),
            lv("self_fin"),
        )],
    );
    g.add_spec(spec);
    g
}

/// Nanoseconds of each build step of one entry, from the setup
/// decomposition: program, type registry, specs, compile, absint, lint.
#[derive(Default, Clone, Copy)]
pub struct BuildSplit {
    pub rust_ir: u64,
    pub types: u64,
    pub spec: u64,
    pub compile: u64,
    pub absint: u64,
    pub lint: u64,
}

/// Runs `f` in a span and stores its nanoseconds in `slot`.
pub fn step<R>(
    slot: &mut u64,
    layer: &'static str,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    let start = Instant::now();
    let out = trace::span(layer, name, f);
    *slot = start.elapsed().as_nanos() as u64;
    out
}

/// Calls the build steps the session builder runs, one by one, on the same
/// inputs: `program()` → `TypeRegistry::new` → specs → `Verifier::new` →
/// `analyze_prog` → `lint_prog`. Returns the step times, the compiled
/// program's command count and the lint findings.
fn decompose(
    program: fn() -> Program,
    specs: fn(&Types, SpecMode) -> GilsoniteCtx,
    configure: Option<fn(&mut GilsoniteCtx)>,
    mode: SpecMode,
) -> (BuildSplit, u64, u64) {
    let mut s = BuildSplit::default();
    let program = step(&mut s.rust_ir, "rust_ir", "program", program);
    let types = step(&mut s.types, "core", "types", || {
        TypeRegistry::new(program, LayoutOracle::default())
    });
    let specs = step(&mut s.spec, "core", "spec", || {
        let mut g = specs(&types, mode);
        if let Some(c) = configure {
            c(&mut g);
        }
        g
    });
    let opts = match mode {
        TS => VerifierOptions::type_safety(),
        FC => VerifierOptions::functional_correctness(),
    };
    let verifier = step(&mut s.compile, "core", "compile", || {
        Verifier::new(types, specs, opts).expect("corpus programs compile")
    });
    let absint_opts = AnalysisOptions {
        action_bounds: Some(typed_load_bounds(verifier.types.clone())),
        ..AnalysisOptions::default()
    };
    step(&mut s.absint, "absint", "analyze", || {
        analyze_prog(&verifier.engine.prog, &absint_opts)
    });
    let lint_opts = LintOptions {
        known_tactics: verifier
            .engine
            .tactics
            .keys()
            .map(|s| s.as_str().to_string())
            .collect(),
        ..LintOptions::default()
    };
    let lint = step(&mut s.lint, "lint", "prog", || {
        gillian_lint::lint_prog(&verifier.engine.prog, &lint_opts)
    });
    let gil_cmds = verifier
        .engine
        .prog
        .procs
        .values()
        .map(|p| p.body.len() as u64)
        .sum();
    (s, gil_cmds, lint.diagnostics.len() as u64)
}

/// [`decompose`] three times; the median of each step, plus the command
/// count and lint findings.
pub fn decompose_median(
    program: fn() -> Program,
    specs: fn(&Types, SpecMode) -> GilsoniteCtx,
    configure: Option<fn(&mut GilsoniteCtx)>,
    mode: SpecMode,
) -> (BuildSplit, u64, u64) {
    let runs: Vec<(BuildSplit, u64, u64)> = (0..3)
        .map(|_| {
            trace::begin_op();
            decompose(program, specs, configure, mode)
        })
        .collect();
    let med = |f: fn(&BuildSplit) -> u64| {
        median(&runs.iter().map(|r| f(&r.0) as f64).collect::<Vec<_>>()) as u64
    };
    let split = BuildSplit {
        rust_ir: med(|s| s.rust_ir),
        types: med(|s| s.types),
        spec: med(|s| s.spec),
        compile: med(|s| s.compile),
        absint: med(|s| s.absint),
        lint: med(|s| s.lint),
    };
    (split, runs[0].1, runs[0].2)
}

/// The session builder's absint hook: integer loads are bounded by their
/// machine type (the same bounds the memory model enforces).
pub fn typed_load_bounds(types: Types) -> gillian_absint::ActionBounds {
    Arc::new(move |name, args| {
        if !matches!(name.as_str(), "load" | "load_move") {
            return None;
        }
        match types.resolve_expr(args.get(1)?)? {
            Ty::Int(i) => Some((i.min(), i.max())),
            _ => None,
        }
    })
}

/// Seeded orders of the corpus a run cycles through.
const VARIANTS: u32 = 2;

struct Corpus {
    /// Per variant, the sessions and their targets in seeded order.
    variants: Vec<Vec<Entry>>,
    /// Per entry label, the setup decomposition (trace mode only).
    splits: BTreeMap<&'static str, BuildSplit>,
    /// Per variant, the first pass's counters; later passes must repeat them.
    first: Vec<Option<Counters>>,
}

/// What one pass spent outside the targets themselves.
#[derive(Default)]
struct PassCost {
    build_ns: u64,
    verify_overhead_ns: u64,
    engine_ns: u64,
    kernel_ns: u64,
}

fn build(e: &Entry, split: Option<BuildSplit>) -> HybridSession {
    let program = trace::span("rust_ir", "program", e.program);
    let mut builder = HybridSession::builder()
        .name(e.session)
        .program(program)
        .mode(e.mode)
        .specs(e.specs)
        .verify_fns(e.targets.iter().map(|t| t.0));
    if let Some(c) = e.configure {
        builder = builder.configure(c);
    }
    let session = trace::span("driver", "build", || {
        builder.build().expect("corpus sessions build")
    });
    if let Some(s) = split {
        trace::attribute_last(vec![
            ("core", s.types + s.spec + s.compile),
            ("absint", s.absint),
            ("lint", s.lint),
        ]);
    }
    session.with_branch_parallelism(1)
}

fn check_report(e: &Entry, r: &VerificationReport, outcome: &mut Outcome) {
    outcome.check(r.cases.len() == e.targets.len(), || {
        format!(
            "{}: {} outcomes for {} targets",
            e.label,
            r.cases.len(),
            e.targets.len()
        )
    });
    for (case, (name, expect)) in r.cases.iter().zip(&e.targets) {
        let got = case.diagnostic().map(|d| d.category());
        let ok = case.name() == *name && case.verified() == expect.is_none() && got == *expect;
        outcome.check(ok, || {
            format!(
                "{}: target {} verified={} diagnostic={:?}, expected target {} {}",
                e.label,
                case.name(),
                case.verified(),
                case.diagnostic().map(|d| d.to_string()),
                name,
                expect.map_or("verified".to_string(), |c| format!("rejected as {c}")),
            )
        });
    }
}

impl Corpus {
    /// One pass over a variant of the corpus at `workers` threads per
    /// session. Returns the pass's work counters.
    fn pass(
        &self,
        variant: u32,
        workers: usize,
        t: &mut Timings,
        cost: &mut PassCost,
        outcome: &mut Outcome,
    ) -> Counters {
        let mut c = Counters::default();
        for e in &self.variants[variant as usize] {
            trace::begin_op();
            trace::span("bench", "session", || {
                let start = Instant::now();
                let session = build(e, self.splits.get(e.label).copied()).with_workers(workers);
                let built = start.elapsed();
                t.prep(ms(built));
                cost.build_ns += built.as_nanos() as u64;
                let start = Instant::now();
                let r = trace::span("driver", "verify_all", || session.verify_all());
                let wall = start.elapsed().as_nanos() as u64;
                let proving = r.cpu_time().as_nanos() as u64;
                let kernel = r.solver.kernel_nanos.min(proving);
                trace::attribute_last(vec![("solver", kernel), ("engine", proving - kernel)]);
                cost.verify_overhead_ns += wall.saturating_sub(proving);
                cost.kernel_ns += r.solver.kernel_nanos;
                cost.engine_ns += proving.saturating_sub(r.solver.kernel_nanos);
                for case in &r.cases {
                    t.op(ms(case.report.elapsed));
                }
                check_report(e, &r, outcome);
                c.add("engine.commands", r.stats.commands_executed);
                c.add("engine.branches", r.stats.branches);
                c.add("engine.consumes", r.stats.consumer_calls);
                c.add("engine.produces", r.stats.producer_calls);
                c.add("engine.folds", r.stats.folds);
                c.add("engine.unfolds", r.stats.unfolds);
                c.add("engine.recoveries", r.stats.recoveries);
                c.add("solver.queries", r.solver.queries());
                c.add("solver.leaf_cases", r.solver.cases_explored);
                c.add("solver.cache_hits", r.solver.cache_hits);
                c.add("solver.incremental_hits", r.solver.incremental_hits);
                c.add("absint.branches_pruned", r.solver.branches_pruned_static);
                c.add("absint.facts_seeded", r.solver.absint_facts_seeded);
                c.add("verdicts", r.cases.len() as u64);
                c.add(
                    "rejections",
                    r.cases.iter().filter(|x| !x.verified()).count() as u64,
                );
            });
        }
        c
    }

    /// A serial pass whose work counters must repeat the first pass of the
    /// same variant.
    fn serial_pass(
        &mut self,
        variant: u32,
        t: &mut Timings,
        cost: &mut PassCost,
        outcome: &mut Outcome,
    ) {
        let c = self.pass(variant, 1, t, cost, outcome);
        match &self.first[variant as usize] {
            None => self.first[variant as usize] = Some(c),
            Some(f) => outcome.check(*f == c, || {
                "a repeated pass over the same corpus did different work".to_string()
            }),
        }
    }
}

pub fn run(args: &Args, outcome: &mut Outcome) -> WorkloadResult {
    let mut rng = Rng::new(args.seed);
    let variants = (0..VARIANTS)
        .map(|_| {
            let mut entries = corpus();
            rng.shuffle(&mut entries);
            for e in &mut entries {
                rng.shuffle(&mut e.targets);
            }
            entries
        })
        .collect();
    let mut corpus = Corpus {
        variants,
        splits: BTreeMap::new(),
        first: vec![None; VARIANTS as usize],
    };

    // Set-up: an untimed first pass, nine times, each scaled to the nominal
    // host speed; the median is reported.
    let mut setups = Vec::new();
    let mut speed = Speed::new();
    for _ in 0..9 {
        let (s, k) = speed.scaled(|| {
            let start = Instant::now();
            corpus.serial_pass(
                0,
                &mut Timings::default(),
                &mut PassCost::default(),
                outcome,
            );
            start.elapsed().as_secs_f64()
        });
        setups.push(s * k);
    }

    let mut t = Timings::default();
    let mut layer_metrics = BTreeMap::new();
    let mut layer_table = trace::LayerTable::default();
    let mut layer_notes = Vec::new();
    if !args.trace {
        run_blocks(&mut t, VARIANTS, args.seconds, |v, t| {
            corpus.serial_pass(v, t, &mut PassCost::default(), outcome);
        });
    } else {
        trace::set_enabled(true);
        // The setup decomposition, three times per entry; medians per step.
        let mut gil_cmds = 0;
        let mut findings = 0;
        for e in &corpus.variants[0] {
            let (split, cmds, lints) = decompose_median(e.program, e.specs, e.configure, e.mode);
            corpus.splits.insert(e.label, split);
            gil_cmds += cmds;
            findings += lints;
        }
        let pop_front = pop_front_fc_split();

        let mut traced = Timings::default();
        let mut cost = PassCost::default();
        run_traced(&mut t, &mut traced, VARIANTS, args.seconds, |v, t| {
            corpus.serial_pass(v, t, &mut cost, outcome);
        });
        let passes = t.blocks.len() + traced.blocks.len();
        layer_table = finish_trace(args);

        // Pass time at one worker over pass time at two, alternating.
        let (mut one, mut two) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            for (workers, times) in [(1, &mut one), (2, &mut two)] {
                let start = Instant::now();
                corpus.pass(
                    0,
                    workers,
                    &mut Timings::default(),
                    &mut PassCost::default(),
                    outcome,
                );
                times.push(start.elapsed().as_secs_f64());
            }
        }

        let c = corpus.first[0].clone().unwrap_or_default();
        for (k, v) in &c.values {
            layer_metrics.insert(*k, *v as f64);
        }
        let per_pass = |ns: u64| ns as f64 / passes as f64;
        layer_metrics.insert("solver.kernel_ms", per_pass(cost.kernel_ns) / 1e6);
        layer_metrics.insert(
            "solver.cache_hit_ratio",
            c.get("solver.cache_hits") as f64 / c.get("solver.queries").max(1) as f64,
        );
        layer_metrics.insert("core.gil_cmds", gil_cmds as f64);
        layer_metrics.insert("lint.findings", findings as f64);
        layer_metrics.insert("driver.parallel_efficiency", median(&one) / median(&two));
        layer_metrics.insert("trace.overhead_pct", overhead_pct(&t, &traced));
        layer_metrics.insert("trace.spans", layer_table.spans as f64);

        let sum =
            |f: fn(&BuildSplit) -> u64| corpus.splits.values().map(f).sum::<u64>() as f64 / 1e3;
        layer_notes = vec![
            (
                "rust_ir.build_us".to_string(),
                sum(|s| s.rust_ir),
                "us/corpus",
            ),
            ("core.spec_us".to_string(), sum(|s| s.spec), "us/corpus"),
            (
                "core.compile_us".to_string(),
                sum(|s| s.types + s.compile),
                "us/corpus",
            ),
            (
                "absint.analyze_us".to_string(),
                sum(|s| s.absint),
                "us/corpus",
            ),
            ("lint.us".to_string(), sum(|s| s.lint), "us/corpus"),
            (
                "driver.build_us".to_string(),
                per_pass(cost.build_ns) / 1e3,
                "us/pass",
            ),
            (
                "driver.verify_overhead_us".to_string(),
                per_pass(cost.verify_overhead_ns) / 1e3,
                "us/pass",
            ),
            (
                "engine.self_ms".to_string(),
                per_pass(cost.engine_ns) / 1e6,
                "ms/pass",
            ),
            ("pop_front_fc.proof_ms".to_string(), pop_front.0, "ms"),
            ("pop_front_fc.kernel_ms".to_string(), pop_front.1, "ms"),
            (
                "pop_front_fc.kernel_share".to_string(),
                100.0 * pop_front.1 / pop_front.0,
                "%",
            ),
        ];
    }

    let mut counters = corpus.first[0].take().unwrap_or_default();
    counters.base = "one serial pass over the corpus, first seeded order".to_string();
    WorkloadResult {
        names: Names {
            throughput: "targets_per_s",
            op: "verdict_ms",
            prep: "session_build_ms",
            op_unit: "ms",
            prep_unit: "ms",
        },
        setup_s: median(&setups),
        timings: t,
        counters,
        layer_metrics,
        layer_table,
        layer_notes,
    }
}

/// The `pop_front` FC proof alone on a fresh session: (proof ms, kernel ms),
/// medians of three.
fn pop_front_fc_split() -> (f64, f64) {
    let (mut proof, mut kernel) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let session = linked_list::session_for(FC, &["pop_front"]).with_workers(1);
        let before = session.verifier().solver_stats();
        let report = session.verify_fn("pop_front");
        let after = session.verifier().solver_stats().since(before);
        proof.push(ms(report.elapsed));
        kernel.push(after.kernel_nanos as f64 / 1e6);
    }
    (median(&proof), median(&kernel))
}
