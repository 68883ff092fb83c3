//! `kernel_chains`: the solver kernel alone, through `SolverCtx` on the
//! default backend. Engine, compilation, lint, proof cache and daemon are
//! bypassed, so this is the control that must not move when those layers
//! change; almost all its time is Fourier–Motzkin and congruence work.
//!
//! A block runs one input on a fresh solver hub; a cycle runs every input
//! once:
//! - straight-line chains `x(i+1) = x(i) + c(i)` of length 48 and 64,
//!   with a feasibility check after every assert and an entailment every 8
//!   steps (true and false ones, answered from the known offsets);
//! - a push/pop tower 60 scopes deep, checked on the way down and back up,
//!   with refutable probes every 10 scopes;
//! - four wide-and-nested case-split inputs ending in a refutable overlay.
//!
//! The chains stop where the linear store (about `n²` derived rows for a
//! chain of length `n`) reaches its 4096-row cap; the tower's way back up
//! pops across rebuilds of that store, so the saturated regime is still
//! measured. Chains of 100 and 150 made a cycle take about 5 s, too few
//! repeats of each input in a run for a steady median.
//!
//! The seed sets variable names, offsets and constants, and which split
//! variable is refuted. Lengths, input order and the schedule of
//! entailment shapes and distances are fixed: a false entailment costs
//! several times a true one, so letting the seed place them would make the
//! tail latency a property of the seed rather than of the solver.

use crate::reference::Speed;
use crate::rng::Rng;
use crate::trace;
use crate::{
    finish_trace, median, ms, overhead_pct, run_blocks, run_traced, Args, Counters, Names, Outcome,
    Timings, WorkloadResult,
};
use gillian_solver::{Expr, Solver};
use std::collections::BTreeMap;
use std::time::Instant;

enum Step {
    Assert(Expr),
    /// `check_unsat`, with the expected answer.
    Check(bool),
    /// `entails(goal)`, with the expected answer.
    Entails(Expr, bool),
    Push,
    Pop,
}

struct Input {
    kind: &'static str,
    steps: Vec<Step>,
}

fn var(prefix: &str, i: usize) -> Expr {
    Expr::lvar(&format!("{prefix}{i}"))
}

fn chain(rng: &mut Rng, len: usize) -> Input {
    let x = format!("x{}_", rng.range(0, 9999));
    let offsets: Vec<i128> = (0..len).map(|_| rng.range(1, 9) as i128).collect();
    let mut steps = Vec::new();
    for i in 0..len {
        steps.push(Step::Assert(Expr::eq(
            var(&x, i + 1),
            Expr::add(var(&x, i), Expr::Int(offsets[i])),
        )));
        steps.push(Step::Check(false));
        if i % 8 == 7 {
            let probe = i / 8;
            let k = 2 + probe % 5;
            let (lo, hi) = (var(&x, i - k), var(&x, i + 1));
            let sum: i128 = offsets[i - k..=i].iter().sum();
            steps.push(match probe % 4 {
                0 => Step::Entails(Expr::lt(lo, hi), true),
                1 => Step::Entails(Expr::eq(hi, Expr::add(lo, Expr::Int(sum))), true),
                2 => Step::Entails(Expr::eq(hi, Expr::add(lo, Expr::Int(sum + 1))), false),
                _ => Step::Entails(Expr::lt(hi, lo), false),
            });
        }
    }
    Input {
        kind: "chain",
        steps,
    }
}

fn tower(rng: &mut Rng, depth: usize) -> Input {
    let tag = rng.range(0, 9999);
    let (t, s) = (format!("t{tag}_"), format!("s{tag}_"));
    let mut steps = Vec::new();
    for d in 1..=depth {
        steps.push(Step::Push);
        steps.push(Step::Assert(Expr::eq(
            var(&t, d),
            Expr::add(var(&t, d - 1), Expr::Int(rng.range(1, 9) as i128)),
        )));
        steps.push(Step::Assert(Expr::le(var(&s, d), var(&s, d - 1))));
        steps.push(Step::Check(false));
        if d % 10 == 0 {
            // s is non-increasing downwards, so an earlier s below a later
            // one is refutable.
            let k = 2 + (d / 10) % 4;
            steps.push(Step::Push);
            steps.push(Step::Assert(Expr::lt(var(&s, d - k), var(&s, d))));
            steps.push(Step::Check(true));
            steps.push(Step::Pop);
        }
    }
    for _ in 0..depth {
        steps.push(Step::Pop);
        steps.push(Step::Check(false));
    }
    Input {
        kind: "tower",
        steps,
    }
}

fn splits(rng: &mut Rng, k: usize, units: usize) -> Input {
    let tag = rng.range(0, 9999);
    let (b, u, c) = (format!("b{tag}_"), format!("u{tag}_"), format!("c{tag}_"));
    let base: Vec<i128> = (0..k).map(|_| rng.range(0, 5) as i128).collect();
    let mut steps = Vec::new();
    for (i, &v) in base.iter().enumerate() {
        steps.push(Step::Assert(Expr::or(
            Expr::eq(var(&b, i), Expr::Int(v)),
            Expr::eq(var(&b, i), Expr::Int(v + 1)),
        )));
        for j in 0..units {
            let bound = rng.range(5, 50) as i128;
            steps.push(Step::Assert(Expr::le(
                var(&u, i * units + j),
                Expr::Int(bound),
            )));
        }
        steps.push(Step::Check(false));
    }
    let w = rng.range(0, 5) as i128;
    steps.push(Step::Push);
    steps.push(Step::Assert(Expr::or(
        Expr::or(
            Expr::eq(var(&c, 0), Expr::Int(w)),
            Expr::eq(var(&c, 0), Expr::Int(w + 1)),
        ),
        Expr::eq(var(&c, 0), Expr::Int(w + 2)),
    )));
    steps.push(Step::Check(false));
    // Both values of one split variable excluded: refutable in every case.
    let r = rng.range(0, k as u64 - 1) as usize;
    steps.push(Step::Assert(Expr::lt(var(&b, r), Expr::Int(base[r]))));
    steps.push(Step::Assert(Expr::gt(var(&b, r), Expr::Int(base[r] + 1))));
    steps.push(Step::Check(true));
    steps.push(Step::Pop);
    Input {
        kind: "splits",
        steps,
    }
}

const CHAIN_LENGTHS: [usize; 2] = [48, 64];
const TOWER_DEPTH: usize = 60;
/// A set-up is repeated after every this many cycles, so its median is
/// taken over the whole run rather than over its first seconds.
const SETUP_EVERY: usize = 2;

fn inputs(seed: u64) -> Vec<Input> {
    let mut rng = Rng::new(seed);
    let mut out: Vec<Input> = CHAIN_LENGTHS.iter().map(|&n| chain(&mut rng, n)).collect();
    out.push(tower(&mut rng, TOWER_DEPTH));
    for (k, u) in [(5, 2), (6, 2), (7, 3), (8, 2)] {
        out.push(splits(&mut rng, k, u));
    }
    out
}

/// Per-call time sums for the human-readable report (nanoseconds, calls).
#[derive(Default)]
struct CallTimes {
    assert: (u64, u64),
    check: (u64, u64),
    entails: (u64, u64),
    pushpop: (u64, u64),
}

fn add(slot: &mut (u64, u64), ns: u64) {
    slot.0 += ns;
    slot.1 += 1;
}

/// Runs one input on a fresh hub; returns its solver counters.
fn run_input(
    input: &Input,
    t: &mut Timings,
    calls: &mut CallTimes,
    outcome: &mut Outcome,
) -> Counters {
    trace::begin_op();
    trace::span("bench", input.kind, || {
        let hub = Solver::new();
        let ctx = hub.ctx();
        for (i, step) in input.steps.iter().enumerate() {
            let start = Instant::now();
            match step {
                Step::Assert(e) => {
                    trace::span("solver", "assert", || ctx.assert_expr(e));
                    let d = start.elapsed();
                    t.prep(ms(d));
                    add(&mut calls.assert, d.as_nanos() as u64);
                }
                Step::Check(expect) => {
                    let got = trace::span("solver", "check_unsat", || ctx.check_unsat());
                    let d = start.elapsed();
                    t.op(ms(d));
                    add(&mut calls.check, d.as_nanos() as u64);
                    outcome.check(got == *expect, || {
                        format!(
                            "{} step {i}: check_unsat = {got}, expected {expect}",
                            input.kind
                        )
                    });
                }
                Step::Entails(goal, expect) => {
                    let got = trace::span("solver", "entails", || ctx.entails(goal));
                    let d = start.elapsed();
                    t.op(ms(d));
                    add(&mut calls.entails, d.as_nanos() as u64);
                    outcome.check(got == *expect, || {
                        format!(
                            "{} step {i}: entails({goal}) = {got}, expected {expect}",
                            input.kind
                        )
                    });
                }
                Step::Push => {
                    trace::span("solver", "push", || ctx.push());
                    add(&mut calls.pushpop, start.elapsed().as_nanos() as u64);
                }
                Step::Pop => {
                    trace::span("solver", "pop", || ctx.pop());
                    add(&mut calls.pushpop, start.elapsed().as_nanos() as u64);
                }
            }
        }
        let s = hub.stats();
        let mut c = Counters::default();
        c.add("solver.queries", s.queries());
        c.add("solver.leaf_cases", s.cases_explored);
        c.add("solver.cache_hits", s.cache_hits);
        c.add("solver.incremental_hits", s.incremental_hits);
        c.add("solver.kernel_ns", s.kernel_nanos);
        c
    })
}

struct Blocks {
    inputs: Vec<Input>,
    /// Each input's first counters; every later run of it must repeat them.
    first: Vec<Option<Counters>>,
}

impl Blocks {
    /// One block: input `v` once. Returns the kernel nanoseconds spent.
    fn run(
        &mut self,
        v: u32,
        t: &mut Timings,
        calls: &mut CallTimes,
        outcome: &mut Outcome,
    ) -> u64 {
        let input = &self.inputs[v as usize];
        let mut c = run_input(input, t, calls, outcome);
        let kernel_ns = c.values.remove("solver.kernel_ns").unwrap_or(0);
        match &self.first[v as usize] {
            None => self.first[v as usize] = Some(c),
            Some(f) => outcome.check(*f == c, || {
                format!(
                    "a repeated run of {} input {v} did different solver work",
                    input.kind
                )
            }),
        }
        kernel_ns
    }

    /// The counters of one cycle: every input once.
    fn cycle_counters(&self) -> Counters {
        let mut c = Counters::default();
        for (k, v) in self.first.iter().flatten().flat_map(|f| &f.values) {
            c.add(k, *v);
        }
        c
    }
}

/// One set-up: generate the inputs and warm the kernel on the tower and
/// case-split inputs. Returns the inputs and the seconds it took.
fn set_up(seed: u64) -> (Vec<Input>, f64) {
    let start = Instant::now();
    let inputs = inputs(seed);
    for input in inputs.iter().filter(|i| i.kind != "chain") {
        run_input(
            input,
            &mut Timings::default(),
            &mut CallTimes::default(),
            &mut Outcome::default(),
        );
    }
    (inputs, start.elapsed().as_secs_f64())
}

pub fn run(args: &Args, outcome: &mut Outcome) -> WorkloadResult {
    let ((inputs_of_seed, first_setup), k) = Speed::new().scaled(|| set_up(args.seed));
    let mut setups = vec![first_setup * k];
    let variants = inputs_of_seed.len() as u32;
    let mut state = Blocks {
        first: vec![None; inputs_of_seed.len()],
        inputs: inputs_of_seed,
    };

    let mut t = Timings::default();
    let mut calls = CallTimes::default();
    let mut layer_metrics = BTreeMap::new();
    let mut layer_table = trace::LayerTable::default();
    let mut layer_notes = Vec::new();
    // Whole cycles until `seconds` have passed, with a set-up after every
    // `SETUP_EVERY` of them; the median set-up is the set-up time.
    let start = Instant::now();
    let mut cycles = 0;
    if !args.trace {
        while cycles == 0 || start.elapsed().as_secs_f64() < args.seconds {
            run_blocks(&mut t, variants, 0.0, |v, t| {
                state.run(v, t, &mut calls, outcome);
            });
            cycles += 1;
            if cycles % SETUP_EVERY == 0 {
                let ((_, s), k) = Speed::new().scaled(|| set_up(args.seed));
                setups.push(s * k);
            }
        }
    } else {
        let mut kernel_ns = 0;
        let mut traced = Timings::default();
        while cycles == 0 || start.elapsed().as_secs_f64() < args.seconds {
            run_traced(&mut t, &mut traced, variants, 0.0, |v, t| {
                kernel_ns += state.run(v, t, &mut calls, outcome);
            });
            cycles += 1;
        }
        layer_table = finish_trace(args);
        let c = state.cycle_counters();
        for (k, v) in &c.values {
            layer_metrics.insert(*k, *v as f64);
        }
        // Every cycle ran untraced and traced.
        layer_metrics.insert(
            "solver.kernel_ms",
            kernel_ns as f64 / 1e6 / (2 * cycles) as f64,
        );
        layer_metrics.insert(
            "solver.cache_hit_ratio",
            c.get("solver.cache_hits") as f64 / c.get("solver.queries").max(1) as f64,
        );
        layer_metrics.insert("trace.overhead_pct", overhead_pct(&t, &traced));
        layer_metrics.insert("trace.spans", layer_table.spans as f64);
        let mean_us = |(ns, n): (u64, u64)| ns as f64 / 1e3 / n.max(1) as f64;
        layer_notes = vec![
            (
                "solver.assert_us".to_string(),
                mean_us(calls.assert),
                "us/call",
            ),
            (
                "solver.check_us".to_string(),
                mean_us(calls.check),
                "us/call",
            ),
            (
                "solver.entails_us".to_string(),
                mean_us(calls.entails),
                "us/call",
            ),
            (
                "solver.pushpop_us".to_string(),
                mean_us(calls.pushpop),
                "us/call",
            ),
        ];
    }

    let mut counters = state.cycle_counters();
    counters.base = "one cycle (every seeded input once)".to_string();
    WorkloadResult {
        names: Names {
            throughput: "queries_per_s",
            op: "query_us",
            prep: "assert_us",
            op_unit: "us",
            prep_unit: "us",
        },
        setup_s: median(&setups),
        timings: t,
        counters,
        layer_metrics,
        layer_table,
        layer_notes,
    }
}
