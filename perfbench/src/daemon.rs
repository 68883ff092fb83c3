//! `daemon_edit`: the interactive loop. One `ServerCore` over an on-disk
//! proof cache (a `DirStore` in a scratch directory, behind the counting
//! [`TimedStore`]) serves all seven daemon workloads, loaded and
//! cold-verified during set-up. One client then sends a seeded request
//! stream over `handle_line`, waiting for each reply (closed loop). A block
//! starts with a restart: drop the core, build a new one on the same
//! directory, load and verify every workload, which must hydrate every
//! target from disk and re-prove none. Then, in seeded order:
//! - ten `update_spec` edits of `chain`'s `inc`, switching between spec
//!   generations; one of them has an unsatisfiable `requires` and must be
//!   rejected with GL041, re-proving nothing;
//! - two `update_fn` of `chain` functions;
//! - two warm `verify` calls;
//! - two `load` switches to other resident workloads.
//!
//! The restart resets the daemon's state, so every block variant replays
//! the same requests against the same state.
//!
//! The work lands in daemon dispatch, fingerprinting and the dependency
//! graph, lint of the candidate program, absint refresh and proof-cache
//! writes and reads; engine and kernel do little.

use crate::batch::{decompose_median, step, typed_load_bounds, BuildSplit};
use crate::reference::Speed;
use crate::rng::Rng;
use crate::store::TimedStore;
use crate::trace;
use crate::{
    finish_trace, median, ms, out_dir, overhead_pct, run_blocks, run_traced, Args, Counters, Names,
    Outcome, Timings, WorkloadResult,
};
use creusot_lite::{elaborate, parse_term};
use driver::AnalysisOptions;
use gillian_server::json::{parse, Value};
use gillian_server::{parse_mode, workload, ProgramDb, ServerCore};
use gillian_solver::Symbol;
use proof_cache::DirStore;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The seven (workload, mode) pairs and their targets, as the daemon must
/// report them.
const PAIRS: [(&str, &str, &[&str]); 7] = [
    ("even_int", "fc", &["new_2", "new_3", "add_two"]),
    ("linked_pair", "ts", &["new", "set_both"]),
    ("linked_pair", "fc", &["new", "set_both"]),
    ("linked_list", "ts", &["new"]),
    ("linked_list", "fc", &["new"]),
    ("mini_vec", "fc", &["new", "with_capacity"]),
    ("chain", "fc", &["base", "inc", "inc2"]),
];
const CHAIN: usize = 6;
const CHAIN_FNS: [&str; 3] = ["base", "inc", "inc2"];
/// `inc`'s precondition `x@ < B` per spec generation; generation 0 is the
/// compiled one. `inc2` needs B > 901, so every generation verifies.
const BOUNDS: [u64; 4] = [1000, 1100, 1200, 1300];
/// Seeded blocks a run cycles through.
const VARIANTS: u32 = 8;
/// Work counters cover this many blocks after set-up.
const SEGMENT_BLOCKS: usize = 64;

fn names(v: &Value, field: &str) -> Vec<String> {
    v.get(field)
        .and_then(Value::as_array)
        .map(|a| {
            a.iter()
                .filter_map(|x| x.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default()
}

fn is_ok(v: &Value) -> bool {
    v.get("ok").and_then(Value::as_bool) == Some(true)
}

fn lint_codes(v: &Value) -> Vec<String> {
    v.get("lints")
        .and_then(Value::as_array)
        .map(|a| {
            a.iter()
                .filter_map(|l| l.get("code").and_then(Value::as_str).map(str::to_string))
                .collect()
        })
        .unwrap_or_default()
}

/// Time inside daemon requests that belongs to other layers, from the setup
/// decomposition on the same inputs (trace mode only).
struct Attrib {
    /// Per pair: the session build steps.
    build: Vec<BuildSplit>,
    /// `lint_spec` on the candidate program, per generation; the last slot
    /// is the unsatisfiable edit.
    spec_lint: [u64; 5],
    /// Per `chain` function: `lint_proc` and the absint refresh.
    fn_lint: [u64; 3],
    fn_absint: [u64; 3],
}

enum Action {
    /// `update_spec` of `inc` to a spec generation, or (`None`) to the
    /// unsatisfiable precondition `x@ < v && v < x@`.
    SpecEdit {
        generation: Option<usize>,
        v: u64,
    },
    UpdateFn(usize),
    WarmVerify,
    Switch(usize),
}

/// One block variant: the restart's load order, then the requests.
struct Block {
    order: Vec<usize>,
    actions: Vec<Action>,
}

fn block_variants(seed: u64) -> Vec<Block> {
    let mut rng = Rng::new(seed);
    (0..VARIANTS)
        .map(|_| {
            let mut order: Vec<usize> = (0..PAIRS.len()).collect();
            rng.shuffle(&mut order);
            let mut kinds = vec![0; 10];
            kinds.extend([1, 1, 2, 2, 3, 3]);
            rng.shuffle(&mut kinds);
            let unsat = rng.range(0, 9);
            // The state after the restart: generation 0, last pair loaded.
            let (mut current, mut generation, mut spec_n) = (order[PAIRS.len() - 1], 0, 0);
            let actions = kinds
                .into_iter()
                .map(|kind| match kind {
                    0 => {
                        current = CHAIN;
                        spec_n += 1;
                        if spec_n - 1 == unsat {
                            Action::SpecEdit {
                                generation: None,
                                v: rng.range(1, 899),
                            }
                        } else {
                            let mut g = rng.range(0, BOUNDS.len() as u64 - 2) as usize;
                            if g >= generation {
                                g += 1;
                            }
                            generation = g;
                            Action::SpecEdit {
                                generation: Some(g),
                                v: 0,
                            }
                        }
                    }
                    1 => {
                        current = CHAIN;
                        Action::UpdateFn(rng.range(0, 2) as usize)
                    }
                    2 => Action::WarmVerify,
                    _ => {
                        let mut idx = rng.range(0, PAIRS.len() as u64 - 2) as usize;
                        if idx >= current {
                            idx += 1;
                        }
                        current = idx;
                        Action::Switch(idx)
                    }
                })
                .collect();
            Block { order, actions }
        })
        .collect()
}

#[derive(Clone, Copy)]
enum Load {
    /// First load into an empty store: nothing to hydrate.
    Cold,
    /// First load after a restart: every target hydrates from disk.
    Restart,
    /// Switching back to a resident session.
    Resident,
}

struct Client {
    core: ServerCore,
    store: Arc<TimedStore>,
    current: usize,
    counters: Counters,
    /// Per command: (nanoseconds, requests).
    cmd_ns: BTreeMap<&'static str, (u64, u64)>,
    kernel_ns: u64,
    attrib: Option<Arc<Attrib>>,
}

impl Client {
    /// A core over a fresh store in `dir`, with every pair loaded and
    /// verified cold. Returns the client and the set-up seconds.
    fn cold(dir: &Path, outcome: &mut Outcome) -> (Client, f64) {
        let _ = std::fs::remove_dir_all(dir);
        let store = Arc::new(TimedStore::new(DirStore::new(dir)));
        let start = Instant::now();
        let mut c = Client {
            core: ServerCore::with_store(store.clone()),
            store,
            current: CHAIN,
            counters: Counters::default(),
            cmd_ns: BTreeMap::new(),
            kernel_ns: 0,
            attrib: None,
        };
        for (idx, (_, _, targets)) in PAIRS.iter().enumerate() {
            c.load(idx, Load::Cold, outcome);
            c.verify(targets, outcome);
        }
        let setup = start.elapsed().as_secs_f64();
        c.load(CHAIN, Load::Resident, outcome);
        (c, setup)
    }

    fn request(&mut self, cmd: &'static str, line: &str) -> Value {
        let start = Instant::now();
        let resp = trace::span("server", cmd, || self.core.handle_line(line));
        let e = self.cmd_ns.entry(cmd).or_default();
        e.0 += start.elapsed().as_nanos() as u64;
        e.1 += 1;
        self.counters.add("server.requests", 1);
        let v = parse(&resp).unwrap_or(Value::Null);
        if let Some(d) = v.get("solver_delta") {
            let get = |k: &str| d.get(k).and_then(Value::as_i64).unwrap_or(0).max(0) as u64;
            let proving: u64 = v
                .get("cases")
                .and_then(Value::as_array)
                .unwrap_or(&[])
                .iter()
                .filter(|c| c.get("cached").and_then(Value::as_bool) == Some(false))
                .map(|c| (c.get("seconds").and_then(Value::as_f64).unwrap_or(0.0) * 1e9) as u64)
                .sum();
            let kernel = get("kernel_nanos");
            self.kernel_ns += kernel;
            trace::attribute_last(vec![
                ("solver", kernel.min(proving)),
                ("engine", proving.saturating_sub(kernel)),
            ]);
            self.counters.add(
                "solver.queries",
                get("unsat_queries") + get("entailment_queries"),
            );
            self.counters
                .add("solver.leaf_cases", get("cases_explored"));
            self.counters.add("solver.cache_hits", get("cache_hits"));
            self.counters
                .add("solver.incremental_hits", get("incremental_hits"));
        }
        v
    }

    fn load(&mut self, idx: usize, kind: Load, outcome: &mut Outcome) {
        let (w, m, targets) = PAIRS[idx];
        let v = self.request(
            "load",
            &format!(
                r#"{{"cmd":"load","workload":"{w}","mode":"{m}","workers":1,"branch_parallelism":1}}"#
            ),
        );
        let resident = matches!(kind, Load::Resident);
        if let (false, Some(a)) = (resident, &self.attrib) {
            let s = a.build[idx];
            // The daemon elaborates the specs twice: once for the session,
            // once for its side context.
            trace::attribute_last(vec![
                ("rust_ir", s.rust_ir),
                ("core", s.types + 2 * s.spec + s.compile),
                ("absint", s.absint),
                ("lint", s.lint),
            ]);
        }
        let hydrated = names(&v, "hydrated");
        self.counters.add("hydrated", hydrated.len() as u64);
        let expect_hydrated: &[&str] = match kind {
            Load::Restart => targets,
            _ => &[],
        };
        let ok = is_ok(&v)
            && v.get("reused").and_then(Value::as_bool) == Some(resident)
            && names(&v, "targets") == targets
            && (resident || hydrated == expect_hydrated);
        outcome.check(ok, || {
            format!(
                "load {w}:{m} ({}): {v}",
                ["cold", "restart", "switch"][kind as usize]
            )
        });
        self.current = idx;
    }

    /// A `verify` of the current pair; `reproved` must be exactly the
    /// targets re-proved, everything else answered from the cache. Returns
    /// the number re-proved.
    fn verify(&mut self, reproved: &[&str], outcome: &mut Outcome) -> u64 {
        let v = self.request("verify", r#"{"cmd":"verify"}"#);
        let targets = PAIRS[self.current].2;
        let cached: Vec<&str> = targets
            .iter()
            .copied()
            .filter(|t| !reproved.contains(t))
            .collect();
        let got = names(&v, "reverified");
        let ok = is_ok(&v)
            && v.get("all_verified").and_then(Value::as_bool) == Some(true)
            && got == reproved
            && names(&v, "cached") == cached;
        outcome.check(ok, || {
            format!(
                "verify {}: expected re-proved {reproved:?}, got {v}",
                PAIRS[self.current].0
            )
        });
        got.len() as u64
    }

    fn ensure_chain(&mut self, outcome: &mut Outcome) {
        if self.current != CHAIN {
            self.load(CHAIN, Load::Resident, outcome);
        }
    }

    /// A spec edit plus the `verify` that carries its verdicts; the edit
    /// latency is one operation.
    fn spec_edit(
        &mut self,
        generation: Option<usize>,
        v: u64,
        t: &mut Timings,
        outcome: &mut Outcome,
    ) {
        self.ensure_chain(outcome);
        let requires = match generation {
            Some(g) => format!("\"x@ < {}\"", BOUNDS[g]),
            None => format!("\"x@ < {v}\",\"{v} < x@\""),
        };
        let line = format!(
            r#"{{"cmd":"update_spec","fn":"inc","requires":[{requires}],"ensures":["result@ == x@ + 1"]}}"#
        );
        let start = Instant::now();
        let v = self.request("update_spec", &line);
        if let Some(a) = &self.attrib {
            trace::attribute_last(vec![("lint", a.spec_lint[generation.unwrap_or(4)])]);
        }
        let lints = lint_codes(&v);
        self.counters.add("lint.findings", lints.len() as u64);
        let reproved = match generation {
            None => {
                let rejected = !is_ok(&v)
                    && v.get("error")
                        .and_then(Value::as_str)
                        .is_some_and(|e| e.contains("GL041"))
                    && lints.iter().any(|c| c == "GL041");
                outcome.check(rejected, || {
                    format!("unsatisfiable edit must be rejected with GL041: {v}")
                });
                self.counters.add("lint.rejected_edits", 1);
                self.verify(&[], outcome)
            }
            Some(g) => {
                let ok = is_ok(&v)
                    && v.get("changed").and_then(Value::as_bool) == Some(true)
                    && names(&v, "dirtied") == ["inc", "inc2"];
                outcome.check(ok, || format!("spec edit to generation {g}: {v}"));
                self.verify(&["inc", "inc2"], outcome)
            }
        };
        t.op(ms(start.elapsed()));
        self.counters.add("edits", 1);
        self.counters.add("edit.reverified", reproved);
    }

    fn update_fn(&mut self, i: usize, t: &mut Timings, outcome: &mut Outcome) {
        self.ensure_chain(outcome);
        let f = CHAIN_FNS[i];
        let start = Instant::now();
        let v = self.request("update_fn", &format!(r#"{{"cmd":"update_fn","fn":"{f}"}}"#));
        if let Some(a) = &self.attrib {
            trace::attribute_last(vec![("lint", a.fn_lint[i]), ("absint", a.fn_absint[i])]);
        }
        self.counters
            .add("lint.findings", lint_codes(&v).len() as u64);
        // `inc2` is proved against `inc`'s spec, not its body: touching a
        // body re-proves that function alone.
        outcome.check(is_ok(&v) && names(&v, "dirtied") == [f], || {
            format!("update_fn {f}: {v}")
        });
        let reproved = self.verify(&[f], outcome);
        t.op(ms(start.elapsed()));
        self.counters.add("edits", 1);
        self.counters.add("edit.reverified", reproved);
    }

    /// Drops the core and serves every pair again from a new one on the
    /// same store: all hydrated, nothing re-proved.
    fn restart(&mut self, order: &[usize], t: &mut Timings, outcome: &mut Outcome) {
        self.core = ServerCore::new();
        let start = Instant::now();
        self.core = ServerCore::with_store(self.store.clone());
        for &idx in order {
            self.load(idx, Load::Restart, outcome);
            self.verify(&[], outcome);
        }
        t.prep(ms(start.elapsed()));
    }

    fn block(&mut self, block: &Block, t: &mut Timings, outcome: &mut Outcome) {
        trace::begin_op();
        trace::span("bench", "restart", || {
            self.restart(&block.order, t, outcome)
        });
        for action in &block.actions {
            trace::begin_op();
            match *action {
                Action::SpecEdit { generation, v } => trace::span("bench", "spec_edit", || {
                    self.spec_edit(generation, v, t, outcome)
                }),
                Action::UpdateFn(i) => {
                    trace::span("bench", "update_fn", || self.update_fn(i, t, outcome))
                }
                Action::WarmVerify => trace::span("bench", "warm_verify", || {
                    self.verify(&[], outcome);
                }),
                Action::Switch(idx) => trace::span("bench", "switch", || {
                    self.load(idx, Load::Resident, outcome);
                    self.verify(&[], outcome);
                }),
            }
        }
    }

    /// Counters plus the store's lookups and inserts.
    fn snapshot(&self) -> Counters {
        let mut c = self.counters.clone();
        c.add("proof_cache.lookups", self.store.lookups.calls());
        c.add("proof_cache.inserts", self.store.inserts.calls());
        c
    }
}

fn delta(after: &Counters, before: &Counters) -> Counters {
    let mut c = Counters::default();
    for (k, v) in &after.values {
        c.add(k, v - before.get(k));
    }
    c
}

/// Runs blocks: the first [`SEGMENT_BLOCKS`] after set-up are the counted
/// segment, whose counters are returned. With `traced`, blocks alternate
/// between untraced (`t`) and traced runs.
fn run_loop(
    c: &mut Client,
    blocks: &[Block],
    seconds: f64,
    t: &mut Timings,
    traced: Option<&mut Timings>,
    outcome: &mut Outcome,
) -> Counters {
    let before = c.snapshot();
    let mut segment = None;
    let mut done = 0;
    let mut block = |v: u32, t: &mut Timings| {
        c.block(&blocks[v as usize], t, outcome);
        done += 1;
        if done == SEGMENT_BLOCKS {
            segment = Some(delta(&c.snapshot(), &before));
        }
    };
    match traced {
        None => run_blocks(t, VARIANTS, seconds, &mut block),
        Some(traced) => run_traced(t, traced, VARIANTS, seconds, &mut block),
    }
    segment.unwrap_or_else(|| delta(&c.snapshot(), &before))
}

/// Median nanoseconds of three spans of `f`.
fn median_ns<R>(layer: &'static str, name: &'static str, mut f: impl FnMut() -> R) -> u64 {
    let times: Vec<f64> = (0..3)
        .map(|_| {
            let mut ns = 0;
            step(&mut ns, layer, name, &mut f);
            ns as f64
        })
        .collect();
    median(&times) as u64
}

/// The build steps of every pair, and the lint and absint work of each
/// edit kind, called directly on the same inputs.
fn decomposition() -> (Attrib, u64) {
    let mut gil_cmds = 0;
    let build = PAIRS
        .iter()
        .map(|(w, m, _)| {
            let w = workload(w).expect("known workload");
            let mode = parse_mode(m).expect("known mode");
            let (split, cmds, _) = decompose_median(w.program, w.specs, None, mode);
            gil_cmds += cmds;
            split
        })
        .collect();

    // The daemon lints each candidate spec on a copy of the engine program.
    let mut db = ProgramDb::load("chain", None, Some(1), Some(1)).expect("chain loads");
    let inc = db
        .session
        .verifier()
        .types
        .program
        .function("inc")
        .expect("chain has inc")
        .clone();
    let clause = |s: &str| elaborate(&parse_term(s).expect("valid clause"));
    let mut spec_lint = [0; 5];
    let requires = BOUNDS
        .iter()
        .map(|&b| vec![format!("x@ < {b}")])
        .chain([vec!["x@ < 5".to_string(), "5 < x@".to_string()]]);
    for (slot, requires) in spec_lint.iter_mut().zip(requires) {
        let spec = db.side_ctx.fn_spec(
            &inc,
            requires.iter().map(|s| clause(s)).collect(),
            vec![clause("result@ == x@ + 1")],
        );
        let mut candidate = db.session.verifier().engine.prog.clone();
        for (name, pred) in &db.side_ctx.prog.preds {
            if !candidate.preds.contains_key(name) {
                candidate.add_pred(pred.clone());
            }
        }
        candidate.add_spec(spec);
        let opts = db.session.lint_options();
        *slot = median_ns("lint", "spec", || {
            gillian_lint::lint_spec(&candidate, "inc", &opts)
        });
    }

    let verifier = db.session.verifier();
    let lint_opts = db.session.lint_options();
    let absint_opts = AnalysisOptions {
        action_bounds: Some(typed_load_bounds(verifier.types.clone())),
        ..AnalysisOptions::default()
    };
    let (mut fn_lint, mut fn_absint) = ([0; 3], [0; 3]);
    for (i, f) in CHAIN_FNS.iter().enumerate() {
        let proc = &verifier.engine.prog.procs[&Symbol::new(f)];
        fn_lint[i] = median_ns("lint", "proc", || {
            gillian_lint::lint_proc(&verifier.engine.prog, f, &lint_opts)
        });
        fn_absint[i] = median_ns("absint", "refresh", || {
            gillian_absint::analyze_proc(proc, &absint_opts)
        });
    }
    (
        Attrib {
            build,
            spec_lint,
            fn_lint,
            fn_absint,
        },
        gil_cmds,
    )
}

pub fn run(args: &Args, outcome: &mut Outcome) -> WorkloadResult {
    let root: PathBuf = out_dir().join(format!("daemon-{}", std::process::id()));

    let variants = block_variants(args.seed);

    // Set-up: the cold load, verify and cache fill, nine times over fresh
    // stores, each scaled to the nominal host speed; the median is
    // reported, and every cold pass must do the same work.
    let mut setups = Vec::new();
    let mut cold_counts: Option<Counters> = None;
    let mut client = None;
    let mut speed = Speed::new();
    for i in 0..9 {
        let ((c, s), k) = speed.scaled(|| Client::cold(&root.join(format!("store-{i}")), outcome));
        setups.push(s * k);
        let counts = c.snapshot();
        match &cold_counts {
            None => cold_counts = Some(counts),
            Some(first) => outcome.check(*first == counts, || {
                "a repeated cold set-up did different work".to_string()
            }),
        }
        client = Some(c);
    }
    let mut client = client.expect("the cold set-ups ran");

    let mut t = Timings::default();
    let mut layer_metrics = BTreeMap::new();
    let mut layer_table = trace::LayerTable::default();
    let mut layer_notes = Vec::new();
    client.cmd_ns.clear();
    client.kernel_ns = 0;
    let segment = if !args.trace {
        run_loop(&mut client, &variants, args.seconds, &mut t, None, outcome)
    } else {
        trace::set_enabled(true);
        let (attrib, gil_cmds) = decomposition();
        let attrib = Arc::new(attrib);
        client.attrib = Some(attrib.clone());
        let (lookups, inserts) = (&client.store.lookups, &client.store.inserts);
        let (lookups0, inserts0) = (lookups.traced(), inserts.traced());
        let mut traced = Timings::default();
        let segment = run_loop(
            &mut client,
            &variants,
            args.seconds,
            &mut t,
            Some(&mut traced),
            outcome,
        );
        layer_table = finish_trace(args);

        for (k, v) in &segment.values {
            layer_metrics.insert(*k, *v as f64);
        }
        let blocks = (t.blocks.len() + traced.blocks.len()) as f64;
        let ratio = |a: &str, b: &str| segment.get(a) as f64 / segment.get(b).max(1) as f64;
        layer_metrics.insert(
            "solver.cache_hit_ratio",
            ratio("solver.cache_hits", "solver.queries"),
        );
        layer_metrics.insert(
            "proof_cache.hit_ratio",
            ratio("hydrated", "proof_cache.lookups"),
        );
        layer_metrics.insert(
            "server.reverified_per_edit",
            ratio("edit.reverified", "edits"),
        );
        layer_metrics.insert("solver.kernel_ms", client.kernel_ns as f64 / 1e6 / blocks);
        layer_metrics.insert("core.gil_cmds", gil_cmds as f64);
        layer_metrics.insert("trace.overhead_pct", overhead_pct(&t, &traced));
        layer_metrics.insert("trace.spans", layer_table.spans as f64);

        let per = |(ns, n): (u64, u64)| ns as f64 / 1e3 / n.max(1) as f64;
        let cmd = |name: &str| per(client.cmd_ns.get(name).copied().unwrap_or_default());
        // Server self time is only measured in traced blocks: half the loop.
        let requests: u64 = client.cmd_ns.values().map(|v| v.1).sum::<u64>() / 2;
        let traced_since = |now: (u64, u64), then: (u64, u64)| (now.0 - then.0, now.1 - then.1);
        let (lookups, inserts) = (&client.store.lookups, &client.store.inserts);
        let restart_build =
            |f: fn(&BuildSplit) -> u64| attrib.build.iter().map(f).sum::<u64>() as f64 / 1e3;
        layer_notes = vec![
            (
                "server.update_spec_us".to_string(),
                cmd("update_spec"),
                "us/request",
            ),
            (
                "server.update_fn_us".to_string(),
                cmd("update_fn"),
                "us/request",
            ),
            ("server.verify_us".to_string(), cmd("verify"), "us/request"),
            ("server.load_us".to_string(), cmd("load"), "us/request"),
            (
                "server.self_us".to_string(),
                per((layer_table.self_ns("server"), requests)),
                "us/request",
            ),
            (
                "proof_cache.lookup_us".to_string(),
                per(traced_since(lookups.traced(), lookups0)),
                "us/call",
            ),
            (
                "proof_cache.insert_us".to_string(),
                per(traced_since(inserts.traced(), inserts0)),
                "us/call",
            ),
            (
                "lint.spec_us".to_string(),
                attrib.spec_lint[1] as f64 / 1e3,
                "us/edit",
            ),
            (
                "lint.us".to_string(),
                restart_build(|s| s.lint),
                "us/restart",
            ),
            (
                "absint.analyze_us".to_string(),
                restart_build(|s| s.absint),
                "us/restart",
            ),
            (
                "core.compile_us".to_string(),
                restart_build(|s| s.types + s.compile),
                "us/restart",
            ),
            (
                "core.spec_us".to_string(),
                restart_build(|s| 2 * s.spec),
                "us/restart",
            ),
            (
                "rust_ir.build_us".to_string(),
                restart_build(|s| s.rust_ir),
                "us/restart",
            ),
        ];
        segment
    };
    let _ = std::fs::remove_dir_all(&root);

    let mut counters = segment;
    counters.base = format!("the first {SEGMENT_BLOCKS} request blocks after set-up");
    WorkloadResult {
        names: Names {
            throughput: "edits_per_s",
            op: "edit_ms",
            prep: "restart_ms",
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
