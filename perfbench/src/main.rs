//! `perfbench` — the verifier's seeded benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <batch_corpus|kernel_chains|daemon_edit> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed`; the verifier only sees the
//! generated programs, solver facts and daemon requests. Every answer is
//! checked against a hand-written oracle, and a mismatch is printed and
//! counted in `failed`, never silently dropped. The last line of standard
//! output is one JSON object: with `--trace 0` it carries the end-to-end
//! metrics of `BENCHMARK.json`, with `--trace 1` the per-layer ones, taken
//! from traced blocks that alternate with untraced runs of the same blocks.

mod batch;
mod daemon;
mod kernel;
mod reference;
mod rng;
mod store;
mod trace;

use reference::Speed;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Layers whose self-time share is reported (crate names of the repo).
const LAYERS: &[&str] = &[
    "rust_ir",
    "core",
    "absint",
    "lint",
    "engine",
    "solver",
    "driver",
    "proof_cache",
    "server",
];

/// Per-layer metrics other than the `<layer>.self_pct` shares, with units.
/// A workload that bypasses a layer reports 0 for it.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("solver.kernel_ms", "ms"),
    ("solver.queries", "count"),
    ("solver.leaf_cases", "count"),
    ("solver.cache_hits", "count"),
    ("solver.cache_hit_ratio", "ratio"),
    ("solver.incremental_hits", "count"),
    ("engine.commands", "count"),
    ("engine.branches", "count"),
    ("engine.consumes", "count"),
    ("engine.produces", "count"),
    ("engine.folds", "count"),
    ("engine.unfolds", "count"),
    ("engine.recoveries", "count"),
    ("core.gil_cmds", "count"),
    ("absint.branches_pruned", "count"),
    ("absint.facts_seeded", "count"),
    ("lint.findings", "count"),
    ("lint.rejected_edits", "count"),
    ("driver.parallel_efficiency", "ratio"),
    ("proof_cache.lookups", "count"),
    ("proof_cache.inserts", "count"),
    ("proof_cache.hit_ratio", "ratio"),
    ("server.requests", "count"),
    ("server.reverified_per_edit", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |_| format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u32>().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(bad)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let trace = trace.unwrap_or(0);
    if trace > 1 {
        return Err("--trace takes 0 or 1".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1) as f64,
        trace: trace == 1,
    })
}

/// Oracle bookkeeping: one entry per checked operation.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    /// Records one operation; a wrong outcome is printed (the first 50) and
    /// counted.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 50 {
                eprintln!("perfbench: unexpected outcome: {}", what());
            }
        }
    }
}

/// Deterministic work counters over a fixed segment of the run (`base`).
#[derive(Default, Clone, PartialEq)]
pub struct Counters {
    pub base: String,
    pub values: BTreeMap<&'static str, u64>,
}

impl Counters {
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.values.entry(name).or_default() += n;
    }

    pub fn get(&self, name: &str) -> u64 {
        self.values.get(name).copied().unwrap_or(0)
    }

    fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .values
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        format!(
            "{{\"base\":\"{}\",\"counts\":{{{}}}}}",
            self.base,
            fields.join(",")
        )
    }
}

/// Latency samples of the measured phase. Work runs in blocks that cycle
/// through a few seeded variants; a sample's *position* (variant, index in
/// the block) names the same operation on the same inputs each time its
/// variant repeats.
#[derive(Default)]
pub struct Timings {
    /// The answer a client waits for: a target's verdict, a solver query,
    /// an edit's re-verification. (position, milliseconds).
    pub ops: Vec<(u32, f64)>,
    /// The step that prepares answers: a session build, a fact assertion, a
    /// daemon restart. (position, milliseconds).
    pub preps: Vec<(u32, f64)>,
    /// (variant, seconds) of each block.
    pub blocks: Vec<(u32, f64)>,
    /// The host-speed factor of each section of blocks (see [`run_blocks`]).
    pub speed: Vec<f64>,
    variant: u32,
    next_op: u32,
    next_prep: u32,
}

impl Timings {
    pub fn op(&mut self, ms: f64) {
        self.ops.push((self.variant << 20 | self.next_op, ms));
        self.next_op += 1;
    }

    pub fn prep(&mut self, ms: f64) {
        self.preps.push((self.variant << 20 | self.next_prep, ms));
        self.next_prep += 1;
    }

    pub fn wall_s(&self) -> f64 {
        self.blocks.iter().map(|b| b.1).sum()
    }

    /// One cycle of block variants, each at its median block time.
    pub fn cycle_s(&self) -> f64 {
        by_position(&self.blocks).iter().sum()
    }
}

/// The median sample of each position, in position order. Samples scaled
/// to one host speed (see [`run_blocks`]) are summarised by their median,
/// not their lowest, which would pick out the scaling's noise.
fn by_position(samples: &[(u32, f64)]) -> Vec<f64> {
    let mut by_pos: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
    for &(pos, v) in samples {
        by_pos.entry(pos).or_default().push(v);
    }
    by_pos.into_values().map(|v| median(&v)).collect()
}

fn values(samples: &[(u32, f64)]) -> Vec<f64> {
    samples.iter().map(|s| s.1).collect()
}

/// How a workload names its operations in the human-readable report.
pub struct Names {
    pub throughput: &'static str,
    pub op: &'static str,
    pub prep: &'static str,
    /// Display unit of `op`/`prep` latencies: "ms" or "us".
    pub op_unit: &'static str,
    pub prep_unit: &'static str,
}

pub struct WorkloadResult {
    pub names: Names,
    pub setup_s: f64,
    pub timings: Timings,
    pub counters: Counters,
    /// Per-layer metrics (trace mode only), keyed by the names of
    /// [`LAYER_METRICS`]; absent names read as 0.
    pub layer_metrics: BTreeMap<&'static str, f64>,
    pub layer_table: trace::LayerTable,
    /// Extra absolute per-layer figures for the human-readable report.
    pub layer_notes: Vec<(String, f64, &'static str)>,
}

/// Runs one block of `variant`, recording its time and its samples'
/// positions into `t`.
fn timed_block(t: &mut Timings, variant: u32, block: &mut impl FnMut(u32, &mut Timings)) {
    t.variant = variant;
    t.next_op = 0;
    t.next_prep = 0;
    let start = Instant::now();
    block(variant, t);
    t.blocks.push((variant, start.elapsed().as_secs_f64()));
}

/// Blocks run in sections of at least this long between two runs of the
/// reference computation.
const SECTION_S: f64 = 0.1;

/// Runs blocks, cycling through `variants`, until `seconds` have elapsed
/// and the cycle is complete. Every sample is scaled to the reference's
/// nominal host speed, measured around the section of blocks it ran in.
pub fn run_blocks(
    t: &mut Timings,
    variants: u32,
    seconds: f64,
    mut block: impl FnMut(u32, &mut Timings),
) {
    let start = Instant::now();
    let mut speed = Speed::new();
    let mut section = Timings::default();
    let mut section_start = Instant::now();
    loop {
        let ran = t.blocks.len() + section.blocks.len();
        timed_block(&mut section, (ran % variants as usize) as u32, &mut block);
        let done =
            start.elapsed().as_secs_f64() >= seconds && (ran + 1).is_multiple_of(variants as usize);
        if done || section_start.elapsed().as_secs_f64() >= SECTION_S {
            let k = speed.factor();
            let scale = |s: &[(u32, f64)]| s.iter().map(|&(p, v)| (p, v * k)).collect::<Vec<_>>();
            t.ops.extend(scale(&section.ops));
            t.preps.extend(scale(&section.preps));
            t.blocks.extend(scale(&section.blocks));
            t.speed.push(k);
            section = Timings::default();
            section_start = Instant::now();
        }
        if done {
            return;
        }
    }
}

/// The traced run: every block variant runs untraced and then traced, in
/// turn, so both see the same machine conditions, until `seconds` have
/// elapsed and the cycle is complete.
pub fn run_traced(
    untraced: &mut Timings,
    traced: &mut Timings,
    variants: u32,
    seconds: f64,
    mut block: impl FnMut(u32, &mut Timings),
) {
    let start = Instant::now();
    loop {
        let variant = (untraced.blocks.len() % variants as usize) as u32;
        trace::set_enabled(false);
        timed_block(untraced, variant, &mut block);
        trace::set_enabled(true);
        timed_block(traced, variant, &mut block);
        if start.elapsed().as_secs_f64() >= seconds
            && untraced.blocks.len().is_multiple_of(variants as usize)
        {
            return;
        }
    }
}

/// Nearest-rank percentile of unsorted samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Where runs leave their traces, counters and scratch stores.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Ends the traced phase: writes the Chrome trace file and returns the
/// per-layer self-time table.
pub fn finish_trace(args: &Args) -> trace::LayerTable {
    trace::set_enabled(false);
    let (table, json) = trace::drain();
    let path = out_dir().join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    match std::fs::write(&path, json) {
        Ok(()) => println!("  trace written to {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
    table
}

/// Tracing overhead: traced blocks against untraced runs of the same
/// blocks, median cycle against median cycle, in percent.
pub fn overhead_pct(untraced: &Timings, traced: &Timings) -> f64 {
    100.0 * (traced.cycle_s() / untraced.cycle_s() - 1.0)
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out = out_dir();
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("perfbench: cannot create {}: {e}", out.display());
        std::process::exit(2);
    }
    let mut outcome = Outcome::default();
    let result = match args.workload.as_str() {
        "batch_corpus" => batch::run(&args, &mut outcome),
        "kernel_chains" => kernel::run(&args, &mut outcome),
        "daemon_edit" => daemon::run(&args, &mut outcome),
        other => {
            eprintln!(
                "perfbench: unknown workload `{other}` (batch_corpus, kernel_chains, daemon_edit)"
            );
            std::process::exit(2);
        }
    };
    let peak_rss = peak_rss_mb();
    let t = &result.timings;
    let n = &result.names;
    let scale = |unit: &str| if unit == "us" { 1e3 } else { 1.0 };

    println!(
        "perfbench {} seed={} seconds={} trace={} threads_available={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |p| p.get())
    );
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if !args.trace {
        // On a shared host, other tenants slow the CPU down by up to 1.7× in
        // bursts and for minutes at a time. Every sample is therefore scaled
        // to one host speed (see `run_blocks`), each operation reports the
        // median over the repeats of its position, and throughput is one
        // cycle of work over the sum of each variant's median block time.
        let (ops, preps) = (by_position(&t.ops), by_position(&t.preps));
        let throughput = ops.len() as f64 / t.cycle_s();
        let e2e = [
            ("setup_s", result.setup_s, "s"),
            ("peak_rss_mb", peak_rss, "MB"),
            ("ops_per_s", throughput, "1/s"),
            ("op_ms_p50", median(&ops), "ms"),
            ("op_ms_p99", percentile(&ops, 0.99), "ms"),
            ("prep_ms_p50", median(&preps), "ms"),
            ("prep_ms_p99", percentile(&preps, 0.99), "ms"),
        ];
        let (os, ps) = (scale(n.op_unit), scale(n.prep_unit));
        let human = [
            (n.throughput.to_string(), throughput, "1/s"),
            (format!("{}_p50", n.op), e2e[3].1 * os, n.op_unit),
            (format!("{}_p99", n.op), e2e[4].1 * os, n.op_unit),
            (format!("{}_p50", n.prep), e2e[5].1 * ps, n.prep_unit),
            (format!("{}_p99", n.prep), e2e[6].1 * ps, n.prep_unit),
            ("setup_s".to_string(), result.setup_s, "s"),
            ("peak_rss_mb".to_string(), peak_rss, "MB"),
        ];
        for (name, v, unit) in &human {
            println!("  {name:<28} {v:>14.4} {unit}");
        }
        let (all_ops, all_preps) = (values(&t.ops), values(&t.preps));
        println!(
            "  host speed: the reference took {:.3}x its nominal {} ms (median; {:.3}x to {:.3}x) around {} sections; times below are scaled to it",
            1.0 / median(&t.speed),
            reference::NOMINAL_MS,
            1.0 / percentile(&t.speed, 1.0),
            1.0 / percentile(&t.speed, 0.0),
            t.speed.len()
        );
        println!(
            "  median of {} blocks ({} variants) in {:.2} s: {} {} positions, {} {} positions",
            t.blocks.len(),
            by_position(&t.blocks).len(),
            t.wall_s(),
            ops.len(),
            n.op,
            preps.len(),
            n.prep,
        );
        println!(
            "  every sample: {} {} p50 {:.4} p99 {:.4} ms ({} beyond p99); {} {} p50 {:.4} p99 {:.4} ms",
            all_ops.len(),
            n.op,
            median(&all_ops),
            percentile(&all_ops, 0.99),
            all_ops.len() - (0.99 * all_ops.len() as f64).ceil() as usize,
            all_preps.len(),
            n.prep,
            median(&all_preps),
            percentile(&all_preps, 0.99),
        );
        metrics.extend(e2e.iter().map(|&(k, v, u)| (k.to_string(), v, u)));
    } else {
        let table = &result.layer_table;
        println!(
            "  traced time {:.3} s over {} spans; self time by layer:",
            table.root_ns as f64 / 1e9,
            table.spans
        );
        for (layer, (ns, count)) in &table.layers {
            println!(
                "    {layer:<12} {:>10.3} ms {:>7.2} %  ({count} spans)",
                *ns as f64 / 1e6,
                table.share_pct(layer)
            );
        }
        for (name, v, unit) in &result.layer_notes {
            println!("  {name:<28} {v:>14.4} {unit}");
        }
        for layer in LAYERS {
            metrics.push((format!("{layer}.self_pct"), table.share_pct(layer), "%"));
        }
        for &(name, unit) in LAYER_METRICS {
            let v = result.layer_metrics.get(name).copied().unwrap_or(0.0);
            println!("  {name:<28} {v:>14.4} {unit}");
            metrics.push((name.to_string(), v, unit));
        }
    }
    let failed_share = if outcome.attempted == 0 {
        1.0
    } else {
        outcome.failed as f64 / outcome.attempted as f64
    };
    println!(
        "  failed_share {:.6} ({} of {} checked operations)",
        failed_share, outcome.failed, outcome.attempted
    );

    let counters_path = out.join(format!("counters-{}-seed{}.json", args.workload, args.seed));
    let counters_json = result.counters.to_json();
    let repeat = match std::fs::read_to_string(&counters_path) {
        Ok(prev) if prev.trim() == counters_json => "identical to the previous run of this seed",
        Ok(_) => "DIFFERENT from the previous run of this seed",
        Err(_) => "first run of this seed",
    };
    let _ = std::fs::write(&counters_path, format!("{counters_json}\n"));
    println!("  counters ({repeat}): {counters_json}");

    let fields: Vec<String> = metrics
        .iter()
        .map(|(k, v, u)| format!("\"{k}\":{{\"value\":{v},\"unit\":\"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(",")
    );
}
