//! A fixed reference computation that measures how fast the host is running
//! right now, so `kernel_chains` can report its latencies at one host speed.
//!
//! On a shared virtual machine other tenants slow the CPU down by up to 1.7×
//! for stretches of seconds to minutes, and the solver kernel, which chases
//! pointers through thousands of small maps, feels it more than most code.
//! The reference does the same kind of work with the benchmark's own code:
//! pairwise Fourier–Motzkin combination of `BTreeMap` rows over an
//! equality chain, with a `HashSet` dedup index. It never calls the
//! repository's crates, so a change to the verifier leaves it alone.
//!
//! Timed next to a block of kernel work, the ratio of the two stays within
//! a few percent between the host's fast and slow spells while each alone
//! moves by 70 % (measured on a 2-vCPU Xeon VM at 2.1 GHz).

use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

/// The reference's time on the host above when undisturbed (about its 5th
/// percentile over a minute): the host speed latencies are reported at.
pub const NOMINAL_MS: f64 = 3.9;

/// Chain length of the reference problem. At 40 its thousand-odd rows
/// track the kernel's slowdowns within a few percent; at 20 they tracked
/// them about half as well.
const VARS: u32 = 40;
/// Rows the reference derives; checked so the work cannot silently change.
const ROWS: usize = 1040;
/// Key of a row's constant term.
const CONST: u32 = u32::MAX;

type Row = BTreeMap<u32, i64>;

/// `|cb| * a + |ca| * b` for the first variable with opposite signs.
fn combine(a: &Row, b: &Row) -> Option<Row> {
    let (&k, &ca) = a
        .iter()
        .find(|&(k, ca)| *k != CONST && b.get(k).is_some_and(|cb| cb.signum() != ca.signum()))?;
    let cb = b[&k];
    let mut out = Row::new();
    for (key, v) in a {
        *out.entry(*key).or_default() += v * cb.abs();
    }
    for (key, v) in b {
        *out.entry(*key).or_default() += v * ca.abs();
    }
    out.retain(|_, v| *v != 0);
    Some(out)
}

fn key(r: &Row) -> Vec<(u32, i64)> {
    r.iter().map(|(k, v)| (*k, *v)).collect()
}

/// Derives the closure of `x(i+1) - x(i) = c(i)` by four semi-naive
/// elimination rounds; returns the number of rows.
fn derive() -> usize {
    let mut rows: Vec<Row> = Vec::new();
    for i in 0..VARS {
        let c = (i % 7 + 1) as i64;
        rows.push([(i + 1, 1), (i, -1), (CONST, -c)].into_iter().collect());
        rows.push([(i + 1, -1), (i, 1), (CONST, c)].into_iter().collect());
    }
    let mut seen: HashSet<Vec<(u32, i64)>> = rows.iter().map(key).collect();
    let mut start = 0;
    for _ in 0..4 {
        let len = rows.len();
        let mut new = Vec::new();
        for i in 0..len {
            for j in (i + 1).max(start)..len {
                if let Some(r) = combine(&rows[i], &rows[j]) {
                    if (2..=4).contains(&r.len()) {
                        new.push(r);
                    }
                }
            }
        }
        start = len;
        for r in new {
            if seen.insert(key(&r)) {
                rows.push(r);
            }
        }
    }
    rows.len()
}

/// Runs the reference once; returns its wall time in milliseconds.
fn time_ms() -> f64 {
    let start = Instant::now();
    let rows = black_box(derive());
    let ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(rows, ROWS, "the reference computation changed");
    ms
}

/// Host speed along a run: the reference runs between consecutive timed
/// sections, and each section is scaled by the mean of the runs on either
/// side of it.
pub struct Speed {
    last_ms: f64,
}

impl Speed {
    /// Runs the reference once, opening the first section.
    pub fn new() -> Speed {
        Speed { last_ms: time_ms() }
    }

    /// Closes the section that ran since the last call: runs the reference
    /// and returns the factor that scales a time measured in the section to
    /// the nominal host speed.
    pub fn factor(&mut self) -> f64 {
        let after = time_ms();
        let k = 2.0 * NOMINAL_MS / (self.last_ms + after);
        self.last_ms = after;
        k
    }

    /// Runs `f` as one section; returns its result and its factor.
    pub fn scaled<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let out = f();
        (out, self.factor())
    }
}
