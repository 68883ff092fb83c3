//! Regeneration of the evaluation table of §7 (Table 1): for every internally
//! unsafe module, the verified property, executable lines of code, annotation
//! lines and verification time.
//!
//! Each row is a projection of the [`VerificationReport`] produced by running
//! that module's [`HybridSession`]; the whole table can therefore be
//! regenerated serially (`table1`) or across worker threads
//! (`table1_with_workers`) with identical verdicts.

use crate::{even_int, linked_list, linked_pair, mini_vec};
use driver::{HybridSession, VerificationReport};
use gillian_rust::gilsonite::SpecMode;
use gillian_rust::verifier::CaseReport;
use std::time::Duration;

/// One row of Table 1.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Case-study name as it appears in the paper.
    pub name: &'static str,
    /// Verified property ("TS" or "FC").
    pub property: &'static str,
    /// Executable lines of code.
    pub eloc: usize,
    /// Annotation lines of code.
    pub aloc: usize,
    /// Total verification time (CPU time: the sum of per-case times, so the
    /// column is comparable whatever the worker count).
    pub time: Duration,
    /// Whether every function of the module verified.
    pub all_verified: bool,
    /// The individual reports.
    pub reports: Vec<CaseReport>,
}

impl Table1Row {
    /// Projects a batch [`VerificationReport`] onto a table row.
    pub fn from_report(
        name: &'static str,
        property: &'static str,
        eloc: usize,
        aloc: usize,
        report: VerificationReport,
    ) -> Table1Row {
        Table1Row {
            name,
            property,
            eloc,
            aloc,
            time: report.cpu_time(),
            all_verified: report.all_verified(),
            reports: report.into_case_reports(),
        }
    }
}

/// One prepared Table 1 entry: the static columns plus a *lazy* session
/// constructor. Construction (building the mini-MIR program, elaborating the
/// specs, compiling to GIL) is a sizeable share of a row's cost, so it runs
/// inside the worker thread, not up-front.
pub struct Table1Case {
    pub name: &'static str,
    pub property: &'static str,
    pub aloc: usize,
    build: Box<dyn FnOnce() -> HybridSession + Send>,
}

impl Table1Case {
    pub fn new(
        name: &'static str,
        property: &'static str,
        aloc: usize,
        build: impl FnOnce() -> HybridSession + Send + 'static,
    ) -> Table1Case {
        Table1Case {
            name,
            property,
            aloc,
            build: Box::new(build),
        }
    }

    /// Builds the session (without running it).
    pub fn session(self) -> HybridSession {
        (self.build)()
    }

    /// Builds the session, runs it and projects the row.
    pub fn run(self) -> Table1Row {
        let (name, property, aloc) = (self.name, self.property, self.aloc);
        let session = (self.build)();
        let eloc = session.verifier().types.program.executable_lines();
        let report = session.verify_all();
        Table1Row::from_report(name, property, eloc, aloc, report)
    }
}

/// The six Table 1 entries (EvenInt, LP ×2, LinkedList ×2, MiniVec), each
/// session configured with the given worker count for its own batch.
pub fn table1_cases(workers: usize) -> Vec<Table1Case> {
    use SpecMode::{FunctionalCorrectness as FC, TypeSafety as TS};
    vec![
        Table1Case::new("EvenInt", "TS/FC", even_int::ALOC, move || {
            even_int::session(FC).with_workers(workers)
        }),
        Table1Case::new("LP", "TS", linked_pair::ALOC, move || {
            linked_pair::session(TS).with_workers(workers)
        }),
        Table1Case::new("LP", "FC", linked_pair::ALOC, move || {
            linked_pair::session(FC).with_workers(workers)
        }),
        Table1Case::new("LinkedList", "TS", linked_list::ALOC, move || {
            linked_list::session(TS).with_workers(workers)
        }),
        Table1Case::new("LinkedList", "FC", linked_list::ALOC, move || {
            linked_list::session(FC).with_workers(workers)
        }),
        Table1Case::new("MiniVec", "FC", mini_vec::ALOC, move || {
            mini_vec::session(FC).with_workers(workers)
        }),
    ]
}

/// Runs every case study in both TS and FC mode and returns the table rows
/// (serial: one worker, rows run one after the other).
pub fn table1() -> Vec<Table1Row> {
    table1_with_workers(1)
}

/// Same table with `workers` threads. Rows are the coarse grain: up to
/// `workers` sessions run concurrently (each serial inside), which is where
/// the multi-core speedup of the batch driver comes from — the per-row
/// obligations are few and small, the rows are independent.
pub fn table1_with_workers(workers: usize) -> Vec<Table1Row> {
    let cases = table1_cases(1);
    if workers <= 1 {
        return cases.into_iter().map(Table1Case::run).collect();
    }
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let todo: Vec<Mutex<Option<Table1Case>>> =
        cases.into_iter().map(|c| Mutex::new(Some(c))).collect();
    let done: Vec<Mutex<Option<Table1Row>>> = todo.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers.min(todo.len()) {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= todo.len() {
                    break;
                }
                let case = todo[idx]
                    .lock()
                    .unwrap()
                    .take()
                    .expect("each case runs once");
                *done[idx].lock().unwrap() = Some(case.run());
            });
        }
    });
    done.into_iter()
        .map(|slot| slot.into_inner().unwrap().expect("every row is produced"))
        .collect()
}

/// Renders the table as text (used by the `table1_report` example).
pub fn render(rows: &[Table1Row]) -> String {
    let mut out =
        String::from("| Case | VP | eLoC | aLoC | Time | Verified |\n|---|---|---|---|---|---|\n");
    for r in rows {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {:.3}s | {} |\n",
            r.name,
            r.property,
            r.eloc,
            r.aloc,
            r.time.as_secs_f64(),
            if r.all_verified { "yes" } else { "PARTIAL" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_all_rows_and_renders() {
        let rows = table1();
        assert_eq!(rows.len(), 6);
        let text = render(&rows);
        assert!(text.contains("LinkedList"));
        assert!(text.contains("MiniVec"));
    }

    #[test]
    fn parallel_table_matches_serial_verdicts() {
        let serial = table1();
        let parallel = table1_with_workers(4);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(parallel.iter()) {
            assert_eq!(s.name, p.name);
            assert_eq!(s.all_verified, p.all_verified);
        }
    }
}
