//! Deterministic scoped-thread fan-out for the experiment drivers.
//!
//! The figure suite replays every `(application, trace, scheduler)` tuple
//! independently — hundreds of deterministic, seeded session replays with no
//! shared mutable state. [`par_map`] spreads those units over
//! `std::thread::scope` workers pulling indices from an atomic counter, then
//! reassembles the results **in index order**, so the output is byte-for-byte
//! identical to the serial loop no matter how the units interleave at
//! runtime. Setting `PES_THREADS=1` (or running on a single-core host)
//! degenerates to the plain serial path.
//!
//! [`par_map_supervised_with`] is the fleet-grade tier underneath: every unit runs
//! inside `catch_unwind`, panicking units are retried a bounded number of
//! times and then **quarantined** — their index is reported in the returned
//! [`FleetReport`] instead of aborting the whole fan-out. One poisoned
//! session replay must cost the fleet one result, not the suite.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use pes_core::DegradationLevel;

/// Worker count: the `PES_THREADS` environment variable when set to a
/// positive integer, otherwise the host's available parallelism.
pub fn parallelism() -> usize {
    std::env::var("PES_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// One quarantined unit of a supervised fan-out: the unit index, how many
/// times it was attempted, and the panic payload of the last attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitFailure {
    /// Index of the failing unit in `0..n`.
    pub index: usize,
    /// Attempts made (`1 + retries` unless the worker thread itself died).
    pub attempts: usize,
    /// The unit's last known serving tier before it was quarantined, when
    /// the driver tracks one (the fleet driver records the tier each unit
    /// was routed at, so quarantine reports say *how degraded* the unit
    /// already was when it still failed). `None` for plain fan-outs.
    pub last_level: Option<DegradationLevel>,
    /// Stringified panic payload of the final attempt.
    pub message: String,
}

/// The outcome of a [`par_map_supervised_with`] fan-out: per-unit results in
/// index order (`None` where the unit was quarantined) plus the structured
/// failure list and the per-unit attempt counts.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport<T> {
    /// One slot per unit, in index order; quarantined units hold `None`.
    pub results: Vec<Option<T>>,
    /// Every quarantined unit, in index order.
    pub failures: Vec<UnitFailure>,
    /// Attempts per unit, in index order: `1` for a first-try success,
    /// `1 + k` after `k` retries, `0` when the worker thread died before
    /// reporting the unit.
    pub attempts: Vec<usize>,
}

impl<T> FleetReport<T> {
    /// Number of units that produced a result.
    pub fn completed(&self) -> usize {
        self.results.iter().filter(|r| r.is_some()).count()
    }

    /// Number of quarantined (persistently failing) units.
    pub fn quarantined(&self) -> usize {
        self.failures.len()
    }

    /// Fraction of units that were quarantined (`0.0` for an empty fleet).
    pub fn quarantine_rate(&self) -> f64 {
        if self.results.is_empty() {
            0.0
        } else {
            self.failures.len() as f64 / self.results.len() as f64
        }
    }

    /// Total retry attempts beyond each unit's first try (worker-death
    /// units, reported with zero attempts, contribute nothing).
    pub fn total_retries(&self) -> usize {
        self.attempts.iter().map(|&a| a.saturating_sub(1)).sum()
    }

    /// Whether every unit completed.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// The completed results in index order, dropping quarantined slots.
    pub fn into_results(self) -> Vec<T> {
        self.results.into_iter().flatten().collect()
    }
}

/// One unit outcome as produced by a worker: `(index, attempts, result)`
/// with the panic payload already stringified.
type TaggedOutcome<T> = (usize, usize, Result<T, String>);

/// Runs one unit under `catch_unwind` with bounded retry, returning the
/// attempts made and either the result or the last panic payload.
fn run_supervised<T, F>(f: &F, index: usize, retries: usize) -> (usize, Result<T, String>)
where
    F: Fn(usize) -> T + Sync,
{
    let attempts = retries + 1;
    let mut last = String::new();
    for made in 1..=attempts {
        match catch_unwind(AssertUnwindSafe(|| f(index))) {
            Ok(value) => return (made, Ok(value)),
            Err(payload) => {
                last = panic_message(payload.as_ref());
            }
        }
    }
    (attempts, Err(last))
}

/// Best-effort stringification of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The failure synthesized for a unit whose worker thread died (a
/// non-unwinding abort) before reporting it.
fn worker_death(index: usize) -> UnitFailure {
    UnitFailure {
        index,
        attempts: 0,
        last_level: None,
        message: "worker thread died before reporting".to_string(),
    }
}

/// Reassembles tagged worker outcomes into a [`FleetReport`] in index
/// order. Unreported indices — a worker thread died to a non-unwinding
/// abort after claiming them — are synthesized as zero-attempt failures
/// instead of poisoning the fleet. Split out of the fan-out so the
/// worker-death path is unit-testable without actually aborting a thread.
fn assemble<T>(n: usize, tagged: Vec<TaggedOutcome<T>>) -> FleetReport<T> {
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let mut attempts = vec![0usize; n];
    let mut failures: Vec<UnitFailure> = Vec::new();
    let mut seen = vec![false; n];
    for (index, made, outcome) in tagged {
        debug_assert!(!seen[index], "unit {index} produced twice");
        seen[index] = true;
        attempts[index] = made;
        match outcome {
            Ok(value) => slots[index] = Some(value),
            Err(message) => failures.push(UnitFailure {
                index,
                attempts: made,
                last_level: None,
                message,
            }),
        }
    }
    for (index, seen) in seen.iter().enumerate() {
        if !seen {
            failures.push(worker_death(index));
        }
    }
    // Reassembled in index order (failures too): this is what makes the
    // parallel driver byte-identical to the serial one.
    failures.sort_by_key(|failure| failure.index);
    FleetReport {
        results: slots,
        failures,
        attempts,
    }
}

/// Maps `f` over `0..n` with up to [`parallelism`] scoped threads, returning
/// results in index order. For a deterministic `f` (every experiment unit is
/// — traces are seeded per unit) the result is identical to
/// `(0..n).map(f).collect()`.
///
/// # Panics
///
/// Panics if any unit panics (the legacy all-or-nothing contract); fleets
/// that must survive failing units use [`par_map_supervised_with`].
pub fn par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_with(parallelism(), n, f)
}

/// [`par_map`] with an explicit worker count (`1` forces the serial path).
///
/// # Panics
///
/// Panics if any unit panics, naming the first failing unit.
pub fn par_map_with<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let report = par_map_supervised_with(threads, n, 0, f);
    if let Some(failure) = report.failures.first() {
        panic!(
            "experiment unit {} panicked ({} quarantined of {}): {}",
            failure.index,
            report.failures.len(),
            n,
            failure.message
        );
    }
    report.into_results()
}

/// Supervised fan-out: maps `f` over `0..n` with up to `threads` workers
/// (`1` forces the serial path), catching per-unit panics, retrying each
/// failing unit up to `retries` more times, and quarantining units that
/// still fail. The returned [`FleetReport`] keeps results in index order
/// (deterministic for deterministic units, exactly like [`par_map`]) with
/// `None` holes for the quarantined indices.
pub fn par_map_supervised_with<T, F>(
    threads: usize,
    n: usize,
    retries: usize,
    f: F,
) -> FleetReport<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 || n <= 1 {
        let tagged = (0..n)
            .map(|index| {
                let (made, outcome) = run_supervised(&f, index, retries);
                (index, made, outcome)
            })
            .collect();
        return assemble(n, tagged);
    }
    // Workers pull the next unit index from a shared counter (work stealing
    // in its simplest form: unit costs are uneven, so static chunking would
    // leave threads idle) and tag each outcome with its index.
    let next = AtomicUsize::new(0);
    let next = &next;
    let f = &f;
    let mut tagged: Vec<TaggedOutcome<T>> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= n {
                            break;
                        }
                        let (made, outcome) = run_supervised(f, index, retries);
                        out.push((index, made, outcome));
                    }
                    out
                })
            })
            .collect();
        for worker in workers {
            // A worker thread can only die to a non-unwinding abort (unit
            // panics are caught above); its claimed-but-unreported units are
            // synthesized as failures by `assemble` instead of poisoning the
            // fleet.
            if let Ok(batch) = worker.join() {
                tagged.extend(batch);
            }
        }
    });
    assemble(n, tagged)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_index_order() {
        let serial = par_map_with(1, 100, |i| i * 3);
        let parallel = par_map_with(8, 100, |i| i * 3);
        assert_eq!(serial, parallel);
        assert_eq!(parallel[7], 21);
    }

    #[test]
    fn uneven_units_still_produce_identical_results() {
        let work = |i: usize| {
            // Simulate uneven unit cost with a spin proportional to index.
            let mut acc = 0u64;
            for k in 0..(i % 13) * 1_000 {
                acc = acc.wrapping_add(k as u64);
            }
            (i, acc)
        };
        assert_eq!(par_map_with(1, 64, work), par_map_with(6, 64, work));
    }

    #[test]
    fn empty_and_single_inputs_are_fine() {
        assert_eq!(par_map_with(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_with(4, 1, |i| i + 1), vec![1]);
    }

    #[test]
    fn parallelism_is_at_least_one() {
        assert!(parallelism() >= 1);
    }

    #[test]
    fn supervised_fan_out_quarantines_failing_units() {
        let report = par_map_supervised_with(4, 20, 0, |i| {
            if i % 7 == 3 {
                panic!("unit {i} is poisoned");
            }
            i * 2
        });
        assert_eq!(report.quarantined(), 3); // units 3, 10, 17
        assert_eq!(report.completed(), 17);
        assert!(!report.is_clean());
        assert!((report.quarantine_rate() - 3.0 / 20.0).abs() < 1e-12);
        assert_eq!(
            report.failures.iter().map(|f| f.index).collect::<Vec<_>>(),
            vec![3, 10, 17]
        );
        assert_eq!(report.failures[0].message, "unit 3 is poisoned");
        assert_eq!(report.failures[0].last_level, None);
        assert_eq!(report.results[3], None);
        assert_eq!(report.results[4], Some(8));
        // Every unit was attempted exactly once (no retries requested).
        assert_eq!(report.attempts, vec![1; 20]);
        assert_eq!(report.total_retries(), 0);
        // Holes drop out of into_results, order preserved.
        assert_eq!(report.into_results().len(), 17);
    }

    #[test]
    fn supervised_retry_rescues_flaky_units() {
        use std::sync::atomic::AtomicUsize;
        let attempts = AtomicUsize::new(0);
        let report = par_map_supervised_with(1, 4, 2, |i| {
            if i == 2 && attempts.fetch_add(1, Ordering::SeqCst) < 2 {
                panic!("transient failure");
            }
            i + 1
        });
        assert!(report.is_clean(), "two retries rescue a twice-flaky unit");
        assert_eq!(report.results, vec![Some(1), Some(2), Some(3), Some(4)]);
        assert_eq!(attempts.load(Ordering::SeqCst), 3);
        // The rescued unit reports its three attempts; the rest one each.
        assert_eq!(report.attempts, vec![1, 1, 3, 1]);
        assert_eq!(report.total_retries(), 2);
    }

    #[test]
    fn persistent_failures_record_their_attempt_count() {
        let report = par_map_supervised_with(2, 3, 2, |i| {
            if i == 1 {
                panic!("always fails");
            }
            i
        });
        assert_eq!(report.quarantined(), 1);
        assert_eq!(report.failures[0].attempts, 3);
        assert_eq!(report.failures[0].message, "always fails");
        assert_eq!(report.attempts[1], 3);
    }

    #[test]
    fn clean_supervised_runs_match_par_map() {
        let supervised = par_map_supervised_with(6, 64, 1, |i| i * i).into_results();
        let legacy = par_map_with(6, 64, |i| i * i);
        assert_eq!(supervised, legacy);
    }

    #[test]
    #[should_panic(expected = "experiment unit 5 panicked")]
    fn legacy_par_map_still_aborts_on_unit_panic() {
        par_map_with(2, 8, |i| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn assemble_synthesizes_failures_for_worker_death_holes() {
        // Units 0 and 2 reported; unit 1 was claimed by a worker that died
        // to a non-unwinding abort and never reported. `assemble` must
        // synthesize a zero-attempt failure for it instead of panicking or
        // silently dropping the slot.
        let tagged: Vec<TaggedOutcome<u32>> = vec![(2, 1, Ok(20)), (0, 2, Err("boom".to_string()))];
        let report = assemble(3, tagged);
        assert_eq!(report.results, vec![None, None, Some(20)]);
        assert_eq!(report.attempts, vec![2, 0, 1]);
        assert_eq!(report.failures.len(), 2);
        assert_eq!(report.failures[0].index, 0);
        assert_eq!(report.failures[0].message, "boom");
        assert_eq!(report.failures[1].index, 1);
        assert_eq!(report.failures[1].attempts, 0);
        assert_eq!(
            report.failures[1].message,
            "worker thread died before reporting"
        );
        assert!((report.quarantine_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_fleet_has_zero_quarantine_rate() {
        let report = par_map_supervised_with(4, 0, 0, |i| i);
        assert_eq!(report.quarantine_rate(), 0.0);
        assert!(report.is_clean());
        assert!(report.attempts.is_empty());
    }
}
