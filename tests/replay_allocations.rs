//! Allocation regression for a warm PES replay.
//!
//! Each thread carries one run scratch (the solver arena, the solve-memo
//! ring, the window and prediction buffers) from replay to replay, so once a
//! thread has replayed a session the next replay re-poses into warm buffers
//! instead of allocating them again. This file pins that: a counting global
//! allocator counts the allocations (`alloc`, `alloc_zeroed` and `realloc`
//! calls) each thread makes, and the warm replay of a pinned full-length
//! session must stay under [`WARM_REPLAY_ALLOCATION_BOUND`].
//!
//! Measured counts for the pinned session (cnn, seed `EVAL_SEED_BASE`, 31
//! events, private memo ring, shared power plane):
//!
//! | build | cold replay (fresh thread) | warm replay |
//! |---|---|---|
//! | debug | 246 | 71 |
//! | release | 228 | 53 |
//!
//! Before the scratch was carried across replays every replay was a cold
//! one, at 300 (debug) and 282 (release) allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use pes::acmp::{DvfsLadder, Platform};
use pes::core::{PesConfig, PesScheduler, RunReport};
use pes::predictor::{LearnerConfig, Trainer, TrainingConfig};
use pes::webrt::QosPolicy;
use pes::workload::{AppCatalog, TraceGenerator, EVAL_SEED_BASE};

/// The measured debug warm count (71) plus headroom for incidental changes
/// elsewhere, such as a new report field; a return to building the scratch
/// per replay lands far above it.
const WARM_REPLAY_ALLOCATION_BOUND: usize = 90;

/// Counts every allocation the current thread makes, so concurrently
/// running tests and the harness never disturb a measurement.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches only a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn warm_pes_replay_stays_under_its_allocation_bound() {
    let catalog = AppCatalog::paper_suite();
    let platform = Platform::exynos_5410();
    let plane = Arc::new(DvfsLadder::for_platform(&platform));
    let qos = QosPolicy::paper_defaults();
    let app = catalog.find("cnn").unwrap();
    let page = app.build_page();
    let trace = TraceGenerator::new().generate(app, &page, EVAL_SEED_BASE);
    let learner = Trainer::with_config(TrainingConfig {
        traces_per_app: 3,
        epochs: 25,
        ..Default::default()
    })
    .train_learner(&catalog, LearnerConfig::paper_defaults());
    let pes = PesScheduler::new(learner, PesConfig::paper_defaults());
    let replay = || pes.run_trace_with_plane(&platform, &plane, &page, &trace, &qos);

    // The first replay on a fresh thread builds the thread's scratch.
    let (cold, cold_allocations) = std::thread::scope(|s| {
        s.spawn(|| counted(replay))
            .join()
            .expect("cold replay panicked")
    });
    let (warm, warm_allocations): (RunReport, usize) = std::thread::scope(|s| {
        s.spawn(|| {
            replay();
            counted(replay)
        })
        .join()
        .expect("warm replay panicked")
    });
    println!(
        "replay allocations over {} events: cold {cold_allocations}, warm {warm_allocations}",
        trace.len()
    );
    assert_eq!(warm, cold, "a warm scratch must not change the replay");
    assert!(
        trace.len() >= 20,
        "the pinned session must be full length ({} events)",
        trace.len()
    );
    assert!(
        warm_allocations <= WARM_REPLAY_ALLOCATION_BOUND,
        "a warm PES replay made {warm_allocations} allocations \
         (bound {WARM_REPLAY_ALLOCATION_BOUND}, cold {cold_allocations})"
    );
}
