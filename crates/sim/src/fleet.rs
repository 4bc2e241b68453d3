//! Resilient streaming fleet driver: pulls generated sessions through the
//! PES engine with bounded memory and four deterministic, seeded resilience
//! mechanisms layered on the supervised fan-out of [`crate::parallel`]:
//!
//! 1. **Watchdog deadlines** — every replay runs under the per-replay
//!    [`WatchdogConfig`] budget enforced inside `pes_core::runtime`; a trip
//!    demotes the unit's serving tier one [`DegradationLevel`] and is
//!    reported in `RunReport::watchdog_trips`.
//! 2. **Circuit breakers** — each of four shards (`unit % 4`) keeps a
//!    sliding window over its 16 most recent *full-tier* unit outcomes
//!    (quarantines, watchdog trips, floor hits). When 8 of them are bad the
//!    breaker opens and the shard's units are routed to the
//!    [`DegradationLevel::Reactive`] tier instead of the proactive
//!    optimizer; after a two-batch cooldown the breaker half-opens and lets
//!    two probe units per batch back onto the full tier, closing again
//!    after three clean probes.
//! 3. **Admission control / load shedding** — arrivals (with optional
//!    burst storms) land in a bounded queue; when the queue overflows, the
//!    sessions that have waited longest are shed from its head, so storms
//!    degrade throughput gracefully instead of growing memory.
//! 4. **Journaled resume** — after every batch the driver appends one
//!    checksummed journal record holding that batch's unit outcomes: each
//!    admitted unit's route, attempts and compact outcome. Admission,
//!    breakers and the report fold are deterministic functions of those
//!    outcomes, so a killed run resumes through the same drive loop from
//!    batch 0, taking each journaled batch's outcomes in place of replaying
//!    it, and produces byte-identical aggregates to the uninterrupted run —
//!    torn tail lines included. The resume keeps the journal through its
//!    last intact record and appends the remaining batches after it.
//!
//! On top of the four resilience mechanisms the driver shares solver work
//! across the fleet: every replay probes a read-only [`SolveGeneration`]
//! of window solves published by previous batches (each worker records its
//! own fresh solves into a private [`SolveShard`]; a deterministic merge
//! folds the shards in unit order between batches). Each merge also decides,
//! from the hit rate the batch measured, whether the next generation is
//! worth probing: a dormant one is probed only by a sampled slice of window
//! shapes (see [`SolveGeneration::is_dormant`]).
//!
//! Everything is a deterministic function of ([`FleetSpec`],
//! [`FleetConfig`], context): session parameters derive statelessly from
//! the fleet seed via [`pes_core::splitmix`], traces are generated per unit
//! and dropped after the replay, and per-batch aggregation folds in unit
//! index order, so reruns — and resumed runs — are byte-identical
//! regardless of worker count.
//!
//! # Journal record format (`PESFLEETJ6`)
//!
//! The journal is line-oriented ASCII: one record per batch, in batch
//! order, each a space-separated token list ending in an FNV-1a-64 checksum
//! of everything before it. The reader skips blank lines, treats a
//! malformed *final* line, invalid UTF-8 included, as a torn tail and
//! returns a typed [`FleetError::JournalVersion`] for an intact record with
//! any other `PESFLEETJ*` magic, older formats included.
//!
//! ```text
//! PESFLEETJ6 fp=<16-hex fingerprint> batch=<i> units=<unit>:<route>:<attempts>:<outcome>;.. #<16-hex checksum>
//! ```
//!
//! | Token | Meaning |
//! |---|---|
//! | `fp=` | FNV-1a-64 (hex) of the run: every [`FleetSpec`] field plus [`FleetConfig::batch_size`], [`FleetConfig::queue_capacity`] and [`FleetConfig::watchdog`]. A resume under another fingerprint is a [`FleetError::SpecMismatch`]. The thread count, the shared memo and its cap leave every journaled outcome unchanged, so they are not part of it. |
//! | `batch=` | The batch's index from 0; the `i`-th record must hold batch `i`. |
//! | `units=` | The batch's admitted units in admission order, joined by `;`. |
//! | `<unit>` | The unit index. |
//! | `<route>` | `F` full tier, `P` half-open probe, `R` routed to the reactive tier by an open breaker. |
//! | `<attempts>` | Supervised attempts: `1`, or `2` after the one retry; `0` when the worker thread died. |
//! | `<outcome>` | `-` for a quarantined unit, else 20 comma-separated decimals: events, violations, `f64::to_bits` of the energy in µJ (bit-exact, no decimal round-trip), watchdog trips, the five [`DegradationLevel`] counts (Exact, Anytime, Greedy, Reactive, OndemandFloor), the eight [`FaultCounts`] fields (prediction flips, confidence corruptions, demand drifts, starved solves, masked configs, delayed vsyncs, duplicated events, dropped events), solver nodes, and per-replay memo-ring hits and misses. The shared-generation counters are deliberately **not** journaled: a resumed run rebuilds the generation cold, so they are the one aggregate that is not resume-stable. A checksummed record can still carry any `u64`, so the report fold adds them checked and a sum that overflows is [`FleetError::Corrupt`]. |
//! | `#` | FNV-1a-64 checksum (hex) of the full payload before ` #`. |

use std::collections::VecDeque;
use std::fmt;
use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use pes_core::{
    splitmix, DegradationLevel, DegradationTrace, FaultCounts, PesConfig, PesScheduler, RunReport,
    SolveGeneration, SolveShard, WatchdogConfig,
};
use pes_workload::TraceGenerator;

use crate::experiments::ExperimentContext;
use crate::parallel::{par_map_supervised_with, parallelism, FleetReport, UnitFailure};

// ---------------------------------------------------------------------------
// Specs and configuration
// ---------------------------------------------------------------------------

/// What the fleet replays: a stream of `sessions` generated browsing
/// sessions, arriving at a steady rate with optional periodic burst storms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetSpec {
    /// Total sessions to stream through the engine.
    pub sessions: usize,
    /// Fleet seed; every per-session parameter derives from it statelessly.
    pub seed: u64,
    /// Sessions arriving per driver step (clamped to at least 1).
    pub arrivals_per_step: usize,
    /// Every `storm_every`-th step also delivers a burst (`0` disables).
    pub storm_every: usize,
    /// Extra sessions delivered by each storm step.
    pub storm_arrivals: usize,
    /// Truncate each generated session to this many events (`0` keeps the
    /// full trace) — the knob that bounds per-unit replay cost at fleet
    /// scale.
    pub max_events_per_session: usize,
    /// Repeated-config sweep: when non-zero, unit `u` replays the scenario
    /// of unit `u % scenario_cycle`, so the stream cycles through
    /// `scenario_cycle` distinct session configurations instead of fully
    /// decorrelated ones (`0` keeps every unit unique). This is how config
    /// sweeps express "replay the same sessions many times" — and what
    /// gives the shared solve memo cross-replay reuse to answer.
    pub scenario_cycle: usize,
}

impl Default for FleetSpec {
    fn default() -> Self {
        FleetSpec {
            sessions: 64,
            seed: 0x5EED_F1EE7,
            arrivals_per_step: 8,
            storm_every: 0,
            storm_arrivals: 0,
            max_events_per_session: 0,
            scenario_cycle: 0,
        }
    }
}

impl FleetSpec {
    /// The unit whose stateless scenario `unit` replays — `unit` itself
    /// unless a [`FleetSpec::scenario_cycle`] folds the stream onto a
    /// repeated sweep.
    pub fn scenario_unit(&self, unit: usize) -> usize {
        if self.scenario_cycle > 0 {
            unit % self.scenario_cycle
        } else {
            unit
        }
    }
}

/// Supervised retries per unit before it is quarantined (see
/// [`crate::parallel::par_map_supervised_with`]).
const UNIT_RETRIES: usize = 1;
/// Breaker shards: unit `u` belongs to shard `u % SHARDS` and shares that
/// shard's circuit breaker.
const SHARDS: usize = 4;
/// Length of a breaker's sliding window over recent full-tier outcomes.
const BREAKER_WINDOW: u32 = 16;
/// Bad outcomes in the window that open a breaker.
const BREAKER_TRIP: usize = 8;
/// Batches an open breaker waits before half-opening.
const BREAKER_COOLDOWN: usize = 2;
/// Probe units a half-open breaker admits to the full tier per batch.
const BREAKER_PROBES: usize = 2;
/// Consecutive clean probes that close a half-open breaker.
const BREAKER_CLOSE_AFTER: usize = 3;

/// How the driver runs the stream: batching, queueing, workers, the
/// watchdog and the shared solve memo.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetConfig {
    /// Sessions admitted (and fanned out) per driver step.
    pub batch_size: usize,
    /// Bounded admission queue capacity; overflow is shed oldest first.
    pub queue_capacity: usize,
    /// Worker threads for the per-batch fan-out (`0` uses
    /// [`parallelism`]; the result is identical either way).
    pub threads: usize,
    /// Per-replay watchdog deadlines ([`WatchdogConfig::disabled`] turns
    /// enforcement off).
    pub watchdog: WatchdogConfig,
    /// Inert: nothing reads this field, and prediction has one inference
    /// path whatever it holds. It is kept only because the benchmark
    /// harness (`perfbench`) still passes it to
    /// [`PesConfig::with_packed_prediction`], which has no effect either.
    pub packed_prediction: bool,
    /// Share window solves across the fleet: each replay probes the
    /// read-only solve generation published by previous batches and
    /// records its fresh solves into a private [`SolveShard`] that the
    /// deterministic inter-batch merge folds in unit order. Aggregates are
    /// bit-identical with this on or off (a generation hit mirrors the
    /// cold solve it dodges); only wall-clock and the shared counters
    /// change. Each merge also decides, from the hit rate the batch
    /// measured on a 1-in-16 sample of window shapes, whether the next
    /// generation is worth probing ([`SolveGeneration::is_dormant`]), so
    /// unique traffic pays for the sample only. On by default because
    /// repeated-config sweeps win with it. `perfbench` medians (seed 29,
    /// `--seconds 6`, 2-vCPU container, interleaved pairs):
    /// `fleet-sweep`, which never goes dormant, ran 20,257 sessions/s
    /// against 13,478 with the memo off (8 of 8 pairs); `fleet-decorrelated`
    /// ran 14,084 against 11,003 before admission and 14,692 with the memo
    /// off (10 pairs).
    pub shared_memo: bool,
    /// Entry cap of the published solve generation. When the fold exceeds
    /// it, the merge keeps the last `generation_cap` entries in fold order
    /// (previous generation, shape-sorted, then the batch's shards in unit
    /// order): survivors of the previous generation go first, lowest shape
    /// first rather than oldest first, then the batch's earliest shards.
    /// A dormant generation keeps `generation_cap / 16` sampled entries.
    /// 512 holds the `fleet-sweep` chunk's roughly 430 distinct windows:
    /// at 256 that workload solved 24 times as many windows and ran 24%
    /// fewer sessions/s, and 1,024 solved exactly what 512 does (seed 13,
    /// `--seconds 5`, 8 interleaved rounds).
    pub generation_cap: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            batch_size: 16,
            queue_capacity: 64,
            threads: 0,
            watchdog: WatchdogConfig::disabled(),
            packed_prediction: false,
            shared_memo: true,
            generation_cap: 512,
        }
    }
}

/// Derives the stateless per-session parameters of `unit` under `seed`:
/// `(scenario hash, app index, trace seed, priority in 0..4)`. The hash is
/// one [`splitmix`] of `seed ^ unit`, so adjacent units are fully
/// decorrelated yet reproducible from the unit index alone. The driver
/// reads no priority (it sheds oldest first); the tuple keeps it for the
/// callers that destructure it.
pub fn unit_scenario(seed: u64, apps: usize, unit: usize) -> (u64, usize, u64, u8) {
    let h = splitmix(seed ^ unit as u64);
    let app_idx = (h % apps.max(1) as u64) as usize;
    let trace_seed = splitmix(h);
    let priority = ((h >> 32) % 4) as u8;
    (h, app_idx, trace_seed, priority)
}

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

/// The three breaker states.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum BreakerState {
    /// Healthy: units run the full proactive tier and feed the window.
    #[default]
    Closed,
    /// Tripped: units are routed to the breaker's reactive tier.
    Open,
    /// Cooling down: a few probe units run the full tier per batch.
    HalfOpen,
}

impl BreakerState {
    /// One-letter code used by the transition histories (`C`/`O`/`H`).
    pub fn letter(self) -> char {
        match self {
            BreakerState::Closed => 'C',
            BreakerState::Open => 'O',
            BreakerState::HalfOpen => 'H',
        }
    }
}

/// A per-shard circuit breaker: a pure, deterministic state machine over
/// full-tier unit outcomes. Bad outcomes while closed fill a sliding bit
/// window; 8 bad outcomes among the last 16 open the breaker; two
/// `end_batch` cooldown ticks half-open it; three clean probes close it (a
/// bad probe snaps it back open). Routed-tier outcomes never feed the
/// window — a shard serving at the floor cannot poison its own recovery
/// signal. `CircuitBreaker::default()` is a closed breaker with an empty
/// window.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CircuitBreaker {
    state: BreakerState,
    bits: u64,
    cooldown_left: usize,
    probe_successes: usize,
    history: Vec<BreakerState>,
}

impl CircuitBreaker {
    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Bad outcomes currently in the window.
    pub fn bad_in_window(&self) -> usize {
        self.bits.count_ones() as usize
    }

    /// The transition history as state letters, oldest first (`"OHC..."`;
    /// the initial `Closed` is implicit, so a breaker that never tripped
    /// has an empty history).
    pub fn history_letters(&self) -> String {
        self.history.iter().map(|s| s.letter()).collect()
    }

    fn trip(&mut self) {
        self.state = BreakerState::Open;
        self.cooldown_left = BREAKER_COOLDOWN;
        self.probe_successes = 0;
        self.history.push(BreakerState::Open);
    }

    /// Feeds one full-tier outcome while closed (no-op in any other state).
    pub fn record(&mut self, bad: bool) {
        if self.state != BreakerState::Closed {
            return;
        }
        self.bits = ((self.bits << 1) | u64::from(bad)) & ((1 << BREAKER_WINDOW) - 1);
        if self.bad_in_window() >= BREAKER_TRIP {
            self.trip();
        }
    }

    /// Feeds one probe outcome while half-open (no-op in any other state):
    /// a bad probe re-opens, three clean probes close the breaker and clear
    /// its window.
    pub fn record_probe(&mut self, bad: bool) {
        if self.state != BreakerState::HalfOpen {
            return;
        }
        if bad {
            self.trip();
        } else {
            self.probe_successes += 1;
            if self.probe_successes >= BREAKER_CLOSE_AFTER {
                self.state = BreakerState::Closed;
                self.bits = 0;
                self.probe_successes = 0;
                self.history.push(BreakerState::Closed);
            }
        }
    }

    /// Batch-boundary tick: an open breaker counts down its cooldown and
    /// half-opens when it expires.
    pub fn end_batch(&mut self) {
        if self.state == BreakerState::Open {
            self.cooldown_left = self.cooldown_left.saturating_sub(1);
            if self.cooldown_left == 0 {
                self.state = BreakerState::HalfOpen;
                self.probe_successes = 0;
                self.history.push(BreakerState::HalfOpen);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Reports and errors
// ---------------------------------------------------------------------------

/// Aggregate outcome of a fleet run, deterministic for a given
/// ([`FleetSpec`], [`FleetConfig`], context) — and byte-identical whether
/// the run was uninterrupted or killed and resumed from its journal.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetRunReport {
    /// Sessions the spec asked for.
    pub sessions: usize,
    /// Sessions that completed a replay (possibly after retries).
    pub completed: usize,
    /// Sessions shed by admission control (never executed).
    pub shed: usize,
    /// Quarantined sessions (executed, persistently failing), in unit
    /// order; each carries the [`DegradationLevel`] it was routed at.
    pub failures: Vec<UnitFailure>,
    /// Retry attempts beyond each unit's first try.
    pub retries: usize,
    /// Driver steps taken.
    pub steps: u64,
    /// Batches executed (== records in a complete journal).
    pub batches: usize,
    /// Peak admission-queue length after shedding (bounded by
    /// `queue_capacity`).
    pub peak_queue: usize,
    /// QoS violations summed over completed replays (unit order).
    pub violations: usize,
    /// Events replayed by completed units.
    pub events: usize,
    /// Total energy of completed replays in microjoules, folded in unit
    /// order (compare via [`FleetRunReport::energy_bits`]).
    pub energy_uj: f64,
    /// Degradation ladder summed over completed replays.
    pub degradation: DegradationTrace,
    /// Fault injections summed over completed replays.
    pub injections: FaultCounts,
    /// Watchdog deadline trips summed over completed replays.
    pub watchdog_trips: usize,
    /// Per-shard breaker transition histories as state letters.
    pub breaker_histories: Vec<String>,
    /// Per-shard final breaker states.
    pub breaker_finals: Vec<BreakerState>,
    /// Branch-and-bound nodes expanded over completed replays.
    pub solver_nodes: usize,
    /// Per-replay memo-ring hits summed over completed replays.
    pub memo_hits: usize,
    /// Per-replay memo-ring misses summed over completed replays —
    /// identical with the shared memo on or off (a generation hit still
    /// counts as a ring miss, mirroring the cold solve it dodged).
    pub memo_misses: usize,
    /// Ring misses answered by the shared cross-replay solve generation.
    /// All zeros when [`FleetConfig::shared_memo`] is off. **Not**
    /// resume-stable (a resumed run rebuilds the generation cold), so this
    /// is report-only and never journaled.
    pub shared_hits: usize,
    /// Ring misses that reached the shared layer, whether or not they
    /// probed the generation: `shared_lookups - shared_hits` is the number
    /// of solves that ran. Report-only, like [`FleetRunReport::shared_hits`].
    pub shared_lookups: usize,
    /// Shared lookups that probed the generation. Equal to
    /// `shared_lookups` while every generation is admitted; a dormant one
    /// probes only its sampled slice of window shapes (see
    /// [`SolveGeneration::is_dormant`]). Report-only, like
    /// [`FleetRunReport::shared_hits`].
    pub shared_probes: usize,
}

impl FleetRunReport {
    /// The exact bit pattern of the energy aggregate — the byte-identity
    /// handle the resume tests compare.
    pub fn energy_bits(&self) -> u64 {
        self.energy_uj.to_bits()
    }

    /// Times any shard breaker opened.
    pub fn breaker_opens(&self) -> usize {
        self.breaker_histories
            .iter()
            .map(|h| h.chars().filter(|&c| c == 'O').count())
            .sum()
    }

    /// Per-replay memo-ring hit rate over all optimizer invocations.
    pub fn memo_hit_rate(&self) -> f64 {
        let total = self.memo_hits + self.memo_misses;
        if total == 0 {
            0.0
        } else {
            self.memo_hits as f64 / total as f64
        }
    }

    /// Cross-replay hit rate: the fraction of optimizer invocations
    /// answered by *any* cache — the per-replay ring or the shared
    /// generation. With the shared memo off this equals
    /// [`FleetRunReport::memo_hit_rate`].
    pub fn combined_hit_rate(&self) -> f64 {
        let total = self.memo_hits + self.memo_misses;
        if total == 0 {
            0.0
        } else {
            (self.memo_hits + self.shared_hits) as f64 / total as f64
        }
    }

    /// Shared hits over shared lookups. A lookup that a dormant generation
    /// did not probe counts as a miss here, so this is the share of ring
    /// misses the shared layer answered, not the hit rate of its probes
    /// (that is `shared_hits / shared_probes`).
    pub fn shared_hit_rate(&self) -> f64 {
        if self.shared_lookups == 0 {
            0.0
        } else {
            self.shared_hits as f64 / self.shared_lookups as f64
        }
    }
}

/// Errors of the journaled fleet paths: journal IO, corrupt records, or a
/// journal that does not match the spec/config it is resumed under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// Reading or writing the journal failed.
    Io(String),
    /// A journal record failed to parse or checksum (beyond a torn tail).
    Corrupt(String),
    /// The journal disagrees with the spec/config it is being resumed
    /// under: a record carries another run's fingerprint, its admitted
    /// units or routes differ from the run's, or the journal holds more
    /// batches than the run has.
    SpecMismatch(String),
    /// A record carries a journal-format magic this build does not read
    /// (e.g. a journal written by a newer build). Distinct from
    /// [`FleetError::Corrupt`] so the reader never mistakes a healthy
    /// future-format journal for a torn tail and silently restarts over
    /// it.
    JournalVersion {
        /// The magic found on the record.
        found: String,
        /// The magics this build reads, newest first.
        supported: String,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Io(msg) => write!(f, "fleet journal IO error: {msg}"),
            FleetError::Corrupt(msg) => write!(f, "fleet journal corrupt: {msg}"),
            FleetError::SpecMismatch(msg) => write!(f, "fleet journal mismatch: {msg}"),
            FleetError::JournalVersion { found, supported } => write!(
                f,
                "fleet journal version {found:?} unsupported (this build reads {supported})"
            ),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<std::io::Error> for FleetError {
    fn from(e: std::io::Error) -> Self {
        FleetError::Io(e.to_string())
    }
}

// ---------------------------------------------------------------------------
// Driver internals
// ---------------------------------------------------------------------------

/// How an admitted unit was routed for its batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UnitRoute {
    /// Full proactive tier; outcome feeds the shard window.
    Full,
    /// Full tier as a half-open probe; outcome feeds the probe counter.
    Probe,
    /// Forced to the `Reactive` tier by an open breaker; outcome is ignored
    /// by the breaker.
    Routed,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ticket {
    unit: usize,
    route: UnitRoute,
}

/// The compact per-unit summary kept after a replay (the full `RunReport`,
/// with its per-event vectors, is dropped inside the worker — that is what
/// keeps fleet memory bounded by the batch size).
#[derive(Debug, Clone, Default, PartialEq)]
struct UnitOutcome {
    events: usize,
    violations: usize,
    energy_uj: f64,
    degradation: DegradationTrace,
    injections: FaultCounts,
    watchdog_trips: usize,
    solver_nodes: usize,
    memo_hits: usize,
    memo_misses: usize,
    /// Ring misses answered by the shared generation (report-only; see
    /// [`FleetRunReport::shared_hits`]).
    shared_hits: usize,
    /// Ring misses that reached the shared layer.
    shared_lookups: usize,
    /// Shared lookups that probed the generation.
    shared_probes: usize,
}

impl UnitOutcome {
    fn from_report(report: &RunReport) -> Self {
        UnitOutcome {
            events: report.events,
            violations: report.violations,
            energy_uj: report.total_energy.as_microjoules(),
            degradation: report.degradation,
            injections: report.fault_injections,
            watchdog_trips: report.watchdog_trips,
            solver_nodes: report.solver_nodes,
            memo_hits: report.solver_cache_hits,
            memo_misses: report.solver_cache_misses,
            ..UnitOutcome::default()
        }
    }
}

/// The tier a route entered the engine at — attached to quarantine records
/// so failures say how degraded the unit already was when it still failed.
fn route_level(route: UnitRoute) -> DegradationLevel {
    match route {
        UnitRoute::Full | UnitRoute::Probe => DegradationLevel::Exact,
        UnitRoute::Routed => DegradationLevel::Reactive,
    }
}

fn is_bad(outcome: Option<&UnitOutcome>) -> bool {
    outcome.is_none_or(|o| o.watchdog_trips > 0 || o.degradation.ondemand_floor > 0)
}

/// The outcome-independent half of a fleet drive: the admission queue, the
/// next unit to arrive and the step counter. Arrivals, storms, shedding and
/// admission depend only on the step index and the queue contents, never on
/// unit outcomes.
#[derive(Debug, Default)]
struct Intake {
    queue: VecDeque<usize>,
    next_unit: usize,
    step: u64,
}

impl Intake {
    /// Whether sessions remain to arrive or to be admitted.
    fn pending(&self, spec: &FleetSpec) -> bool {
        self.next_unit < spec.sessions || !self.queue.is_empty()
    }

    /// One driver step up to admission: arrivals (steady rate plus periodic
    /// burst storms), load shedding from the queue head down to the bounded
    /// queue capacity (counted into `report`), then the next batch drained
    /// from the queue head. The batch is never empty while
    /// [`Intake::pending`] held.
    fn admit(
        &mut self,
        spec: &FleetSpec,
        config: &FleetConfig,
        report: &mut FleetRunReport,
    ) -> std::collections::vec_deque::Drain<'_, usize> {
        self.step += 1;
        let mut arrivals = spec.arrivals_per_step.max(1);
        if spec.storm_every > 0 && self.step.is_multiple_of(spec.storm_every as u64) {
            arrivals += spec.storm_arrivals;
        }
        let arrived = arrivals.min(spec.sessions - self.next_unit);
        self.queue.extend(self.next_unit..self.next_unit + arrived);
        self.next_unit += arrived;
        let excess = self
            .queue
            .len()
            .saturating_sub(config.queue_capacity.max(1));
        self.queue.drain(..excess);
        report.shed += excess;
        report.peak_queue = report.peak_queue.max(self.queue.len());
        let take = config.batch_size.max(1).min(self.queue.len());
        self.queue.drain(..take)
    }
}

/// One streaming fleet drive. `exec` runs one admitted batch and returns
/// its supervised report; the real runner replays PES, the admission dry
/// run substitutes instant clean outcomes. All arithmetic outside `exec`
/// (arrivals, storms, shedding, admission, breaker feeding, aggregation
/// order) is identical across both, which is what lets the proptests
/// exercise the full driver loop cheaply. The first `journaled.len()`
/// batches take a resumed journal's outcomes in place of `exec`; every
/// later batch runs and appends its record to `journal`.
fn drive<E>(
    spec: &FleetSpec,
    config: &FleetConfig,
    mut journal: Option<&mut JournalWriter>,
    journaled: Vec<JournaledBatch>,
    mut exec: E,
) -> Result<FleetRunReport, FleetError>
where
    E: FnMut(&[Ticket]) -> FleetReport<UnitOutcome>,
{
    let fingerprint = fingerprint(spec, config);
    let mut breakers = vec![CircuitBreaker::default(); SHARDS];
    let mut intake = Intake::default();
    let mut journaled = journaled.into_iter();
    let mut report = FleetRunReport {
        sessions: spec.sessions,
        ..FleetRunReport::default()
    };
    // The journaled counters, summed in unit order.
    let mut totals = UnitOutcome::default();

    while intake.pending(spec) {
        // 1–3. Arrivals, load shedding and admission (`Intake::admit`),
        //    then breaker routing: half-open shards admit
        //    `BREAKER_PROBES` full-tier probe units per batch, the rest
        //    stay routed.
        let mut probes_used = [0usize; SHARDS];
        let tickets: Vec<Ticket> = intake
            .admit(spec, config, &mut report)
            .map(|unit| {
                let shard = unit % SHARDS;
                let route = match breakers[shard].state() {
                    BreakerState::Closed => UnitRoute::Full,
                    BreakerState::Open => UnitRoute::Routed,
                    BreakerState::HalfOpen => {
                        if probes_used[shard] < BREAKER_PROBES {
                            probes_used[shard] += 1;
                            UnitRoute::Probe
                        } else {
                            UnitRoute::Routed
                        }
                    }
                };
                Ticket { unit, route }
            })
            .collect();

        // 4. Supervised fan-out of the batch, journaling its unit outcomes,
        //    or the outcomes a resumed journal holds for it.
        let batch = match journaled.next() {
            Some((units, batch)) if units == tickets => batch,
            Some(_) => {
                return Err(FleetError::SpecMismatch(format!(
                    "journal record {} admits other units or routes than the run",
                    report.batches
                )))
            }
            None => {
                let batch = exec(&tickets);
                if let Some(writer) = journal.as_deref_mut() {
                    writer.append(&encode_record(
                        fingerprint,
                        report.batches,
                        &tickets,
                        &batch,
                    ))?;
                }
                batch
            }
        };

        // 5. Outcome classification feeds the shard breakers in unit index
        //    order (full-tier and probe outcomes only), then the batch
        //    boundary ticks every cooldown.
        for (ticket, outcome) in tickets.iter().zip(&batch.results) {
            let bad = is_bad(outcome.as_ref());
            let breaker = &mut breakers[ticket.unit % SHARDS];
            match ticket.route {
                UnitRoute::Full => breaker.record(bad),
                UnitRoute::Probe => breaker.record_probe(bad),
                UnitRoute::Routed => {}
            }
        }
        for breaker in &mut breakers {
            breaker.end_batch();
        }

        // 6. Aggregation in unit index order (deterministic float fold). A
        //    checksummed record can carry any counter, so a sum that
        //    overflows is a corrupt journal, never a panic or a wrap.
        let index = report.batches;
        let overflow = || {
            FleetError::Corrupt(format!(
                "journal record {index} overflows the report's sums"
            ))
        };
        for outcome in batch.results.iter().flatten() {
            report.completed += 1;
            totals = totals.checked_add(outcome).ok_or_else(overflow)?;
        }
        report.retries = report
            .retries
            .checked_add(batch.total_retries())
            .ok_or_else(overflow)?;
        for failure in &batch.failures {
            let ticket = tickets[failure.index];
            report.failures.push(UnitFailure {
                index: ticket.unit,
                attempts: failure.attempts,
                last_level: Some(route_level(ticket.route)),
                message: failure.message.clone(),
            });
        }
        report.batches += 1;
    }

    if journaled.len() > 0 {
        return Err(FleetError::SpecMismatch(format!(
            "journal holds {} more batches than the run's {}",
            journaled.len(),
            report.batches
        )));
    }
    report.steps = intake.step;
    report.breaker_histories = breakers.iter().map(|b| b.history_letters()).collect();
    report.breaker_finals = breakers.iter().map(|b| b.state()).collect();
    report.violations = totals.violations;
    report.events = totals.events;
    report.energy_uj = totals.energy_uj;
    report.watchdog_trips = totals.watchdog_trips;
    report.degradation = totals.degradation;
    report.injections = totals.injections;
    report.solver_nodes = totals.solver_nodes;
    report.memo_hits = totals.memo_hits;
    report.memo_misses = totals.memo_misses;
    report.shared_hits = totals.shared_hits;
    report.shared_lookups = totals.shared_lookups;
    report.shared_probes = totals.shared_probes;
    Ok(report)
}

/// The real batch executor: generates each admitted session's trace from
/// its stateless seed, replays it under the route's serving tier on the
/// shared engine with a per-unit reseeded fault plane, and keeps only the
/// compact [`UnitOutcome`]. One pre-built scheduler per tier is shared by
/// every unit, so the fan-out never clones the learner per session.
struct BatchRunner<'a> {
    ctx: &'a ExperimentContext,
    spec: &'a FleetSpec,
    threads: usize,
    /// Probe the shared solve generation per replay and publish the
    /// workers' shards between batches.
    shared_memo: bool,
    generation_cap: usize,
    /// The read-only cross-replay solve cache every worker of the next
    /// batch probes; republished (never mutated in place) after each
    /// batch's deterministic shard merge.
    generation: Arc<SolveGeneration>,
    full: PesScheduler,
    reactive: PesScheduler,
}

impl<'a> BatchRunner<'a> {
    fn new(ctx: &'a ExperimentContext, spec: &'a FleetSpec, config: &FleetConfig) -> Self {
        let base = || PesConfig::paper_defaults().with_watchdog(config.watchdog);
        BatchRunner {
            ctx,
            spec,
            threads: if config.threads == 0 {
                parallelism()
            } else {
                config.threads
            },
            shared_memo: config.shared_memo,
            generation_cap: config.generation_cap.max(1),
            generation: Arc::new(SolveGeneration::empty()),
            full: PesScheduler::new(ctx.learner.clone(), base()),
            reactive: PesScheduler::new(
                ctx.learner.clone(),
                base().with_forced_tier(DegradationLevel::Reactive),
            ),
        }
    }

    /// Runs one admitted batch. `&mut self` only for the generation
    /// handoff: the fan-out itself borrows the runner immutably, and the
    /// merged generation is republished after the workers have joined —
    /// the batch in flight always reads the one frozen at its start.
    fn run(&mut self, tickets: &[Ticket]) -> FleetReport<UnitOutcome> {
        let apps = self.ctx.catalog.apps().len();
        let generation = Arc::clone(&self.generation);
        let raw = par_map_supervised_with(self.threads, tickets.len(), UNIT_RETRIES, |i| {
            let ticket = tickets[i];
            let (h, app_idx, trace_seed, _) =
                unit_scenario(self.spec.seed, apps, self.spec.scenario_unit(ticket.unit));
            let app = &self.ctx.catalog.apps()[app_idx];
            let page = self.ctx.scenarios.page_ref(app_idx);
            let mut trace = TraceGenerator::new().generate(app, page, trace_seed);
            let cap = self.spec.max_events_per_session;
            if cap > 0 && trace.len() > cap {
                trace = pes_workload::Trace::from_events(
                    app.name(),
                    trace_seed,
                    trace.events()[..cap].to_vec(),
                );
            }
            let scheduler = match ticket.route {
                UnitRoute::Full | UnitRoute::Probe => &self.full,
                UnitRoute::Routed => &self.reactive,
            };
            let faults = self.ctx.faults.reseeded(h);
            if self.shared_memo {
                let mut shard = SolveShard::new();
                let run = scheduler.run_trace_with_shared_memo(
                    &self.ctx.platform,
                    &self.ctx.power_plane,
                    page,
                    &trace,
                    &self.ctx.qos,
                    &faults,
                    &generation,
                    &mut shard,
                );
                let mut outcome = UnitOutcome::from_report(&run);
                outcome.shared_hits = shard.shared_hits();
                outcome.shared_lookups = shard.shared_lookups();
                outcome.shared_probes = shard.probes();
                (outcome, Some(shard))
            } else {
                let run = scheduler.run_trace_with_plane_and_faults(
                    &self.ctx.platform,
                    &self.ctx.power_plane,
                    page,
                    &trace,
                    &self.ctx.qos,
                    &faults,
                );
                (UnitOutcome::from_report(&run), None)
            }
        });
        // Strip the workers' write shards in unit index order and fold
        // them into the next batch's generation (first occurrence of a
        // key wins, so the merge is independent of worker count).
        let mut shards: Vec<SolveShard> = Vec::new();
        let mut batch = FleetReport {
            results: Vec::with_capacity(raw.results.len()),
            failures: raw.failures,
            attempts: raw.attempts,
        };
        for slot in raw.results {
            match slot {
                Some((outcome, shard)) => {
                    if let Some(shard) = shard {
                        shards.push(shard);
                    }
                    batch.results.push(Some(outcome));
                }
                None => batch.results.push(None),
            }
        }
        if shards.iter().any(|s| !s.is_empty()) {
            self.generation = Arc::new(SolveGeneration::publish(
                &self.generation,
                &shards,
                self.generation_cap,
            ));
        }
        batch
    }
}

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

/// Streams `spec.sessions` generated sessions through the engine under the
/// fleet's resilience mechanisms, without a journal.
pub fn run_fleet(
    ctx: &ExperimentContext,
    spec: &FleetSpec,
    config: &FleetConfig,
) -> FleetRunReport {
    let mut runner = BatchRunner::new(ctx, spec, config);
    match drive(spec, config, None, Vec::new(), |tickets| {
        runner.run(tickets)
    }) {
        Ok(report) => report,
        // Unreachable: the journal-free drive has no IO to fail.
        Err(e) => unreachable!("journal-free fleet drive errored: {e}"),
    }
}

/// [`run_fleet`] writing one checksummed journal record of unit outcomes
/// per batch to `path` (truncating any previous journal there).
pub fn run_fleet_journaled(
    ctx: &ExperimentContext,
    spec: &FleetSpec,
    config: &FleetConfig,
    path: &Path,
) -> Result<FleetRunReport, FleetError> {
    let mut writer = JournalWriter::open_append(path, 0)?;
    let mut runner = BatchRunner::new(ctx, spec, config);
    drive(spec, config, Some(&mut writer), Vec::new(), |tickets| {
        runner.run(tickets)
    })
}

/// Resumes a killed journaled run: reads every intact record of the
/// journal at `path` (tolerating a torn final line), then runs the one
/// drive loop from batch 0, taking each journaled batch's unit outcomes in
/// place of replaying it, and appends the records of the batches that run.
/// The resulting report is byte-identical to the uninterrupted run's. A
/// missing or empty journal simply runs from the start; a record with
/// another run's fingerprint is a [`FleetError::SpecMismatch`].
pub fn resume_fleet(
    ctx: &ExperimentContext,
    spec: &FleetSpec,
    config: &FleetConfig,
    path: &Path,
) -> Result<FleetRunReport, FleetError> {
    let (journaled, kept_lines) = read_journal(path, fingerprint(spec, config))?;
    let mut writer = JournalWriter::open_append(path, kept_lines)?;
    let mut runner = BatchRunner::new(ctx, spec, config);
    drive(spec, config, Some(&mut writer), journaled, |tickets| {
        runner.run(tickets)
    })
}

/// Runs the full driver loop — arrivals, storms, shedding, admission,
/// breaker routing and batch accounting — with an instant clean executor
/// instead of PES replays. The admission arithmetic is exactly the real
/// path's, so the property tests use this to show the controller always
/// terminates and never deadlocks, at any spec/config.
pub fn fleet_admission_dry_run(spec: &FleetSpec, config: &FleetConfig) -> FleetRunReport {
    let exec = |tickets: &[Ticket]| FleetReport {
        results: tickets
            .iter()
            .map(|_| Some(UnitOutcome::default()))
            .collect(),
        failures: Vec::new(),
        attempts: vec![1; tickets.len()],
    };
    match drive(spec, config, None, Vec::new(), exec) {
        Ok(report) => report,
        // Unreachable: the journal-free drive has no IO to fail.
        Err(e) => unreachable!("dry-run fleet drive errored: {e}"),
    }
}

// ---------------------------------------------------------------------------
// Journal encoding
// ---------------------------------------------------------------------------

/// The journal format this build writes and reads. Any other `PESFLEETJ*`
/// magic is a [`FleetError::JournalVersion`].
const JOURNAL_MAGIC: &str = "PESFLEETJ6";

/// What one journal record holds: a batch's admitted tickets and its
/// supervised report (the outcomes and attempts of those units).
type JournaledBatch = (Vec<Ticket>, FleetReport<UnitOutcome>);

impl UnitOutcome {
    /// The 20 journaled fields in record order (see the module docs).
    fn fields(&self) -> [u64; 20] {
        let (d, i) = (&self.degradation, &self.injections);
        let mut fields = [
            self.events,
            self.violations,
            0,
            self.watchdog_trips,
            d.exact,
            d.anytime,
            d.greedy,
            d.reactive,
            d.ondemand_floor,
            i.prediction_flips,
            i.confidence_corruptions,
            i.demand_drifts,
            i.starved_solves,
            i.masked_configs,
            i.delayed_vsyncs,
            i.duplicated_events,
            i.dropped_events,
            self.solver_nodes,
            self.memo_hits,
            self.memo_misses,
        ]
        .map(|field| field as u64);
        fields[2] = self.energy_uj.to_bits();
        fields
    }

    /// `self + other`, or `None` when a journaled counter overflows. The
    /// energy is a float add and the report-only shared counters are plain
    /// adds: they never come from a journal.
    fn checked_add(&self, other: &UnitOutcome) -> Option<UnitOutcome> {
        let (a, b) = (self.fields(), other.fields());
        let mut sum = [0u64; 20];
        for (i, field) in sum.iter_mut().enumerate() {
            if i != 2 {
                *field = a[i].checked_add(b[i])?;
            }
        }
        sum[2] = (self.energy_uj + other.energy_uj).to_bits();
        Some(UnitOutcome {
            shared_hits: self.shared_hits + other.shared_hits,
            shared_lookups: self.shared_lookups + other.shared_lookups,
            shared_probes: self.shared_probes + other.shared_probes,
            ..UnitOutcome::from_fields(sum)
        })
    }

    /// The inverse of [`UnitOutcome::fields`]; the shared-generation
    /// counters, which are not journaled, come back as zero.
    fn from_fields(fields: [u64; 20]) -> Self {
        let field = |i: usize| fields[i] as usize;
        UnitOutcome {
            events: field(0),
            violations: field(1),
            energy_uj: f64::from_bits(fields[2]),
            watchdog_trips: field(3),
            degradation: DegradationTrace {
                exact: field(4),
                anytime: field(5),
                greedy: field(6),
                reactive: field(7),
                ondemand_floor: field(8),
            },
            injections: FaultCounts {
                prediction_flips: field(9),
                confidence_corruptions: field(10),
                demand_drifts: field(11),
                starved_solves: field(12),
                masked_configs: field(13),
                delayed_vsyncs: field(14),
                duplicated_events: field(15),
                dropped_events: field(16),
            },
            solver_nodes: field(17),
            memo_hits: field(18),
            memo_misses: field(19),
            ..UnitOutcome::default()
        }
    }
}

/// FNV-1a 64 over the record payload: cheap, dependency-free, and enough
/// to reject torn or bit-flipped tail lines.
fn fnv1a(payload: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in payload.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The run identity every record carries: FNV-1a over every [`FleetSpec`]
/// field and the [`FleetConfig`] fields that move an admission or a
/// journaled outcome (see the module docs).
fn fingerprint(spec: &FleetSpec, config: &FleetConfig) -> u64 {
    let FleetSpec {
        sessions,
        seed,
        arrivals_per_step,
        storm_every,
        storm_arrivals,
        max_events_per_session,
        scenario_cycle,
    } = spec;
    let WatchdogConfig {
        node_budget,
        event_budget,
    } = config.watchdog;
    fnv1a(&format!(
        "{sessions} {seed} {arrivals_per_step} {storm_every} {storm_arrivals} \
         {max_events_per_session} {scenario_cycle} {} {} {node_budget} {event_budget}",
        config.batch_size, config.queue_capacity
    ))
}

/// Encodes batch `batch` of the run `fingerprint`: each admitted unit with
/// its route, attempts and outcome (`-` when quarantined), in admission
/// order.
fn encode_record(
    fingerprint: u64,
    batch: usize,
    tickets: &[Ticket],
    report: &FleetReport<UnitOutcome>,
) -> String {
    let units = tickets
        .iter()
        .zip(&report.attempts)
        .zip(&report.results)
        .map(|((ticket, attempts), outcome)| {
            let route = match ticket.route {
                UnitRoute::Full => 'F',
                UnitRoute::Probe => 'P',
                UnitRoute::Routed => 'R',
            };
            let outcome = outcome.as_ref().map_or_else(
                || "-".to_string(),
                |o| o.fields().map(|field| field.to_string()).join(","),
            );
            format!("{}:{route}:{attempts}:{outcome}", ticket.unit)
        })
        .collect::<Vec<_>>()
        .join(";");
    let payload = format!("{JOURNAL_MAGIC} fp={fingerprint:016x} batch={batch} units={units}");
    let checksum = fnv1a(&payload);
    format!("{payload} #{checksum:016x}")
}

fn kv<'a>(token: Option<&'a str>, key: &str) -> Result<&'a str, FleetError> {
    let token = token.ok_or_else(|| FleetError::Corrupt(format!("missing field {key}")))?;
    token
        .strip_prefix(key)
        .and_then(|rest| rest.strip_prefix('='))
        .ok_or_else(|| FleetError::Corrupt(format!("expected {key}=..., got {token:?}")))
}

/// Parses one `unit:route:attempts:outcome` entry of a record.
fn parse_unit(entry: &str) -> Result<(Ticket, usize, Option<UnitOutcome>), FleetError> {
    let corrupt = || FleetError::Corrupt(format!("bad unit entry {entry:?}"));
    let [unit, route, attempts, outcome] = entry.split(':').collect::<Vec<_>>()[..] else {
        return Err(corrupt());
    };
    let route = match route {
        "F" => UnitRoute::Full,
        "P" => UnitRoute::Probe,
        "R" => UnitRoute::Routed,
        _ => return Err(corrupt()),
    };
    let outcome = if outcome == "-" {
        None
    } else {
        let mut fields = [0u64; 20];
        let mut values = outcome.split(',');
        for field in &mut fields {
            *field = values
                .next()
                .and_then(|value| value.parse().ok())
                .ok_or_else(corrupt)?;
        }
        if values.next().is_some() {
            return Err(corrupt());
        }
        Some(UnitOutcome::from_fields(fields))
    };
    let ticket = Ticket {
        unit: unit.parse().map_err(|_| corrupt())?,
        route,
    };
    let attempts = attempts
        .parse()
        .ok()
        .filter(|&attempts| attempts <= 1 + UNIT_RETRIES)
        .ok_or_else(corrupt)?;
    Ok((ticket, attempts, outcome))
}

/// Parses one journal line into its run fingerprint, batch index and
/// batch. Returns
/// `Corrupt` for anything malformed — the reader treats a corrupt *final*
/// line as a torn tail and ignores it — and `JournalVersion` (never
/// swallowed as a torn tail) for an intact record whose magic this build
/// does not read.
fn parse_record(line: &str) -> Result<(u64, usize, JournaledBatch), FleetError> {
    let (payload, checksum) = line
        .rsplit_once(" #")
        .ok_or_else(|| FleetError::Corrupt("no checksum".into()))?;
    let expected = u64::from_str_radix(checksum, 16)
        .map_err(|_| FleetError::Corrupt(format!("bad checksum field {checksum:?}")))?;
    if fnv1a(payload) != expected {
        return Err(FleetError::Corrupt("checksum mismatch".into()));
    }
    let mut tokens = payload.split_whitespace();
    match tokens.next() {
        Some(JOURNAL_MAGIC) => {}
        Some(other) if other.starts_with("PESFLEETJ") => {
            return Err(FleetError::JournalVersion {
                found: other.to_string(),
                supported: JOURNAL_MAGIC.to_string(),
            })
        }
        other => return Err(FleetError::Corrupt(format!("bad magic {other:?}"))),
    }
    let fp_field = kv(tokens.next(), "fp")?;
    let fingerprint = u64::from_str_radix(fp_field, 16)
        .map_err(|_| FleetError::Corrupt(format!("bad fingerprint {fp_field:?}")))?;
    let batch_field = kv(tokens.next(), "batch")?;
    let index = batch_field
        .parse()
        .map_err(|_| FleetError::Corrupt(format!("bad batch value {batch_field:?}")))?;
    let mut tickets = Vec::new();
    let mut batch = FleetReport {
        results: Vec::new(),
        failures: Vec::new(),
        attempts: Vec::new(),
    };
    for entry in kv(tokens.next(), "units")?.split(';') {
        let (ticket, attempts, outcome) = parse_unit(entry)?;
        if outcome.is_none() {
            batch.failures.push(UnitFailure {
                index: tickets.len(),
                attempts,
                last_level: None,
                message: "quarantined before resume (journaled)".to_string(),
            });
        }
        tickets.push(ticket);
        batch.attempts.push(attempts);
        batch.results.push(outcome);
    }
    Ok((fingerprint, index, (tickets, batch)))
}

/// Appends one encoded record per batch to the journal file, flushing
/// after every line so a kill loses at most the line being written.
#[derive(Debug)]
struct JournalWriter {
    file: std::fs::File,
    path: PathBuf,
}

impl JournalWriter {
    /// Opens the journal for append, first truncating the file to its
    /// first `lines` lines: a fresh run keeps none, a resume everything
    /// through the last record it read, so a torn tail goes and blank lines
    /// before it stay.
    fn open_append(path: &Path, lines: usize) -> Result<Self, FleetError> {
        let mut kept = Vec::new();
        if lines > 0 {
            let bytes = std::fs::read(path)?;
            for line in journal_lines(&bytes).into_iter().take(lines) {
                kept.extend_from_slice(line);
                kept.push(b'\n');
            }
        }
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        file.write_all(&kept)?;
        Ok(JournalWriter {
            file,
            path: path.to_path_buf(),
        })
    }

    fn append(&mut self, line: &str) -> Result<(), FleetError> {
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.file
            .flush()
            .map_err(|e| FleetError::Io(format!("{}: {e}", self.path.display())))
    }
}

/// Splits journal bytes into lines the way `BufRead::lines` does (a final
/// `\n` ends the last line, a `\r` before a `\n` is dropped) without
/// requiring UTF-8, so a torn tail of arbitrary bytes is a corrupt line
/// rather than an IO error.
fn journal_lines(bytes: &[u8]) -> Vec<&[u8]> {
    if bytes.is_empty() {
        return Vec::new();
    }
    let body = bytes.strip_suffix(b"\n").unwrap_or(bytes);
    body.split(|&b| b == b'\n')
        .map(|line| line.strip_suffix(b"\r").unwrap_or(line))
        .collect()
}

/// Reads the journal of the run `fingerprint` at `path`: every intact
/// record in batch order, and the number of lines through the last of them
/// (what a resume keeps). A missing or empty journal yields no records (run
/// from the start). Blank lines are skipped. A torn or corrupt *final* line
/// is tolerated and dropped; a corrupt line followed by intact ones, or a
/// record out of batch order, means real corruption and errors, and an
/// intact record of another run is a spec mismatch.
fn read_journal(path: &Path, fingerprint: u64) -> Result<(Vec<JournaledBatch>, usize), FleetError> {
    let mut batches = Vec::new();
    let mut kept_lines = 0;
    if !path.exists() {
        return Ok((batches, kept_lines));
    }
    let bytes = std::fs::read(path)?;
    let lines = journal_lines(&bytes);
    for (i, line) in lines.iter().enumerate() {
        let parsed = match std::str::from_utf8(line) {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => parse_record(line),
            Err(_) => Err(FleetError::Corrupt("line is not valid UTF-8".into())),
        };
        match parsed {
            Ok((fp, index, _)) if fp != fingerprint => {
                return Err(FleetError::SpecMismatch(format!(
                    "journal record {index} was written by run {fp:016x}, not this run's \
                     {fingerprint:016x}"
                )))
            }
            Ok((_, index, batch)) if index == batches.len() => {
                batches.push(batch);
                kept_lines = i + 1;
            }
            Ok((_, index, _)) => {
                return Err(FleetError::Corrupt(format!(
                    "record of batch {index} where batch {} belongs",
                    batches.len()
                )))
            }
            Err(FleetError::Corrupt(_)) if i + 1 == lines.len() => {
                // Torn tail from the kill: ignore, resume after the
                // previous intact record. Version errors never qualify —
                // an intact checksummed record from an unknown build must
                // surface, not be silently restarted over.
                break;
            }
            Err(e) => return Err(e),
        }
    }
    Ok((batches, kept_lines))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_walks_open_half_open_closed() {
        let mut b = CircuitBreaker::default();
        assert_eq!(b.state(), BreakerState::Closed);
        for bad in [true, false, true, true, true, true, true, true] {
            b.record(bad);
        }
        assert_eq!((b.state(), b.bad_in_window()), (BreakerState::Closed, 7));
        b.record(true); // eighth bad in the window: trips
        assert_eq!(b.state(), BreakerState::Open);
        // Recording while open is inert.
        b.record(false);
        assert_eq!(b.state(), BreakerState::Open);
        b.end_batch();
        assert_eq!(b.state(), BreakerState::Open, "cooldown not yet expired");
        b.end_batch();
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_probe(false);
        b.record_probe(false);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_probe(false); // the third clean probe closes it
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.bad_in_window(), 0, "window cleared on close");
        assert_eq!(b.history_letters(), "OHC");
    }

    #[test]
    fn bad_outcomes_slide_out_of_the_window() {
        let mut b = CircuitBreaker::default();
        for _ in 0..7 {
            b.record(true);
        }
        for _ in 0..9 {
            b.record(false);
        }
        assert_eq!(b.bad_in_window(), 7, "sixteen outcomes fill the window");
        b.record(false);
        assert_eq!(b.bad_in_window(), 6, "the oldest bad outcome slid out");
        b.record(true);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn a_bad_probe_reopens_the_breaker() {
        let mut b = CircuitBreaker::default();
        for _ in 0..8 {
            b.record(true);
        }
        b.end_batch();
        b.end_batch();
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_probe(false);
        b.record_probe(true);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.history_letters(), "OHO");
        // Clean probe progress was reset by the reopen.
        b.end_batch();
        b.end_batch();
        b.record_probe(false);
        b.record_probe(false);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_probe(false);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn shed_policies_pick_deterministic_victims() {
        // Five sessions already queued, none left to arrive: admission
        // sheds the two oldest down to the capacity of three, then admits
        // the next one from the head.
        let spec = FleetSpec {
            sessions: 5,
            ..FleetSpec::default()
        };
        let config = FleetConfig {
            batch_size: 1,
            queue_capacity: 3,
            ..FleetConfig::default()
        };
        let mut intake = Intake {
            queue: (0..5).collect(),
            next_unit: 5,
            step: 0,
        };
        let mut report = FleetRunReport::default();
        let admitted: Vec<usize> = intake.admit(&spec, &config, &mut report).collect();
        assert_eq!(admitted, vec![2]);
        assert_eq!(intake.queue, VecDeque::from(vec![3, 4]));
        assert_eq!((report.shed, report.peak_queue), (2, 3));
    }

    #[test]
    fn unit_scenario_is_stateless_and_decorrelated() {
        let (h0, app0, seed0, p0) = unit_scenario(42, 18, 0);
        let (h0b, app0b, seed0b, p0b) = unit_scenario(42, 18, 0);
        assert_eq!((h0, app0, seed0, p0), (h0b, app0b, seed0b, p0b));
        let (h1, _, seed1, _) = unit_scenario(42, 18, 1);
        assert_ne!(h0, h1);
        assert_ne!(seed0, seed1);
        assert!(p0 < 4);
    }

    /// A unit outcome with every journaled field distinct and non-zero.
    fn outcome(seed: u64) -> UnitOutcome {
        let mut fields: [u64; 20] = std::array::from_fn(|i| seed * 100 + i as u64);
        fields[2] = (1.234e9 * seed as f64).to_bits();
        UnitOutcome::from_fields(fields)
    }

    /// A batch with every route, a retried unit, a quarantined unit and
    /// every outcome field populated.
    fn sample_record() -> JournaledBatch {
        let tickets = vec![
            Ticket {
                unit: 17,
                route: UnitRoute::Full,
            },
            Ticket {
                unit: 18,
                route: UnitRoute::Probe,
            },
            Ticket {
                unit: 20,
                route: UnitRoute::Routed,
            },
        ];
        let batch = FleetReport {
            results: vec![Some(outcome(1)), None, Some(outcome(3))],
            failures: vec![UnitFailure {
                index: 1,
                attempts: 2,
                last_level: None,
                message: "quarantined before resume (journaled)".to_string(),
            }],
            attempts: vec![1, 2, 2],
        };
        (tickets, batch)
    }

    /// The fingerprint the unit tests' records carry.
    const FP: u64 = 0x0123_4567_89ab_cdef;

    fn encode(index: usize, record: &JournaledBatch) -> String {
        encode_record(FP, index, &record.0, &record.1)
    }

    #[test]
    fn journal_record_round_trips_through_encode_and_parse() {
        let record = sample_record();
        assert_eq!(
            record.1.results[0].as_ref().map(|o| o.energy_uj),
            Some(1.234e9)
        );
        let line = encode(7, &record);
        assert!(
            line.starts_with("PESFLEETJ6 fp=0123456789abcdef batch=7 units=17:F:1:100,101,"),
            "{line}"
        );
        assert!(line.contains(";18:P:2:-;20:R:2:300,301,"), "{line}");
        let parsed = parse_record(&line).expect("round trip");
        assert_eq!(parsed, (FP, 7, record));
    }

    /// A one-unit batch: a clean full-tier unit.
    fn plain_record(seed: u64) -> JournaledBatch {
        let ticket = Ticket {
            unit: seed as usize,
            route: UnitRoute::Full,
        };
        let batch = FleetReport {
            results: vec![Some(outcome(seed))],
            failures: Vec::new(),
            attempts: vec![1],
        };
        (vec![ticket], batch)
    }

    #[test]
    fn journal_parser_rejects_tampered_lines() {
        let line = encode(1, &plain_record(2));
        assert!(parse_record(&line).is_ok());
        let tampered = line.replace(":F:1:", ":F:2:");
        assert_ne!(tampered, line);
        assert!(matches!(
            parse_record(&tampered),
            Err(FleetError::Corrupt(_))
        ));
        let torn = &line[..line.len() / 2];
        assert!(parse_record(torn).is_err());
        // More attempts than the one retry allows is corrupt even under a
        // valid checksum.
        let (payload, _) = line.rsplit_once(" #").expect("checksummed");
        let retried_twice = checksummed(&payload.replace(":F:1:", ":F:3:"));
        assert!(matches!(
            parse_record(&retried_twice),
            Err(FleetError::Corrupt(_))
        ));
        let retried_once = checksummed(&payload.replace(":F:1:", ":F:2:"));
        assert!(parse_record(&retried_once).is_ok());
    }

    #[test]
    fn dry_run_admission_terminates_and_bounds_the_queue() {
        let spec = FleetSpec {
            sessions: 1_000,
            seed: 7,
            arrivals_per_step: 9,
            storm_every: 5,
            storm_arrivals: 40,
            max_events_per_session: 0,
            scenario_cycle: 0,
        };
        let config = FleetConfig {
            batch_size: 8,
            queue_capacity: 24,
            ..FleetConfig::default()
        };
        let report = fleet_admission_dry_run(&spec, &config);
        assert_eq!(report.sessions, 1_000);
        assert_eq!(
            report.completed + report.shed,
            1_000,
            "every session is either served or deliberately shed"
        );
        assert!(report.shed > 0, "storms overflow the bounded queue");
        assert!(report.peak_queue <= config.queue_capacity);
        let again = fleet_admission_dry_run(&spec, &config);
        assert_eq!(report, again, "dry run is deterministic");
    }

    /// A drive handed journaled batches takes them in place of `exec`, in
    /// batch order, and folds them to the very report the run that wrote
    /// them produced; extra or mismatched batches are a spec mismatch.
    #[test]
    fn drive_takes_journaled_batches_in_place_of_exec() {
        let spec = FleetSpec {
            sessions: 40,
            seed: 11,
            arrivals_per_step: 5,
            storm_every: 3,
            storm_arrivals: 9,
            max_events_per_session: 0,
            scenario_cycle: 0,
        };
        let config = FleetConfig {
            batch_size: 4,
            queue_capacity: 10,
            ..FleetConfig::default()
        };
        // Every third unit is quarantined, every unit sees a trip, so the
        // breakers and the failure roster both move.
        let exec = |tickets: &[Ticket]| {
            let mut batch = FleetReport {
                results: Vec::new(),
                failures: Vec::new(),
                attempts: Vec::new(),
            };
            for (index, ticket) in tickets.iter().enumerate() {
                let failed = ticket.unit % 3 == 0;
                batch
                    .results
                    .push((!failed).then(|| outcome(ticket.unit as u64)));
                batch.attempts.push(1 + usize::from(failed));
                if failed {
                    batch.failures.push(UnitFailure {
                        index,
                        attempts: 2,
                        last_level: None,
                        message: "quarantined before resume (journaled)".to_string(),
                    });
                }
            }
            batch
        };
        let mut written = Vec::new();
        let run = drive(&spec, &config, None, Vec::new(), |tickets| {
            let batch = exec(tickets);
            written.push((tickets.to_vec(), batch.clone()));
            batch
        })
        .expect("fresh drive");
        assert!(run.breaker_opens() > 0 && !run.failures.is_empty());

        for k in 0..=written.len() {
            let mut calls = 0;
            let resumed = drive(&spec, &config, None, written[..k].to_vec(), |tickets| {
                calls += 1;
                exec(tickets)
            })
            .expect("resumed drive");
            assert_eq!((resumed, calls), (run.clone(), written.len() - k));
        }

        let mut extra = written.clone();
        extra.push(written[0].clone());
        assert!(matches!(
            drive(&spec, &config, None, extra, exec),
            Err(FleetError::SpecMismatch(_))
        ));
        let mut swapped = written.clone();
        swapped.swap(0, 1);
        assert!(matches!(
            drive(&spec, &config, None, swapped, exec),
            Err(FleetError::SpecMismatch(_))
        ));
    }

    #[test]
    fn dry_run_without_storms_sheds_nothing() {
        let spec = FleetSpec {
            sessions: 200,
            seed: 3,
            arrivals_per_step: 4,
            storm_every: 0,
            storm_arrivals: 0,
            max_events_per_session: 0,
            scenario_cycle: 0,
        };
        let config = FleetConfig {
            batch_size: 4,
            queue_capacity: 16,
            ..FleetConfig::default()
        };
        let report = fleet_admission_dry_run(&spec, &config);
        assert_eq!(report.completed, 200);
        assert_eq!(report.shed, 0);
        assert!(report.failures.is_empty());
        assert!(
            report.breaker_histories.iter().all(|h| h.is_empty()),
            "clean outcomes never trip a breaker"
        );
    }

    #[test]
    fn checkpoint_reader_tolerates_a_torn_tail_only() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("pes_fleet_torn_{}.journal", std::process::id()));
        let l0 = encode(0, &plain_record(1));
        let l1 = encode(1, &plain_record(2));
        let torn = &l1[..l1.len() - 10];
        std::fs::write(&path, format!("{l0}\n{torn}\n")).expect("write journal");
        let (records, kept_lines) = read_journal(&path, FP).expect("torn tail tolerated");
        assert_eq!((records, kept_lines), (vec![plain_record(1)], 1));
        // A corrupt line *followed by* an intact one is real corruption.
        std::fs::write(&path, format!("{torn}\n{l0}\n")).expect("write journal");
        assert!(matches!(
            read_journal(&path, FP),
            Err(FleetError::Corrupt(_))
        ));
        // So is an intact record out of batch order, even as the final line.
        for journal in [format!("{l1}\n{l0}\n"), format!("{l0}\n{l0}\n")] {
            std::fs::write(&path, journal).expect("write journal");
            assert!(matches!(
                read_journal(&path, FP),
                Err(FleetError::Corrupt(_))
            ));
        }
        // An intact record of another run is a mismatch, never a torn tail,
        // even as the final line.
        let other = encode_record(FP ^ 1, 1, &plain_record(2).0, &plain_record(2).1);
        std::fs::write(&path, format!("{l0}\n{other}\n")).expect("write journal");
        assert!(matches!(
            read_journal(&path, FP),
            Err(FleetError::SpecMismatch(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    fn checksummed(payload: &str) -> String {
        format!("{payload} #{:016x}", fnv1a(payload))
    }

    #[test]
    fn older_journal_versions_are_version_errors() {
        let energy = 7.5f64.to_bits();
        let j5 = checksummed(
            "PESFLEETJ5 batch=8 \
             units=58:P:1:9,4,4706557449730656352,2,1,0,1,7,0,0,0,0,1,1,1,2,1,20,0,2;\
             59:P:1:8,1,4706503254292600673,1,0,2,0,5,0,0,0,2,2,0,2,1,1,24,0,2",
        );
        let j4 = checksummed(
            "PESFLEETJ4 batch=9 step=9 next_unit=60 shed=26 completed=34 retries=0 \
             violations=86 events=270 energy=41a637800551cd9f wd=48 deg=17,8,7,207,31 \
             inj=7,5,18,17,3,36,29,31 nodes=519 mh=1 mm=31 fail=- \
             brk=H:7:3:0:0:OHOHOHOHOH|H:7:3:0:0:OHOHOHOHOHOHOHOH|H:7:3:0:0:OHOHOHOHOH",
        );
        let j3 = checksummed(&format!(
            "PESFLEETJ3 batch=3 step=4 next_unit=24 shed=1 completed=23 retries=2 \
             violations=5 events=400 energy={energy:016x} wd=1 deg=20,1,1,1,0 \
             inj=0,0,0,0,0,0,0,0 pred=9,8,7,6,5,4,3 nodes=10 mh=1 mm=2 ent=23,0,0 ema=- \
             fail=- brk=C:0:0:0:0:-"
        ));
        let j2 = checksummed(&format!(
            "PESFLEETJ2 batch=3 step=4 next_unit=24 shed=1 completed=23 retries=2 \
             violations=5 events=400 energy={energy:016x} wd=1 deg=20,1,1,1,0 \
             inj=0,0,0,0,0,0,0,0 pred=9,8,7,6,5,4,3 fail=- brk=C:0:0:0:0:-"
        ));
        let j1 = checksummed(&format!(
            "PESFLEETJ1 batch=2 step=2 next_unit=16 shed=0 completed=16 retries=0 \
             violations=3 events=200 energy={energy:016x} wd=0 deg=16,0,0,0,0 \
             inj=0,0,0,0,0,0,0,0 fail=- brk=C:0:0:0:0:-"
        ));
        for (line, magic) in [
            (j5, "PESFLEETJ5"),
            (j4, "PESFLEETJ4"),
            (j3, "PESFLEETJ3"),
            (j2, "PESFLEETJ2"),
            (j1, "PESFLEETJ1"),
        ] {
            match parse_record(&line) {
                Err(FleetError::JournalVersion { found, supported }) => {
                    assert_eq!(found, magic);
                    assert_eq!(supported, JOURNAL_MAGIC);
                }
                other => panic!("expected a version error for {magic}, got {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_journal_magic_is_a_version_error_not_a_torn_tail() {
        let line = encode(0, &plain_record(1));
        let (payload, _) = line.rsplit_once(" #").expect("checksummed");
        let future = checksummed(&payload.replace(JOURNAL_MAGIC, "PESFLEETJ9"));
        match parse_record(&future) {
            Err(FleetError::JournalVersion { found, supported }) => {
                assert_eq!(found, "PESFLEETJ9");
                assert_eq!(supported, JOURNAL_MAGIC);
            }
            other => panic!("expected JournalVersion error, got {other:?}"),
        }
        // Even as the *final* line a version error surfaces — the reader
        // must never mistake a healthy future-format journal for a torn
        // tail and silently restart over it.
        let dir = std::env::temp_dir();
        let path = dir.join(format!("pes_fleet_future_{}.journal", std::process::id()));
        std::fs::write(&path, format!("{future}\n")).expect("write journal");
        assert!(matches!(
            read_journal(&path, FP),
            Err(FleetError::JournalVersion { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    mod journal_robustness {
        use super::*;
        use proptest::prelude::*;

        /// Bytes a substitution or insertion draws from half the time: the
        /// record grammar's separators and digits, so edits hit structure
        /// rather than only scrambling values.
        const GRAMMAR: &[u8] = b" =,:;#-\n0123456789abcdefpPESFLEETJFR";

        /// Applies `(kind, position, byte)` edits: 0 truncates, 1
        /// substitutes, 2 inserts, 3 deletes. Positions wrap to the
        /// current length.
        fn mutate(original: &[u8], edits: &[(usize, usize, u8)]) -> Vec<u8> {
            let mut bytes = original.to_vec();
            for &(kind, pos, raw) in edits {
                let byte = if raw & 1 == 0 {
                    GRAMMAR[usize::from(raw >> 1) % GRAMMAR.len()]
                } else {
                    raw
                };
                let len = bytes.len();
                match kind {
                    0 => bytes.truncate(pos % (len + 1)),
                    1 if len > 0 => bytes[pos % len] = byte,
                    2 => bytes.insert(pos % (len + 1), byte),
                    3 if len > 0 => {
                        bytes.remove(pos % len);
                    }
                    _ => {}
                }
            }
            bytes
        }

        fn records_of(path: &Path, journal: &[u8]) -> Result<Vec<JournaledBatch>, FleetError> {
            std::fs::write(path, journal).expect("write journal");
            Ok(read_journal(path, FP)?.0)
        }

        proptest! {
            /// A mutated record parses back to the very record or fails
            /// with a typed error, and the resume reader over a mutated
            /// two-record journal restores a prefix of its records or
            /// errors — never panics, never invents a record.
            #[test]
            fn mutated_journals_parse_equal_or_error(
                edits in collection::vec((0usize..4, 0usize..1 << 16, 0u8..=255), 1..6),
            ) {
                let first = sample_record();
                let (mut tickets, mut batch) = sample_record();
                tickets[0].unit += 64;
                batch.results[0] = Some(outcome(5));
                let second = (tickets, batch);
                let line = encode(1, &second);
                let journal = format!("{}\n{line}\n", encode(0, &first));
                let intact = [first, second.clone()];
                let path = std::env::temp_dir()
                    .join(format!("pes_fleet_fuzz_{}.journal", std::process::id()));
                // Every prefix of the edit list is a case of its own.
                for applied in 1..=edits.len() {
                    let mutated = mutate(line.as_bytes(), &edits[..applied]);
                    if let Ok(parsed) = parse_record(&String::from_utf8_lossy(&mutated)) {
                        prop_assert_eq!(parsed, (FP, 1, second.clone()));
                    }
                    let restored = records_of(&path, &mutate(journal.as_bytes(), &edits[..applied]));
                    if let Ok(records) = restored {
                        prop_assert!(records.len() <= intact.len());
                        prop_assert_eq!(&records[..], &intact[..records.len()]);
                    }
                }
                std::fs::remove_file(&path).ok();
            }
        }
    }
}
