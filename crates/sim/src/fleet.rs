//! Resilient streaming fleet driver: pulls generated sessions through the
//! PES engine with bounded memory and four deterministic, seeded resilience
//! mechanisms layered on the supervised fan-out of [`crate::parallel`]:
//!
//! 1. **Watchdog deadlines** — every replay runs under the per-replay
//!    [`WatchdogConfig`] budget enforced inside `pes_core::runtime`; a trip
//!    demotes the unit's serving tier one [`DegradationLevel`] and is
//!    reported in `RunReport::watchdog_trips`.
//! 2. **Circuit breakers** — each shard (`unit % shards`) keeps a sliding
//!    window over its recent *full-tier* unit outcomes (quarantines,
//!    watchdog trips, floor hits, violation spikes). When the bad count in
//!    the window reaches the trip threshold the breaker opens and the
//!    shard's units are routed to the [`DegradationLevel::Reactive`] tier
//!    instead of the proactive optimizer; after a cooldown the breaker
//!    half-opens and lets a few probe units back onto the full tier,
//!    closing again only after enough clean probes.
//! 3. **Admission control / load shedding** — arrivals (with optional
//!    burst storms) land in a bounded queue; when the queue overflows, the
//!    configured [`ShedPolicy`] deterministically sheds the oldest or the
//!    lowest-priority sessions, so storms degrade throughput gracefully
//!    instead of growing memory.
//! 4. **Journaled checkpoint/resume** — after every batch the driver
//!    appends one checksummed, cumulative journal record, encoded straight
//!    from the running [`FleetRunReport`] plus the intake cursor and the
//!    breaker snapshots. A killed run resumes from the last intact record
//!    by fast-forwarding the outcome-independent admission arithmetic and
//!    restoring the report's journaled fields, producing byte-identical
//!    aggregates to the uninterrupted run — torn tail lines included. The
//!    resume keeps the journal through that record's line and appends
//!    after it.
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
//! # Journal record format (`PESFLEETJ4`)
//!
//! The journal is line-oriented ASCII: one cumulative record per batch,
//! each a space-separated `key=value` token list ending in an FNV-1a-64
//! checksum of everything before it. The reader skips blank lines, treats
//! a malformed *final* line, invalid UTF-8 included, as a torn tail and
//! returns a typed [`FleetError::JournalVersion`] for an intact record with
//! any other `PESFLEETJ*` magic, older formats included.
//!
//! ```text
//! PESFLEETJ4 batch=.. step=.. next_unit=.. shed=.. completed=.. retries=..
//!   violations=.. events=.. energy=<16-hex> wd=.. deg=E,A,G,R,F
//!   inj=c1,..,c8 nodes=.. mh=.. mm=..
//!   fail=idx:att:L;.. brk=S:bits:len:cd:ps:hist|.. #<16-hex checksum>
//! ```
//!
//! Field by field (all counters are *cumulative* since the run started):
//!
//! | Token | Meaning |
//! |---|---|
//! | `batch=` | Batches executed (== records written so far). |
//! | `step=` | Admission steps consumed by the arrival process. |
//! | `next_unit=` | Next unit index to admit (the resume cursor). |
//! | `shed=` | Sessions shed by the [`ShedPolicy`]. |
//! | `completed=` | Replays completed (including retried units). |
//! | `retries=` | Supervised re-executions after a worker panic. |
//! | `violations=` | QoS violations across all completed replays. |
//! | `events=` | Events executed across all completed replays. |
//! | `energy=` | Total energy as big-endian hex of `f64::to_bits` — bit-exact, no decimal round-trip. |
//! | `wd=` | Watchdog deadline trips. |
//! | `deg=` | Five comma-separated [`DegradationLevel`] counts: Exact, Anytime, Greedy, Reactive, OndemandFloor. |
//! | `inj=` | Eight comma-separated [`FaultCounts`] fields: prediction flips, confidence corruptions, demand drifts, starved solves, masked configs, delayed vsyncs, duplicated events, dropped events. |
//! | `nodes=` | Solver nodes explored fleet-wide. |
//! | `mh=` / `mm=` | Per-replay solve-memo ring hits / misses. (Shared-generation hit counters are deliberately **not** journaled: a resumed run rebuilds the generation cold, so they are the one non-resume-stable aggregate.) |
//! | `fail=` | Quarantine roster, `index:attempts:level-letter` triples joined by `;` (`-` when empty). |
//! | `brk=` | One breaker snapshot per shard joined by `\|`: `state-letter:window-bits-hex:window-len:cooldown-left:probe-successes:transition-history` (history `-` when empty). |
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

/// Which queued sessions the admission controller sheds first when the
/// bounded queue overflows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShedPolicy {
    /// Drop the session that has waited longest (head of the queue).
    OldestFirst,
    /// Drop the lowest-priority session (oldest among ties).
    LowestPriorityFirst,
}

/// Circuit-breaker thresholds shared by every shard breaker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Sliding-window length over recent full-tier outcomes (clamped to
    /// `1..=64`; the window is stored as bits of a `u64`).
    pub window: usize,
    /// Bad outcomes in the window that open the breaker.
    pub trip_threshold: usize,
    /// Batches an open breaker waits before half-opening.
    pub cooldown_batches: usize,
    /// Probe units a half-open breaker admits to the full tier per batch.
    pub probes: usize,
    /// Consecutive clean probes that close the breaker again.
    pub close_after: usize,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window: 16,
            trip_threshold: 8,
            cooldown_batches: 2,
            probes: 2,
            close_after: 3,
        }
    }
}

/// How the driver runs the stream: batching, queueing, shedding, retry and
/// resilience thresholds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetConfig {
    /// Sessions admitted (and fanned out) per driver step.
    pub batch_size: usize,
    /// Bounded admission queue capacity; overflow is shed.
    pub queue_capacity: usize,
    /// Which sessions to shed on overflow.
    pub shed: ShedPolicy,
    /// Bounded retries per unit before quarantine (see
    /// [`crate::parallel::par_map_supervised_with`]).
    pub retries: usize,
    /// Worker threads for the per-batch fan-out (`0` uses
    /// [`parallelism`]; the result is identical either way).
    pub threads: usize,
    /// Shard count; each unit belongs to shard `unit % shards` and shares
    /// that shard's circuit breaker.
    pub shards: usize,
    /// Shared breaker thresholds.
    pub breaker: BreakerConfig,
    /// Per-replay watchdog deadlines ([`WatchdogConfig::disabled`] turns
    /// enforcement off).
    pub watchdog: WatchdogConfig,
    /// A completed unit with at least this many QoS violations counts as a
    /// bad breaker outcome (`0` disables the spike signal).
    pub violation_spike: usize,
    /// Serve every tier's prediction rounds on the packed class-major f32
    /// plane (`PesConfig::with_packed_prediction`). Decisions are identical
    /// either way; only the replay's prediction kernel changes.
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
            shed: ShedPolicy::OldestFirst,
            retries: 1,
            threads: 0,
            shards: 4,
            breaker: BreakerConfig::default(),
            watchdog: WatchdogConfig::disabled(),
            violation_spike: 0,
            packed_prediction: false,
            shared_memo: true,
            generation_cap: 512,
        }
    }
}

/// Derives the stateless per-session parameters of `unit` under `seed`:
/// `(scenario hash, app index, trace seed, priority in 0..4)`. The hash is
/// one [`splitmix`] of `seed ^ unit`, so adjacent units are fully
/// decorrelated yet reproducible from the journal cursor alone.
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BreakerState {
    /// Healthy: units run the full proactive tier and feed the window.
    Closed,
    /// Tripped: units are routed to the breaker's reactive tier.
    Open,
    /// Cooling down: a few probe units run the full tier per batch.
    HalfOpen,
}

impl BreakerState {
    /// One-letter code used by the journal (`C`/`O`/`H`).
    pub fn letter(self) -> char {
        match self {
            BreakerState::Closed => 'C',
            BreakerState::Open => 'O',
            BreakerState::HalfOpen => 'H',
        }
    }

    fn from_letter(c: char) -> Option<BreakerState> {
        match c {
            'C' => Some(BreakerState::Closed),
            'O' => Some(BreakerState::Open),
            'H' => Some(BreakerState::HalfOpen),
            _ => None,
        }
    }
}

/// A per-shard circuit breaker: a pure, deterministic state machine over
/// full-tier unit outcomes. Bad outcomes while closed fill a sliding bit
/// window; reaching the trip threshold opens the breaker; `end_batch`
/// cooldown ticks half-open it; clean probes close it (a bad probe snaps it
/// back open). Routed-tier outcomes never feed the window — a shard serving
/// at the floor cannot poison its own recovery signal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitBreaker {
    window: usize,
    trip_threshold: usize,
    cooldown_batches: usize,
    close_after: usize,
    state: BreakerState,
    bits: u64,
    len: usize,
    cooldown_left: usize,
    probe_successes: usize,
    history: Vec<BreakerState>,
}

impl CircuitBreaker {
    /// A closed breaker with the given thresholds (window clamped to
    /// `1..=64`, thresholds to at least 1).
    pub fn new(config: &BreakerConfig) -> Self {
        CircuitBreaker {
            window: config.window.clamp(1, 64),
            trip_threshold: config.trip_threshold.max(1),
            cooldown_batches: config.cooldown_batches.max(1),
            close_after: config.close_after.max(1),
            state: BreakerState::Closed,
            bits: 0,
            len: 0,
            cooldown_left: 0,
            probe_successes: 0,
            history: Vec::new(),
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Bad outcomes currently in the window.
    pub fn bad_in_window(&self) -> usize {
        self.bits.count_ones() as usize
    }

    /// Every state transition so far, oldest first (the initial `Closed`
    /// is implicit and not recorded).
    pub fn history(&self) -> &[BreakerState] {
        &self.history
    }

    /// The transition history as journal letters (`"OHC..."`, empty when
    /// the breaker never tripped).
    pub fn history_letters(&self) -> String {
        self.history.iter().map(|s| s.letter()).collect()
    }

    /// Times the breaker opened (including re-opens from a bad probe).
    pub fn opens(&self) -> usize {
        self.history
            .iter()
            .filter(|&&s| s == BreakerState::Open)
            .count()
    }

    fn trip(&mut self) {
        self.state = BreakerState::Open;
        self.cooldown_left = self.cooldown_batches;
        self.probe_successes = 0;
        self.history.push(BreakerState::Open);
    }

    /// Feeds one full-tier outcome while closed (no-op in any other state).
    pub fn record(&mut self, bad: bool) {
        if self.state != BreakerState::Closed {
            return;
        }
        let mask = if self.window == 64 {
            u64::MAX
        } else {
            (1u64 << self.window) - 1
        };
        self.bits = ((self.bits << 1) | u64::from(bad)) & mask;
        self.len = (self.len + 1).min(self.window);
        if self.bad_in_window() >= self.trip_threshold {
            self.trip();
        }
    }

    /// Feeds one probe outcome while half-open (no-op in any other state):
    /// a bad probe re-opens, `close_after` clean probes close the breaker
    /// and clear its window.
    pub fn record_probe(&mut self, bad: bool) {
        if self.state != BreakerState::HalfOpen {
            return;
        }
        if bad {
            self.trip();
        } else {
            self.probe_successes += 1;
            if self.probe_successes >= self.close_after {
                self.state = BreakerState::Closed;
                self.bits = 0;
                self.len = 0;
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
    /// Shed sessions by priority class (index = priority `0..4`).
    pub shed_by_priority: [usize; 4],
    /// Quarantined sessions (executed, persistently failing), in unit
    /// order; each carries the [`DegradationLevel`] it was routed at.
    pub failures: Vec<UnitFailure>,
    /// Retry attempts beyond each unit's first try.
    pub retries: usize,
    /// Driver steps taken.
    pub steps: u64,
    /// Batches executed (== journal records written).
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
    /// Per-shard breaker transition histories as journal letters.
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

    /// Fraction of requested sessions that were quarantined.
    pub fn quarantine_rate(&self) -> f64 {
        if self.sessions == 0 {
            0.0
        } else {
            self.failures.len() as f64 / self.sessions as f64
        }
    }

    /// Times any shard breaker opened.
    pub fn breaker_opens(&self) -> usize {
        self.breaker_histories
            .iter()
            .map(|h| h.chars().filter(|&c| c == 'O').count())
            .sum()
    }

    /// Whether every admitted session completed.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
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
    /// The journal's admission cursor disagrees with the spec/config it is
    /// being resumed under.
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

#[derive(Debug, Clone, Copy)]
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

fn is_bad(outcome: Option<&UnitOutcome>, violation_spike: usize) -> bool {
    match outcome {
        None => true,
        Some(o) => {
            o.watchdog_trips > 0
                || o.degradation.ondemand_floor > 0
                || (violation_spike > 0 && o.violations >= violation_spike)
        }
    }
}

/// Sheds queue entries down to `capacity` under `policy`, folding the shed
/// units into the counters. Deterministic: `OldestFirst` pops the head,
/// `LowestPriorityFirst` removes the first (oldest) minimum-priority entry.
fn shed_to_capacity(
    queue: &mut VecDeque<(usize, u8)>,
    capacity: usize,
    policy: ShedPolicy,
    shed: &mut usize,
    shed_by_priority: &mut [usize; 4],
) {
    while queue.len() > capacity {
        let victim = match policy {
            ShedPolicy::OldestFirst => queue.pop_front(),
            ShedPolicy::LowestPriorityFirst => {
                let mut min_at = 0usize;
                for (i, &(_, p)) in queue.iter().enumerate() {
                    if p < queue[min_at].1 {
                        min_at = i;
                    }
                }
                queue.remove(min_at)
            }
        };
        if let Some((_, priority)) = victim {
            *shed += 1;
            shed_by_priority[priority as usize & 3] += 1;
        }
    }
}

/// The outcome-independent half of a fleet drive: the admission queue, the
/// next unit to arrive and the step counter. Arrivals, storms, shedding and
/// admission depend only on the step index and the queue contents, never on
/// unit outcomes, so a resume replays them to reach the journaled batch.
#[derive(Debug, Default)]
struct Intake {
    queue: VecDeque<(usize, u8)>,
    next_unit: usize,
    step: u64,
}

impl Intake {
    /// Whether sessions remain to arrive or to be admitted.
    fn pending(&self, spec: &FleetSpec) -> bool {
        self.next_unit < spec.sessions || !self.queue.is_empty()
    }

    /// One driver step up to admission: arrivals (steady rate plus periodic
    /// burst storms), load shedding down to the bounded queue capacity
    /// (counted into `report`), then the next batch drained from the queue
    /// head. The batch is never empty while [`Intake::pending`] held.
    fn admit(
        &mut self,
        spec: &FleetSpec,
        config: &FleetConfig,
        report: &mut FleetRunReport,
    ) -> std::collections::vec_deque::Drain<'_, (usize, u8)> {
        self.step += 1;
        let mut arrivals = spec.arrivals_per_step.max(1);
        if spec.storm_every > 0 && self.step.is_multiple_of(spec.storm_every as u64) {
            arrivals += spec.storm_arrivals;
        }
        for _ in 0..arrivals {
            if self.next_unit >= spec.sessions {
                break;
            }
            let (_, _, _, priority) =
                unit_scenario(spec.seed, 1, spec.scenario_unit(self.next_unit));
            self.queue.push_back((self.next_unit, priority));
            self.next_unit += 1;
        }
        shed_to_capacity(
            &mut self.queue,
            config.queue_capacity.max(1),
            config.shed,
            &mut report.shed,
            &mut report.shed_by_priority,
        );
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
/// exercise the full driver loop cheaply.
fn drive<E>(
    spec: &FleetSpec,
    config: &FleetConfig,
    mut journal: Option<&mut JournalWriter>,
    checkpoint: Option<Checkpoint>,
    mut exec: E,
) -> Result<FleetRunReport, FleetError>
where
    E: FnMut(&[Ticket]) -> FleetReport<UnitOutcome>,
{
    let shards = config.shards.max(1);
    let mut breakers: Vec<CircuitBreaker> = (0..shards)
        .map(|_| CircuitBreaker::new(&config.breaker))
        .collect();
    let mut intake = Intake::default();
    let mut report = FleetRunReport {
        sessions: spec.sessions,
        ..FleetRunReport::default()
    };

    // Fast-forward: replay the admission steps of the journaled batches
    // (their admitted units are dropped: the checkpoint already holds their
    // outcomes), then restore the outcome-dependent cumulative state.
    if let Some((saved, (step, next_unit), saved_breakers)) = checkpoint {
        while report.batches < saved.batches && intake.pending(spec) {
            drop(intake.admit(spec, config, &mut report));
            report.batches += 1;
        }
        if report.batches != saved.batches
            || intake.step != step
            || intake.next_unit != next_unit
            || report.shed != saved.shed
        {
            return Err(FleetError::SpecMismatch(format!(
                "fast-forward reached batch {} step {} unit {} shed {}, \
                 journal says batch {} step {step} unit {next_unit} shed {}",
                report.batches,
                intake.step,
                intake.next_unit,
                report.shed,
                saved.batches,
                saved.shed
            )));
        }
        if saved_breakers.len() != shards {
            return Err(FleetError::SpecMismatch(format!(
                "journal has {} breaker shards, config has {shards}",
                saved_breakers.len()
            )));
        }
        // Admission alone sets the fields the journal does not carry.
        report = FleetRunReport {
            sessions: report.sessions,
            shed_by_priority: report.shed_by_priority,
            peak_queue: report.peak_queue,
            ..saved
        };
        breakers = saved_breakers;
    }

    while intake.pending(spec) {
        // 1–3. Arrivals, load shedding and admission (`Intake::admit`),
        //    then breaker routing: half-open shards admit `probes` full-tier
        //    probe units per batch, the rest stay routed.
        let mut probes_used = vec![0usize; shards];
        let tickets: Vec<Ticket> = intake
            .admit(spec, config, &mut report)
            .map(|(unit, _priority)| {
                let shard = unit % shards;
                let route = match breakers[shard].state() {
                    BreakerState::Closed => UnitRoute::Full,
                    BreakerState::Open => UnitRoute::Routed,
                    BreakerState::HalfOpen => {
                        if probes_used[shard] < config.breaker.probes.max(1) {
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

        // 4. Supervised fan-out of the batch.
        let batch = exec(&tickets);

        // 5. Outcome classification feeds the shard breakers in unit index
        //    order (full-tier and probe outcomes only), then the batch
        //    boundary ticks every cooldown.
        for (i, ticket) in tickets.iter().enumerate() {
            let bad = is_bad(batch.results[i].as_ref(), config.violation_spike);
            let breaker = &mut breakers[ticket.unit % shards];
            match ticket.route {
                UnitRoute::Full => breaker.record(bad),
                UnitRoute::Probe => breaker.record_probe(bad),
                UnitRoute::Routed => {}
            }
        }
        for breaker in &mut breakers {
            breaker.end_batch();
        }

        // 6. Aggregation in unit index order (deterministic float fold).
        for outcome in batch.results.iter().flatten() {
            report.completed += 1;
            report.violations += outcome.violations;
            report.events += outcome.events;
            report.energy_uj += outcome.energy_uj;
            report.watchdog_trips += outcome.watchdog_trips;
            report.degradation.merge(&outcome.degradation);
            report.injections.merge(&outcome.injections);
            report.solver_nodes += outcome.solver_nodes;
            report.memo_hits += outcome.memo_hits;
            report.memo_misses += outcome.memo_misses;
            report.shared_hits += outcome.shared_hits;
            report.shared_lookups += outcome.shared_lookups;
            report.shared_probes += outcome.shared_probes;
        }
        report.retries += batch.total_retries();
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

        // 7. Journal the cumulative record for this batch.
        if let Some(writer) = journal.as_deref_mut() {
            writer.append(&encode_record(
                &report,
                (intake.step, intake.next_unit),
                &breakers,
            ))?;
        }
    }

    report.steps = intake.step;
    report.peak_queue = report.peak_queue.min(config.queue_capacity.max(1));
    report.breaker_histories = breakers.iter().map(|b| b.history_letters()).collect();
    report.breaker_finals = breakers.iter().map(|b| b.state()).collect();
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
    retries: usize,
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
        let base = || {
            PesConfig::paper_defaults()
                .with_watchdog(config.watchdog)
                .with_packed_prediction(config.packed_prediction)
        };
        BatchRunner {
            ctx,
            spec,
            threads: if config.threads == 0 {
                parallelism()
            } else {
                config.threads
            },
            retries: config.retries,
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
        let raw = par_map_supervised_with(self.threads, tickets.len(), self.retries, |i| {
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
    match drive(spec, config, None, None, |tickets| runner.run(tickets)) {
        Ok(report) => report,
        // Unreachable: the journal-free drive has no IO to fail.
        Err(e) => unreachable!("journal-free fleet drive errored: {e}"),
    }
}

/// [`run_fleet`] writing one checksummed cumulative journal record per
/// batch to `path` (truncating any previous journal there).
pub fn run_fleet_journaled(
    ctx: &ExperimentContext,
    spec: &FleetSpec,
    config: &FleetConfig,
    path: &Path,
) -> Result<FleetRunReport, FleetError> {
    let mut writer = JournalWriter::create(path)?;
    let mut runner = BatchRunner::new(ctx, spec, config);
    drive(spec, config, Some(&mut writer), None, |tickets| {
        runner.run(tickets)
    })
}

/// Resumes a killed journaled run: reads the journal at `path` (tolerating
/// a torn final line), fast-forwards the admission cursor, restores the
/// aggregates and breaker states of the last intact record, runs the
/// remaining batches and appends their records. The resulting report is
/// byte-identical to the uninterrupted run's. A missing or empty journal
/// simply runs from the start.
pub fn resume_fleet(
    ctx: &ExperimentContext,
    spec: &FleetSpec,
    config: &FleetConfig,
    path: &Path,
) -> Result<FleetRunReport, FleetError> {
    let checkpoint = read_checkpoint(path, &config.breaker)?;
    let kept_lines = checkpoint.as_ref().map_or(0, |(line, _)| line + 1);
    let mut writer = JournalWriter::open_append(path, kept_lines)?;
    let mut runner = BatchRunner::new(ctx, spec, config);
    drive(
        spec,
        config,
        Some(&mut writer),
        checkpoint.map(|(_, saved)| saved),
        |tickets| runner.run(tickets),
    )
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
    match drive(spec, config, None, None, exec) {
        Ok(report) => report,
        // Unreachable: the journal-free drive has no IO to fail.
        Err(e) => unreachable!("dry-run fleet drive errored: {e}"),
    }
}

// ---------------------------------------------------------------------------
// Journal encoding
// ---------------------------------------------------------------------------

/// The journal format this build writes and reads. Any other `PESFLEETJ*`
/// magic is a [`FleetError::JournalVersion`]. The shared-memo hit counters
/// are deliberately **not** journaled: a resumed run rebuilds the
/// generation cold, so they are the one aggregate that is not
/// resume-stable.
const JOURNAL_MAGIC: &str = "PESFLEETJ4";

/// What one journal line holds: the cumulative report (only its journaled
/// fields; see the module docs), the intake cursor `(step, next_unit)` and
/// one breaker snapshot per shard. The last intact line is what a resume
/// restores.
type Checkpoint = (FleetRunReport, (u64, usize), Vec<CircuitBreaker>);

fn level_letter(level: DegradationLevel) -> char {
    match level {
        DegradationLevel::Exact => 'E',
        DegradationLevel::Anytime => 'A',
        DegradationLevel::Greedy => 'G',
        DegradationLevel::Reactive => 'R',
        DegradationLevel::OndemandFloor => 'F',
    }
}

fn level_from_letter(c: char) -> Option<DegradationLevel> {
    match c {
        'E' => Some(DegradationLevel::Exact),
        'A' => Some(DegradationLevel::Anytime),
        'G' => Some(DegradationLevel::Greedy),
        'R' => Some(DegradationLevel::Reactive),
        'F' => Some(DegradationLevel::OndemandFloor),
        _ => None,
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

fn encode_record(
    report: &FleetRunReport,
    (step, next_unit): (u64, usize),
    breakers: &[CircuitBreaker],
) -> String {
    let deg = &report.degradation;
    let inj = &report.injections;
    let fail = if report.failures.is_empty() {
        "-".to_string()
    } else {
        report
            .failures
            .iter()
            .map(|f| {
                format!(
                    "{}:{}:{}",
                    f.index,
                    f.attempts,
                    f.last_level.map_or('E', level_letter)
                )
            })
            .collect::<Vec<_>>()
            .join(";")
    };
    let brk = breakers
        .iter()
        .map(|b| {
            let hist = b.history_letters();
            format!(
                "{}:{:x}:{}:{}:{}:{}",
                b.state.letter(),
                b.bits,
                b.len,
                b.cooldown_left,
                b.probe_successes,
                if hist.is_empty() {
                    "-".to_string()
                } else {
                    hist
                }
            )
        })
        .collect::<Vec<_>>()
        .join("|");
    let payload = format!(
        "{JOURNAL_MAGIC} batch={} step={} next_unit={} shed={} completed={} retries={} \
         violations={} events={} energy={:016x} wd={} deg={},{},{},{},{} \
         inj={},{},{},{},{},{},{},{} nodes={} mh={} mm={} fail={fail} brk={brk}",
        report.batches,
        step,
        next_unit,
        report.shed,
        report.completed,
        report.retries,
        report.violations,
        report.events,
        report.energy_uj.to_bits(),
        report.watchdog_trips,
        deg.exact,
        deg.anytime,
        deg.greedy,
        deg.reactive,
        deg.ondemand_floor,
        inj.prediction_flips,
        inj.confidence_corruptions,
        inj.demand_drifts,
        inj.starved_solves,
        inj.masked_configs,
        inj.delayed_vsyncs,
        inj.duplicated_events,
        inj.dropped_events,
        report.solver_nodes,
        report.memo_hits,
        report.memo_misses,
    );
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

fn parse_usize(value: &str, key: &str) -> Result<usize, FleetError> {
    value
        .parse()
        .map_err(|_| FleetError::Corrupt(format!("bad {key} value {value:?}")))
}

fn parse_counts<const N: usize>(value: &str, key: &str) -> Result<[usize; N], FleetError> {
    let mut out = [0usize; N];
    let mut parts = value.split(',');
    for slot in &mut out {
        let part = parts
            .next()
            .ok_or_else(|| FleetError::Corrupt(format!("{key} needs {N} counts")))?;
        *slot = parse_usize(part, key)?;
    }
    if parts.next().is_some() {
        return Err(FleetError::Corrupt(format!(
            "{key} has more than {N} counts"
        )));
    }
    Ok(out)
}

/// Parses one journal line. Returns `Corrupt` for anything malformed —
/// the reader treats a corrupt *final* line as a torn tail and ignores it
/// — and `JournalVersion` (never swallowed as a torn tail) for an intact
/// record whose magic this build does not read.
fn parse_record(line: &str, breaker_config: &BreakerConfig) -> Result<Checkpoint, FleetError> {
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
    let batches = parse_usize(kv(tokens.next(), "batch")?, "batch")?;
    let step = kv(tokens.next(), "step")?
        .parse::<u64>()
        .map_err(|_| FleetError::Corrupt("bad step".into()))?;
    let next_unit = parse_usize(kv(tokens.next(), "next_unit")?, "next_unit")?;
    let shed = parse_usize(kv(tokens.next(), "shed")?, "shed")?;
    let completed = parse_usize(kv(tokens.next(), "completed")?, "completed")?;
    let retries = parse_usize(kv(tokens.next(), "retries")?, "retries")?;
    let violations = parse_usize(kv(tokens.next(), "violations")?, "violations")?;
    let events = parse_usize(kv(tokens.next(), "events")?, "events")?;
    let energy_bits = u64::from_str_radix(kv(tokens.next(), "energy")?, 16)
        .map_err(|_| FleetError::Corrupt("bad energy bits".into()))?;
    let watchdog_trips = parse_usize(kv(tokens.next(), "wd")?, "wd")?;
    let [exact, anytime, greedy, reactive, ondemand_floor] =
        parse_counts::<5>(kv(tokens.next(), "deg")?, "deg")?;
    let degradation = DegradationTrace {
        exact,
        anytime,
        greedy,
        reactive,
        ondemand_floor,
    };
    let [flips, corr, drifts, starved, masked, vsyncs, dups, drops] =
        parse_counts::<8>(kv(tokens.next(), "inj")?, "inj")?;
    let injections = FaultCounts {
        prediction_flips: flips,
        confidence_corruptions: corr,
        demand_drifts: drifts,
        starved_solves: starved,
        masked_configs: masked,
        delayed_vsyncs: vsyncs,
        duplicated_events: dups,
        dropped_events: drops,
    };
    let solver_nodes = parse_usize(kv(tokens.next(), "nodes")?, "nodes")?;
    let memo_hits = parse_usize(kv(tokens.next(), "mh")?, "mh")?;
    let memo_misses = parse_usize(kv(tokens.next(), "mm")?, "mm")?;
    let fail_field = kv(tokens.next(), "fail")?;
    let mut failures = Vec::new();
    if fail_field != "-" {
        for entry in fail_field.split(';') {
            let mut parts = entry.split(':');
            let index = parse_usize(
                parts
                    .next()
                    .ok_or_else(|| FleetError::Corrupt("empty fail entry".into()))?,
                "fail.index",
            )?;
            let attempts = parse_usize(
                parts
                    .next()
                    .ok_or_else(|| FleetError::Corrupt("fail entry missing attempts".into()))?,
                "fail.attempts",
            )?;
            let level = parts
                .next()
                .and_then(|s| s.chars().next())
                .and_then(level_from_letter)
                .ok_or_else(|| FleetError::Corrupt("fail entry missing level".into()))?;
            failures.push(UnitFailure {
                index,
                attempts,
                last_level: Some(level),
                message: "quarantined before resume (journaled)".to_string(),
            });
        }
    }
    let brk_field = kv(tokens.next(), "brk")?;
    let mut breakers = Vec::new();
    for entry in brk_field.split('|') {
        let mut parts = entry.split(':');
        let state = parts
            .next()
            .and_then(|s| s.chars().next())
            .and_then(BreakerState::from_letter)
            .ok_or_else(|| FleetError::Corrupt("bad breaker state".into()))?;
        let bits = parts
            .next()
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| FleetError::Corrupt("bad breaker window bits".into()))?;
        let len = parse_usize(
            parts
                .next()
                .ok_or_else(|| FleetError::Corrupt("breaker missing len".into()))?,
            "brk.len",
        )?;
        let cooldown_left = parse_usize(
            parts
                .next()
                .ok_or_else(|| FleetError::Corrupt("breaker missing cooldown".into()))?,
            "brk.cooldown",
        )?;
        let probe_successes = parse_usize(
            parts
                .next()
                .ok_or_else(|| FleetError::Corrupt("breaker missing probes".into()))?,
            "brk.probes",
        )?;
        let hist_field = parts
            .next()
            .ok_or_else(|| FleetError::Corrupt("breaker missing history".into()))?;
        let mut history = Vec::new();
        if hist_field != "-" {
            for c in hist_field.chars() {
                history.push(
                    BreakerState::from_letter(c)
                        .ok_or_else(|| FleetError::Corrupt(format!("bad history letter {c:?}")))?,
                );
            }
        }
        let mut breaker = CircuitBreaker::new(breaker_config);
        breaker.state = state;
        breaker.bits = bits;
        breaker.len = len;
        breaker.cooldown_left = cooldown_left;
        breaker.probe_successes = probe_successes;
        breaker.history = history;
        breakers.push(breaker);
    }
    let report = FleetRunReport {
        batches,
        shed,
        completed,
        retries,
        violations,
        events,
        energy_uj: f64::from_bits(energy_bits),
        watchdog_trips,
        degradation,
        injections,
        solver_nodes,
        memo_hits,
        memo_misses,
        failures,
        ..FleetRunReport::default()
    };
    Ok((report, (step, next_unit), breakers))
}

/// Appends one encoded record per batch to the journal file, flushing
/// after every line so a kill loses at most the line being written.
#[derive(Debug)]
struct JournalWriter {
    file: std::fs::File,
    path: PathBuf,
}

impl JournalWriter {
    fn create(path: &Path) -> Result<Self, FleetError> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        Ok(JournalWriter {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Opens for append after a resume, first truncating the file to its
    /// first `lines` lines: everything through the record the resume
    /// restored, so a torn tail goes and blank lines before it stay.
    fn open_append(path: &Path, lines: usize) -> Result<Self, FleetError> {
        let mut kept = Vec::new();
        if path.exists() {
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

/// Reads the journal at `path`, returning its last intact record and the
/// index of the line it sits on. A missing or empty journal yields `None`
/// (run from the start). Blank lines are skipped. A torn or corrupt
/// *final* line is tolerated and dropped; a corrupt line followed by
/// intact ones means real corruption and errors.
fn read_checkpoint(
    path: &Path,
    breaker_config: &BreakerConfig,
) -> Result<Option<(usize, Checkpoint)>, FleetError> {
    if !path.exists() {
        return Ok(None);
    }
    let bytes = std::fs::read(path)?;
    let lines = journal_lines(&bytes);
    let mut last: Option<(usize, Checkpoint)> = None;
    for (i, line) in lines.iter().enumerate() {
        let parsed = match std::str::from_utf8(line) {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => parse_record(line, breaker_config),
            Err(_) => Err(FleetError::Corrupt("line is not valid UTF-8".into())),
        };
        match parsed {
            Ok(saved) => last = Some((i, saved)),
            Err(FleetError::Corrupt(_)) if i + 1 == lines.len() => {
                // Torn tail from the kill: ignore, resume from the
                // previous intact record. Version errors never qualify —
                // an intact checksummed record from an unknown build must
                // surface, not be silently restarted over.
                break;
            }
            Err(e) => return Err(e),
        }
    }
    Ok(last)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker_config() -> BreakerConfig {
        BreakerConfig {
            window: 8,
            trip_threshold: 3,
            cooldown_batches: 2,
            probes: 2,
            close_after: 2,
        }
    }

    #[test]
    fn breaker_walks_open_half_open_closed() {
        let mut b = CircuitBreaker::new(&breaker_config());
        assert_eq!(b.state(), BreakerState::Closed);
        b.record(true);
        b.record(false);
        b.record(true);
        assert_eq!(b.state(), BreakerState::Closed);
        b.record(true); // third bad in window: trips
        assert_eq!(b.state(), BreakerState::Open);
        // Recording while open is inert.
        b.record(false);
        assert_eq!(b.state(), BreakerState::Open);
        b.end_batch();
        assert_eq!(b.state(), BreakerState::Open, "cooldown not yet expired");
        b.end_batch();
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_probe(false);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_probe(false); // close_after = 2 clean probes
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.bad_in_window(), 0, "window cleared on close");
        assert_eq!(b.history_letters(), "OHC");
        assert_eq!(b.opens(), 1);
    }

    #[test]
    fn a_bad_probe_reopens_the_breaker() {
        let mut b = CircuitBreaker::new(&breaker_config());
        for _ in 0..3 {
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
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_probe(false);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn shed_policies_pick_deterministic_victims() {
        let mut queue: VecDeque<(usize, u8)> =
            VecDeque::from(vec![(0, 2), (1, 0), (2, 3), (3, 0), (4, 1)]);
        let mut shed = 0;
        let mut by_priority = [0usize; 4];
        shed_to_capacity(
            &mut queue,
            3,
            ShedPolicy::OldestFirst,
            &mut shed,
            &mut by_priority,
        );
        assert_eq!(queue, VecDeque::from(vec![(2, 3), (3, 0), (4, 1)]));
        assert_eq!((shed, by_priority), (2, [1, 0, 1, 0]));

        let mut queue: VecDeque<(usize, u8)> =
            VecDeque::from(vec![(0, 2), (1, 0), (2, 3), (3, 0), (4, 1)]);
        let mut shed = 0;
        let mut by_priority = [0usize; 4];
        shed_to_capacity(
            &mut queue,
            3,
            ShedPolicy::LowestPriorityFirst,
            &mut shed,
            &mut by_priority,
        );
        // Sheds the oldest priority-0 entries (units 1 then 3).
        assert_eq!(queue, VecDeque::from(vec![(0, 2), (2, 3), (4, 1)]));
        assert_eq!((shed, by_priority), (2, [2, 0, 0, 0]));
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

    /// A record with every journaled field populated, including failures
    /// and several breakers.
    fn sample_record() -> Checkpoint {
        let mut breaker = CircuitBreaker::new(&breaker_config());
        for _ in 0..3 {
            breaker.record(true);
        }
        breaker.end_batch();
        let report = FleetRunReport {
            batches: 7,
            shed: 5,
            completed: 99,
            retries: 3,
            violations: 41,
            events: 12_345,
            energy_uj: 1.234e9,
            watchdog_trips: 6,
            degradation: DegradationTrace {
                exact: 10,
                anytime: 4,
                greedy: 3,
                reactive: 2,
                ondemand_floor: 1,
            },
            injections: FaultCounts {
                prediction_flips: 1,
                confidence_corruptions: 2,
                demand_drifts: 3,
                starved_solves: 4,
                masked_configs: 5,
                delayed_vsyncs: 6,
                duplicated_events: 7,
                dropped_events: 8,
            },
            solver_nodes: 123_456,
            memo_hits: 321,
            memo_misses: 654,
            failures: vec![UnitFailure {
                index: 17,
                attempts: 2,
                last_level: Some(DegradationLevel::Reactive),
                message: "quarantined before resume (journaled)".to_string(),
            }],
            ..FleetRunReport::default()
        };
        let breakers = vec![breaker, CircuitBreaker::new(&breaker_config())];
        (report, (9, 112), breakers)
    }

    fn encode(record: &Checkpoint) -> String {
        encode_record(&record.0, record.1, &record.2)
    }

    #[test]
    fn journal_record_round_trips_through_encode_and_parse() {
        let record = sample_record();
        let line = encode(&record);
        let parsed = parse_record(&line, &breaker_config()).expect("round trip");
        assert_eq!(parsed, record);
    }

    /// A one-shard record of batch `batches` with no failures.
    fn plain_record(batches: usize, violations: usize, energy_uj: f64) -> Checkpoint {
        let report = FleetRunReport {
            batches,
            completed: batches * 8,
            violations,
            events: batches * 100,
            energy_uj,
            solver_nodes: batches * 1_000,
            memo_hits: batches * 5,
            memo_misses: batches * 7,
            ..FleetRunReport::default()
        };
        let breakers = vec![CircuitBreaker::new(&breaker_config())];
        (report, (batches as u64, batches * 8), breakers)
    }

    #[test]
    fn journal_parser_rejects_tampered_lines() {
        let line = encode(&plain_record(1, 2, 7.5));
        assert!(parse_record(&line, &breaker_config()).is_ok());
        let tampered = line.replace("violations=2", "violations=0");
        assert!(matches!(
            parse_record(&tampered, &breaker_config()),
            Err(FleetError::Corrupt(_))
        ));
        let torn = &line[..line.len() / 2];
        assert!(parse_record(torn, &breaker_config()).is_err());
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
            shed: ShedPolicy::LowestPriorityFirst,
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
        // Low-priority shedding sacrifices priority-0 sessions first.
        assert!(report.shed_by_priority[0] >= report.shed_by_priority[3]);
        let again = fleet_admission_dry_run(&spec, &config);
        assert_eq!(report, again, "dry run is deterministic");
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
        assert!(report.is_clean());
        assert_eq!(report.quarantine_rate(), 0.0);
        assert!(
            report.breaker_histories.iter().all(|h| h.is_empty()),
            "clean outcomes never trip a breaker"
        );
    }

    #[test]
    fn checkpoint_reader_tolerates_a_torn_tail_only() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("pes_fleet_torn_{}.journal", std::process::id()));
        let record = |batches: usize| plain_record(batches, batches, batches as f64);
        let l1 = encode(&record(1));
        let l2 = encode(&record(2));
        let torn = &l2[..l2.len() - 10];
        std::fs::write(&path, format!("{l1}\n{torn}\n")).expect("write journal");
        let cp = read_checkpoint(&path, &breaker_config()).expect("torn tail tolerated");
        let (line, (report, _, _)) = cp.expect("first record intact");
        assert_eq!((line, report.batches), (0, 1));
        // A corrupt line *followed by* an intact one is real corruption.
        std::fs::write(&path, format!("{torn}\n{l1}\n")).expect("write journal");
        assert!(matches!(
            read_checkpoint(&path, &breaker_config()),
            Err(FleetError::Corrupt(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    fn checksummed(payload: &str) -> String {
        format!("{payload} #{:016x}", fnv1a(payload))
    }

    #[test]
    fn older_journal_versions_are_version_errors() {
        let energy = 7.5f64.to_bits();
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
        for (line, magic) in [(j3, "PESFLEETJ3"), (j2, "PESFLEETJ2"), (j1, "PESFLEETJ1")] {
            match parse_record(&line, &breaker_config()) {
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
        let line = encode(&plain_record(1, 0, 1.0));
        let (payload, _) = line.rsplit_once(" #").expect("checksummed");
        let future = checksummed(&payload.replace(JOURNAL_MAGIC, "PESFLEETJ9"));
        match parse_record(&future, &breaker_config()) {
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
            read_checkpoint(&path, &breaker_config()),
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
        const GRAMMAR: &[u8] = b" =,:;|#-\n0123456789abcdefPESFLEETJ";

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

        fn checkpoint_of(path: &Path, journal: &[u8]) -> Result<Option<Checkpoint>, FleetError> {
            std::fs::write(path, journal).expect("write journal");
            Ok(read_checkpoint(path, &breaker_config())?.map(|(_, saved)| saved))
        }

        proptest! {
            /// A mutated record parses back to the very record or fails
            /// with a typed error, and the resume reader over a mutated
            /// two-record journal restores one of its records, none, or
            /// errors — never panics, never invents a checkpoint.
            #[test]
            fn mutated_journals_parse_equal_or_error(
                edits in collection::vec((0usize..4, 0usize..1 << 16, 0u8..=255), 1..6),
            ) {
                let first = sample_record();
                let (mut report, (step, next_unit), breakers) = sample_record();
                report.batches += 1;
                report.energy_uj = 2.5e9;
                let second = (report, (step, next_unit + 64), breakers);
                let line = encode(&second);
                let journal = format!("{}\n{line}\n", encode(&first));
                let path = std::env::temp_dir()
                    .join(format!("pes_fleet_fuzz_{}.journal", std::process::id()));
                let cp_first = checkpoint_of(&path, encode(&first).as_bytes())
                    .expect("intact journal reads");
                let cp_second = checkpoint_of(&path, journal.as_bytes()).expect("intact journal reads");
                // Every prefix of the edit list is a case of its own.
                for applied in 1..=edits.len() {
                    let mutated = mutate(line.as_bytes(), &edits[..applied]);
                    let parsed = parse_record(&String::from_utf8_lossy(&mutated), &breaker_config());
                    if let Ok(parsed) = parsed {
                        prop_assert_eq!(parsed, second.clone());
                    }
                    let restored = checkpoint_of(&path, &mutate(journal.as_bytes(), &edits[..applied]));
                    if let Ok(Some(cp)) = restored {
                        prop_assert!(Some(&cp) == cp_first.as_ref() || Some(&cp) == cp_second.as_ref());
                    }
                }
                std::fs::remove_file(&path).ok();
            }
        }
    }
}
