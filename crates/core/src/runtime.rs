//! The PES proactive runtime (Sec. 5) and the Oracle scheduler (Sec. 6.1).
//!
//! The runtime sits between the application and the rendering engine: it
//! continuously predicts the events likely to happen next, co-schedules them
//! with the outstanding events by solving the Eqn. 5 constrained
//! optimisation, speculatively executes the schedule ahead of the user's
//! inputs, parks the resulting frames in the Pending Frame Buffer, and
//! commits or squashes them as the actual inputs arrive. The Oracle runs the
//! same machinery with perfect knowledge of the future event sequence and of
//! every event's true workload.
//!
//! Every `run_trace*` entry point takes the caller's shared DVFS power
//! plane, builds an [`ExecutionEngine`] on it and hands the engine to one
//! private `Replay` state machine, which serves each delivered event
//! in the three phases of Sec. 5: *speculate* while the CPU is idle (a new
//! prediction round starts only once the PFB is empty), *validate* the input
//! against the PFB (commit the front frame or squash them all), and *serve*
//! it now through the global optimizer or reactively. After more than
//! [`FALLBACK_THRESHOLD`] consecutive mispredictions prediction turns off
//! and the rest of the replay is served reactively.

use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use pes_acmp::units::{EnergyUj, TimeUs};
use pes_acmp::{AcmpConfig, ActivityKind, CpuDemand, DvfsLadder, LadderCache, Platform};
use pes_dom::{BuiltPage, EventType};
use pes_ilp::{IlpError, ScheduleItem, SolveScratch, SolveTier};
use pes_predictor::{EventSequenceLearner, LearnerConfig, PredictScratch, SessionState};
use pes_schedulers::{ebs_config, DemandProfiler};
use pes_webrt::{EventId, ExecutionEngine, QosOutcome, QosPolicy, WebEvent};
use pes_workload::Trace;

use crate::fault::{DegradationLevel, DegradationTrace, FaultCounts, FaultPlane, FaultSession};
use crate::memo::{window_shape, SolveGeneration, SolveMemo, SolveShard};
use crate::pfb::{PendingFrame, PendingFrameBuffer};
use crate::watchdog::{WatchdogConfig, WatchdogState};

/// Configuration of the PES runtime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PesConfig {
    /// Sequence-learner configuration (confidence threshold, LNES masking).
    pub learner: LearnerConfig,
    /// The serving tier the replay *starts* at. [`DegradationLevel::Exact`]
    /// (the default) is the full proactive runtime; worse tiers cap it —
    /// `Anytime` bounds every solve to [`ANYTIME_TIER_NODE_CAP`] nodes,
    /// `Greedy` floors solves to their greedy seed, `Reactive` disables
    /// speculation and serves every event reactively, and `OndemandFloor`
    /// serves every event at the conservative profiling configuration.
    /// Fleet circuit breakers route units here while open; watchdog trips
    /// demote the live tier below this starting point.
    pub forced_tier: DegradationLevel,
    /// Per-replay watchdog deadlines (see [`crate::watchdog`]); the
    /// disabled default never charges, never trips.
    pub watchdog: WatchdogConfig,
}

/// After strictly more than this many consecutive mispredictions the
/// runtime disables prediction and falls back to reactive EBS behaviour
/// (Sec. 5.4 uses 3).
pub const FALLBACK_THRESHOLD: u32 = 3;

/// Node budget for each optimizer invocation on windows of at most
/// [`WIDE_WINDOW_THRESHOLD`] events. The PES-scale 6×17 window solves
/// exactly under this budget.
pub const OPTIMIZER_NODE_LIMIT: usize = 200_000;

/// Windows with more events than this use [`WIDE_WINDOW_NODE_LIMIT`] as
/// their solver budget.
pub const WIDE_WINDOW_THRESHOLD: usize = 8;

/// Second budget tier: the node budget for windows wider than
/// [`WIDE_WINDOW_THRESHOLD`] events — the Oracle's 12-event windows. Exact
/// proofs of the hard ones need 10⁴–10⁶ nodes even under the coarse-time
/// bound, so this tier bounds the coarse-time incumbent search. Most such
/// searches end inside it with the [`INCUMBENT_GAP_EPSILON`] proof (313 of
/// 346 hopeless windows on the seed-1 `policy-matrix` traces).
pub const WIDE_WINDOW_NODE_LIMIT: usize = 60_000;

/// Relative incumbent-quality slack of the coarse-time incumbent search: a
/// search that finishes proves its incumbent within this fraction of the
/// optimal cost *at its violation count*. The slack never prunes a node
/// that could reduce violations, and the incumbent only improves on its
/// greedy seed, so the never-worse-than-greedy contract is unaffected.
pub const INCUMBENT_GAP_EPSILON: f64 = 0.01;

/// Relative tolerance of the planner's demand/gap hysteresis: the planner
/// re-uses its previously posed demand class (per event type) and
/// inter-arrival gap until the fresh EWMA estimate drifts further than this
/// fraction away, at which point it snaps to the fresh value. Estimates are
/// noisy by construction (per-event workloads vary by ±30 % around their
/// profile on the evaluation traces), so holding the posed window steady
/// inside the noise band costs no real planning fidelity — and it is what
/// lets the shape-keyed solve memoisation revalidate re-planned windows
/// instead of re-solving every round. Oracle windows use exact knowledge
/// and are never held.
pub const PLANNING_HYSTERESIS: f64 = 0.35;

/// Solver node cap of the [`DegradationLevel::Anytime`] serving tier: a
/// demoted replay still refines a coarse-time incumbent, just on a budget two
/// orders below the full tiers.
pub const ANYTIME_TIER_NODE_CAP: usize = 4_096;

impl Default for PesConfig {
    fn default() -> Self {
        PesConfig {
            learner: LearnerConfig::paper_defaults(),
            forced_tier: DegradationLevel::Exact,
            watchdog: WatchdogConfig::disabled(),
        }
    }
}

impl PesConfig {
    /// The paper's default configuration.
    pub fn paper_defaults() -> Self {
        PesConfig::default()
    }

    /// Returns a copy with a different prediction confidence threshold
    /// (the Fig. 14 sweep).
    pub fn with_confidence_threshold(mut self, threshold: f64) -> Self {
        self.learner = self.learner.with_confidence_threshold(threshold);
        self
    }

    /// Returns a copy with DOM (LNES) masking enabled or disabled
    /// (the Sec. 6.5 predictor-design ablation).
    pub fn with_lnes(mut self, use_lnes: bool) -> Self {
        self.learner = self.learner.with_lnes(use_lnes);
        self
    }

    /// Returns a copy with prediction rounds routed through the packed
    /// class-major f32 plane (`pes_predictor::PackedModel`) instead of the
    /// per-class f64 reference path. Off by default: the reference path
    /// keeps the pinned goldens bit-stable, the packed plane serves the
    /// fleet's batch tiers.
    pub fn with_packed_prediction(mut self, use_packed: bool) -> Self {
        self.learner = self.learner.with_packed(use_packed);
        self
    }

    /// Returns a copy starting every replay at `tier` (breaker-forced
    /// degradation routing; [`DegradationLevel::Exact`] is the full
    /// runtime).
    pub fn with_forced_tier(mut self, tier: DegradationLevel) -> Self {
        self.forced_tier = tier;
        self
    }

    /// Returns a copy with per-replay watchdog deadlines
    /// ([`WatchdogConfig::disabled`] turns them off).
    pub fn with_watchdog(mut self, watchdog: WatchdogConfig) -> Self {
        self.watchdog = watchdog;
        self
    }
}

/// The report produced by one trace replay under a proactive scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Policy name ("PES" or "Oracle").
    pub policy: String,
    /// Application name.
    pub app: String,
    /// Number of events replayed.
    pub events: usize,
    /// Number of QoS violations.
    pub violations: usize,
    /// Total processor energy for the session.
    pub total_energy: EnergyUj,
    /// Energy spent on squashed speculative work.
    pub waste_energy: EnergyUj,
    /// Number of events that were checked against a speculative frame.
    pub predictions: usize,
    /// Number of those whose prediction was correct.
    pub correct_predictions: usize,
    /// Number of mispredictions (prediction checks that failed).
    pub mispredictions: usize,
    /// Frame-generation time wasted per misprediction (the Fig. 10 metric).
    pub misprediction_waste: Vec<TimeUs>,
    /// Pending-frame-buffer occupancy per actual event (the Fig. 9 series).
    pub pfb_trace: Vec<(usize, usize)>,
    /// Number of prediction rounds started.
    pub prediction_rounds: usize,
    /// Sum of the prediction degrees of all rounds.
    pub total_prediction_degree: usize,
    /// Per-event QoS outcomes.
    pub outcomes: Vec<(EventId, QosOutcome)>,
    /// Total branch-and-bound nodes explored by the optimizer.
    pub solver_nodes: usize,
    /// Number of optimizer invocations answered by the window memoisation
    /// ring (shape fingerprint matched and the posed window revalidated
    /// item-for-item against the cached one).
    pub solver_cache_hits: usize,
    /// Number of optimizer invocations that fell through to a solve.
    pub solver_cache_misses: usize,
    /// Number of candidate ring slots whose shape fingerprint matched and
    /// were therefore revalidated (`revalidations - hits` = fingerprint
    /// collisions).
    pub solver_cache_revalidations: usize,
    /// Where every scheduling decision of the replay landed on the
    /// graceful-degradation ladder: one observation per optimizer round
    /// (from its solve tier) and one per reactively served event.
    pub degradation: DegradationTrace,
    /// Faults the replay's [`FaultPlane`] actually injected, by class
    /// (all-zero under [`FaultPlane::none`]).
    pub fault_injections: FaultCounts,
    /// Session energy by activity kind, in [`ActivityKind::ALL`] order.
    /// The meter integrates each sample into exactly one kind, so the
    /// breakdown sums to [`RunReport::total_energy`] — the internal
    /// consistency the chaos tier asserts under every fault schedule.
    pub energy_breakdown: Vec<(ActivityKind, EnergyUj)>,
    /// Watchdog deadline crossings (each one demoted the serving tier one
    /// level); zero under the disabled default.
    pub watchdog_trips: usize,
    /// The serving tier the replay ended at:
    /// [`PesConfig::forced_tier`] demoted once per watchdog trip.
    pub final_tier: DegradationLevel,
}

impl RunReport {
    /// The fraction of events that violated their QoS target.
    pub fn violation_rate(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.violations as f64 / self.events as f64
        }
    }

    /// Prediction accuracy over the events that had a speculative frame to
    /// check against (the Fig. 8 notion, measured online).
    pub fn prediction_accuracy(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.correct_predictions as f64 / self.predictions as f64
        }
    }

    /// Average misprediction waste in milliseconds (Fig. 10).
    pub fn average_waste_ms(&self) -> f64 {
        if self.misprediction_waste.is_empty() {
            0.0
        } else {
            self.misprediction_waste
                .iter()
                .map(|t| t.as_millis_f64())
                .sum::<f64>()
                / self.misprediction_waste.len() as f64
        }
    }

    /// Average prediction degree (events predicted per round).
    pub fn average_prediction_degree(&self) -> f64 {
        if self.prediction_rounds == 0 {
            0.0
        } else {
            self.total_prediction_degree as f64 / self.prediction_rounds as f64
        }
    }

    /// Fraction of optimizer invocations answered by the solve-memoisation
    /// ring.
    pub fn solver_cache_hit_rate(&self) -> f64 {
        let lookups = self.solver_cache_hits + self.solver_cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.solver_cache_hits as f64 / lookups as f64
        }
    }

    /// Fraction of the session energy wasted on squashed speculation.
    pub fn waste_energy_fraction(&self) -> f64 {
        if self.total_energy.as_microjoules() == 0.0 {
            0.0
        } else {
            self.waste_energy / self.total_energy
        }
    }
}

/// One planned speculative execution.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SpeculativeItem {
    event_type: EventType,
    demand: CpuDemand,
    config: AcmpConfig,
}

/// Relative planning-granularity quantisation for **demand estimates**. The
/// planner schedules on estimates (EWMA demand profiles), so wiggle in the
/// last couple percent of a value is estimation noise, not signal. Rounding
/// each input onto a grid of 1/32 of its own power-of-two magnitude keeps
/// the distortion ≤ ~1.6 % at every scale — light scroll demands and heavy
/// page loads alike — while making the *option rows* of consecutive
/// prediction rounds identical: the same quantised demand keys hit the
/// `LadderCache` and produce byte-equal item options, which is one half of
/// what the shape-keyed solve memoisation (see [`crate::memo`]) needs to
/// revalidate a re-planned window against a cached one. Oracle windows are
/// built from exact knowledge and are deliberately not quantised.
fn quantize(v: u64) -> u64 {
    if v == 0 {
        return 0;
    }
    // Grid = 2^(floor(log2 v) − 5), at least 1: 32–64 grid steps per octave.
    let grid = ((1u64 << (63 - v.leading_zeros())) >> 5).max(1);
    // Saturate: top-octave values (possible via hostile trace JSON feeding
    // the EWMAs) must round down, not wrap.
    v.saturating_add(grid / 2) / grid * grid
}

/// Quantises a demand estimate onto the relative planning grid.
fn quantize_demand(demand: CpuDemand) -> CpuDemand {
    use pes_acmp::units::CpuCycles;
    CpuDemand::new(
        TimeUs::from_micros(quantize(demand.t_mem().as_micros())),
        CpuCycles::new(quantize(demand.ref_cycles().get())),
    )
}

/// Whether `fresh` lies within the relative hysteresis band of `held`.
fn within_band(held: u64, fresh: u64) -> bool {
    (fresh as f64 - held as f64).abs() <= PLANNING_HYSTERESIS * (held as f64).max(1.0)
}

/// Planning hysteresis (see [`PLANNING_HYSTERESIS`]): returns
/// the held value while `fresh` stays inside the tolerance band, snapping
/// the hold to `fresh` once it drifts out. The grid quantisation above
/// makes a *steady* input bit-stable; this is what keeps the posed window
/// stable under *drifting* estimates — the gap EWMA moves on every arrival
/// and per-event demands vary by double-digit percentages, so without the
/// hold the solve-memoisation key changed nearly every round (the measured
/// 0 % hit rate on the cnn replay that motivated the shape-tolerant
/// redesign).
fn held_value(held: &mut Option<u64>, fresh: u64) -> u64 {
    match held {
        Some(current) if within_band(*current, fresh) => *current,
        _ => {
            *held = Some(fresh);
            fresh
        }
    }
}

/// Per-event-type demand hysteresis: [`held_value`] applied to both demand
/// components at once (a drift in either snaps the whole class, so the held
/// demand is always one the profiler actually produced).
fn held_demand(
    held: &mut BTreeMap<EventType, CpuDemand>,
    event_type: EventType,
    fresh: CpuDemand,
) -> CpuDemand {
    match held.get(&event_type) {
        Some(current)
            if within_band(current.t_mem().as_micros(), fresh.t_mem().as_micros())
                && within_band(current.ref_cycles().get(), fresh.ref_cycles().get()) =>
        {
            *current
        }
        _ => {
            held.insert(event_type, fresh);
            fresh
        }
    }
}

/// Reusable state for the scheduling hot path: the solver's search arena,
/// the window memoisation cache and the buffers the planner fills in place
/// instead of allocating fresh `Vec`s every prediction round. Each thread
/// keeps one in [`RUN_SCRATCH`] and carries it from one PES replay to the
/// next; [`RunScratch::reset`] is the boundary between two replays.
#[derive(Debug, Default)]
struct RunScratch {
    /// Branch-and-bound search arena, reused across every solve the thread
    /// runs.
    solve_scratch: SolveScratch,
    /// The shape-keyed solve-memoisation ring: a `u64` fingerprint per slot
    /// filters candidates, a full item compare revalidates them, and misses
    /// recycle the evicted slot's problem/solution allocations in place
    /// (see [`crate::memo`]).
    memo: SolveMemo,
    /// The window under construction; item slots (and their `options` Vecs)
    /// are overwritten in place.
    items_buf: Vec<ScheduleItem>,
    /// `(event type, demand)` aligned with `items_buf`.
    kinds_buf: Vec<(EventType, CpuDemand)>,
    /// Predicted `(event type, demand)` pairs for the current round.
    predicted_buf: Vec<(EventType, CpuDemand)>,
    /// Sequence-learner buffers: prediction rounds run without cloning the
    /// session state or allocating.
    predict_scratch: PredictScratch,
    /// Scratch session for planning past an outstanding event, reused across
    /// events instead of cloning the live session each time.
    session_scratch: Option<SessionState>,
    /// Demand-keyed memo over the precomputed DVFS ladder: window fills and
    /// reactive fallbacks evaluate the same few (quantised) demands over and
    /// over, so the 17-configuration evaluation usually comes from cache.
    ladder_cache: LadderCache,
    /// Hysteresis-held per-event-type demand classes the planner poses (see
    /// [`PLANNING_HYSTERESIS`]).
    planning_demands: BTreeMap<EventType, CpuDemand>,
    /// Hysteresis-held inter-arrival gap the planner poses.
    planning_gap_us: Option<u64>,
}

impl RunScratch {
    /// Forgets all per-replay state and keeps every allocation, so the next
    /// replay runs exactly as on a fresh scratch. The memo ring and the
    /// hysteresis holds are per-replay state. Ladder rows are only valid
    /// against the ladder that filled them, and the next replay may run on
    /// another plane, so the ladder cache is cleared too. Everything else
    /// is overwritten before each use (the window and prediction buffers,
    /// the solver arena) or self-validates against the tree's `TreeStamp`
    /// (the scratch sessions).
    fn reset(&mut self) {
        self.memo.reset();
        self.ladder_cache.clear();
        self.planning_demands.clear();
        self.planning_gap_us = None;
    }
}

thread_local! {
    /// Each thread's [`RunScratch`], parked between PES replays. A replay
    /// takes it (or starts a fresh one) and `Replay::finish` puts it back; a
    /// replay that panics drops it with the rest of its state.
    static RUN_SCRATCH: Cell<Option<RunScratch>> = const { Cell::new(None) };
}

/// How the runtime knows about the future.
#[derive(Debug, Clone)]
enum Knowledge {
    /// The learned predictor of Sec. 5.2 plus online workload profiling.
    Learned(Box<EventSequenceLearner>),
    /// Perfect knowledge of the remaining event sequence and workloads.
    Oracle {
        /// How many future events the oracle schedules at once.
        window: usize,
    },
}

/// The proactive runtime shared by PES and the Oracle.
#[derive(Debug, Clone)]
pub struct ProactiveRuntime {
    knowledge: Knowledge,
    config: PesConfig,
}

/// The PES scheduler: learned prediction + global optimisation + speculation.
#[derive(Debug, Clone)]
pub struct PesScheduler {
    runtime: ProactiveRuntime,
}

impl PesScheduler {
    /// Creates a PES scheduler from a trained sequence learner.
    pub fn new(learner: EventSequenceLearner, config: PesConfig) -> Self {
        let mut learner = learner;
        learner.set_config(config.learner);
        PesScheduler {
            runtime: ProactiveRuntime {
                knowledge: Knowledge::Learned(Box::new(learner)),
                config,
            },
        }
    }

    /// The runtime configuration.
    pub fn config(&self) -> &PesConfig {
        &self.runtime.config
    }

    /// Replays one trace under PES on a shared DVFS power plane (one ladder
    /// per platform, built once by the experiment context).
    pub fn run_trace_with_plane(
        &self,
        platform: &Platform,
        plane: &Arc<DvfsLadder>,
        page: &BuiltPage,
        trace: &Trace,
        qos: &QosPolicy,
    ) -> RunReport {
        self.run_trace_with_plane_and_faults(platform, plane, page, trace, qos, &FaultPlane::none())
    }

    /// Replays one trace under PES on a shared power plane with a
    /// fault-injection plane. [`FaultPlane::none`] makes this identical to
    /// [`PesScheduler::run_trace_with_plane`], bit for bit.
    pub fn run_trace_with_plane_and_faults(
        &self,
        platform: &Platform,
        plane: &Arc<DvfsLadder>,
        page: &BuiltPage,
        trace: &Trace,
        qos: &QosPolicy,
        faults: &FaultPlane,
    ) -> RunReport {
        let engine = ExecutionEngine::with_plane(platform, *qos, Arc::clone(plane));
        self.runtime.run(engine, page, trace, faults, None)
    }

    /// Replays one trace under PES with the shared cross-replay solve cache
    /// plugged in: ring misses probe the read-only `shared` generation
    /// before solving cold, and cold solves are recorded into the caller's
    /// private write `shard` for the next publish. The report is
    /// **bit-identical** to [`PesScheduler::run_trace_with_plane_and_faults`]
    /// — a generation hit mirrors the cold-solve path, node charges
    /// included (see [`SolveMemo::solve_shared`]); only the shard's own
    /// counters observe the sharing.
    #[allow(clippy::too_many_arguments)]
    pub fn run_trace_with_shared_memo(
        &self,
        platform: &Platform,
        plane: &Arc<DvfsLadder>,
        page: &BuiltPage,
        trace: &Trace,
        qos: &QosPolicy,
        faults: &FaultPlane,
        shared: &SolveGeneration,
        shard: &mut SolveShard,
    ) -> RunReport {
        let engine = ExecutionEngine::with_plane(platform, *qos, Arc::clone(plane));
        self.runtime
            .run(engine, page, trace, faults, Some((shared, shard)))
    }
}

/// The Oracle scheduler: a priori knowledge of the entire event sequence.
#[derive(Debug, Clone)]
pub struct OracleScheduler {
    runtime: ProactiveRuntime,
}

impl OracleScheduler {
    /// Creates the Oracle with its default (effectively unbounded) window.
    pub fn new() -> Self {
        OracleScheduler {
            runtime: ProactiveRuntime {
                knowledge: Knowledge::Oracle { window: 12 },
                config: PesConfig::paper_defaults(),
            },
        }
    }

    /// Replays one trace under the Oracle on a shared DVFS power plane.
    pub fn run_trace_with_plane(
        &self,
        platform: &Platform,
        plane: &Arc<DvfsLadder>,
        page: &BuiltPage,
        trace: &Trace,
        qos: &QosPolicy,
    ) -> RunReport {
        let engine = ExecutionEngine::with_plane(platform, *qos, Arc::clone(plane));
        self.runtime
            .run(engine, page, trace, &FaultPlane::none(), None)
    }
}

impl Default for OracleScheduler {
    fn default() -> Self {
        OracleScheduler::new()
    }
}

impl ProactiveRuntime {
    /// Replays `trace` on `engine` (which carries the platform, the power
    /// plane and the QoS policy): one [`Replay`] step per delivered event.
    /// `shared` plugs in the cross-replay solve cache as a read-only
    /// generation plus the caller's write shard.
    fn run(
        &self,
        engine: ExecutionEngine<'_>,
        page: &BuiltPage,
        trace: &Trace,
        faults: &FaultPlane,
        shared: Option<(&SolveGeneration, &mut SolveShard)>,
    ) -> RunReport {
        let mut fs = faults.session();
        // Queue faults perturb the delivered event sequence itself; with
        // both classes disabled the replay borrows the trace untouched.
        let mutated_events = fs.mutate_events(trace.events());
        let events: &[WebEvent] = mutated_events.as_deref().unwrap_or_else(|| trace.events());
        let policy = match self.knowledge {
            Knowledge::Learned(_) => "PES",
            Knowledge::Oracle { .. } => "Oracle",
        };
        let tier = self.config.forced_tier;
        let profiler = DemandProfiler::new(engine.platform());
        // The Oracle builds its own scratch: parking its wide-window
        // buffers gained it nothing measurable and slowed the replays that
        // followed it on the thread (EXPERIMENTS.md, "Replay scratch
        // pooling").
        let rs = if self.learned() {
            let mut rs = RUN_SCRATCH.take().unwrap_or_default();
            rs.reset();
            rs
        } else {
            RunScratch::default()
        };
        let mut replay = Replay {
            runtime: self,
            events,
            shared,
            engine,
            profiler,
            session: SessionState::new(page.tree.clone()),
            pfb: PendingFrameBuffer::new(),
            plan: VecDeque::new(),
            rs,
            fs,
            wd: WatchdogState::new(self.config.watchdog),
            tier,
            consecutive_mispredictions: 0,
            prediction_disabled: false,
            gap_ewma: TimeUs::from_secs(2),
            prev_arrival: None,
            report: RunReport {
                policy: policy.to_string(),
                app: trace.app().to_string(),
                events: events.len(),
                violations: 0,
                total_energy: EnergyUj::ZERO,
                waste_energy: EnergyUj::ZERO,
                predictions: 0,
                correct_predictions: 0,
                mispredictions: 0,
                misprediction_waste: Vec::new(),
                pfb_trace: Vec::new(),
                prediction_rounds: 0,
                total_prediction_degree: 0,
                // `finish` moves the engine's commit log in.
                outcomes: Vec::new(),
                solver_nodes: 0,
                solver_cache_hits: 0,
                solver_cache_misses: 0,
                solver_cache_revalidations: 0,
                degradation: DegradationTrace::default(),
                fault_injections: FaultCounts::default(),
                energy_breakdown: Vec::new(),
                watchdog_trips: 0,
                final_tier: tier,
            },
        };
        for idx in 0..events.len() {
            replay.step(idx);
        }
        replay.finish()
    }

    /// Whether the runtime plans from the learned predictor (quantised,
    /// hysteresis-held demand classes) rather than from exact knowledge.
    fn learned(&self) -> bool {
        matches!(self.knowledge, Knowledge::Learned(_))
    }
}

/// One trace replay as a state machine: [`Replay::step`] serves one
/// delivered event in the three phases of Sec. 5 and [`Replay::finish`]
/// seals the report.
struct Replay<'a> {
    runtime: &'a ProactiveRuntime,
    /// The delivered events (the trace after queue faults).
    events: &'a [WebEvent],
    /// The shared solve generation and the caller's write shard.
    shared: Option<(&'a SolveGeneration, &'a mut SolveShard)>,
    engine: ExecutionEngine<'a>,
    profiler: DemandProfiler,
    session: SessionState,
    pfb: PendingFrameBuffer,
    /// The speculative schedule of the current prediction round.
    plan: VecDeque<SpeculativeItem>,
    rs: RunScratch,
    fs: FaultSession,
    wd: WatchdogState,
    /// The live serving tier: starts at the (breaker-)forced tier and only
    /// descends — one watchdog trip, one demotion. Both the meters and the
    /// demotions are deterministic, so a watchdogged replay is as
    /// replayable as a plain one.
    tier: DegradationLevel,
    consecutive_mispredictions: u32,
    /// Set after more than [`FALLBACK_THRESHOLD`] consecutive
    /// mispredictions: the rest of the replay is served reactively.
    prediction_disabled: bool,
    gap_ewma: TimeUs,
    prev_arrival: Option<TimeUs>,
    /// The report being filled in; its degradation histogram is the live
    /// ladder.
    report: RunReport,
}

impl Replay<'_> {
    /// Serves event `idx`: speculate while idle, validate the input against
    /// the PFB, and serve it now if no speculative frame did.
    fn step(&mut self, idx: usize) {
        let events = self.events;
        let ev = &events[idx];
        self.speculate(idx, ev.arrival());
        if !self.validate(idx, ev) {
            self.serve(idx, ev);
        }
        self.session.observe(ev);
    }

    /// (A) Speculate while the runtime is idle, before the input arriving
    /// at `arrival`. Each speculative execution produces a frame that waits
    /// in the PFB. Tiers at Reactive or worse never speculate: the breaker
    /// (or a tripped watchdog) has taken the optimizer out of the loop.
    fn speculate(&mut self, idx: usize, arrival: TimeUs) {
        while !self.prediction_disabled
            && self.tier < DegradationLevel::Reactive
            && self.engine.cpu_free_at() < arrival
        {
            if self.plan.is_empty() {
                if !self.pfb.is_empty() {
                    // A new prediction round only starts once every
                    // previously speculated frame has been consumed
                    // (Sec. 5.4).
                    break;
                }
                let (degree, nodes) = self.plan_round(idx, None);
                self.charge_nodes(nodes);
                if self.plan.is_empty() {
                    break;
                }
                self.report.prediction_rounds += 1;
                self.report.total_prediction_degree += degree;
            }
            let Some(item) = self.plan.pop_front() else {
                // Unreachable — the block above breaks when the plan stays
                // empty — but the ladder fallback beats a panic.
                break;
            };
            // If the prediction is about to come true, the work executed
            // speculatively is the *actual* next event's work; otherwise the
            // runtime renders a frame for a wrong event using its own
            // estimate of that event type's workload.
            let future_idx = idx + self.pfb.len();
            let exec_demand = match self.events.get(future_idx) {
                Some(future) if future.event_type() == item.event_type => future.demand(),
                _ => item.demand,
            };
            let synthetic = WebEvent::new(
                EventId::new(1_000_000 + future_idx as u64),
                item.event_type,
                None,
                self.engine.cpu_free_at(),
                exec_demand,
            );
            // Thermal throttling: a masked rung clamps to the nearest valid
            // one before the work runs.
            let exec_config = self
                .fs
                .mask_config(self.engine.platform().configs(), item.config);
            let record = self.engine.execute_event(&synthetic, &exec_config, true);
            self.pfb.push(PendingFrame {
                predicted_type: item.event_type,
                record,
            });
            let trips = self.wd.charge_event();
            self.demote(trips);
        }
    }

    /// (B) The actual input `ev` arrives: validate it against the PFB.
    /// Returns whether a speculative frame served it. A misprediction
    /// squashes every pending frame and reboots prediction (Sec. 5.4).
    fn validate(&mut self, idx: usize, ev: &WebEvent) -> bool {
        self.pfb.record_occupancy(idx);
        if let Some(prev) = self.prev_arrival {
            let gap = ev.arrival().saturating_sub(prev);
            self.gap_ewma = TimeUs::from_micros(
                (self.gap_ewma.as_micros() as f64 * 0.7 + gap.as_micros() as f64 * 0.3) as u64,
            );
        }
        self.prev_arrival = Some(ev.arrival());
        if self.pfb.is_empty() {
            return false;
        }
        self.report.predictions += 1;
        if let Some(frame) = self.pfb.commit_front(ev.event_type()) {
            self.report.correct_predictions += 1;
            self.consecutive_mispredictions = 0;
            let ready_at = self
                .fs
                .delay_vsync(frame.record.frame_ready_at, self.engine.vsync().period());
            self.engine.commit(ev, ready_at);
            self.profiler
                .observe(ev.event_type(), frame.record.config, frame.record.busy_time);
            return true;
        }
        self.report.mispredictions += 1;
        self.consecutive_mispredictions += 1;
        let mut front_waste = None;
        let engine = &mut self.engine;
        self.pfb.squash_with(|frame| {
            if front_waste.is_none() {
                front_waste = Some(frame.record.busy_time);
            }
            engine.account_squashed_frame(&frame.record);
        });
        if let Some(waste) = front_waste {
            self.report.misprediction_waste.push(waste);
        }
        self.plan.clear();
        if self.consecutive_mispredictions > FALLBACK_THRESHOLD {
            self.prediction_disabled = true;
        }
        false
    }

    /// (C) No committed speculative frame: execute `ev` now, choosing its
    /// configuration through the global optimizer (or through reactive EBS
    /// behaviour when prediction is disabled, the tier is Reactive or worse,
    /// or the event type is still being profiled).
    fn serve(&mut self, idx: usize, ev: &WebEvent) {
        let config = if self.tier >= DegradationLevel::Reactive
            || self.prediction_disabled
            || self.profiler.needs_profiling(ev.event_type())
        {
            self.reactive_config(ev)
        } else {
            // Prediction is enabled on this path, so the freshly planned
            // speculation always replaces `plan`; its head is `ev`'s slot.
            let (_degree, nodes) = self.plan_round(idx, Some(ev));
            let config = match self.plan.pop_front() {
                Some(first) => first.config,
                None => self.reactive_config(ev),
            };
            self.charge_nodes(nodes);
            config
        };
        let config = self
            .fs
            .mask_config(self.engine.platform().configs(), config);
        let record = self.engine.execute_event(ev, &config, false);
        let ready_at = self
            .fs
            .delay_vsync(record.frame_ready_at, self.engine.vsync().period());
        self.engine.commit(ev, ready_at);
        self.profiler
            .observe(ev.event_type(), config, record.busy_time);
        let trips = self.wd.charge_event();
        self.demote(trips);
    }

    /// Seals the report from the engine's meters and the replay's counters,
    /// and parks a PES replay's run scratch for the thread's next replay.
    fn finish(self) -> RunReport {
        let Replay {
            runtime,
            engine,
            pfb,
            rs,
            fs,
            wd,
            tier,
            mut report,
            ..
        } = self;
        // The engine counts violations at commit time and logs every commit,
        // so the counter and a scan of the log agree (the differential
        // suites pin this).
        report.violations = engine.violations();
        report.total_energy = engine.total_energy();
        report.waste_energy = engine.energy_for(ActivityKind::SpeculativeWaste);
        report.pfb_trace = pfb.occupancy_trace().to_vec();
        let memo_stats = rs.memo.stats();
        report.solver_cache_hits = memo_stats.hits;
        report.solver_cache_misses = memo_stats.misses;
        report.solver_cache_revalidations = memo_stats.revalidations;
        report.fault_injections = fs.counts();
        report.energy_breakdown = ActivityKind::ALL
            .iter()
            .map(|&kind| (kind, engine.energy_for(kind)))
            .collect();
        report.watchdog_trips = wd.trips();
        report.final_tier = tier;
        report.outcomes = engine.into_outcomes();
        if runtime.learned() {
            RUN_SCRATCH.set(Some(rs));
        }
        report
    }

    /// Charges `nodes` explored solver nodes to the report and the
    /// watchdog.
    fn charge_nodes(&mut self, nodes: usize) {
        self.report.solver_nodes += nodes;
        let trips = self.wd.charge_nodes(nodes);
        self.demote(trips);
    }

    /// Demotes the live serving tier one level per watchdog trip.
    fn demote(&mut self, trips: usize) {
        for _ in 0..trips {
            self.tier = self.tier.demoted();
        }
    }

    /// Reactive configuration choice for `ev`: the EBS decision
    /// ([`ebs_config`]) through the replay's demand memo, recorded on the
    /// degradation ladder as `Reactive`. A serving tier pinned at the floor
    /// (a breaker routed the unit there, or the watchdog demoted it all the
    /// way down) serves the conservative profiling configuration instead,
    /// recorded as `OndemandFloor`.
    fn reactive_config(&mut self, ev: &WebEvent) -> AcmpConfig {
        let ladder = &mut self.report.degradation;
        if self.tier == DegradationLevel::OndemandFloor {
            ladder.observe(DegradationLevel::OndemandFloor);
            return self.profiler.profiling_config(ev.event_type());
        }
        ladder.observe(DegradationLevel::Reactive);
        let start_time = self.engine.cpu_free_at().max(ev.arrival());
        ebs_config(
            &self.profiler,
            &mut self.rs.ladder_cache,
            self.engine.platform(),
            self.engine.plane(),
            self.engine.qos(),
            ev,
            start_time,
        )
    }

    /// Predicts the event sequence starting at event `next` into
    /// `rs.predicted_buf` (cleared first; both it and the learner's
    /// `predict_scratch` buffers are reused across rounds, so a round is
    /// allocation-free). With an `outstanding` event the learner predicts
    /// from the state in which it has already been observed: a scratch
    /// session rebuilt in place from the live one (it shares the live
    /// session's DOM, so this is allocation-free in the steady state).
    /// A learned round stops at the first predicted type the profiler has
    /// no demand estimate for, since PES cannot plan it; the learner runs
    /// no step past it. Learned predictions carry the hysteresis-held
    /// quantised demand classes the planner poses; Oracle predictions
    /// carry exact demands.
    fn predict_types(&mut self, next: usize, outstanding: Option<&WebEvent>) {
        let rs = &mut self.rs;
        rs.predicted_buf.clear();
        match &self.runtime.knowledge {
            Knowledge::Learned(learner) => {
                let session = match (outstanding, &mut rs.session_scratch) {
                    (None, _) => &self.session,
                    (Some(ev), slot) => {
                        let scratch = match slot {
                            Some(scratch) => {
                                scratch.clone_from(&self.session);
                                scratch
                            }
                            None => slot.insert(self.session.clone()),
                        };
                        scratch.observe(ev);
                        &*scratch
                    }
                };
                let profiler = &self.profiler;
                let planning_demands = &mut rs.planning_demands;
                rs.predicted_buf.extend(
                    learner
                        .predict_sequence_while(session, &mut rs.predict_scratch, |t| {
                            profiler.estimate(t).is_some()
                        })
                        .iter()
                        .map_while(|p| {
                            profiler.estimate(p.event_type).map(|d| {
                                let demand = quantize_demand(d);
                                (
                                    p.event_type,
                                    held_demand(planning_demands, p.event_type, demand),
                                )
                            })
                        }),
                );
            }
            Knowledge::Oracle { window } => rs.predicted_buf.extend(
                self.events
                    .iter()
                    .skip(next)
                    .take(*window)
                    .map(|e| (e.event_type(), e.demand())),
            ),
        }
    }

    /// Solves the window currently held in `rs.items_buf` through the
    /// shape-keyed memo ring.
    ///
    /// The window is first normalised to start at time zero: the solver's
    /// recurrence `start = max(cursor, release)` is shift-invariant, and
    /// clamping a release or deadline that lies before `now` to zero is
    /// exact because the cursor never precedes `now` anyway. The memo then
    /// probes its ring with a fingerprint of the window *shape* — event
    /// count, the quantised demand-class vector and the per-item
    /// release/slack — and revalidates any candidate item-for-item, so a
    /// hit is bit-identical to a cold solve of the posed window. Because
    /// the planner quantises its noisy inputs onto the 1/32 grid *and*
    /// holds them with the [`PLANNING_HYSTERESIS`] band, a
    /// re-planned window of the same interaction burst lands on the same
    /// shape even while the EWMAs drift — the reuse the exact-key ring
    /// never achieved on realistic traces (0 hits on the cnn replay). On a
    /// miss the window is solved anytime with the run-wide
    /// scratch arena — exact when the budget suffices, otherwise the
    /// coarse-time incumbent (never worse than the greedy schedule the
    /// pre-anytime runtime cliff-dropped to) — into the recycled oldest
    /// slot, re-posed in place.
    /// Wide windows (more than [`WIDE_WINDOW_THRESHOLD`] events, the
    /// Oracle's 12-event rounds) use the second budget tier plus the
    /// ε incumbent-quality stop. Returns the number of new search nodes
    /// explored (0 on a hit) plus where the answering solve landed on the
    /// degradation ladder: `Exact` for a completed search, `Anytime` for a
    /// budget-capped incumbent, `Greedy` when the budget was starved to the
    /// floor (≤ 1 node — the incumbent is the greedy seed the coarse-time
    /// search starts from, so a starved solve is never worse than Greedy).
    /// A memo hit reports the tier of the cached solve it served.
    fn solve_window(&mut self, start_us: u64) -> Result<(usize, DegradationLevel), IlpError> {
        let rs = &mut self.rs;
        for item in &mut rs.items_buf {
            item.release_us = item.release_us.saturating_sub(start_us);
            item.deadline_us = item.deadline_us.saturating_sub(start_us);
        }
        let shape = window_shape(
            rs.kinds_buf
                .iter()
                .map(|(_, d)| (d.t_mem().as_micros(), d.ref_cycles().get())),
            rs.items_buf.iter(),
        );
        let node_limit = if rs.items_buf.len() > WIDE_WINDOW_THRESHOLD {
            WIDE_WINDOW_NODE_LIMIT
        } else {
            OPTIMIZER_NODE_LIMIT
        };
        // The serving tier caps the budget before fault starvation: a
        // demoted replay refines a small incumbent (`Anytime`) or takes the
        // greedy seed (`Greedy`); tiers at `Reactive` or worse never reach
        // a solve at all.
        let node_limit = match self.tier {
            DegradationLevel::Exact => node_limit,
            DegradationLevel::Anytime => node_limit.min(ANYTIME_TIER_NODE_CAP),
            _ => 1,
        };
        // Budget starvation injects here, between the tier choice and the
        // solve: a starved budget re-keys the memo lookup (parameters are
        // revalidated), so a starved round never serves a full-budget slot.
        let node_limit = self.fs.starve_budget(node_limit);
        let nodes = match &mut self.shared {
            Some((generation, shard)) => rs.memo.solve_shared(
                &rs.items_buf,
                shape,
                node_limit,
                INCUMBENT_GAP_EPSILON,
                &mut rs.solve_scratch,
                generation,
                shard,
            )?,
            None => rs.memo.solve(
                &rs.items_buf,
                shape,
                node_limit,
                INCUMBENT_GAP_EPSILON,
                &mut rs.solve_scratch,
            )?,
        };
        let level = if node_limit <= 1 {
            DegradationLevel::Greedy
        } else {
            match rs.memo.tier() {
                SolveTier::Exact => DegradationLevel::Exact,
                SolveTier::Incumbent => DegradationLevel::Anytime,
            }
        };
        Ok((nodes, level))
    }

    /// Builds and solves the optimisation window of one prediction round,
    /// refilling `plan` with the speculative schedule. Without an
    /// `outstanding` event the round predicts from event `idx` on; with one
    /// (event `idx`, already triggered) the window starts with it, so
    /// `plan`'s head is its configuration. Returns `(prediction degree,
    /// solver nodes explored)`.
    fn plan_round(&mut self, idx: usize, outstanding: Option<&WebEvent>) -> (usize, usize) {
        self.plan.clear();
        let now = self.engine.cpu_free_at();
        // The window cannot start before the outstanding event's arrival, so
        // anchoring it at `max(now, arrival)` is exact — and it makes the
        // normalised window independent of how early the CPU went idle,
        // which is what gives the solve memoisation its hits.
        let window_start = outstanding.map_or(now, |ev| now.max(ev.arrival()));
        let next = idx + usize::from(outstanding.is_some());
        self.predict_types(next, outstanding);
        // Predictor faults perturb the round after the real predictor ran:
        // confidence corruption truncates it, type flips mispredict items,
        // and demand drift pushes the posed estimates past the hysteresis
        // band the planner holds them with.
        self.fs.corrupt_predictions(&mut self.rs.predicted_buf);
        for slot in self.rs.predicted_buf.iter_mut() {
            slot.1 = self.fs.drift_demand(slot.1);
        }
        if self.rs.predicted_buf.is_empty() && outstanding.is_none() {
            return (0, 0);
        }
        // The hysteresis-held inter-arrival gap (Learned knowledge only):
        // the EWMA drifts every round, the held value only snaps when the
        // drift leaves the tolerance band, so consecutive rounds of one
        // burst pose identical predicted deadlines and the memo ring can
        // revalidate them.
        let held_gap = held_value(
            &mut self.rs.planning_gap_us,
            quantize(self.gap_ewma.as_micros()),
        );
        let learned = self.runtime.learned();
        self.rs.kinds_buf.clear();
        let mut used = 0usize;
        if let Some(ev) = outstanding {
            let estimate = self
                .profiler
                .estimate(ev.event_type())
                .unwrap_or_else(|| ev.demand());
            let demand = if learned {
                let quantized = quantize_demand(estimate);
                held_demand(&mut self.rs.planning_demands, ev.event_type(), quantized)
            } else {
                estimate
            };
            let demand = self.fs.drift_demand(demand);
            let deadline = ev.arrival() + self.engine.qos().target_for_event(ev.event_type());
            self.fill_schedule_item(used, &demand, ev.arrival(), deadline);
            used += 1;
            self.rs.kinds_buf.push((ev.event_type(), demand));
        }
        for k in 0..self.rs.predicted_buf.len() {
            let (event_type, demand) = self.rs.predicted_buf[k];
            let expected_trigger = if learned {
                window_start + TimeUs::from_micros(held_gap * (k as u64 + 1))
            } else {
                self.events.get(next + k).map_or(now, |e| e.arrival())
            };
            let deadline = expected_trigger + self.engine.qos().target_for_event(event_type);
            self.fill_schedule_item(used, &demand, window_start, deadline);
            used += 1;
            self.rs.kinds_buf.push((event_type, demand));
        }
        self.rs.items_buf.truncate(used);
        let degree = self.rs.predicted_buf.len();
        let Ok((nodes, level)) = self.solve_window(window_start.as_micros()) else {
            return (0, 0);
        };
        self.report.degradation.observe(level);
        let configs = self.engine.platform().configs();
        self.plan.extend(
            self.rs
                .kinds_buf
                .iter()
                .zip(self.rs.memo.solution().choices.iter())
                .map(|(&(event_type, demand), &choice)| SpeculativeItem {
                    event_type,
                    demand,
                    config: configs[choice],
                }),
        );
        (degree, nodes)
    }

    /// Writes the schedule item for one event into slot `used` of the run
    /// scratch's window buffers, reusing the slot's allocations. The
    /// per-configuration `(latency, energy)` table is a precomputed ladder
    /// row served through the replay's demand memo (the pre-ladder code
    /// re-derived every power term per configuration per fill, which
    /// dominated the Oracle's per-event cost).
    fn fill_schedule_item(
        &mut self,
        used: usize,
        demand: &CpuDemand,
        release: TimeUs,
        deadline: TimeUs,
    ) {
        let rs = &mut self.rs;
        if used == rs.items_buf.len() {
            rs.items_buf.push(ScheduleItem {
                release_us: 0,
                deadline_us: 0,
                options: Vec::with_capacity(self.engine.platform().configs().len()),
            });
        }
        let item = &mut rs.items_buf[used];
        item.release_us = release.as_micros();
        item.deadline_us = deadline.as_micros();
        let ladder: &DvfsLadder = self.engine.plane();
        let points = rs.ladder_cache.points(ladder, demand);
        item.assign_options(points.iter().map(|p| (p.time.as_micros(), p.energy_uj)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pes_predictor::Trainer;
    use pes_workload::{AppCatalog, TraceGenerator, EVAL_SEED_BASE};

    fn quick_learner(catalog: &AppCatalog) -> EventSequenceLearner {
        Trainer::with_config(pes_predictor::TrainingConfig {
            traces_per_app: 5,
            epochs: 40,
            ..Default::default()
        })
        .train_learner(catalog, LearnerConfig::paper_defaults())
    }

    #[test]
    fn pes_commits_speculative_frames_and_beats_naive_violation_rates() {
        let catalog = AppCatalog::paper_suite();
        let app = catalog.find("cnn").unwrap();
        let page = app.build_page();
        let trace = TraceGenerator::new().generate(app, &page, EVAL_SEED_BASE + 7);
        let platform = Platform::exynos_5410();
        let plane = Arc::new(DvfsLadder::for_platform(&platform));
        let qos = QosPolicy::paper_defaults();

        let pes = PesScheduler::new(quick_learner(&catalog), PesConfig::paper_defaults());
        let report = pes.run_trace_with_plane(&platform, &plane, &page, &trace, &qos);

        assert_eq!(report.events, trace.len());
        assert_eq!(report.outcomes.len(), trace.len());
        assert!(report.predictions > 0, "PES never speculated");
        assert!(
            report.correct_predictions > report.mispredictions,
            "prediction should be mostly correct: {} vs {}",
            report.correct_predictions,
            report.mispredictions
        );
        assert!(report.total_energy.as_millijoules() > 0.0);
        assert!(report.violation_rate() < 0.35);
        assert!(!report.pfb_trace.is_empty());
    }

    #[test]
    fn oracle_has_no_mispredictions_and_near_zero_violations() {
        let catalog = AppCatalog::paper_suite();
        let app = catalog.find("bbc").unwrap();
        let page = app.build_page();
        let trace = TraceGenerator::new().generate(app, &page, EVAL_SEED_BASE + 3);
        let platform = Platform::exynos_5410();
        let plane = Arc::new(DvfsLadder::for_platform(&platform));
        let qos = QosPolicy::paper_defaults();

        let oracle = OracleScheduler::new();
        let report = oracle.run_trace_with_plane(&platform, &plane, &page, &trace, &qos);
        assert_eq!(report.mispredictions, 0);
        assert_eq!(report.waste_energy.as_microjoules(), 0.0);
        assert!(report.prediction_accuracy() > 0.99 || report.predictions == 0);
        assert!(
            report.violation_rate() < 0.1,
            "oracle violation rate {}",
            report.violation_rate()
        );
    }

    #[test]
    fn oracle_uses_no_more_energy_than_pes() {
        let catalog = AppCatalog::paper_suite();
        let app = catalog.find("espn").unwrap();
        let page = app.build_page();
        let trace = TraceGenerator::new().generate(app, &page, EVAL_SEED_BASE + 11);
        let platform = Platform::exynos_5410();
        let plane = Arc::new(DvfsLadder::for_platform(&platform));
        let qos = QosPolicy::paper_defaults();

        let pes = PesScheduler::new(quick_learner(&catalog), PesConfig::paper_defaults());
        let pes_report = pes.run_trace_with_plane(&platform, &plane, &page, &trace, &qos);
        let oracle_report =
            OracleScheduler::new().run_trace_with_plane(&platform, &plane, &page, &trace, &qos);
        assert!(
            oracle_report.total_energy.as_microjoules()
                <= pes_report.total_energy.as_microjoules() * 1.05,
            "oracle {} mJ vs pes {} mJ",
            oracle_report.total_energy.as_millijoules(),
            pes_report.total_energy.as_millijoules()
        );
        // The oracle minimises energy subject to deadlines over fixed-size
        // windows, so a window boundary can occasionally trade one deadline
        // for a large energy saving (observed on this espn trace under the
        // vendored RNG's streams: oracle 1 violation at ~7 J vs PES 0 at
        // ~12 J). Allow exactly that one-violation slack; the energy bound
        // above and the near-zero oracle violation *rate* asserted in
        // `oracle_has_no_mispredictions_and_near_zero_violations` keep the
        // oracle-upper-bound property covered.
        assert!(oracle_report.violations <= pes_report.violations + 1);
    }

    #[test]
    fn a_hundred_percent_threshold_degenerates_to_reactive_behaviour() {
        let catalog = AppCatalog::paper_suite();
        let app = catalog.find("msn").unwrap();
        let page = app.build_page();
        let trace = TraceGenerator::new().generate(app, &page, EVAL_SEED_BASE + 5);
        let platform = Platform::exynos_5410();
        let plane = Arc::new(DvfsLadder::for_platform(&platform));
        let qos = QosPolicy::paper_defaults();

        // With an (unachievable) 100 % cumulative-confidence requirement the
        // predictor cannot predict ahead, so no speculation happens.
        let pes = PesScheduler::new(
            quick_learner(&catalog),
            PesConfig::paper_defaults().with_confidence_threshold(1.0),
        );
        let report = pes.run_trace_with_plane(&platform, &plane, &page, &trace, &qos);
        assert_eq!(report.predictions, 0);
        assert_eq!(report.mispredictions, 0);
        assert_eq!(report.outcomes.len(), trace.len());
    }

    #[test]
    fn shared_memo_replays_are_bit_identical_and_hit_across_replays() {
        use pes_workload::TraceGenerator;

        let catalog = AppCatalog::paper_suite();
        let app = catalog.find("cnn").unwrap();
        let page = app.build_page();
        let platform = Platform::exynos_5410();
        let qos = QosPolicy::paper_defaults();
        let trace = TraceGenerator::new().generate(app, &page, 7);
        let pes = PesScheduler::new(quick_learner(&catalog), PesConfig::paper_defaults());
        let plane = Arc::new(DvfsLadder::for_platform(&platform));
        let baseline = pes.run_trace_with_plane(&platform, &plane, &page, &trace, &qos);

        // Cold shared replay: the empty generation answers nothing, the
        // report must not know the difference, the shard fills up.
        let mut shard = SolveShard::new();
        let cold = pes.run_trace_with_shared_memo(
            &platform,
            &plane,
            &page,
            &trace,
            &qos,
            &FaultPlane::none(),
            &SolveGeneration::empty(),
            &mut shard,
        );
        assert_eq!(cold, baseline, "empty generation must be a no-op");
        assert!(!shard.is_empty(), "cold solves are recorded");
        assert_eq!(shard.shared_hits(), 0);

        // Publish and replay the identical session: still bit-identical,
        // but now the generation answers ring misses.
        let generation = SolveGeneration::publish(&SolveGeneration::empty(), &[shard], 256);
        let mut warm_shard = SolveShard::new();
        let warm = pes.run_trace_with_shared_memo(
            &platform,
            &plane,
            &page,
            &trace,
            &qos,
            &FaultPlane::none(),
            &generation,
            &mut warm_shard,
        );
        assert_eq!(warm, baseline, "generation hits must mirror cold solves");
        assert!(warm_shard.shared_hits() > 0, "replayed windows hit");
        // Cross-replay rate: the generation answers every repeated cold
        // window, so combined reuse beats the ring alone.
        let lookups = warm.solver_cache_hits + warm.solver_cache_misses;
        let combined = warm.solver_cache_hits + warm_shard.shared_hits();
        assert!(
            combined as f64 / lookups as f64 > baseline.solver_cache_hits as f64 / lookups as f64,
            "shared cache must lift the per-replay hit rate"
        );
    }

    #[test]
    fn steady_bursts_hit_the_solve_memoisation_cache() {
        use pes_acmp::units::CpuCycles;
        use pes_webrt::{EventId, WebEvent};
        use pes_workload::Trace;

        let catalog = AppCatalog::paper_suite();
        let app = catalog.find("cnn").unwrap();
        let page = app.build_page();
        let platform = Platform::exynos_5410();
        let plane = Arc::new(DvfsLadder::for_platform(&platform));
        let qos = QosPolicy::paper_defaults();

        // A perfectly steady scroll burst: constant inter-arrival gap and
        // identical demands. The gap EWMA and the demand profile both reach
        // integer fixpoints, so the normalised optimisation window repeats
        // bit-for-bit and re-planned rounds must come from the cache.
        let demand = CpuDemand::new(TimeUs::from_millis(4), CpuCycles::new(120_000_000));
        let events: Vec<WebEvent> = (0..40)
            .map(|i| {
                WebEvent::new(
                    EventId::new(i),
                    EventType::Scroll,
                    None,
                    TimeUs::from_millis(500 * (i + 1)),
                    demand,
                )
            })
            .collect();
        let trace = Trace::from_events("steady burst", 0, events);

        let pes = PesScheduler::new(quick_learner(&catalog), PesConfig::paper_defaults());
        let report = pes.run_trace_with_plane(&platform, &plane, &page, &trace, &qos);
        assert!(
            report.solver_cache_hits > 0,
            "a steady burst should re-plan identical windows from cache \
             (hits {}, rounds {}, events {})",
            report.solver_cache_hits,
            report.prediction_rounds,
            report.events
        );
    }

    #[test]
    fn oracle_windows_land_in_the_wide_budget_tier() {
        // The Oracle plans 12 predicted events (13 items with the
        // outstanding one) — above the wide-window threshold, so its solves
        // run under the second budget tier; PES's learned windows (an
        // outstanding event plus a handful of predictions) stay below it on
        // the full first-tier budget.
        let oracle = OracleScheduler::new();
        let Knowledge::Oracle { window } = &oracle.runtime.knowledge else {
            panic!("oracle knowledge");
        };
        assert!(*window > WIDE_WINDOW_THRESHOLD);
        const {
            assert!(WIDE_WINDOW_NODE_LIMIT < OPTIMIZER_NODE_LIMIT);
            assert!(
                WIDE_WINDOW_NODE_LIMIT >= 10_000,
                "enough budget to beat greedy"
            );
        }
    }

    #[test]
    fn report_helpers_compute_sane_statistics() {
        let report = RunReport {
            policy: "PES".into(),
            app: "x".into(),
            events: 10,
            violations: 2,
            total_energy: EnergyUj::new(1_000.0),
            waste_energy: EnergyUj::new(50.0),
            predictions: 8,
            correct_predictions: 6,
            mispredictions: 2,
            misprediction_waste: vec![TimeUs::from_millis(10), TimeUs::from_millis(30)],
            pfb_trace: vec![(0, 1)],
            prediction_rounds: 2,
            total_prediction_degree: 9,
            outcomes: vec![],
            solver_nodes: 100,
            solver_cache_hits: 4,
            solver_cache_misses: 12,
            solver_cache_revalidations: 5,
            degradation: DegradationTrace::default(),
            fault_injections: FaultCounts::default(),
            energy_breakdown: Vec::new(),
            watchdog_trips: 0,
            final_tier: DegradationLevel::Exact,
        };
        assert!((report.solver_cache_hit_rate() - 0.25).abs() < 1e-12);
        assert!((report.violation_rate() - 0.2).abs() < 1e-12);
        assert!((report.prediction_accuracy() - 0.75).abs() < 1e-12);
        assert!((report.average_waste_ms() - 20.0).abs() < 1e-9);
        assert!((report.average_prediction_degree() - 4.5).abs() < 1e-12);
        assert!((report.waste_energy_fraction() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn the_zero_fault_plane_replay_is_bit_identical() {
        let catalog = AppCatalog::paper_suite();
        let app = catalog.find("cnn").unwrap();
        let page = app.build_page();
        let trace = TraceGenerator::new().generate(app, &page, EVAL_SEED_BASE + 2);
        let platform = Platform::exynos_5410();
        let qos = QosPolicy::paper_defaults();
        let plane = Arc::new(DvfsLadder::for_platform(&platform));

        let pes = PesScheduler::new(quick_learner(&catalog), PesConfig::paper_defaults());
        let plain = pes.run_trace_with_plane(&platform, &plane, &page, &trace, &qos);
        let faulted = pes.run_trace_with_plane_and_faults(
            &platform,
            &plane,
            &page,
            &trace,
            &qos,
            &FaultPlane::none(),
        );
        assert_eq!(plain, faulted, "FaultPlane::none() must be a no-op");
        assert_eq!(plain.fault_injections, FaultCounts::default());
        assert_eq!(plain.degradation.ondemand_floor, 0);
        assert!(
            plain.degradation.decisions() > 0,
            "the ladder records unfaulted replays too"
        );
        // The meter attributes every sample to exactly one activity kind.
        let breakdown: f64 = plain
            .energy_breakdown
            .iter()
            .map(|(_, e)| e.as_microjoules())
            .sum();
        assert!(
            (breakdown - plain.total_energy.as_microjoules()).abs() < 0.5,
            "energy breakdown {} µJ vs total {} µJ",
            breakdown,
            plain.total_energy.as_microjoules()
        );
    }

    #[test]
    fn faulted_replays_are_deterministic_and_complete() {
        use crate::fault::FaultConfig;
        let catalog = AppCatalog::paper_suite();
        let app = catalog.find("cnn").unwrap();
        let page = app.build_page();
        let trace = TraceGenerator::new().generate(app, &page, EVAL_SEED_BASE + 2);
        let platform = Platform::exynos_5410();
        let qos = QosPolicy::paper_defaults();
        let plane = Arc::new(DvfsLadder::for_platform(&platform));
        let faults = FaultPlane::new(FaultConfig {
            seed: 1234,
            prediction_flip: 0.25,
            confidence_corruption: 0.15,
            demand_drift: 0.4,
            drift_magnitude: 0.8,
            solver_starvation: 0.5,
            rung_mask: 0b0011_0000,
            vsync_delay: 0.2,
            queue_duplicate: 0.1,
            queue_drop: 0.1,
        });

        let pes = PesScheduler::new(quick_learner(&catalog), PesConfig::paper_defaults());
        let a =
            pes.run_trace_with_plane_and_faults(&platform, &plane, &page, &trace, &qos, &faults);
        let b =
            pes.run_trace_with_plane_and_faults(&platform, &plane, &page, &trace, &qos, &faults);
        assert_eq!(a, b, "the fault plane must be replayable");
        assert!(a.fault_injections.total() > 0, "faults were scheduled");
        // Queue faults change the delivered sequence; every delivered event
        // still completes with an outcome.
        assert_eq!(a.outcomes.len(), a.events);
        assert_eq!(
            a.events,
            trace.len() - a.fault_injections.dropped_events + a.fault_injections.duplicated_events
        );
    }

    #[test]
    fn forced_reactive_tier_never_speculates() {
        let catalog = AppCatalog::paper_suite();
        let app = catalog.find("cnn").unwrap();
        let page = app.build_page();
        let trace = TraceGenerator::new().generate(app, &page, EVAL_SEED_BASE + 2);
        let platform = Platform::exynos_5410();
        let plane = Arc::new(DvfsLadder::for_platform(&platform));
        let qos = QosPolicy::paper_defaults();

        let pes = PesScheduler::new(
            quick_learner(&catalog),
            PesConfig::paper_defaults().with_forced_tier(DegradationLevel::Reactive),
        );
        let report = pes.run_trace_with_plane(&platform, &plane, &page, &trace, &qos);
        assert_eq!(
            report.predictions, 0,
            "a breaker-routed unit never speculates"
        );
        assert_eq!(report.solver_nodes, 0);
        assert_eq!(report.outcomes.len(), trace.len());
        assert!(report.degradation.reactive > 0);
        assert_eq!(report.final_tier, DegradationLevel::Reactive);
        assert_eq!(report.watchdog_trips, 0);
    }

    #[test]
    fn forced_floor_tier_serves_every_event_at_the_floor() {
        let catalog = AppCatalog::paper_suite();
        let app = catalog.find("cnn").unwrap();
        let page = app.build_page();
        let trace = TraceGenerator::new().generate(app, &page, EVAL_SEED_BASE + 2);
        let platform = Platform::exynos_5410();
        let plane = Arc::new(DvfsLadder::for_platform(&platform));
        let qos = QosPolicy::paper_defaults();

        let pes = PesScheduler::new(
            quick_learner(&catalog),
            PesConfig::paper_defaults().with_forced_tier(DegradationLevel::OndemandFloor),
        );
        let report = pes.run_trace_with_plane(&platform, &plane, &page, &trace, &qos);
        assert_eq!(report.degradation.ondemand_floor, trace.len());
        assert_eq!(report.final_tier, DegradationLevel::OndemandFloor);
    }

    #[test]
    fn watchdog_trips_demote_the_serving_tier() {
        use crate::watchdog::WatchdogConfig;
        let catalog = AppCatalog::paper_suite();
        let app = catalog.find("cnn").unwrap();
        let page = app.build_page();
        let trace = TraceGenerator::new().generate(app, &page, EVAL_SEED_BASE + 2);
        let platform = Platform::exynos_5410();
        let plane = Arc::new(DvfsLadder::for_platform(&platform));
        let qos = QosPolicy::paper_defaults();

        // A five-event budget on a full-length trace must keep tripping and
        // walk the replay down to the floor.
        let pes = PesScheduler::new(
            quick_learner(&catalog),
            PesConfig::paper_defaults().with_watchdog(WatchdogConfig {
                node_budget: 0,
                event_budget: 5,
            }),
        );
        let report = pes.run_trace_with_plane(&platform, &plane, &page, &trace, &qos);
        assert!(
            report.watchdog_trips >= 4,
            "trips: {}",
            report.watchdog_trips
        );
        assert_eq!(report.final_tier, DegradationLevel::OndemandFloor);
        assert!(report.degradation.ondemand_floor > 0);
        assert_eq!(report.outcomes.len(), report.events, "no event is lost");
        // Watchdogged replays stay deterministic.
        let again = pes.run_trace_with_plane(&platform, &plane, &page, &trace, &qos);
        assert_eq!(report, again);
    }

    #[test]
    fn a_node_budget_watchdog_caps_runaway_solves() {
        use crate::watchdog::WatchdogConfig;
        let catalog = AppCatalog::paper_suite();
        let app = catalog.find("cnn").unwrap();
        let page = app.build_page();
        let trace = TraceGenerator::new().generate(app, &page, EVAL_SEED_BASE + 2);
        let platform = Platform::exynos_5410();
        let plane = Arc::new(DvfsLadder::for_platform(&platform));
        let qos = QosPolicy::paper_defaults();

        let unbounded = PesScheduler::new(quick_learner(&catalog), PesConfig::paper_defaults());
        let baseline = unbounded.run_trace_with_plane(&platform, &plane, &page, &trace, &qos);
        assert!(baseline.solver_nodes > 200, "trace exercises the solver");

        let budget = 100;
        let watched = PesScheduler::new(
            quick_learner(&catalog),
            PesConfig::paper_defaults().with_watchdog(WatchdogConfig {
                node_budget: budget,
                event_budget: 0,
            }),
        );
        let report = watched.run_trace_with_plane(&platform, &plane, &page, &trace, &qos);
        assert!(report.watchdog_trips > 0);
        assert!(
            report.solver_nodes < baseline.solver_nodes,
            "demoted tiers must spend fewer nodes ({} vs {})",
            report.solver_nodes,
            baseline.solver_nodes
        );
        assert!(report.final_tier > DegradationLevel::Exact);
    }

    #[test]
    fn starved_solves_degrade_no_worse_than_greedy() {
        use crate::fault::FaultConfig;
        let catalog = AppCatalog::paper_suite();
        let app = catalog.find("cnn").unwrap();
        let page = app.build_page();
        let trace = TraceGenerator::new().generate(app, &page, EVAL_SEED_BASE + 2);
        let platform = Platform::exynos_5410();
        let qos = QosPolicy::paper_defaults();
        let plane = Arc::new(DvfsLadder::for_platform(&platform));
        let faults = FaultPlane::new(FaultConfig {
            seed: 7,
            solver_starvation: 1.0,
            ..FaultConfig::disabled()
        });

        let pes = PesScheduler::new(quick_learner(&catalog), PesConfig::paper_defaults());
        let report =
            pes.run_trace_with_plane_and_faults(&platform, &plane, &page, &trace, &qos, &faults);
        assert!(report.fault_injections.starved_solves > 0);
        // Solve-served rounds land on Exact/Anytime/Greedy only; starvation
        // must never push an optimizer round below Greedy (reactive entries
        // come from profiling warm-up and fallbacks, not from solves).
        let solves =
            report.degradation.exact + report.degradation.anytime + report.degradation.greedy;
        assert!(solves > 0, "starved rounds still produce schedules");
        assert!(
            report.degradation.greedy > 0,
            "full starvation must reach the greedy floor"
        );
        assert_eq!(report.outcomes.len(), report.events);
    }
}
