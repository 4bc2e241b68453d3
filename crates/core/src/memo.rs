//! The per-replay solve-memoisation ring (shape-keyed, revalidated).
//!
//! Every prediction round of a PES/Oracle replay poses one optimisation
//! window and solves it. Consecutive rounds of the same interaction burst
//! pose *almost* the same window — same event kinds, same quantised demand
//! estimates, slack moved by estimation noise — so re-solving from scratch
//! is wasted work. The ring keeps the [`SOLVE_CACHE_SIZE`] most recent
//! windows whole (problem + solution) and answers re-posed windows in two
//! steps:
//!
//! 1. **Shape probe** — each slot stores a 64-bit fingerprint of its
//!    window's *shape*: event count, the demand-class vector and the
//!    per-item slack bands (the planner buckets its gap/slack estimates
//!    onto coarse bands precisely so this shape repeats, see
//!    `crate::runtime`). A lookup compares one `u64` per slot.
//! 2. **Revalidation** — a fingerprint match is a candidate, not an answer:
//!    the slot's normalised items are compared to the posed window
//!    scalar-for-scalar. Only a full match serves the cached
//!    [`ScheduleSolution`], so a hit is **bit-identical to a cold solve of
//!    the same posed window** (solves are deterministic); a fingerprint
//!    collision merely costs the compare.
//!
//! On a miss the ring recycles its oldest slot in place: the evicted slot's
//! problem re-poses itself over the new window through
//! [`ScheduleProblem::rebuild`] — reusing the item slots and solver
//! tables, and sorting each option row in place — and the evicted
//! solution's buffers become the solve target. A steady replay's misses
//! therefore reuse the ring's allocations. [`SolveMemo::reset`] carries
//! the ring from one replay to the next: it forgets every cached window but
//! keeps the slots' buffers, so a worker's later replays re-pose into warm
//! slots too.
//!
//! # The shared cross-replay cache
//!
//! Fleet sweeps replay near-identical sessions under dozens of
//! configurations, so windows recur *across* replays, not just within one.
//! The shared layer extends the ring without touching its contract:
//!
//! * [`SolveShard`] — a private write shard one fleet worker owns for one
//!   batch. Cold solves are recorded into it; nothing reads it during the
//!   batch, so workers never contend. Recording freezes the ring slot into
//!   a compact entry holding only the revalidation key (shape, solve
//!   parameters, flat item rows) and the answer (solution and tier) — not
//!   the solver tables the ring keeps for re-posing.
//! * [`SolveGeneration`] — the read-only published cache. Between batches a
//!   deterministic merge ([`SolveGeneration::publish`]) folds the previous
//!   generation and the batch's shards — **in unit order**, so the result
//!   is independent of thread scheduling — into a new shape-sorted
//!   generation. Shards and generations share the frozen entries by
//!   [`Arc`], so a publish copies pointers, not windows.
//! * [`SolveMemo::solve_shared`] — the ring probe, then the generation
//!   probe, then a cold solve. A generation hit **mirrors the cold-solve
//!   path exactly**: it points the ring's recycled slot at the entry
//!   (copying nothing), counts a ring *miss*, and returns the cached
//!   solve's `nodes_explored` — solves are deterministic, so that count
//!   equals what the dodged solve would have explored. Later ring lookups,
//!   [`SolveMemo::solution`] and [`SolveMemo::tier`] read through the
//!   pointer until a cold solve recycles the slot into its own buffers.
//!   Every downstream consumer (watchdog node charging, `RunReport`
//!   counters, the degradation ladder) therefore observes a bit-identical
//!   replay whether the shared cache is plugged in or not; only wall-clock
//!   time and the shard's own [`SolveShard::shared_hits`] counter differ.
//!
//! # Admission
//!
//! On unique traffic the generation answers almost nothing, yet every cold
//! solve would still be frozen, recorded and folded. So each generation
//! decides at publish time whether it is worth probing, from a hit rate
//! the batch before it measured on a fixed 1-in-[`DORMANT_SAMPLE_EVERY`]
//! slice of window shapes:
//!
//! * A generation published over an empty one is never dormant: its
//!   batch had nothing to hit.
//! * Otherwise it turns **dormant** when the batch's probes of sampled
//!   shapes hit fewer than one time in [`ADMIT_PROBES_PER_HIT`], and keeps
//!   the previous flag when the batch probed no sampled shape.
//! * Under a dormant generation [`SolveMemo::solve_shared`] still counts
//!   every ring miss as a shared lookup, but only sampled shapes probe the
//!   generation and are recorded; every other window takes the plain cold
//!   path, unfrozen. A dormant generation keeps only sampled entries, as
//!   many as the sampled share of a full generation
//!   ([`SolveGeneration::publish`]).
//!
//! The decision reads the sampled slice in both states, and the slice
//! holds about as many entries in both, so the rate measured under a
//! dormant generation predicts what an admitted one would answer: traffic
//! that starts to repeat turns the generation back on, and the unsampled
//! entries it then records keep it on. Skipping a probe *is* the cold
//! path, so the mirror contract above holds either way, and the decision
//! folds order-independent sums, so it does not depend on how many workers
//! ran the batch.

use std::sync::Arc;

use pes_ilp::{
    IlpError, ScheduleItem, ScheduleOption, ScheduleProblem, ScheduleSolution, SolveScratch,
    SolveTier,
};

/// Number of recent windows the per-replay solve memoisation retains.
pub const SOLVE_CACHE_SIZE: usize = 8;

/// Counters the memo ring maintains; exposed per replay through
/// `RunReport` (and aggregated by the experiment layer) so hit rates are
/// observable instead of assumed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups answered from a cached slot (full revalidation passed).
    pub hits: usize,
    /// Lookups that fell through to a solve.
    pub misses: usize,
    /// Candidate slots whose shape fingerprint matched and were therefore
    /// revalidated (counts both outcomes). `revalidations - hits` counts
    /// every rejected candidate: fingerprint collisions between different
    /// windows, and also the same window cached under a different node
    /// limit or incumbent gap.
    pub revalidations: usize,
}

/// One item of a frozen window: its release and deadline, and how many of
/// the entry's flat options belong to it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FrozenRow {
    release_us: u64,
    deadline_us: u64,
    options: usize,
}

/// A window's items as `(release, deadline, options)` rows: either as
/// posed (a caller's window, or a ring slot's own problem) or frozen flat
/// in a [`SharedSolve`].
#[derive(Debug, Clone, Copy)]
enum Rows<'a> {
    Items(&'a [ScheduleItem]),
    Flat(&'a [FrozenRow], &'a [ScheduleOption]),
}

impl<'a> Rows<'a> {
    fn len(self) -> usize {
        match self {
            Rows::Items(items) => items.len(),
            Rows::Flat(rows, _) => rows.len(),
        }
    }

    fn iter(self) -> impl Iterator<Item = (u64, u64, &'a [ScheduleOption])> {
        let (items, rows, mut options): (&[ScheduleItem], &[FrozenRow], &[ScheduleOption]) =
            match self {
                Rows::Items(items) => (items, &[], &[]),
                Rows::Flat(rows, options) => (&[], rows, options),
            };
        items
            .iter()
            .map(|item| (item.release_us, item.deadline_us, item.options.as_slice()))
            .chain(rows.iter().map(move |row| {
                let (own, rest) = options.split_at(row.options);
                options = rest;
                (row.release_us, row.deadline_us, own)
            }))
    }
}

/// The revalidation key of a window: shape, solve parameters (normalised
/// the way [`ScheduleProblem`] stores them) and item rows.
#[derive(Debug, Clone, Copy)]
struct WindowKey<'a> {
    shape: u64,
    node_limit: usize,
    incumbent_gap: f64,
    rows: Rows<'a>,
}

impl<'a> WindowKey<'a> {
    /// The key of a window posed with these solve parameters.
    fn posed(shape: u64, items: &'a [ScheduleItem], node_limit: usize, incumbent_gap: f64) -> Self {
        WindowKey {
            shape,
            node_limit: node_limit.max(1),
            incumbent_gap: incumbent_gap.max(0.0),
            rows: Rows::Items(items),
        }
    }

    /// The one revalidation predicate every cache layer uses — the ring
    /// lookup, the generation lookup, record's dedup and the publish fold:
    /// a solve answers a window only when shape, solve parameters and
    /// normalised items all match. A solve under a different node budget or
    /// incumbent gap may hold a different-quality incumbent for the same
    /// window, so the parameters are part of the key. Equal keys hold
    /// bit-identical solutions (solves are deterministic).
    fn matches(&self, other: &WindowKey<'_>) -> bool {
        self.shape == other.shape
            && self.node_limit == other.node_limit
            && self.incumbent_gap == other.incumbent_gap
            && match (self.rows, other.rows) {
                // Equal flat layouts are equal rows: two slice compares.
                (Rows::Flat(rows, options), Rows::Flat(other_rows, other_options)) => {
                    rows == other_rows && options == other_options
                }
                (rows, other_rows) => {
                    rows.len() == other_rows.len() && rows.iter().eq(other_rows.iter())
                }
            }
    }
}

/// A recorded solve frozen for the shared cache: the revalidation key and
/// the answer, without the solver tables a ring slot keeps for re-posing.
/// Shards, generations and pointer-served ring slots share it by [`Arc`].
#[derive(Debug, Clone, PartialEq)]
struct SharedSolve {
    shape: u64,
    node_limit: usize,
    incumbent_gap: f64,
    tier: SolveTier,
    rows: Vec<FrozenRow>,
    /// Every item's options, concatenated in item order.
    options: Vec<ScheduleOption>,
    solution: ScheduleSolution,
}

impl SharedSolve {
    /// Freezes what `slot` answers with.
    fn freeze(slot: &MemoSlot) -> Self {
        let key = slot.key();
        let mut rows = Vec::with_capacity(key.rows.len());
        let mut options = Vec::with_capacity(key.rows.iter().map(|(_, _, o)| o.len()).sum());
        for (release_us, deadline_us, own) in key.rows.iter() {
            rows.push(FrozenRow {
                release_us,
                deadline_us,
                options: own.len(),
            });
            options.extend_from_slice(own);
        }
        SharedSolve {
            shape: key.shape,
            node_limit: key.node_limit,
            incumbent_gap: key.incumbent_gap,
            tier: slot.tier(),
            rows,
            options,
            solution: slot.solution().clone(),
        }
    }

    fn key(&self) -> WindowKey<'_> {
        WindowKey {
            shape: self.shape,
            node_limit: self.node_limit,
            incumbent_gap: self.incumbent_gap,
            rows: Rows::Flat(&self.rows, &self.options),
        }
    }
}

/// One ring slot: the window's shape fingerprint, the posed problem (whose
/// normalised items, node limit and incumbent gap are the revalidation
/// key, and whose tables the slot recycles on eviction) and its solution —
/// or, after a generation hit, a pointer to the shared entry that answers
/// in their place.
#[derive(Debug, Clone)]
struct MemoSlot {
    shape: u64,
    problem: ScheduleProblem,
    solution: ScheduleSolution,
    /// The tier the slot's solve completed at: a hit serves the cached
    /// solution *and* the tier it was originally solved at, so the
    /// degradation ladder stays truthful across memoised rounds.
    tier: SolveTier,
    /// Set by a generation hit: the entry answers for this slot, and
    /// `problem`/`solution` are stale buffers the next cold solve reuses.
    shared: Option<Arc<SharedSolve>>,
    /// Whether the slot answers lookups: set by a successful solve or a
    /// generation hit, cleared by a failed solve and by
    /// [`SolveMemo::reset`]. A dead slot is only buffers.
    live: bool,
}

impl MemoSlot {
    fn key(&self) -> WindowKey<'_> {
        match &self.shared {
            Some(entry) => entry.key(),
            None => WindowKey {
                shape: self.shape,
                node_limit: self.problem.node_limit(),
                incumbent_gap: self.problem.incumbent_gap(),
                rows: Rows::Items(self.problem.items()),
            },
        }
    }

    fn solution(&self) -> &ScheduleSolution {
        self.shared.as_ref().map_or(&self.solution, |e| &e.solution)
    }

    fn tier(&self) -> SolveTier {
        self.shared.as_ref().map_or(self.tier, |e| e.tier)
    }
}

/// The shape-keyed solve-memoisation ring. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct SolveMemo {
    slots: Vec<MemoSlot>,
    /// Next slot to recycle on a miss.
    cursor: usize,
    /// Slot holding the window solved (or found) most recently.
    current: usize,
    stats: MemoStats,
}

/// Default number of cold solves one [`SolveShard`] retains per replay.
pub const SHARD_CAP: usize = 32;

/// Admission threshold: a generation published over a non-empty one goes
/// dormant when the batch's probes of sampled shapes hit fewer than one
/// time in this many (see the module docs).
pub const ADMIT_PROBES_PER_HIT: usize = 16;

/// The admission sample: one window shape in this many. A dormant
/// generation is probed, and recorded into, by sampled shapes only.
pub const DORMANT_SAMPLE_EVERY: u64 = 16;

/// Whether `shape` lies in the fixed slice of shapes a dormant generation
/// still probes and records. The shape is folded with its own top bits and
/// multiplied, and the slice is read from the product's high half, so it
/// does not follow any one input bit.
fn sampled(shape: u64) -> bool {
    let mixed = (shape ^ (shape >> 32)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (mixed >> 32).is_multiple_of(DORMANT_SAMPLE_EVERY)
}

/// A fleet worker's private write shard for one batch: cold solves are
/// recorded here (bounded by a cap, deduplicated by revalidation key) and
/// folded into the next [`SolveGeneration`] by the publish phase. The shard
/// also carries the worker's shared-cache counters, keeping them out of
/// `RunReport` — a replay's report stays byte-identical with or without
/// the shared cache plugged in.
#[derive(Debug, Clone)]
pub struct SolveShard {
    /// The recorded solves, frozen; publishing shares them with the
    /// generation by pointer.
    entries: Vec<Arc<SharedSolve>>,
    cap: usize,
    shared_hits: usize,
    shared_lookups: usize,
    shared_probes: usize,
    /// Probes and hits of windows in the dormant sample, in either state:
    /// the admission decision reads these.
    sample_probes: usize,
    sample_hits: usize,
}

impl Default for SolveShard {
    fn default() -> Self {
        SolveShard::new()
    }
}

impl SolveShard {
    /// An empty shard retaining up to [`SHARD_CAP`] cold solves.
    pub fn new() -> Self {
        SolveShard::with_capacity(SHARD_CAP)
    }

    /// An empty shard retaining up to `cap` cold solves.
    pub fn with_capacity(cap: usize) -> Self {
        SolveShard {
            entries: Vec::new(),
            cap,
            shared_hits: 0,
            shared_lookups: 0,
            shared_probes: 0,
            sample_probes: 0,
            sample_hits: 0,
        }
    }

    /// Number of entries held for the next publish: the cold solves
    /// recorded so far, and the entries a dormant generation answered with.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the shard holds nothing for the next publish.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Ring misses answered by the shared generation through this shard.
    pub fn shared_hits(&self) -> usize {
        self.shared_hits
    }

    /// Ring misses that reached the shared layer through this shard, probe
    /// or not (`shared_lookups - shared_hits` fell through to a cold
    /// solve).
    pub fn shared_lookups(&self) -> usize {
        self.shared_lookups
    }

    /// Shared lookups that actually probed the generation: all of them
    /// under an admitted generation, the sampled slice under a dormant one.
    pub fn probes(&self) -> usize {
        self.shared_probes
    }

    /// Records a cold solve. The ring recycles its slots, so the slot is
    /// frozen once here (key and answer only); from then on the entry
    /// travels by pointer. Full shards and re-solves of an already-recorded
    /// window (the ring evicts, the shard remembers) are dropped.
    fn record(&mut self, slot: &MemoSlot) {
        let key = slot.key();
        if self.entries.len() >= self.cap || self.entries.iter().any(|e| e.key().matches(&key)) {
            return;
        }
        self.entries.push(Arc::new(SharedSolve::freeze(slot)));
    }

    /// Holds an entry a dormant generation answered with. The fleet
    /// publishes only after a batch whose shards hold something, and a
    /// dormant generation turns back on only at a publish, so a batch
    /// whose sampled probes all hit must still publish. The fold drops the
    /// entry again as a duplicate of the generation's own.
    fn share(&mut self, entry: &Arc<SharedSolve>) {
        if self.entries.len() < self.cap && !self.entries.iter().any(|e| Arc::ptr_eq(e, entry)) {
            self.entries.push(Arc::clone(entry));
        }
    }
}

/// The published read-only cross-replay cache: one immutable generation,
/// shape-sorted for binary-search probes, shared by every worker of the
/// following batch. See the module docs for the lifecycle.
#[derive(Debug, Clone, Default)]
pub struct SolveGeneration {
    /// `entries[i].shape`, kept inline so binary-search probes never chase
    /// an entry pointer.
    shapes: Vec<u64>,
    /// Sorted by `shape`; ties keep fold order (previous generation first,
    /// then shards in unit order), so the first revalidated match is
    /// deterministic. Shared with the shards and generations they came
    /// from (and with the ring slots they answer for), never copied.
    entries: Vec<Arc<SharedSolve>>,
    /// Set by [`SolveGeneration::publish`] when the batch before hit too
    /// rarely: only sampled shapes probe and record (module docs,
    /// "Admission").
    dormant: bool,
}

impl SolveGeneration {
    /// The empty generation (every probe misses).
    pub const fn empty() -> Self {
        SolveGeneration {
            shapes: Vec::new(),
            entries: Vec::new(),
            dormant: false,
        }
    }

    /// Number of published entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the generation holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether only the sampled slice of window shapes probes and records
    /// under this generation (module docs, "Admission").
    pub fn is_dormant(&self) -> bool {
        self.dormant
    }

    /// Folds the previous generation and a batch's shards into the next
    /// generation. Deterministic by construction: entries are taken in
    /// fold order (the previous generation in its shape-sorted order, then
    /// `shards` in the order given — callers pass unit order, never
    /// thread-completion order), deduplicated by revalidation key (first
    /// occurrence wins; duplicates hold identical solutions anyway), cut to
    /// the **last** `cap` entries of that fold order, and stably sorted by
    /// shape. The cut therefore evicts survivors of the previous generation
    /// first, lowest shape first (they enter the fold shape-sorted, not by
    /// age), and only then the earliest shards' entries.
    ///
    /// The entries themselves are shared by pointer, never copied. The
    /// previous generation is already sorted and free of duplicates, so
    /// only the shards' entries are sorted; they are checked against the
    /// previous generation by binary search and merged into its surviving
    /// tail in one pass.
    ///
    /// The new generation is dormant when `prev` is non-empty and the
    /// shards' probes of sampled shapes hit fewer than one time in
    /// [`ADMIT_PROBES_PER_HIT`]; shards that probed no sampled shape keep
    /// `prev`'s flag. A dormant generation is only ever probed by sampled
    /// shapes, so its fold keeps only those, cut to `cap /`
    /// [`DORMANT_SAMPLE_EVERY`] (at least one): the share of a full
    /// generation the sample would hold. Its sampled hit rate then
    /// estimates what an admitted generation would answer.
    pub fn publish(prev: &SolveGeneration, shards: &[SolveShard], cap: usize) -> SolveGeneration {
        let (hits, probes) = shards
            .iter()
            .fold((0, 0), |(h, p), s| (h + s.sample_hits, p + s.sample_probes));
        let dormant = match (prev.is_empty(), probes) {
            (true, _) => false,
            (false, 0) => prev.dormant,
            (false, _) => hits * ADMIT_PROBES_PER_HIT < probes,
        };
        let (keep, cap): (fn(u64) -> bool, usize) = if dormant {
            (sampled, (cap / DORMANT_SAMPLE_EVERY as usize).max(1))
        } else {
            (|_| true, cap)
        };
        let fresh: Vec<&Arc<SharedSolve>> = shards
            .iter()
            .flat_map(|s| s.entries.iter())
            .filter(|e| keep(e.shape))
            .collect();
        // Stable, so each equal-shape run stays in fold order and the first
        // kept copy of a key is its first occurrence.
        let mut order: Vec<usize> = (0..fresh.len()).collect();
        order.sort_by_key(|&i| fresh[i].shape);
        let mut kept: Vec<usize> = Vec::with_capacity(order.len());
        let mut run_start = 0;
        for i in order {
            let candidate = fresh[i].key();
            if kept
                .last()
                .is_some_and(|&k| fresh[k].shape != candidate.shape)
            {
                run_start = kept.len();
            }
            // A previous entry with the candidate's key has its shape, so
            // `keep` kept it too.
            if prev.lookup(&candidate).is_none()
                && !kept[run_start..]
                    .iter()
                    .any(|&k| fresh[k].key().matches(&candidate))
            {
                kept.push(i);
            }
        }
        // The cut drops the fold order's head: the previous generation's
        // lowest kept shapes first, then the shards' earliest entries.
        let old = || {
            prev.shapes
                .iter()
                .zip(&prev.entries)
                .filter(|(&shape, _)| keep(shape))
        };
        let old_len = old().count();
        let cut = (old_len + kept.len()).saturating_sub(cap);
        let fresh_cut = cut.saturating_sub(old_len);
        if fresh_cut > 0 {
            let mut by_fold = kept.clone();
            by_fold.sort_unstable();
            let first_kept = by_fold.get(fresh_cut).map_or(usize::MAX, |&i| i);
            kept.retain(|&i| i >= first_kept);
        }
        // Merge the two shape-sorted runs; on equal shapes the previous
        // generation comes first, as in fold order.
        let mut shapes = Vec::with_capacity(old_len - cut.min(old_len) + kept.len());
        let mut entries = Vec::with_capacity(shapes.capacity());
        let mut push = |shape: u64, entry: &Arc<SharedSolve>| {
            shapes.push(shape);
            entries.push(Arc::clone(entry));
        };
        let mut old = old().skip(cut).peekable();
        for &i in &kept {
            while let Some((&shape, entry)) = old.next_if(|(&s, _)| s <= fresh[i].shape) {
                push(shape, entry);
            }
            push(fresh[i].shape, fresh[i]);
        }
        old.for_each(|(&shape, entry)| push(shape, entry));
        SolveGeneration {
            shapes,
            entries,
            dormant,
        }
    }

    /// The entry answering the posed window, if any: binary search over
    /// the inline shapes to the shape's run, then full revalidation — the
    /// same predicate as the ring's, so a generation hit is bit-identical
    /// to the cold solve it replaces.
    fn lookup(&self, posed: &WindowKey<'_>) -> Option<&Arc<SharedSolve>> {
        let start = self.shapes.partition_point(|&s| s < posed.shape);
        let run = self.shapes[start..]
            .iter()
            .take_while(|&&s| s == posed.shape)
            .count();
        self.entries[start..start + run]
            .iter()
            .find(|e| e.key().matches(posed))
    }
}

/// FNV-1a over the solver-relevant window shape: event count, then per item
/// the demand class (the planner's quantised `(t_mem, ref_cycles)` pair,
/// passed in by the caller as an opaque `(u64, u64)`) and the normalised
/// release/deadline (slack band). Collisions are harmless — the ring
/// revalidates — so a fast non-cryptographic mix is the right trade.
pub fn window_shape<'a>(
    demand_classes: impl Iterator<Item = (u64, u64)>,
    items: impl Iterator<Item = &'a ScheduleItem>,
) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        hash ^= v;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    };
    let mut n = 0u64;
    for ((t_mem, cycles), item) in demand_classes.zip(items) {
        mix(t_mem);
        mix(cycles);
        mix(item.release_us);
        mix(item.deadline_us);
        n += 1;
    }
    mix(n);
    hash
}

impl SolveMemo {
    /// Creates an empty ring (slots are allocated on first use).
    pub fn new() -> Self {
        SolveMemo::default()
    }

    /// The counters so far.
    pub fn stats(&self) -> MemoStats {
        self.stats
    }

    /// The solution of the most recent [`SolveMemo::solve`] — either the
    /// revalidated cached solution or the fresh solve's result.
    pub fn solution(&self) -> &ScheduleSolution {
        self.slots[self.current].solution()
    }

    /// The [`SolveTier`] the most recent [`SolveMemo::solve`] completed at.
    /// A hit reports the tier of the cached solve it served (hits are
    /// bit-identical to that solve, quality tier included).
    pub fn tier(&self) -> SolveTier {
        self.slots[self.current].tier()
    }

    /// Answers the posed window `items` (already normalised to start at
    /// time zero and bucketed by the planner) from the ring, solving it
    /// anytime into the recycled oldest slot on a miss. `shape` is the
    /// window's [`window_shape`] fingerprint. Returns the number of new
    /// search nodes explored (0 on a hit); the schedule is read via
    /// [`SolveMemo::solution`].
    ///
    /// # Errors
    ///
    /// Propagates [`IlpError`] from the anytime solve (empty windows); the
    /// ring never serves a half-filled slot afterwards.
    pub fn solve(
        &mut self,
        items: &[ScheduleItem],
        shape: u64,
        node_limit: usize,
        incumbent_gap: f64,
        scratch: &mut SolveScratch,
    ) -> Result<usize, IlpError> {
        if let Some(slot) = self.lookup(&WindowKey::posed(shape, items, node_limit, incumbent_gap))
        {
            self.stats.hits += 1;
            self.current = slot;
            return Ok(0);
        }
        self.solve_cold(items, shape, node_limit, incumbent_gap, scratch)
    }

    /// [`SolveMemo::solve`] with the shared cross-replay cache plugged in
    /// between the ring probe and the cold solve. A `shared` generation hit
    /// mirrors the cold path — the recycled ring slot points at the entry,
    /// a ring miss is counted, the cached `nodes_explored` is returned — so
    /// the replay is bit-identical to one without the shared cache (see
    /// the module docs). Cold solves are recorded into `shard` for the
    /// next publish. Under a dormant generation only the sampled slice of
    /// shapes probes and records; the rest solve cold straight away.
    ///
    /// # Errors
    ///
    /// Propagates [`IlpError`] exactly as [`SolveMemo::solve`] does; failed
    /// poses are recorded nowhere.
    #[allow(clippy::too_many_arguments)]
    pub fn solve_shared(
        &mut self,
        items: &[ScheduleItem],
        shape: u64,
        node_limit: usize,
        incumbent_gap: f64,
        scratch: &mut SolveScratch,
        shared: &SolveGeneration,
        shard: &mut SolveShard,
    ) -> Result<usize, IlpError> {
        let posed = WindowKey::posed(shape, items, node_limit, incumbent_gap);
        if let Some(slot) = self.lookup(&posed) {
            self.stats.hits += 1;
            self.current = slot;
            return Ok(0);
        }
        shard.shared_lookups += 1;
        let in_sample = sampled(shape);
        if shared.dormant && !in_sample {
            return self.solve_cold(items, shape, node_limit, incumbent_gap, scratch);
        }
        shard.shared_probes += 1;
        shard.sample_probes += usize::from(in_sample);
        if let Some(entry) = shared.lookup(&posed) {
            shard.shared_hits += 1;
            shard.sample_hits += usize::from(in_sample);
            if shared.dormant {
                shard.share(entry);
            }
            // Mirror the cold-solve path: same miss count, same ring slot
            // rotation, same returned node count. The ring evolves exactly
            // as if the solve had run; the slot answers through the pointer.
            self.stats.misses += 1;
            self.ensure_slots();
            let nodes = entry.solution.nodes_explored;
            let slot = &mut self.slots[self.cursor];
            slot.shape = shape;
            slot.shared = Some(Arc::clone(entry));
            slot.live = true;
            self.current = self.cursor;
            self.cursor = (self.cursor + 1) % SOLVE_CACHE_SIZE;
            return Ok(nodes);
        }
        let nodes = self.solve_cold(items, shape, node_limit, incumbent_gap, scratch)?;
        shard.record(&self.slots[self.current]);
        Ok(nodes)
    }

    /// Forgets every cached window and counter while keeping every
    /// allocation: the stats and cursors return to zero, no slot answers a
    /// lookup until a later solve writes it, and pointer-served slots drop
    /// their shared entries, so an idle ring never pins a retired
    /// generation. A reset memo behaves exactly like [`SolveMemo::new`].
    pub fn reset(&mut self) {
        for slot in &mut self.slots {
            slot.live = false;
            slot.shared = None;
        }
        self.cursor = 0;
        self.current = 0;
        self.stats = MemoStats::default();
    }

    /// Lazily sizes the ring. Dead slots never answer, so pre-sizing once
    /// keeps the steady state allocation-free.
    fn ensure_slots(&mut self) {
        if self.slots.is_empty() {
            self.slots.resize_with(SOLVE_CACHE_SIZE, || MemoSlot {
                shape: 0,
                problem: ScheduleProblem::new(0, Vec::new()),
                solution: ScheduleSolution::default(),
                tier: SolveTier::Exact,
                shared: None,
                live: false,
            });
        }
    }

    /// The shared miss path: recycles the oldest slot, re-poses and solves
    /// the window into it. Counts the miss.
    fn solve_cold(
        &mut self,
        items: &[ScheduleItem],
        shape: u64,
        node_limit: usize,
        incumbent_gap: f64,
        scratch: &mut SolveScratch,
    ) -> Result<usize, IlpError> {
        self.stats.misses += 1;
        self.ensure_slots();
        let slot = &mut self.slots[self.cursor];
        slot.shared = None;
        slot.problem.rebuild(0, items);
        slot.problem.set_node_limit(node_limit);
        slot.problem.set_incumbent_gap(incumbent_gap);
        slot.shape = shape;
        match slot.problem.solve_anytime_with(scratch, &mut slot.solution) {
            Ok(tier) => {
                slot.tier = tier;
                slot.live = true;
            }
            Err(e) => {
                // Never let a half-filled slot answer a future lookup.
                slot.live = false;
                return Err(e);
            }
        }
        let nodes = slot.solution.nodes_explored;
        self.current = self.cursor;
        self.cursor = (self.cursor + 1) % SOLVE_CACHE_SIZE;
        Ok(nodes)
    }

    /// The slot index answering the posed window, if any: shape probe
    /// first, full revalidation ([`WindowKey::matches`]) on live
    /// candidates, pointer-served slots included.
    fn lookup(&mut self, posed: &WindowKey<'_>) -> Option<usize> {
        for (idx, slot) in self.slots.iter().enumerate() {
            if !slot.live || slot.shape != posed.shape {
                continue;
            }
            self.stats.revalidations += 1;
            let key = slot.key();
            if key.matches(posed) {
                return Some(idx);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(slack: u64) -> Vec<ScheduleItem> {
        (0..4u64)
            .map(|i| ScheduleItem {
                release_us: 0,
                deadline_us: (i + 1) * 150_000 + slack,
                options: (0..17)
                    .map(|j| ScheduleOption {
                        choice: j,
                        duration_us: 140_000 - j as u64 * 5_000,
                        cost: 1.0 + 0.3 * (j as f64).powf(1.5),
                    })
                    .collect(),
            })
            .collect()
    }

    fn shape_of(items: &[ScheduleItem]) -> u64 {
        window_shape(items.iter().map(|_| (7, 11)), items.iter())
    }

    #[test]
    fn repeat_windows_hit_and_match_a_cold_solve() {
        let items = window(50_000);
        let shape = shape_of(&items);
        let mut memo = SolveMemo::new();
        let mut scratch = SolveScratch::new();
        let nodes = memo
            .solve(&items, shape, 200_000, 0.0, &mut scratch)
            .unwrap();
        assert!(nodes > 0);
        let cold = memo.solution().clone();
        let again = memo
            .solve(&items, shape, 200_000, 0.0, &mut scratch)
            .unwrap();
        assert_eq!(again, 0, "second pose must be a hit");
        assert_eq!(*memo.solution(), cold);
        assert_eq!(memo.stats().hits, 1);
        assert_eq!(memo.stats().misses, 1);
        assert_eq!(memo.stats().revalidations, 1);
    }

    #[test]
    fn colliding_shapes_revalidate_and_fall_through() {
        let a = window(50_000);
        let b = window(90_000);
        let shape = 0x1234_5678_9abc_def0; // deliberately shared
        let mut memo = SolveMemo::new();
        let mut scratch = SolveScratch::new();
        memo.solve(&a, shape, 200_000, 0.0, &mut scratch).unwrap();
        let nodes = memo.solve(&b, shape, 200_000, 0.0, &mut scratch).unwrap();
        assert!(nodes > 0, "a collision must fall through to a solve");
        assert_eq!(memo.stats().hits, 0);
        assert_eq!(memo.stats().revalidations, 1);
        // A cold memo solves `b` to the identical solution.
        let mut cold = SolveMemo::new();
        cold.solve(&b, shape, 200_000, 0.0, &mut scratch).unwrap();
        assert_eq!(*cold.solution(), *memo.solution());
    }

    #[test]
    fn ring_recycles_and_errors_never_poison_slots() {
        let mut memo = SolveMemo::new();
        let mut scratch = SolveScratch::new();
        assert!(memo.solve(&[], 0, 200_000, 0.0, &mut scratch).is_err());
        // The failed pose must not be served as a hit for an empty window.
        assert!(memo.solve(&[], 0, 200_000, 0.0, &mut scratch).is_err());
        // Wrap the ring and revisit the first window: it was evicted, so it
        // must be re-solved (a miss), to the same solution.
        let first = window(10_000);
        memo.solve(&first, shape_of(&first), 200_000, 0.0, &mut scratch)
            .unwrap();
        let sol_first = memo.solution().clone();
        for k in 0..SOLVE_CACHE_SIZE as u64 {
            let w = window(20_000 + k * 7_000);
            memo.solve(&w, shape_of(&w), 200_000, 0.0, &mut scratch)
                .unwrap();
        }
        let hits_before = memo.stats().hits;
        memo.solve(&first, shape_of(&first), 200_000, 0.0, &mut scratch)
            .unwrap();
        assert_eq!(memo.stats().hits, hits_before, "evicted windows miss");
        assert_eq!(*memo.solution(), sol_first);
    }

    #[test]
    fn different_solve_parameters_never_reuse_a_slot() {
        // The same window posed under a different node budget or incumbent
        // gap may legitimately solve to a different-quality incumbent, so a
        // cached slot only answers calls with the parameters it was solved
        // under.
        let items = window(50_000);
        let shape = shape_of(&items);
        let mut memo = SolveMemo::new();
        let mut scratch = SolveScratch::new();
        memo.solve(&items, shape, 5_000, 0.0, &mut scratch).unwrap();
        let budget_nodes = memo
            .solve(&items, shape, 200_000, 0.0, &mut scratch)
            .unwrap();
        assert!(budget_nodes > 0, "a larger budget must re-solve, not reuse");
        let gap_nodes = memo
            .solve(&items, shape, 200_000, 0.01, &mut scratch)
            .unwrap();
        assert!(gap_nodes > 0, "a different gap must re-solve, not reuse");
        let hit_nodes = memo
            .solve(&items, shape, 200_000, 0.01, &mut scratch)
            .unwrap();
        assert_eq!(hit_nodes, 0, "matching parameters hit");
    }

    #[test]
    fn reset_forgets_every_window_and_releases_shared_entries() {
        let items = window(50_000);
        let shape = shape_of(&items);
        let mut scratch = SolveScratch::new();
        let mut shard = SolveShard::new();
        let mut memo = SolveMemo::new();
        memo.solve_shared(
            &items,
            shape,
            200_000,
            0.0,
            &mut scratch,
            &SolveGeneration::empty(),
            &mut shard,
        )
        .unwrap();
        let generation = SolveGeneration::publish(&SolveGeneration::empty(), &[shard], 64);
        // `other` solves cold; `items` is served through the generation's
        // pointer.
        let other = window(90_000);
        let mut warm = SolveMemo::new();
        for posed in [&other, &items] {
            warm.solve_shared(
                posed,
                shape_of(posed),
                200_000,
                0.0,
                &mut scratch,
                &generation,
                &mut SolveShard::new(),
            )
            .unwrap();
        }
        assert_eq!(Arc::strong_count(&generation.entries[0]), 2);
        warm.reset();
        assert_eq!(
            Arc::strong_count(&generation.entries[0]),
            1,
            "a reset ring must not pin shared entries"
        );
        // After the reset the ring answers exactly like a fresh one: both
        // windows miss, to the same solutions and counters.
        let mut fresh = SolveMemo::new();
        for posed in [&items, &other, &items] {
            let warm_nodes = warm
                .solve(posed, shape_of(posed), 200_000, 0.0, &mut scratch)
                .unwrap();
            let fresh_nodes = fresh
                .solve(posed, shape_of(posed), 200_000, 0.0, &mut scratch)
                .unwrap();
            assert_eq!(warm_nodes, fresh_nodes);
            assert_eq!(*warm.solution(), *fresh.solution());
            assert_eq!(warm.tier(), fresh.tier());
            assert_eq!(warm.stats(), fresh.stats());
        }
        assert_eq!(warm.stats().misses, 2, "a reset ring serves nothing old");
    }

    #[test]
    fn shared_generation_hits_mirror_the_cold_solve() {
        let items = window(50_000);
        let shape = shape_of(&items);
        let mut scratch = SolveScratch::new();
        // Worker A solves cold into its shard.
        let mut memo_a = SolveMemo::new();
        let mut shard_a = SolveShard::new();
        let cold_nodes = memo_a
            .solve_shared(
                &items,
                shape,
                200_000,
                0.0,
                &mut scratch,
                &SolveGeneration::empty(),
                &mut shard_a,
            )
            .unwrap();
        assert!(cold_nodes > 0);
        assert_eq!(shard_a.len(), 1);
        assert_eq!(shard_a.shared_lookups(), 1);
        assert_eq!(shard_a.shared_hits(), 0);
        let cold_solution = memo_a.solution().clone();
        // Publish, then worker B replays the same window next batch.
        let generation = SolveGeneration::publish(&SolveGeneration::empty(), &[shard_a], 64);
        assert_eq!(generation.len(), 1);
        let mut memo_b = SolveMemo::new();
        let mut shard_b = SolveShard::new();
        let hit_nodes = memo_b
            .solve_shared(
                &items,
                shape,
                200_000,
                0.0,
                &mut scratch,
                &generation,
                &mut shard_b,
            )
            .unwrap();
        // The mirror contract: same node count, same solution, a ring
        // *miss* on the stats, nothing recorded into B's shard.
        assert_eq!(hit_nodes, cold_nodes);
        assert_eq!(*memo_b.solution(), cold_solution);
        assert_eq!(memo_b.stats().hits, 0);
        assert_eq!(memo_b.stats().misses, 1);
        assert_eq!(shard_b.shared_hits(), 1);
        assert!(shard_b.is_empty());
        // The entry landed in B's ring: a plain re-pose is a local hit.
        let local = memo_b
            .solve(&items, shape, 200_000, 0.0, &mut scratch)
            .unwrap();
        assert_eq!(local, 0);
        assert_eq!(memo_b.stats().hits, 1);
    }

    #[test]
    fn publish_deduplicates_and_stays_deterministic() {
        let a = window(50_000);
        let b = window(90_000);
        let mut scratch = SolveScratch::new();
        let empty = SolveGeneration::empty();
        let mut shard_one = SolveShard::new();
        let mut shard_two = SolveShard::new();
        for (shard, seq) in [(&mut shard_one, [&a, &b]), (&mut shard_two, [&b, &a])] {
            let mut memo = SolveMemo::new();
            for items in seq {
                memo.solve_shared(
                    items,
                    shape_of(items),
                    200_000,
                    0.0,
                    &mut scratch,
                    &empty,
                    shard,
                )
                .unwrap();
            }
        }
        // Both shards hold both windows; the fold keeps one copy of each.
        let gen1 = SolveGeneration::publish(&empty, &[shard_one.clone(), shard_two.clone()], 64);
        assert_eq!(gen1.len(), 2);
        // Republishing the same entries over the previous generation adds
        // nothing new, and the same inputs fold to the same generation. The
        // shards' probe counters are cleared: four misses and no hit would
        // publish a dormant generation (see the admission tests below).
        let entries_only = |shard: &SolveShard| SolveShard {
            entries: shard.entries.clone(),
            ..SolveShard::new()
        };
        let gen2 = SolveGeneration::publish(
            &gen1,
            &[entries_only(&shard_one), entries_only(&shard_two)],
            64,
        );
        assert!(!gen2.is_dormant());
        assert_eq!(gen2.len(), 2);
        // The empty publish is the empty generation.
        assert!(SolveGeneration::publish(&empty, &[], 64).is_empty());
        assert!(SolveGeneration::publish(&empty, &[SolveShard::new()], 64).is_empty());
    }

    #[test]
    fn generation_cap_rotates_the_oldest_entries_out() {
        let mut scratch = SolveScratch::new();
        let empty = SolveGeneration::empty();
        let mut shard = SolveShard::new();
        let mut memo = SolveMemo::new();
        let windows: Vec<Vec<ScheduleItem>> = (0..3).map(|k| window(10_000 + k * 7_000)).collect();
        for items in &windows {
            memo.solve_shared(
                items,
                shape_of(items),
                200_000,
                0.0,
                &mut scratch,
                &empty,
                &mut shard,
            )
            .unwrap();
        }
        assert_eq!(shard.len(), 3);
        let capped = SolveGeneration::publish(&empty, &[shard], 2);
        assert_eq!(capped.len(), 2, "cap bounds the generation");
        // With no previous generation, fold order is record order: the
        // newest two survive and the oldest window misses.
        let oldest = &windows[0];
        assert!(capped
            .lookup(&WindowKey::posed(shape_of(oldest), oldest, 200_000, 0.0))
            .is_none());
        let newest = &windows[2];
        assert!(capped
            .lookup(&WindowKey::posed(shape_of(newest), newest, 200_000, 0.0))
            .is_some());
    }

    #[test]
    fn shared_lookups_revalidate_solve_parameters() {
        let items = window(50_000);
        let shape = shape_of(&items);
        let mut scratch = SolveScratch::new();
        let mut shard = SolveShard::new();
        let mut memo = SolveMemo::new();
        memo.solve_shared(
            &items,
            shape,
            5_000,
            0.0,
            &mut scratch,
            &SolveGeneration::empty(),
            &mut shard,
        )
        .unwrap();
        let generation = SolveGeneration::publish(&SolveGeneration::empty(), &[shard], 64);
        // Same window, bigger budget: the published entry must not answer.
        let mut fresh = SolveMemo::new();
        let mut probe = SolveShard::new();
        fresh
            .solve_shared(
                &items,
                shape,
                200_000,
                0.0,
                &mut scratch,
                &generation,
                &mut probe,
            )
            .unwrap();
        assert_eq!(probe.shared_lookups(), 1);
        assert_eq!(probe.shared_hits(), 0, "parameter mismatch falls through");
        assert_eq!(probe.len(), 1, "the cold solve is recorded");
    }

    #[test]
    fn hits_serve_the_tier_of_the_cached_solve() {
        let items = window(50_000);
        let shape = shape_of(&items);
        let mut memo = SolveMemo::new();
        let mut scratch = SolveScratch::new();
        // Starved to one node: the incumbent (greedy seed) answers.
        memo.solve(&items, shape, 1, 0.0, &mut scratch).unwrap();
        assert_eq!(memo.tier(), SolveTier::Incumbent);
        let hit = memo.solve(&items, shape, 1, 0.0, &mut scratch).unwrap();
        assert_eq!(hit, 0, "starved re-pose hits");
        assert_eq!(memo.tier(), SolveTier::Incumbent, "hit repeats its tier");
        // A full-budget solve of the same window lands in a fresh slot at
        // the exact tier.
        memo.solve(&items, shape, 200_000, 0.0, &mut scratch)
            .unwrap();
        assert_eq!(memo.tier(), SolveTier::Exact);
    }

    /// The quadratic fold `publish` replaced, kept as its oracle: scan
    /// every kept entry per candidate, deep-copy the survivors, cut to the
    /// fold-order suffix, sort. A `dormant` fold keeps only sampled shapes
    /// and cuts to `cap / DORMANT_SAMPLE_EVERY` (at least one).
    fn publish_reference(
        prev: &SolveGeneration,
        shards: &[SolveShard],
        cap: usize,
        dormant: bool,
    ) -> SolveGeneration {
        let cap = if dormant {
            (cap / DORMANT_SAMPLE_EVERY as usize).max(1)
        } else {
            cap
        };
        let mut merged: Vec<Arc<SharedSolve>> = Vec::new();
        let candidates = prev
            .entries
            .iter()
            .chain(shards.iter().flat_map(|s| s.entries.iter()))
            .filter(|e| !dormant || sampled(e.shape));
        for candidate in candidates {
            if merged.iter().any(|e| e.key().matches(&candidate.key())) {
                continue;
            }
            merged.push(Arc::new(SharedSolve::clone(candidate)));
        }
        if merged.len() > cap {
            merged.drain(..merged.len() - cap);
        }
        merged.sort_by_key(|e| e.shape);
        SolveGeneration {
            shapes: merged.iter().map(|e| e.shape).collect(),
            entries: merged,
            dormant,
        }
    }

    /// `(shape class, item row, node limit, gap, tier)` of a synthetic
    /// entry; four shape classes and three rows force shape collisions
    /// between different keys as well as duplicate keys.
    type Spec = (u64, u64, usize, usize, usize);

    /// The shape of synthetic class `class`, increasing with the class:
    /// classes 0 and 1 lie outside the dormant sample, 2 and 3 inside.
    fn class_shape(class: u64) -> u64 {
        shape_in_sample(class >= 2, (class % 2) as usize)
    }

    /// A synthetic solved window for `spec`. `tag` lands in
    /// `nodes_explored`, so equal keys carry distinguishable solutions and
    /// the differential can tell which occurrence a fold kept.
    fn synthetic(spec: Spec, tag: usize) -> Arc<SharedSolve> {
        let (shape, row, limit, gap, tier) = spec;
        Arc::new(SharedSolve {
            shape: class_shape(shape),
            node_limit: [1_000, 200_000][limit],
            incumbent_gap: [0.0, 0.01][gap],
            tier: [SolveTier::Exact, SolveTier::Incumbent][tier],
            rows: vec![FrozenRow {
                release_us: 0,
                deadline_us: 100_000 + row * 1_000,
                options: 3,
            }],
            options: (0..3)
                .map(|j| ScheduleOption {
                    choice: j,
                    duration_us: 60_000 - j as u64 * 10_000,
                    cost: 1.0 + j as f64,
                })
                .collect(),
            solution: ScheduleSolution {
                nodes_explored: tag,
                ..ScheduleSolution::default()
            },
        })
    }

    /// A shard holding exactly `specs`, bypassing `record`'s own dedup and
    /// cap so the fold sees in-shard duplicates too.
    fn shard_of(specs: &[Spec], next_tag: &mut usize) -> SolveShard {
        let mut shard = SolveShard::new();
        for &spec in specs {
            shard.entries.push(synthetic(spec, *next_tag));
            *next_tag += 1;
        }
        shard
    }

    /// Everything a probe can observe about a generation, in order.
    fn observable(generation: &SolveGeneration) -> Vec<SharedSolve> {
        generation.entries.iter().map(|e| (**e).clone()).collect()
    }

    mod publish_differential {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn publish_matches_the_quadratic_fold_and_shares_entries(
                prev_specs in collection::vec((0u64..4, 0u64..3, 0usize..2, 0usize..2, 0usize..2), 0..12),
                prev_cap in 1usize..16,
                shard_specs in collection::vec(
                    collection::vec((0u64..4, 0u64..3, 0usize..2, 0usize..2, 0usize..2), 0..6),
                    0..5,
                ),
                cap_pick in 0usize..64,
                prev_dormant in 0usize..2,
            ) {
                let mut tag = 0;
                let mut prev = publish_reference(
                    &SolveGeneration::empty(),
                    &[shard_of(&prev_specs, &mut tag)],
                    prev_cap,
                    false,
                );
                // The shards made no probes, so the fold keeps the flag.
                prev.dormant = prev_dormant == 1;
                let dormant = prev.dormant && !prev.is_empty();
                let shards: Vec<SolveShard> = shard_specs
                    .iter()
                    .map(|specs| shard_of(specs, &mut tag))
                    .collect();
                let n = prev.len() + shards.iter().map(SolveShard::len).sum::<usize>();
                let cap = 1 + cap_pick % (n + 2);

                let fast = SolveGeneration::publish(&prev, &shards, cap);
                let reference = publish_reference(&prev, &shards, cap, dormant);
                prop_assert_eq!(fast.is_dormant(), dormant);
                prop_assert_eq!(observable(&fast), observable(&reference));
                prop_assert_eq!(&fast.shapes, &reference.shapes);

                // Nothing is copied: every published entry is an input's.
                let inputs: Vec<&Arc<SharedSolve>> = prev
                    .entries
                    .iter()
                    .chain(shards.iter().flat_map(|s| s.entries.iter()))
                    .collect();
                for entry in &fast.entries {
                    prop_assert!(inputs.iter().any(|input| Arc::ptr_eq(input, entry)));
                }
                // A surviving previous-generation key is that very entry:
                // it comes first in the fold, so no shard copy displaces it.
                for old in &prev.entries {
                    if let Some(kept) = fast.entries.iter().find(|e| e.key().matches(&old.key())) {
                        prop_assert!(Arc::ptr_eq(kept, old));
                    }
                }
            }
        }
    }

    #[test]
    fn cap_evicts_the_previous_generation_lowest_shape_first() {
        // The previous generation enters the fold shape-sorted, not by
        // age: the cut takes its lowest shapes, then the earliest shards.
        let mut tag = 0;
        let newer_low = (0, 0, 0, 0, 0);
        let older_high = (3, 0, 0, 0, 0);
        let prev = SolveGeneration::publish(
            &SolveGeneration::empty(),
            &[
                shard_of(&[older_high], &mut tag),
                shard_of(&[newer_low], &mut tag),
            ],
            8,
        );
        assert_eq!(prev.len(), 2);
        let fresh = shard_of(&[(1, 0, 0, 0, 0)], &mut tag);
        let next = SolveGeneration::publish(&prev, &[fresh], 2);
        assert!(class_shape(0) < class_shape(1) && class_shape(1) < class_shape(3));
        let classes: Vec<u64> = next
            .shapes
            .iter()
            .map(|&shape| (0..4).find(|&c| class_shape(c) == shape).unwrap())
            .collect();
        assert_eq!(classes, [1, 3], "the lowest shape goes, though it is newer");
    }

    /// A shard that made `probes` generation probes of sampled shapes,
    /// `hits` of them hits, and recorded nothing.
    fn probed(probes: usize, hits: usize) -> SolveShard {
        SolveShard {
            shared_hits: hits,
            shared_lookups: probes,
            shared_probes: probes,
            sample_probes: probes,
            sample_hits: hits,
            ..SolveShard::new()
        }
    }

    /// The `n`-th shape inside (`true`) or outside (`false`) the slice a
    /// dormant generation samples.
    fn shape_in_sample(inside: bool, n: usize) -> u64 {
        (1u64..).filter(|&s| sampled(s) == inside).nth(n).unwrap()
    }

    /// Poses `items` under `shape` to `memo` through the shared layer.
    fn pose_shared(
        memo: &mut SolveMemo,
        items: &[ScheduleItem],
        shape: u64,
        generation: &SolveGeneration,
        shard: &mut SolveShard,
    ) -> usize {
        let mut scratch = SolveScratch::new();
        memo.solve_shared(items, shape, 200_000, 0.0, &mut scratch, generation, shard)
            .unwrap()
    }

    /// A dormant generation holding `window(50_000)` under an unsampled
    /// shape and `window(90_000)` under a sampled one, with those shapes.
    /// A dormant publish would drop the unsampled entry; it is kept here
    /// to show that a dormant generation does not serve it.
    fn dormant_generation() -> (SolveGeneration, u64, u64) {
        let (outside, inside) = (shape_in_sample(false, 0), shape_in_sample(true, 0));
        let mut shard = SolveShard::new();
        let mut memo = SolveMemo::new();
        let empty = SolveGeneration::empty();
        pose_shared(&mut memo, &window(50_000), outside, &empty, &mut shard);
        pose_shared(&mut memo, &window(90_000), inside, &empty, &mut shard);
        let mut dormant = SolveGeneration::publish(&empty, &[shard], 64);
        assert_eq!(dormant.len(), 2);
        dormant.dormant = true;
        (dormant, outside, inside)
    }

    #[test]
    fn a_publish_over_an_empty_generation_is_never_dormant() {
        // The first batch had nothing to hit: one probe, no hit.
        let mut shard = SolveShard::new();
        let empty = SolveGeneration::empty();
        pose_shared(
            &mut SolveMemo::new(),
            &window(50_000),
            7,
            &empty,
            &mut shard,
        );
        assert_eq!((shard.probes(), shard.shared_hits()), (1, 0));
        let first = SolveGeneration::publish(&empty, &[shard], 64);
        assert!(!first.is_dormant());
        assert!(!SolveGeneration::publish(&empty, &[probed(1_000, 0)], 64).is_dormant());
    }

    #[test]
    fn a_batch_hitting_below_the_threshold_makes_the_next_generation_dormant() {
        let mut tag = 0;
        let prev = SolveGeneration::publish(
            &SolveGeneration::empty(),
            &[shard_of(&[(0, 0, 0, 0, 0)], &mut tag)],
            64,
        );
        assert!(!prev.is_dormant());
        // Four hits would be exactly one in `ADMIT_PROBES_PER_HIT`; the
        // sums run over every shard of the batch.
        let probes = 2 * ADMIT_PROBES_PER_HIT;
        let below = SolveGeneration::publish(&prev, &[probed(probes, 1), probed(probes, 2)], 64);
        assert!(below.is_dormant());
        let at = SolveGeneration::publish(&prev, &[probed(probes, 1), probed(probes, 3)], 64);
        assert!(!at.is_dormant());
    }

    #[test]
    fn a_dormant_generation_probes_and_records_only_sampled_shapes() {
        let (dormant, outside, inside) = dormant_generation();
        let mut shard = SolveShard::new();
        let mut memo = SolveMemo::new();
        let mut plain = SolveMemo::new();
        let mut scratch = SolveScratch::new();
        let mut pose = |items: &[ScheduleItem], shape: u64, shard: &mut SolveShard| {
            let nodes = pose_shared(&mut memo, items, shape, &dormant, shard);
            let cold = plain
                .solve(items, shape, 200_000, 0.0, &mut scratch)
                .unwrap();
            assert_eq!(nodes, cold, "every path mirrors the cold solve");
            assert_eq!(memo.solution(), plain.solution());
            assert_eq!(memo.stats(), plain.stats());
        };
        // The unsampled window is in the generation, but is not probed:
        // it solves cold and is not recorded.
        pose(&window(50_000), outside, &mut shard);
        assert_eq!(shard.shared_lookups(), 1);
        assert_eq!((shard.probes(), shard.shared_hits()), (0, 0));
        assert!(shard.is_empty());
        // The sampled window probes and hits, and the shard holds the
        // entry that answered, so the batch publishes.
        pose(&window(90_000), inside, &mut shard);
        assert_eq!(shard.shared_lookups(), 2);
        assert_eq!((shard.probes(), shard.shared_hits()), (1, 1));
        assert_eq!(shard.len(), 1);
        assert!(dormant
            .entries
            .iter()
            .any(|e| Arc::ptr_eq(e, &shard.entries[0])));
        // A new sampled window probes, misses and is recorded.
        pose(&window(130_000), shape_in_sample(true, 1), &mut shard);
        assert_eq!(shard.shared_lookups(), 3);
        assert_eq!((shard.probes(), shard.shared_hits()), (2, 1));
        assert_eq!(shard.len(), 2);
    }

    #[test]
    fn sampled_hits_above_the_threshold_turn_the_generation_back_on() {
        let (dormant, _, inside) = dormant_generation();
        let mut shard = SolveShard::new();
        let mut memo = SolveMemo::new();
        pose_shared(&mut memo, &window(90_000), inside, &dormant, &mut shard);
        pose_shared(
            &mut memo,
            &window(130_000),
            shape_in_sample(true, 1),
            &dormant,
            &mut shard,
        );
        assert_eq!((shard.probes(), shard.shared_hits()), (2, 1));
        let next = SolveGeneration::publish(&dormant, &[shard], 64);
        assert!(!next.is_dormant(), "one hit in two probes is admitted");
        assert_eq!(next.len(), 3, "the shared entry folds into its original");
        // A batch whose only probe hits records no solve, yet its shard
        // holds the answering entry, so the fleet still publishes it.
        let mut hit_only = SolveShard::new();
        pose_shared(
            &mut SolveMemo::new(),
            &window(90_000),
            inside,
            &dormant,
            &mut hit_only,
        );
        assert!(!hit_only.is_empty());
        assert!(!SolveGeneration::publish(&dormant, &[hit_only], 64).is_dormant());
    }

    #[test]
    fn a_batch_without_probes_keeps_the_previous_flag() {
        let (dormant, _, _) = dormant_generation();
        let mut tag = 0;
        let admitted = SolveGeneration::publish(
            &SolveGeneration::empty(),
            &[shard_of(&[(0, 0, 0, 0, 0)], &mut tag)],
            64,
        );
        for prev in [&dormant, &admitted] {
            let unprobed = shard_of(&[(3, 0, 0, 0, 0)], &mut tag);
            let next = SolveGeneration::publish(prev, &[unprobed, SolveShard::new()], 64);
            assert_eq!(next.is_dormant(), prev.is_dormant());
        }
    }

    #[test]
    fn a_dormant_publish_keeps_only_the_sampled_slice() {
        // Every synthetic key: 4 shape classes x 3 rows x 4 parameter
        // combinations, half of them under sampled shapes.
        let specs: Vec<Spec> = (0..48usize)
            .map(|k| {
                let (class, row) = ((k % 4) as u64, (k / 4 % 3) as u64);
                (class, row, k / 12 % 2, k / 24, 0)
            })
            .collect();
        let mut tag = 0;
        let admitted = SolveGeneration::publish(
            &SolveGeneration::empty(),
            &[shard_of(&specs, &mut tag)],
            512,
        );
        assert_eq!(admitted.len(), 48);
        let dormant = SolveGeneration::publish(&admitted, &[probed(64, 0)], 256);
        assert!(dormant.is_dormant());
        assert_eq!(dormant.len(), 256 / DORMANT_SAMPLE_EVERY as usize);
        assert!(dormant.shapes.iter().all(|&shape| sampled(shape)));
        // The cut keeps the fold order's tail, the highest sampled shapes:
        // all 12 class-3 keys and 4 of the 12 class-2 keys.
        let class_3 = dormant.shapes.iter().filter(|&&s| s == class_shape(3));
        assert_eq!(class_3.count(), 12);
    }

    #[test]
    fn traffic_that_starts_to_repeat_turns_the_generation_back_on_for_good() {
        // One fleet batch over `shapes`: units of eight windows, each with
        // its own ring and shard, published as the fleet does, only when
        // some shard holds something. Returns the batch's
        // `(hits, probes, lookups)`.
        let items = window(50_000);
        let mut scratch = SolveScratch::new();
        let mut batch = |generation: &mut SolveGeneration, shapes: &[u64]| {
            let shards: Vec<SolveShard> = shapes
                .chunks(8)
                .map(|unit| {
                    let (mut memo, mut shard) = (SolveMemo::new(), SolveShard::new());
                    for &shape in unit {
                        memo.solve_shared(
                            &items,
                            shape,
                            1,
                            0.0,
                            &mut scratch,
                            generation,
                            &mut shard,
                        )
                        .unwrap();
                    }
                    shard
                })
                .collect();
            if shards.iter().any(|s| !s.is_empty()) {
                *generation = SolveGeneration::publish(generation, &shards, 512);
            }
            let sum = |f: fn(&SolveShard) -> usize| shards.iter().map(f).sum::<usize>();
            (
                sum(SolveShard::shared_hits),
                sum(SolveShard::probes),
                sum(SolveShard::shared_lookups),
            )
        };
        let mut shapes = (1u64..).map(crate::fault::splitmix);
        let mut generation = SolveGeneration::empty();
        // Unique traffic: dormant from the third batch on.
        for _ in 0..3 {
            let unique: Vec<u64> = shapes.by_ref().take(256).collect();
            batch(&mut generation, &unique);
        }
        assert!(generation.is_dormant());
        // Then every batch poses the same 128 windows and 128 new ones,
        // so half the lookups could hit. The first dormant batch records
        // the sampled slice, the second hits half of it and turns the
        // generation back on, and the first admitted batch records the
        // unsampled repeats. Measured on all its probes, that batch would
        // read about one hit in 32 and go dormant again; on its sample it
        // reads one in two.
        let repeat: Vec<u64> = shapes.by_ref().take(128).collect();
        let mixed = |shapes: &mut dyn Iterator<Item = u64>| {
            let mut batch_shapes = repeat.clone();
            batch_shapes.extend(shapes.take(128));
            batch_shapes
        };
        let repeat_sampled = repeat.iter().filter(|&&s| sampled(s)).count();
        assert!(repeat_sampled > 0);
        batch(&mut generation, &mixed(&mut shapes));
        assert!(generation.is_dormant());
        let (hits, _, _) = batch(&mut generation, &mixed(&mut shapes));
        assert_eq!(hits, repeat_sampled);
        assert!(!generation.is_dormant());
        let (hits, probes, _) = batch(&mut generation, &mixed(&mut shapes));
        assert_eq!((hits, probes), (repeat_sampled, 256));
        assert!(!generation.is_dormant(), "the admitted batch keeps it on");
        for _ in 0..3 {
            let (hits, probes, lookups) = batch(&mut generation, &mixed(&mut shapes));
            assert_eq!((probes, lookups), (256, 256));
            assert!(hits >= 64, "{hits} of 128 repeats answered");
            assert!(!generation.is_dormant());
        }
    }

    mod pointer_served_differential {
        use super::*;
        use proptest::prelude::*;

        /// `(pool window, node limit, gap)` of one posed call.
        type Call = (u64, usize, usize);

        const LIMITS: [usize; 3] = [1, 40, 200_000];
        const GAPS: [f64; 2] = [0.0, 0.05];

        /// Window `id` of a 12-window pool. Window 0 is empty (its solve
        /// errors); the others hold 1–3 items of 4 options. Shapes are
        /// forced into three classes, so different windows collide; one
        /// class lies outside the slice a dormant generation samples.
        fn pool_window(id: u64) -> (Vec<ScheduleItem>, u64) {
            let len = if id == 0 { 0 } else { 1 + id % 3 };
            let items = (0..len)
                .map(|i| ScheduleItem {
                    release_us: i * 20_000,
                    deadline_us: (i + 1) * 90_000 + id * 4_000,
                    options: (0..4)
                        .map(|j| ScheduleOption {
                            choice: j,
                            duration_us: 80_000 - j as u64 * 15_000 - id * 500,
                            cost: 1.0 + 0.7 * j as f64 + 0.01 * id as f64,
                        })
                        .collect(),
                })
                .collect();
            // Two shape classes inside the dormant sample, one outside.
            let class = (id % 3) as usize;
            (items, shape_in_sample(class < 2, class))
        }

        /// Poses `call` to `memo` through `solve_shared` and to `plain`
        /// through `solve`, asserting both observe the same replay; a
        /// generation hit must leave the current ring slot pointing at the
        /// generation's own entry.
        fn pose_both(
            call: Call,
            memo: &mut SolveMemo,
            plain: &mut SolveMemo,
            generation: &SolveGeneration,
            shard: &mut SolveShard,
            scratch: &mut SolveScratch,
        ) {
            let (id, limit, gap) = call;
            let (items, shape) = pool_window(id);
            let (limit, gap) = (LIMITS[limit], GAPS[gap]);
            let (hits_before, probes_before) = (shard.shared_hits(), shard.probes());
            let shared = memo.solve_shared(&items, shape, limit, gap, scratch, generation, shard);
            let cold = plain.solve(&items, shape, limit, gap, scratch);
            assert_eq!(shared, cold);
            assert_eq!(memo.stats(), plain.stats());
            if shared.is_ok() {
                assert_eq!(memo.solution(), plain.solution());
                assert_eq!(memo.tier(), plain.tier());
            }
            if generation.is_dormant() && !sampled(shape) {
                assert_eq!(
                    shard.probes(),
                    probes_before,
                    "unsampled shapes never probe"
                );
            }
            if shard.shared_hits() > hits_before {
                let entry = generation.lookup(&WindowKey::posed(shape, &items, limit, gap));
                let served = memo.slots[memo.current].shared.as_ref();
                assert!(
                    matches!((served, entry), (Some(s), Some(e)) if Arc::ptr_eq(s, e)),
                    "a generation hit must point the ring slot at the entry"
                );
            }
        }

        proptest! {
            #[test]
            fn pointer_served_hits_replay_like_plain_solves(
                first in collection::vec((0u64..12, 0usize..3, 0usize..2), 0..40),
                second in collection::vec((0u64..12, 0usize..3, 0usize..2), 1..40),
                shard_cap in 1usize..33,
                generation_cap in 1usize..40,
                dormant in 0usize..2,
            ) {
                let mut scratch = SolveScratch::new();
                let empty = SolveGeneration::empty();
                let mut shard = SolveShard::with_capacity(shard_cap);
                let (mut memo, mut plain) = (SolveMemo::new(), SolveMemo::new());
                for &call in &first {
                    pose_both(call, &mut memo, &mut plain, &empty, &mut shard, &mut scratch);
                }
                let mut generation = SolveGeneration::publish(&empty, &[shard], generation_cap);
                generation.dormant = dormant == 1;
                let mut probe = SolveShard::new();
                let (mut memo, mut plain) = (SolveMemo::new(), SolveMemo::new());
                for &call in &second {
                    pose_both(call, &mut memo, &mut plain, &generation, &mut probe, &mut scratch);
                }
            }
        }
    }
}
