//! The PES-specialised constrained-optimisation formulation (Eqn. 2–5).
//!
//! The scheduling task assigns exactly one ACMP configuration to each event
//! in a window of outstanding + predicted events so that every event's
//! deadline is met and total energy is minimised. Events execute
//! sequentially on the runtime's main thread, so the only coupling between
//! events is the cumulative completion time — which is what makes a
//! specialised branch-and-bound over per-event choices dramatically faster
//! than the generic 0/1 ILP encoding (the Sec. 5.5 argument for a custom
//! solver). Times are plain microseconds and costs are abstract (energy in
//! microjoules in the PES use), keeping this crate dependency-free.
//!
//! # Solver architecture
//!
//! The search sits on the critical path of every PES scheduling decision
//! (Sec. 5.5 budgets ~10 ms amortised per solve), so the branch-and-bound is
//! engineered to be allocation-free per search node:
//!
//! * the cost-sorted option order and the admissible lower-bound tables
//!   (per-item minimum durations/costs and duration-sorted prefix-minimum
//!   cost arrays) are computed **once per problem** at construction and
//!   cached in [`ScheduleProblem`], so repeated solves of the same window —
//!   the common case in the PES runtime, which re-plans overlapping windows
//!   — skip the per-call sort entirely;
//! * the search reuses one scratch assignment buffer and copies it into a
//!   preallocated incumbent buffer instead of cloning a fresh `Vec` at every
//!   improved incumbent;
//! * unavoidable future deadline misses are detected early from the
//!   minimum-duration slack table, pruning entire subtrees whose violation
//!   count can no longer beat the incumbent (the bound is admissible, so
//!   pruning never changes the returned optimum);
//! * [`ScheduleProblem::solve_anytime_with`] accepts a caller-owned
//!   [`SolveScratch`], letting the runtime keep one scratch arena alive
//!   across all solves of a session replay;
//! * under a node budget, an **adaptive probe** periodically projects the
//!   search's total size from the fraction of the enumeration space already
//!   covered; once the projection exceeds the budget the depth-first search
//!   hands over to the anytime tier below. Searches the bound *does* finish
//!   (the PES-scale 6×17 window under the runtime's 200 k budget) return the
//!   exact optimum.
//!
//! # Anytime tier
//!
//! [`ScheduleProblem::solve_anytime_with`] is the one search. A
//! depth-first search that completes returns [`SolveTier::Exact`] with a
//! schedule bit-identical to the pre-optimisation reference search. When the
//! adaptive probe concludes the budget is provably insufficient, the search
//! switches to a **coarse-time incumbent search**. It fills a dynamic
//! programme over a grid of 2,048 time cells: `LB[k][c]` is the
//! least penalised value of items `k..` from cell `c` when durations and
//! releases round down to the grid, which is an admissible lower bound. One
//! dive guided by that table improves the incumbent, then the depth-first
//! search re-runs from the root on the remaining budget, pruning on the
//! table in O(1) per node and with the ε incumbent-quality slack (see
//! [`ScheduleProblem::with_incumbent_gap`]). When the budget runs out
//! mid-search the incumbent found so far stands. The incumbent is seeded
//! with the greedy schedule, so the returned schedule is *never worse than
//! greedy* (and usually much better), and the tier is reported via
//! [`SolveTier`] so callers and tests can distinguish a proven optimum from
//! a best incumbent. [`ScheduleProblem::solve`] is the exact-only wrapper:
//! it reports [`IlpError::NodeLimit`] for anything but the exact tier.
//!
//! The pre-optimisation solver lives in the workspace's test support module
//! (`tests/support/reference.rs`), so property tests can assert the
//! optimised search returns identical schedules.

use crate::error::IlpError;

/// Why a bounded search stopped before completing (internal control flow).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SearchStop {
    /// The node budget is spent.
    Budget,
    /// The adaptive probe concluded the budget is provably insufficient (the
    /// depth-first search unwinds here and hands over to the coarse-time
    /// incumbent search).
    Hopeless,
}

/// The quality tier of an anytime solve
/// (see [`ScheduleProblem::solve_anytime_with`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveTier {
    /// The depth-first search completed within the node budget: the returned
    /// schedule is the exact optimum, bit-identical to the pre-optimisation
    /// reference search.
    Exact,
    /// The node budget was (provably or actually) insufficient: the returned
    /// schedule is the best incumbent the coarse-time search found (or the
    /// depth-first incumbent when the budget ran out) — never worse than the
    /// greedy schedule, within the configured ε of the optimum at its
    /// violation count when the search finished its budget early, possibly
    /// (unproven) optimal.
    Incumbent,
}

/// One selectable execution option for an event: a configuration index, the
/// event latency under that configuration, and its (energy) cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleOption {
    /// Opaque configuration identifier carried through to the solution.
    pub choice: usize,
    /// Event latency under this option, in microseconds.
    pub duration_us: u64,
    /// Cost (energy) of this option; must be non-negative.
    pub cost: f64,
}

/// One event in the scheduling window.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleItem {
    /// The earliest time the event may start executing, in microseconds.
    /// For outstanding events this is their arrival time; for predicted
    /// (speculative) events it is the current time — they may start as soon
    /// as the preceding event finishes.
    pub release_us: u64,
    /// The absolute deadline (trigger time plus QoS target), in microseconds.
    pub deadline_us: u64,
    /// The candidate execution options (one per ACMP configuration).
    pub options: Vec<ScheduleOption>,
}

impl ScheduleItem {
    /// Overwrites the option list from `(duration_us, cost)` pairs in choice
    /// order, reusing the existing allocation. This is how the PES runtime
    /// pours a precomputed per-configuration latency/energy ladder row into
    /// the node-expansion cost table without rebuilding `ScheduleOption`s by
    /// hand (the `choice` of each option is its position, matching the
    /// platform's configuration indices).
    pub fn assign_options<I>(&mut self, options: I)
    where
        I: IntoIterator<Item = (u64, f64)>,
    {
        self.options.clear();
        self.options.extend(options.into_iter().enumerate().map(
            |(choice, (duration_us, cost))| ScheduleOption {
                choice,
                duration_us,
                cost,
            },
        ));
    }
}

/// Pre-sorted option orders for one item of a (re-)posed window, supplied
/// by callers that already hold the option rows sorted — the PES runtime's
/// DVFS ladder cache memoises its 17-point rows together with exactly these
/// two permutations.
///
/// Both orders must be **stable** sorts of `0..options.len()` over the
/// item's option keys: `by_cost` ascending by `ScheduleOption::cost`,
/// `by_duration` ascending by `ScheduleOption::duration_us`, ties keeping
/// index order in both. [`ScheduleProblem::rebuild_sorted`] consumes them to
/// build its solver tables without sorting, bit-identical to the sorting
/// path (`debug_assert`ed, and pinned by the workspace proptests).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OptionOrder {
    /// Option indices sorted ascending by cost (stable).
    pub by_cost: Vec<u32>,
    /// Option indices sorted ascending by duration (stable).
    pub by_duration: Vec<u32>,
}

impl OptionOrder {
    /// Builds the canonical stable orders of `options`: exactly the
    /// permutations [`ScheduleProblem`]'s own table build produces, with
    /// identical tie-breaking. This is the reference implementation the
    /// bit-identity tests compare external row providers (the DVFS ladder
    /// cache) against.
    // The comparator `expect` restates a problem invariant: option costs
    // are finite energies, so the partial ordering is total here.
    #[allow(clippy::expect_used)]
    pub fn from_options(options: &[ScheduleOption]) -> Self {
        let mut by_cost: Vec<u32> = (0..options.len() as u32).collect();
        by_cost.sort_by(|&a, &b| {
            options[a as usize]
                .cost
                .partial_cmp(&options[b as usize].cost)
                .expect("costs are finite")
        });
        let mut by_duration: Vec<u32> = (0..options.len() as u32).collect();
        by_duration.sort_by_key(|&a| options[a as usize].duration_us);
        OptionOrder {
            by_cost,
            by_duration,
        }
    }

    /// Whether this order is a valid stable-sorted view of `options` — the
    /// contract [`ScheduleProblem::rebuild_sorted`] `debug_assert`s.
    pub fn is_valid_for(&self, options: &[ScheduleOption]) -> bool {
        let stable_perm = |perm: &[u32], key_le: &dyn Fn(u32, u32) -> bool| {
            perm.len() == options.len()
                && {
                    let mut seen = vec![false; options.len()];
                    perm.iter().all(|&i| {
                        let fresh = (i as usize) < options.len() && !seen[i as usize];
                        if fresh {
                            seen[i as usize] = true;
                        }
                        fresh
                    })
                }
                && perm.windows(2).all(|w| key_le(w[0], w[1]))
        };
        stable_perm(&self.by_cost, &|a, b| {
            let (ca, cb) = (options[a as usize].cost, options[b as usize].cost);
            ca < cb || (ca == cb && a < b)
        }) && stable_perm(&self.by_duration, &|a, b| {
            let (da, db) = (
                options[a as usize].duration_us,
                options[b as usize].duration_us,
            );
            da < db || (da == db && a < b)
        })
    }
}

/// A solved schedule.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScheduleSolution {
    /// For each event, the index into its `options` vector.
    pub selected: Vec<usize>,
    /// For each event, the chosen option's `choice` identifier.
    pub choices: Vec<usize>,
    /// For each event, its completion time in microseconds.
    pub finish_us: Vec<u64>,
    /// Total cost (sum of chosen option costs).
    pub total_cost: f64,
    /// Number of events whose deadline is missed by this schedule. Zero when
    /// the instance is feasible.
    pub violations: usize,
    /// Number of search nodes explored.
    pub nodes_explored: usize,
}

/// Reusable search state for [`ScheduleProblem::solve_anytime_with`]: the scratch
/// assignment, the incumbent buffer and the node counter. Keeping one of
/// these alive across solves makes the branch-and-bound allocation-free
/// after the first window of a given size.
#[derive(Debug, Clone, Default)]
pub struct SolveScratch {
    /// Current partial assignment (option index per item).
    selected: Vec<usize>,
    /// Best complete assignment found so far.
    best_selected: Vec<usize>,
    /// Penalised cost of `best_selected`; `f64::INFINITY` when no incumbent.
    best_penalised: f64,
    /// Whether `best_selected` holds a complete incumbent.
    has_best: bool,
    /// Pruning cap derived from the greedy schedule's value: any subtree
    /// whose lower bound reaches this can't contain the optimum. Kept
    /// slightly above the greedy value so the first optimal leaf is never
    /// pruned even on exact ties — the cap only prunes, it is never returned.
    prune_cap: f64,
    /// Search nodes visited.
    nodes: usize,
    /// Fraction of the enumeration space already covered (sum of the
    /// subtree weights of every pruned subtree and visited leaf). Drives the
    /// adaptive probe's completed-nodes projection.
    progress: f64,
    /// `(nodes, progress)` at the first adaptive probe. The projection is
    /// computed on the *residual* space past this baseline: the first few
    /// thousand nodes prune most of the high-weight subtrees near the root
    /// (the greedy cap disposes of an item's expensive options in one node
    /// each), so the raw `nodes / progress` ratio wildly underestimates how
    /// dense the remaining space is.
    probe_baseline: Option<(usize, f64)>,
    /// Consecutive probes whose projection exceeded the node budget. The
    /// depth-first search unwinds to the coarse-time search once this
    /// reaches two, so one noisy early estimate cannot end a search the
    /// bound would finish.
    hopeless_probes: u8,
    /// How far below the incumbent a node's bound must fall to survive:
    /// `1e-9` in the first depth-first pass, the ε incumbent-quality slack
    /// in the coarse-time pass (see [`ScheduleProblem::prune_slack`]).
    prune_slack: f64,
    /// The coarse-time lower-bound table (reused allocation).
    coarse: CoarseBound,
}

/// The coarse-time relaxation of a window: time is cut into cells of
/// `grid_us` from the window start, durations and releases round *down* to
/// the grid and an item misses when its finish cell lies past its
/// deadline's cell. Relaxed finishes are never later than true ones and
/// relaxed misses imply true misses, so `LB[k][c]` — the least penalised
/// value of items `k..` from cell `c` — never exceeds the true remaining
/// value from any time in that cell.
#[derive(Debug, Clone, Default)]
struct CoarseBound {
    /// Row-major `LB`: `n + 1` rows of `overflow + 1` cells; row `n` is zero.
    lb: Vec<f64>,
    /// The next item's row with this item's penalty added, padded to twice
    /// the row width.
    penalised_next: Vec<f64>,
    /// The window start, the origin of cell 0.
    start_us: u64,
    /// Cell width in microseconds (at least 1).
    grid_us: u64,
    /// The overflow cell: every time past the latest deadline maps here.
    overflow: usize,
}

/// `row[c] = min(row[c], cost + shifted[c])`. A function of its own so the
/// two slices arrive as non-aliasing arguments, which lets the loop
/// vectorise (it ran scalar, 1.7× slower, inlined into the table fill).
fn relax_row(row: &mut [f64], shifted: &[f64], cost: f64) {
    for (r, &p) in row.iter_mut().zip(shifted) {
        let v = cost + p;
        *r = if v < *r { v } else { *r };
    }
}

impl CoarseBound {
    /// The cell of time `t`, saturating into the overflow cell.
    #[inline]
    fn cell(&self, t: u64) -> usize {
        (t.saturating_sub(self.start_us) / self.grid_us).min(self.overflow as u64) as usize
    }

    /// `LB[index][cell(cursor_us)]`.
    #[inline]
    fn at(&self, index: usize, cursor_us: u64) -> f64 {
        self.lb[index * (self.overflow + 1) + self.cell(cursor_us)]
    }
}

impl SolveScratch {
    /// Creates an empty scratch arena.
    pub fn new() -> Self {
        SolveScratch::default()
    }

    fn reset(&mut self, n: usize, prune_cap: f64) {
        self.selected.clear();
        self.selected.resize(n, 0);
        self.best_selected.clear();
        self.best_selected.resize(n, 0);
        self.best_penalised = f64::INFINITY;
        self.has_best = false;
        self.prune_cap = prune_cap;
        self.nodes = 0;
        self.progress = 0.0;
        self.probe_baseline = None;
        self.hopeless_probes = 0;
        self.prune_slack = 1e-9;
    }
}

/// The scheduling problem: a window of events starting no earlier than
/// `start_us`.
///
/// # Examples
///
/// ```
/// use pes_ilp::{ScheduleItem, ScheduleOption, ScheduleProblem};
///
/// // Two events; the second has a tight deadline, so the first must pick its
/// // faster (more expensive) option even though a cheaper one exists.
/// let items = vec![
///     ScheduleItem {
///         release_us: 0,
///         deadline_us: 1_000,
///         options: vec![
///             ScheduleOption { choice: 0, duration_us: 900, cost: 1.0 },
///             ScheduleOption { choice: 1, duration_us: 400, cost: 3.0 },
///         ],
///     },
///     ScheduleItem {
///         release_us: 0,
///         deadline_us: 800,
///         options: vec![
///             ScheduleOption { choice: 0, duration_us: 400, cost: 1.0 },
///             ScheduleOption { choice: 1, duration_us: 200, cost: 3.0 },
///         ],
///     },
/// ];
/// let solution = ScheduleProblem::new(0, items).solve().unwrap();
/// assert_eq!(solution.violations, 0);
/// assert_eq!(solution.choices, vec![1, 0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleProblem {
    start_us: u64,
    items: Vec<ScheduleItem>,
    node_limit: usize,
    /// Cost-sorted option indices for every item, flattened; item `i`'s order
    /// lives at `order[order_offsets[i]..order_offsets[i + 1]]`. Computed
    /// once at construction so repeated solves skip the per-call sort.
    order: Vec<u32>,
    /// Offsets into `order`, one per item plus a trailing end offset.
    order_offsets: Vec<u32>,
    /// Fastest option duration per item: drives the earliest-finish chain of
    /// the admissible lower bound.
    min_duration: Vec<u64>,
    /// Cheapest option cost per item: the cost floor once an item's deadline
    /// is already unavoidably missed.
    min_cost: Vec<f64>,
    /// Option durations per item, sorted ascending, flattened.
    dur_sorted: Vec<u64>,
    /// `dur_cheapest[k]`: cheapest cost among the options of the same item
    /// that are at least as fast as `dur_sorted[k]` (prefix minimum), so
    /// "cheapest option fitting a budget" is one binary search.
    dur_cheapest: Vec<f64>,
    /// Offsets into `dur_sorted`/`dur_cheapest`, one per item plus an end.
    dur_offsets: Vec<u32>,
    /// `suffix_min_cost[i]`: plain cost floor of items `i..`, used as the
    /// lower bound's tail beyond [`BOUND_SCAN_LIMIT`].
    suffix_min_cost: Vec<f64>,
    /// `1 / branching factor` per item (after dominated-option elimination):
    /// the weight a child subtree contributes to the adaptive probe's
    /// enumeration-space progress estimate.
    inv_breadth: Vec<f64>,
    /// Relative incumbent-quality slack of the coarse-time search (see
    /// [`ScheduleProblem::with_incumbent_gap`]); `0.0` disables it.
    incumbent_gap: f64,
}

/// How many remaining items the per-node lower bound inspects in detail;
/// the tail beyond this contributes the precomputed suffix minimum cost.
/// Caps per-node bound work at `O(BOUND_SCAN_LIMIT · log m)` on deep
/// windows while retaining full pruning power near the search frontier,
/// where it matters. The capped bound still dominates the plain suffix-cost
/// bound, so the search never explores more nodes than the reference.
const BOUND_SCAN_LIMIT: usize = 6;

/// Cost penalty applied per missed deadline so that minimising the penalised
/// cost is lexicographic: first minimise violations, then energy.
const VIOLATION_PENALTY: f64 = 1.0e15;

/// The adaptive probe interval ceiling: every `clamp(budget / 64, 512,
/// 2048)` nodes the search projects its total size from the
/// enumeration-space progress so far and, when the projection exceeds the
/// node budget, hands the search over to the coarse-time search (see
/// [`ScheduleProblem::solve_anytime_with`]). The interval scales with the budget
/// because the three probes a hopeless verdict needs (baseline + two
/// consecutive over-projections) bound the worst-case latency of a solve
/// that was never going to finish: under the wide-tier 60 k budget the
/// verdict lands within ~3 k nodes instead of ~6 k, which is what pulled
/// the hostile 12×17 anytime worst case down. Large budgets (the 200 k
/// narrow tier and up) keep the 2048 ceiling, so searches the bound *does*
/// finish (the PES 6×17 window completes in ~105 k nodes) see the same
/// stable estimate as before.
const ADAPT_PROBE_INTERVAL_MAX: usize = 2048;

/// The adaptive probe interval floor: tiny budgets still need enough nodes
/// between probes for the residual projection to mean anything.
const ADAPT_PROBE_INTERVAL_MIN: usize = 512;

/// Safety margin on the adaptive probe's projection: the depth-first search
/// only hands over to the coarse-time search when the projected total exceeds
/// this multiple of the node budget. The residual extrapolation overestimates searches whose pruning
/// density improves as incumbents tighten (a 10-event window observed to
/// finish at ~3.7 M nodes under a 5 M budget projects past 5 M mid-search),
/// and a false flip turns a completable exact search into an incumbent. The
/// hopeless capped windows this adaptation targets project at ≥ 4× their
/// budget, so the margin costs them nothing.
const ADAPT_PROJECTION_MARGIN: f64 = 2.0;

/// Time cells of the coarse-time lower-bound table, spread over `[start,
/// latest deadline]`. Filling the table costs `O(n · DP_CELLS · m)` per
/// hopeless window, about 0.1 ms at 12×17. On the 346 hopeless Oracle
/// windows of the seed-1 `policy-matrix` traces, 1,024 cells ran 15%
/// faster but planned 0.9 J more energy; 4,096 cells planned 0.7 J less
/// but ran 1.6× slower.
const DP_CELLS: u64 = 2048;

impl ScheduleProblem {
    /// Creates a problem whose first event may start at `start_us`.
    ///
    /// Construction precomputes the solver's caches (cost-sorted option
    /// order, per-item minimum durations/costs, duration-sorted
    /// prefix-minimum cost tables) in `O(n·m log m)` for `n` items of `m`
    /// options — negligible next to the search itself, and paid once per
    /// window rather than once per solve.
    pub fn new(start_us: u64, items: Vec<ScheduleItem>) -> Self {
        let mut problem = ScheduleProblem {
            start_us,
            items,
            node_limit: 5_000_000,
            order: Vec::new(),
            order_offsets: Vec::new(),
            min_duration: Vec::new(),
            min_cost: Vec::new(),
            dur_sorted: Vec::new(),
            dur_cheapest: Vec::new(),
            dur_offsets: Vec::new(),
            suffix_min_cost: Vec::new(),
            inv_breadth: Vec::new(),
            incumbent_gap: 0.0,
        };
        problem.rebuild_tables(None);
        problem
    }

    /// Re-poses this problem for a new window, reusing **every** internal
    /// allocation: the item slots (including their `options` vectors) and
    /// all solver cache tables. The node limit and incumbent gap are kept.
    ///
    /// Construction cost is what put `ScheduleProblem::new` on the Oracle's
    /// replay profile — a dozen table allocations per cache-miss solve, paid
    /// once per prediction round. The runtime's solve-memoisation ring now
    /// recycles its evicted slots through this method, so a steady replay
    /// allocates nothing per solve.
    pub fn rebuild(&mut self, start_us: u64, items: &[ScheduleItem]) {
        self.copy_items(start_us, items);
        self.rebuild_tables(None);
    }

    /// [`ScheduleProblem::rebuild`] without the per-item sorting: the caller
    /// supplies one pre-sorted [`OptionOrder`] per item (the PES runtime's
    /// ladder cache holds its 17-option rows sorted already), and the solver
    /// tables are built by walking those orders instead of re-sorting —
    /// which was most of a re-pose's cost. Bit-identical to
    /// [`ScheduleProblem::rebuild`] when the orders satisfy
    /// [`OptionOrder::is_valid_for`] (`debug_assert`ed here).
    ///
    /// # Panics
    ///
    /// Panics when `orders.len() != items.len()`.
    pub fn rebuild_sorted(
        &mut self,
        start_us: u64,
        items: &[ScheduleItem],
        orders: &[OptionOrder],
    ) {
        assert_eq!(items.len(), orders.len(), "one OptionOrder per window item");
        debug_assert!(
            items
                .iter()
                .zip(orders)
                .all(|(item, order)| order.is_valid_for(&item.options)),
            "orders must be stable sorts of the item options"
        );
        self.copy_items(start_us, items);
        self.rebuild_tables(Some(orders));
    }

    /// Copies a new window into the recycled item slots.
    fn copy_items(&mut self, start_us: u64, items: &[ScheduleItem]) {
        self.start_us = start_us;
        self.items.truncate(items.len());
        while self.items.len() < items.len() {
            self.items.push(ScheduleItem {
                release_us: 0,
                deadline_us: 0,
                options: Vec::new(),
            });
        }
        for (slot, item) in self.items.iter_mut().zip(items) {
            slot.release_us = item.release_us;
            slot.deadline_us = item.deadline_us;
            slot.options.clear();
            slot.options.extend_from_slice(&item.options);
        }
    }

    /// Recomputes the solver's cached tables from `self.items`, reusing the
    /// table allocations. Produces exactly the tables
    /// [`ScheduleProblem::new`] builds; with `orders` supplied the per-item
    /// sorts are replaced by walks of the given (identically tie-broken)
    /// permutations.
    // The comparator `expect` restates the same finite-cost invariant as
    // [`OptionOrder::from_options`].
    #[allow(clippy::expect_used)]
    fn rebuild_tables(&mut self, orders: Option<&[OptionOrder]>) {
        let n = self.items.len();
        let items = &self.items;

        // Cost-sorted option order per item: the first dive is greedy and
        // produces a good incumbent quickly. Dominated options — at least as
        // slow AND at least as expensive as an option earlier in cost order —
        // are dropped: such a branch can never strictly improve on the
        // earlier option's subtree (a later start can only raise future cost
        // and violations), so eliding it cannot change which incumbents the
        // search accepts.
        self.order.clear();
        self.order_offsets.clear();
        let mut scratch_idx: Vec<u32> = Vec::new();
        self.order_offsets.push(0);
        for (i, item) in items.iter().enumerate() {
            let by_cost: &[u32] = match orders {
                Some(orders) => &orders[i].by_cost,
                None => {
                    scratch_idx.clear();
                    scratch_idx.extend(0..item.options.len() as u32);
                    scratch_idx.sort_by(|&a, &b| {
                        item.options[a as usize]
                            .cost
                            .partial_cmp(&item.options[b as usize].cost)
                            .expect("costs are finite")
                    });
                    &scratch_idx
                }
            };
            let mut fastest_so_far = u64::MAX;
            for &idx in by_cost {
                let duration = item.options[idx as usize].duration_us;
                if duration < fastest_so_far {
                    fastest_so_far = duration;
                    self.order.push(idx);
                }
            }
            self.order_offsets.push(self.order.len() as u32);
        }

        // Per-item minimum duration and cost: the building blocks of the
        // admissible earliest-finish / cheapest-feasible lower bound.
        self.min_duration.clear();
        self.min_duration.extend(items.iter().map(|item| {
            item.options
                .iter()
                .map(|o| o.duration_us)
                .min()
                .unwrap_or(0)
        }));
        self.min_cost.clear();
        self.min_cost.extend(items.iter().map(|item| {
            item.options
                .iter()
                .map(|o| o.cost)
                .fold(f64::INFINITY, f64::min)
        }));

        // Duration-sorted options with a prefix-minimum cost, so "cheapest
        // option no slower than a budget" is a single binary search.
        self.dur_sorted.clear();
        self.dur_cheapest.clear();
        self.dur_offsets.clear();
        self.dur_offsets.push(0);
        let mut by_duration: Vec<(u64, f64)> = Vec::new();
        for (i, item) in items.iter().enumerate() {
            match orders {
                Some(orders) => {
                    let mut cheapest = f64::INFINITY;
                    for &idx in &orders[i].by_duration {
                        let opt = item.options[idx as usize];
                        cheapest = cheapest.min(opt.cost);
                        self.dur_sorted.push(opt.duration_us);
                        self.dur_cheapest.push(cheapest);
                    }
                }
                None => {
                    by_duration.clear();
                    by_duration.extend(item.options.iter().map(|o| (o.duration_us, o.cost)));
                    by_duration.sort_by_key(|&(duration, _)| duration);
                    let mut cheapest = f64::INFINITY;
                    for &(duration, cost) in &by_duration {
                        cheapest = cheapest.min(cost);
                        self.dur_sorted.push(duration);
                        self.dur_cheapest.push(cheapest);
                    }
                }
            }
            self.dur_offsets.push(self.dur_sorted.len() as u32);
        }

        self.suffix_min_cost.clear();
        self.suffix_min_cost.resize(n + 1, 0.0);
        for i in (0..n).rev() {
            self.suffix_min_cost[i] = self.suffix_min_cost[i + 1] + self.min_cost[i];
        }

        self.inv_breadth.clear();
        let order_offsets = &self.order_offsets;
        self.inv_breadth.extend((0..n).map(|i| {
            let breadth = (order_offsets[i + 1] - order_offsets[i]).max(1);
            1.0 / breadth as f64
        }));
    }

    /// The events in the window.
    pub fn items(&self) -> &[ScheduleItem] {
        &self.items
    }

    /// The window's start time in microseconds.
    pub fn start_us(&self) -> u64 {
        self.start_us
    }

    /// Caps the number of branch-and-bound nodes.
    pub fn with_node_limit(mut self, limit: usize) -> Self {
        self.set_node_limit(limit);
        self
    }

    /// In-place form of [`ScheduleProblem::with_node_limit`], for recycled
    /// problems (see [`ScheduleProblem::rebuild`]).
    pub fn set_node_limit(&mut self, limit: usize) {
        self.node_limit = limit.max(1);
    }

    /// Sets the coarse-time search's incumbent-quality slack: that search
    /// prunes every node whose lower bound is not at least `gap` (relative)
    /// of the incumbent's cost below it, so a search that finishes proves
    /// the incumbent within `gap` of the optimal cost *at the incumbent's
    /// violation count*. Nodes that could still reduce violations are never
    /// pruned by the slack, so the lexicographic contract is untouched.
    /// `0.0` (the default) disables the slack. Only [`SolveTier::Incumbent`]
    /// results are affected; exact-tier solves never see the gap.
    pub fn with_incumbent_gap(mut self, gap: f64) -> Self {
        self.set_incumbent_gap(gap);
        self
    }

    /// In-place form of [`ScheduleProblem::with_incumbent_gap`], for
    /// recycled problems.
    pub fn set_incumbent_gap(&mut self, gap: f64) {
        self.incumbent_gap = gap.max(0.0);
    }

    /// The configured node budget.
    pub fn node_limit(&self) -> usize {
        self.node_limit
    }

    /// The configured incumbent-quality gap (`0.0` = disabled).
    pub fn incumbent_gap(&self) -> f64 {
        self.incumbent_gap
    }

    /// Item `k`'s non-dominated option indices in cost order.
    #[inline]
    fn cost_order(&self, k: usize) -> &[u32] {
        &self.order[self.order_offsets[k] as usize..self.order_offsets[k + 1] as usize]
    }

    /// Cheapest cost of an option of item `j` no slower than `budget`.
    /// Precondition: the item's fastest option fits (`budget >=
    /// min_duration[j]`). The slowest-option-fits common case (loose
    /// windows) answers with one compare instead of a binary search.
    #[inline]
    fn cheapest_fitting(&self, j: usize, budget: u64) -> f64 {
        let lo = self.dur_offsets[j] as usize;
        let hi = self.dur_offsets[j + 1] as usize;
        if self.dur_sorted[hi - 1] <= budget {
            return self.dur_cheapest[hi - 1];
        }
        let fitting = self.dur_sorted[lo..hi].partition_point(|&d| d <= budget);
        debug_assert!(fitting > 0, "caller checked the fastest option fits");
        self.dur_cheapest[lo + fitting - 1]
    }

    /// Whether the earliest-finish scan bound prunes a node at item `index`,
    /// reached at `cursor_us` with penalised prefix value `penalised`,
    /// against `threshold`.
    ///
    /// The bound walks the earliest-finish chain: each remaining item starts
    /// no earlier than `max(chain, release)` and the chain advances by the
    /// item's *fastest* option, so every actual schedule starts each item at
    /// or after the chain's start. The item then contributes the cheapest
    /// option fast enough to meet its deadline from that earliest start (one
    /// binary search in the duration-sorted prefix-minimum table); if even
    /// the fastest option misses, the miss is unavoidable and the item
    /// contributes a violation plus its global cheapest cost. Items past
    /// [`BOUND_SCAN_LIMIT`] contribute their plain cost floor. Every
    /// relaxation under-approximates the true remaining objective, so
    /// pruning on this bound never changes the returned optimum. After each
    /// scanned item the partial bound is itself admissible, so the scan
    /// stops as soon as it reaches the threshold — at the first unavoidable
    /// violation, usually.
    #[inline]
    fn scan_bound_prunes(
        &self,
        index: usize,
        cursor_us: u64,
        penalised: f64,
        threshold: f64,
    ) -> bool {
        let mut chain = cursor_us;
        let mut cost = 0.0;
        let mut violations = 0usize;
        let scan_end = (index + BOUND_SCAN_LIMIT).min(self.items.len());
        if index == scan_end {
            return penalised + self.suffix_min_cost[scan_end] >= threshold;
        }
        for (j, item) in self.items.iter().enumerate().take(scan_end).skip(index) {
            let start = chain.max(item.release_us);
            let budget = item.deadline_us.saturating_sub(start);
            if budget < self.min_duration[j] {
                violations += 1;
                cost += self.min_cost[j];
            } else {
                cost += self.cheapest_fitting(j, budget);
            }
            chain = start.saturating_add(self.min_duration[j]);
            if penalised
                + (cost + self.suffix_min_cost[j + 1])
                + violations as f64 * VIOLATION_PENALTY
                >= threshold
            {
                return true;
            }
        }
        false
    }

    /// Solves the window exactly with the specialised branch and bound.
    ///
    /// The objective is lexicographic: minimise the number of missed
    /// deadlines first (the instance may be infeasible when a Type I event is
    /// present), then total cost. This is
    /// [`ScheduleProblem::solve_anytime_with`] on fresh buffers, accepting
    /// only the [`SolveTier::Exact`] tier.
    ///
    /// # Errors
    ///
    /// * [`IlpError::EmptyProblem`] when the window has no events or an event
    ///   has no options.
    /// * [`IlpError::NodeLimit`] when the search does not finish within the
    ///   node limit.
    pub fn solve(&self) -> Result<ScheduleSolution, IlpError> {
        let mut solution = ScheduleSolution::default();
        match self.solve_anytime_with(&mut SolveScratch::new(), &mut solution)? {
            SolveTier::Exact => Ok(solution),
            SolveTier::Incumbent => Err(IlpError::NodeLimit(self.node_limit)),
        }
    }

    /// The anytime entry point: exact when the node budget suffices, best
    /// incumbent otherwise — never the greedy cliff.
    ///
    /// The search state lives in the caller's `scratch` and the result
    /// overwrites `solution`, reusing both buffers' capacity across calls —
    /// the PES runtime's per-decision hot path. A depth-first search that
    /// completes returns [`SolveTier::Exact`] with the reference-bit-identical
    /// schedule. When the adaptive probe concludes the node budget is
    /// provably insufficient, the coarse-time search (see the module docs)
    /// spends the remaining budget improving the incumbent; when the budget
    /// runs out mid-search the incumbent found so far stands. Either way the
    /// returned schedule's lexicographic `(violations, cost)` objective is
    /// never worse than the greedy schedule's — the incumbent is seeded with
    /// greedy before the coarse-time search runs, and a depth-first
    /// incumbent only survives if it beats it.
    ///
    /// # Errors
    ///
    /// * [`IlpError::EmptyProblem`] when the window has no events or an
    ///   event has no options (`solution` is left cleared). Node budget
    ///   exhaustion is not an error.
    pub fn solve_anytime_with(
        &self,
        scratch: &mut SolveScratch,
        solution: &mut ScheduleSolution,
    ) -> Result<SolveTier, IlpError> {
        Self::clear_solution(solution);
        if self.items.is_empty() || self.items.iter().any(|i| i.options.is_empty()) {
            return Err(IlpError::EmptyProblem);
        }
        // The greedy schedule's value caps the search from the first node: a
        // subtree whose lower bound reaches it can't beat the optimum (which
        // is at most greedy). The margin keeps the cap strictly above the
        // greedy value so an exactly-greedy-valued optimum is never pruned.
        let greedy = self.greedy_value();
        let prune_cap = greedy + (greedy.abs() * 1e-12).max(1e-6);
        scratch.reset(self.items.len(), prune_cap);
        let tier = match self.branch::<false>(scratch, 0, self.start_us, 0.0, 0, 1.0) {
            Ok(()) => SolveTier::Exact,
            Err(stop) => {
                // Seed the incumbent with the greedy schedule unless the
                // depth-first phase already found something strictly better.
                // (A depth-first incumbent can exceed the greedy value by up
                // to the prune-cap margin, so the comparison is explicit.)
                if !scratch.has_best || scratch.best_penalised > greedy {
                    let seeded = self.greedy_selection_into(&mut scratch.best_selected);
                    debug_assert_eq!(seeded.to_bits(), greedy.to_bits());
                    scratch.best_penalised = greedy;
                    scratch.has_best = true;
                }
                if stop == SearchStop::Hopeless {
                    self.coarse_time_search(scratch);
                }
                SolveTier::Incumbent
            }
        };
        debug_assert!(scratch.has_best, "an incumbent always exists");
        self.emit_solution(scratch, solution);
        Ok(tier)
    }

    /// Clears a caller-supplied solution buffer, keeping its capacity.
    fn clear_solution(solution: &mut ScheduleSolution) {
        solution.selected.clear();
        solution.choices.clear();
        solution.finish_us.clear();
        solution.total_cost = 0.0;
        solution.violations = 0;
        solution.nodes_explored = 0;
    }

    /// Writes the incumbent held in `scratch` into `solution`.
    fn emit_solution(&self, scratch: &SolveScratch, solution: &mut ScheduleSolution) {
        solution.violations = (scratch.best_penalised / VIOLATION_PENALTY).round() as usize;
        let mut cursor = self.start_us;
        for (item, &sel) in self.items.iter().zip(&scratch.best_selected) {
            let opt = item.options[sel];
            let start = cursor.max(item.release_us);
            cursor = start.saturating_add(opt.duration_us);
            solution.selected.push(sel);
            solution.choices.push(opt.choice);
            solution.finish_us.push(cursor);
            solution.total_cost += opt.cost;
        }
        solution.nodes_explored = scratch.nodes;
    }

    /// The budget-scaled adaptive probe interval (see
    /// [`ADAPT_PROBE_INTERVAL_MAX`]).
    #[inline]
    fn probe_interval(&self) -> usize {
        (self.node_limit / 64).clamp(ADAPT_PROBE_INTERVAL_MIN, ADAPT_PROBE_INTERVAL_MAX)
    }

    /// Adaptive probe, evaluated every [`ScheduleProblem::probe_interval`]
    /// depth-first nodes: projects the search's total node count and counts
    /// the consecutive projections that exceed the node budget.
    ///
    /// The projection is a *residual* extrapolation. The first probe
    /// snapshots `(nodes, progress)`; the greedy-capped search has by then
    /// disposed of the high-weight subtrees near the root (an item's
    /// too-expensive options each die in one node carrying 1/17th of the
    /// space), so the space remaining past the baseline is where the real
    /// work lives. Later probes extrapolate the node density observed on
    /// that residual space. Two consecutive over-budget projections are
    /// required, so one noisy estimate cannot end a search the bound would
    /// finish.
    fn adapt_probe(&self, scratch: &mut SolveScratch) {
        match scratch.probe_baseline {
            None => scratch.probe_baseline = Some((scratch.nodes, scratch.progress)),
            Some((base_nodes, base_progress)) => {
                let residual_span = 1.0 - base_progress;
                let covered = if residual_span > 0.0 {
                    (scratch.progress - base_progress) / residual_span
                } else {
                    1.0
                };
                let projected = if covered > 0.0 {
                    base_nodes as f64 + (scratch.nodes - base_nodes) as f64 / covered
                } else {
                    f64::INFINITY
                };
                if projected > self.node_limit as f64 * ADAPT_PROJECTION_MARGIN {
                    scratch.hopeless_probes += 1;
                } else {
                    scratch.hopeless_probes = 0;
                }
            }
        }
    }

    /// The depth-first branch and bound. The first pass (`COARSE = false`)
    /// runs the adaptive probe; the coarse-time pass (`COARSE = true`) runs
    /// without it and prunes on the coarse-time table first.
    fn branch<const COARSE: bool>(
        &self,
        scratch: &mut SolveScratch,
        index: usize,
        cursor_us: u64,
        cost: f64,
        violations: usize,
        weight: f64,
    ) -> Result<(), SearchStop> {
        if !COARSE && scratch.hopeless_probes >= 2 {
            // The adaptive probe concluded the search cannot finish within
            // the node budget: unwind the whole stack and hand the remaining
            // budget to the coarse-time search. Siblings of the frames still
            // on the stack land here immediately.
            return Err(SearchStop::Hopeless);
        }
        scratch.nodes += 1;
        if scratch.nodes > self.node_limit {
            return Err(SearchStop::Budget);
        }
        if !COARSE && scratch.nodes.is_multiple_of(self.probe_interval()) {
            self.adapt_probe(scratch);
        }
        let penalised = cost + violations as f64 * VIOLATION_PENALTY;
        let threshold = if scratch.has_best {
            (scratch.best_penalised - scratch.prune_slack).min(scratch.prune_cap)
        } else {
            scratch.prune_cap
        };
        if COARSE && penalised + scratch.coarse.at(index, cursor_us) >= threshold {
            scratch.progress += weight;
            return Ok(());
        }
        // Earliest-finish scan bound: taking the cheapest deadline-respecting
        // remaining options in the best case, and counting only the future
        // misses that are already unavoidable, can this branch still beat
        // the incumbent (or, before one exists, the greedy cap)? The bound
        // is admissible, so the returned optimum is identical to the
        // unpruned search's.
        if self.scan_bound_prunes(index, cursor_us, penalised, threshold) {
            scratch.progress += weight;
            return Ok(());
        }
        if index == self.items.len() {
            scratch.progress += weight;
            if !scratch.has_best || penalised < scratch.best_penalised - 1e-9 {
                scratch.best_selected.copy_from_slice(&scratch.selected);
                scratch.best_penalised = penalised;
                scratch.has_best = true;
                if COARSE {
                    scratch.prune_slack = self.prune_slack(penalised);
                }
            }
            return Ok(());
        }
        let item = &self.items[index];
        let child_weight = weight * self.inv_breadth[index];
        for &o in self.cost_order(index) {
            let opt_idx = o as usize;
            let opt = item.options[opt_idx];
            let start = cursor_us.max(item.release_us);
            let finish = start.saturating_add(opt.duration_us);
            let missed = finish > item.deadline_us;
            scratch.selected[index] = opt_idx;
            self.branch::<COARSE>(
                scratch,
                index + 1,
                finish,
                cost + opt.cost,
                violations + usize::from(missed),
                child_weight,
            )?;
        }
        Ok(())
    }

    /// The one greedy (EBS-like) schedule walk: every event independently
    /// picks the cheapest option meeting its deadline given the time already
    /// committed, falling back to the fastest option when none fits.
    /// Invokes `pick(item index, selected option index, option, finish_us)`
    /// per item and returns the penalised value. The depth-first pruning
    /// cap, the incumbent seeding of the coarse-time search and
    /// [`ScheduleProblem::solve_greedy`] all build on this single routine so
    /// their tie-breaking can never drift apart.
    // The `expect`s restate constructor invariants: costs are finite (the
    // comparator is total) and every item has at least one option.
    #[allow(clippy::expect_used)]
    fn greedy_walk(&self, mut pick: impl FnMut(usize, usize, ScheduleOption, u64)) -> f64 {
        let mut cursor = self.start_us;
        let mut cost = 0.0;
        let mut violations = 0usize;
        for (i, item) in self.items.iter().enumerate() {
            let start = cursor.max(item.release_us);
            let feasible = item
                .options
                .iter()
                .enumerate()
                .filter(|(_, o)| start.saturating_add(o.duration_us) <= item.deadline_us)
                .min_by(|a, b| a.1.cost.partial_cmp(&b.1.cost).expect("finite"));
            let (sel, opt) = match feasible {
                Some((j, o)) => (j, *o),
                None => {
                    let (j, o) = item
                        .options
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, o)| o.duration_us)
                        .expect("non-empty options");
                    (j, *o)
                }
            };
            cursor = start.saturating_add(opt.duration_us);
            if cursor > item.deadline_us {
                violations += 1;
            }
            cost += opt.cost;
            pick(i, sel, opt, cursor);
        }
        cost + violations as f64 * VIOLATION_PENALTY
    }

    /// The penalised value of the greedy schedule, computed without
    /// allocating: it seeds the branch-and-bound's pruning cap. Only the
    /// value is kept — never the greedy selection — so the incumbent chain
    /// (and therefore the returned schedule) matches the reference search
    /// exactly.
    fn greedy_value(&self) -> f64 {
        self.greedy_walk(|_, _, _, _| {})
    }

    /// The greedy schedule's per-item selections, written into `out`
    /// (allocation-free), returning the penalised value.
    fn greedy_selection_into(&self, out: &mut [usize]) -> f64 {
        self.greedy_walk(|i, sel, _, _| out[i] = sel)
    }

    /// The coarse-time incumbent search, run when the adaptive probe finds
    /// the depth-first search hopeless: fill the coarse-time table, take
    /// one dive guided by it, then re-run the depth-first search from the
    /// root on the remaining node budget with the table's O(1) prune and
    /// the ε slack. Budget exhaustion just ends the search; the incumbent
    /// found so far stands.
    ///
    /// Precondition: `scratch.has_best` (the caller seeds the incumbent with
    /// the greedy schedule).
    fn coarse_time_search(&self, scratch: &mut SolveScratch) {
        self.fill_coarse_bound(&mut scratch.coarse);
        self.coarse_dive(scratch);
        scratch.prune_slack = self.prune_slack(scratch.best_penalised);
        let _ = self.branch::<true>(scratch, 0, self.start_us, 0.0, 0, 1.0);
    }

    /// The prune slack at incumbent value `best_penalised`: the incumbent
    /// gap times the incumbent's cost, or `1e-9` without a gap. A node
    /// whose bound has fewer violations than the incumbent lies at least a
    /// violation penalty below it, so the slack only prunes nodes at the
    /// incumbent's violation count.
    fn prune_slack(&self, best_penalised: f64) -> f64 {
        let violations = (best_penalised / VIOLATION_PENALTY).round();
        let cost = best_penalised - violations * VIOLATION_PENALTY;
        (self.incumbent_gap * cost.abs().max(1.0)).max(1e-9)
    }

    /// Fills the coarse-time table (see [`CoarseBound`]) backwards, one
    /// item at a time, as a shifted minimum over the next row with the
    /// item's penalty already added: `row[c] = min_o(cost_o +
    /// penalised_next[min(max(c, release) + shift_o, overflow)])`. Cell
    /// offsets are clamped at the overflow cell and every cell is computed
    /// with saturating arithmetic, so hostile times (durations or deadlines
    /// near `u64::MAX`) cannot overflow or grow the table past
    /// `(n + 1) × (DP_CELLS + 1)` entries.
    fn fill_coarse_bound(&self, table: &mut CoarseBound) {
        let n = self.items.len();
        let latest = self.items.iter().map(|i| i.deadline_us).max().unwrap_or(0);
        let horizon = latest.saturating_sub(self.start_us);
        table.start_us = self.start_us;
        table.grid_us = horizon / DP_CELLS + 1;
        table.overflow = (horizon / table.grid_us + 1) as usize;
        let width = table.overflow + 1;
        table.lb.clear();
        table.lb.resize((n + 1) * width, 0.0);
        for k in (0..n).rev() {
            let item = &self.items[k];
            // The first cell whose finish misses: past the deadline's cell,
            // or every cell when the deadline precedes the window.
            let miss_from = (item.deadline_us.checked_sub(self.start_us))
                .map_or(0, |d| (d / table.grid_us) as usize + 1);
            let release = table.cell(item.release_us);
            let (head, tail) = table.lb.split_at_mut((k + 1) * width);
            let row = &mut head[k * width..];
            // The next row, padded with `overflow` copies of its overflow
            // cell so that every shifted read stays in bounds.
            let next = &mut table.penalised_next;
            next.clear();
            next.extend_from_slice(&tail[..width]);
            next.resize(2 * width, tail[width - 1]);
            for p in &mut next[miss_from..] {
                *p += VIOLATION_PENALTY;
            }
            row[release..].fill(f64::INFINITY);
            for &o in self.cost_order(k) {
                let opt = item.options[o as usize];
                let shift = (opt.duration_us / table.grid_us).min(table.overflow as u64) as usize;
                relax_row(&mut row[release..], &next[release + shift..], opt.cost);
            }
            let at_release = row[release];
            row[..release].fill(at_release);
        }
    }

    /// One dive guided by the coarse-time table: each item takes the option
    /// minimising `cost + penalty + LB[k + 1][cell(finish)]` (first in cost
    /// order on ties), and the schedule replaces the incumbent if it beats
    /// it.
    fn coarse_dive(&self, scratch: &mut SolveScratch) {
        let mut cursor = self.start_us;
        let mut cost = 0.0;
        let mut violations = 0usize;
        for (k, item) in self.items.iter().enumerate() {
            let start = cursor.max(item.release_us);
            let mut best = (f64::INFINITY, 0, start);
            for &o in self.cost_order(k) {
                let opt = item.options[o as usize];
                let finish = start.saturating_add(opt.duration_us);
                let missed = f64::from(u8::from(finish > item.deadline_us));
                let value =
                    opt.cost + missed * VIOLATION_PENALTY + scratch.coarse.at(k + 1, finish);
                if value < best.0 {
                    best = (value, o as usize, finish);
                }
            }
            let (_, sel, finish) = best;
            scratch.selected[k] = sel;
            cursor = finish;
            cost += item.options[sel].cost;
            violations += usize::from(finish > item.deadline_us);
        }
        let penalised = cost + violations as f64 * VIOLATION_PENALTY;
        if penalised < scratch.best_penalised - 1e-9 {
            scratch.best_selected.copy_from_slice(&scratch.selected);
            scratch.best_penalised = penalised;
        }
    }

    /// The coarse-time lower bound along `solution`'s schedule: entry `k`
    /// bounds the `(violations, cost)` of items `k..` when execution resumes
    /// where `solution` finishes item `k - 1` (at the window start for
    /// `k = 0`), and the last entry is `(0, 0.0)`. This is the table the
    /// coarse-time search prunes with; it is exposed so tests can check it
    /// never exceeds the true remaining value.
    pub fn coarse_time_bounds(&self, solution: &ScheduleSolution) -> Vec<(usize, f64)> {
        let mut table = CoarseBound::default();
        self.fill_coarse_bound(&mut table);
        let cursors = std::iter::once(self.start_us).chain(solution.finish_us.iter().copied());
        cursors
            .take(self.items.len() + 1)
            .enumerate()
            .map(|(k, cursor)| {
                let bound = table.at(k, cursor);
                let violations = (bound / VIOLATION_PENALTY).round();
                (violations as usize, bound - violations * VIOLATION_PENALTY)
            })
            .collect()
    }

    /// A greedy, EBS-like schedule: every event independently picks the
    /// cheapest option that meets its deadline given the time already
    /// committed to preceding events, falling back to the fastest option when
    /// none fits. Used as a comparison point and as a quick incumbent.
    pub fn solve_greedy(&self) -> Result<ScheduleSolution, IlpError> {
        if self.items.is_empty() || self.items.iter().any(|i| i.options.is_empty()) {
            return Err(IlpError::EmptyProblem);
        }
        let mut selected = Vec::new();
        let mut choices = Vec::new();
        let mut finish_us = Vec::new();
        let mut total_cost = 0.0;
        let penalised = self.greedy_walk(|_, sel, opt, finish| {
            selected.push(sel);
            choices.push(opt.choice);
            finish_us.push(finish);
            total_cost += opt.cost;
        });
        Ok(ScheduleSolution {
            selected,
            choices,
            finish_us,
            total_cost,
            violations: (penalised / VIOLATION_PENALTY).round() as usize,
            nodes_explored: self.items.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::solve_reference;
    use crate::solver::to_generic_ilp;

    fn opt(choice: usize, duration_us: u64, cost: f64) -> ScheduleOption {
        ScheduleOption {
            choice,
            duration_us,
            cost,
        }
    }

    /// The Fig. 2 situation in miniature: a slack-rich first event followed by
    /// a heavy second event with a tight deadline. A reactive (greedy) policy
    /// lets E1 run slowly and then cannot save E2; the global solver shortens
    /// E1 to create room.
    fn fig2_like_items() -> Vec<ScheduleItem> {
        vec![
            ScheduleItem {
                release_us: 0,
                deadline_us: 3_000_000, // a load with a 3 s target
                options: vec![opt(0, 2_500_000, 10.0), opt(1, 1_000_000, 25.0)],
            },
            ScheduleItem {
                release_us: 500_000,
                deadline_us: 1_800_000, // heavy tap triggered at 1.5 s, 300 ms target
                options: vec![opt(0, 1_500_000, 8.0), opt(1, 700_000, 20.0)],
            },
        ]
    }

    #[test]
    fn global_solver_coordinates_across_events() {
        let problem = ScheduleProblem::new(0, fig2_like_items());
        let optimal = problem.solve().unwrap();
        let greedy = problem.solve_greedy().unwrap();
        // Greedy keeps E1 cheap (it meets its own deadline) and then E2
        // cannot finish by 1.8 s even on its fast option: 2.5 s + 0.7 s.
        assert_eq!(greedy.violations, 1);
        // The global schedule speeds up E1 so E2 meets its deadline.
        assert_eq!(optimal.violations, 0);
        assert_eq!(optimal.choices[0], 1);
        assert!(optimal.finish_us[1] <= 1_800_000);
        // Even with E1 sped up, only E2's fast option fits before 1.8 s.
        assert_eq!(optimal.choices[1], 1);
        assert!(
            optimal.total_cost > greedy.total_cost,
            "meeting every deadline costs more energy than the greedy schedule spends"
        );
    }

    #[test]
    fn cheapest_options_win_when_deadlines_are_loose() {
        let items = vec![
            ScheduleItem {
                release_us: 0,
                deadline_us: 10_000_000,
                options: vec![opt(0, 100_000, 1.0), opt(1, 50_000, 9.0)],
            },
            ScheduleItem {
                release_us: 0,
                deadline_us: 10_000_000,
                options: vec![opt(0, 100_000, 2.0), opt(1, 50_000, 7.0)],
            },
        ];
        let sol = ScheduleProblem::new(0, items).solve().unwrap();
        assert_eq!(sol.choices, vec![0, 0]);
        assert!((sol.total_cost - 3.0).abs() < 1e-9);
        assert_eq!(sol.violations, 0);
    }

    #[test]
    fn infeasible_windows_minimise_violations_first() {
        // Both events cannot possibly meet their deadlines; the solver should
        // report exactly the unavoidable number of violations rather than
        // failing.
        let items = vec![
            ScheduleItem {
                release_us: 0,
                deadline_us: 10,
                options: vec![opt(0, 1_000, 1.0)],
            },
            ScheduleItem {
                release_us: 0,
                deadline_us: 2_000,
                options: vec![opt(0, 500, 1.0), opt(1, 3_000, 0.5)],
            },
        ];
        let sol = ScheduleProblem::new(0, items).solve().unwrap();
        assert_eq!(sol.violations, 1);
        // The second event still meets its deadline (1000 + 500 <= 2000),
        // which requires picking its faster, more expensive option.
        assert_eq!(sol.choices[1], 0);
    }

    #[test]
    fn release_times_delay_execution() {
        let items = vec![ScheduleItem {
            release_us: 5_000,
            deadline_us: 7_000,
            options: vec![opt(0, 1_000, 1.0)],
        }];
        let sol = ScheduleProblem::new(0, items).solve().unwrap();
        assert_eq!(sol.finish_us, vec![6_000]);
        assert_eq!(sol.violations, 0);
    }

    #[test]
    fn empty_problems_are_rejected() {
        assert_eq!(
            ScheduleProblem::new(0, vec![]).solve().unwrap_err(),
            IlpError::EmptyProblem
        );
        let no_options = vec![ScheduleItem {
            release_us: 0,
            deadline_us: 10,
            options: vec![],
        }];
        assert_eq!(
            ScheduleProblem::new(0, no_options).solve().unwrap_err(),
            IlpError::EmptyProblem
        );
    }

    #[test]
    fn node_limit_is_enforced() {
        let items: Vec<ScheduleItem> = (0..12)
            .map(|i| ScheduleItem {
                release_us: 0,
                deadline_us: 1_000_000,
                options: (0..8)
                    .map(|j| opt(j, 100 + j as u64, (i + j) as f64))
                    .collect(),
            })
            .collect();
        let problem = ScheduleProblem::new(0, items).with_node_limit(5);
        assert!(matches!(problem.solve(), Err(IlpError::NodeLimit(5))));
        assert!(matches!(
            solve_reference(&problem),
            Err(IlpError::NodeLimit(5))
        ));
    }

    #[test]
    fn specialised_and_generic_solvers_agree() {
        let problem = ScheduleProblem::new(0, fig2_like_items());
        let specialised = problem.solve().unwrap();
        let generic = to_generic_ilp(&problem).solve().unwrap();
        // Decode the generic assignment back into per-event choices.
        let mut offset = 0;
        let mut generic_cost = 0.0;
        for item in problem.items() {
            let picked: Vec<usize> = (0..item.options.len())
                .filter(|j| generic.assignment[offset + j])
                .collect();
            assert_eq!(picked.len(), 1, "exactly one option per event");
            generic_cost += item.options[picked[0]].cost;
            offset += item.options.len();
        }
        assert!((generic_cost - specialised.total_cost).abs() < 1e-6);
    }

    #[test]
    fn optimised_solver_matches_the_reference_on_fig2() {
        let problem = ScheduleProblem::new(0, fig2_like_items());
        let optimised = problem.solve().unwrap();
        let reference = solve_reference(&problem).unwrap();
        assert_eq!(optimised.selected, reference.selected);
        assert_eq!(optimised.choices, reference.choices);
        assert_eq!(optimised.finish_us, reference.finish_us);
        assert_eq!(optimised.violations, reference.violations);
        assert!((optimised.total_cost - reference.total_cost).abs() < 1e-12);
        assert!(
            optimised.nodes_explored <= reference.nodes_explored,
            "the optimised search must not explore more nodes"
        );
    }

    #[test]
    fn scratch_reuse_returns_the_same_solution() {
        let problem = ScheduleProblem::new(0, fig2_like_items());
        let fresh = problem.solve().unwrap();
        let mut scratch = SolveScratch::new();
        let mut reused = ScheduleSolution::default();
        for _ in 0..3 {
            let tier = problem
                .solve_anytime_with(&mut scratch, &mut reused)
                .unwrap();
            assert_eq!(tier, SolveTier::Exact);
            assert_eq!(reused, fresh);
        }
    }

    #[test]
    fn greedy_never_beats_the_optimal_cost_on_feasible_instances() {
        let items = vec![
            ScheduleItem {
                release_us: 0,
                deadline_us: 400_000,
                options: vec![opt(0, 300_000, 2.0), opt(1, 120_000, 6.0)],
            },
            ScheduleItem {
                release_us: 100_000,
                deadline_us: 600_000,
                options: vec![opt(0, 250_000, 2.0), opt(1, 100_000, 5.0)],
            },
            ScheduleItem {
                release_us: 200_000,
                deadline_us: 700_000,
                options: vec![opt(0, 200_000, 1.5), opt(1, 90_000, 4.0)],
            },
        ];
        let problem = ScheduleProblem::new(0, items);
        let optimal = problem.solve().unwrap();
        let greedy = problem.solve_greedy().unwrap();
        assert!(optimal.violations <= greedy.violations);
        if optimal.violations == greedy.violations {
            assert!(optimal.total_cost <= greedy.total_cost + 1e-9);
        }
    }

    /// A PES-shaped hard window: `n` events with 17-option convex cost
    /// curves and enough slack structure that exact solves need millions of
    /// nodes.
    fn hard_window(n: u64) -> Vec<ScheduleItem> {
        (0..n)
            .map(|i| ScheduleItem {
                release_us: i * 60_000,
                deadline_us: (i + 1) * 230_000,
                options: (0..17)
                    .map(|j| ScheduleOption {
                        choice: j,
                        duration_us: 260_000 - (j as u64) * 9_000,
                        cost: 1.0 + 0.3 * (j as f64).powf(1.6),
                    })
                    .collect(),
            })
            .collect()
    }

    /// Lexicographic `(violations, cost)` comparison: `a` no worse than `b`.
    fn no_worse(a: &ScheduleSolution, b: &ScheduleSolution) -> bool {
        a.violations < b.violations
            || (a.violations == b.violations && a.total_cost <= b.total_cost + 1e-9)
    }

    #[test]
    fn anytime_exact_tier_matches_the_depth_first_solver() {
        let problem = ScheduleProblem::new(0, fig2_like_items());
        let reference = solve_reference(&problem).unwrap();
        let mut scratch = SolveScratch::new();
        let mut solution = ScheduleSolution::default();
        let tier = problem
            .solve_anytime_with(&mut scratch, &mut solution)
            .unwrap();
        assert_eq!(tier, SolveTier::Exact);
        assert_eq!(solution.selected, reference.selected);
        assert_eq!(solution.choices, reference.choices);
        assert_eq!(solution.finish_us, reference.finish_us);
        assert_eq!(solution.violations, reference.violations);
        assert!((solution.total_cost - reference.total_cost).abs() < 1e-12);
    }

    #[test]
    fn anytime_capped_solve_returns_an_incumbent_no_worse_than_greedy() {
        for budget in [1usize, 10, 100, 5_000, 30_000] {
            let problem = ScheduleProblem::new(0, hard_window(12)).with_node_limit(budget);
            let greedy = problem.solve_greedy().unwrap();
            let mut scratch = SolveScratch::new();
            let mut solution = ScheduleSolution::default();
            let tier = problem
                .solve_anytime_with(&mut scratch, &mut solution)
                .unwrap();
            assert_eq!(solution.selected.len(), 12);
            assert!(
                no_worse(&solution, &greedy),
                "budget {budget}: anytime ({}, {}) worse than greedy ({}, {})",
                solution.violations,
                solution.total_cost,
                greedy.violations,
                greedy.total_cost
            );
            if budget >= 30_000 {
                assert_eq!(tier, SolveTier::Incumbent);
            }
        }
    }

    /// A chain of Fig. 2-style (slack-rich, then tight) event pairs whose
    /// slowest options overlap the next pair: greedy lets every slack-rich
    /// event crawl and then misses every tight deadline, while a global
    /// schedule meets all of them. Exact search needs tens of millions of
    /// nodes on this window; the coarse-time search finds the 0-violation
    /// optimum within a few thousand.
    fn greedy_hostile_chain(pairs: u64) -> Vec<ScheduleItem> {
        let mut items = Vec::new();
        for k in 0..pairs {
            let base = k * 3_000_000;
            items.push(ScheduleItem {
                release_us: base,
                deadline_us: base + 3_000_000,
                options: (0..17)
                    .map(|j| ScheduleOption {
                        choice: j,
                        duration_us: 2_500_000 - j as u64 * 90_000,
                        cost: 10.0 + 1.5 * (j as f64).powf(1.3),
                    })
                    .collect(),
            });
            items.push(ScheduleItem {
                release_us: base + 500_000,
                deadline_us: base + 1_800_000,
                options: (0..17)
                    .map(|j| ScheduleOption {
                        choice: j,
                        duration_us: 1_500_000 - j as u64 * 50_000,
                        cost: 8.0 + 1.2 * (j as f64).powf(1.3),
                    })
                    .collect(),
            });
        }
        items
    }

    #[test]
    fn anytime_incumbent_beats_the_greedy_cliff_on_hostile_windows() {
        // 12 events x 17 options; the depth-first search cannot finish this
        // window within 20M nodes, so the old capped solver would cliff-drop
        // to greedy (6 violations). The anytime tier must do strictly
        // better under the PES runtime's 200k budget.
        let problem = ScheduleProblem::new(0, greedy_hostile_chain(6)).with_node_limit(200_000);
        let greedy = problem.solve_greedy().unwrap();
        assert_eq!(greedy.violations, 6, "greedy misses every tight deadline");
        let mut scratch = SolveScratch::new();
        let mut solution = ScheduleSolution::default();
        let tier = problem
            .solve_anytime_with(&mut scratch, &mut solution)
            .unwrap();
        assert_eq!(tier, SolveTier::Incumbent);
        assert_eq!(
            solution.violations, 0,
            "the incumbent tier meets every deadline"
        );
        assert!(no_worse(&solution, &greedy));
    }

    #[test]
    fn anytime_incumbent_is_deterministic_across_repeat_solves() {
        let problem = ScheduleProblem::new(0, hard_window(10)).with_node_limit(20_000);
        let mut scratch = SolveScratch::new();
        let mut first = ScheduleSolution::default();
        let tier_a = problem
            .solve_anytime_with(&mut scratch, &mut first)
            .unwrap();
        for _ in 0..3 {
            let mut again = ScheduleSolution::default();
            let tier_b = problem
                .solve_anytime_with(&mut scratch, &mut again)
                .unwrap();
            assert_eq!(tier_a, tier_b);
            assert_eq!(first, again);
        }
    }

    /// Stable sorted orders per item, via the canonical builder.
    fn orders_for(items: &[ScheduleItem]) -> Vec<OptionOrder> {
        items
            .iter()
            .map(|item| OptionOrder::from_options(&item.options))
            .collect()
    }

    #[test]
    fn rebuild_sorted_is_bit_identical_to_the_sorting_rebuild() {
        for items in [fig2_like_items(), hard_window(7), greedy_hostile_chain(3)] {
            let orders = orders_for(&items);
            assert!(orders
                .iter()
                .zip(&items)
                .all(|(o, i)| o.is_valid_for(&i.options)));
            let mut sorting = ScheduleProblem::new(0, Vec::new()).with_node_limit(60_000);
            sorting.rebuild(0, &items);
            let mut sorted = ScheduleProblem::new(0, Vec::new()).with_node_limit(60_000);
            sorted.rebuild_sorted(0, &items, &orders);
            // Every solver table (the derived PartialEq spans them all) and
            // therefore every solve is identical.
            assert_eq!(sorting, sorted);
            let mut scratch = SolveScratch::new();
            let (mut a, mut b) = (ScheduleSolution::default(), ScheduleSolution::default());
            let tier_a = sorting.solve_anytime_with(&mut scratch, &mut a).unwrap();
            let tier_b = sorted.solve_anytime_with(&mut scratch, &mut b).unwrap();
            assert_eq!(tier_a, tier_b);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn incumbent_gap_stop_keeps_the_quality_contract_and_saves_nodes() {
        // The hard-window timing with a near-flat cost curve: the search is
        // as large as ever (the probe flips it to the incumbent tier), but
        // every feasible schedule costs within a fraction of a percent of
        // the admissible bound — so the ε stop can certify the incumbent
        // almost immediately, where the gap-less burn grinds through
        // near-tie incumbents until the budget dies.
        let items: Vec<ScheduleItem> = (0..12)
            .map(|i| ScheduleItem {
                release_us: i * 60_000,
                deadline_us: (i + 1) * 230_000,
                options: (0..17)
                    .map(|j| ScheduleOption {
                        choice: j,
                        duration_us: 260_000 - (j as u64) * 9_000,
                        cost: 5.0 + j as f64 * 1e-3,
                    })
                    .collect(),
            })
            .collect();
        let full = ScheduleProblem::new(0, items.clone()).with_node_limit(60_000);
        let greedy = full.solve_greedy().unwrap();
        let mut scratch = SolveScratch::new();
        let mut burn = ScheduleSolution::default();
        assert_eq!(
            full.solve_anytime_with(&mut scratch, &mut burn).unwrap(),
            SolveTier::Incumbent
        );
        let eager = ScheduleProblem::new(0, items)
            .with_node_limit(60_000)
            .with_incumbent_gap(0.01);
        let mut early = ScheduleSolution::default();
        assert_eq!(
            eager.solve_anytime_with(&mut scratch, &mut early).unwrap(),
            SolveTier::Incumbent
        );
        assert!(no_worse(&early, &greedy));
        // The ε stop only fires when no open node can still reduce the
        // violation count, so the stopped incumbent ties the full burn's.
        assert_eq!(early.violations, burn.violations);
        assert!(
            early.nodes_explored < burn.nodes_explored,
            "ε stop should end the incumbent burn early ({} vs {})",
            early.nodes_explored,
            burn.nodes_explored
        );
        assert!(
            early.total_cost <= burn.total_cost * 1.01 + 1e-9,
            "ε-stopped incumbent within the configured gap ({} vs {})",
            early.total_cost,
            burn.total_cost
        );
    }

    #[test]
    fn coarse_time_table_survives_hostile_times() {
        // Times near `u64::MAX`, as hostile trace JSON could pose them: a
        // release and deadline at the top of the range and options whose
        // durations alone overflow any sum. The hard-window shape in front
        // makes the probe hand over to the coarse-time search.
        let base = u64::MAX / 2;
        let mut items = hard_window(12);
        for item in &mut items {
            item.release_us += base;
            item.deadline_us += base;
        }
        items.push(ScheduleItem {
            release_us: u64::MAX - 1,
            deadline_us: u64::MAX,
            options: vec![opt(0, u64::MAX, 1.0), opt(1, u64::MAX - 7, 2.0)],
        });
        let problem = ScheduleProblem::new(base, items).with_node_limit(60_000);
        let mut table = CoarseBound::default();
        problem.fill_coarse_bound(&mut table);
        assert!(table.lb.len() <= 14 * (DP_CELLS as usize + 1));
        assert!(table.lb.iter().all(|v| v.is_finite()));
        let mut scratch = SolveScratch::new();
        let mut solution = ScheduleSolution::default();
        let tier = problem
            .solve_anytime_with(&mut scratch, &mut solution)
            .unwrap();
        assert_eq!(tier, SolveTier::Incumbent);
        assert_eq!(solution.finish_us[12], u64::MAX, "finishes saturate");
        assert!(no_worse(&solution, &problem.solve_greedy().unwrap()));
    }

    #[test]
    fn anytime_rejects_empty_windows() {
        let mut scratch = SolveScratch::new();
        let mut solution = ScheduleSolution::default();
        assert_eq!(
            ScheduleProblem::new(0, vec![])
                .solve_anytime_with(&mut scratch, &mut solution)
                .unwrap_err(),
            IlpError::EmptyProblem
        );
    }

    #[test]
    fn finish_times_are_monotone_and_consistent() {
        let problem = ScheduleProblem::new(50, fig2_like_items());
        let sol = problem.solve().unwrap();
        assert!(sol.finish_us.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(sol.finish_us.len(), problem.items().len());
        assert_eq!(sol.selected.len(), problem.items().len());
    }
}
