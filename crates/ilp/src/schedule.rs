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
//! schedule bit-identical to [`ScheduleProblem::solve_reference`]. When the
//! adaptive probe concludes the budget is provably insufficient (or the
//! budget runs out mid-search), it switches to a **best-first incumbent
//! search**: a priority queue ordered by the admissible earliest-finish
//! lower bound, seeded with the better of the greedy schedule and the
//! depth-first phase's incumbent, that keeps improving the incumbent until
//! the remaining node budget is spent. The returned schedule is therefore
//! *never worse than greedy* (and usually much better), and the tier is
//! reported via [`SolveTier`] so callers and tests can distinguish a proven
//! optimum from a best incumbent. [`ScheduleProblem::solve`] is the
//! exact-only wrapper: it reports [`IlpError::NodeLimit`] for anything but
//! the exact tier.
//!
//! The pre-optimisation solver is retained as
//! [`ScheduleProblem::solve_reference`] so property tests can assert the
//! optimised search returns identical schedules.

use std::collections::BinaryHeap;

use crate::error::IlpError;
use crate::linear::{Comparison, Constraint, LinearExpr};
use crate::solver::{exactly_one, IlpProblem};

/// Why a bounded search stopped before completing (internal control flow).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SearchStop {
    /// The node budget is spent.
    Budget,
    /// The adaptive probe concluded the budget is provably insufficient (the
    /// depth-first search unwinds here and hands over to the best-first tier).
    Hopeless,
}

/// The quality tier of an anytime solve
/// (see [`ScheduleProblem::solve_anytime_with`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveTier {
    /// The depth-first search completed within the node budget: the returned
    /// schedule is the exact optimum, bit-identical to
    /// [`ScheduleProblem::solve_reference`].
    Exact,
    /// The node budget was (provably or actually) insufficient: the returned
    /// schedule is the best incumbent the best-first tier found — never
    /// worse than the greedy schedule, possibly (unproven) optimal.
    Incumbent,
}

/// One open node of the best-first incumbent search: a partial assignment of
/// items `0..index`, reached at `cursor_us` with the accumulated `cost` and
/// `violations`, whose admissible lower bound is `bound`. The path is stored
/// as an index into the scratch arena of `(parent, option)` links. Ordered
/// so that [`BinaryHeap`] pops the *smallest* bound first, ties broken by
/// insertion order (`seq`) for determinism.
#[derive(Debug, Clone, Copy)]
struct OpenNode {
    bound: f64,
    seq: u32,
    arena: u32,
    index: u32,
    cursor_us: u64,
    cost: f64,
    violations: u32,
}

impl PartialEq for OpenNode {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for OpenNode {}

impl PartialOrd for OpenNode {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OpenNode {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: the max-heap then yields the lowest bound, oldest first.
        other
            .bound
            .total_cmp(&self.bound)
            .then_with(|| other.seq.cmp(&self.seq))
    }
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
    /// depth-first search unwinds to the best-first tier once this reaches
    /// two, so one noisy early estimate cannot end a search the bound would
    /// finish.
    hopeless_probes: u8,
    /// Best-first open list (reused allocation).
    heap: BinaryHeap<OpenNode>,
    /// Best-first path arena: `(parent arena index, option index)` per
    /// generated node (reused allocation). The option link is as wide as
    /// the option order's indices, so no window size can truncate it.
    arena: Vec<(u32, u32)>,
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
        self.heap.clear();
        self.arena.clear();
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
    /// Relative incumbent-quality gap at which the best-first tier stops
    /// early (see [`ScheduleProblem::with_incumbent_gap`]); `0.0` disables
    /// the early stop.
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
/// node budget, hands the search over to the best-first tier (see
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
/// only hands over to the best-first tier when the projected total exceeds
/// this multiple of the node budget. The residual extrapolation overestimates searches whose pruning
/// density improves as incumbents tighten (a 10-event window observed to
/// finish at ~3.7 M nodes under a 5 M budget projects past 5 M mid-search),
/// and a false flip turns a completable exact search into an incumbent. The
/// hopeless capped windows this adaptation targets project at ≥ 4× their
/// budget, so the margin costs them nothing.
const ADAPT_PROJECTION_MARGIN: f64 = 2.0;

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

    /// Sets the best-first tier's incumbent-quality early stop: the search
    /// ends as soon as the best open lower bound proves the incumbent within
    /// `gap` (relative) of the optimal cost *at the incumbent's violation
    /// count* — nodes that could still reduce violations keep the search
    /// alive, so the lexicographic contract is untouched. `0.0` (the
    /// default) disables the stop. Only [`SolveTier::Incumbent`] results are
    /// affected; exact-tier solves never see the gap.
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

    /// Admissible lower bound on `(cost, violations)` of items `index..` when
    /// execution resumes at `cursor_us`.
    ///
    /// The bound walks the earliest-finish chain: each remaining item starts
    /// no earlier than `max(chain, release)` and the chain advances by the
    /// item's *fastest* option, so every actual schedule starts each item at
    /// or after the chain's start. The item then contributes the cheapest
    /// option fast enough to meet its deadline from that earliest start (one
    /// binary search in the duration-sorted prefix-minimum table); if even
    /// the fastest option misses, the miss is unavoidable and the item
    /// contributes a violation plus its global cheapest cost. Both
    /// relaxations under-approximate the true remaining objective, so
    /// pruning on this bound never changes the returned optimum.
    fn suffix_lower_bound(&self, index: usize, cursor_us: u64) -> (f64, usize) {
        let mut chain = cursor_us;
        let mut cost = 0.0;
        let mut violations = 0usize;
        let scan_end = (index + BOUND_SCAN_LIMIT).min(self.items.len());
        for (j, item) in self.items.iter().enumerate().take(scan_end).skip(index) {
            let start = chain.max(item.release_us);
            let budget = item.deadline_us.saturating_sub(start);
            if budget < self.min_duration[j] {
                violations += 1;
                cost += self.min_cost[j];
            } else {
                cost += self.cheapest_fitting(j, budget);
            }
            chain = start + self.min_duration[j];
        }
        // Items beyond the scan horizon contribute their plain cost floor —
        // still admissible, just cheaper to evaluate.
        (cost + self.suffix_min_cost[scan_end], violations)
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

    /// Whether the earliest-finish scan bound prunes a node whose penalised
    /// prefix value is `penalised` against `threshold` — the boolean form of
    /// [`ScheduleProblem::suffix_lower_bound`] the depth-first search uses.
    ///
    /// Identical decision, cheaper evaluation: after each scanned item the
    /// partial bound (scanned items so far at their cheapest-fitting costs,
    /// everything beyond at its plain cost floor) is itself an admissible
    /// lower bound that the full scan's value can only raise, so the scan
    /// stops as soon as the partial bound reaches the threshold — at the
    /// first unavoidable violation, usually. The last iteration's test is
    /// the exact expression the full bound would have compared, so a scan
    /// that runs to the end decides identically to the two-step form.
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
            chain = start + self.min_duration[j];
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
    /// schedule. When the adaptive probe
    /// concludes the node budget is provably insufficient, the search
    /// switches to the best-first incumbent tier (priority queue ordered by
    /// the admissible lower bound) and spends the remaining budget improving
    /// the incumbent; when the budget runs out mid-search the incumbent
    /// found so far stands. Either way the returned schedule's lexicographic
    /// `(violations, cost)` objective is never worse than the greedy
    /// schedule's — the incumbent is seeded with greedy before the
    /// best-first tier runs, and a depth-first incumbent only survives if it
    /// beats it.
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
        let tier = match self.branch(scratch, 0, self.start_us, 0.0, 0, 1.0) {
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
                    self.best_first(scratch);
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
            cursor = start + opt.duration_us;
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

    fn branch(
        &self,
        scratch: &mut SolveScratch,
        index: usize,
        cursor_us: u64,
        cost: f64,
        violations: usize,
        weight: f64,
    ) -> Result<(), SearchStop> {
        if scratch.hopeless_probes >= 2 {
            // The adaptive probe concluded the search cannot finish within
            // the node budget: unwind the whole stack and hand the remaining
            // budget to the best-first tier. Siblings of the frames still on
            // the stack land here immediately.
            return Err(SearchStop::Hopeless);
        }
        scratch.nodes += 1;
        if scratch.nodes > self.node_limit {
            return Err(SearchStop::Budget);
        }
        if scratch.nodes.is_multiple_of(self.probe_interval()) {
            self.adapt_probe(scratch);
        }
        let penalised = cost + violations as f64 * VIOLATION_PENALTY;
        let threshold = if scratch.has_best {
            (scratch.best_penalised - 1e-9).min(scratch.prune_cap)
        } else {
            scratch.prune_cap
        };
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
            }
            return Ok(());
        }
        let item = &self.items[index];
        let child_weight = weight * self.inv_breadth[index];
        for k in self.order_offsets[index] as usize..self.order_offsets[index + 1] as usize {
            let opt_idx = self.order[k] as usize;
            let opt = item.options[opt_idx];
            let start = cursor_us.max(item.release_us);
            let finish = start + opt.duration_us;
            let missed = finish > item.deadline_us;
            scratch.selected[index] = opt_idx;
            self.branch(
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
    /// cap, the best-first incumbent seeding and
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
                .filter(|(_, o)| start + o.duration_us <= item.deadline_us)
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
            cursor = start + opt.duration_us;
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

    /// The best-first incumbent tier of the anytime solver.
    ///
    /// Classic best-first branch and bound: an open list (binary heap)
    /// ordered by the admissible earliest-finish lower bound, popping the
    /// most promising partial assignment and expanding its children in the
    /// cached cost order. Children whose bound cannot beat the incumbent are
    /// dropped at generation; complete assignments tighten the incumbent
    /// immediately (they never enter the heap). Paths are stored as
    /// `(parent, option)` links in a flat arena, so a node costs 8 bytes of
    /// arena plus one heap entry and the whole tier allocates nothing after
    /// the first hard window of a given size.
    ///
    /// Every child generation counts against the same node budget the
    /// depth-first tier metered, so a capped anytime solve does bounded
    /// total work. The search ends when the budget is spent, the heap runs
    /// dry, the best open bound can no longer beat the incumbent (at which
    /// point the incumbent is in fact optimal — still reported as
    /// [`SolveTier::Incumbent`], since tie-breaking may differ from the
    /// reference search's), or — with
    /// [`ScheduleProblem::with_incumbent_gap`] configured — the best open
    /// bound proves the incumbent within ε of the optimal cost at its
    /// violation count.
    ///
    /// Precondition: `scratch.has_best` (the caller seeds the incumbent with
    /// the greedy schedule), and `scratch.selected`/`best_selected` are
    /// sized to the window.
    fn best_first(&self, scratch: &mut SolveScratch) {
        let n = self.items.len();
        scratch.heap.clear();
        scratch.arena.clear();
        scratch.arena.push((u32::MAX, 0));
        let root_bound = {
            let (cost, violations) = self.suffix_lower_bound(0, self.start_us);
            cost + violations as f64 * VIOLATION_PENALTY
        };
        if root_bound >= scratch.best_penalised - 1e-9 {
            return;
        }
        scratch.heap.push(OpenNode {
            bound: root_bound,
            seq: 0,
            arena: 0,
            index: 0,
            cursor_us: self.start_us,
            cost: 0.0,
            violations: 0,
        });
        let mut seq = 1u32;
        while let Some(node) = scratch.heap.pop() {
            // The best open bound cannot beat the incumbent: every other
            // open node is at least as bad, so the incumbent is optimal.
            if node.bound >= scratch.best_penalised - 1e-9 {
                break;
            }
            // ε incumbent-quality stop: when no open node can still reduce
            // the violation count (the popped bound already carries at least
            // the incumbent's violations — and every other open node is at
            // least as bad) and the best open bound is within the configured
            // relative cost gap of the incumbent, the incumbent is provably
            // within ε of optimal; burning the rest of the budget buys at
            // most that sliver. The incumbent only ever improves from its
            // greedy seed, so stopping early can never violate the
            // never-worse-than-greedy contract.
            if self.incumbent_gap > 0.0 {
                let inc_violations = (scratch.best_penalised / VIOLATION_PENALTY).round();
                let bound_violations = (node.bound / VIOLATION_PENALTY).round();
                if bound_violations >= inc_violations {
                    let inc_cost = scratch.best_penalised - inc_violations * VIOLATION_PENALTY;
                    let bound_cost = node.bound - bound_violations * VIOLATION_PENALTY;
                    if inc_cost - bound_cost <= self.incumbent_gap * inc_cost.abs().max(1.0) {
                        break;
                    }
                }
            }
            let index = node.index as usize;
            debug_assert!(index < n, "complete assignments never enter the heap");
            let item = &self.items[index];
            let start = node.cursor_us.max(item.release_us);
            let child_is_leaf = index + 1 == n;
            for k in self.order_offsets[index] as usize..self.order_offsets[index + 1] as usize {
                scratch.nodes += 1;
                if scratch.nodes > self.node_limit {
                    return;
                }
                let opt_idx = self.order[k] as usize;
                let opt = item.options[opt_idx];
                let finish = start + opt.duration_us;
                let child_cost = node.cost + opt.cost;
                let child_violations = node.violations + u32::from(finish > item.deadline_us);
                let penalised = child_cost + child_violations as f64 * VIOLATION_PENALTY;
                if child_is_leaf {
                    if penalised < scratch.best_penalised - 1e-9 {
                        scratch.best_penalised = penalised;
                        scratch.selected[index] = opt_idx;
                        Self::reconstruct_path(
                            &scratch.arena,
                            node.arena,
                            index,
                            &mut scratch.selected,
                        );
                        scratch.best_selected.copy_from_slice(&scratch.selected);
                    }
                    continue;
                }
                let (suffix_cost, unavoidable) = self.suffix_lower_bound(index + 1, finish);
                let bound = penalised + suffix_cost + unavoidable as f64 * VIOLATION_PENALTY;
                if bound >= scratch.best_penalised - 1e-9 {
                    continue;
                }
                scratch.arena.push((node.arena, opt_idx as u32));
                scratch.heap.push(OpenNode {
                    bound,
                    seq,
                    arena: (scratch.arena.len() - 1) as u32,
                    index: (index + 1) as u32,
                    cursor_us: finish,
                    cost: child_cost,
                    violations: child_violations,
                });
                seq = seq.wrapping_add(1);
            }
        }
    }

    /// Fills `selected[0..depth]` from the arena chain ending at `arena_idx`
    /// (the node standing at item `depth`).
    fn reconstruct_path(
        arena: &[(u32, u32)],
        mut arena_idx: u32,
        depth: usize,
        selected: &mut [usize],
    ) {
        for i in (0..depth).rev() {
            let (parent, opt_idx) = arena[arena_idx as usize];
            selected[i] = opt_idx as usize;
            arena_idx = parent;
        }
        debug_assert_eq!(arena_idx, 0, "paths terminate at the root");
    }

    /// The pre-optimisation branch-and-bound, retained verbatim as a
    /// validation reference: per-call option sorting, suffix-cost-only
    /// pruning and an incumbent clone per improvement. Property tests assert
    /// [`ScheduleProblem::solve`] returns identical schedules; benches
    /// measure the speedup against it.
    ///
    /// # Errors
    ///
    /// Same as [`ScheduleProblem::solve`].
    // The `expect`s restate solver invariants: finite costs make the
    // comparator total, and branch_reference always explores at least one
    // full assignment before returning.
    #[allow(clippy::expect_used)]
    pub fn solve_reference(&self) -> Result<ScheduleSolution, IlpError> {
        if self.items.is_empty() || self.items.iter().any(|i| i.options.is_empty()) {
            return Err(IlpError::EmptyProblem);
        }
        let mut order: Vec<Vec<usize>> = Vec::with_capacity(self.items.len());
        for item in &self.items {
            let mut idx: Vec<usize> = (0..item.options.len()).collect();
            idx.sort_by(|&a, &b| {
                item.options[a]
                    .cost
                    .partial_cmp(&item.options[b].cost)
                    .expect("costs are finite")
            });
            order.push(idx);
        }
        let mut suffix_min_cost = vec![0.0; self.items.len() + 1];
        for i in (0..self.items.len()).rev() {
            let min_cost = self.items[i]
                .options
                .iter()
                .map(|o| o.cost)
                .fold(f64::INFINITY, f64::min);
            suffix_min_cost[i] = suffix_min_cost[i + 1] + min_cost;
        }
        let mut state = ReferenceState {
            selected: vec![0; self.items.len()],
            best: None,
            nodes: 0,
        };
        self.branch_reference(
            &mut state,
            0,
            self.start_us,
            0.0,
            0,
            &order,
            &suffix_min_cost,
        )?;
        let (selected, penalised) = state
            .best
            .expect("at least one full assignment is explored");
        let violations = (penalised / VIOLATION_PENALTY).round() as usize;
        let mut finish_us = Vec::with_capacity(self.items.len());
        let mut cursor = self.start_us;
        let mut total_cost = 0.0;
        let mut choices = Vec::with_capacity(self.items.len());
        for (item, &sel) in self.items.iter().zip(&selected) {
            let opt = item.options[sel];
            let start = cursor.max(item.release_us);
            cursor = start + opt.duration_us;
            finish_us.push(cursor);
            total_cost += opt.cost;
            choices.push(opt.choice);
        }
        Ok(ScheduleSolution {
            selected,
            choices,
            finish_us,
            total_cost,
            violations,
            nodes_explored: state.nodes,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn branch_reference(
        &self,
        state: &mut ReferenceState,
        index: usize,
        cursor_us: u64,
        cost: f64,
        violations: usize,
        order: &[Vec<usize>],
        suffix_min_cost: &[f64],
    ) -> Result<(), IlpError> {
        state.nodes += 1;
        if state.nodes > self.node_limit {
            return Err(IlpError::NodeLimit(self.node_limit));
        }
        let penalised = cost + violations as f64 * VIOLATION_PENALTY;
        if let Some((_, best)) = &state.best {
            if penalised + suffix_min_cost[index] >= *best - 1e-9 {
                return Ok(());
            }
        }
        if index == self.items.len() {
            let better = match &state.best {
                Some((_, best)) => penalised < *best - 1e-9,
                None => true,
            };
            if better {
                state.best = Some((state.selected.clone(), penalised));
            }
            return Ok(());
        }
        let item = &self.items[index];
        for &opt_idx in &order[index] {
            let opt = item.options[opt_idx];
            let start = cursor_us.max(item.release_us);
            let finish = start + opt.duration_us;
            let missed = finish > item.deadline_us;
            state.selected[index] = opt_idx;
            self.branch_reference(
                state,
                index + 1,
                finish,
                cost + opt.cost,
                violations + usize::from(missed),
                order,
                suffix_min_cost,
            )?;
        }
        Ok(())
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

    /// Encodes this problem as a generic 0/1 ILP (variables `τ(i, j)` with the
    /// Eqn. 2 selection constraints and Eqn. 4 cumulative-deadline
    /// constraints) for the specialised-vs-generic ablation.
    ///
    /// The encoding assumes back-to-back execution from `start_us` (release
    /// times earlier than the running completion time, which holds for the
    /// windows PES builds), matching the paper's formulation.
    pub fn to_generic_ilp(&self) -> IlpProblem {
        let var = |item: usize, opt: usize, items: &[ScheduleItem]| -> usize {
            items[..item].iter().map(|i| i.options.len()).sum::<usize>() + opt
        };
        let mut objective = LinearExpr::new();
        for (i, item) in self.items.iter().enumerate() {
            for (j, opt) in item.options.iter().enumerate() {
                objective.add_term(var(i, j, &self.items), opt.cost);
            }
        }
        let mut problem = IlpProblem::minimize(objective);
        for (i, item) in self.items.iter().enumerate() {
            problem.add_constraint(exactly_one(
                (0..item.options.len()).map(|j| var(i, j, &self.items)),
            ));
            // Cumulative deadline: sum of chosen durations of events 0..=i
            // must not exceed deadline(i) - start.
            let mut expr = LinearExpr::new();
            for (k, prior) in self.items.iter().enumerate().take(i + 1) {
                for (j, opt) in prior.options.iter().enumerate() {
                    expr.add_term(var(k, j, &self.items), opt.duration_us as f64);
                }
            }
            let budget = item.deadline_us.saturating_sub(self.start_us) as f64;
            problem.add_constraint(Constraint::new(expr, Comparison::LessEq, budget));
        }
        problem
    }
}

struct ReferenceState {
    selected: Vec<usize>,
    best: Option<(Vec<usize>, f64)>,
    nodes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

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
            problem.solve_reference(),
            Err(IlpError::NodeLimit(5))
        ));
    }

    #[test]
    fn specialised_and_generic_solvers_agree() {
        let problem = ScheduleProblem::new(0, fig2_like_items());
        let specialised = problem.solve().unwrap();
        let generic = problem.to_generic_ilp().solve().unwrap();
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
        let reference = problem.solve_reference().unwrap();
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
        let reference = problem.solve_reference().unwrap();
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
    /// nodes on this window; the best-first tier finds (and proves) the
    /// 0-violation optimum within a few thousand.
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
