//! Per-replay watchdog deadlines: a deterministic proxy for wall-clock
//! runaway detection.
//!
//! A serving fleet cannot let one replay unit monopolise a worker. Real
//! services kill such units on a wall-clock timer, but wall time is not
//! replayable, so the watchdog charges two deterministic meters instead —
//! **solver nodes expanded** (the dominant cost of a replay) and **events
//! executed** — against per-unit budgets. Crossing either deadline *trips*
//! the watchdog: the runtime demotes the unit's serving tier one
//! [`crate::DegradationLevel`] (cheaper solves, then reactive serving, then
//! the on-demand floor) and extends the deadline by one budget, so a unit
//! that keeps overrunning keeps descending the ladder instead of running
//! away. Every trip is recorded in [`crate::RunReport::watchdog_trips`] and
//! the tier the unit ended at in [`crate::RunReport::final_tier`].
//!
//! Budgets of `0` disable the corresponding meter; the
//! [`WatchdogConfig::disabled`] default never charges, never trips, and is
//! bit-identical to the pre-watchdog runtime.

/// Deterministic per-replay deadlines. `0` disables a meter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Solver nodes a replay may expand before the watchdog trips
    /// (`0` = unlimited).
    pub node_budget: usize,
    /// Events a replay may execute before the watchdog trips
    /// (`0` = unlimited).
    pub event_budget: usize,
}

impl WatchdogConfig {
    /// The no-op watchdog: never charges, never trips.
    pub const fn disabled() -> Self {
        WatchdogConfig {
            node_budget: 0,
            event_budget: 0,
        }
    }
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig::disabled()
    }
}

/// The mutable per-replay meters of a [`WatchdogConfig`]. Each deadline
/// extends by one budget on every trip, so the trip count grows linearly
/// with sustained overage rather than firing once and going quiet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogState {
    config: WatchdogConfig,
    nodes_used: usize,
    events_used: usize,
    node_deadline: usize,
    event_deadline: usize,
    trips: usize,
}

impl WatchdogState {
    /// Fresh meters for one replay.
    pub fn new(config: WatchdogConfig) -> Self {
        WatchdogState {
            config,
            nodes_used: 0,
            events_used: 0,
            node_deadline: config.node_budget,
            event_deadline: config.event_budget,
            trips: 0,
        }
    }

    /// Charges `nodes` expanded solver nodes; returns how many deadlines
    /// that crossing tripped (each trip should demote the serving tier one
    /// level).
    pub fn charge_nodes(&mut self, nodes: usize) -> usize {
        if self.config.node_budget == 0 {
            return 0;
        }
        self.nodes_used = self.nodes_used.saturating_add(nodes);
        let mut tripped = 0;
        while self.nodes_used > self.node_deadline {
            self.node_deadline = self.node_deadline.saturating_add(self.config.node_budget);
            self.trips += 1;
            tripped += 1;
        }
        tripped
    }

    /// Charges one executed event; returns how many deadlines that crossing
    /// tripped.
    pub fn charge_event(&mut self) -> usize {
        if self.config.event_budget == 0 {
            return 0;
        }
        self.events_used += 1;
        let mut tripped = 0;
        while self.events_used > self.event_deadline {
            self.event_deadline = self.event_deadline.saturating_add(self.config.event_budget);
            self.trips += 1;
            tripped += 1;
        }
        tripped
    }

    /// Total deadline crossings so far.
    pub fn trips(&self) -> usize {
        self.trips
    }

    /// Solver nodes charged so far.
    pub fn nodes_used(&self) -> usize {
        self.nodes_used
    }

    /// Events charged so far.
    pub fn events_used(&self) -> usize {
        self.events_used
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_watchdog_never_trips() {
        let mut state = WatchdogState::new(WatchdogConfig::disabled());
        assert_eq!(state.charge_nodes(usize::MAX), 0);
        for _ in 0..1_000 {
            assert_eq!(state.charge_event(), 0);
        }
        assert_eq!(state.trips(), 0);
    }

    #[test]
    fn node_deadline_extends_on_each_trip() {
        let mut state = WatchdogState::new(WatchdogConfig {
            node_budget: 100,
            event_budget: 0,
        });
        assert_eq!(state.charge_nodes(100), 0, "exactly the budget is fine");
        assert_eq!(state.charge_nodes(1), 1, "the 101st node trips");
        assert_eq!(state.charge_nodes(99), 0, "deadline extended to 200");
        assert_eq!(state.charge_nodes(250), 3, "one charge can trip thrice");
        assert_eq!(state.trips(), 4);
        assert_eq!(state.nodes_used(), 450);
    }

    #[test]
    fn event_deadline_trips_per_budget_overrun() {
        let mut state = WatchdogState::new(WatchdogConfig {
            node_budget: 0,
            event_budget: 3,
        });
        let trips: Vec<usize> = (0..9).map(|_| state.charge_event()).collect();
        assert_eq!(trips, vec![0, 0, 0, 1, 0, 0, 1, 0, 0]);
        assert_eq!(state.trips(), 2);
        assert_eq!(state.events_used(), 9);
    }

    #[test]
    fn saturating_charges_do_not_wrap() {
        let mut state = WatchdogState::new(WatchdogConfig {
            node_budget: usize::MAX,
            event_budget: 0,
        });
        assert_eq!(state.charge_nodes(usize::MAX), 0);
        assert_eq!(state.charge_nodes(usize::MAX), 0, "usage saturates at MAX");
    }
}
