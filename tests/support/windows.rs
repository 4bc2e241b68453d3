//! Fixed scheduling windows shared by the solver's unit tests and the
//! workspace's solver properties and goldens.

// Each includer uses a subset of the support code.
#![allow(dead_code)]

use pes_ilp::{ScheduleItem, ScheduleOption};

/// A chain of Fig. 2-style (slack-rich, then tight) event pairs whose
/// slowest options overlap the next pair: greedy lets every slack-rich
/// event crawl and then misses every tight deadline, while a global
/// schedule meets all of them. Exact search needs tens of millions of
/// nodes on this window; the coarse-time search finds the 0-violation
/// optimum within a few thousand.
pub fn greedy_hostile_chain(pairs: u64) -> Vec<ScheduleItem> {
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
