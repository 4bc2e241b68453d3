//! Compares the optimised branch-and-bound against the pre-optimisation
//! reference across window sizes and deadline-pressure levels, asserting the
//! two return identical schedules wherever both finish.
//!
//! ```text
//! cargo run -p pes_ilp --release --example bnb_speedup
//! ```

use pes_ilp::{ScheduleItem, ScheduleOption, ScheduleProblem, ScheduleSolution, SolveScratch};
use std::time::Instant;
fn window(n: u64, slack_frac: f64) -> ScheduleProblem {
    let items: Vec<ScheduleItem> = (0..n)
        .map(|i| {
            let opts: Vec<ScheduleOption> = (0..17)
                .map(|j| ScheduleOption {
                    choice: j,
                    duration_us: 280_000u64.saturating_sub(j as u64 * 12_000),
                    cost: 1.0 + 0.25 * (j as f64).powf(1.7),
                })
                .collect();
            ScheduleItem {
                release_us: i * 60_000,
                deadline_us: ((i + 1) as f64 * 280_000.0 * slack_frac) as u64,
                options: opts,
            }
        })
        .collect();
    ScheduleProblem::new(0, items)
}
fn main() {
    for slack in [0.55, 0.7, 0.85] {
        for n in [6u64, 8, 10, 12] {
            let p = window(n, slack);
            let a = match p.solve() {
                Ok(a) => a,
                Err(e) => {
                    println!("slack={slack} n={n:2} optimised: {e:?}");
                    continue;
                }
            };
            let b = match p.solve_reference() {
                Ok(b) => b,
                Err(e) => {
                    println!(
                        "slack={slack} n={n:2} reference: {e:?} (optimised nodes {})",
                        a.nodes_explored
                    );
                    continue;
                }
            };
            assert_eq!(a.selected, b.selected, "n={n} slack={slack}");
            assert_eq!(a.violations, b.violations);
            let reps = 50;
            let mut scratch = SolveScratch::new();
            let mut sol = ScheduleSolution::default();
            let t0 = Instant::now();
            for _ in 0..reps {
                p.solve_anytime_with(&mut scratch, &mut sol).unwrap();
                std::hint::black_box(&sol);
            }
            let opt_t = t0.elapsed().as_secs_f64() / reps as f64;
            let t0 = Instant::now();
            for _ in 0..reps {
                std::hint::black_box(p.solve_reference().unwrap());
            }
            let ref_t = t0.elapsed().as_secs_f64() / reps as f64;
            println!("slack={slack} n={n:2} viol={} nodes {} -> {}  time {:.1}us -> {:.1}us  speedup {:.1}x",
                a.violations, b.nodes_explored, a.nodes_explored, ref_t*1e6, opt_t*1e6, ref_t/opt_t);
        }
    }
}
