//! Ignored micro-profiling harness for the engine floor; run
//! manually with `cargo test --release --test engine_floor_micro -- --ignored --nocapture`.

use std::sync::Arc;
use std::time::Instant;

use pes::acmp::units::{CpuCycles, TimeUs};
use pes::acmp::{CpuDemand, DvfsLadder, Platform};
use pes::dom::EventType;
use pes::webrt::{EventId, ExecutionEngine, QosPolicy, WebEvent};

fn events() -> Vec<WebEvent> {
    (0..31u64)
        .map(|i| {
            WebEvent::new(
                EventId::new(i),
                [EventType::Click, EventType::Scroll, EventType::Load][(i % 3) as usize],
                None,
                TimeUs::from_micros(i * 150_000),
                CpuDemand::new(
                    TimeUs::from_millis(5),
                    CpuCycles::new((10 + i % 50) * 1_000_000),
                ),
            )
        })
        .collect()
}

#[test]
#[ignore]
fn engine_floor_micro() {
    let platform = Platform::exynos_5410();
    let plane = Arc::new(DvfsLadder::for_platform(&platform));
    let qos = QosPolicy::paper_defaults();
    let evs = events();
    let cfg_fast = platform.max_performance_config();
    let cfg_slow = platform.min_power_config();
    const N: usize = 20_000;

    let t = Instant::now();
    let mut sink = 0usize;
    for _ in 0..N {
        let mut engine = ExecutionEngine::with_plane(&platform, qos, Arc::clone(&plane));
        for (i, ev) in evs.iter().enumerate() {
            let cfg = if i % 4 == 0 { cfg_slow } else { cfg_fast };
            let record = engine.execute_event(ev, &cfg, false);
            engine.commit(ev, record.frame_ready_at);
        }
        sink += engine.violations();
    }
    let per = t.elapsed().as_nanos() as f64 / N as f64;
    println!(
        "{per:.0} ns/replay ({:.1} ns/event)  sink={sink}",
        per / 31.0
    );
}
