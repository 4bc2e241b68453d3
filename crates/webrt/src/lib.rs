//! # pes-webrt — the event-driven mobile Web runtime model
//!
//! This crate models the part of the Chromium Web runtime that PES interacts
//! with (Feng & Zhu, ISCA 2019, Sec. 2): user interactions become DOM events
//! ([`WebEvent`]) with per-interaction QoS targets ([`QosPolicy`]); each
//! event's callback plus rendering work flows through the five-stage
//! rendering pipeline ([`RenderPipeline`]) on a single ACMP configuration;
//! and the resulting frame is displayed at the next 60 Hz VSync
//! ([`VsyncClock`]). The [`ExecutionEngine`] runs a whole event stream
//! through that pipeline one event at a time.
//!
//! # Examples
//!
//! ```
//! use pes_acmp::{CpuDemand, Platform};
//! use pes_acmp::units::{CpuCycles, TimeUs};
//! use pes_dom::EventType;
//! use pes_webrt::{EventId, QosOutcome, QosPolicy, RenderPipeline, VsyncClock, WebEvent};
//!
//! let platform = Platform::exynos_5410();
//! let qos = QosPolicy::paper_defaults();
//! let vsync = VsyncClock::sixty_hz();
//!
//! let event = WebEvent::new(
//!     EventId::new(0),
//!     EventType::Click,
//!     None,
//!     TimeUs::from_millis(100),
//!     CpuDemand::new(TimeUs::from_millis(5), CpuCycles::new(80_000_000)),
//! );
//!
//! // Execute the event on the fastest configuration as soon as it arrives.
//! let (_busy, frame_ready_at) = RenderPipeline::new().execute_timing(
//!     &event.demand(),
//!     event.event_type().interaction(),
//!     &platform.max_performance_config(),
//!     event.arrival(),
//! );
//! let outcome = QosOutcome {
//!     triggered_at: event.arrival(),
//!     displayed_at: vsync.next_refresh_at_or_after(frame_ready_at),
//!     target: qos.target_for_event(event.event_type()),
//! };
//! assert!(!outcome.violated());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Panic-freedom: the fault-injection chaos tier replays arbitrary fault
// schedules through this crate, so a stray `unwrap`/`expect` on the replay
// path is a fleet abort. Surviving sites carry a documented `#[allow]`
// restating the construction-time invariant they rely on.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod event;
pub mod executor;
pub mod pipeline;
pub mod qos;
pub mod vsync;

pub use event::{EventId, WebEvent};
pub use executor::{ExecutionEngine, ExecutionRecord};
pub use pipeline::{RenderPipeline, RenderStage, StageProfile};
pub use qos::{QosOutcome, QosPolicy};
pub use vsync::VsyncClock;

#[cfg(test)]
mod tests {
    use super::*;
    use pes_acmp::units::{CpuCycles, TimeUs};
    use pes_acmp::{CpuDemand, Platform};
    use pes_dom::EventType;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<WebEvent>();
        assert_send_sync::<QosPolicy>();
        assert_send_sync::<VsyncClock>();
    }

    #[test]
    fn event_latency_includes_the_vsync_wait() {
        // Reproduce the Fig. 1 shape: latency = execution + idle wait until
        // the next display refresh.
        let platform = Platform::exynos_5410();
        let vsync = VsyncClock::sixty_hz();
        let event = WebEvent::new(
            EventId::new(0),
            EventType::Click,
            None,
            TimeUs::from_millis(3),
            CpuDemand::new(TimeUs::from_millis(2), CpuCycles::new(20_000_000)),
        );
        let (_, frame_ready_at) = RenderPipeline::new().execute_timing(
            &event.demand(),
            event.event_type().interaction(),
            &platform.max_performance_config(),
            event.arrival(),
        );
        let displayed = vsync.next_refresh_at_or_after(frame_ready_at);
        assert!(displayed >= frame_ready_at);
        let outcome = QosOutcome {
            triggered_at: event.arrival(),
            displayed_at: displayed,
            target: QosPolicy::paper_defaults().target_for_event(event.event_type()),
        };
        assert!(outcome.latency() >= frame_ready_at - event.arrival());
        assert!(!outcome.violated());
    }

    #[test]
    fn a_heavy_move_event_violates_its_tight_deadline_on_the_little_core() {
        let platform = Platform::exynos_5410();
        let vsync = VsyncClock::sixty_hz();
        let qos = QosPolicy::paper_defaults();
        let demand = CpuDemand::new(TimeUs::from_millis(5), CpuCycles::new(60_000_000));
        let (_, frame_ready_at) = RenderPipeline::new().execute_timing(
            &demand,
            EventType::Scroll.interaction(),
            &platform.min_power_config(),
            TimeUs::ZERO,
        );
        let outcome = QosOutcome {
            triggered_at: TimeUs::ZERO,
            displayed_at: vsync.next_refresh_at_or_after(frame_ready_at),
            target: qos.target_for_event(EventType::Scroll),
        };
        assert!(
            outcome.violated(),
            "33 ms budget cannot absorb ~170 ms of work"
        );
    }
}
