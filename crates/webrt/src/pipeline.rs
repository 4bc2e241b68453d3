//! The rendering pipeline: callback execution followed by style resolution,
//! layout, paint and composite (Sec. 2, Fig. 1).
//!
//! Every event's compute demand is split across the five stages according to
//! a per-interaction profile — loads are dominated by style/layout, moves by
//! paint/composite, taps by callback execution — and the whole pipeline runs
//! on the single ACMP configuration chosen by the scheduler for the event.

use pes_acmp::units::TimeUs;
use pes_acmp::{AcmpConfig, CpuDemand};
use pes_dom::Interaction;

/// One stage of the rendering pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RenderStage {
    /// The JavaScript event callback.
    Callback,
    /// CSS style resolution.
    Style,
    /// Layout (reflow).
    Layout,
    /// Rasterisation / painting.
    Paint,
    /// Layer compositing.
    Composite,
}

impl RenderStage {
    /// All stages, in pipeline order.
    pub const ALL: [RenderStage; 5] = [
        RenderStage::Callback,
        RenderStage::Style,
        RenderStage::Layout,
        RenderStage::Paint,
        RenderStage::Composite,
    ];
}

/// How an event's total compute demand is distributed across the pipeline
/// stages. Fractions are normalised at construction.
///
/// # Examples
///
/// ```
/// use pes_webrt::{RenderStage, StageProfile};
/// use pes_dom::Interaction;
///
/// let profile = StageProfile::for_interaction(Interaction::Move);
/// // Moves are composite/paint heavy.
/// assert!(profile.fraction(RenderStage::Composite) > profile.fraction(RenderStage::Layout));
/// let total: f64 = RenderStage::ALL.iter().map(|s| profile.fraction(*s)).sum();
/// assert!((total - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageProfile {
    fractions: [f64; 5],
}

impl StageProfile {
    /// Creates a profile from raw per-stage weights (normalised internally).
    /// All-zero weights fall back to a uniform split.
    pub fn new(weights: [f64; 5]) -> Self {
        let clamped: [f64; 5] = weights.map(|w| w.max(0.0));
        let sum: f64 = clamped.iter().sum();
        let fractions = if sum <= 0.0 {
            [0.2; 5]
        } else {
            [
                clamped[0] / sum,
                clamped[1] / sum,
                clamped[2] / sum,
                clamped[3] / sum,
                clamped[4] / sum,
            ]
        };
        StageProfile { fractions }
    }

    /// The characteristic stage split for an interaction primitive.
    pub fn for_interaction(interaction: Interaction) -> Self {
        match interaction {
            // Loads parse and build the page: style resolution and layout dominate.
            Interaction::Load => StageProfile::new([0.25, 0.22, 0.30, 0.13, 0.10]),
            // Taps run application logic, then a moderate re-render.
            Interaction::Tap => StageProfile::new([0.45, 0.15, 0.20, 0.10, 0.10]),
            // Moves mostly re-composite already painted layers.
            Interaction::Move => StageProfile::new([0.15, 0.05, 0.10, 0.25, 0.45]),
            // Submissions behave like taps with a slightly heavier callback.
            Interaction::Submit => StageProfile::new([0.50, 0.15, 0.15, 0.10, 0.10]),
        }
    }

    /// The fraction of the event's demand attributed to `stage`.
    pub fn fraction(&self, stage: RenderStage) -> f64 {
        self.fractions[stage as usize]
    }
}

/// The rendering pipeline simulator.
///
/// # Examples
///
/// ```
/// use pes_acmp::{CpuDemand, Platform};
/// use pes_acmp::units::{CpuCycles, TimeUs};
/// use pes_dom::Interaction;
/// use pes_webrt::RenderPipeline;
///
/// let platform = Platform::exynos_5410();
/// let pipeline = RenderPipeline::new();
/// let demand = CpuDemand::new(TimeUs::from_millis(5), CpuCycles::new(100_000_000));
/// let (busy, frame_ready_at) = pipeline.execute_timing(
///     &demand,
///     Interaction::Tap,
///     &platform.max_performance_config(),
///     TimeUs::from_millis(10),
/// );
/// assert!(busy > TimeUs::ZERO);
/// assert_eq!(frame_ready_at, TimeUs::from_millis(10) + busy);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RenderPipeline {
    _private: (),
}

impl RenderPipeline {
    /// Creates a pipeline simulator.
    pub fn new() -> Self {
        RenderPipeline { _private: () }
    }

    /// Runs an event's demand through the five pipeline stages on a single
    /// configuration, starting at `start`, and returns the `(busy time,
    /// frame-ready instant)`. Each stage's share of the demand is timed on
    /// its own and the stages run back to back, so the busy time is the sum
    /// of the per-stage times, which can differ from the time of the whole
    /// demand by per-stage rounding.
    pub fn execute_timing(
        &self,
        demand: &CpuDemand,
        interaction: Interaction,
        config: &AcmpConfig,
        start: TimeUs,
    ) -> (TimeUs, TimeUs) {
        let profile = StageProfile::for_interaction(interaction);
        let mut cursor = start;
        for stage in RenderStage::ALL {
            let stage_demand = demand.scale(profile.fraction(stage));
            cursor += stage_demand.time_on(config);
        }
        (cursor - start, cursor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pes_acmp::units::CpuCycles;
    use pes_acmp::Platform;

    fn fixture() -> (Platform, CpuDemand) {
        (
            Platform::exynos_5410(),
            CpuDemand::new(TimeUs::from_millis(10), CpuCycles::new(200_000_000)),
        )
    }

    /// The staged walk `execute_timing` folds: each stage's `(start,
    /// duration)` in pipeline order.
    fn staged(
        demand: &CpuDemand,
        interaction: Interaction,
        config: &AcmpConfig,
        start: TimeUs,
    ) -> Vec<(TimeUs, TimeUs)> {
        let profile = StageProfile::for_interaction(interaction);
        let mut cursor = start;
        RenderStage::ALL
            .iter()
            .map(|&stage| {
                let duration = demand.scale(profile.fraction(stage)).time_on(config);
                cursor += duration;
                (cursor - duration, duration)
            })
            .collect()
    }

    #[test]
    fn profiles_are_normalised_for_every_interaction() {
        for interaction in Interaction::ALL {
            let p = StageProfile::for_interaction(interaction);
            let total: f64 = RenderStage::ALL.iter().map(|s| p.fraction(*s)).sum();
            assert!((total - 1.0).abs() < 1e-9, "{interaction}: {total}");
        }
    }

    #[test]
    fn degenerate_profile_weights_fall_back_to_uniform() {
        let p = StageProfile::new([0.0, 0.0, 0.0, 0.0, 0.0]);
        for stage in RenderStage::ALL {
            assert!((p.fraction(stage) - 0.2).abs() < 1e-9);
        }
        let q = StageProfile::new([-1.0, -2.0, 0.0, 0.0, 0.0]);
        let total: f64 = RenderStage::ALL.iter().map(|s| q.fraction(*s)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn interaction_profiles_have_their_characteristic_shape() {
        let load = StageProfile::for_interaction(Interaction::Load);
        assert!(load.fraction(RenderStage::Layout) > load.fraction(RenderStage::Composite));
        let tap = StageProfile::for_interaction(Interaction::Tap);
        assert!(tap.fraction(RenderStage::Callback) >= 0.4);
        let mv = StageProfile::for_interaction(Interaction::Move);
        assert!(mv.fraction(RenderStage::Composite) > mv.fraction(RenderStage::Callback));
    }

    #[test]
    fn execution_stages_are_contiguous_and_ordered() {
        let (platform, demand) = fixture();
        let cfg = platform.max_performance_config();
        let start = TimeUs::from_millis(3);
        let stages = staged(&demand, Interaction::Load, &cfg, start);
        assert_eq!(stages.len(), 5);
        assert_eq!(stages[0].0, start);
        for w in stages.windows(2) {
            assert_eq!(w[0].0 + w[0].1, w[1].0);
        }
        let (busy, ready) =
            RenderPipeline::new().execute_timing(&demand, Interaction::Load, &cfg, start);
        let last = stages.last().unwrap();
        assert_eq!(ready, last.0 + last.1);
        assert_eq!(busy + start, ready);
    }

    #[test]
    fn execute_timing_matches_the_staged_execution_exactly() {
        let (platform, demand) = fixture();
        let pipeline = RenderPipeline::new();
        for interaction in Interaction::ALL {
            for cfg in platform.configs() {
                let start = TimeUs::from_micros(12_345);
                let stages = staged(&demand, interaction, cfg, start);
                let (busy, ready) = pipeline.execute_timing(&demand, interaction, cfg, start);
                let staged_busy: TimeUs = stages.iter().map(|s| s.1).sum();
                let last = stages.last().unwrap();
                assert_eq!(busy, staged_busy, "{interaction} on {cfg}");
                assert_eq!(ready, last.0 + last.1, "{interaction} on {cfg}");
            }
        }
    }

    #[test]
    fn faster_configs_finish_the_pipeline_sooner() {
        let (platform, demand) = fixture();
        let pipeline = RenderPipeline::new();
        let (_, fast) = pipeline.execute_timing(
            &demand,
            Interaction::Tap,
            &platform.max_performance_config(),
            TimeUs::ZERO,
        );
        let (_, slow) = pipeline.execute_timing(
            &demand,
            Interaction::Tap,
            &platform.min_power_config(),
            TimeUs::ZERO,
        );
        assert!(fast < slow);
    }
}
