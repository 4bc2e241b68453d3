//! Per-event compute-demand modelling.
//!
//! Each event's callback-plus-rendering work is characterised by the Eqn. 1
//! demand (memory time plus A7-equivalent CPU cycles). The ranges below are
//! calibrated so that, on the Exynos 5410 model, most taps need a mid-range
//! configuration to meet their 300 ms target, most moves are tight against
//! their 33 ms target, loads occupy the runtime for 0.5–3 s, and a small
//! per-app heavy tail produces the Type I events of Sec. 4.3 that no
//! configuration can serve in time.

use rand::Rng;

use pes_acmp::units::{CpuCycles, TimeUs};
use pes_acmp::CpuDemand;
use pes_dom::{EventType, Interaction};

use crate::app::AppProfile;

/// Demand ranges for one interaction class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DemandRange {
    /// Minimum memory time in microseconds.
    pub t_mem_min_us: u64,
    /// Maximum memory time in microseconds.
    pub t_mem_max_us: u64,
    /// Minimum A7-equivalent cycles, in millions.
    pub mcycles_min: u64,
    /// Maximum A7-equivalent cycles, in millions.
    pub mcycles_max: u64,
    /// Multiplier applied to the cycle count for heavy-tail samples.
    pub heavy_multiplier: f64,
}

/// Deterministic-given-RNG demand sampler.
///
/// # Examples
///
/// ```
/// use pes_workload::{AppCatalog, DemandModel};
/// use pes_dom::EventType;
/// use rand::SeedableRng;
///
/// let catalog = AppCatalog::paper_suite();
/// let cnn = catalog.find("cnn").unwrap();
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
/// let model = DemandModel::paper_defaults();
/// let demand = model.sample(&mut rng, cnn, EventType::Click);
/// assert!(demand.ref_cycles().get() > 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DemandModel {
    load: DemandRange,
    tap: DemandRange,
    mv: DemandRange,
    submit: DemandRange,
}

impl DemandModel {
    /// The default calibration described in the module documentation.
    pub fn paper_defaults() -> Self {
        DemandModel {
            load: DemandRange {
                t_mem_min_us: 150_000,
                t_mem_max_us: 400_000,
                mcycles_min: 1_200,
                mcycles_max: 3_500,
                heavy_multiplier: 3.0,
            },
            tap: DemandRange {
                t_mem_min_us: 5_000,
                t_mem_max_us: 20_000,
                mcycles_min: 150,
                mcycles_max: 600,
                heavy_multiplier: 2.6,
            },
            mv: DemandRange {
                t_mem_min_us: 1_000,
                t_mem_max_us: 3_000,
                mcycles_min: 8,
                mcycles_max: 40,
                heavy_multiplier: 2.5,
            },
            submit: DemandRange {
                t_mem_min_us: 8_000,
                t_mem_max_us: 25_000,
                mcycles_min: 200,
                mcycles_max: 700,
                heavy_multiplier: 2.4,
            },
        }
    }

    /// The demand range for an interaction class.
    pub fn range(&self, interaction: Interaction) -> &DemandRange {
        match interaction {
            Interaction::Load => &self.load,
            Interaction::Tap => &self.tap,
            Interaction::Move => &self.mv,
            Interaction::Submit => &self.submit,
        }
    }

    /// Samples the demand of one event of type `event_type` for application
    /// `app`, using `rng` for all randomness.
    pub fn sample<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        app: &AppProfile,
        event_type: EventType,
    ) -> CpuDemand {
        let range = self.range(event_type.interaction());
        // Navigations within an application are lighter than the initial load.
        let nav_scale = if event_type == EventType::Navigate {
            0.7
        } else {
            1.0
        };
        let t_mem = rng.gen_range(range.t_mem_min_us..=range.t_mem_max_us);
        let mcycles = rng.gen_range(range.mcycles_min..=range.mcycles_max) as f64;
        let heavy = rng.gen_bool(app.heavy_tail_prob());
        let multiplier = if heavy { range.heavy_multiplier } else { 1.0 };
        let cycles = mcycles * 1.0e6 * app.compute_intensity() * multiplier * nav_scale;
        CpuDemand::new(
            TimeUs::from_micros((t_mem as f64 * nav_scale) as u64),
            CpuCycles::new(cycles.round() as u64),
        )
    }
}

impl Default for DemandModel {
    fn default() -> Self {
        DemandModel::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::AppCatalog;
    use pes_acmp::{DvfsLadder, Platform};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn sample_many(app: &str, event: EventType, n: usize) -> Vec<CpuDemand> {
        let catalog = AppCatalog::paper_suite();
        let app = catalog.find(app).unwrap();
        let model = DemandModel::paper_defaults();
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        (0..n).map(|_| model.sample(&mut rng, app, event)).collect()
    }

    #[test]
    fn sampling_is_deterministic_given_the_seed() {
        let a = sample_many("cnn", EventType::Click, 20);
        let b = sample_many("cnn", EventType::Click, 20);
        assert_eq!(a, b);
    }

    #[test]
    fn loads_are_much_heavier_than_moves() {
        let loads = sample_many("bbc", EventType::Load, 50);
        let moves = sample_many("bbc", EventType::Scroll, 50);
        let avg = |v: &[CpuDemand]| {
            v.iter().map(|d| d.ref_cycles().get() as f64).sum::<f64>() / v.len() as f64
        };
        assert!(avg(&loads) > 20.0 * avg(&moves));
    }

    #[test]
    fn compute_light_apps_produce_lighter_events() {
        let sina = sample_many("sina", EventType::Click, 200);
        let amazon = sample_many("amazon", EventType::Click, 200);
        let avg = |v: &[CpuDemand]| {
            v.iter().map(|d| d.ref_cycles().get() as f64).sum::<f64>() / v.len() as f64
        };
        assert!(avg(&amazon) > 1.5 * avg(&sina));
    }

    #[test]
    fn most_taps_meet_their_deadline_on_the_fastest_config_but_not_all() {
        // The heavy tail should produce some Type I taps on heavy apps, while
        // the bulk of taps remain servable — the precondition for the Fig. 3
        // event-type distribution.
        let platform = Platform::exynos_5410();
        let plane = DvfsLadder::for_platform(&platform);
        let taps = sample_many("cnn", EventType::Click, 400);
        let budget = TimeUs::from_millis(300);
        let servable = taps
            .iter()
            .filter(|d| plane.cheapest_config_within(d, budget).is_some())
            .count();
        let fraction = servable as f64 / taps.len() as f64;
        assert!(fraction > 0.6, "too many Type I taps: {fraction}");
        assert!(fraction < 1.0, "no Type I taps at all");
    }

    #[test]
    fn most_taps_cannot_be_served_by_the_slowest_config() {
        // If the little cluster at minimum frequency could serve everything,
        // the scheduling problem would be trivial and every scheduler would
        // look identical.
        let platform = Platform::exynos_5410();
        let taps = sample_many("ebay", EventType::Click, 200);
        let slow = platform.min_power_config();
        let budget = TimeUs::from_millis(300);
        let fits_slow = taps.iter().filter(|d| d.time_on(&slow) <= budget).count();
        assert!(
            (fits_slow as f64) < 0.5 * taps.len() as f64,
            "the slowest configuration serves too many taps ({fits_slow}/{})",
            taps.len()
        );
    }

    #[test]
    fn navigations_are_lighter_than_initial_loads() {
        let loads = sample_many("cnn", EventType::Load, 200);
        let navs = sample_many("cnn", EventType::Navigate, 200);
        let avg = |v: &[CpuDemand]| {
            v.iter().map(|d| d.ref_cycles().get() as f64).sum::<f64>() / v.len() as f64
        };
        assert!(avg(&navs) < avg(&loads));
    }

    #[test]
    fn ranges_are_exposed_per_interaction() {
        let m = DemandModel::paper_defaults();
        assert!(m.range(Interaction::Load).mcycles_max > m.range(Interaction::Tap).mcycles_max);
        assert!(m.range(Interaction::Tap).mcycles_max > m.range(Interaction::Move).mcycles_max);
        assert_eq!(m, DemandModel::default());
    }
}
