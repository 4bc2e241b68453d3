//! ACMP platform descriptions: clusters, frequency tables and the derived
//! per-configuration latency/power trade-off space (Sec. 3 and Sec. 4.1).

// Every `expect` in this module restates a construction-time invariant of
// the static device tables: `ClusterSpec::new` / `Platform::new` reject
// empty ladders and empty cluster sets, the Exynos 5410 / TX2 Parker specs
// are compile-time constants validated by tier-1 tests, and throughput /
// power are finite for the positive frequencies those tables contain.
// Converting them to `Result` would force infallible error plumbing onto
// every consumer of the static platforms.
#![allow(clippy::expect_used)]

use crate::config::{AcmpConfig, ConfigId, CoreKind};
use crate::error::AcmpError;
use crate::power::CorePowerParams;
use crate::units::{FreqMhz, PowerMw};

/// One core cluster of an ACMP SoC: a core kind, the number of cores, and the
/// discrete DVFS frequency ladder.
///
/// # Examples
///
/// ```
/// use pes_acmp::platform::ClusterSpec;
/// use pes_acmp::CoreKind;
///
/// let big = ClusterSpec::exynos_big();
/// assert_eq!(big.core_kind(), CoreKind::BigA15);
/// assert_eq!(big.frequencies().len(), 11); // 800..=1800 MHz in 100 MHz steps
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    core_kind: CoreKind,
    core_count: usize,
    frequencies: Vec<FreqMhz>,
    power: CorePowerParams,
}

impl ClusterSpec {
    /// Creates a cluster from an explicit frequency ladder.
    ///
    /// # Errors
    ///
    /// Returns [`AcmpError::InvalidCluster`] if the ladder is empty, contains
    /// duplicates, or is not strictly increasing, or if `core_count` is zero.
    pub fn new(
        core_kind: CoreKind,
        core_count: usize,
        frequencies: Vec<FreqMhz>,
        power: CorePowerParams,
    ) -> Result<Self, AcmpError> {
        if core_count == 0 {
            return Err(AcmpError::InvalidCluster(
                "core_count must be non-zero".into(),
            ));
        }
        if frequencies.is_empty() {
            return Err(AcmpError::InvalidCluster(
                "frequency ladder is empty".into(),
            ));
        }
        if frequencies.windows(2).any(|w| w[0] >= w[1]) {
            return Err(AcmpError::InvalidCluster(
                "frequency ladder must be strictly increasing".into(),
            ));
        }
        Ok(ClusterSpec {
            core_kind,
            core_count,
            frequencies,
            power,
        })
    }

    /// Builds a ladder from `min..=max` MHz with a fixed step.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ClusterSpec::new`]; additionally `step` must be
    /// non-zero and `min <= max`.
    pub fn with_range(
        core_kind: CoreKind,
        core_count: usize,
        min_mhz: u32,
        max_mhz: u32,
        step_mhz: u32,
        power: CorePowerParams,
    ) -> Result<Self, AcmpError> {
        if step_mhz == 0 || min_mhz > max_mhz {
            return Err(AcmpError::InvalidCluster(format!(
                "invalid frequency range {min_mhz}..={max_mhz} step {step_mhz}"
            )));
        }
        let frequencies = (min_mhz..=max_mhz)
            .step_by(step_mhz as usize)
            .map(FreqMhz::new)
            .collect();
        ClusterSpec::new(core_kind, core_count, frequencies, power)
    }

    /// The Exynos 5410 big cluster: four Cortex-A15 cores, 800–1800 MHz in
    /// 100 MHz steps (Sec. 3).
    pub fn exynos_big() -> Self {
        ClusterSpec::with_range(
            CoreKind::BigA15,
            4,
            800,
            1800,
            100,
            CorePowerParams::cortex_a15(),
        )
        .expect("static spec is valid")
    }

    /// The Exynos 5410 LITTLE cluster: four Cortex-A7 cores, 350–600 MHz in
    /// 50 MHz steps (Sec. 3).
    pub fn exynos_little() -> Self {
        ClusterSpec::with_range(
            CoreKind::LittleA7,
            4,
            350,
            600,
            50,
            CorePowerParams::cortex_a7(),
        )
        .expect("static spec is valid")
    }

    /// The TX2 Parker Cortex-A57 cluster used by the Sec. 6.5 "other
    /// devices" study (345–2035 MHz, ~13 operating points).
    pub fn tx2_a57() -> Self {
        let freqs = [
            345, 499, 653, 806, 960, 1113, 1267, 1420, 1574, 1728, 1881, 2035,
        ]
        .into_iter()
        .map(FreqMhz::new)
        .collect();
        ClusterSpec::new(CoreKind::A57, 4, freqs, CorePowerParams::cortex_a57())
            .expect("static spec is valid")
    }

    /// The TX2 Parker Denver 2 cluster.
    pub fn tx2_denver() -> Self {
        let freqs = [345, 499, 806, 1113, 1420, 1728, 2035]
            .into_iter()
            .map(FreqMhz::new)
            .collect();
        ClusterSpec::new(CoreKind::Denver2, 2, freqs, CorePowerParams::denver2())
            .expect("static spec is valid")
    }

    /// The core kind of every core in this cluster.
    pub fn core_kind(&self) -> CoreKind {
        self.core_kind
    }

    /// Number of cores in the cluster.
    pub fn core_count(&self) -> usize {
        self.core_count
    }

    /// The DVFS frequency ladder, strictly increasing.
    pub fn frequencies(&self) -> &[FreqMhz] {
        &self.frequencies
    }

    /// The lowest operating frequency.
    pub fn min_frequency(&self) -> FreqMhz {
        self.frequencies[0]
    }

    /// The highest operating frequency.
    pub fn max_frequency(&self) -> FreqMhz {
        *self.frequencies.last().expect("ladder is non-empty")
    }

    /// The power parameters of this cluster's cores.
    pub fn power_params(&self) -> &CorePowerParams {
        &self.power
    }

    /// The ladder frequency closest to (and not below, when possible) the
    /// requested frequency. Used by the utilisation-driven governors.
    pub fn snap_up(&self, target: FreqMhz) -> FreqMhz {
        self.frequencies
            .iter()
            .copied()
            .find(|f| *f >= target)
            .unwrap_or_else(|| self.max_frequency())
    }

    /// The next frequency below `current` on the ladder, saturating at the bottom.
    pub fn step_down(&self, current: FreqMhz) -> FreqMhz {
        self.frequencies
            .iter()
            .rev()
            .copied()
            .find(|f| *f < current)
            .unwrap_or_else(|| self.min_frequency())
    }
}

/// A full ACMP platform: one or more clusters plus the flattened table of
/// `<core, frequency>` configurations that schedulers pick from.
///
/// # Examples
///
/// ```
/// use pes_acmp::Platform;
///
/// let exynos = Platform::exynos_5410();
/// // 11 big-core operating points + 6 little-core operating points.
/// assert_eq!(exynos.configs().len(), 17);
/// let fastest = exynos.max_performance_config();
/// assert_eq!(fastest.frequency().as_mhz(), 1800);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    name: String,
    clusters: Vec<ClusterSpec>,
    configs: Vec<AcmpConfig>,
    soc_floor_mw: f64,
}

impl Platform {
    /// Creates a platform from a set of clusters.
    ///
    /// # Errors
    ///
    /// Returns [`AcmpError::InvalidCluster`] when no clusters are provided.
    pub fn new(name: impl Into<String>, clusters: Vec<ClusterSpec>) -> Result<Self, AcmpError> {
        if clusters.is_empty() {
            return Err(AcmpError::InvalidCluster(
                "platform needs at least one cluster".into(),
            ));
        }
        let mut configs = Vec::new();
        for cluster in &clusters {
            for &f in cluster.frequencies() {
                configs.push(AcmpConfig::new(cluster.core_kind(), f));
            }
        }
        // Order configurations by effective throughput so that "higher index
        // means higher performance" holds platform-wide; ties broken by power.
        configs.sort_by(|a, b| {
            a.effective_throughput_mhz()
                .partial_cmp(&b.effective_throughput_mhz())
                .expect("throughput is finite")
                .then(a.frequency().cmp(&b.frequency()))
        });
        Ok(Platform {
            name: name.into(),
            clusters,
            configs,
            soc_floor_mw: 140.0,
        })
    }

    /// The always-on SoC floor power.
    pub fn soc_floor_power(&self) -> PowerMw {
        PowerMw::new(self.soc_floor_mw)
    }

    /// The ODROID XU+E / Exynos 5410 platform evaluated in the paper: a
    /// 4×A15 big cluster and a 4×A7 LITTLE cluster.
    pub fn exynos_5410() -> Self {
        Platform::new(
            "Exynos 5410 (ODROID XU+E)",
            vec![ClusterSpec::exynos_big(), ClusterSpec::exynos_little()],
        )
        .expect("static platform is valid")
    }

    /// The NVIDIA TX2 Parker platform used for the Sec. 6.5 "other devices"
    /// sensitivity study (Cortex-A57 DVFS; Denver cluster included).
    pub fn tx2_parker() -> Self {
        Platform::new(
            "NVIDIA TX2 (Parker)",
            vec![ClusterSpec::tx2_a57(), ClusterSpec::tx2_denver()],
        )
        .expect("static platform is valid")
    }

    /// Human-readable platform name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The platform's clusters.
    pub fn clusters(&self) -> &[ClusterSpec] {
        &self.clusters
    }

    /// The cluster hosting a given core kind, if present.
    pub fn cluster_for(&self, kind: CoreKind) -> Option<&ClusterSpec> {
        self.clusters.iter().find(|c| c.core_kind() == kind)
    }

    /// All `<core, frequency>` configurations, ordered by increasing
    /// effective throughput.
    pub fn configs(&self) -> &[AcmpConfig] {
        &self.configs
    }

    /// Looks up a configuration by dense index.
    ///
    /// # Errors
    ///
    /// Returns [`AcmpError::UnknownConfig`] if the index is out of range.
    pub fn config(&self, id: ConfigId) -> Result<&AcmpConfig, AcmpError> {
        self.configs
            .get(id.index())
            .ok_or(AcmpError::UnknownConfig(id.index()))
    }

    /// The dense index of a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`AcmpError::ConfigNotOnPlatform`] if the `<core, frequency>`
    /// tuple is not an operating point of this platform.
    pub fn config_id(&self, cfg: &AcmpConfig) -> Result<ConfigId, AcmpError> {
        self.configs
            .iter()
            .position(|c| c == cfg)
            .map(ConfigId::new)
            .ok_or(AcmpError::ConfigNotOnPlatform(*cfg))
    }

    /// The highest-performance configuration (big core at maximum frequency).
    pub fn max_performance_config(&self) -> AcmpConfig {
        *self.configs.last().expect("platform has configs")
    }

    /// The lowest-power configuration (little core at minimum frequency).
    pub fn min_power_config(&self) -> AcmpConfig {
        *self
            .configs
            .iter()
            .min_by(|a, b| {
                self.active_power(a)
                    .as_milliwatts()
                    .partial_cmp(&self.active_power(b).as_milliwatts())
                    .expect("power is finite")
            })
            .expect("platform has configs")
    }

    /// Active power of one core running at the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration's core kind is not hosted by this
    /// platform; use [`Platform::config_id`] to validate externally produced
    /// configurations first.
    pub fn active_power(&self, cfg: &AcmpConfig) -> PowerMw {
        self.cluster_for(cfg.core())
            .expect("configuration core kind exists on platform")
            .power_params()
            .active_power(cfg.frequency())
    }

    /// Idle power of one core parked at the given configuration.
    ///
    /// # Panics
    ///
    /// Panics under the same condition as [`Platform::active_power`].
    pub fn idle_power(&self, cfg: &AcmpConfig) -> PowerMw {
        self.cluster_for(cfg.core())
            .expect("configuration core kind exists on platform")
            .power_params()
            .idle_power(cfg.frequency())
    }

    /// Baseline idle power of the rest of the SoC while the runtime sits at
    /// configuration `cfg`: the other cluster idles at its lowest operating
    /// point (cores are never switched off, Sec. 4.1).
    pub fn background_idle_power(&self, cfg: &AcmpConfig) -> PowerMw {
        self.clusters
            .iter()
            .filter(|c| c.core_kind() != cfg.core())
            .map(|c| c.power_params().idle_power(c.min_frequency()))
            .fold(self.soc_floor_power(), |acc, p| acc + p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exynos_has_17_operating_points() {
        let p = Platform::exynos_5410();
        assert_eq!(p.configs().len(), 17);
        assert_eq!(
            p.cluster_for(CoreKind::BigA15).unwrap().frequencies().len(),
            11
        );
        assert_eq!(
            p.cluster_for(CoreKind::LittleA7)
                .unwrap()
                .frequencies()
                .len(),
            6
        );
    }

    #[test]
    fn exynos_frequency_bounds_match_the_paper() {
        let p = Platform::exynos_5410();
        let big = p.cluster_for(CoreKind::BigA15).unwrap();
        let little = p.cluster_for(CoreKind::LittleA7).unwrap();
        assert_eq!(big.min_frequency().as_mhz(), 800);
        assert_eq!(big.max_frequency().as_mhz(), 1800);
        assert_eq!(little.min_frequency().as_mhz(), 350);
        assert_eq!(little.max_frequency().as_mhz(), 600);
    }

    #[test]
    fn configs_are_sorted_by_effective_throughput() {
        let p = Platform::exynos_5410();
        let throughputs: Vec<f64> = p
            .configs()
            .iter()
            .map(|c| c.effective_throughput_mhz())
            .collect();
        assert!(throughputs.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(p.max_performance_config().core(), CoreKind::BigA15);
        assert_eq!(p.max_performance_config().frequency().as_mhz(), 1800);
    }

    #[test]
    fn min_power_config_is_little_at_lowest_frequency() {
        let p = Platform::exynos_5410();
        let cfg = p.min_power_config();
        assert_eq!(cfg.core(), CoreKind::LittleA7);
        assert_eq!(cfg.frequency().as_mhz(), 350);
    }

    #[test]
    fn config_id_round_trips() {
        let p = Platform::exynos_5410();
        for (i, cfg) in p.configs().iter().enumerate() {
            let id = p.config_id(cfg).unwrap();
            assert_eq!(id.index(), i);
            assert_eq!(p.config(id).unwrap(), cfg);
        }
        assert!(p.config(ConfigId::new(99)).is_err());
        let foreign = AcmpConfig::new(CoreKind::BigA15, FreqMhz::new(123));
        assert!(p.config_id(&foreign).is_err());
    }

    #[test]
    fn cluster_validation_rejects_bad_ladders() {
        let pw = CorePowerParams::cortex_a7();
        assert!(ClusterSpec::new(CoreKind::LittleA7, 0, vec![FreqMhz::new(350)], pw).is_err());
        assert!(ClusterSpec::new(CoreKind::LittleA7, 4, vec![], pw).is_err());
        assert!(ClusterSpec::new(
            CoreKind::LittleA7,
            4,
            vec![FreqMhz::new(600), FreqMhz::new(350)],
            pw
        )
        .is_err());
        assert!(ClusterSpec::with_range(CoreKind::LittleA7, 4, 600, 350, 50, pw).is_err());
        assert!(ClusterSpec::with_range(CoreKind::LittleA7, 4, 350, 600, 0, pw).is_err());
        assert!(Platform::new("empty", vec![]).is_err());
    }

    #[test]
    fn ladder_navigation() {
        let little = ClusterSpec::exynos_little();
        assert_eq!(little.snap_up(FreqMhz::new(420)).as_mhz(), 450);
        assert_eq!(little.snap_up(FreqMhz::new(1000)).as_mhz(), 600);
        assert_eq!(little.step_down(FreqMhz::new(600)).as_mhz(), 550);
        assert_eq!(little.step_down(FreqMhz::new(350)).as_mhz(), 350);
    }

    #[test]
    fn tx2_platform_exposes_a57_dvfs() {
        let tx2 = Platform::tx2_parker();
        let a57 = tx2.cluster_for(CoreKind::A57).unwrap();
        assert!(a57.frequencies().len() >= 10);
        assert_eq!(a57.max_frequency().as_mhz(), 2035);
        assert!(tx2.configs().len() > 15);
    }

    #[test]
    fn background_idle_power_counts_the_other_cluster() {
        let p = Platform::exynos_5410();
        let on_big = AcmpConfig::new(CoreKind::BigA15, FreqMhz::new(1800));
        let on_little = AcmpConfig::new(CoreKind::LittleA7, FreqMhz::new(600));
        // While running on the big cluster, the background is the idle A7
        // cluster (cheap); while on the little cluster it is the idle A15
        // cluster (more leakage).
        assert!(
            p.background_idle_power(&on_little).as_milliwatts()
                > p.background_idle_power(&on_big).as_milliwatts()
        );
    }

    #[test]
    fn big_configs_dominate_little_configs_in_throughput() {
        let slowest_big = AcmpConfig::new(CoreKind::BigA15, FreqMhz::new(800));
        let fastest_little = AcmpConfig::new(CoreKind::LittleA7, FreqMhz::new(600));
        assert!(slowest_big.effective_throughput_mhz() > fastest_little.effective_throughput_mhz());
    }
}
