//! The display refresh (VSync) clock.
//!
//! Frames produced by the rendering engine are only shown at the next display
//! refresh, which arrives at 60 Hz on the mobile devices the paper targets
//! (Sec. 2, Fig. 1). The event latency therefore includes an idle period
//! between frame readiness and the next VSync. Time zero is a VSync, so the
//! refresh a frame is shown at is one `div_ceil` against absolute time
//! ([`VsyncClock::next_refresh_at_or_after`]).

use pes_acmp::units::TimeUs;

/// A fixed-rate VSync clock.
///
/// # Examples
///
/// ```
/// use pes_webrt::VsyncClock;
/// use pes_acmp::units::TimeUs;
///
/// let clock = VsyncClock::sixty_hz();
/// // A frame ready at 20 ms is displayed at the second refresh (~33.3 ms).
/// let shown = clock.next_refresh_at_or_after(TimeUs::from_millis(20));
/// assert_eq!(shown.as_micros(), 33_334);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VsyncClock {
    period: TimeUs,
}

impl VsyncClock {
    /// The 60 Hz clock used by most mobile displays (16.667 ms period).
    pub fn sixty_hz() -> Self {
        VsyncClock {
            period: TimeUs::from_micros(16_667),
        }
    }

    /// A clock with an arbitrary refresh period.
    ///
    /// # Panics
    ///
    /// Panics if the period is zero.
    pub fn with_period(period: TimeUs) -> Self {
        assert!(!period.is_zero(), "vsync period must be non-zero");
        VsyncClock { period }
    }

    /// The refresh period.
    pub fn period(&self) -> TimeUs {
        self.period
    }

    /// The first VSync instant at or after `t`. A frame that becomes ready
    /// exactly on a VSync is shown at that VSync.
    pub fn next_refresh_at_or_after(&self, t: TimeUs) -> TimeUs {
        let period = self.period.as_micros();
        let ticks = t.as_micros().div_ceil(period);
        TimeUs::from_micros(ticks * period)
    }
}

impl Default for VsyncClock {
    fn default() -> Self {
        VsyncClock::sixty_hz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixty_hz_period_and_rate() {
        let c = VsyncClock::sixty_hz();
        assert_eq!(c.period(), TimeUs::from_micros(16_667));
        assert_eq!(c, VsyncClock::default());
    }

    #[test]
    fn frame_on_the_boundary_is_shown_immediately() {
        let c = VsyncClock::with_period(TimeUs::from_millis(10));
        assert_eq!(
            c.next_refresh_at_or_after(TimeUs::from_millis(30)),
            TimeUs::from_millis(30)
        );
    }

    #[test]
    fn frame_between_boundaries_waits_for_the_next_one() {
        let c = VsyncClock::with_period(TimeUs::from_millis(10));
        assert_eq!(
            c.next_refresh_at_or_after(TimeUs::from_millis(31)),
            TimeUs::from_millis(40)
        );
    }

    #[test]
    fn time_zero_is_a_refresh() {
        let c = VsyncClock::sixty_hz();
        assert_eq!(c.next_refresh_at_or_after(TimeUs::ZERO), TimeUs::ZERO);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_period_panics() {
        let _ = VsyncClock::with_period(TimeUs::ZERO);
    }
}
