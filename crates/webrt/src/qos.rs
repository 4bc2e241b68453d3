//! QoS targets (deadlines) per interaction primitive.
//!
//! Sec. 4.2 of the paper uses 3 s for *load*, 300 ms for *tap* and 33 ms for
//! *move* as the maximally tolerable delays; exceeding the target counts as a
//! QoS violation (Sec. 6.1).

use pes_acmp::units::TimeUs;
use pes_dom::{EventType, Interaction};

/// The per-interaction QoS targets used to derive event deadlines.
///
/// # Examples
///
/// ```
/// use pes_webrt::QosPolicy;
/// use pes_dom::{EventType, Interaction};
///
/// let policy = QosPolicy::paper_defaults();
/// assert_eq!(policy.target(Interaction::Tap).as_millis_f64(), 300.0);
/// assert_eq!(policy.target_for_event(EventType::Scroll).as_millis_f64(), 33.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QosPolicy {
    load: TimeUs,
    tap: TimeUs,
    mv: TimeUs,
    submit: TimeUs,
}

impl QosPolicy {
    /// The targets used throughout the paper: 3 s / 300 ms / 33 ms for
    /// load / tap / move. Form submission behaves like a tap followed by a
    /// navigation; the paper's example treats it as a regular interactive
    /// event, so it inherits the tap target.
    pub fn paper_defaults() -> Self {
        QosPolicy {
            load: TimeUs::from_secs(3),
            tap: TimeUs::from_millis(300),
            mv: TimeUs::from_millis(33),
            submit: TimeUs::from_millis(300),
        }
    }

    /// Creates a policy with explicit targets.
    pub fn new(load: TimeUs, tap: TimeUs, mv: TimeUs, submit: TimeUs) -> Self {
        QosPolicy {
            load,
            tap,
            mv,
            submit,
        }
    }

    /// The QoS target for an interaction primitive.
    pub fn target(&self, interaction: Interaction) -> TimeUs {
        match interaction {
            Interaction::Load => self.load,
            Interaction::Tap => self.tap,
            Interaction::Move => self.mv,
            Interaction::Submit => self.submit,
        }
    }

    /// The QoS target for a concrete DOM event type.
    pub fn target_for_event(&self, event: EventType) -> TimeUs {
        self.target(event.interaction())
    }
}

impl Default for QosPolicy {
    fn default() -> Self {
        QosPolicy::paper_defaults()
    }
}

/// The outcome of one event execution with respect to its QoS target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QosOutcome {
    /// When the user triggered the interaction.
    pub triggered_at: TimeUs,
    /// When the resulting frame was displayed (aligned to a VSync).
    pub displayed_at: TimeUs,
    /// The event's QoS target.
    pub target: TimeUs,
}

impl QosOutcome {
    /// The user-perceived event latency (Fig. 1): display time minus trigger
    /// time. Zero when the frame was displayed before the trigger (possible
    /// only for perfectly speculated events).
    pub fn latency(&self) -> TimeUs {
        self.displayed_at.saturating_sub(self.triggered_at)
    }

    /// Whether the event violated its QoS target.
    pub fn violated(&self) -> bool {
        self.latency() > self.target
    }

    /// The remaining slack (target minus latency), or zero when violated.
    pub fn slack(&self) -> TimeUs {
        self.target.saturating_sub(self.latency())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_4_2() {
        let p = QosPolicy::paper_defaults();
        assert_eq!(p.target(Interaction::Load), TimeUs::from_secs(3));
        assert_eq!(p.target(Interaction::Tap), TimeUs::from_millis(300));
        assert_eq!(p.target(Interaction::Move), TimeUs::from_millis(33));
        assert_eq!(p, QosPolicy::default());
    }

    #[test]
    fn event_types_inherit_their_interaction_target() {
        let p = QosPolicy::paper_defaults();
        assert_eq!(
            p.target_for_event(EventType::Click),
            p.target(Interaction::Tap)
        );
        assert_eq!(
            p.target_for_event(EventType::TouchMove),
            p.target(Interaction::Move)
        );
        assert_eq!(
            p.target_for_event(EventType::Load),
            p.target(Interaction::Load)
        );
        assert_eq!(
            p.target_for_event(EventType::Navigate),
            p.target(Interaction::Load)
        );
    }

    #[test]
    fn outcome_latency_violation_and_slack() {
        let ok = QosOutcome {
            triggered_at: TimeUs::from_millis(100),
            displayed_at: TimeUs::from_millis(350),
            target: TimeUs::from_millis(300),
        };
        assert_eq!(ok.latency(), TimeUs::from_millis(250));
        assert!(!ok.violated());
        assert_eq!(ok.slack(), TimeUs::from_millis(50));

        let violated = QosOutcome {
            triggered_at: TimeUs::from_millis(100),
            displayed_at: TimeUs::from_millis(500),
            target: TimeUs::from_millis(300),
        };
        assert!(violated.violated());
        assert_eq!(violated.slack(), TimeUs::ZERO);
    }

    #[test]
    fn speculated_frames_can_have_zero_latency() {
        let o = QosOutcome {
            triggered_at: TimeUs::from_millis(200),
            displayed_at: TimeUs::from_millis(150),
            target: TimeUs::from_millis(33),
        };
        assert_eq!(o.latency(), TimeUs::ZERO);
        assert!(!o.violated());
    }
}
