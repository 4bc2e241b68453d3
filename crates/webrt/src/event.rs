//! Web application events: the unit of scheduling in the paper.
//!
//! A user interaction is translated into a DOM event whose callback plus
//! rendering work forms one schedulable unit with a compute demand and a QoS
//! deadline (Sec. 2, Fig. 1).

use std::fmt;

use pes_acmp::units::TimeUs;
use pes_acmp::CpuDemand;
use pes_dom::{EventType, NodeId};

/// A monotonically increasing event identifier, unique within one trace.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(u64);

impl EventId {
    /// Creates an event id from a raw value.
    pub const fn new(raw: u64) -> Self {
        EventId(raw)
    }

    /// The raw value.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// The id following this one.
    pub fn next(self) -> EventId {
        EventId(self.0 + 1)
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "E{}", self.0)
    }
}

/// One application event: the triggering interaction, its DOM target, when
/// the user generated it, and the compute demand of its callback plus
/// rendering pipeline.
///
/// # Examples
///
/// ```
/// use pes_webrt::{EventId, WebEvent};
/// use pes_acmp::CpuDemand;
/// use pes_acmp::units::{CpuCycles, TimeUs};
/// use pes_dom::EventType;
///
/// let ev = WebEvent::new(
///     EventId::new(0),
///     EventType::Click,
///     None,
///     TimeUs::from_millis(100),
///     CpuDemand::new(TimeUs::from_millis(5), CpuCycles::new(60_000_000)),
/// );
/// assert!(ev.event_type().is_tap());
/// assert_eq!(ev.arrival(), TimeUs::from_millis(100));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WebEvent {
    id: EventId,
    event_type: EventType,
    target: Option<NodeId>,
    arrival: TimeUs,
    demand: CpuDemand,
}

impl WebEvent {
    /// Creates an event.
    pub fn new(
        id: EventId,
        event_type: EventType,
        target: Option<NodeId>,
        arrival: TimeUs,
        demand: CpuDemand,
    ) -> Self {
        WebEvent {
            id,
            event_type,
            target,
            arrival,
            demand,
        }
    }

    /// The event identifier.
    pub fn id(&self) -> EventId {
        self.id
    }

    /// The DOM event type.
    pub fn event_type(&self) -> EventType {
        self.event_type
    }

    /// The DOM node the event targets (`None` for document-level events).
    pub fn target(&self) -> Option<NodeId> {
        self.target
    }

    /// When the user generated the interaction.
    pub fn arrival(&self) -> TimeUs {
        self.arrival
    }

    /// The compute demand of the callback plus rendering pipeline.
    pub fn demand(&self) -> CpuDemand {
        self.demand
    }
}

impl fmt::Display for WebEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} @ {}", self.id, self.event_type, self.arrival)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pes_acmp::units::CpuCycles;

    fn sample_event() -> WebEvent {
        WebEvent::new(
            EventId::new(3),
            EventType::Scroll,
            None,
            TimeUs::from_millis(250),
            CpuDemand::new(TimeUs::from_millis(2), CpuCycles::new(10_000_000)),
        )
    }

    #[test]
    fn event_id_ordering_and_next() {
        assert!(EventId::new(1) < EventId::new(2));
        assert_eq!(EventId::new(1).next(), EventId::new(2));
        assert_eq!(EventId::new(7).get(), 7);
        assert_eq!(EventId::new(7).to_string(), "E7");
    }

    #[test]
    fn accessors_round_trip() {
        let ev = sample_event();
        assert_eq!(ev.id(), EventId::new(3));
        assert_eq!(ev.event_type(), EventType::Scroll);
        assert_eq!(ev.target(), None);
        assert_eq!(ev.arrival(), TimeUs::from_millis(250));
        assert_eq!(ev.demand().t_mem(), TimeUs::from_millis(2));
    }

    #[test]
    fn display_is_readable() {
        let ev = sample_event();
        let s = ev.to_string();
        assert!(s.contains("E3"));
        assert!(s.contains("onscroll"));
    }
}
