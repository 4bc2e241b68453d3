//! The DOM-level event vocabulary shared by the whole reproduction.
//!
//! The paper focuses on the three primitive mobile-Web interactions — *load*,
//! *tap* and *move* — plus the form-submission events that appear in its
//! running example (Sec. 2, Sec. 5.1). Different concrete DOM events can be
//! manifestations of the same primitive interaction (e.g. `click` and
//! `touchstart` are both "tap", Sec. 5.5), which is captured by
//! [`EventType::interaction`].

use std::fmt;

/// A user-visible interaction primitive (Sec. 5.5: loading, tapping, moving,
/// plus submit as the form-completion action used in the Sec. 5.1 example).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Interaction {
    /// Page loading / navigation.
    Load,
    /// Discrete pointer interactions (click, touchstart).
    Tap,
    /// Continuous pointer interactions (scroll, touchmove).
    Move,
    /// Form submission.
    Submit,
}

impl Interaction {
    /// All interaction primitives.
    pub const ALL: [Interaction; 4] = [
        Interaction::Load,
        Interaction::Tap,
        Interaction::Move,
        Interaction::Submit,
    ];
}

impl fmt::Display for Interaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Interaction::Load => "load",
            Interaction::Tap => "tap",
            Interaction::Move => "move",
            Interaction::Submit => "submit",
        };
        f.write_str(s)
    }
}

/// A concrete DOM event type that application code can register a listener
/// for and that the predictor learns to anticipate.
///
/// # Examples
///
/// ```
/// use pes_dom::events::{EventType, Interaction};
///
/// assert_eq!(EventType::Click.interaction(), Interaction::Tap);
/// assert_eq!(EventType::TouchMove.interaction(), Interaction::Move);
/// assert!(EventType::Load.is_navigation());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventType {
    /// Initial page load (`onload`).
    Load,
    /// Navigation to a new page within the application.
    Navigate,
    /// Mouse / synthetic click (`onclick`).
    Click,
    /// Touch press (`touchstart`).
    TouchStart,
    /// Continuous touch movement (`touchmove`).
    TouchMove,
    /// Scroll (`onscroll`).
    Scroll,
    /// Form submission (`onsubmit`).
    Submit,
}

impl EventType {
    /// All DOM event types known to the model, in a stable order that the
    /// predictor uses as its class indices.
    pub const ALL: [EventType; 7] = [
        EventType::Load,
        EventType::Navigate,
        EventType::Click,
        EventType::TouchStart,
        EventType::TouchMove,
        EventType::Scroll,
        EventType::Submit,
    ];

    /// The dense class index of this event type (stable across runs; used by
    /// the logistic-regression predictor).
    pub fn class_index(self) -> usize {
        EventType::ALL
            .iter()
            .position(|e| *e == self)
            .expect("every event type is in ALL")
    }

    /// Reconstructs an event type from its class index.
    pub fn from_class_index(index: usize) -> Option<EventType> {
        EventType::ALL.get(index).copied()
    }

    /// The interaction primitive this event type is a manifestation of.
    pub fn interaction(self) -> Interaction {
        match self {
            EventType::Load | EventType::Navigate => Interaction::Load,
            EventType::Click | EventType::TouchStart => Interaction::Tap,
            EventType::TouchMove | EventType::Scroll => Interaction::Move,
            EventType::Submit => Interaction::Submit,
        }
    }

    /// Whether this event navigates to (or loads) a new document.
    pub fn is_navigation(self) -> bool {
        matches!(self, EventType::Load | EventType::Navigate)
    }

    /// Whether this event is a discrete pointer interaction ("tap").
    pub fn is_tap(self) -> bool {
        self.interaction() == Interaction::Tap
    }

    /// Whether this event is a continuous pointer interaction ("move").
    pub fn is_move(self) -> bool {
        self.interaction() == Interaction::Move
    }
}

impl fmt::Display for EventType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EventType::Load => "onload",
            EventType::Navigate => "navigate",
            EventType::Click => "onclick",
            EventType::TouchStart => "touchstart",
            EventType::TouchMove => "touchmove",
            EventType::Scroll => "onscroll",
            EventType::Submit => "onsubmit",
        };
        f.write_str(s)
    }
}

/// A compact set of [`EventType`]s (one bit per class index).
///
/// The predictor masks its candidate classes with the types present in the
/// Likely-Next-Event-Set on every step of every prediction round; carrying
/// the set as a bitmask keeps that hot path allocation-free.
///
/// # Examples
///
/// ```
/// use pes_dom::{EventType, EventTypeSet};
///
/// let mut set = EventTypeSet::EMPTY;
/// set.insert(EventType::Click);
/// assert!(set.contains(EventType::Click));
/// assert!(!set.contains(EventType::Scroll));
/// assert_eq!(set.iter().collect::<Vec<_>>(), vec![EventType::Click]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct EventTypeSet(u8);

impl EventTypeSet {
    /// The empty set.
    pub const EMPTY: EventTypeSet = EventTypeSet(0);

    /// The set containing every event type. (`u8::MAX >> (8 - len)` rather
    /// than `(1 << len) - 1` so the mask only fails to compile when the
    /// event vocabulary genuinely outgrows the `u8` — at 9 variants, not 8.)
    pub const ALL: EventTypeSet = EventTypeSet(u8::MAX >> (8 - EventType::ALL.len()));

    /// Adds an event type to the set.
    pub fn insert(&mut self, event: EventType) {
        self.0 |= 1 << event.class_index();
    }

    /// Whether the set contains the event type.
    pub fn contains(self, event: EventType) -> bool {
        self.0 & (1 << event.class_index()) != 0
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of event types in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// The member types in class-index order.
    pub fn iter(self) -> impl Iterator<Item = EventType> {
        EventType::ALL
            .into_iter()
            .filter(move |e| self.contains(*e))
    }
}

impl FromIterator<EventType> for EventTypeSet {
    fn from_iter<I: IntoIterator<Item = EventType>>(iter: I) -> Self {
        let mut set = EventTypeSet::EMPTY;
        for e in iter {
            set.insert(e);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn class_indices_are_dense_and_stable() {
        let mut seen = HashSet::new();
        for (i, e) in EventType::ALL.iter().enumerate() {
            assert_eq!(e.class_index(), i);
            assert_eq!(EventType::from_class_index(i), Some(*e));
            assert!(seen.insert(i));
        }
        assert_eq!(EventType::from_class_index(EventType::ALL.len()), None);
    }

    #[test]
    fn interaction_mapping_matches_the_paper() {
        assert_eq!(EventType::Click.interaction(), Interaction::Tap);
        assert_eq!(EventType::TouchStart.interaction(), Interaction::Tap);
        assert_eq!(EventType::Scroll.interaction(), Interaction::Move);
        assert_eq!(EventType::TouchMove.interaction(), Interaction::Move);
        assert_eq!(EventType::Load.interaction(), Interaction::Load);
        assert_eq!(EventType::Navigate.interaction(), Interaction::Load);
        assert_eq!(EventType::Submit.interaction(), Interaction::Submit);
    }

    #[test]
    fn navigation_and_network_side_effect_flags() {
        assert!(EventType::Load.is_navigation());
        assert!(EventType::Navigate.is_navigation());
        assert!(!EventType::Click.is_navigation());
    }

    #[test]
    fn tap_and_move_classification() {
        assert!(EventType::Click.is_tap());
        assert!(!EventType::Click.is_move());
        assert!(EventType::Scroll.is_move());
        assert!(!EventType::Scroll.is_tap());
    }

    #[test]
    fn display_names_are_dom_like() {
        assert_eq!(EventType::Click.to_string(), "onclick");
        assert_eq!(EventType::Submit.to_string(), "onsubmit");
        assert_eq!(Interaction::Tap.to_string(), "tap");
    }

    #[test]
    fn event_type_set_behaves_like_a_set() {
        let mut set = EventTypeSet::EMPTY;
        assert!(set.is_empty());
        assert_eq!(set.len(), 0);
        set.insert(EventType::Scroll);
        set.insert(EventType::Scroll);
        set.insert(EventType::Navigate);
        assert_eq!(set.len(), 2);
        assert!(set.contains(EventType::Scroll));
        assert!(!set.contains(EventType::Click));
        // Iteration is in class-index order, mirroring `EventType::ALL`.
        assert_eq!(
            set.iter().collect::<Vec<_>>(),
            vec![EventType::Navigate, EventType::Scroll]
        );
        assert_eq!(EventTypeSet::ALL.len(), EventType::ALL.len());
        let collected: EventTypeSet = EventType::ALL.into_iter().collect();
        assert_eq!(collected, EventTypeSet::ALL);
    }
}
