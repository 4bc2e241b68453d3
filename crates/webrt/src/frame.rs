//! Frames: the output of one event's rendering pipeline.
//!
//! Under PES a frame can be *speculative* — produced ahead of its triggering
//! input and parked in the Pending Frame Buffer until the input arrives and
//! either commits or squashes it (Sec. 5.1, Sec. 5.4).

use pes_acmp::units::TimeUs;

use crate::event::EventId;

/// The lifecycle state of a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameState {
    /// The frame is ready but waiting for its (predicted) input to arrive.
    Pending,
    /// The frame was committed to the display at the contained time.
    Committed(TimeUs),
    /// The frame was squashed (its predicted event never happened).
    Squashed(TimeUs),
}

/// A rendered frame.
///
/// # Examples
///
/// ```
/// use pes_webrt::{EventId, Frame};
/// use pes_acmp::units::TimeUs;
///
/// let mut frame = Frame::speculative(EventId::new(4), TimeUs::from_millis(120));
/// assert!(frame.is_pending());
/// frame.commit(TimeUs::from_millis(150));
/// assert!(frame.is_committed());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    event: EventId,
    ready_at: TimeUs,
    speculative: bool,
    state: FrameState,
}

impl Frame {
    /// A frame produced for an event that had already been triggered.
    pub fn committed_work(event: EventId, ready_at: TimeUs) -> Self {
        Frame {
            event,
            ready_at,
            speculative: false,
            state: FrameState::Pending,
        }
    }

    /// A frame produced speculatively for a predicted event.
    pub fn speculative(event: EventId, ready_at: TimeUs) -> Self {
        Frame {
            event,
            ready_at,
            speculative: true,
            state: FrameState::Pending,
        }
    }

    /// The event this frame answers.
    pub fn event(&self) -> EventId {
        self.event
    }

    /// When the rendering pipeline finished producing the frame.
    pub fn ready_at(&self) -> TimeUs {
        self.ready_at
    }

    /// Whether the frame was produced speculatively.
    pub fn is_speculative(&self) -> bool {
        self.speculative
    }

    /// Whether the frame is still waiting in the Pending Frame Buffer.
    pub fn is_pending(&self) -> bool {
        matches!(self.state, FrameState::Pending)
    }

    /// Whether the frame was committed to the display.
    pub fn is_committed(&self) -> bool {
        matches!(self.state, FrameState::Committed(_))
    }

    /// Whether the frame was squashed.
    pub fn is_squashed(&self) -> bool {
        matches!(self.state, FrameState::Squashed(_))
    }

    /// The frame's lifecycle state.
    pub fn state(&self) -> FrameState {
        self.state
    }

    /// Commits the frame to the display at time `at`.
    pub fn commit(&mut self, at: TimeUs) {
        self.state = FrameState::Committed(at);
    }

    /// Squashes the frame at time `at`.
    pub fn squash(&mut self, at: TimeUs) {
        self.state = FrameState::Squashed(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_transitions() {
        let mut f = Frame::speculative(EventId::new(1), TimeUs::from_millis(10));
        assert!(f.is_pending());
        assert!(f.is_speculative());
        assert!(!f.is_committed());
        f.commit(TimeUs::from_millis(20));
        assert!(f.is_committed());
        assert_eq!(f.state(), FrameState::Committed(TimeUs::from_millis(20)));

        let mut g = Frame::committed_work(EventId::new(2), TimeUs::from_millis(5));
        assert!(!g.is_speculative());
        g.squash(TimeUs::from_millis(6));
        assert!(g.is_squashed());
    }

    #[test]
    fn accessors() {
        let f = Frame::speculative(EventId::new(9), TimeUs::from_millis(33));
        assert_eq!(f.event(), EventId::new(9));
        assert_eq!(f.ready_at(), TimeUs::from_millis(33));
    }
}
