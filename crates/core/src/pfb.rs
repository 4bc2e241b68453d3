//! The Pending Frame Buffer (PFB) of the PES control unit (Sec. 5.4).
//!
//! Speculative frames produced for predicted events wait here until the
//! actual user input arrives. A matching input commits the oldest pending
//! frame; a mismatch squashes the entire buffer and reboots prediction. The
//! buffer also records its occupancy over time, which reproduces Fig. 9.

use std::collections::VecDeque;

use pes_dom::EventType;
use pes_webrt::ExecutionRecord;

/// One speculative frame waiting for its input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PendingFrame {
    /// The event type the frame was produced for.
    pub predicted_type: EventType,
    /// The execution that produced the frame.
    pub record: ExecutionRecord,
}

/// The Pending Frame Buffer.
///
/// # Examples
///
/// ```
/// use pes_core::PendingFrameBuffer;
///
/// let pfb = PendingFrameBuffer::new();
/// assert!(pfb.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct PendingFrameBuffer {
    frames: VecDeque<PendingFrame>,
    occupancy: Vec<(usize, usize)>,
}

impl PendingFrameBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        PendingFrameBuffer::default()
    }

    /// Number of speculative frames currently pending.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether no speculative frame is pending.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Parks a speculative frame.
    pub fn push(&mut self, frame: PendingFrame) {
        self.frames.push_back(frame);
    }

    /// The oldest pending frame, if any.
    pub fn front(&self) -> Option<&PendingFrame> {
        self.frames.front()
    }

    /// Commits the oldest pending frame if it matches the actual event type;
    /// returns the committed frame, or `None` on a mismatch (in which case
    /// the caller squashes).
    pub fn commit_front(&mut self, actual: EventType) -> Option<PendingFrame> {
        match self.frames.front() {
            Some(front) if front.predicted_type == actual => self.frames.pop_front(),
            _ => None,
        }
    }

    /// Squashes every pending frame: visits each in order (so the caller can
    /// re-attribute its energy as misprediction waste), then clears the
    /// buffer without allocating. Returns the number of frames squashed.
    pub fn squash_with(&mut self, mut visit: impl FnMut(&PendingFrame)) -> usize {
        let squashed = self.frames.len();
        for frame in &self.frames {
            visit(frame);
        }
        self.frames.clear();
        squashed
    }

    /// Records the buffer occupancy as observed when the `event_index`-th
    /// actual event arrives (the Fig. 9 time series).
    pub fn record_occupancy(&mut self, event_index: usize) {
        self.occupancy.push((event_index, self.frames.len()));
    }

    /// The recorded occupancy trace: `(event index, frames pending)` samples.
    pub fn occupancy_trace(&self) -> &[(usize, usize)] {
        &self.occupancy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pes_acmp::units::TimeUs;
    use pes_acmp::{AcmpConfig, CoreKind};
    use pes_dom::Interaction;
    use pes_webrt::EventId;

    fn frame(ty: EventType) -> PendingFrame {
        PendingFrame {
            predicted_type: ty,
            record: ExecutionRecord {
                event: EventId::new(0),
                interaction: Interaction::Tap,
                config: AcmpConfig::new(CoreKind::LittleA7, pes_acmp::units::FreqMhz::new(600)),
                started_at: TimeUs::ZERO,
                frame_ready_at: TimeUs::from_millis(5),
                busy_time: TimeUs::from_millis(5),
                speculative: true,
            },
        }
    }

    #[test]
    fn commit_requires_a_type_match_on_the_oldest_frame() {
        let mut pfb = PendingFrameBuffer::new();
        pfb.push(frame(EventType::TouchMove));
        pfb.push(frame(EventType::TouchStart));
        assert_eq!(pfb.len(), 2);
        // The actual input is a touchmove: commits the front.
        assert!(pfb.commit_front(EventType::TouchMove).is_some());
        assert_eq!(pfb.len(), 1);
        // Next actual input is a scroll but the front predicts touchstart.
        assert!(pfb.commit_front(EventType::Scroll).is_none());
        assert_eq!(pfb.len(), 1, "a mismatch does not consume the frame");
    }

    #[test]
    fn squash_drains_everything() {
        let mut pfb = PendingFrameBuffer::new();
        for _ in 0..4 {
            pfb.push(frame(EventType::TouchMove));
        }
        assert_eq!(pfb.squash_with(|_| {}), 4);
        assert!(pfb.is_empty());
        assert!(pfb.front().is_none());
    }

    #[test]
    fn squash_with_visits_in_order_without_consuming_ownership() {
        let mut pfb = PendingFrameBuffer::new();
        pfb.push(frame(EventType::TouchMove));
        pfb.push(frame(EventType::Scroll));
        let mut seen = Vec::new();
        let squashed = pfb.squash_with(|f| seen.push(f.predicted_type));
        assert_eq!(squashed, 2);
        assert_eq!(seen, vec![EventType::TouchMove, EventType::Scroll]);
        assert!(pfb.is_empty());
        assert_eq!(pfb.squash_with(|_| unreachable!("buffer is empty")), 0);
    }

    #[test]
    fn occupancy_trace_records_the_fig9_series() {
        let mut pfb = PendingFrameBuffer::new();
        pfb.record_occupancy(0);
        pfb.push(frame(EventType::TouchMove));
        pfb.push(frame(EventType::TouchMove));
        pfb.record_occupancy(1);
        pfb.commit_front(EventType::TouchMove);
        pfb.record_occupancy(2);
        assert_eq!(pfb.occupancy_trace(), &[(0, 0), (1, 2), (2, 1)]);
    }
}
