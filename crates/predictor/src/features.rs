//! Feature extraction for the event sequence learner (Table 1).
//!
//! The predictor combines *application-inherent* features (clickable-region
//! and visible-link percentages within the viewport, computed by the DOM
//! analyzer) with *interaction-dependent* features computed over a window of
//! the five most recent events (distance to the previous click, number of
//! navigations, number of scrolls). The window additionally encodes the most
//! recent event's type; the paper folds this information into its
//! five-variable model through the window construction, while the synthetic
//! user model used in this reproduction needs it explicitly — see DESIGN.md.

use std::collections::VecDeque;
use std::sync::Arc;

use pes_dom::{
    DomAnalyzer, DomTree, EventType, EventTypeSet, IncrementalAnalyzer, NodeId, Viewport,
};
use pes_webrt::WebEvent;

/// The number of recent events considered by the interaction-dependent
/// features (Sec. 5.2: "a window of the five most recent events").
pub const HISTORY_WINDOW: usize = 5;

/// The dense feature vector fed to the logistic models.
///
/// Layout: `[clickable_fraction, link_fraction, click_distance,
/// navigations_in_window, scrolls_in_window, events_since_last_navigation,
/// events_since_last_tap, prev_event_one_hot(7)]`, all scaled to roughly
/// `[0, 1]`.
pub type FeatureVector = Vec<f64>;

/// Number of features produced by [`SessionState::features`].
pub const FEATURE_DIM: usize = 7 + EventType::ALL.len();

/// A sliding window over the most recent events of the interaction session.
#[derive(Debug, Default, PartialEq)]
pub struct HistoryWindow {
    events: VecDeque<(EventType, Option<(i64, i64)>)>,
}

impl Clone for HistoryWindow {
    fn clone(&self) -> Self {
        HistoryWindow {
            events: self.events.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        // Entries are `Copy`, so this reuses the existing ring allocation —
        // the prediction scratch clones a window every round.
        self.events.clone_from(&source.events);
    }
}

impl HistoryWindow {
    /// Creates an empty window.
    pub fn new() -> Self {
        HistoryWindow::default()
    }

    /// Records an observed event and, for taps, the centre of its target.
    pub fn push(&mut self, event_type: EventType, click_position: Option<(i64, i64)>) {
        self.events.push_back((event_type, click_position));
        while self.events.len() > HISTORY_WINDOW {
            self.events.pop_front();
        }
    }

    /// Number of events currently in the window (at most [`HISTORY_WINDOW`]).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no event has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The most recent event type, if any.
    pub fn last_event(&self) -> Option<EventType> {
        self.events.back().map(|(e, _)| *e)
    }

    /// Number of navigation-class events (load / navigate) in the window.
    pub fn navigations(&self) -> usize {
        self.events
            .iter()
            .filter(|(e, _)| e.is_navigation())
            .count()
    }

    /// Number of move-class events (scroll / touchmove) in the window.
    pub fn scrolls(&self) -> usize {
        self.events.iter().filter(|(e, _)| e.is_move()).count()
    }

    /// Number of tap-class events in the window.
    pub fn taps(&self) -> usize {
        self.events.iter().filter(|(e, _)| e.is_tap()).count()
    }

    /// Number of events since the most recent navigation-class event in the
    /// window (1 = the previous event was a navigation); [`HISTORY_WINDOW`]
    /// when the window contains no navigation.
    pub fn events_since_last_navigation(&self) -> usize {
        self.events
            .iter()
            .rev()
            .position(|(e, _)| e.is_navigation())
            .map(|p| p + 1)
            .unwrap_or(HISTORY_WINDOW)
    }

    /// Number of events since the most recent tap-class event in the window;
    /// [`HISTORY_WINDOW`] when the window contains no tap.
    pub fn events_since_last_tap(&self) -> usize {
        self.events
            .iter()
            .rev()
            .position(|(e, _)| e.is_tap())
            .map(|p| p + 1)
            .unwrap_or(HISTORY_WINDOW)
    }

    /// Euclidean distance in pixels between the two most recent tap targets
    /// in the window, if at least two taps with known positions exist.
    pub fn click_distance(&self) -> Option<f64> {
        let mut clicks = self
            .events
            .iter()
            .rev()
            .filter_map(|(e, pos)| if e.is_tap() { *pos } else { None });
        let b = clicks.next()?;
        let a = clicks.next()?;
        Some((((a.0 - b.0).pow(2) + (a.1 - b.1).pow(2)) as f64).sqrt())
    }
}

/// The live state of one interaction session as the predictor sees it: the
/// application's DOM (mutated by observed events), the viewport, and the
/// recent-event window. Both the online predictor and the offline trainer
/// replay events through this state to obtain consistent features.
///
/// The DOM is held behind an [`Arc`] and cloned copy-on-write only when an
/// observed event actually mutates the tree (menu toggles). Sessions over
/// the same page — every replay of an application, and the scratch copy the
/// learner feeds predictions back into — therefore share one tree, and
/// cloning a `SessionState` costs a reference-count bump plus the small
/// history window instead of a full DOM copy.
#[derive(Debug)]
pub struct SessionState {
    tree: Arc<DomTree>,
    viewport: Viewport,
    history: HistoryWindow,
    /// Delta-maintained viewport aggregates and LNES bitmask — the
    /// per-prediction-step fast path. Purely a cache: it self-validates
    /// against the tree's `TreeStamp` and the viewport, so it is *not*
    /// copied by `clone_from` (the scratch session's own cache usually
    /// resynchronises by a cheap scroll delta instead).
    inc: IncrementalAnalyzer,
}

impl Clone for SessionState {
    fn clone(&self) -> Self {
        SessionState {
            tree: Arc::clone(&self.tree),
            viewport: self.viewport,
            history: self.history.clone(),
            inc: IncrementalAnalyzer::new(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        if !Arc::ptr_eq(&self.tree, &source.tree) {
            self.tree = Arc::clone(&source.tree);
        }
        self.viewport = source.viewport;
        self.history.clone_from(&source.history);
        // `self.inc` is deliberately kept: stamp validation re-syncs it.
    }
}

impl SessionState {
    /// Creates a session over a (shared) application page tree, e.g.
    /// `SessionState::new(page.tree.clone())` for a [`pes_dom::BuiltPage`].
    pub fn new(tree: Arc<DomTree>) -> Self {
        SessionState {
            tree,
            viewport: Viewport::phone(),
            history: HistoryWindow::new(),
            inc: IncrementalAnalyzer::new(),
        }
    }

    /// The session's current DOM.
    pub fn tree(&self) -> &DomTree {
        &self.tree
    }

    /// The session's current viewport.
    pub fn viewport(&self) -> &Viewport {
        &self.viewport
    }

    /// The recent-event window.
    pub fn history(&self) -> &HistoryWindow {
        &self.history
    }

    /// The centre of a node, used as the position of a tap.
    fn node_center(&self, node: Option<NodeId>) -> Option<(i64, i64)> {
        node.and_then(|id| self.tree.node(id).ok())
            .map(|n| n.rect().center())
    }

    /// Records an observed event: updates the history window and applies the
    /// event's memoized DOM effect (scrolling the viewport, toggling menus,
    /// resetting on navigation). Unknown targets or missing listeners are
    /// tolerated — the DOM state simply does not change.
    pub fn observe(&mut self, event: &WebEvent) {
        let position = if event.event_type().is_tap() {
            self.node_center(event.target())
        } else {
            None
        };
        self.history.push(event.event_type(), position);

        let effect = match event.target() {
            Some(target) => self
                .tree
                .node(target)
                .ok()
                .and_then(|n| n.listener(event.event_type())),
            None => {
                // Document-level events: use the root's listener when present,
                // otherwise fall back to the canonical effect of the type.
                let root_effect = self
                    .tree
                    .node(self.tree.root())
                    .ok()
                    .and_then(|n| n.listener(event.event_type()));
                root_effect.or(match event.event_type() {
                    EventType::Scroll | EventType::TouchMove => {
                        Some(pes_dom::CallbackEffect::ScrollBy(400))
                    }
                    EventType::Load | EventType::Navigate => {
                        Some(pes_dom::CallbackEffect::Navigate)
                    }
                    _ => None,
                })
            }
        };
        if let Some(effect) = effect {
            if effect.mutates_tree() {
                // Copy-on-write: only menu toggles and similar structural
                // effects force this session onto a private tree copy.
                // Stale targets cannot occur for effects memoized on this
                // tree.
                let pre = self.tree.stamp();
                let applied = Arc::make_mut(&mut self.tree)
                    .apply_effect(effect, &mut self.viewport)
                    .is_ok();
                if applied {
                    if let pes_dom::CallbackEffect::ToggleVisibility(target) = effect {
                        // Keep the incremental aggregates on the delta path:
                        // re-fold only the toggled subtree instead of letting
                        // the stamp mismatch force a full rescan.
                        self.inc.note_toggle(pre, &self.tree, target);
                    }
                }
            } else {
                // Scrolls and navigations only move the viewport; the shared
                // tree stays shared.
                let _ = DomTree::apply_viewport_effect(effect, &mut self.viewport);
            }
        }
    }

    /// The feature vector describing "what comes next" from the current
    /// state.
    pub fn features(&mut self) -> FeatureVector {
        let mut features = Vec::with_capacity(FEATURE_DIM);
        self.features_into(&mut features);
        features
    }

    /// Writes the feature vector into `out` (cleared first), reusing the
    /// buffer's capacity — the allocation-free path the learner uses on
    /// every prediction step. The viewport aggregates come from the
    /// incremental analyzer, so in the steady state this costs O(1) in the
    /// DOM size rather than a full-tree scan.
    pub fn features_into(&mut self, out: &mut FeatureVector) {
        let vp = self.inc.viewport_features(&self.tree, &self.viewport);
        // Normalise the click distance by the viewport diagonal.
        let diag = ((self.viewport.width().pow(2) + self.viewport.height().pow(2)) as f64).sqrt();
        let distance = self
            .history
            .click_distance()
            .map(|d| (d / diag).min(2.0))
            .unwrap_or(0.0);
        out.clear();
        out.extend_from_slice(&[
            vp.clickable_region_fraction,
            vp.visible_link_fraction,
            distance,
            self.history.navigations() as f64 / HISTORY_WINDOW as f64,
            self.history.scrolls() as f64 / HISTORY_WINDOW as f64,
            self.history.events_since_last_navigation() as f64 / HISTORY_WINDOW as f64,
            self.history.events_since_last_tap() as f64 / HISTORY_WINDOW as f64,
        ]);
        let mut one_hot = [0.0; EventType::ALL.len()];
        if let Some(last) = self.history.last_event() {
            one_hot[last.class_index()] = 1.0;
        }
        out.extend_from_slice(&one_hot);
        debug_assert_eq!(out.len(), FEATURE_DIM);
    }

    /// The Likely-Next-Event-Set for the current DOM state.
    pub fn lnes(&self) -> pes_dom::Lnes {
        DomAnalyzer::new().lnes(&self.tree, &self.viewport)
    }

    /// The event *types* of the Likely-Next-Event-Set as an allocation-free
    /// bitmask — exactly the set `self.lnes().event_types()` would return,
    /// served from the incremental analyzer's delta-maintained aggregates.
    pub fn allowed_types(&mut self) -> EventTypeSet {
        self.inc.lnes_types(&self.tree, &self.viewport)
    }

    /// How the incremental analyzer has kept itself in sync over this
    /// session (rebuilds vs deltas); exposed for tests and diagnostics.
    pub fn incremental_stats(&self) -> pes_dom::IncrementalStats {
        self.inc.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pes_acmp::units::TimeUs;
    use pes_acmp::CpuDemand;
    use pes_dom::PageBuilder;
    use pes_webrt::EventId;

    fn page_state() -> (pes_dom::BuiltPage, SessionState) {
        let page = PageBuilder::new(360)
            .nav_bar(4)
            .collapsible_menu(4)
            .article_list(10, true)
            .search_form()
            .text_block(2_000)
            .build();
        let state = SessionState::new(page.tree.clone());
        (page, state)
    }

    fn ev(id: u64, ty: EventType, target: Option<NodeId>, ms: u64) -> WebEvent {
        WebEvent::new(
            EventId::new(id),
            ty,
            target,
            TimeUs::from_millis(ms),
            CpuDemand::ZERO,
        )
    }

    #[test]
    fn history_window_is_bounded_to_five() {
        let mut w = HistoryWindow::new();
        assert!(w.is_empty());
        for i in 0..10 {
            w.push(EventType::Scroll, None);
            assert!(w.len() <= HISTORY_WINDOW, "at step {i}");
        }
        assert_eq!(w.len(), HISTORY_WINDOW);
        assert_eq!(w.scrolls(), HISTORY_WINDOW);
        assert_eq!(w.last_event(), Some(EventType::Scroll));
    }

    #[test]
    fn history_window_counts_by_interaction_class() {
        let mut w = HistoryWindow::new();
        w.push(EventType::Load, None);
        w.push(EventType::Scroll, None);
        w.push(EventType::TouchMove, None);
        w.push(EventType::Click, Some((10, 10)));
        w.push(EventType::Navigate, None);
        assert_eq!(w.navigations(), 2);
        assert_eq!(w.scrolls(), 2);
        assert_eq!(w.taps(), 1);
        assert_eq!(w.click_distance(), None, "only one positioned click");
        assert_eq!(w.events_since_last_navigation(), 1);
        assert_eq!(w.events_since_last_tap(), 2);
        let empty = HistoryWindow::new();
        assert_eq!(empty.events_since_last_navigation(), HISTORY_WINDOW);
        assert_eq!(empty.events_since_last_tap(), HISTORY_WINDOW);
    }

    #[test]
    fn click_distance_uses_the_two_most_recent_taps() {
        let mut w = HistoryWindow::new();
        w.push(EventType::Click, Some((0, 0)));
        w.push(EventType::Scroll, None);
        w.push(EventType::TouchStart, Some((30, 40)));
        assert!((w.click_distance().unwrap() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn feature_vector_has_the_documented_dimension_and_range() {
        let (page, mut state) = page_state();
        state.observe(&ev(0, EventType::Load, None, 0));
        state.observe(&ev(1, EventType::Click, page.links.first().copied(), 10));
        let f = state.features();
        assert_eq!(f.len(), FEATURE_DIM);
        for (i, v) in f.iter().enumerate() {
            assert!(*v >= 0.0 && *v <= 2.0, "feature {i} out of range: {v}");
        }
        // Exactly one previous-event bit is set.
        let hot: f64 = f[7..].iter().sum();
        assert!((hot - 1.0).abs() < 1e-9);
    }

    #[test]
    fn scrolling_moves_the_viewport_and_changes_features() {
        let (_page, mut state) = page_state();
        state.observe(&ev(0, EventType::Load, None, 0));
        let before = state.viewport().scroll_y();
        state.observe(&ev(1, EventType::Scroll, None, 500));
        state.observe(&ev(2, EventType::Scroll, None, 900));
        assert!(state.viewport().scroll_y() > before);
        let f = state.features();
        assert!(f[4] > 0.0, "scroll count feature should be positive");
    }

    #[test]
    fn navigation_resets_the_viewport() {
        let (_page, mut state) = page_state();
        state.observe(&ev(0, EventType::Load, None, 0));
        state.observe(&ev(1, EventType::Scroll, None, 100));
        state.observe(&ev(2, EventType::Scroll, None, 200));
        assert!(state.viewport().scroll_y() > 0);
        state.observe(&ev(3, EventType::Navigate, None, 300));
        assert_eq!(state.viewport().scroll_y(), 0);
    }

    #[test]
    fn menu_tap_expands_the_menu_in_the_session_dom() {
        let (page, mut state) = page_state();
        let menu_item = page.menu_items[0];
        assert!(!state.tree().is_effectively_displayed(menu_item));
        state.observe(&ev(
            0,
            EventType::Click,
            page.menu_buttons.first().copied(),
            0,
        ));
        assert!(state.tree().is_effectively_displayed(menu_item));
        // The LNES now includes the menu items as click targets.
        assert!(state
            .lnes()
            .nodes_for(EventType::Click)
            .contains(&menu_item));
    }

    #[test]
    fn session_queries_stay_on_the_delta_path() {
        // The performance contract of the incremental analyzer: across a
        // whole session of scrolls, menu toggles and navigations — with
        // feature and LNES queries between every event, as the learner
        // issues them — only the very first query pays a full rebuild.
        let (page, mut state) = page_state();
        state.features();
        state.allowed_types();
        let menu_button = page.menu_buttons[0];
        let events = [
            ev(0, EventType::Load, None, 0),
            ev(1, EventType::Scroll, None, 100),
            ev(2, EventType::Scroll, None, 200),
            ev(3, EventType::Click, Some(menu_button), 300),
            ev(4, EventType::TouchMove, None, 400),
            ev(5, EventType::Click, Some(menu_button), 500),
            ev(6, EventType::Navigate, None, 600),
            ev(7, EventType::Scroll, None, 700),
        ];
        for event in &events {
            state.observe(event);
            state.features();
            state.allowed_types();
        }
        let stats = state.incremental_stats();
        assert_eq!(stats.rebuilds, 1, "session must run on deltas: {stats:?}");
        assert!(stats.scroll_deltas > 0, "{stats:?}");
        assert!(stats.scroll_resets > 0, "{stats:?}");
        assert_eq!(
            stats.toggle_deltas, 2,
            "both menu toggles take the fast path: {stats:?}"
        );
    }

    #[test]
    fn unknown_targets_are_tolerated() {
        let (page, mut state) = page_state();
        // A click with no target: the root has no click listener.
        let bogus = ev(0, EventType::Click, None, 0);
        state.observe(&bogus);
        assert_eq!(state.history().len(), 1);
        // A target id that does not exist in this tree, and a valid node
        // with no listener for the event type: the DOM state is unchanged.
        let (stamp, viewport) = (state.tree().stamp(), *state.viewport());
        let missing = NodeId::from_index(page.tree.len() + 7);
        state.observe(&ev(1, EventType::Click, Some(missing), 5));
        state.observe(&ev(2, EventType::Submit, page.links.first().copied(), 10));
        assert_eq!(state.history().len(), 3);
        assert_eq!(state.tree().stamp(), stamp);
        assert_eq!(*state.viewport(), viewport);
    }
}
