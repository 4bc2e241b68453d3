//! The DOM analyzer: Likely-Next-Event-Set (LNES) computation and the
//! application-inherent features of Table 1.
//!
//! The analyzer traverses the part of the DOM tree inside the current
//! viewport and accumulates the set of events registered on visible nodes —
//! the LNES that the event sequence learner predicts from (Sec. 5.2). The
//! LNES after a predicted event is the LNES of the tree with that listener's
//! memoized [`CallbackEffect`] applied through [`DomTree::apply_effect`],
//! which is what lets PES predict several events ahead.

use crate::events::{EventType, EventTypeSet};
use crate::geometry::Viewport;
use crate::tree::{CallbackEffect, DomTree, NodeId, TreeStamp};

/// One candidate next event: an event type on a concrete (visible) node, or
/// a document-level event such as scrolling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PossibleEvent {
    /// The node the event would fire on (the document root for global
    /// events such as scrolling).
    pub node: NodeId,
    /// The event type.
    pub event: EventType,
}

/// The Likely-Next-Event-Set: all events that the application logic allows as
/// the immediate next event given the current (or projected) DOM state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Lnes {
    events: Vec<PossibleEvent>,
}

impl Lnes {
    /// The candidate events, in document order.
    pub fn events(&self) -> &[PossibleEvent] {
        &self.events
    }

    /// Number of candidate events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no event is possible (an empty or fully hidden page).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Whether a given event *type* is possible on any node.
    pub fn allows(&self, event: EventType) -> bool {
        self.events.iter().any(|p| p.event == event)
    }

    /// The distinct event types present in the set, in class-index order.
    pub fn event_types(&self) -> Vec<EventType> {
        let mut types: Vec<EventType> = EventType::ALL
            .into_iter()
            .filter(|e| self.allows(*e))
            .collect();
        types.dedup();
        types
    }

    /// The candidate nodes for a given event type.
    pub fn nodes_for(&self, event: EventType) -> Vec<NodeId> {
        self.events
            .iter()
            .filter(|p| p.event == event)
            .map(|p| p.node)
            .collect()
    }
}

/// Application-inherent features of the current viewport (the first two rows
/// of Table 1).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ViewportFeatures {
    /// Fraction of the viewport area covered by clickable elements.
    pub clickable_region_fraction: f64,
    /// Fraction of the viewport area covered by visible links.
    pub visible_link_fraction: f64,
    /// Number of clickable elements currently visible.
    pub visible_clickable_count: usize,
    /// Number of link elements currently visible.
    pub visible_link_count: usize,
    /// Whether the document extends beyond the viewport (scrolling possible).
    pub scrollable: bool,
}

/// The DOM analyzer.
///
/// # Examples
///
/// ```
/// use pes_dom::{CallbackEffect, DomAnalyzer, DomTree, EventType, NodeKind};
/// use pes_dom::geometry::{Rect, Viewport};
///
/// let mut tree = DomTree::new();
/// let root = tree.root();
/// let link = tree.create_node(NodeKind::Link, Rect::new(0, 0, 200, 40));
/// tree.append_child(root, link).unwrap();
/// tree.add_listener(link, EventType::Click, CallbackEffect::Navigate).unwrap();
///
/// let analyzer = DomAnalyzer::new();
/// let lnes = analyzer.lnes(&tree, &Viewport::phone());
/// assert!(lnes.allows(EventType::Click));
/// assert!(!lnes.allows(EventType::Submit));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DomAnalyzer;

impl DomAnalyzer {
    /// Creates an analyzer. Document-level scrolling is part of the LNES
    /// whenever the page is taller than the viewport.
    pub fn new() -> Self {
        DomAnalyzer
    }

    /// Computes the LNES for the current DOM state: every event registered on
    /// an effectively-visible node, plus document-level scroll/move events
    /// when the page is scrollable.
    pub fn lnes(&self, tree: &DomTree, viewport: &Viewport) -> Lnes {
        let mut events = Vec::new();
        let mut navigation_possible = false;
        for (id, node) in tree.iter() {
            if !tree.is_effectively_visible(id, viewport) {
                continue;
            }
            for (event, effect) in node.listeners() {
                events.push(PossibleEvent { node: id, event });
                if matches!(
                    effect,
                    crate::tree::CallbackEffect::Navigate | crate::tree::CallbackEffect::SubmitForm
                ) {
                    navigation_possible = true;
                }
            }
        }
        let root = tree.root();
        if tree.document_height() > viewport.height() + viewport.scroll_y() {
            for event in [EventType::Scroll, EventType::TouchMove] {
                if !events.iter().any(|p| p.node == root && p.event == event) {
                    events.push(PossibleEvent { node: root, event });
                }
            }
        }
        // A navigation (page replacement) is a possible next event whenever a
        // visible element's callback would navigate or submit: the load it
        // triggers is itself an event the application will have to serve.
        if navigation_possible {
            events.push(PossibleEvent {
                node: root,
                event: EventType::Navigate,
            });
        }
        events.sort();
        events.dedup();
        Lnes { events }
    }

    /// The distinct event *types* of the LNES, as a bitmask. Semantically
    /// identical to `self.lnes(tree, viewport).event_types()` but computed in
    /// one allocation-free pass — this is what the sequence learner consults
    /// on every step of every prediction round.
    pub fn lnes_types(&self, tree: &DomTree, viewport: &Viewport) -> EventTypeSet {
        let mut types = EventTypeSet::EMPTY;
        let mut navigation_possible = false;
        for (id, node) in tree.iter() {
            if !tree.is_effectively_visible(id, viewport) {
                continue;
            }
            for (event, effect) in node.listeners() {
                types.insert(event);
                if matches!(
                    effect,
                    crate::tree::CallbackEffect::Navigate | crate::tree::CallbackEffect::SubmitForm
                ) {
                    navigation_possible = true;
                }
            }
        }
        if tree.document_height() > viewport.height() + viewport.scroll_y() {
            types.insert(EventType::Scroll);
            types.insert(EventType::TouchMove);
        }
        if navigation_possible {
            types.insert(EventType::Navigate);
        }
        types
    }

    /// Computes the viewport features of Table 1 for the current DOM state.
    /// One pass over the tree, no intermediate node lists: the learner
    /// extracts these features on every prediction step.
    pub fn viewport_features(&self, tree: &DomTree, viewport: &Viewport) -> ViewportFeatures {
        let viewport_area = viewport.area().max(1) as f64;
        let mut clickable_area: i64 = 0;
        let mut link_area: i64 = 0;
        let mut clickable_count = 0usize;
        let mut link_count = 0usize;
        for (id, node) in tree.iter() {
            let clickable = node.is_clickable();
            let link = node.kind().is_link();
            if !(clickable || link) || !tree.is_effectively_visible(id, viewport) {
                continue;
            }
            let area = viewport.visible_area(&node.rect());
            if clickable {
                clickable_area += area;
                clickable_count += 1;
            }
            if link {
                link_area += area;
                link_count += 1;
            }
        }
        ViewportFeatures {
            clickable_region_fraction: (clickable_area as f64 / viewport_area).clamp(0.0, 1.0),
            visible_link_fraction: (link_area as f64 / viewport_area).clamp(0.0, 1.0),
            visible_clickable_count: clickable_count,
            visible_link_count: link_count,
            scrollable: tree.document_height() > viewport.height() + viewport.scroll_y(),
        }
    }
}

// ---------------------------------------------------------------------------
// Incremental analyzer
// ---------------------------------------------------------------------------

/// Running aggregates over the currently visible interactive nodes: exactly
/// the quantities [`DomAnalyzer::viewport_features`] and
/// [`DomAnalyzer::lnes_types`] fold over the whole tree, maintained as
/// integer deltas so a query is O(1).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct VisibleAggregates {
    clickable_area: i64,
    link_area: i64,
    clickable_count: usize,
    link_count: usize,
    type_counts: [u32; EventType::ALL.len()],
    nav_count: u32,
}

impl VisibleAggregates {
    fn types(&self) -> EventTypeSet {
        let mut mask = EventTypeSet::EMPTY;
        for (i, &count) in self.type_counts.iter().enumerate() {
            if count > 0 {
                mask.insert(EventType::ALL[i]);
            }
        }
        mask
    }
}

/// One node the incremental analyzer tracks: any node carrying a listener or
/// counting towards the Table 1 clickable/link features. Geometry and
/// listener-derived flags are frozen at (re)build time — they only change
/// through tree mutations, which refresh the [`TreeStamp`] and invalidate the
/// whole state. Only `effectively_displayed` is maintained incrementally (by
/// menu toggles).
#[derive(Debug, Clone)]
struct TrackedNode {
    id: NodeId,
    y0: i64,
    y1: i64,
    /// Horizontal overlap with the (fixed-width) viewport, precomputed:
    /// `max(0, min(x1, W) - max(x0, 0))`.
    x_overlap: i64,
    clickable: bool,
    link: bool,
    types: EventTypeSet,
    /// Whether any listener's memoized effect navigates or submits.
    nav: bool,
    effectively_displayed: bool,
}

/// Counters describing how the incremental analyzer kept itself in sync;
/// used by tests to prove that steady-state sessions run on deltas, not
/// rescans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Full O(nodes) rebuilds (first query, or a stamp/viewport mismatch).
    pub rebuilds: usize,
    /// Scroll deltas applied by scanning only the scrolled-over band.
    pub scroll_deltas: usize,
    /// Scroll resets answered from the scroll-0 snapshot.
    pub scroll_resets: usize,
    /// Visibility toggles applied to just the toggled subtree.
    pub toggle_deltas: usize,
}

/// Nodes per block of the y-sorted skip index used by scroll deltas.
const Y_INDEX_BLOCK: usize = 16;

#[derive(Debug, Clone)]
struct IncrementalState {
    stamp: TreeStamp,
    vp_width: i64,
    vp_height: i64,
    scroll: i64,
    doc_height: i64,
    nodes: Vec<TrackedNode>,
    /// Tracked-node indices sorted by `y0`.
    order: Vec<u32>,
    /// `max(y1)` per [`Y_INDEX_BLOCK`]-sized block of `order`, letting scroll
    /// deltas skip whole blocks that end above the scrolled-over band.
    block_max_y1: Vec<i64>,
    /// Per potential `ToggleVisibility` target (sorted by id): the tracked
    /// nodes inside its subtree, whose effective display the toggle can flip.
    toggle_subtrees: Vec<(NodeId, Vec<u32>)>,
    /// Mirror of every tree node's own CSS display flag, so effective
    /// display can be recomputed after a toggle without touching node data.
    displayed: Vec<bool>,
    /// Aggregates at the current scroll offset.
    agg: VisibleAggregates,
    /// Aggregates at scroll 0 under the same display state — navigations
    /// reset the scroll constantly, so the top-of-page state is kept warm.
    agg0: VisibleAggregates,
}

/// An incrementally maintained view of one DOM tree + viewport: the same
/// features and LNES type bitmask as [`DomAnalyzer`], but updated by deltas
/// on scroll/toggle events instead of an O(nodes) rescan per query.
///
/// The state self-validates against the tree's [`TreeStamp`]: any mutation
/// that did not go through [`IncrementalAnalyzer::note_toggle`] (including a
/// copy-on-write clone that diverged) changes the stamp and triggers a full
/// rebuild on the next query, so results are always exactly those of the
/// full-scan analyzer — a property pinned by the workspace-level differential
/// proptest.
///
/// # Examples
///
/// ```
/// use pes_dom::{DomAnalyzer, IncrementalAnalyzer, PageBuilder, Viewport};
///
/// let page = PageBuilder::new(360).nav_bar(3).article_list(8, true).text_block(2_000).build();
/// let analyzer = DomAnalyzer::new();
/// let mut inc = IncrementalAnalyzer::new();
/// let mut vp = Viewport::phone();
/// for scroll in [0, 480, 960, 0] {
///     vp.scroll_to(scroll);
///     assert_eq!(
///         inc.viewport_features(&page.tree, &vp),
///         analyzer.viewport_features(&page.tree, &vp),
///     );
///     assert_eq!(
///         inc.lnes_types(&page.tree, &vp),
///         analyzer.lnes_types(&page.tree, &vp),
///     );
/// }
/// ```
#[derive(Debug, Clone, Default)]
pub struct IncrementalAnalyzer {
    state: Option<IncrementalState>,
    stats: IncrementalStats,
}

impl IncrementalAnalyzer {
    /// Creates an empty analyzer; the first query performs the full build.
    pub fn new() -> Self {
        IncrementalAnalyzer::default()
    }

    /// How the analyzer has kept itself in sync so far.
    pub fn stats(&self) -> IncrementalStats {
        self.stats
    }

    /// The viewport features of Table 1, equal to
    /// [`DomAnalyzer::viewport_features`] on the same `(tree, viewport)`.
    pub fn viewport_features(&mut self, tree: &DomTree, viewport: &Viewport) -> ViewportFeatures {
        let state = self.ensure(tree, viewport);
        let viewport_area = viewport.area().max(1) as f64;
        ViewportFeatures {
            clickable_region_fraction: (state.agg.clickable_area as f64 / viewport_area)
                .clamp(0.0, 1.0),
            visible_link_fraction: (state.agg.link_area as f64 / viewport_area).clamp(0.0, 1.0),
            visible_clickable_count: state.agg.clickable_count,
            visible_link_count: state.agg.link_count,
            scrollable: state.doc_height > viewport.height() + viewport.scroll_y(),
        }
    }

    /// The LNES type bitmask, equal to [`DomAnalyzer::lnes_types`] on the
    /// same `(tree, viewport)`.
    pub fn lnes_types(&mut self, tree: &DomTree, viewport: &Viewport) -> EventTypeSet {
        let state = self.ensure(tree, viewport);
        let mut types = state.agg.types();
        if state.doc_height > viewport.height() + viewport.scroll_y() {
            types.insert(EventType::Scroll);
            types.insert(EventType::TouchMove);
        }
        if state.agg.nav_count > 0 {
            types.insert(EventType::Navigate);
        }
        types
    }

    /// Tells the analyzer that `target`'s visibility was just toggled on a
    /// tree whose stamp was `pre` before the toggle. When the analyzer was in
    /// sync with `pre`, only the toggled subtree is re-aggregated; otherwise
    /// the state is left stale and the next query rebuilds.
    pub fn note_toggle(&mut self, pre: TreeStamp, tree: &DomTree, target: NodeId) {
        let Some(state) = self.state.as_mut() else {
            return;
        };
        if state.stamp != pre || target.index() >= state.displayed.len() {
            return; // stale before the toggle: the stamp guard handles it
        }
        let Ok(slot) = state
            .toggle_subtrees
            .binary_search_by_key(&target, |(id, _)| *id)
        else {
            return; // not a known toggle target: fall back to a rebuild
        };
        state.displayed[target.index()] =
            tree.node(target).map(|n| n.is_displayed()).unwrap_or(false);
        // The subtree list is moved out while effective-display flags are
        // recomputed (the borrow checker cannot see the index sets are
        // disjoint from the node table) and restored afterwards.
        let subtree = std::mem::take(&mut state.toggle_subtrees[slot].1);
        for &ti in &subtree {
            let node = &state.nodes[ti as usize];
            let now_displayed = {
                let mut cursor = Some(node.id);
                loop {
                    match cursor {
                        Some(c) => {
                            if !state.displayed[c.index()] {
                                break false;
                            }
                            cursor = tree.node(c).ok().and_then(|n| n.parent());
                        }
                        None => break true,
                    }
                }
            };
            if now_displayed != node.effectively_displayed {
                let sign: i64 = if now_displayed { 1 } else { -1 };
                let (scroll, height) = (state.scroll, state.vp_height);
                Self::apply_node(
                    &state.nodes[ti as usize],
                    &mut state.agg,
                    sign,
                    scroll,
                    height,
                );
                Self::apply_node(&state.nodes[ti as usize], &mut state.agg0, sign, 0, height);
                state.nodes[ti as usize].effectively_displayed = now_displayed;
            }
        }
        state.toggle_subtrees[slot].1 = subtree;
        state.stamp = tree.stamp();
        self.stats.toggle_deltas += 1;
    }

    /// Adds (`sign = 1`) or removes (`sign = -1`) one node's contribution to
    /// the aggregates for the viewport at `scroll`, *as if* the node were
    /// effectively displayed. Callers gate on the display flag.
    fn apply_node(
        node: &TrackedNode,
        agg: &mut VisibleAggregates,
        sign: i64,
        scroll: i64,
        vp_height: i64,
    ) {
        let y_overlap = node.y1.min(scroll + vp_height) - node.y0.max(scroll);
        if node.x_overlap <= 0 || y_overlap <= 0 {
            return;
        }
        let area = node.x_overlap * y_overlap * sign;
        let count = sign as isize;
        if node.clickable {
            agg.clickable_area += area;
            agg.clickable_count = (agg.clickable_count as isize + count) as usize;
        }
        if node.link {
            agg.link_area += area;
            agg.link_count = (agg.link_count as isize + count) as usize;
        }
        for t in node.types.iter() {
            let slot = &mut agg.type_counts[t.class_index()];
            *slot = (*slot as i64 + sign) as u32;
        }
        if node.nav {
            agg.nav_count = (agg.nav_count as i64 + sign) as u32;
        }
    }

    /// Brings the state in sync with `(tree, viewport)`: a no-op when already
    /// synced, a band-limited delta when only the scroll moved, and a full
    /// rebuild when the tree stamp or viewport geometry changed.
    fn ensure(&mut self, tree: &DomTree, viewport: &Viewport) -> &IncrementalState {
        let in_sync = self.state.as_ref().is_some_and(|s| {
            s.stamp == tree.stamp()
                && s.vp_width == viewport.width()
                && s.vp_height == viewport.height()
        });
        if !in_sync {
            self.rebuild(tree, viewport);
        } else {
            let state = self.state.as_mut().expect("state exists when in sync");
            let target = viewport.scroll_y();
            if state.scroll != target {
                if target == 0 {
                    state.agg = state.agg0;
                    self.stats.scroll_resets += 1;
                } else {
                    Self::scroll_delta(state, target);
                    self.stats.scroll_deltas += 1;
                }
                state.scroll = target;
            }
        }
        self.state.as_ref().expect("state was just ensured")
    }

    /// Moves the aggregates from `state.scroll` to `new_scroll` by scanning
    /// only the tracked nodes whose clipped area can differ between the two
    /// viewport positions.
    fn scroll_delta(state: &mut IncrementalState, new_scroll: i64) {
        let (s0, s1, height) = (state.scroll, new_scroll, state.vp_height);
        let band_lo = s0.min(s1);
        let band_hi = s0.max(s1) + height;
        // Nodes strictly inside both viewports keep their full clipped area.
        let inner_lo = s0.max(s1);
        let inner_hi = s0.min(s1) + height;
        let upper = state
            .order
            .partition_point(|&i| state.nodes[i as usize].y0 < band_hi);
        let mut idx = 0;
        while idx < upper {
            let block = idx / Y_INDEX_BLOCK;
            if idx % Y_INDEX_BLOCK == 0
                && state.block_max_y1.get(block).is_some_and(|&m| m <= band_lo)
            {
                idx += Y_INDEX_BLOCK;
                continue;
            }
            let node = &state.nodes[state.order[idx] as usize];
            idx += 1;
            if node.y1 <= band_lo
                || !node.effectively_displayed
                || (node.y0 >= inner_lo && node.y1 <= inner_hi)
            {
                continue;
            }
            Self::apply_node(node, &mut state.agg, -1, s0, height);
            Self::apply_node(node, &mut state.agg, 1, s1, height);
        }
    }

    /// Full rebuild: one pass over the tree, exactly mirroring the full-scan
    /// analyzer's folds, plus the y-sorted index and toggle-subtree map the
    /// deltas need.
    fn rebuild(&mut self, tree: &DomTree, viewport: &Viewport) {
        self.stats.rebuilds += 1;
        let mut nodes: Vec<TrackedNode> = Vec::new();
        let mut displayed = Vec::with_capacity(tree.len());
        let mut toggle_targets: Vec<NodeId> = Vec::new();
        for (id, node) in tree.iter() {
            displayed.push(node.is_displayed());
            let mut types = EventTypeSet::EMPTY;
            let mut nav = false;
            for (event, effect) in node.listeners() {
                types.insert(event);
                if matches!(
                    effect,
                    CallbackEffect::Navigate | CallbackEffect::SubmitForm
                ) {
                    nav = true;
                }
                if let CallbackEffect::ToggleVisibility(target) = effect {
                    toggle_targets.push(target);
                }
            }
            let link = node.kind().is_link();
            if types.is_empty() && !link {
                continue;
            }
            let rect = node.rect();
            nodes.push(TrackedNode {
                id,
                y0: rect.y(),
                y1: rect.y() + rect.height(),
                x_overlap: ((rect.x() + rect.width()).min(viewport.width()) - rect.x().max(0))
                    .max(0),
                clickable: node.is_clickable(),
                link,
                types,
                nav,
                effectively_displayed: tree.is_effectively_displayed(id),
            });
        }
        let mut order: Vec<u32> = (0..nodes.len() as u32).collect();
        order.sort_by_key(|&i| nodes[i as usize].y0);
        let block_max_y1 = order
            .chunks(Y_INDEX_BLOCK)
            .map(|chunk| {
                chunk
                    .iter()
                    .map(|&i| nodes[i as usize].y1)
                    .max()
                    .unwrap_or(i64::MIN)
            })
            .collect();
        toggle_targets.sort();
        toggle_targets.dedup();
        // One membership mask, reused per target: collecting a subtree is
        // O(subtree + tracked) instead of a contains() scan per tracked node.
        let mut member = vec![false; tree.len()];
        let toggle_subtrees = toggle_targets
            .into_iter()
            .filter(|t| t.index() < tree.len())
            .map(|target| {
                let descendants = tree.descendants(target);
                for d in &descendants {
                    member[d.index()] = true;
                }
                let subtree: Vec<u32> = nodes
                    .iter()
                    .enumerate()
                    .filter(|(_, n)| member[n.id.index()])
                    .map(|(i, _)| i as u32)
                    .collect();
                for d in &descendants {
                    member[d.index()] = false;
                }
                (target, subtree)
            })
            .collect();
        let scroll = viewport.scroll_y();
        let mut agg = VisibleAggregates::default();
        let mut agg0 = VisibleAggregates::default();
        for node in &nodes {
            if node.effectively_displayed {
                Self::apply_node(node, &mut agg, 1, scroll, viewport.height());
                Self::apply_node(node, &mut agg0, 1, 0, viewport.height());
            }
        }
        self.state = Some(IncrementalState {
            stamp: tree.stamp(),
            vp_width: viewport.width(),
            vp_height: viewport.height(),
            scroll,
            doc_height: tree.document_height(),
            nodes,
            order,
            block_max_y1,
            toggle_subtrees,
            displayed,
            agg,
            agg0,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Rect;
    use crate::tree::{CallbackEffect, NodeKind};

    /// A page with a visible nav link, a disclosure button whose menu is
    /// hidden, a below-the-fold button, and enough content to scroll.
    fn sample_page() -> (DomTree, NodeId, NodeId, NodeId, NodeId) {
        let mut tree = DomTree::new();
        let root = tree.root();
        let nav_link = tree.create_node(NodeKind::Link, Rect::new(0, 0, 180, 40));
        let menu_button = tree.create_node(NodeKind::Button, Rect::new(200, 0, 80, 40));
        let menu = tree.create_node(NodeKind::Menu, Rect::new(200, 40, 160, 160));
        let menu_item = tree.create_node(NodeKind::MenuItem, Rect::new(200, 40, 160, 40));
        let far_button = tree.create_node(NodeKind::Button, Rect::new(0, 2_000, 100, 40));
        let filler = tree.create_node(NodeKind::Text, Rect::new(0, 100, 360, 2_500));
        for id in [nav_link, menu_button, menu, far_button, filler] {
            tree.append_child(root, id).unwrap();
        }
        tree.append_child(menu, menu_item).unwrap();
        tree.add_listener(nav_link, EventType::Click, CallbackEffect::Navigate)
            .unwrap();
        tree.add_listener(
            menu_button,
            EventType::Click,
            CallbackEffect::ToggleVisibility(menu),
        )
        .unwrap();
        tree.add_listener(menu_item, EventType::Click, CallbackEffect::Navigate)
            .unwrap();
        tree.add_listener(far_button, EventType::Click, CallbackEffect::None)
            .unwrap();
        tree.set_displayed(menu, false).unwrap();
        (tree, nav_link, menu_button, menu_item, far_button)
    }

    /// The LNES after `event` fires on `node`: the node's memoized listener
    /// effect is applied to clones of the tree and viewport, so the live ones
    /// stay untouched. An event with no listener on `node` changes nothing.
    fn lnes_after(tree: &DomTree, vp: &Viewport, node: NodeId, event: EventType) -> Lnes {
        let Some(effect) = tree.node(node).unwrap().listener(event) else {
            return DomAnalyzer::new().lnes(tree, vp);
        };
        let (mut scratch_tree, mut scratch_vp) = (tree.clone(), *vp);
        scratch_tree.apply_effect(effect, &mut scratch_vp).unwrap();
        DomAnalyzer::new().lnes(&scratch_tree, &scratch_vp)
    }

    #[test]
    fn lnes_contains_only_visible_listeners() {
        let (tree, nav_link, menu_button, menu_item, far_button) = sample_page();
        let analyzer = DomAnalyzer::new();
        let lnes = analyzer.lnes(&tree, &Viewport::phone());
        let nodes: Vec<NodeId> = lnes.nodes_for(EventType::Click);
        assert!(nodes.contains(&nav_link));
        assert!(nodes.contains(&menu_button));
        assert!(
            !nodes.contains(&menu_item),
            "hidden menu item must be excluded"
        );
        assert!(
            !nodes.contains(&far_button),
            "below-the-fold button must be excluded"
        );
    }

    #[test]
    fn lnes_includes_global_scroll_when_page_is_long() {
        let (tree, ..) = sample_page();
        let analyzer = DomAnalyzer::new();
        let lnes = analyzer.lnes(&tree, &Viewport::phone());
        assert!(lnes.allows(EventType::Scroll));
        assert!(lnes.allows(EventType::TouchMove));
    }

    #[test]
    fn lnes_types_mask_matches_the_full_lnes() {
        let (tree, ..) = sample_page();
        let analyzer = DomAnalyzer::new();
        for scroll in [0, 500, 1_900, 3_000] {
            let mut vp = Viewport::phone();
            vp.scroll_to(scroll);
            let via_lnes: EventTypeSet = analyzer
                .lnes(&tree, &vp)
                .event_types()
                .into_iter()
                .collect();
            assert_eq!(
                analyzer.lnes_types(&tree, &vp),
                via_lnes,
                "mask must agree with the Lnes at scroll {scroll}"
            );
        }
    }

    #[test]
    fn viewport_features_counts_match_the_node_list_helpers() {
        // `viewport_features` inlines the visibility/clickable filters that
        // `DomTree::visible_clickable_nodes` / `visible_link_nodes` expose as
        // node lists; pin the two implementations together so they cannot
        // drift.
        let (tree, ..) = sample_page();
        for scroll in [0, 500, 1_900] {
            let mut vp = Viewport::phone();
            vp.scroll_to(scroll);
            let features = DomAnalyzer::new().viewport_features(&tree, &vp);
            assert_eq!(
                features.visible_clickable_count,
                tree.visible_clickable_nodes(&vp).len(),
                "clickable count at scroll {scroll}"
            );
            assert_eq!(
                features.visible_link_count,
                tree.visible_link_nodes(&vp).len(),
                "link count at scroll {scroll}"
            );
        }
    }

    #[test]
    fn lnes_event_types_are_deduplicated() {
        let (tree, ..) = sample_page();
        let lnes = DomAnalyzer::new().lnes(&tree, &Viewport::phone());
        let types = lnes.event_types();
        let mut dedup = types.clone();
        dedup.dedup();
        assert_eq!(types, dedup);
        assert!(types.contains(&EventType::Click));
    }

    #[test]
    fn scrolling_far_enough_reveals_the_far_button() {
        let (tree, _, _, _, far_button) = sample_page();
        let analyzer = DomAnalyzer::new();
        let mut vp = Viewport::phone();
        vp.scroll_to(1_900);
        let lnes = analyzer.lnes(&tree, &vp);
        assert!(lnes.nodes_for(EventType::Click).contains(&far_button));
    }

    #[test]
    fn viewport_features_reflect_clickable_and_link_area() {
        let (tree, ..) = sample_page();
        let analyzer = DomAnalyzer::new();
        let features = analyzer.viewport_features(&tree, &Viewport::phone());
        assert!(features.clickable_region_fraction > 0.0);
        assert!(features.clickable_region_fraction < 1.0);
        assert!(features.visible_link_fraction > 0.0);
        assert!(features.visible_link_fraction <= features.clickable_region_fraction);
        assert_eq!(features.visible_link_count, 1);
        assert_eq!(features.visible_clickable_count, 2);
        assert!(features.scrollable);
    }

    #[test]
    fn empty_page_has_empty_lnes_and_zero_features() {
        let tree = DomTree::new();
        let analyzer = DomAnalyzer::new();
        let vp = Viewport::phone();
        let lnes = analyzer.lnes(&tree, &vp);
        assert!(lnes.is_empty());
        assert_eq!(lnes.len(), 0);
        let features = analyzer.viewport_features(&tree, &vp);
        assert_eq!(features.clickable_region_fraction, 0.0);
        assert_eq!(features.visible_link_count, 0);
        assert!(!features.scrollable);
    }

    #[test]
    fn lnes_after_menu_click_includes_menu_items() {
        let (tree, _, menu_button, menu_item, _) = sample_page();
        let analyzer = DomAnalyzer::new();
        let vp = Viewport::phone();
        let before = analyzer.lnes(&tree, &vp);
        assert!(!before.nodes_for(EventType::Click).contains(&menu_item));
        let after = lnes_after(&tree, &vp, menu_button, EventType::Click);
        assert!(after.nodes_for(EventType::Click).contains(&menu_item));
        // The live DOM is untouched.
        assert!(!analyzer
            .lnes(&tree, &vp)
            .nodes_for(EventType::Click)
            .contains(&menu_item));
    }

    #[test]
    fn lnes_after_scroll_reveals_below_the_fold_content() {
        let (tree, _, _, _, far_button) = sample_page();
        let mut tree = tree;
        tree.add_listener(
            tree.root(),
            EventType::Scroll,
            CallbackEffect::ScrollBy(1_900),
        )
        .unwrap();
        let after = lnes_after(&tree, &Viewport::phone(), tree.root(), EventType::Scroll);
        assert!(after.nodes_for(EventType::Click).contains(&far_button));
    }

    #[test]
    fn hypothetical_events_without_listeners_are_skipped() {
        let (tree, nav_link, ..) = sample_page();
        let vp = Viewport::phone();
        // Submit has no listener anywhere; the projection should not fail.
        assert!(tree
            .node(nav_link)
            .unwrap()
            .listener(EventType::Submit)
            .is_none());
        let after = lnes_after(&tree, &vp, nav_link, EventType::Submit);
        assert!(!after.is_empty());
        assert_eq!(after, DomAnalyzer::new().lnes(&tree, &vp));
    }

    #[test]
    fn incremental_analyzer_matches_full_scan_across_scrolls_and_toggles() {
        let (tree, _, menu_button, ..) = sample_page();
        let mut tree = std::sync::Arc::new(tree);
        let analyzer = DomAnalyzer::new();
        let mut inc = IncrementalAnalyzer::new();
        let mut vp = Viewport::phone();
        let toggle_effect = tree
            .node(menu_button)
            .unwrap()
            .listener(EventType::Click)
            .unwrap();
        let CallbackEffect::ToggleVisibility(menu) = toggle_effect else {
            panic!("menu button toggles");
        };
        // Interleave scrolls (self-healing deltas) and toggles (driven
        // through note_toggle) and check every step against the full scan.
        for (step, scroll) in [0, 500, 1_900, 1_900, 0, 700, 700, 3_000, 250, 0]
            .into_iter()
            .enumerate()
        {
            vp.scroll_to(scroll);
            if step % 3 == 2 {
                let pre = tree.stamp();
                let mut scratch_vp = vp;
                std::sync::Arc::make_mut(&mut tree)
                    .apply_effect(toggle_effect, &mut scratch_vp)
                    .unwrap();
                inc.note_toggle(pre, &tree, menu);
            }
            assert_eq!(
                inc.viewport_features(&tree, &vp),
                analyzer.viewport_features(&tree, &vp),
                "features diverged at step {step} (scroll {scroll})"
            );
            assert_eq!(
                inc.lnes_types(&tree, &vp),
                analyzer.lnes_types(&tree, &vp),
                "mask diverged at step {step} (scroll {scroll})"
            );
        }
        let stats = inc.stats();
        assert_eq!(
            stats.rebuilds, 1,
            "steady state must run on deltas: {stats:?}"
        );
        assert!(stats.scroll_deltas > 0);
        assert!(stats.scroll_resets > 0);
        assert!(stats.toggle_deltas > 0);
    }

    #[test]
    fn incremental_analyzer_rebuilds_on_untracked_mutation() {
        let (tree, ..) = sample_page();
        let mut tree = std::sync::Arc::new(tree);
        let analyzer = DomAnalyzer::new();
        let mut inc = IncrementalAnalyzer::new();
        let vp = Viewport::phone();
        let before = inc.lnes_types(&tree, &vp);
        assert!(!before.contains(EventType::Submit));
        // Mutate the tree *without* telling the analyzer: the stamp guard
        // must force a rebuild rather than serve stale aggregates.
        let submit = std::sync::Arc::make_mut(&mut tree)
            .create_node(NodeKind::SubmitButton, Rect::new(0, 60, 80, 40));
        {
            let t = std::sync::Arc::make_mut(&mut tree);
            t.append_child(t.root(), submit).unwrap();
            t.add_listener(submit, EventType::Submit, CallbackEffect::SubmitForm)
                .unwrap();
        }
        let after = inc.lnes_types(&tree, &vp);
        assert!(after.contains(EventType::Submit));
        assert_eq!(after, analyzer.lnes_types(&tree, &vp));
        assert_eq!(inc.stats().rebuilds, 2);
    }
}
