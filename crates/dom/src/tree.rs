//! The Document Object Model tree.
//!
//! Each node represents an application element (Sec. 5.2); nodes are stored
//! in an arena and addressed by [`NodeId`]. Nodes carry the two pieces of
//! state the PES DOM analyzer cares about: their geometry relative to the
//! viewport and the event listeners registered on them, each annotated with
//! the *semantic effect* of its callback so that the Semantic Tree can
//! determine the post-event DOM state without evaluating JavaScript (Fig. 7).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::DomError;
use crate::events::EventType;
use crate::geometry::{Rect, Viewport};

/// Index of a node in a [`DomTree`] arena.
///
/// # Examples
///
/// ```
/// use pes_dom::{DomTree, NodeKind};
/// use pes_dom::geometry::Rect;
///
/// let mut tree = DomTree::new();
/// let root = tree.root();
/// let id = tree.create_node(NodeKind::Button, Rect::new(0, 0, 100, 40));
/// tree.append_child(root, id).unwrap();
/// assert_eq!(tree.node(id).unwrap().kind(), NodeKind::Button);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(usize);

impl NodeId {
    /// Returns the raw arena index.
    pub fn index(self) -> usize {
        self.0
    }

    /// Rebuilds an id from a raw arena index (trace deserialisation). The id
    /// is only meaningful against the tree it originally came from.
    pub fn from_index(index: usize) -> NodeId {
        NodeId(index)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node#{}", self.0)
    }
}

/// The element class of a DOM node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeKind {
    /// The document root.
    Document,
    /// A generic block container (`<div>`, `<section>`, ...).
    Container,
    /// Plain text content.
    Text,
    /// An image.
    Image,
    /// A hyperlink (`<a>`).
    Link,
    /// A button (`<button>` or a clickable `<div>`).
    Button,
    /// A collapsible menu container.
    Menu,
    /// An item inside a menu.
    MenuItem,
    /// A form element.
    Form,
    /// A text input field.
    Input,
    /// A form submit button.
    SubmitButton,
    /// An embedded video player.
    Video,
}

impl NodeKind {
    /// Whether elements of this kind are links for the purpose of the
    /// "visible link percentage" feature of Table 1.
    pub fn is_link(self) -> bool {
        matches!(self, NodeKind::Link)
    }
}

/// The memoized semantic effect of an event callback (Sec. 5.2 / Fig. 7): what
/// the DOM will look like after the callback runs, without evaluating it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CallbackEffect {
    /// The callback has no structural effect on the DOM.
    None,
    /// The callback toggles the CSS `display` of another node between
    /// `none` and `block` (the collapsible-menu pattern of Fig. 7).
    ToggleVisibility(NodeId),
    /// The callback navigates to a new document.
    Navigate,
    /// The callback scrolls the viewport by the given number of pixels.
    ScrollBy(i64),
    /// The callback submits a form (with a network request).
    SubmitForm,
    /// The callback mutates content in place (text/images change, structure
    /// and visibility do not).
    MutateContent,
}

impl CallbackEffect {
    /// Whether applying this effect mutates the DOM tree itself, as opposed
    /// to only the viewport (or nothing at all). Callers holding a shared
    /// tree use this to avoid a copy-on-write clone for the viewport-only
    /// effects, which dominate real sessions (scrolling, navigation).
    pub fn mutates_tree(self) -> bool {
        matches!(self, CallbackEffect::ToggleVisibility(_))
    }
}

/// One DOM node: kind, geometry, display state, listeners and tree links.
#[derive(Debug, Clone, PartialEq)]
pub struct DomNode {
    kind: NodeKind,
    rect: Rect,
    displayed: bool,
    label: String,
    listeners: BTreeMap<EventType, CallbackEffect>,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
}

impl DomNode {
    fn new(kind: NodeKind, rect: Rect) -> Self {
        DomNode {
            kind,
            rect,
            displayed: true,
            label: String::new(),
            listeners: BTreeMap::new(),
            parent: None,
            children: Vec::new(),
        }
    }

    /// The element class of this node.
    pub fn kind(&self) -> NodeKind {
        self.kind
    }

    /// Layout rectangle in document coordinates.
    pub fn rect(&self) -> Rect {
        self.rect
    }

    /// Whether the node's own CSS display is not `none`. A node is only
    /// *effectively* visible when all its ancestors are displayed too; see
    /// [`DomTree::is_effectively_displayed`].
    pub fn is_displayed(&self) -> bool {
        self.displayed
    }

    /// Optional developer-facing label (used by the builders and debugging).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Event listeners registered on this node along with their memoized
    /// callback effects.
    pub fn listeners(&self) -> impl Iterator<Item = (EventType, CallbackEffect)> + '_ {
        self.listeners.iter().map(|(e, c)| (*e, *c))
    }

    /// The memoized effect for a specific event type, if a listener exists.
    pub fn listener(&self, event: EventType) -> Option<CallbackEffect> {
        self.listeners.get(&event).copied()
    }

    /// Whether any tap-class listener (click / touchstart) is registered.
    pub fn is_clickable(&self) -> bool {
        self.listeners.keys().any(|e| e.is_tap())
    }

    /// The node's parent, if any.
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// The node's children, in document order.
    pub fn children(&self) -> &[NodeId] {
        &self.children
    }
}

/// An opaque token identifying one content state of one [`DomTree`].
///
/// Stamps are drawn from a process-wide monotone counter: a fresh stamp is
/// assigned at construction and after every mutating operation, while
/// `Clone` copies the source's stamp. Two trees carrying the same stamp are
/// therefore guaranteed to hold identical content (one is an unmutated clone
/// of the other), which is what lets the incremental analyzer validate its
/// cached aggregates across the copy-on-write `Arc<DomTree>` clones the
/// session state performs — without ever diffing trees. Stamps are *not*
/// part of a tree's logical value: equality of trees ignores them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TreeStamp(u64);

impl TreeStamp {
    fn next() -> TreeStamp {
        static COUNTER: AtomicU64 = AtomicU64::new(1);
        TreeStamp(COUNTER.fetch_add(1, Ordering::Relaxed))
    }
}

/// An arena-based DOM tree.
///
/// # Examples
///
/// ```
/// use pes_dom::{CallbackEffect, DomTree, EventType, NodeKind};
/// use pes_dom::geometry::{Rect, Viewport};
///
/// let mut tree = DomTree::new();
/// let root = tree.root();
/// let button = tree.create_node(NodeKind::Button, Rect::new(0, 0, 100, 40));
/// tree.append_child(root, button).unwrap();
/// tree.add_listener(button, EventType::Click, CallbackEffect::None).unwrap();
///
/// let vp = Viewport::phone();
/// assert!(tree.is_effectively_visible(button, &vp));
/// assert!(tree.node(button).unwrap().is_clickable());
/// ```
#[derive(Debug, Clone)]
pub struct DomTree {
    nodes: Vec<DomNode>,
    root: NodeId,
    stamp: TreeStamp,
}

impl PartialEq for DomTree {
    fn eq(&self, other: &Self) -> bool {
        // The stamp is a cache-validity token, not content: two trees built
        // the same way compare equal even though their stamps differ.
        self.nodes == other.nodes && self.root == other.root
    }
}

impl DomTree {
    /// Creates a tree containing only a document root node.
    pub fn new() -> Self {
        let root_node = DomNode::new(NodeKind::Document, Rect::EMPTY);
        DomTree {
            nodes: vec![root_node],
            root: NodeId(0),
            stamp: TreeStamp::next(),
        }
    }

    /// The document root.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The tree's current content stamp. Refreshed by every mutating
    /// operation; preserved by `Clone`. See [`TreeStamp`].
    pub fn stamp(&self) -> TreeStamp {
        self.stamp
    }

    /// Number of nodes in the tree (including the root).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree contains only the root.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Creates a detached node and returns its id. Attach it with
    /// [`DomTree::append_child`].
    pub fn create_node(&mut self, kind: NodeKind, rect: Rect) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(DomNode::new(kind, rect));
        self.stamp = TreeStamp::next();
        id
    }

    /// Creates a labelled node.
    pub fn create_labelled_node(
        &mut self,
        kind: NodeKind,
        rect: Rect,
        label: impl Into<String>,
    ) -> NodeId {
        let id = self.create_node(kind, rect);
        self.nodes[id.0].label = label.into();
        self.stamp = TreeStamp::next();
        id
    }

    /// Attaches `child` under `parent`.
    ///
    /// # Errors
    ///
    /// Returns [`DomError::UnknownNode`] if either id is stale, and
    /// [`DomError::InvalidStructure`] if the child already has a parent, the
    /// child is the root, or the attachment would create a cycle.
    pub fn append_child(&mut self, parent: NodeId, child: NodeId) -> Result<(), DomError> {
        self.check_id(parent)?;
        self.check_id(child)?;
        if child == self.root {
            return Err(DomError::InvalidStructure(
                "the root cannot be a child".into(),
            ));
        }
        if self.nodes[child.0].parent.is_some() {
            return Err(DomError::InvalidStructure(format!(
                "{child} already has a parent"
            )));
        }
        // Walk up from `parent`; if we reach `child` the attachment would
        // create a cycle.
        let mut cursor = Some(parent);
        while let Some(c) = cursor {
            if c == child {
                return Err(DomError::InvalidStructure(format!(
                    "attaching {child} under {parent} would create a cycle"
                )));
            }
            cursor = self.nodes[c.0].parent;
        }
        self.nodes[child.0].parent = Some(parent);
        self.nodes[parent.0].children.push(child);
        self.stamp = TreeStamp::next();
        Ok(())
    }

    /// Immutable access to a node.
    ///
    /// # Errors
    ///
    /// Returns [`DomError::UnknownNode`] for stale ids.
    pub fn node(&self, id: NodeId) -> Result<&DomNode, DomError> {
        self.nodes.get(id.0).ok_or(DomError::UnknownNode(id.0))
    }

    fn check_id(&self, id: NodeId) -> Result<(), DomError> {
        if id.0 < self.nodes.len() {
            Ok(())
        } else {
            Err(DomError::UnknownNode(id.0))
        }
    }

    /// Registers an event listener with its memoized callback effect.
    ///
    /// # Errors
    ///
    /// Returns [`DomError::UnknownNode`] for stale ids.
    pub fn add_listener(
        &mut self,
        id: NodeId,
        event: EventType,
        effect: CallbackEffect,
    ) -> Result<(), DomError> {
        self.check_id(id)?;
        self.nodes[id.0].listeners.insert(event, effect);
        self.stamp = TreeStamp::next();
        Ok(())
    }

    /// Sets a node's CSS display state.
    ///
    /// # Errors
    ///
    /// Returns [`DomError::UnknownNode`] for stale ids.
    pub fn set_displayed(&mut self, id: NodeId, displayed: bool) -> Result<(), DomError> {
        self.check_id(id)?;
        self.nodes[id.0].displayed = displayed;
        self.stamp = TreeStamp::next();
        Ok(())
    }

    /// Toggles a node's CSS display state (the Fig. 7 pattern) and returns
    /// the new state.
    ///
    /// # Errors
    ///
    /// Returns [`DomError::UnknownNode`] for stale ids.
    pub fn toggle_displayed(&mut self, id: NodeId) -> Result<bool, DomError> {
        self.check_id(id)?;
        let node = &mut self.nodes[id.0];
        node.displayed = !node.displayed;
        let displayed = node.displayed;
        self.stamp = TreeStamp::next();
        Ok(displayed)
    }

    /// Moves a node (and implicitly its subtree) by `(dx, dy)` document
    /// pixels. Children keep their own rectangles; builders lay nodes out in
    /// absolute coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`DomError::UnknownNode`] for stale ids.
    pub fn translate_node(&mut self, id: NodeId, dx: i64, dy: i64) -> Result<(), DomError> {
        self.check_id(id)?;
        let rect = self.nodes[id.0].rect.translated(dx, dy);
        self.nodes[id.0].rect = rect;
        self.stamp = TreeStamp::next();
        Ok(())
    }

    /// Whether a node and all of its ancestors are displayed.
    pub fn is_effectively_displayed(&self, id: NodeId) -> bool {
        let mut cursor = Some(id);
        while let Some(c) = cursor {
            match self.nodes.get(c.0) {
                Some(node) if node.displayed => cursor = node.parent,
                _ => return false,
            }
        }
        true
    }

    /// Whether a node is displayed and inside the current viewport.
    pub fn is_effectively_visible(&self, id: NodeId, viewport: &Viewport) -> bool {
        self.is_effectively_displayed(id)
            && self
                .nodes
                .get(id.0)
                .map(|n| viewport.is_visible(&n.rect))
                .unwrap_or(false)
    }

    /// Iterates over `(NodeId, &DomNode)` pairs in creation order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &DomNode)> + '_ {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i), n))
    }

    /// Depth-first pre-order traversal of the subtree rooted at `id`.
    pub fn descendants(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(current) = stack.pop() {
            if current.0 >= self.nodes.len() {
                continue;
            }
            out.push(current);
            // Push children in reverse so the traversal visits them in
            // document order.
            for &child in self.nodes[current.0].children.iter().rev() {
                stack.push(child);
            }
        }
        out
    }

    /// The total document height: the bottom-most extent of any node.
    pub fn document_height(&self) -> i64 {
        self.nodes
            .iter()
            .map(|n| n.rect.y() + n.rect.height())
            .max()
            .unwrap_or(0)
    }

    /// All effectively-visible nodes with at least one tap listener.
    pub fn visible_clickable_nodes(&self, viewport: &Viewport) -> Vec<NodeId> {
        self.iter()
            .filter(|(id, node)| node.is_clickable() && self.is_effectively_visible(*id, viewport))
            .map(|(id, _)| id)
            .collect()
    }

    /// All effectively-visible link nodes.
    pub fn visible_link_nodes(&self, viewport: &Viewport) -> Vec<NodeId> {
        self.iter()
            .filter(|(id, node)| {
                node.kind().is_link() && self.is_effectively_visible(*id, viewport)
            })
            .map(|(id, _)| id)
            .collect()
    }

    /// Applies the semantic effect of a callback to the tree, updating the
    /// viewport when the effect scrolls. Returns `true` when the DOM (or
    /// scroll position) actually changed — the signal the analyzer uses to
    /// recompute the LNES.
    ///
    /// # Errors
    ///
    /// Returns [`DomError::UnknownNode`] if the effect refers to a stale node.
    pub fn apply_effect(
        &mut self,
        effect: CallbackEffect,
        viewport: &mut Viewport,
    ) -> Result<bool, DomError> {
        match effect {
            CallbackEffect::ToggleVisibility(target) => {
                self.toggle_displayed(target)?;
                Ok(true)
            }
            other => Ok(DomTree::apply_viewport_effect(other, viewport)),
        }
    }

    /// Applies the viewport-only part of an effect (the variants for which
    /// [`CallbackEffect::mutates_tree`] is `false`): scrolling moves the
    /// viewport, navigation/submission resets the scroll position (the
    /// document replacement itself is modelled by the workload crate).
    /// Returns `true` when the scroll position changed. Tree-mutating
    /// effects are ignored here — route those through
    /// [`DomTree::apply_effect`].
    pub fn apply_viewport_effect(effect: CallbackEffect, viewport: &mut Viewport) -> bool {
        match effect {
            CallbackEffect::None
            | CallbackEffect::MutateContent
            | CallbackEffect::ToggleVisibility(_) => false,
            CallbackEffect::Navigate | CallbackEffect::SubmitForm => {
                viewport.scroll_to(0);
                true
            }
            CallbackEffect::ScrollBy(dy) => {
                viewport.scroll_by(dy);
                true
            }
        }
    }
}

impl Default for DomTree {
    fn default() -> Self {
        DomTree::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_tree() -> (DomTree, NodeId, NodeId, NodeId) {
        let mut tree = DomTree::new();
        let root = tree.root();
        let button = tree.create_node(NodeKind::Button, Rect::new(0, 0, 100, 40));
        let menu = tree.create_node(NodeKind::Menu, Rect::new(0, 40, 200, 200));
        let item = tree.create_node(NodeKind::MenuItem, Rect::new(0, 40, 200, 40));
        tree.append_child(root, button).unwrap();
        tree.append_child(root, menu).unwrap();
        tree.append_child(menu, item).unwrap();
        tree.add_listener(
            button,
            EventType::Click,
            CallbackEffect::ToggleVisibility(menu),
        )
        .unwrap();
        tree.add_listener(item, EventType::Click, CallbackEffect::Navigate)
            .unwrap();
        tree.set_displayed(menu, false).unwrap();
        (tree, button, menu, item)
    }

    #[test]
    fn new_tree_has_a_document_root() {
        let tree = DomTree::new();
        assert_eq!(tree.len(), 1);
        assert!(tree.is_empty());
        assert_eq!(tree.node(tree.root()).unwrap().kind(), NodeKind::Document);
    }

    #[test]
    fn append_child_builds_parent_links() {
        let (tree, button, menu, item) = small_tree();
        assert_eq!(tree.node(button).unwrap().parent(), Some(tree.root()));
        assert_eq!(tree.node(item).unwrap().parent(), Some(menu));
        assert_eq!(tree.node(menu).unwrap().children(), &[item]);
        assert_eq!(tree.len(), 4);
        assert!(!tree.is_empty());
    }

    #[test]
    fn append_child_rejects_double_attachment_and_cycles() {
        let mut tree = DomTree::new();
        let root = tree.root();
        let a = tree.create_node(NodeKind::Container, Rect::EMPTY);
        let b = tree.create_node(NodeKind::Container, Rect::EMPTY);
        tree.append_child(root, a).unwrap();
        tree.append_child(a, b).unwrap();
        assert!(
            tree.append_child(root, b).is_err(),
            "b already has a parent"
        );
        assert!(
            tree.append_child(b, root).is_err(),
            "root cannot be a child"
        );
        let c = tree.create_node(NodeKind::Container, Rect::EMPTY);
        assert!(tree.append_child(NodeId(99), c).is_err());
        assert!(tree.append_child(c, NodeId(99)).is_err());
    }

    #[test]
    fn effective_display_requires_all_ancestors_displayed() {
        let (mut tree, _button, menu, item) = small_tree();
        // The menu is hidden, so its item is not effectively displayed even
        // though the item itself is displayed.
        assert!(tree.node(item).unwrap().is_displayed());
        assert!(!tree.is_effectively_displayed(item));
        tree.set_displayed(menu, true).unwrap();
        assert!(tree.is_effectively_displayed(item));
    }

    #[test]
    fn visibility_requires_viewport_intersection() {
        let mut tree = DomTree::new();
        let root = tree.root();
        let below_fold = tree.create_node(NodeKind::Button, Rect::new(0, 5_000, 100, 40));
        tree.append_child(root, below_fold).unwrap();
        tree.add_listener(below_fold, EventType::Click, CallbackEffect::None)
            .unwrap();
        let mut vp = Viewport::phone();
        assert!(!tree.is_effectively_visible(below_fold, &vp));
        assert!(tree.visible_clickable_nodes(&vp).is_empty());
        vp.scroll_to(4_900);
        assert!(tree.is_effectively_visible(below_fold, &vp));
        assert_eq!(tree.visible_clickable_nodes(&vp), vec![below_fold]);
    }

    #[test]
    fn toggle_visibility_effect_expands_the_menu() {
        let (mut tree, button, menu, item) = small_tree();
        let mut vp = Viewport::phone();
        assert!(!tree.is_effectively_visible(item, &vp));
        let effect = tree
            .node(button)
            .unwrap()
            .listener(EventType::Click)
            .unwrap();
        let changed = tree.apply_effect(effect, &mut vp).unwrap();
        assert!(changed);
        assert!(tree.is_effectively_displayed(menu));
        assert!(tree.is_effectively_visible(item, &vp));
        // Toggling again collapses it.
        tree.apply_effect(effect, &mut vp).unwrap();
        assert!(!tree.is_effectively_visible(item, &vp));
    }

    #[test]
    fn scroll_and_navigate_effects_touch_the_viewport() {
        let mut tree = DomTree::new();
        let mut vp = Viewport::phone();
        assert!(tree
            .apply_effect(CallbackEffect::ScrollBy(300), &mut vp)
            .unwrap());
        assert_eq!(vp.scroll_y(), 300);
        assert!(tree
            .apply_effect(CallbackEffect::Navigate, &mut vp)
            .unwrap());
        assert_eq!(vp.scroll_y(), 0);
        assert!(!tree.apply_effect(CallbackEffect::None, &mut vp).unwrap());
    }

    #[test]
    fn descendants_traversal_is_preorder() {
        let (tree, _button, menu, item) = small_tree();
        let order = tree.descendants(tree.root());
        assert_eq!(order.len(), 4);
        assert_eq!(order[0], tree.root());
        let menu_pos = order.iter().position(|&n| n == menu).unwrap();
        let item_pos = order.iter().position(|&n| n == item).unwrap();
        assert!(menu_pos < item_pos);
    }

    #[test]
    fn document_height_tracks_lowest_node() {
        let (tree, ..) = small_tree();
        assert_eq!(tree.document_height(), 240);
    }

    #[test]
    fn visible_links_are_counted_separately_from_clickables() {
        let mut tree = DomTree::new();
        let root = tree.root();
        let link = tree.create_node(NodeKind::Link, Rect::new(0, 0, 100, 20));
        let button = tree.create_node(NodeKind::Button, Rect::new(0, 30, 100, 20));
        tree.append_child(root, link).unwrap();
        tree.append_child(root, button).unwrap();
        tree.add_listener(link, EventType::Click, CallbackEffect::Navigate)
            .unwrap();
        tree.add_listener(button, EventType::Click, CallbackEffect::None)
            .unwrap();
        let vp = Viewport::phone();
        assert_eq!(tree.visible_link_nodes(&vp), vec![link]);
        assert_eq!(tree.visible_clickable_nodes(&vp).len(), 2);
    }

    #[test]
    fn stamps_track_content_identity() {
        let (mut tree, _button, menu, _item) = small_tree();
        let before = tree.stamp();
        // An unmutated clone carries the same stamp and equal content.
        let snapshot = tree.clone();
        assert_eq!(snapshot.stamp(), before);
        assert_eq!(snapshot, tree);
        // Every mutation refreshes the stamp; logical equality ignores it.
        tree.toggle_displayed(menu).unwrap();
        assert_ne!(tree.stamp(), before);
        assert_ne!(tree, snapshot);
        tree.toggle_displayed(menu).unwrap();
        assert_eq!(tree, snapshot, "content is back; stamps still differ");
        assert_ne!(tree.stamp(), snapshot.stamp());
        // Independently built trees never share a stamp.
        assert_ne!(DomTree::new().stamp(), DomTree::new().stamp());
    }

    #[test]
    fn labelled_nodes_keep_their_labels() {
        let mut tree = DomTree::new();
        let id = tree.create_labelled_node(NodeKind::Button, Rect::EMPTY, "submit");
        assert_eq!(tree.node(id).unwrap().label(), "submit");
    }

    #[test]
    fn stale_ids_are_rejected_everywhere() {
        let mut tree = DomTree::new();
        let stale = NodeId(42);
        let mut vp = Viewport::phone();
        assert!(tree.node(stale).is_err());
        assert!(tree
            .add_listener(stale, EventType::Click, CallbackEffect::None)
            .is_err());
        assert!(tree.set_displayed(stale, false).is_err());
        assert!(tree.toggle_displayed(stale).is_err());
        assert!(tree.translate_node(stale, 1, 1).is_err());
        assert!(tree
            .apply_effect(CallbackEffect::ToggleVisibility(stale), &mut vp)
            .is_err());
        assert!(!tree.is_effectively_displayed(stale));
        assert!(!tree.is_effectively_visible(stale, &vp));
    }
}
