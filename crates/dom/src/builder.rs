//! A fluent builder for realistic mobile-Web page DOMs.
//!
//! The workload crate uses [`PageBuilder`] to construct the 18 application
//! DOMs (news front pages, search pages, video pages, shopping pages...) with
//! controllable amounts of clickable area, links, collapsible menus and
//! forms — the knobs that drive both the Table 1 features and the LNES.

use std::sync::Arc;

use crate::events::EventType;
use crate::geometry::{Rect, Viewport};
use crate::tree::{CallbackEffect, DomTree, NodeId, NodeKind};

/// A fully built page: the DOM tree and the node groups
/// that the workload generator needs to target interactions at.
#[derive(Debug, Clone, PartialEq)]
pub struct BuiltPage {
    /// The page DOM, shared immutably. Sessions that need to mutate the DOM
    /// (the predictor's `SessionState`) hold their own handle and clone
    /// copy-on-write, so a page built once can back any number of concurrent
    /// replays without per-replay tree copies. The tree's
    /// [`crate::tree::TreeStamp`] travels with every such clone: incremental
    /// analyzer caches keyed on the stamp stay valid across unmutated clones
    /// and self-invalidate the moment a copy-on-write clone diverges.
    pub tree: Arc<DomTree>,
    /// Navigation links (header plus article links).
    pub links: Vec<NodeId>,
    /// Non-navigating buttons (like/expand/play controls).
    pub buttons: Vec<NodeId>,
    /// Disclosure buttons that toggle a menu.
    pub menu_buttons: Vec<NodeId>,
    /// Menu items (hidden until their menu is expanded).
    pub menu_items: Vec<NodeId>,
    /// Form submit buttons.
    pub submit_buttons: Vec<NodeId>,
    /// Total document height in pixels.
    pub document_height: i64,
}

impl BuiltPage {
    /// All interactive nodes, regardless of group.
    pub fn interactive_nodes(&self) -> Vec<NodeId> {
        let mut all = Vec::new();
        all.extend(&self.links);
        all.extend(&self.buttons);
        all.extend(&self.menu_buttons);
        all.extend(&self.menu_items);
        all.extend(&self.submit_buttons);
        all
    }
}

/// Fluent page builder. Sections are stacked vertically in call order.
///
/// # Examples
///
/// ```
/// use pes_dom::PageBuilder;
///
/// let page = PageBuilder::new(360)
///     .nav_bar(4)
///     .hero_image(200)
///     .article_list(10, true)
///     .collapsible_menu(5)
///     .search_form()
///     .build();
/// assert!(!page.links.is_empty());
/// assert!(!page.menu_items.is_empty());
/// assert!(page.document_height > 640);
/// ```
#[derive(Debug, Clone)]
pub struct PageBuilder {
    tree: DomTree,
    width: i64,
    cursor_y: i64,
    links: Vec<NodeId>,
    buttons: Vec<NodeId>,
    menu_buttons: Vec<NodeId>,
    menu_items: Vec<NodeId>,
    submit_buttons: Vec<NodeId>,
}

impl PageBuilder {
    /// Starts a page of the given CSS-pixel width (typically the viewport
    /// width; non-positive values are clamped to 1).
    pub fn new(width: i64) -> Self {
        PageBuilder {
            tree: DomTree::new(),
            width: width.max(1),
            cursor_y: 0,
            links: Vec::new(),
            buttons: Vec::new(),
            menu_buttons: Vec::new(),
            menu_items: Vec::new(),
            submit_buttons: Vec::new(),
        }
    }

    fn attach(&mut self, id: NodeId) {
        let root = self.tree.root();
        self.tree
            .append_child(root, id)
            .expect("builder-created nodes are always attachable");
    }

    /// A horizontal navigation bar with `n_links` evenly sized links.
    pub fn nav_bar(mut self, n_links: usize) -> Self {
        let n = n_links.max(1) as i64;
        let height = 48;
        let link_width = self.width / n;
        for i in 0..n {
            let rect = Rect::new(i * link_width, self.cursor_y, link_width - 4, height);
            let link = self
                .tree
                .create_labelled_node(NodeKind::Link, rect, format!("nav-{i}"));
            self.attach(link);
            self.tree
                .add_listener(link, EventType::Click, CallbackEffect::Navigate)
                .expect("fresh node");
            self.tree
                .add_listener(link, EventType::TouchStart, CallbackEffect::Navigate)
                .expect("fresh node");
            self.links.push(link);
        }
        self.cursor_y += height + 8;
        self
    }

    /// A full-width hero image of the given height (non-interactive).
    pub fn hero_image(mut self, height: i64) -> Self {
        let rect = Rect::new(0, self.cursor_y, self.width, height.max(1));
        let img = self
            .tree
            .create_labelled_node(NodeKind::Image, rect, "hero");
        self.attach(img);
        self.cursor_y += height.max(1) + 8;
        self
    }

    /// A vertical list of `n` article teasers, each a link; when
    /// `with_images` is set every other teaser also carries a thumbnail.
    pub fn article_list(mut self, n: usize, with_images: bool) -> Self {
        let row_height = 96;
        for i in 0..n {
            let y = self.cursor_y;
            if with_images && i % 2 == 0 {
                let thumb = self.tree.create_labelled_node(
                    NodeKind::Image,
                    Rect::new(0, y, 96, row_height - 8),
                    format!("thumb-{i}"),
                );
                self.attach(thumb);
            }
            let link_x = if with_images && i % 2 == 0 { 104 } else { 0 };
            let rect = Rect::new(link_x, y, self.width - link_x, row_height - 8);
            let link = self
                .tree
                .create_labelled_node(NodeKind::Link, rect, format!("article-{i}"));
            self.attach(link);
            self.tree
                .add_listener(link, EventType::Click, CallbackEffect::Navigate)
                .expect("fresh node");
            self.tree
                .add_listener(link, EventType::TouchStart, CallbackEffect::Navigate)
                .expect("fresh node");
            self.links.push(link);
            self.cursor_y += row_height;
        }
        self.cursor_y += 8;
        self
    }

    /// A row of `n` non-navigating action buttons (like, share, play...).
    pub fn button_row(mut self, n: usize) -> Self {
        let n_i = n.max(1) as i64;
        let height = 44;
        let button_width = self.width / n_i;
        for i in 0..n_i {
            let rect = Rect::new(i * button_width, self.cursor_y, button_width - 6, height);
            let button =
                self.tree
                    .create_labelled_node(NodeKind::Button, rect, format!("action-{i}"));
            self.attach(button);
            self.tree
                .add_listener(button, EventType::Click, CallbackEffect::MutateContent)
                .expect("fresh node");
            self.tree
                .add_listener(button, EventType::TouchStart, CallbackEffect::MutateContent)
                .expect("fresh node");
            self.buttons.push(button);
        }
        self.cursor_y += height + 8;
        self
    }

    /// A collapsible menu (the Fig. 7 pattern): a disclosure button plus a
    /// hidden menu with `n_items` navigating items.
    pub fn collapsible_menu(mut self, n_items: usize) -> Self {
        let button_rect = Rect::new(0, self.cursor_y, 140, 44);
        let button = self
            .tree
            .create_labelled_node(NodeKind::Button, button_rect, "menu-toggle");
        self.attach(button);
        self.cursor_y += 48;

        let item_height = 40;
        let n = n_items.max(1) as i64;
        let menu_rect = Rect::new(0, self.cursor_y, self.width, n * item_height);
        let menu = self
            .tree
            .create_labelled_node(NodeKind::Menu, menu_rect, "menu");
        self.attach(menu);
        self.tree.set_displayed(menu, false).expect("fresh node");
        self.tree
            .add_listener(
                button,
                EventType::Click,
                CallbackEffect::ToggleVisibility(menu),
            )
            .expect("fresh node");
        self.tree
            .add_listener(
                button,
                EventType::TouchStart,
                CallbackEffect::ToggleVisibility(menu),
            )
            .expect("fresh node");
        self.menu_buttons.push(button);

        for i in 0..n {
            let rect = Rect::new(
                8,
                self.cursor_y + i * item_height,
                self.width - 16,
                item_height - 4,
            );
            let item =
                self.tree
                    .create_labelled_node(NodeKind::MenuItem, rect, format!("menu-item-{i}"));
            self.tree.append_child(menu, item).expect("menu exists");
            self.tree
                .add_listener(item, EventType::Click, CallbackEffect::Navigate)
                .expect("fresh node");
            self.menu_items.push(item);
        }
        // The collapsed menu takes no vertical space until expanded; keep a
        // small gap so following sections do not overlap the expanded menu's
        // first rows in a confusing way.
        self.cursor_y += 8;
        self
    }

    /// A search/login form: a text input plus a submit button.
    pub fn search_form(mut self) -> Self {
        let form_rect = Rect::new(0, self.cursor_y, self.width, 56);
        let form = self
            .tree
            .create_labelled_node(NodeKind::Form, form_rect, "form");
        self.attach(form);
        let input = self.tree.create_labelled_node(
            NodeKind::Input,
            Rect::new(0, self.cursor_y + 4, self.width - 110, 48),
            "form-input",
        );
        self.tree.append_child(form, input).expect("form exists");
        self.tree
            .add_listener(input, EventType::Click, CallbackEffect::None)
            .expect("fresh node");
        let submit = self.tree.create_labelled_node(
            NodeKind::SubmitButton,
            Rect::new(self.width - 100, self.cursor_y + 4, 100, 48),
            "form-submit",
        );
        self.tree.append_child(form, submit).expect("form exists");
        self.tree
            .add_listener(submit, EventType::Click, CallbackEffect::SubmitForm)
            .expect("fresh node");
        self.tree
            .add_listener(submit, EventType::Submit, CallbackEffect::SubmitForm)
            .expect("fresh node");
        self.submit_buttons.push(submit);
        self.buttons.push(input);
        self.cursor_y += 64;
        self
    }

    /// A full-width embedded video player with a play/pause control.
    pub fn video_player(mut self, height: i64) -> Self {
        let rect = Rect::new(0, self.cursor_y, self.width, height.max(1));
        let video = self
            .tree
            .create_labelled_node(NodeKind::Video, rect, "video");
        self.attach(video);
        self.tree
            .add_listener(video, EventType::Click, CallbackEffect::MutateContent)
            .expect("fresh node");
        self.tree
            .add_listener(video, EventType::TouchStart, CallbackEffect::MutateContent)
            .expect("fresh node");
        self.buttons.push(video);
        self.cursor_y += height.max(1) + 8;
        self
    }

    /// A block of plain, non-interactive text content of the given height.
    pub fn text_block(mut self, height: i64) -> Self {
        let rect = Rect::new(0, self.cursor_y, self.width, height.max(1));
        let text = self.tree.create_labelled_node(NodeKind::Text, rect, "text");
        self.attach(text);
        self.cursor_y += height.max(1) + 8;
        self
    }

    /// Finalises the page: registers document-level scroll listeners when the
    /// content is taller than a phone viewport and returns the
    /// [`BuiltPage`].
    pub fn build(mut self) -> BuiltPage {
        let root = self.tree.root();
        if self.cursor_y > Viewport::phone().height() {
            self.tree
                .add_listener(root, EventType::Scroll, CallbackEffect::ScrollBy(480))
                .expect("root exists");
            self.tree
                .add_listener(root, EventType::TouchMove, CallbackEffect::ScrollBy(240))
                .expect("root exists");
        }
        let document_height = self.tree.document_height();
        BuiltPage {
            tree: Arc::new(self.tree),
            links: self.links,
            buttons: self.buttons,
            menu_buttons: self.menu_buttons,
            menu_items: self.menu_items,
            submit_buttons: self.submit_buttons,
            document_height,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::DomAnalyzer;

    fn news_page() -> BuiltPage {
        PageBuilder::new(360)
            .nav_bar(5)
            .hero_image(180)
            .article_list(12, true)
            .collapsible_menu(6)
            .button_row(3)
            .search_form()
            .text_block(800)
            .build()
    }

    #[test]
    fn builder_produces_all_section_groups() {
        let page = news_page();
        assert_eq!(page.links.len(), 5 + 12);
        assert_eq!(page.menu_buttons.len(), 1);
        assert_eq!(page.menu_items.len(), 6);
        assert_eq!(page.submit_buttons.len(), 1);
        assert!(page.buttons.len() >= 3);
        assert!(page.document_height > 1_000);
        assert_eq!(
            page.interactive_nodes().len(),
            page.links.len()
                + page.buttons.len()
                + page.menu_buttons.len()
                + page.menu_items.len()
                + page.submit_buttons.len()
        );
    }

    #[test]
    fn long_pages_get_document_level_scroll_listeners() {
        let page = news_page();
        let root = page.tree.root();
        assert!(page
            .tree
            .node(root)
            .unwrap()
            .listener(EventType::Scroll)
            .is_some());
        assert!(page
            .tree
            .node(root)
            .unwrap()
            .listener(EventType::TouchMove)
            .is_some());
    }

    #[test]
    fn short_pages_do_not_scroll() {
        let page = PageBuilder::new(360).nav_bar(3).build();
        let root = page.tree.root();
        assert!(page
            .tree
            .node(root)
            .unwrap()
            .listener(EventType::Scroll)
            .is_none());
        assert!(
            !DomAnalyzer::new()
                .viewport_features(&page.tree, &Viewport::phone())
                .scrollable
        );
    }

    #[test]
    fn menu_items_start_hidden_and_expand_on_toggle() {
        let page = news_page();
        let vp = Viewport::phone();
        let mut tree = (*page.tree).clone();
        let item = page.menu_items[0];
        assert!(!tree.is_effectively_displayed(item));
        let button = page.menu_buttons[0];
        let effect = tree
            .node(button)
            .unwrap()
            .listener(EventType::Click)
            .unwrap();
        let mut scratch_vp = vp;
        tree.apply_effect(effect, &mut scratch_vp).unwrap();
        assert!(tree.is_effectively_displayed(item));
    }

    #[test]
    fn built_page_features_are_plausible() {
        let page = news_page();
        let features = DomAnalyzer::new().viewport_features(&page.tree, &Viewport::phone());
        assert!(features.clickable_region_fraction > 0.05);
        assert!(features.clickable_region_fraction <= 1.0);
        assert!(features.visible_link_count > 0);
        assert!(features.scrollable);
    }

    #[test]
    fn degenerate_builder_inputs_are_clamped() {
        let page = PageBuilder::new(0)
            .nav_bar(0)
            .hero_image(-5)
            .article_list(0, false)
            .button_row(0)
            .collapsible_menu(0)
            .text_block(-1)
            .build();
        // One nav link, one action button, one menu with one item.
        assert_eq!(page.links.len(), 1);
        assert_eq!(page.menu_items.len(), 1);
        assert!(page.document_height >= 1);
    }
}
