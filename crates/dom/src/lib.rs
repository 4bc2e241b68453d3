//! # pes-dom — DOM tree and Likely-Next-Event-Set analysis
//!
//! The DOM substrate of the PES reproduction (Feng & Zhu, ISCA 2019). PES
//! narrows its event predictions down to the events the application logic
//! actually allows next: it traverses the part of the DOM tree inside the
//! viewport, collects the events registered on visible nodes (the
//! Likely-Next-Event-Set, LNES), and applies each listener's memoized callback
//! effect — piggybacked on the Accessibility Tree in the paper — to project
//! what the DOM will look like after a predicted event *without* evaluating
//! its JavaScript callback (Sec. 5.2, Fig. 7).
//!
//! This crate provides:
//!
//! * [`DomTree`] / [`DomNode`] — an arena DOM with geometry, CSS display
//!   state and event listeners annotated with memoized [`CallbackEffect`]s,
//!   applied without running the callback by [`DomTree::apply_effect`],
//! * [`DomAnalyzer`] — LNES computation and the application-inherent
//!   features of Table 1,
//! * [`IncrementalAnalyzer`] — the same features and LNES type bitmask
//!   maintained as deltas on scroll/toggle events (validated against the
//!   tree's [`tree::TreeStamp`]), the per-prediction-step fast path,
//! * [`PageBuilder`] — realistic page construction used by the workload
//!   generator.
//!
//! # Examples
//!
//! ```
//! use pes_dom::{DomAnalyzer, EventType, PageBuilder};
//! use pes_dom::geometry::Viewport;
//!
//! let page = PageBuilder::new(360)
//!     .nav_bar(4)
//!     .collapsible_menu(5)
//!     .article_list(8, true)
//!     .build();
//!
//! let analyzer = DomAnalyzer::new();
//! let lnes = analyzer.lnes(&page.tree, &Viewport::phone());
//! assert!(lnes.allows(EventType::Click));
//!
//! // Project the LNES past a predicted click on the menu toggle: applying the
//! // toggle's memoized effect to a copy of the tree makes the menu items
//! // possible targets even though the callback never ran.
//! let effect = page.tree.node(page.menu_buttons[0]).unwrap().listener(EventType::Click).unwrap();
//! let (mut tree, mut viewport) = ((*page.tree).clone(), Viewport::phone());
//! tree.apply_effect(effect, &mut viewport).unwrap();
//! let after = analyzer.lnes(&tree, &viewport);
//! assert!(after.nodes_for(EventType::Click).contains(&page.menu_items[0]));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analyzer;
pub mod builder;
pub mod error;
pub mod events;
pub mod geometry;
pub mod tree;

pub use analyzer::{
    DomAnalyzer, IncrementalAnalyzer, IncrementalStats, Lnes, PossibleEvent, ViewportFeatures,
};
pub use builder::{BuiltPage, PageBuilder};
pub use error::DomError;
pub use events::{EventType, EventTypeSet, Interaction};
pub use geometry::{Rect, Viewport};
pub use tree::{CallbackEffect, DomNode, DomTree, NodeId, NodeKind, TreeStamp};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DomTree>();
        assert_send_sync::<Lnes>();
        assert_send_sync::<BuiltPage>();
        assert_send_sync::<DomError>();
    }

    #[test]
    fn end_to_end_page_analysis_pipeline() {
        let page = PageBuilder::new(360)
            .nav_bar(3)
            .article_list(6, false)
            .search_form()
            .text_block(2_000)
            .build();
        let analyzer = DomAnalyzer::new();
        let vp = Viewport::phone();
        let lnes = analyzer.lnes(&page.tree, &vp);
        // Navigation, tapping, scrolling and submitting are all plausible on
        // this page shape.
        assert!(lnes.allows(EventType::Click));
        assert!(lnes.allows(EventType::Scroll));
        let features = analyzer.viewport_features(&page.tree, &vp);
        assert!(features.clickable_region_fraction > 0.0);
        assert!(features.scrollable);
    }
}
