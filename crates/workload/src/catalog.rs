//! The application catalog: the 12 "seen" applications characterised in
//! Sec. 3/4 plus the six unseen applications added for the generalisability
//! evaluation in Sec. 6.1, with per-app parameters chosen to echo the
//! qualitative observations the paper makes about them (e.g. sina is
//! compute-light, amazon has a large clickable area and is harder to predict,
//! slashdot is sparse and highly predictable).

use crate::app::{AppCategory, AppProfile, PageParams};

/// The full application catalog.
///
/// # Examples
///
/// ```
/// use pes_workload::AppCatalog;
///
/// let catalog = AppCatalog::paper_suite();
/// assert_eq!(catalog.seen_apps().count(), 12);
/// assert!(catalog.find("slashdot").is_some());
/// assert!(catalog.find("not-a-real-app").is_none());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AppCatalog {
    apps: Vec<AppProfile>,
}

impl AppCatalog {
    /// Builds the 18-application suite used throughout the evaluation.
    pub fn paper_suite() -> Self {
        let news = |articles: usize, menu: usize, text: i64| PageParams {
            nav_links: 6,
            articles,
            with_images: true,
            menu_items: menu,
            has_form: false,
            has_video: false,
            text_height: text,
        };
        let shopping = |articles: usize| PageParams {
            nav_links: 5,
            articles,
            with_images: true,
            menu_items: 8,
            has_form: true,
            has_video: false,
            text_height: 600,
        };

        #[allow(clippy::too_many_arguments)]
        fn app(
            name: &str,
            category: AppCategory,
            seen: bool,
            page: PageParams,
            intensity: f64,
            heavy: f64,
            burst: u32,
            touch: f64,
            menu: f64,
            form: f64,
        ) -> AppProfile {
            AppProfile::new(
                name, category, seen, page, intensity, heavy, burst, touch, menu, form,
            )
        }

        let apps = vec![
            // ------------------------- 12 seen applications -----------------
            app(
                "163",
                AppCategory::News,
                true,
                news(14, 6, 2_400),
                1.15,
                0.10,
                3,
                0.92,
                0.15,
                0.0,
            ),
            app(
                "msn",
                AppCategory::News,
                true,
                news(12, 5, 2_000),
                1.05,
                0.08,
                3,
                0.88,
                0.12,
                0.0,
            ),
            app(
                "slashdot",
                AppCategory::News,
                true,
                news(12, 0, 3_000),
                0.85,
                0.05,
                3,
                0.95,
                0.0,
                0.0,
            ),
            app(
                "youtube",
                AppCategory::Video,
                true,
                PageParams {
                    nav_links: 4,
                    articles: 10,
                    with_images: true,
                    menu_items: 5,
                    has_form: true,
                    has_video: true,
                    text_height: 800,
                },
                1.20,
                0.12,
                3,
                0.90,
                0.10,
                0.15,
            ),
            app(
                "google",
                AppCategory::Search,
                true,
                PageParams {
                    nav_links: 3,
                    articles: 9,
                    with_images: false,
                    menu_items: 4,
                    has_form: true,
                    has_video: false,
                    text_height: 400,
                },
                0.90,
                0.06,
                3,
                0.85,
                0.08,
                0.55,
            ),
            app(
                "amazon",
                AppCategory::Shopping,
                true,
                shopping(16),
                1.30,
                0.14,
                3,
                0.90,
                0.25,
                0.20,
            ),
            app(
                "ebay",
                AppCategory::Shopping,
                true,
                shopping(14),
                1.20,
                0.12,
                3,
                0.90,
                0.20,
                0.18,
            ),
            app(
                "sina",
                AppCategory::News,
                true,
                news(16, 6, 2_800),
                0.55,
                0.04,
                3,
                0.92,
                0.15,
                0.0,
            ),
            app(
                "espn",
                AppCategory::News,
                true,
                news(12, 4, 2_200),
                1.10,
                0.10,
                3,
                0.90,
                0.12,
                0.0,
            ),
            app(
                "bbc",
                AppCategory::News,
                true,
                news(12, 5, 2_400),
                1.00,
                0.08,
                3,
                0.88,
                0.12,
                0.0,
            ),
            app(
                "cnn",
                AppCategory::News,
                true,
                news(14, 6, 2_600),
                1.25,
                0.13,
                3,
                0.92,
                0.15,
                0.0,
            ),
            app(
                "twitter",
                AppCategory::Social,
                true,
                PageParams {
                    nav_links: 4,
                    articles: 18,
                    with_images: true,
                    menu_items: 4,
                    has_form: true,
                    has_video: false,
                    text_height: 3_200,
                },
                1.05,
                0.09,
                4,
                0.92,
                0.08,
                0.10,
            ),
            // ------------------------- 6 unseen applications ----------------
            app(
                "yahoo",
                AppCategory::Search,
                false,
                PageParams {
                    nav_links: 5,
                    articles: 12,
                    with_images: true,
                    menu_items: 5,
                    has_form: true,
                    has_video: false,
                    text_height: 1_600,
                },
                1.00,
                0.09,
                3,
                0.88,
                0.10,
                0.40,
            ),
            app(
                "nytimes",
                AppCategory::News,
                false,
                news(12, 5, 3_000),
                1.15,
                0.11,
                3,
                0.88,
                0.12,
                0.0,
            ),
            app(
                "stack overflow",
                AppCategory::Social,
                false,
                PageParams {
                    nav_links: 4,
                    articles: 15,
                    with_images: false,
                    menu_items: 4,
                    has_form: true,
                    has_video: false,
                    text_height: 3_600,
                },
                0.95,
                0.07,
                3,
                0.90,
                0.08,
                0.12,
            ),
            app(
                "taobao",
                AppCategory::Shopping,
                false,
                shopping(18),
                1.30,
                0.14,
                3,
                0.92,
                0.25,
                0.22,
            ),
            app(
                "tmall",
                AppCategory::Shopping,
                false,
                shopping(16),
                1.25,
                0.13,
                3,
                0.92,
                0.22,
                0.20,
            ),
            app(
                "jd",
                AppCategory::Shopping,
                false,
                shopping(15),
                1.20,
                0.12,
                3,
                0.92,
                0.22,
                0.18,
            ),
        ];
        AppCatalog { apps }
    }

    /// All applications, seen first.
    pub fn apps(&self) -> &[AppProfile] {
        &self.apps
    }

    /// The 12 applications used for characterisation and predictor training.
    pub fn seen_apps(&self) -> impl Iterator<Item = &AppProfile> + '_ {
        self.apps.iter().filter(|a| a.is_seen())
    }

    /// Looks an application up by name.
    pub fn find(&self, name: &str) -> Option<&AppProfile> {
        self.apps.iter().find(|a| a.name() == name)
    }

    /// Number of applications in the catalog.
    pub fn len(&self) -> usize {
        self.apps.len()
    }

    /// Whether the catalog is empty (never true for the paper suite).
    pub fn is_empty(&self) -> bool {
        self.apps.is_empty()
    }
}

impl Default for AppCatalog {
    fn default() -> Self {
        AppCatalog::paper_suite()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_twelve_seen_and_six_unseen_apps() {
        let c = AppCatalog::paper_suite();
        assert_eq!(c.len(), 18);
        assert_eq!(c.seen_apps().count(), 12);
        assert!(!c.is_empty());
    }

    #[test]
    fn app_names_match_the_papers_figures() {
        let c = AppCatalog::paper_suite();
        for name in [
            "163", "msn", "slashdot", "youtube", "google", "amazon", "ebay", "sina", "espn", "bbc",
            "cnn", "twitter",
        ] {
            assert!(
                c.find(name).map(|a| a.is_seen()).unwrap_or(false),
                "{name} missing from seen suite"
            );
        }
        for name in [
            "yahoo",
            "nytimes",
            "stack overflow",
            "taobao",
            "tmall",
            "jd",
        ] {
            assert!(
                c.find(name).map(|a| !a.is_seen()).unwrap_or(false),
                "{name} missing from unseen suite"
            );
        }
    }

    #[test]
    fn names_are_unique() {
        let c = AppCatalog::paper_suite();
        let mut names: Vec<&str> = c.apps().iter().map(|a| a.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn qualitative_per_app_observations_hold() {
        let c = AppCatalog::paper_suite();
        // sina is compute-light (Sec. 6.4).
        assert!(c.find("sina").unwrap().compute_intensity() < 0.7);
        // amazon has a dense clickable grid and heavier events.
        assert!(c.find("amazon").unwrap().compute_intensity() > 1.1);
        // slashdot is the sparsest, most predictable page (no menus).
        assert_eq!(c.find("slashdot").unwrap().page_params().menu_items, 0);
        // every app builds a non-trivial page
        for app in c.apps() {
            let page = app.build_page();
            assert!(page.links.len() >= 4, "{} too sparse", app.name());
        }
    }

    #[test]
    fn all_categories_are_represented() {
        let c = AppCatalog::paper_suite();
        for cat in AppCategory::ALL {
            assert!(
                c.apps().iter().any(|a| a.category() == cat),
                "category {cat:?} unrepresented"
            );
        }
    }
}
