//! Document geometry: rectangles and the visible viewport.
//!
//! The DOM analyzer in PES only considers nodes inside the current viewport
//! (Sec. 5.2); both the Likely-Next-Event-Set and the Table 1 features
//! ("clickable region percentage in the viewport", "visible link percentage
//! in the viewport") are defined in terms of on-screen area.

/// An axis-aligned rectangle in document coordinates (CSS pixels).
///
/// # Examples
///
/// ```
/// use pes_dom::geometry::Rect;
///
/// let a = Rect::new(0, 0, 100, 50);
/// let b = Rect::new(50, 25, 100, 50);
/// assert_eq!(a.area(), 5_000);
/// assert_eq!(a.intersection(&b).map(|r| r.area()), Some(50 * 25));
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rect {
    x: i64,
    y: i64,
    width: i64,
    height: i64,
}

impl Rect {
    /// Creates a rectangle; negative sizes are clamped to zero.
    pub fn new(x: i64, y: i64, width: i64, height: i64) -> Self {
        Rect {
            x,
            y,
            width: width.max(0),
            height: height.max(0),
        }
    }

    /// A zero-area rectangle at the origin (used for non-rendered nodes).
    pub const EMPTY: Rect = Rect {
        x: 0,
        y: 0,
        width: 0,
        height: 0,
    };

    /// Left edge.
    pub fn x(&self) -> i64 {
        self.x
    }

    /// Top edge.
    pub fn y(&self) -> i64 {
        self.y
    }

    /// Width in pixels.
    pub fn width(&self) -> i64 {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> i64 {
        self.height
    }

    /// Area in square pixels.
    pub fn area(&self) -> i64 {
        self.width * self.height
    }

    /// Whether the rectangle has zero area.
    pub fn is_empty(&self) -> bool {
        self.area() == 0
    }

    /// The overlapping region of two rectangles, if any.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        let x1 = self.x.max(other.x);
        let y1 = self.y.max(other.y);
        let x2 = (self.x + self.width).min(other.x + other.width);
        let y2 = (self.y + self.height).min(other.y + other.height);
        if x2 > x1 && y2 > y1 {
            Some(Rect::new(x1, y1, x2 - x1, y2 - y1))
        } else {
            None
        }
    }

    /// Whether two rectangles overlap with non-zero area.
    pub fn intersects(&self, other: &Rect) -> bool {
        self.intersection(other).is_some()
    }

    /// Centre of the rectangle.
    pub fn center(&self) -> (i64, i64) {
        (self.x + self.width / 2, self.y + self.height / 2)
    }
}

/// The visible viewport: a fixed-size window over the document that moves
/// vertically as the user scrolls.
///
/// # Examples
///
/// ```
/// use pes_dom::geometry::{Rect, Viewport};
///
/// let mut vp = Viewport::phone();
/// let below_fold = Rect::new(0, 2_000, 360, 100);
/// assert!(!vp.is_visible(&below_fold));
/// vp.scroll_by(1_900);
/// assert!(vp.is_visible(&below_fold));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Viewport {
    width: i64,
    height: i64,
    scroll_y: i64,
}

impl Viewport {
    /// Creates a viewport of the given size with the scroll offset at zero.
    /// Non-positive dimensions are clamped to 1.
    pub fn new(width: i64, height: i64) -> Self {
        Viewport {
            width: width.max(1),
            height: height.max(1),
            scroll_y: 0,
        }
    }

    /// A typical phone-sized viewport (360 × 640 CSS pixels), matching the
    /// class of devices (Galaxy S4) evaluated in the paper.
    pub fn phone() -> Self {
        Viewport::new(360, 640)
    }

    /// Viewport width.
    pub fn width(&self) -> i64 {
        self.width
    }

    /// Viewport height.
    pub fn height(&self) -> i64 {
        self.height
    }

    /// Current vertical scroll offset.
    pub fn scroll_y(&self) -> i64 {
        self.scroll_y
    }

    /// Viewport area in square pixels.
    pub fn area(&self) -> i64 {
        self.width * self.height
    }

    /// The viewport as a rectangle in document coordinates.
    pub fn rect(&self) -> Rect {
        Rect::new(0, self.scroll_y, self.width, self.height)
    }

    /// Scrolls by `dy` pixels (negative scrolls up); the offset never goes
    /// negative.
    pub fn scroll_by(&mut self, dy: i64) {
        self.scroll_y = (self.scroll_y + dy).max(0);
    }

    /// Sets the absolute scroll offset (clamped at zero).
    pub fn scroll_to(&mut self, y: i64) {
        self.scroll_y = y.max(0);
    }

    /// Whether any part of `rect` is inside the viewport.
    pub fn is_visible(&self, rect: &Rect) -> bool {
        self.rect().intersects(rect)
    }

    /// The on-screen area of `rect`, in square pixels.
    pub fn visible_area(&self, rect: &Rect) -> i64 {
        self.rect()
            .intersection(rect)
            .map(|r| r.area())
            .unwrap_or(0)
    }
}

impl Default for Viewport {
    fn default() -> Self {
        Viewport::phone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_area_and_emptiness() {
        assert_eq!(Rect::new(0, 0, 10, 10).area(), 100);
        assert!(Rect::EMPTY.is_empty());
        assert!(Rect::new(5, 5, 0, 10).is_empty());
        assert!(Rect::new(5, 5, -3, 10).is_empty());
    }

    #[test]
    fn rect_intersection_cases() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(5, 5, 10, 10);
        let c = Rect::new(20, 20, 5, 5);
        assert_eq!(a.intersection(&b), Some(Rect::new(5, 5, 5, 5)));
        assert_eq!(a.intersection(&c), None);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        // Touching edges do not count as intersecting.
        let d = Rect::new(10, 0, 5, 5);
        assert!(!a.intersects(&d));
    }

    #[test]
    fn rect_contains_point_and_center() {
        let r = Rect::new(10, 10, 20, 20);
        assert_eq!(r.center(), (20, 20));
    }

    #[test]
    fn viewport_scrolling_and_visibility() {
        let mut vp = Viewport::new(360, 640);
        let top = Rect::new(0, 0, 360, 100);
        let bottom = Rect::new(0, 3_000, 360, 100);
        assert!(vp.is_visible(&top));
        assert!(!vp.is_visible(&bottom));
        vp.scroll_by(2_900);
        assert!(!vp.is_visible(&top));
        assert!(vp.is_visible(&bottom));
        vp.scroll_by(-10_000);
        assert_eq!(vp.scroll_y(), 0);
        vp.scroll_to(500);
        assert_eq!(vp.scroll_y(), 500);
    }

    #[test]
    fn viewport_visible_area_is_clipped() {
        let vp = Viewport::new(100, 100);
        let half_in = Rect::new(50, 50, 100, 100);
        assert_eq!(vp.visible_area(&half_in), 2_500);
        assert_eq!(vp.visible_area(&Rect::new(200, 200, 10, 10)), 0);
    }

    #[test]
    fn degenerate_viewport_dimensions_are_clamped() {
        let vp = Viewport::new(0, -5);
        assert_eq!(vp.width(), 1);
        assert_eq!(vp.height(), 1);
    }
}
