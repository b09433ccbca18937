//! Axis-aligned bounding boxes in normalized image coordinates.

/// An axis-aligned bounding box with its top-left corner at `(x, y)`, in
/// normalized coordinates (`0.0..=1.0` spans the image).
///
/// # Examples
///
/// ```
/// use shoggoth_video::BBox;
///
/// let a = BBox::new(0.0, 0.0, 0.5, 0.5);
/// let b = BBox::new(0.25, 0.25, 0.5, 0.5);
/// let iou = a.iou(&b);
/// assert!((iou - 1.0 / 7.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BBox {
    /// Left edge.
    pub x: f32,
    /// Top edge.
    pub y: f32,
    /// Width (non-negative).
    pub w: f32,
    /// Height (non-negative).
    pub h: f32,
}

impl BBox {
    /// Creates a box; negative sizes are clamped to zero.
    pub fn new(x: f32, y: f32, w: f32, h: f32) -> Self {
        Self {
            x,
            y,
            w: w.max(0.0),
            h: h.max(0.0),
        }
    }

    /// Area of the box.
    pub fn area(&self) -> f32 {
        self.w * self.h
    }

    /// Intersection area with another box.
    pub fn intersection(&self, other: &BBox) -> f32 {
        let x1 = self.x.max(other.x);
        let y1 = self.y.max(other.y);
        let x2 = (self.x + self.w).min(other.x + other.w);
        let y2 = (self.y + self.h).min(other.y + other.h);
        (x2 - x1).max(0.0) * (y2 - y1).max(0.0)
    }

    /// Intersection-over-union with another box, in `[0, 1]`.
    ///
    /// Returns `0.0` when the union is empty (both boxes degenerate).
    pub fn iou(&self, other: &BBox) -> f32 {
        let inter = self.intersection(other);
        let union = self.area() + other.area() - inter;
        if union <= 0.0 {
            0.0
        } else {
            inter / union
        }
    }

    /// Returns a copy translated by `(dx, dy)` and clamped so the box stays
    /// within the unit image.
    pub fn translated_clamped(&self, dx: f32, dy: f32) -> BBox {
        let w = self.w.min(1.0);
        let h = self.h.min(1.0);
        BBox {
            x: (self.x + dx).clamp(0.0, 1.0 - w),
            y: (self.y + dy).clamp(0.0, 1.0 - h),
            w,
            h,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_boxes_have_iou_one() {
        let b = BBox::new(0.1, 0.2, 0.3, 0.4);
        assert!((b.iou(&b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn disjoint_boxes_have_iou_zero() {
        let a = BBox::new(0.0, 0.0, 0.2, 0.2);
        let b = BBox::new(0.5, 0.5, 0.2, 0.2);
        assert_eq!(a.iou(&b), 0.0);
    }

    #[test]
    fn iou_is_symmetric() {
        let a = BBox::new(0.0, 0.0, 0.5, 0.5);
        let b = BBox::new(0.1, 0.1, 0.5, 0.5);
        assert_eq!(a.iou(&b), b.iou(&a));
    }

    #[test]
    fn half_overlap_hand_checked() {
        // Two 1x1 boxes offset by half in one axis: inter 0.5, union 1.5.
        let a = BBox::new(0.0, 0.0, 1.0, 1.0);
        let b = BBox::new(0.5, 0.0, 1.0, 1.0);
        assert!((a.iou(&b) - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_boxes_do_not_divide_by_zero() {
        let a = BBox::new(0.3, 0.3, 0.0, 0.0);
        assert_eq!(a.iou(&a), 0.0);
    }

    #[test]
    fn negative_size_clamped() {
        let b = BBox::new(0.0, 0.0, -1.0, 0.5);
        assert_eq!(b.w, 0.0);
        assert_eq!(b.area(), 0.0);
    }

    #[test]
    fn translation_keeps_box_in_image() {
        let b = BBox::new(0.9, 0.9, 0.2, 0.2);
        let t = b.translated_clamped(0.5, 0.5);
        assert!(t.x + t.w <= 1.0 + 1e-6);
        assert!(t.y + t.h <= 1.0 + 1e-6);
    }
}
