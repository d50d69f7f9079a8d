//! Binary morphology: dilation, erosion, opening, closing.
//!
//! Used to clean pixel-ILT masks before fracturing (remove single-pixel
//! specks that would violate the minimum shot radius) and to build the
//! optimization domains of the baseline ILT engines.

use crate::distance::squared_distance_to;
use crate::grid::{BitGrid, Point};

/// Structuring element shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Structuring {
    /// Square of half-width `r` (Chebyshev ball) — separable and fast.
    Square(i32),
    /// Disk of radius `r` (Euclidean ball).
    Disk(i32),
}

/// Dilation: a pixel is set if any pixel under the structuring element is
/// set. Square elements run separably (two 1-D passes); disks threshold
/// the exact squared distance transform, O(w·h) for any radius.
pub fn dilate(mask: &BitGrid, elem: Structuring) -> BitGrid {
    match elem {
        Structuring::Square(r) => separable_extreme(mask, r.max(0), true),
        Structuring::Disk(r) => {
            let r2 = disk_r2(r);
            let d2 = squared_distance_to(mask);
            threshold_map(mask.width(), mask.height(), |x, y| d2[(x, y)] <= r2)
        }
    }
}

/// Erosion: a pixel stays set only if every pixel under the structuring
/// element is set (off-grid counts as background).
///
/// For disks: the nearest background pixel must lie outside the disk,
/// and so must the grid edge — the nearest off-grid pixel is the
/// axis-aligned one, `min(x+1, w−x, y+1, h−y)` away.
pub fn erode(mask: &BitGrid, elem: Structuring) -> BitGrid {
    match elem {
        Structuring::Square(r) => separable_extreme(mask, r.max(0), false),
        Structuring::Disk(r) => {
            let (w, h) = (mask.width(), mask.height());
            let r2 = disk_r2(r);
            let r = r.max(0) as usize;
            let background = threshold_map(w, h, |x, y| !mask.get(x, y));
            let d2 = squared_distance_to(&background);
            threshold_map(w, h, |x, y| {
                d2[(x, y)] > r2 && (x + 1).min(w - x).min(y + 1).min(h - y) > r
            })
        }
    }
}

/// The mask of pixels where `keep(x, y)` holds.
fn threshold_map(w: usize, h: usize, keep: impl Fn(usize, usize) -> bool) -> BitGrid {
    let mut out = BitGrid::new(w, h);
    for y in 0..h {
        for x in 0..w {
            out.set(x, y, keep(x, y));
        }
    }
    out
}

/// Squared radius of a `Disk(r)` element (negative radii act as 0).
fn disk_r2(r: i32) -> f64 {
    let r = f64::from(r.max(0));
    r * r
}

/// Opening: erosion then dilation — removes specks smaller than the element.
pub fn open(mask: &BitGrid, elem: Structuring) -> BitGrid {
    dilate(&erode(mask, elem), elem)
}

/// Closing: dilation then erosion — fills pinholes smaller than the element.
pub fn close(mask: &BitGrid, elem: Structuring) -> BitGrid {
    erode(&dilate(mask, elem), elem)
}

/// Separable max/min filter for square structuring elements.
fn separable_extreme(mask: &BitGrid, r: i32, any: bool) -> BitGrid {
    let (w, h) = (mask.width(), mask.height());
    let mut tmp = BitGrid::new(w, h);
    for y in 0..h {
        for x in 0..w as i32 {
            let mut hit = !any;
            for dx in -r..=r {
                let v = mask.at(Point::new(x + dx, y as i32));
                if any && v {
                    hit = true;
                    break;
                }
                if !any && !v {
                    hit = false;
                    break;
                }
            }
            tmp.set(x as usize, y, hit);
        }
    }
    let mut out = BitGrid::new(w, h);
    for y in 0..h as i32 {
        for x in 0..w {
            let mut hit = !any;
            for dy in -r..=r {
                let v = tmp.at(Point::new(x as i32, y + dy));
                if any && v {
                    hit = true;
                    break;
                }
                if !any && !v {
                    hit = false;
                    break;
                }
            }
            out.set(x, y as usize, hit);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raster::{fill_rect, Rect};

    fn rect_mask(w: usize, h: usize, r: Rect) -> BitGrid {
        let mut m = BitGrid::new(w, h);
        fill_rect(&mut m, r);
        m
    }

    #[test]
    fn dilate_square_grows_rect() {
        let m = rect_mask(16, 16, Rect::new(6, 6, 10, 10));
        let d = dilate(&m, Structuring::Square(2));
        let expected = rect_mask(16, 16, Rect::new(4, 4, 12, 12));
        assert_eq!(d, expected);
    }

    #[test]
    fn erode_square_shrinks_rect() {
        let m = rect_mask(16, 16, Rect::new(4, 4, 12, 12));
        let e = erode(&m, Structuring::Square(2));
        let expected = rect_mask(16, 16, Rect::new(6, 6, 10, 10));
        assert_eq!(e, expected);
    }

    #[test]
    fn erode_then_dilate_removes_speck() {
        let mut m = rect_mask(32, 32, Rect::new(8, 8, 20, 20));
        m.set(28, 2, true); // isolated speck
        let opened = open(&m, Structuring::Square(1));
        assert!(!opened.get(28, 2));
        assert!(opened.get(10, 10));
        assert_eq!(opened.count_ones(), 144);
    }

    #[test]
    fn close_fills_pinhole() {
        let mut m = rect_mask(32, 32, Rect::new(8, 8, 20, 20));
        m.set(14, 14, false); // pinhole
        let closed = close(&m, Structuring::Square(1));
        assert!(closed.get(14, 14));
    }

    #[test]
    fn disk_dilation_is_symmetric() {
        let mut m = BitGrid::new(17, 17);
        m.set(8, 8, true);
        let d = dilate(&m, Structuring::Disk(4));
        assert_eq!(d.count_ones(), crate::raster::disk_area(4));
        for (dx, dy) in [(4, 0), (-4, 0), (0, 4), (0, -4)] {
            assert!(d.at(Point::new(8 + dx, 8 + dy)));
        }
        assert!(!d.at(Point::new(8 + 3, 8 + 3))); // 3√2 > 4
    }

    #[test]
    fn erosion_treats_border_as_background() {
        let m = rect_mask(8, 8, Rect::new(0, 0, 8, 8));
        let e = erode(&m, Structuring::Square(1));
        // Border ring erodes away.
        assert_eq!(e.count_ones(), 36);
        assert!(!e.get(0, 0));
        assert!(e.get(1, 1));
    }

    #[test]
    fn dilation_erosion_duality_on_interior() {
        // dilate(mask) == !erode(!mask) away from the border.
        let m = rect_mask(24, 24, Rect::new(9, 9, 15, 15));
        let d = dilate(&m, Structuring::Disk(2));
        let mut inv = BitGrid::new(24, 24);
        for y in 0..24 {
            for x in 0..24 {
                inv.set(x, y, !m.get(x, y));
            }
        }
        let e = erode(&inv, Structuring::Disk(2));
        for y in 4..20 {
            for x in 4..20 {
                assert_eq!(d.get(x, y), !e.get(x, y), "at ({x},{y})");
            }
        }
    }

    /// Brute-force disk morphology: scans every offset of the disk,
    /// clipped to the grid plus its one-pixel off-grid ring (the nearest
    /// off-grid pixel of any disk that leaves the grid lies on that ring).
    fn brute_disk(mask: &BitGrid, r: i32, any: bool) -> BitGrid {
        let (w, h) = (mask.width() as i32, mask.height() as i32);
        let mut out = BitGrid::new(mask.width(), mask.height());
        for y in 0..h {
            for x in 0..w {
                let mut hit = !any;
                'disk: for dy in (-r).max(-y - 1)..=r.min(h - y) {
                    for dx in (-r).max(-x - 1)..=r.min(w - x) {
                        if dx * dx + dy * dy > r * r {
                            continue;
                        }
                        if mask.at(Point::new(x + dx, y + dy)) == any {
                            hit = any;
                            break 'disk;
                        }
                    }
                }
                out.set(x as usize, y as usize, hit);
            }
        }
        out
    }

    #[test]
    fn disk_morphology_matches_brute_force() {
        // Deterministic LCG masks: sparse, dense, border-touching blobs,
        // plus the full and empty grids, on square and non-square shapes.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 33
        };
        for &(w, h) in &[(16usize, 16usize), (23, 9), (7, 19), (1, 12)] {
            let mut masks = vec![BitGrid::new(w, h)];
            let mut full = BitGrid::new(w, h);
            fill_rect(&mut full, Rect::new(0, 0, w as i32, h as i32));
            masks.push(full);
            for density in [8u64, 50, 90] {
                let mut m = BitGrid::new(w, h);
                for y in 0..h {
                    for x in 0..w {
                        m.set(x, y, next() % 100 < density);
                    }
                }
                masks.push(m);
            }
            // A blob hugging the top-left corner and the right edge.
            masks.push(rect_mask(
                w,
                h,
                Rect::new(0, 0, w as i32 / 2 + 1, h as i32 / 3 + 1),
            ));
            masks.push(rect_mask(
                w,
                h,
                Rect::new(w as i32 - 2, 1, w as i32, h as i32),
            ));
            for m in &masks {
                for r in 0..=80 {
                    assert_eq!(
                        dilate(m, Structuring::Disk(r)),
                        brute_disk(m, r, true),
                        "dilate {w}x{h} r={r}"
                    );
                    assert_eq!(
                        erode(m, Structuring::Disk(r)),
                        brute_disk(m, r, false),
                        "erode {w}x{h} r={r}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_radius_is_identity() {
        let m = rect_mask(8, 8, Rect::new(2, 2, 5, 7));
        assert_eq!(dilate(&m, Structuring::Square(0)), m);
        assert_eq!(erode(&m, Structuring::Disk(0)), m);
    }
}
