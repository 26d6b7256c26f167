//! A uniform grid over a floorplan used as a point-location index.
//!
//! Finding the host partition `v(p)` of a point is a hot operation when
//! generating query workloads (random start/terminal points) and when
//! evaluating the point-to-door distances `δpt2d`/`δd2pt`. The venues are
//! axis-aligned and partitions are rectangles, so a bucket grid keyed by cell
//! coordinates gives O(1) expected candidate lookups.

use crate::error::GeomError;
use crate::point::Point;
use crate::rect::Rect;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The most cells a grid's bounds may span (2^20). Inserting a rectangle
/// walks every cell it covers, so bounds spanning more — a corrupt footprint
/// or cell size read from a venue file — would make building a grid
/// allocate without limit. The largest floor any venue generator builds
/// spans under 10 000 cells.
pub const MAX_GRID_CELLS: f64 = 1_048_576.0;

/// A uniform spatial hash mapping grid cells to the identifiers of the
/// rectangles overlapping them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UniformGrid {
    cell: f64,
    bounds: Rect,
    buckets: HashMap<(i64, i64), Vec<usize>>,
    items: Vec<Rect>,
}

impl UniformGrid {
    /// Creates an empty grid covering `bounds` with square cells of side
    /// `cell` metres. Fails when the cell size is not positive, or when the
    /// bounds span more than [`MAX_GRID_CELLS`] cells.
    pub fn new(bounds: Rect, cell: f64) -> Result<Self, GeomError> {
        if !(cell.is_finite() && cell > 0.0) {
            return Err(GeomError::InvalidCellSize { cell });
        }
        // Counted in f64, so no extent overflows; the bounds' far corner
        // lies in the last cell of each axis.
        let cells =
            ((bounds.width() / cell).floor() + 1.0) * ((bounds.height() / cell).floor() + 1.0);
        if cells.is_nan() || cells > MAX_GRID_CELLS {
            return Err(GeomError::GridTooLarge { cells, cell });
        }
        Ok(UniformGrid {
            cell,
            bounds,
            buckets: HashMap::new(),
            items: Vec::new(),
        })
    }

    /// Number of indexed rectangles.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the grid holds no rectangles.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The bounds the grid was constructed with.
    pub fn bounds(&self) -> &Rect {
        &self.bounds
    }

    fn cell_of(&self, p: &Point) -> (i64, i64) {
        (
            ((p.x - self.bounds.min.x) / self.cell).floor() as i64,
            ((p.y - self.bounds.min.y) / self.cell).floor() as i64,
        )
    }

    /// Inserts a rectangle and returns the identifier assigned to it (the
    /// insertion index). The identifier is what queries report back.
    pub fn insert(&mut self, rect: Rect) -> usize {
        let id = self.items.len();
        self.items.push(rect);
        let (cx0, cy0) = self.cell_of(&rect.min);
        let (cx1, cy1) = self.cell_of(&rect.max);
        for cx in cx0..=cx1 {
            for cy in cy0..=cy1 {
                self.buckets.entry((cx, cy)).or_default().push(id);
            }
        }
        id
    }

    /// Returns the identifiers of all rectangles containing `p`
    /// (boundary-inclusive), in insertion order.
    pub fn query_point(&self, p: &Point) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .buckets
            .get(&self.cell_of(p))
            .map(|b| {
                b.iter()
                    .copied()
                    .filter(|&id| self.items[id].contains(p))
                    .collect()
            })
            .unwrap_or_default();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Returns the identifier of the first rectangle strictly containing `p`,
    /// falling back to boundary-inclusive containment. This is the behaviour
    /// the indoor-space layer wants for host-partition lookup: interior wins,
    /// shared walls are resolved deterministically to the lowest identifier.
    /// It is [`UniformGrid::query_point`]'s first id whose rectangle holds
    /// `p` strictly, else its first id, read from the cell's bucket without
    /// collecting it.
    pub fn locate(&self, p: &Point) -> Option<usize> {
        let (mut strict, mut touching) = (None::<usize>, None::<usize>);
        for &id in self.buckets.get(&self.cell_of(p))? {
            let rect = &self.items[id];
            if rect.contains_strict(p) {
                strict = Some(strict.map_or(id, |s| s.min(id)));
            } else if rect.contains(p) {
                touching = Some(touching.map_or(id, |t| t.min(id)));
            }
        }
        strict.or(touching)
    }

    /// Returns identifiers of all rectangles intersecting the query rectangle.
    pub fn query_rect(&self, rect: &Rect) -> Vec<usize> {
        let (cx0, cy0) = self.cell_of(&rect.min);
        let (cx1, cy1) = self.cell_of(&rect.max);
        let mut out = Vec::new();
        for cx in cx0..=cx1 {
            for cy in cy0..=cy1 {
                if let Some(b) = self.buckets.get(&(cx, cy)) {
                    for &id in b {
                        if self.items[id].intersects(rect) {
                            out.push(id);
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Access a stored rectangle by identifier.
    pub fn get(&self, id: usize) -> Option<&Rect> {
        self.items.get(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_with_two_rooms() -> UniformGrid {
        let bounds = Rect::from_origin_size(Point::ORIGIN, 100.0, 100.0).unwrap();
        let mut g = UniformGrid::new(bounds, 10.0).unwrap();
        g.insert(Rect::from_origin_size(Point::new(0.0, 0.0), 50.0, 100.0).unwrap());
        g.insert(Rect::from_origin_size(Point::new(50.0, 0.0), 50.0, 100.0).unwrap());
        g
    }

    #[test]
    fn rejects_bad_cell_size() {
        let bounds = Rect::from_origin_size(Point::ORIGIN, 10.0, 10.0).unwrap();
        assert!(UniformGrid::new(bounds, 0.0).is_err());
        assert!(UniformGrid::new(bounds, f64::NAN).is_err());
    }

    #[test]
    fn rejects_bounds_spanning_too_many_cells() {
        // A footprint corner flipped to about -5.5e303, as a corrupt venue
        // file can carry, and a cell size too small for a real floor.
        let corrupt = Rect::new(Point::new(-5.5e303, 0.0), Point::new(100.0, 70.0)).unwrap();
        assert!(matches!(
            UniformGrid::new(corrupt, 10.0),
            Err(GeomError::GridTooLarge { cell, .. }) if cell == 10.0
        ));
        let widest = Rect::new(Point::new(-f64::MAX, 0.0), Point::new(f64::MAX, 1.0)).unwrap();
        assert!(UniformGrid::new(widest, 25.0).is_err());
        let floor = Rect::from_origin_size(Point::ORIGIN, 100.0, 100.0).unwrap();
        match UniformGrid::new(floor, 0.05) {
            Err(GeomError::GridTooLarge { cells, cell }) => {
                assert_eq!((cells, cell), (2001.0 * 2001.0, 0.05));
            }
            other => panic!("expected GridTooLarge, got {other:?}"),
        }
        // The largest floor any generator builds: the real mall's
        // 2 700 m x 2 000 m at 25 m spans 109 x 81 = 8 829 cells.
        let mall = Rect::from_origin_size(Point::ORIGIN, 2_700.0, 2_000.0).unwrap();
        assert!(UniformGrid::new(mall, 25.0).is_ok());
        // Exactly at the limit is still a grid.
        let square = Rect::from_origin_size(Point::ORIGIN, 1023.0, 1023.0).unwrap();
        assert!(UniformGrid::new(square, 1.0).is_ok());
        assert!(UniformGrid::new(square, 0.999).is_err());
    }

    #[test]
    fn point_query_finds_host() {
        let g = grid_with_two_rooms();
        assert_eq!(g.query_point(&Point::new(10.0, 10.0)), vec![0]);
        assert_eq!(g.query_point(&Point::new(80.0, 10.0)), vec![1]);
        assert!(g.query_point(&Point::new(200.0, 10.0)).is_empty());
        assert_eq!(g.len(), 2);
        assert!(!g.is_empty());
    }

    #[test]
    fn shared_wall_resolves_deterministically() {
        let g = grid_with_two_rooms();
        // x = 50 is on the shared wall: both contain it inclusively.
        assert_eq!(g.query_point(&Point::new(50.0, 10.0)), vec![0, 1]);
        assert_eq!(g.locate(&Point::new(50.0, 10.0)), Some(0));
        assert_eq!(g.locate(&Point::new(51.0, 10.0)), Some(1));
        assert_eq!(g.locate(&Point::new(-5.0, 10.0)), None);
    }

    #[test]
    fn rect_query_returns_overlaps() {
        let g = grid_with_two_rooms();
        let q = Rect::from_origin_size(Point::new(40.0, 40.0), 20.0, 20.0).unwrap();
        assert_eq!(g.query_rect(&q), vec![0, 1]);
        let q = Rect::from_origin_size(Point::new(0.0, 0.0), 10.0, 10.0).unwrap();
        assert_eq!(g.query_rect(&q), vec![0]);
    }

    #[test]
    fn get_returns_inserted_rect() {
        let g = grid_with_two_rooms();
        assert!(g.get(0).is_some());
        assert!(g.get(7).is_none());
    }

    #[test]
    fn many_small_rooms_locate_correctly() {
        let bounds = Rect::from_origin_size(Point::ORIGIN, 100.0, 100.0).unwrap();
        let mut g = UniformGrid::new(bounds, 7.0).unwrap();
        let mut expected = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                let r = Rect::from_origin_size(
                    Point::new(i as f64 * 10.0, j as f64 * 10.0),
                    10.0,
                    10.0,
                )
                .unwrap();
                expected.push((g.insert(r), r.center()));
            }
        }
        for (id, center) in expected {
            assert_eq!(g.locate(&center), Some(id));
        }
    }
}
