//! Property-based tests of the geometry kernel: metric axioms for points,
//! containment/area invariants for rectangles, segment geometry, the uniform
//! grid point-location index, and the total order on `OrderedF64`.

use indoor_geom::{approx_eq, OrderedF64, Point, Polygon, Rect, Segment, UniformGrid};
use proptest::prelude::*;

const COORD: std::ops::Range<f64> = -500.0..500.0;
const SIZE: std::ops::Range<f64> = 0.5..200.0;

fn arb_point() -> impl Strategy<Value = Point> {
    (COORD, COORD).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_rect() -> impl Strategy<Value = Rect> {
    (COORD, COORD, SIZE, SIZE)
        .prop_map(|(x, y, w, h)| Rect::from_origin_size(Point::new(x, y), w, h).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // ---------------------------------------------------------------
    // Points: metric axioms
    // ---------------------------------------------------------------

    #[test]
    fn point_distance_is_a_metric(a in arb_point(), b in arb_point(), c in arb_point()) {
        let ab = a.distance(&b);
        let ba = b.distance(&a);
        prop_assert!(ab >= 0.0);
        prop_assert!(approx_eq(ab, ba));
        prop_assert!(approx_eq(a.distance(&a), 0.0));
        // Triangle inequality with a small float tolerance.
        prop_assert!(a.distance(&c) <= ab + b.distance(&c) + 1e-9);
    }

    // ---------------------------------------------------------------
    // Rectangles
    // ---------------------------------------------------------------

    #[test]
    fn rect_area_and_containment(r in arb_rect(), p in arb_point()) {
        prop_assert!(approx_eq(r.area(), r.width() * r.height()));
        prop_assert!(approx_eq(r.perimeter(), 2.0 * (r.width() + r.height())));
        prop_assert!(r.contains(&r.center()));
        for corner in r.corners() {
            prop_assert!(r.contains(&corner));
            prop_assert!(r.on_boundary(&corner));
        }
        // Clamped points are always contained and are fixed points of clamping.
        let clamped = r.clamp_point(&p);
        prop_assert!(r.contains(&clamped));
        prop_assert!(clamped.approx_eq(&r.clamp_point(&clamped)));
        // distance_to_point is zero exactly for contained points.
        if r.contains(&p) {
            prop_assert!(approx_eq(r.distance_to_point(&p), 0.0));
        } else {
            prop_assert!(r.distance_to_point(&p) > 0.0);
        }
        // The farthest corner is at least as far as the nearest boundary point.
        prop_assert!(r.max_distance_to_point(&p) + 1e-9 >= r.distance_to_point(&p));
        // The farthest distance is attained by one of the corners.
        let far = r
            .corners()
            .iter()
            .map(|c| c.distance(&p))
            .fold(0.0f64, f64::max);
        prop_assert!(approx_eq(far, r.max_distance_to_point(&p)));
    }

    #[test]
    fn rect_union_and_intersection(a in arb_rect(), b in arb_rect()) {
        let u = a.union(&b);
        for corner in a.corners().iter().chain(b.corners().iter()) {
            prop_assert!(u.contains(corner));
        }
        prop_assert!(u.area() + 1e-9 >= a.area().max(b.area()));

        match a.intersection(&b) {
            Some(i) => {
                prop_assert!(a.intersects(&b));
                prop_assert!(i.area() <= a.area().min(b.area()) + 1e-9);
                prop_assert!(a.contains(&i.center()));
                prop_assert!(b.contains(&i.center()));
            }
            None => prop_assert!(!a.overlaps_area(&b)),
        }
        // intersects is symmetric.
        prop_assert_eq!(a.intersects(&b), b.intersects(&a));
        prop_assert_eq!(a.overlaps_area(&b), b.overlaps_area(&a));
    }

    // ---------------------------------------------------------------
    // Segments
    // ---------------------------------------------------------------

    #[test]
    fn segment_midpoint_and_distance(a in arb_point(), b in arb_point(), p in arb_point()) {
        let s = Segment::new(a, b);
        prop_assert!(approx_eq(s.length(), a.distance(&b)));
        let mid = s.midpoint();
        prop_assert!(approx_eq(mid.distance(&a), mid.distance(&b)));
        prop_assert!(s.distance_to_point(&mid) < 1e-6);
        // The distance from any point to the segment is at most the distance
        // to either endpoint.
        prop_assert!(s.distance_to_point(&p) <= p.distance(&a) + 1e-9);
        prop_assert!(s.distance_to_point(&p) <= p.distance(&b) + 1e-9);
        // Intersection with itself and symmetry.
        let t = Segment::new(b, a);
        prop_assert!(s.intersects(&t));
    }

    #[test]
    fn segment_intersection_is_symmetric(
        a in arb_point(), b in arb_point(), c in arb_point(), d in arb_point(),
    ) {
        let s = Segment::new(a, b);
        let t = Segment::new(c, d);
        prop_assert_eq!(s.intersects(&t), t.intersects(&s));
        prop_assert_eq!(
            s.intersects_excluding_endpoints(&t),
            t.intersects_excluding_endpoints(&s)
        );
    }

    // ---------------------------------------------------------------
    // Polygons from rectangles
    // ---------------------------------------------------------------

    #[test]
    fn polygon_from_rect_matches_the_rect(r in arb_rect()) {
        let poly = Polygon::from_rect(&r);
        prop_assert!(approx_eq(poly.area(), r.area()));
        prop_assert!(approx_eq(poly.perimeter(), r.perimeter()));
        prop_assert!(poly.is_rectilinear());
        prop_assert!(poly.contains(&r.center()));
        let bb = poly.bounding_box();
        prop_assert!(bb.min.approx_eq(&r.min));
        prop_assert!(bb.max.approx_eq(&r.max));
        prop_assert!(poly.centroid().approx_eq(&r.center()));
        let rects = poly.decompose_into_rects().unwrap();
        let total: f64 = rects.iter().map(Rect::area).sum();
        prop_assert!(approx_eq(total, r.area()));
    }

    // ---------------------------------------------------------------
    // Uniform grid point location
    // ---------------------------------------------------------------

    #[test]
    fn grid_locates_points_inside_inserted_rects(
        rects in proptest::collection::vec(
            (0.0f64..900.0, 0.0f64..900.0, 1.0f64..80.0, 1.0f64..80.0),
            1..12,
        ),
        cell in 5.0f64..60.0,
        pick in 0usize..12,
        fx in 0.05f64..0.95,
        fy in 0.05f64..0.95,
    ) {
        let bounds = Rect::from_origin_size(Point::new(0.0, 0.0), 1000.0, 1000.0).unwrap();
        let mut grid = UniformGrid::new(bounds, cell).unwrap();
        let mut rects: Vec<Rect> = rects
            .into_iter()
            .map(|(x, y, w, h)| Rect::from_origin_size(Point::new(x, y), w, h).unwrap())
            .collect();
        // A neighbour sharing the chosen rect's right wall, as rooms do.
        let chosen = rects[pick % rects.len()];
        rects.push(
            Rect::from_origin_size(Point::new(chosen.max.x, chosen.min.y), 10.0, chosen.height())
                .unwrap(),
        );
        for r in &rects {
            grid.insert(*r);
        }
        prop_assert_eq!(grid.len(), rects.len());

        // A point strictly inside a chosen rect must be located in *some*
        // rect that actually contains it.
        let p = Point::new(
            chosen.min.x + chosen.width() * fx,
            chosen.min.y + chosen.height() * fy,
        );
        let located = grid.locate(&p);
        prop_assert!(located.is_some());
        let found = grid.get(located.unwrap()).unwrap();
        prop_assert!(found.contains(&p));
        // query_point returns a superset containing every rect that holds p.
        let hits = grid.query_point(&p);
        for (i, r) in rects.iter().enumerate() {
            if r.contains(&p) {
                prop_assert!(hits.contains(&i), "rect {i} contains the point but was not returned");
            }
        }
        // locate keeps query_point's lowest id strictly holding the point,
        // else its lowest id: at the point, on the chosen rect's walls and
        // corners (which other rects may share), and at every rect's corner.
        let on_walls = [
            p,
            Point::new(chosen.min.x, p.y),
            Point::new(chosen.max.x, p.y),
            Point::new(p.x, chosen.min.y),
            Point::new(p.x, chosen.max.y),
        ];
        let corners = rects.iter().flat_map(|r| [r.min, r.max, Point::new(r.min.x, r.max.y)]);
        for q in on_walls.into_iter().chain(corners) {
            let hits = grid.query_point(&q);
            let rule = hits
                .iter()
                .copied()
                .find(|&id| rects[id].contains_strict(&q))
                .or_else(|| hits.first().copied());
            prop_assert_eq!(grid.locate(&q), rule, "at {:?}", q);
        }
        // A point far outside every inserted rect is not located.
        let outside = Point::new(999.0, 999.0);
        if rects.iter().all(|r| !r.contains(&outside)) {
            prop_assert!(grid.locate(&outside).is_none());
        }
    }

    // ---------------------------------------------------------------
    // Ordered floats
    // ---------------------------------------------------------------

    #[test]
    fn ordered_f64_sorts_like_f64(mut values in proptest::collection::vec(-1e6f64..1e6, 1..50)) {
        let mut wrapped: Vec<OrderedF64> = values.iter().copied().map(OrderedF64::new).collect();
        wrapped.sort();
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (w, v) in wrapped.iter().zip(&values) {
            prop_assert!(approx_eq(w.get(), *v));
        }
        // The order is total and consistent with equality.
        for w in &wrapped {
            prop_assert_eq!(w.cmp(w), std::cmp::Ordering::Equal);
        }
    }
}
