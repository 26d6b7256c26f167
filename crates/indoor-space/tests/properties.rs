//! Property-based tests of the indoor space model, exercised on randomly
//! generated corridor venues of one to three floors: the skeleton distance
//! really is a lower bound of the graph distance (the property every
//! pruning rule relies on) and is consistent along door-graph edges (the
//! property the ellipse cut relies on), the Dijkstra distances satisfy the
//! metric axioms of a shortest-path function and reconstruct paths that
//! realise them, bounded runs agree with full runs inside their budget, a
//! run cut at the ellipse agrees with the uncut run inside it, the ellipse
//! walk finds every partition with a door inside, and routes built through
//! the regularity API stay regular with additive distances.

use indoor_geom::{Point, Rect};
use indoor_space::{
    DijkstraResult, DoorId, DoorKind, FloorId, IndoorPoint, IndoorSpace, IndoorSpaceBuilder,
    PartitionId, PartitionKind,
};
use proptest::prelude::*;
use std::collections::HashSet;

/// Parameters of a random corridor venue: on each of `floors` floors a
/// corridor with `rooms` rooms on each side, every room connected to the
/// corridor cell in front of it, plus optional second doors, and adjacent
/// floors connected by a staircase.
#[derive(Debug, Clone)]
struct VenueSpec {
    rooms: usize,
    room_width: f64,
    room_depth: f64,
    corridor_width: f64,
    second_doors: Vec<bool>,
    floors: usize,
    stairway_length: f64,
}

fn arb_spec() -> impl Strategy<Value = VenueSpec> {
    (
        2usize..7,
        6.0f64..20.0,
        5.0f64..15.0,
        3.0f64..8.0,
        proptest::collection::vec(proptest::bool::ANY, 7),
        1usize..4,
        10.0f64..40.0,
    )
        .prop_map(
            |(
                rooms,
                room_width,
                room_depth,
                corridor_width,
                second_doors,
                floors,
                stairway_length,
            )| VenueSpec {
                rooms,
                room_width,
                room_depth,
                corridor_width,
                second_doors,
                floors,
                stairway_length,
            },
        )
}

/// Builds the venue described by a spec. Returns the space plus one interior
/// point per room (in id order) usable as query endpoints.
fn build_venue(spec: &VenueSpec) -> (IndoorSpace, Vec<IndoorPoint>) {
    let mut b = IndoorSpaceBuilder::new().with_grid_cell(10.0);
    let mut points = Vec::new();
    let floors = spec.floors as i32;
    let total_width = spec.room_width * spec.rooms as f64;
    let mut stair_partitions = Vec::new();

    for f in 0..floors {
        let floor = FloorId(f);
        b.add_floor(
            floor,
            Rect::from_origin_size(
                Point::ORIGIN,
                total_width,
                spec.room_depth * 2.0 + spec.corridor_width,
            )
            .unwrap(),
        );
        // Corridor: one cell per room column.
        let corridor_y0 = spec.room_depth;
        let corridor_y1 = spec.room_depth + spec.corridor_width;
        let mut corridor_cells = Vec::new();
        for i in 0..spec.rooms {
            let x0 = i as f64 * spec.room_width;
            let cell = b.add_partition(
                floor,
                PartitionKind::Hallway,
                Rect::new(
                    Point::new(x0, corridor_y0),
                    Point::new(x0 + spec.room_width, corridor_y1),
                )
                .unwrap(),
                Some(format!("hall-{f}-{i}")),
            );
            corridor_cells.push(cell);
            if i > 0 {
                let d = b.add_door(
                    Point::new(x0, (corridor_y0 + corridor_y1) / 2.0),
                    floor,
                    DoorKind::Normal,
                );
                b.connect_bidirectional(d, corridor_cells[i - 1], cell);
            }
        }
        // Rooms south and north of the corridor.
        #[allow(clippy::needless_range_loop)] // `i` also positions the rooms
        for i in 0..spec.rooms {
            let x0 = i as f64 * spec.room_width;
            for (side, y0, y1, door_y) in [
                ("s", 0.0, spec.room_depth, corridor_y0),
                ("n", corridor_y1, corridor_y1 + spec.room_depth, corridor_y1),
            ] {
                let room = b.add_partition(
                    floor,
                    PartitionKind::Room,
                    Rect::new(Point::new(x0, y0), Point::new(x0 + spec.room_width, y1)).unwrap(),
                    Some(format!("room-{f}-{i}-{side}")),
                );
                let d = b.add_door(
                    Point::new(x0 + spec.room_width / 2.0, door_y),
                    floor,
                    DoorKind::Normal,
                );
                b.connect_bidirectional(d, room, corridor_cells[i]);
                if spec.second_doors[i % spec.second_doors.len()] && spec.room_width > 8.0 {
                    let d2 = b.add_door(
                        Point::new(x0 + spec.room_width * 0.25, door_y),
                        floor,
                        DoorKind::Normal,
                    );
                    b.connect_bidirectional(d2, room, corridor_cells[i]);
                }
                if f == 0 {
                    points.push(IndoorPoint::from_xy(
                        x0 + spec.room_width / 2.0,
                        (y0 + y1) / 2.0,
                        floor,
                    ));
                }
            }
        }
        // Staircase partition at the west end of the corridor.
        if floors > 1 {
            let stair = b.add_partition(
                floor,
                PartitionKind::Staircase,
                Rect::new(Point::new(0.0, corridor_y0), Point::new(2.0, corridor_y1)).unwrap(),
                Some(format!("stair-{f}")),
            );
            let d = b.add_door(
                Point::new(2.0, (corridor_y0 + corridor_y1) / 2.0),
                floor,
                DoorKind::Normal,
            );
            b.connect_bidirectional(d, stair, corridor_cells[0]);
            stair_partitions.push(stair);
        }
    }
    // Connect the staircases of adjacent floors with a stair door whose
    // loop costs twice the stairway length.
    for (f, pair) in stair_partitions.windows(2).enumerate() {
        let d = b.add_door(
            Point::new(1.0, spec.room_depth + 1.0),
            FloorId(f as i32),
            DoorKind::Stair,
        );
        b.connect_bidirectional(d, pair[0], pair[1]);
        for &stair in pair {
            b.set_loop_distance(stair, d, 2.0 * spec.stairway_length);
        }
    }
    (b.build().unwrap(), points)
}

/// A door-to-point connection: `(distance, doors, partitions)`.
type Connection = (f64, Vec<DoorId>, Vec<PartitionId>);

/// The shortest connection from `from` to `pt` read off a full run from
/// `from`: the best enterable door of `v(pt)` (first one on ties), as
/// `door_to_point_path` defines it, with no early stop of any kind.
fn connection_from_full_run(
    space: &IndoorSpace,
    full: &DijkstraResult,
    from: DoorId,
    pt: &IndoorPoint,
    excluded: &HashSet<DoorId>,
) -> Option<Connection> {
    let host = space.host_partition(pt).ok()?;
    let mut best: Option<(f64, DoorId)> = None;
    for &de in space.p2d_enter(host) {
        if excluded.contains(&de) && de != from {
            continue;
        }
        let tail = space.d2pt_distance(de, pt);
        let head = if de == from { 0.0 } else { full.distance(de) };
        if !tail.is_finite() || !head.is_finite() {
            continue;
        }
        let total = head + tail;
        if best.map(|(b, _)| total < b).unwrap_or(true) {
            best = Some((total, de));
        }
    }
    let (total, de) = best?;
    let (doors, mut partitions) = if de == from {
        (vec![from], Vec::new())
    } else {
        full.path_to(de)?
    };
    partitions.push(host);
    Some((total, doors, partitions))
}

/// Bit-level equality of two connections.
fn same_connection(a: &Option<Connection>, b: &Option<Connection>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some((da, pa, va)), Some((db, pb, vb))) => {
            da.to_bits() == db.to_bits() && pa == pb && va == vb
        }
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The skeleton distance is a lower bound of the realised indoor
    /// distance between any two room points — the property Pruning Rules
    /// 1–4 rely on for correctness.
    #[test]
    fn skeleton_distance_lower_bounds_the_graph_distance(
        spec in arb_spec(),
        i in 0usize..100,
        j in 0usize..100,
    ) {
        let (space, points) = build_venue(&spec);
        let a = points[i % points.len()];
        let b = points[j % points.len()];
        let lower = space.skeleton_distance(&a, &b);
        let actual = space.point_to_point_distance(&a, &b);
        prop_assert!(actual.is_finite(), "corridor venues are connected");
        prop_assert!(
            lower <= actual + 1e-6,
            "skeleton {lower} must lower-bound the graph distance {actual}"
        );
        // Same-floor skeleton distance is the planar Euclidean distance.
        if a.floor == b.floor {
            prop_assert!((lower - a.position.distance(&b.position)).abs() < 1e-9);
        }
        // Symmetry of both quantities on fully bidirectional venues.
        prop_assert!((space.skeleton_distance(&b, &a) - lower).abs() < 1e-9);
        prop_assert!((space.point_to_point_distance(&b, &a) - actual).abs() < 1e-6);
    }

    /// Dijkstra over the door graph behaves like a shortest-path function:
    /// zero self-distance, triangle inequality, and reconstructed paths that
    /// realise the reported distance.
    #[test]
    fn dijkstra_satisfies_the_triangle_inequality_and_realises_its_paths(
        spec in arb_spec(),
        da in 0usize..100,
        db in 0usize..100,
        dc in 0usize..100,
    ) {
        let (space, _) = build_venue(&spec);
        let n = space.num_doors();
        let a = DoorId((da % n) as u32);
        let b = DoorId((db % n) as u32);
        let c = DoorId((dc % n) as u32);
        let sp = space.shortest_paths();
        let none = HashSet::new();

        let from_a = sp.from_door(a, &none);
        prop_assert!(from_a.distance(a).abs() < 1e-9);

        let ab = from_a.distance(b);
        let ac = from_a.distance(c);
        let bc = sp.from_door(b, &none).distance(c);
        if ab.is_finite() && bc.is_finite() {
            prop_assert!(ac <= ab + bc + 1e-6, "d(a,c)={ac} d(a,b)={ab} d(b,c)={bc}");
        }

        // Every reconstructed shortest path realises the reported distance.
        if ab.is_finite() && a != b {
            let (doors, parts) = from_a.path_to(b).expect("finite distance implies a path");
            prop_assert_eq!(doors.first().copied(), Some(a));
            prop_assert_eq!(doors.last().copied(), Some(b));
            prop_assert_eq!(parts.len() + 1, doors.len());
            let mut total = 0.0;
            for (w, &via) in doors.windows(2).zip(parts.iter()) {
                total += space.intra_door_distance(via, w[0], w[1]);
            }
            prop_assert!((total - ab).abs() < 1e-6);
        }
    }

    /// Routes assembled through the regularity-checked API stay regular, and
    /// their distance is the sum of the leg distances (Definition 1).
    #[test]
    fn routes_built_with_regularity_checks_are_regular_and_additive(
        spec in arb_spec(),
        start_room in 0usize..100,
        hops in 1usize..12,
        choices in proptest::collection::vec(0usize..100, 12),
    ) {
        let (space, points) = build_venue(&spec);
        let start = points[start_room % points.len()];
        let start_partition = space.host_partition(&start).unwrap();

        let mut route = indoor_space::Route::from_point(start);
        let mut current_partition = start_partition;
        let mut expected_distance = 0.0;
        let mut previous_item_pos = start.position;

        for step in 0..hops {
            let leavable = space.p2d_leave(current_partition);
            if leavable.is_empty() {
                break;
            }
            let door = leavable[choices[step % choices.len()] % leavable.len()];
            if !route.can_append_door(door) {
                break;
            }
            // Leg cost: from the previous item to this door.
            let door_pos = space.door(door).unwrap().position;
            let leg = if route.doors().is_empty() {
                space.pt2d_distance(&start, door)
            } else {
                space.intra_door_distance(current_partition, route.tail_door().unwrap(), door)
            };
            if !leg.is_finite() {
                break;
            }
            route.append_door(door, current_partition).unwrap();
            expected_distance += leg;
            previous_item_pos = door_pos;
            // Land in some partition behind the door (or stay, for a loop).
            let behind = space.partitions_behind(door, current_partition);
            current_partition = behind
                .first()
                .copied()
                .unwrap_or(current_partition);
        }
        let _ = previous_item_pos;

        prop_assert!(route.is_regular());
        let computed = route.distance(&space);
        prop_assert!(
            (computed - expected_distance).abs() < 1e-6,
            "route distance {computed} vs incremental sum {expected_distance}"
        );
        // The door set is consistent with the door sequence.
        for d in route.doors() {
            prop_assert!(route.contains_door(*d));
            prop_assert!(route.door_set().contains(d));
        }
        prop_assert_eq!(route.num_items(), 1 + route.doors().len());
        prop_assert!(!route.is_complete());
    }

    /// Directionality: the intra-partition distance functions are finite
    /// exactly when the topology mappings allow the movement.
    #[test]
    fn intra_partition_distances_respect_directionality(
        spec in arb_spec(),
        pick_door in 0usize..100,
        pick_room in 0usize..100,
    ) {
        let (space, points) = build_venue(&spec);
        let door = DoorId((pick_door % space.num_doors()) as u32);
        let point = points[pick_room % points.len()];
        let host = space.host_partition(&point).unwrap();

        let to_door = space.pt2d_distance(&point, door);
        prop_assert_eq!(
            to_door.is_finite(),
            space.p2d_leave(host).contains(&door),
            "pt2d must be finite iff the door leaves the host partition"
        );
        let from_door = space.d2pt_distance(door, &point);
        prop_assert_eq!(
            from_door.is_finite(),
            space.p2d_enter(host).contains(&door)
        );
        // The same-door loop distance is finite for partitions the door both
        // enters and leaves, and is at least twice the direct distance to the
        // farthest point being non-negative.
        for &v in space.d2p_enter(door) {
            let loop_cost = space.loop_distance(door, v);
            if space.d2p_leave(door).contains(&v) {
                prop_assert!(loop_cost.is_finite());
                prop_assert!(loop_cost >= 0.0);
            } else {
                prop_assert!(!loop_cost.is_finite());
            }
        }
    }
}

proptest! {
    // Cheap cases (a few dozen doors each), so run more of them: the
    // boundary cases need a two-door partition to catch a stop that comes
    // one door early.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A run bounded by `(base, limit)` settles exactly the doors `d` of the
    /// full run with `base + dist(d) <= limit`, with bit-identical distances
    /// and the same paths, and reads every other door as unreachable; the
    /// bounded door-to-point search returns the full connection exactly when
    /// it fits the budget. Half of the cases put `limit` exactly on a
    /// reachable door's (or the connection's) distance, where a `>=` stop
    /// would lose it.
    #[test]
    fn bounded_dijkstra_agrees_with_full_dijkstra_within_the_bound(
        spec in arb_spec(),
        source in 0usize..100,
        excluded in proptest::collection::vec(0usize..100, 0..4),
        base in 0.0f64..60.0,
        slack in 0.0f64..150.0,
        limit_on_a_door in proptest::bool::ANY,
        pick in 0usize..100,
        partition in 0usize..100,
        fx in 0.05f64..0.95,
        fy in 0.05f64..0.95,
    ) {
        let (space, _) = build_venue(&spec);
        let n = space.num_doors();
        let sp = space.shortest_paths();
        let source = DoorId((source % n) as u32);
        let excluded: HashSet<DoorId> =
            excluded.iter().map(|&i| DoorId((i % n) as u32)).collect();
        let doors: Vec<DoorId> = (0..n).map(|i| DoorId(i as u32)).collect();

        let full = sp.from_door(source, &excluded);
        let reachable: Vec<DoorId> =
            doors.iter().copied().filter(|&d| full.distance(d).is_finite()).collect();
        let limit = if limit_on_a_door {
            base + full.distance(reachable[pick % reachable.len()])
        } else {
            base + slack
        };
        let excluded_doors: Vec<DoorId> = excluded.iter().copied().collect();
        let bounded =
            sp.from_door_within(source, |d| excluded_doors.contains(&d), base, limit, None, &[]);
        prop_assert_eq!(bounded.source(), source);
        for &d in &doors {
            if base + full.distance(d) <= limit {
                prop_assert_eq!(bounded.distance(d).to_bits(), full.distance(d).to_bits());
                prop_assert_eq!(bounded.path_to(d), full.path_to(d));
            } else {
                prop_assert!(!bounded.distance(d).is_finite(), "door {:?} beyond the bound", d);
                prop_assert!(bounded.path_to(d).is_none());
            }
        }

        // Any point of any partition: corridor cells have several enterable
        // doors, which the door-to-point search must all settle.
        let host = &space.partitions()[partition % space.partitions().len()];
        let rect = host.footprint;
        let pt = IndoorPoint::new(
            Point::new(rect.min.x + rect.width() * fx, rect.min.y + rect.height() * fy),
            host.floor,
        );
        let reference = connection_from_full_run(&space, &full, source, &pt, &excluded);
        let unbounded = sp.door_to_point_path(source, &pt, &excluded_doors);
        prop_assert!(same_connection(&unbounded, &reference), "{:?} vs {:?}", unbounded, reference);
        let limit = match (&reference, limit_on_a_door) {
            (Some((total, _, _)), true) => base + total,
            _ => base + slack,
        };
        let (mut path_doors, mut path_partitions) = (Vec::new(), Vec::new());
        let bounded = sp
            .door_to_point_path_within(
                source,
                &pt,
                |d| excluded_doors.contains(&d),
                base,
                limit,
                &mut path_doors,
                &mut path_partitions,
            )
            .map(|distance| (distance, path_doors, path_partitions));
        let expected = reference.filter(|(total, _, _)| base + total <= limit);
        prop_assert!(same_connection(&bounded, &expected), "{:?} vs {:?}", bounded, expected);
    }
}

/// A point of a partition at fractions `(fx, fy)` of its footprint.
fn point_in(space: &IndoorSpace, partition: usize, fx: f64, fy: f64) -> IndoorPoint {
    let host = &space.partitions()[partition % space.partitions().len()];
    let rect = host.footprint;
    IndoorPoint::new(
        Point::new(
            rect.min.x + rect.width() * fx,
            rect.min.y + rect.height() * fy,
        ),
        host.floor,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The skeleton bound to a point is consistent along every door-graph
    /// edge, `|x, pt|_L ≤ w(x, y) + |y, pt|_L`, up to rounding: the
    /// property that makes the ellipse cut exact.
    #[test]
    fn skeleton_bound_is_consistent_on_every_door_graph_edge(
        spec in arb_spec(),
        partition in 0usize..100,
        fx in 0.05f64..0.95,
        fy in 0.05f64..0.95,
    ) {
        let (space, _) = build_venue(&spec);
        let pt = point_in(&space, partition, fx, fy);
        for i in 0..space.num_doors() {
            let x = DoorId(i as u32);
            let from = space.skeleton_point_to_door(&pt, x);
            for edge in space.door_graph().edges_from(x) {
                let to = space.skeleton_point_to_door(&pt, edge.to);
                prop_assert!(
                    from <= edge.weight + to + 1e-9 * (1.0 + from),
                    "|{:?}, pt| = {} > w = {} + |{:?}, pt| = {}", x, from, edge.weight, edge.to, to
                );
            }
        }
    }

    /// A bounded run cut at the ellipse of `pt` settles every door `d` of
    /// the uncut bounded run with `base + dist(d) + |d, pt|_L <= limit`,
    /// with bit-identical distances and the same paths, and never reports
    /// a distance the uncut run does not. A run told targets (cut or not)
    /// gives every target its untargeted twin settles the same distance
    /// bits and path, and settles no door the twin leaves unsettled. Each
    /// run lists as settled exactly the doors it gives a distance.
    #[test]
    fn ellipse_cut_agrees_with_the_uncut_run_inside_the_ellipse(
        spec in arb_spec(),
        source in 0usize..100,
        excluded in proptest::collection::vec(0usize..100, 0..4),
        base in 0.0f64..40.0,
        slack in 0.0f64..150.0,
        partition in 0usize..100,
        fx in 0.05f64..0.95,
        fy in 0.05f64..0.95,
        targets in proptest::collection::vec(0usize..100, 0..6),
    ) {
        let (space, _) = build_venue(&spec);
        let n = space.num_doors();
        let sp = space.shortest_paths();
        let source = DoorId((source % n) as u32);
        let excluded: Vec<DoorId> = excluded.iter().map(|&i| DoorId((i % n) as u32)).collect();
        let pt = point_in(&space, partition, fx, fy);
        let limit = base + slack;
        let mut targets: Vec<DoorId> = targets.iter().map(|&i| DoorId((i % n) as u32)).collect();
        targets.sort_unstable();
        targets.dedup();
        let within = |terminal: Option<&IndoorPoint>, targets: &[DoorId]| {
            sp.from_door_within(source, |d| excluded.contains(&d), base, limit, terminal, targets)
        };
        let uncut = within(None, &[]);
        let cut = within(Some(&pt), &[]);
        for d in (0..n).map(|i| DoorId(i as u32)) {
            let full = uncut.distance(d);
            if base + full + space.skeleton_point_to_door(&pt, d) <= limit {
                prop_assert_eq!(cut.distance(d).to_bits(), full.to_bits(), "door {:?}", d);
                prop_assert_eq!(cut.path_to(d), uncut.path_to(d));
            } else if cut.distance(d).is_finite() {
                prop_assert_eq!(cut.distance(d).to_bits(), full.to_bits(), "door {:?}", d);
            }
        }
        let (uncut_targeted, cut_targeted) = (within(None, &targets), within(Some(&pt), &targets));
        for (whole, targeted) in [(&uncut, &uncut_targeted), (&cut, &cut_targeted)] {
            for &d in &targets {
                if whole.distance(d).is_finite() {
                    prop_assert_eq!(
                        targeted.distance(d).to_bits(),
                        whole.distance(d).to_bits(),
                        "target {:?}", d
                    );
                    prop_assert_eq!(targeted.path_to(d), whole.path_to(d));
                }
            }
            for d in (0..n).map(|i| DoorId(i as u32)) {
                if targeted.distance(d).is_finite() {
                    prop_assert_eq!(
                        targeted.distance(d).to_bits(),
                        whole.distance(d).to_bits(),
                        "door {:?}", d
                    );
                }
            }
        }
        for run in [&uncut, &cut, &uncut_targeted, &cut_targeted] {
            let mut settled: Vec<DoorId> = run.settled().collect();
            settled.sort_unstable();
            settled.dedup();
            let finite: Vec<DoorId> = (0..n)
                .map(|i| DoorId(i as u32))
                .filter(|&d| run.distance(d).is_finite())
                .collect();
            prop_assert_eq!(settled, finite);
        }
    }
}
