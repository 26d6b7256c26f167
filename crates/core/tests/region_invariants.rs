//! Structural invariants of the venue index's region layer, checked on
//! generated venues (the fig. 1 example, a multi-floor mega venue and the
//! synthetic mall):
//!
//! 1. `region_of` is total — every partition belongs to exactly one region,
//!    and that region lists it as a member.
//! 2. The region bounding box covers every member footprint corner and
//!    every member enter/leave door position; the floor set covers every
//!    member floor and door floor.
//! 3. The region i-word bitmap is exactly the union of member naming
//!    i-words (probed through `region_has_iword`).
//! 4. Soundness of the Rule-3 bound: for random start/terminal points,
//!    `detour_lower_bound(region, ps, pt)` never exceeds any member's
//!    `partition_detour_lower_bound(ps, v, pt)` — pruning a region can
//!    never prune a partition the scan path would have kept.

use indoor_data::{mega_venue, paper_example_venue, MegaVenueConfig, Venue};
use indoor_index::VenueIndex;
use indoor_keywords::KeywordDirectory;
use indoor_space::{IndoorPoint, IndoorSpace, PartitionId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn fixtures() -> Vec<(String, Venue)> {
    let mut venues = vec![("fig1".to_string(), paper_example_venue().venue)];
    for (label, partitions, seed) in [("mega-120", 120, 7u64), ("mega-400", 400, 21)] {
        let venue = mega_venue(&MegaVenueConfig::sized(partitions, seed))
            .expect("fixture configs are valid");
        venues.push((label.to_string(), venue));
    }
    venues
}

fn check_structure(label: &str, space: &IndoorSpace, directory: &KeywordDirectory) {
    let index = VenueIndex::build(space, directory);
    let regions = index.regions();

    // 1. Totality: every partition maps to a region that contains it.
    let mut seen = vec![0usize; space.num_partitions()];
    for p in space.partitions() {
        let rid = regions
            .region_of(p.id)
            .unwrap_or_else(|| panic!("{label}: partition {:?} has no region", p.id));
        let region = &regions.regions()[rid as usize];
        assert!(
            region.members().contains(&p.id),
            "{label}: region {rid} does not list its member {:?}",
            p.id
        );
        seen[p.id.index()] += 1;
    }
    assert!(
        seen.iter().all(|&n| n == 1),
        "{label}: every partition belongs to exactly one region"
    );
    let listed: usize = regions.regions().iter().map(|r| r.members().len()).sum();
    assert_eq!(
        listed,
        space.num_partitions(),
        "{label}: member lists partition the venue"
    );

    for (rid, region) in regions.regions().iter().enumerate() {
        for &v in region.members() {
            let part = space.partition(v).expect("member exists");
            // 2. Geometry: bbox covers footprints and door positions,
            // floors cover member and door floors.
            assert!(
                region.floors().contains(&part.floor),
                "{label}: region {rid} floor set misses member floor"
            );
            for corner in part.footprint.corners() {
                assert!(
                    region.bbox().distance_to_point(&corner) == 0.0,
                    "{label}: region {rid} bbox misses footprint corner of {v:?}"
                );
            }
            for &d in space.p2d_enter(v).iter().chain(space.p2d_leave(v).iter()) {
                let door = space.door(d).expect("door exists");
                assert!(
                    region.bbox().distance_to_point(&door.position) == 0.0,
                    "{label}: region {rid} bbox misses door {d:?} of {v:?}"
                );
                for floor in door.floors() {
                    assert!(
                        region.floors().contains(&floor),
                        "{label}: region {rid} floor set misses door floor"
                    );
                }
            }
        }
        // 3. Keyword summary: bitmap == union of member naming i-words.
        let member_iwords: std::collections::BTreeSet<_> = region
            .members()
            .iter()
            .filter_map(|&v| directory.partition_iword(v))
            .collect();
        for iw in directory.vocab().iwords() {
            assert_eq!(
                regions.region_has_iword(rid as u32, iw),
                member_iwords.contains(&iw),
                "{label}: region {rid} bitmap disagrees with member union for {iw:?}"
            );
        }
    }
}

fn random_point(space: &IndoorSpace, rng: &mut StdRng) -> IndoorPoint {
    let floors = space.floors();
    let floor = floors[rng.gen_range(0..floors.len())];
    let bounds = space.floor_bounds(floor).expect("floor exists");
    IndoorPoint::new(
        indoor_geom::Point::new(
            rng.gen_range(bounds.min.x..=bounds.max.x),
            rng.gen_range(bounds.min.y..=bounds.max.y),
        ),
        floor,
    )
}

fn check_bound_dominance(label: &str, space: &IndoorSpace, directory: &KeywordDirectory) {
    let index = VenueIndex::build(space, directory);
    let regions = index.regions();
    let mut rng = StdRng::seed_from_u64(0xB0DE);
    let partitions: Vec<PartitionId> = space.partitions().iter().map(|p| p.id).collect();
    for _ in 0..24 {
        let ps = random_point(space, &mut rng);
        let pt = random_point(space, &mut rng);
        // Sample member partitions rather than sweeping all of them so the
        // mega fixtures stay fast.
        for _ in 0..32 {
            let v = partitions[rng.gen_range(0..partitions.len())];
            let rid = regions.region_of(v).expect("totality");
            let region_bound = regions.detour_lower_bound(space, rid, &ps, &pt);
            let member_bound = space.partition_detour_lower_bound(&ps, v, &pt);
            assert!(
                region_bound <= member_bound + 1e-9,
                "{label}: region bound {region_bound} exceeds member bound \
                 {member_bound} for {v:?} (region {rid}, ps {ps:?}, pt {pt:?})"
            );
        }
    }
}

#[test]
fn region_structure_invariants_hold() {
    for (label, venue) in fixtures() {
        check_structure(&label, &venue.space, &venue.directory);
    }
}

#[test]
fn region_bound_never_exceeds_a_member_bound() {
    for (label, venue) in fixtures() {
        check_bound_dominance(&label, &venue.space, &venue.directory);
    }
}
