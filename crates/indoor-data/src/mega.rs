//! Mega-venue generator: venues of 10³–10⁵ partitions for the venue-scale
//! indexing experiments.
//!
//! The mall generator of [`crate::mall`] reproduces the paper's per-floor
//! statistics exactly, but its keyword pipeline (corpus synthesis + RAKE/
//! TF-IDF extraction) and its cross-shaped floorplan do not scale to the
//! partition counts the index benchmarks need. This module generates a
//! deliberately simple *comb* topology whose cost is linear in the partition
//! count:
//!
//! * per floor, a vertical **trunk** corridor on the west edge, decomposed
//!   into one segment per rib;
//! * **ribs**: horizontal corridors branching east off the trunk, each
//!   decomposed into regular segments;
//! * **rooms** lining both sides of every rib segment, one door each;
//! * one **staircase** at the south end of the trunk chaining floors with
//!   configurable stairway lengths (same intra-distance wiring as the mall
//!   generator, so one floor change costs exactly `stairway_length`).
//!
//! The door graph is linear in the partition count (one door per room, one
//! per corridor adjacency), and keywords are synthesized directly into the
//! [`KeywordDirectory`] — deterministic brand i-words drawn over shared
//! per-category t-word pools with a Zipf-skewed category choice — skipping
//! the corpus/extraction machinery entirely. The skew produces the
//! clustered, long-tailed `T2I` rows that keyword preparation walks.

use crate::venue::Venue;
use indoor_geom::{Point, Rect};
use indoor_keywords::KeywordDirectory;
use indoor_space::{
    DoorId, DoorKind, FloorId, IndoorSpaceBuilder, PartitionId, PartitionKind,
    Result as SpaceResult, SpaceError,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Room width along the rib corridor, metres.
const ROOM_W: f64 = 8.0;
/// Room depth perpendicular to the rib corridor, metres.
const ROOM_DEPTH: f64 = 10.0;
/// Corridor width (ribs and trunk), metres.
const CORRIDOR_W: f64 = 6.0;
/// Clearance between the room band of one rib and the next rib's band.
const GAP: f64 = 1.0;
/// Vertical pitch between consecutive ribs.
const PITCH: f64 = 2.0 * ROOM_DEPTH + CORRIDOR_W + 2.0 * GAP;
/// Trunk corridor width, metres.
const TRUNK_W: f64 = 6.0;
/// Staircase block height at the south end of the trunk, metres.
const STAIR_H: f64 = 12.0;

/// Configuration of the mega-venue generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MegaVenueConfig {
    /// Target total partition count across all floors. The generator rounds
    /// the comb layout up, so the built venue has *at least* this many
    /// partitions (and no more than a small layout-granularity overshoot).
    pub partitions: usize,
    /// Number of floors.
    pub floors: usize,
    /// Rooms on each side of each rib segment.
    pub rooms_per_segment_side: usize,
    /// Number of keyword categories; each category owns a t-word pool.
    pub categories: usize,
    /// T-words in each category pool.
    pub twords_per_category: usize,
    /// T-words associated with each brand i-word (drawn from its category
    /// pool, so brands of one category share descriptive terms).
    pub twords_per_brand: usize,
    /// Zipf exponent of the category-popularity skew (0 = uniform).
    pub zipf_exponent: f64,
    /// Walking length of one stairway between adjacent floors.
    pub stairway_length: f64,
    /// Seed for all random choices (category draws, t-word picks).
    pub seed: u64,
}

impl Default for MegaVenueConfig {
    fn default() -> Self {
        MegaVenueConfig {
            partitions: 1_000,
            floors: 3,
            rooms_per_segment_side: 4,
            categories: 32,
            twords_per_category: 12,
            twords_per_brand: 5,
            zipf_exponent: 1.0,
            stairway_length: 20.0,
            seed: 42,
        }
    }
}

impl MegaVenueConfig {
    /// Convenience: the default configuration at a different scale.
    pub fn sized(partitions: usize, seed: u64) -> Self {
        MegaVenueConfig {
            partitions,
            seed,
            ..Default::default()
        }
    }

    /// Checks the size parameters, returning a usage error instead of
    /// panicking (or allocating absurd amounts) later in generation.
    pub fn validate(&self) -> SpaceResult<()> {
        let fail = |msg: String| Err(SpaceError::InvalidConfig(msg));
        if self.floors == 0 || self.floors > 64 {
            return fail(format!("floors must be in 1..=64, got {}", self.floors));
        }
        if self.rooms_per_segment_side == 0 {
            return fail("rooms_per_segment_side must be at least 1".into());
        }
        if self.partitions > 1_000_000 {
            return fail(format!(
                "partitions capped at 1_000_000, got {}",
                self.partitions
            ));
        }
        let min = self.floors * (2 * self.rooms_per_segment_side + 3);
        if self.partitions < min {
            return fail(format!(
                "partitions {} is too small for {} floors: need at least {} \
                 (one rib segment per floor)",
                self.partitions, self.floors, min
            ));
        }
        if self.categories == 0 {
            return fail("categories must be at least 1".into());
        }
        if self.twords_per_brand == 0 || self.twords_per_brand > self.twords_per_category {
            return fail(format!(
                "twords_per_brand must be in 1..=twords_per_category ({}), got {}",
                self.twords_per_category, self.twords_per_brand
            ));
        }
        if !self.zipf_exponent.is_finite() || self.zipf_exponent < 0.0 {
            return fail(format!(
                "zipf_exponent must be finite and non-negative, got {}",
                self.zipf_exponent
            ));
        }
        if !self.stairway_length.is_finite() || self.stairway_length <= 0.0 {
            return fail(format!(
                "stairway_length must be a positive finite length, got {}",
                self.stairway_length
            ));
        }
        Ok(())
    }

    /// The comb dimensions for this configuration: (ribs per floor, segments
    /// per rib). Chosen so each floor is roughly square and the total
    /// partition count meets the target.
    fn comb_dimensions(&self) -> (usize, usize) {
        let per_segment = 2 * self.rooms_per_segment_side + 1;
        let per_floor_target = self.partitions.div_ceil(self.floors);
        // Trunk + staircase overhead is one partition per rib plus one; the
        // segment solve below rounds up, which absorbs it.
        let total_segments = per_floor_target.div_ceil(per_segment).max(1);
        let ribs = (total_segments as f64).sqrt().ceil() as usize;
        let segments = total_segments.div_ceil(ribs);
        (ribs.max(1), segments.max(1))
    }
}

/// Generates a mega venue: comb floorplan plus directly synthesized
/// skewed keywords. Deterministic for a given configuration.
pub fn mega_venue(config: &MegaVenueConfig) -> SpaceResult<Venue> {
    config.validate()?;
    let (ribs, segments) = config.comb_dimensions();
    let rooms_side = config.rooms_per_segment_side;
    let seg_len = rooms_side as f64 * ROOM_W;
    let floor_w = TRUNK_W + segments as f64 * seg_len + GAP;
    let floor_h = STAIR_H + ribs as f64 * PITCH + GAP;

    let mut builder = IndoorSpaceBuilder::new().with_grid_cell(seg_len.max(PITCH));
    let mut rooms: Vec<PartitionId> = Vec::new();
    // Per floor: (staircase partition, its trunk-side door).
    let mut stair_by_floor: Vec<(PartitionId, DoorId)> = Vec::new();

    for floor_idx in 0..config.floors {
        let floor = FloorId(floor_idx as i32);
        builder.add_floor(
            floor,
            Rect::from_origin_size(Point::ORIGIN, floor_w, floor_h)?,
        );

        // Staircase block and trunk corridor on the west edge.
        let staircase = builder.add_partition(
            floor,
            PartitionKind::Staircase,
            Rect::new(Point::new(0.0, 0.0), Point::new(TRUNK_W, STAIR_H))?,
            Some(format!("stair-f{floor_idx}")),
        );
        let mut trunk = Vec::with_capacity(ribs);
        for i in 0..ribs {
            let y0 = STAIR_H + i as f64 * PITCH;
            let seg = builder.add_partition(
                floor,
                PartitionKind::Hallway,
                Rect::new(Point::new(0.0, y0), Point::new(TRUNK_W, y0 + PITCH))?,
                Some(format!("trunk-f{floor_idx}-{i}")),
            );
            trunk.push(seg);
        }
        let stair_door =
            builder.add_door(Point::new(TRUNK_W / 2.0, STAIR_H), floor, DoorKind::Normal);
        builder.connect_bidirectional(stair_door, staircase, trunk[0]);
        stair_by_floor.push((staircase, stair_door));
        for i in 0..ribs - 1 {
            let y = STAIR_H + (i + 1) as f64 * PITCH;
            let d = builder.add_door(Point::new(TRUNK_W / 2.0, y), floor, DoorKind::Normal);
            builder.connect_bidirectional(d, trunk[i], trunk[i + 1]);
        }

        // Ribs with rooms on both sides.
        for (i, &trunk_seg) in trunk.iter().enumerate() {
            let rib_y0 = STAIR_H + i as f64 * PITCH + GAP + ROOM_DEPTH;
            let rib_y1 = rib_y0 + CORRIDOR_W;
            let rib_mid = (rib_y0 + rib_y1) / 2.0;
            let mut prev_seg: Option<PartitionId> = None;
            for s in 0..segments {
                let x0 = TRUNK_W + s as f64 * seg_len;
                let x1 = x0 + seg_len;
                let seg = builder.add_partition(
                    floor,
                    PartitionKind::Hallway,
                    Rect::new(Point::new(x0, rib_y0), Point::new(x1, rib_y1))?,
                    Some(format!("rib-f{floor_idx}-{i}-{s}")),
                );
                match prev_seg {
                    None => {
                        let d =
                            builder.add_door(Point::new(TRUNK_W, rib_mid), floor, DoorKind::Normal);
                        builder.connect_bidirectional(d, trunk_seg, seg);
                    }
                    Some(prev) => {
                        let d = builder.add_door(Point::new(x0, rib_mid), floor, DoorKind::Normal);
                        builder.connect_bidirectional(d, prev, seg);
                    }
                }
                prev_seg = Some(seg);
                for side in [1.0f64, -1.0f64] {
                    let (ry0, ry1) = if side > 0.0 {
                        (rib_y1, rib_y1 + ROOM_DEPTH)
                    } else {
                        (rib_y0 - ROOM_DEPTH, rib_y0)
                    };
                    for j in 0..rooms_side {
                        let rx0 = x0 + j as f64 * ROOM_W;
                        let room = builder.add_partition(
                            floor,
                            PartitionKind::Room,
                            Rect::new(Point::new(rx0, ry0), Point::new(rx0 + ROOM_W, ry1))?,
                            None,
                        );
                        let wall_y = if side > 0.0 { rib_y1 } else { rib_y0 };
                        let d = builder.add_door(
                            Point::new(rx0 + ROOM_W / 2.0, wall_y),
                            floor,
                            DoorKind::Normal,
                        );
                        builder.connect_bidirectional(d, room, seg);
                        rooms.push(room);
                    }
                }
            }
        }
    }

    // Inter-floor stair doors, wired exactly like the mall generator so one
    // floor change costs `stairway_length`.
    let half_stair = config.stairway_length / 2.0;
    let mut previous_stair_door: Option<DoorId> = None;
    for floor_idx in 0..config.floors.saturating_sub(1) {
        let (lower_part, lower_hall_door) = stair_by_floor[floor_idx];
        let (upper_part, upper_hall_door) = stair_by_floor[floor_idx + 1];
        let stair_door = builder.add_door(
            Point::new(TRUNK_W / 2.0, STAIR_H / 2.0),
            FloorId(floor_idx as i32),
            DoorKind::Stair,
        );
        builder.connect_bidirectional(stair_door, lower_part, upper_part);
        builder.set_intra_distance(lower_part, lower_hall_door, stair_door, half_stair);
        builder.set_intra_distance(upper_part, upper_hall_door, stair_door, half_stair);
        if let Some(prev) = previous_stair_door {
            builder.set_intra_distance(lower_part, prev, stair_door, config.stairway_length);
        }
        previous_stair_door = Some(stair_door);
    }

    let space = builder.build()?;
    let directory = synthesize_keywords(config, &rooms);
    Ok(Venue {
        space,
        directory,
        rooms,
    })
}

/// Synthesizes the keyword directory: one deterministic brand i-word per
/// room, with its t-words drawn from the Zipf-chosen category's pool.
fn synthesize_keywords(config: &MegaVenueConfig, rooms: &[PartitionId]) -> KeywordDirectory {
    let mut directory = KeywordDirectory::new();
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Cumulative Zipf weights over categories: w_k ∝ 1 / (k + 1)^s.
    let mut cumulative = Vec::with_capacity(config.categories);
    let mut total = 0.0f64;
    for k in 0..config.categories {
        total += 1.0 / ((k + 1) as f64).powf(config.zipf_exponent);
        cumulative.push(total);
    }

    // Pre-render every category t-word once; the per-room loop below would
    // otherwise `format!` rooms × twords_per_brand throwaway strings.
    let pool_names: Vec<Vec<String>> = (0..config.categories)
        .map(|category| {
            (0..config.twords_per_category)
                .map(|j| format!("cat{category}-item{j}"))
                .collect()
        })
        .collect();

    let mut pool_indices: Vec<usize> = (0..config.twords_per_category).collect();
    let mut brand_name = String::with_capacity(24);
    for (i, &room) in rooms.iter().enumerate() {
        brand_name.clear();
        write!(brand_name, "brand-{i}").expect("writing to a String cannot fail");
        let brand = directory
            .add_iword(&brand_name)
            .expect("generated brand names are distinct");
        let u = rng.gen_range(0.0..total);
        let category = cumulative
            .partition_point(|&c| c < u)
            .min(config.categories - 1);
        pool_indices.shuffle(&mut rng);
        for &j in pool_indices.iter().take(config.twords_per_brand) {
            directory.add_tword_for(brand, &pool_names[category][j]);
        }
        directory
            .name_partition(room, brand)
            .expect("each room is named exactly once");
    }
    directory
}

#[cfg(test)]
mod tests {
    use super::*;
    use indoor_space::IndoorPoint;

    #[test]
    fn mega_venue_meets_the_requested_scale() {
        let config = MegaVenueConfig::sized(1_000, 7);
        let venue = mega_venue(&config).unwrap();
        let stats = venue.space.stats();
        assert!(
            stats.partitions >= 1_000,
            "at least the requested partitions, got {}",
            stats.partitions
        );
        assert!(
            stats.partitions < 1_500,
            "bounded layout overshoot, got {}",
            stats.partitions
        );
        assert_eq!(stats.floors, 3);
        // The door graph is linear in the partition count.
        assert!(stats.doors < 2 * stats.partitions);
        // Every room carries a brand i-word.
        for &room in &venue.rooms {
            assert!(venue.directory.partition_iword(room).is_some());
        }
    }

    #[test]
    fn floors_are_connected_through_the_stairway() {
        let config = MegaVenueConfig {
            partitions: 200,
            floors: 2,
            ..Default::default()
        };
        let venue = mega_venue(&config).unwrap();
        let a = venue.space.partition(venue.rooms[0]).unwrap();
        let b = venue
            .space
            .partition(venue.rooms[venue.rooms.len() - 1])
            .unwrap();
        assert_ne!(
            a.floor, b.floor,
            "first and last rooms are on different floors"
        );
        let pa = IndoorPoint::new(a.center(), a.floor);
        let pb = IndoorPoint::new(b.center(), b.floor);
        let d = venue.space.point_to_point_distance(&pa, &pb);
        assert!(d.is_finite(), "cross-floor route must exist");
        assert!(d >= config.stairway_length);
    }

    #[test]
    fn keyword_skew_favours_popular_categories() {
        let venue = mega_venue(&MegaVenueConfig::sized(2_000, 3)).unwrap();
        // Count brands whose t-words come from category 0 vs the tail
        // category: the Zipf skew must make the head strictly more popular.
        let brands_in = |category: usize| {
            venue
                .rooms
                .iter()
                .filter(|&&room| {
                    let iw = venue.directory.partition_iword(room).unwrap();
                    venue.directory.twords_of(iw).iter().any(|&tw| {
                        venue
                            .directory
                            .resolve(tw)
                            .is_some_and(|s| s.starts_with(&format!("cat{category}-")))
                    })
                })
                .count()
        };
        let head = brands_in(0);
        let tail = brands_in(31);
        assert!(
            head > 2 * tail.max(1),
            "Zipf skew: head category {head} vs tail {tail}"
        );
        // Shared category pools create i-word associations: at least one
        // t-word belongs to several brands.
        let shared = venue
            .directory
            .vocab()
            .twords()
            .any(|tw| venue.directory.mappings().t2i(tw).len() > 1);
        assert!(shared, "category pools must be shared across brands");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = mega_venue(&MegaVenueConfig::sized(300, 5)).unwrap();
        let b = mega_venue(&MegaVenueConfig::sized(300, 5)).unwrap();
        assert_eq!(a.rooms, b.rooms);
        for &room in &a.rooms {
            let wa = a.directory.partition_iword(room).unwrap();
            let wb = b.directory.partition_iword(room).unwrap();
            assert_eq!(a.directory.twords_of(wa), b.directory.twords_of(wb));
        }
    }

    #[test]
    fn degenerate_configurations_fail_with_usage_errors() {
        let cases = [
            MegaVenueConfig {
                floors: 0,
                ..Default::default()
            },
            MegaVenueConfig {
                partitions: 4,
                ..Default::default()
            },
            MegaVenueConfig {
                partitions: 2_000_000,
                ..Default::default()
            },
            MegaVenueConfig {
                twords_per_brand: 99,
                ..Default::default()
            },
            MegaVenueConfig {
                zipf_exponent: f64::NAN,
                ..Default::default()
            },
        ];
        for config in cases {
            let err = mega_venue(&config).unwrap_err();
            assert!(
                matches!(err, SpaceError::InvalidConfig(_)),
                "expected InvalidConfig, got {err:?}"
            );
        }
    }
}
