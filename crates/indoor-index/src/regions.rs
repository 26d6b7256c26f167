//! Keyword-clustered spatial regions over the partition graph.
//!
//! Partitions are grouped per floor into grid cells sized so each region
//! holds roughly [`TARGET_MEMBERS`] members. Each region carries the
//! geometry needed for a sound detour lower bound (bounding box expanded to
//! member door positions, floor set expanded to member door floors) and a
//! keyword summary bitmap over the dense set of partition-naming i-words,
//! so a whole region's relevance to a query is one bitmap intersection and
//! its distance feasibility is one bound comparison.

use indoor_geom::{Point, Rect};
use indoor_keywords::{KeywordDirectory, WordId};
use indoor_space::{FloorId, IndoorPoint, IndoorSpace, PartitionId, UNREACHABLE};
use std::collections::BTreeSet;

/// Target number of member partitions per region. Regions are coarse on
/// purpose: the point is to answer many Rule-3 tests with one bound,
/// not to approximate per-partition geometry.
pub const TARGET_MEMBERS: usize = 32;

/// One spatial region: a set of same-floor partitions with summarising
/// geometry and keywords.
#[derive(Debug, Clone)]
pub struct Region {
    /// Bounding box of every member footprint *and* every member enter/leave
    /// door position (stair doors can sit outside the footprint union).
    bbox: Rect,
    /// Every floor touched by a member partition or one of its doors,
    /// sorted. Stair doors touch two floors, so this can extend beyond the
    /// region's home floor.
    floors: Vec<FloorId>,
    /// Member partitions, sorted.
    members: Vec<PartitionId>,
    /// Bitmap over the dense i-word table of [`RegionIndex`]: bit `i` is set
    /// when `iword_dense[i]` names a member partition.
    iword_bits: Vec<u64>,
}

impl Region {
    /// Reassembles a region from persisted parts; `floors` and `members`
    /// must be sorted (the order [`RegionIndex::build`] produces).
    pub fn from_parts(
        bbox: Rect,
        floors: Vec<FloorId>,
        members: Vec<PartitionId>,
        iword_bits: Vec<u64>,
    ) -> Self {
        debug_assert!(floors.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(members.windows(2).all(|w| w[0] < w[1]));
        Region {
            bbox,
            floors,
            members,
            iword_bits,
        }
    }

    /// The raw keyword summary bitmap (serialisation).
    pub fn iword_bits(&self) -> &[u64] {
        &self.iword_bits
    }

    /// The members of the region, sorted by partition id.
    pub fn members(&self) -> &[PartitionId] {
        &self.members
    }

    /// The region bounding box (footprints ∪ door positions).
    pub fn bbox(&self) -> &Rect {
        &self.bbox
    }

    /// Floors touched by any member partition or door, sorted.
    pub fn floors(&self) -> &[FloorId] {
        &self.floors
    }

    fn has_iword_bit(&self, bit: usize) -> bool {
        self.iword_bits
            .get(bit / 64)
            .is_some_and(|w| w & (1u64 << (bit % 64)) != 0)
    }
}

/// The region layer of the venue index.
#[derive(Debug, Default)]
pub struct RegionIndex {
    regions: Vec<Region>,
    /// Partition index → region id. Total: every partition belongs to
    /// exactly one region.
    region_of: Vec<u32>,
    /// Dense table of partition-naming i-words, sorted; the bit index of a
    /// word in every region bitmap is its position here.
    iword_dense: Vec<WordId>,
}

impl RegionIndex {
    /// Builds the region layer by gridding each floor.
    pub fn build(space: &IndoorSpace, directory: &KeywordDirectory) -> Self {
        let iword_dense: Vec<WordId> = {
            let mut set: BTreeSet<WordId> = BTreeSet::new();
            for p in space.partitions() {
                if let Some(iw) = directory.partition_iword(p.id) {
                    set.insert(iw);
                }
            }
            set.into_iter().collect()
        };
        let bitmap_words = iword_dense.len().div_ceil(64);

        let mut regions: Vec<Region> = Vec::new();
        let mut region_of = vec![0u32; space.num_partitions()];
        for floor in space.floors() {
            let on_floor = space.partitions_on_floor(floor);
            if on_floor.is_empty() {
                continue;
            }
            let bounds = *space
                .floor_bounds(floor)
                .expect("floor listed by the space");
            let cells = on_floor.len().div_ceil(TARGET_MEMBERS);
            let side = (cells as f64).sqrt().ceil().max(1.0) as usize;
            // Bucket partitions into grid cells by footprint centre.
            let mut buckets: Vec<Vec<PartitionId>> = vec![Vec::new(); side * side];
            let cell_w = bounds.width() / side as f64;
            let cell_h = bounds.height() / side as f64;
            let origin = bounds.min;
            for &v in &on_floor {
                let c = space
                    .partition(v)
                    .expect("partition listed by the floor")
                    .center();
                let gx = (((c.x - origin.x) / cell_w) as usize).min(side - 1);
                let gy = (((c.y - origin.y) / cell_h) as usize).min(side - 1);
                buckets[gy * side + gx].push(v);
            }
            for mut members in buckets {
                if members.is_empty() {
                    continue;
                }
                members.sort_unstable();
                let region_id = regions.len() as u32;
                let mut min = Point::new(f64::INFINITY, f64::INFINITY);
                let mut max = Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY);
                let mut floors: BTreeSet<FloorId> = BTreeSet::new();
                let mut iword_bits = vec![0u64; bitmap_words];
                let mut cover = |p: &Point| {
                    min = Point::new(min.x.min(p.x), min.y.min(p.y));
                    max = Point::new(max.x.max(p.x), max.y.max(p.y));
                };
                for &v in &members {
                    region_of[v.index()] = region_id;
                    let part = space.partition(v).expect("member exists");
                    floors.insert(part.floor);
                    for corner in part.footprint.corners() {
                        cover(&corner);
                    }
                    for d in space.p2d_enter(v).iter().chain(space.p2d_leave(v).iter()) {
                        let door = space.door(*d).expect("door exists");
                        cover(&door.position);
                        floors.extend(door.floors());
                    }
                    if let Some(iw) = directory.partition_iword(v) {
                        let bit = iword_dense
                            .binary_search(&iw)
                            .expect("naming i-word is in the dense table");
                        iword_bits[bit / 64] |= 1u64 << (bit % 64);
                    }
                }
                // Footprints have positive area, so min < max holds.
                let bbox = Rect::new(min, max).expect("non-degenerate region box");
                regions.push(Region {
                    bbox,
                    floors: floors.into_iter().collect(),
                    members,
                    iword_bits,
                });
            }
        }

        RegionIndex {
            regions,
            region_of,
            iword_dense,
        }
    }

    /// Reassembles the layer from persisted parts, as decoded from a
    /// persisted index section.
    pub fn from_parts(regions: Vec<Region>, region_of: Vec<u32>, iword_dense: Vec<WordId>) -> Self {
        debug_assert!(iword_dense.windows(2).all(|w| w[0] < w[1]));
        RegionIndex {
            regions,
            region_of,
            iword_dense,
        }
    }

    /// The raw partition → region table (serialisation).
    pub fn region_of_table(&self) -> &[u32] {
        &self.region_of
    }

    /// The dense sorted table of partition-naming i-words (serialisation).
    pub fn iword_dense(&self) -> &[WordId] {
        &self.iword_dense
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Whether the layer is empty (venue with no partitions).
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// The regions.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// The region a partition belongs to.
    pub fn region_of(&self, v: PartitionId) -> Option<u32> {
        self.region_of.get(v.index()).copied()
    }

    /// Lower bound on the detour `|ps, v| + |v, pt|` of *any* member
    /// partition `v` of the region — the one test that can prune the whole
    /// region under Rule 3. Dominated by every member's
    /// `partition_detour_lower_bound` (crate-level invariant).
    pub fn detour_lower_bound(
        &self,
        space: &IndoorSpace,
        region: u32,
        start: &IndoorPoint,
        terminal: &IndoorPoint,
    ) -> f64 {
        let Some(r) = self.regions.get(region as usize) else {
            return UNREACHABLE;
        };
        self.point_bound(space, r, start) + self.point_bound(space, r, terminal)
    }

    /// Skeleton-style lower bound from a point to anywhere in the region:
    /// the planar distance to the region box when the point's floor is in
    /// the region floor set, else (and also, as a minimum, when stair
    /// routes are shorter is impossible — same-floor Euclid dominates) the
    /// cheapest stair-door bridge `|p, sd_a| + s2s(sd_a, sd_b) + |sd_b, box|`.
    fn point_bound(&self, space: &IndoorSpace, r: &Region, p: &IndoorPoint) -> f64 {
        let mut best = UNREACHABLE;
        if r.floors.contains(&p.floor) {
            best = r.bbox.distance_to_point(&p.position);
        }
        if best == 0.0 {
            return best;
        }
        let skeleton = space.skeleton();
        for &sda in skeleton.stair_doors(p.floor) {
            let head = match space.door(sda) {
                Ok(d) => p.position.distance(&d.position),
                Err(_) => continue,
            };
            if head >= best {
                continue;
            }
            for &floor in &r.floors {
                for &sdb in skeleton.stair_doors(floor) {
                    let mid = skeleton.s2s_distance(sda, sdb);
                    if !mid.is_finite() || head + mid >= best {
                        continue;
                    }
                    let tail = match space.door(sdb) {
                        Ok(d) => r.bbox.distance_to_point(&d.position),
                        Err(_) => continue,
                    };
                    if head + mid + tail < best {
                        best = head + mid + tail;
                    }
                }
            }
        }
        best
    }

    /// Whether a region contains a partition named by the given i-word
    /// (one bitmap probe).
    pub fn region_has_iword(&self, region: u32, iword: WordId) -> bool {
        let Some(r) = self.regions.get(region as usize) else {
            return false;
        };
        match self.iword_dense.binary_search(&iword) {
            Ok(bit) => r.has_iword_bit(bit),
            Err(_) => false,
        }
    }

    /// Estimated heap size in bytes.
    pub fn estimated_bytes(&self) -> usize {
        self.regions
            .iter()
            .map(|r| {
                std::mem::size_of::<Region>()
                    + r.floors.len() * std::mem::size_of::<FloorId>()
                    + r.members.len() * std::mem::size_of::<PartitionId>()
                    + r.iword_bits.len() * 8
            })
            .sum::<usize>()
            + self.region_of.len() * 4
            + self.iword_dense.len() * std::mem::size_of::<WordId>()
    }
}
