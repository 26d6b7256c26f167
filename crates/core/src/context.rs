//! The per-query search context: the query prepared against a concrete
//! venue, with every derived quantity the search algorithms need.
//!
//! Preparation does no venue-wide work. A search scores each partition it
//! meets once, on first use (`KeyPartitionRows`), and reads key-partition
//! membership and keyword similarities from those rows; the partition's
//! slot in the search's per-thread scratch ([`crate::scratch`]) holds the
//! row's offset.

use crate::error::EngineError;
use crate::query::IkrqQuery;
use crate::score::RankingModel;
use crate::scratch::SearchScratch;
use crate::Result;
use indoor_index::VenueIndex;
use indoor_keywords::{CandidateSet, CoverageTracker, KeywordDirectory, PreparedQuery};
use indoor_space::{
    DoorId, IndoorPoint, IndoorSpace, PartitionId, Route, ELLIPSE_SLACK, UNREACHABLE,
};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::OnceLock;

/// A query prepared for execution against a venue: host partitions resolved,
/// keywords classified, ranking model instantiated.
///
/// The methods that decide key partitions here ([`Self::is_key_partition`],
/// [`Self::key_partition_sequence`]) are the specification: they expand
/// every keyword's candidate set by the vocabulary scan on first use. A
/// search reads its key-partition rows instead, each of which debug builds
/// check against them.
#[derive(Debug)]
pub struct SearchContext<'a> {
    /// The venue's space model.
    pub space: &'a IndoorSpace,
    /// The venue's keyword directory.
    pub directory: &'a KeywordDirectory,
    /// The query being executed.
    pub query: &'a IkrqQuery,
    /// The prepared query keywords, which score i-words on demand.
    pub prepared: PreparedQuery,
    /// The ranking model `ψ` with the query's `α`, `∆` and `|QW|`.
    pub ranking: RankingModel,
    /// Host partition of the start point, `v(ps)`.
    pub start_partition: PartitionId,
    /// Host partition of the terminal point, `v(pt)`.
    pub terminal_partition: PartitionId,
    /// The candidate sets `κ(wQ)` by the vocabulary scan, one per query
    /// keyword, built on first use by the specification methods.
    spec: OnceLock<Vec<CandidateSet>>,
}

/// The key-partition rows of one search: every partition the search meets,
/// scored on first use with its similarity for every query keyword. A
/// search asks only about partitions beside the doors it reaches, so it
/// scores those and never the venue (KoE\D's routing set excepted). Each
/// met partition's row offset is a partition slot of the search's scratch
/// ([`SearchScratch`]).
#[derive(Debug, Default)]
pub(crate) struct KeyPartitionRows {
    /// The similarity rows of the covering partitions, in the order met.
    similarities: Vec<f64>,
    /// Partitions met so far.
    met: usize,
}

/// Hashes a key of two ids packed into a `u64`, `(a << 32) | b`, so that
/// both halves reach the bucket bits: the key's 128-bit product with an odd
/// constant, folded to 64 bits. The prime table's `(tail, class)` keys and
/// the class table's `(class, partition)` steps take it.
///
/// A plain multiply would not do: the low bits of the product, which pick
/// a key's bucket, depend on the key's low bits alone, so every `a` of one
/// `b` would land in one bucket chain. The keys are the search's own ids,
/// never words of a request, so the default hasher's guard against crafted
/// collisions buys nothing here, and its cost shows in `toe-mega`'s and
/// `koe-mega`'s throughput.
#[derive(Debug, Default)]
pub(crate) struct PackedKeyHasher(u64);

impl Hasher for PackedKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b) ^ self.0.rotate_left(8));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let product = u128::from(n ^ self.0).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map from packed `u64` keys hashed by [`PackedKeyHasher`].
pub(crate) type PackedMap<V> = HashMap<u64, V, BuildHasherDefault<PackedKeyHasher>>;

impl KeyPartitionRows {
    /// The offset of partition `v`'s similarity row, scoring it on first
    /// use; `None` when `v` covers no query keyword.
    #[inline]
    pub(crate) fn row(
        &mut self,
        scratch: &mut SearchScratch,
        ctx: &SearchContext<'_>,
        v: PartitionId,
    ) -> Option<usize> {
        if let Some(row) = scratch.partition_row(v) {
            return row;
        }
        let offset = self.similarities.len();
        ctx.push_partition_similarities(v, &mut self.similarities);
        let row = if self.similarities[offset..].iter().any(|&s| s > 0.0) {
            Some(offset)
        } else {
            self.similarities.truncate(offset);
            None
        };
        scratch.set_partition_row(v, row);
        self.met += 1;
        row
    }

    /// The similarity of the row at `offset` for the `idx`-th keyword.
    pub(crate) fn similarity(&self, offset: usize, idx: usize) -> f64 {
        self.similarities[offset + idx]
    }

    /// Credits partition `v`'s i-word to a route's keyword coverage.
    pub(crate) fn credit(
        &mut self,
        scratch: &mut SearchScratch,
        ctx: &SearchContext<'_>,
        v: PartitionId,
        coverage: &mut CoverageTracker,
    ) {
        if let Some(offset) = self.row(scratch, ctx, v) {
            coverage.add_similarities(&self.similarities[offset..offset + ctx.prepared.len()]);
        }
    }

    /// Bytes of the rows, for memory accounting: a partition id and an
    /// optional offset per partition met, as a map from partition to row
    /// would hold them, and the similarities.
    pub(crate) fn estimated_bytes(&self) -> usize {
        self.met * std::mem::size_of::<(PartitionId, Option<usize>)>()
            + self.similarities.capacity() * std::mem::size_of::<f64>()
    }
}

impl<'a> SearchContext<'a> {
    /// Prepares a query for execution. Validates the query parameters,
    /// resolves the host partitions of both points, classifies the keywords
    /// and checks that the distance constraint is not trivially
    /// unsatisfiable (the skeleton lower bound from `ps` to `pt` already
    /// exceeds `∆`).
    pub fn prepare(
        space: &'a IndoorSpace,
        directory: &'a KeywordDirectory,
        query: &'a IkrqQuery,
    ) -> Result<Self> {
        query.validate()?;
        let start_partition = space
            .host_partition(&query.start)
            .map_err(|_| EngineError::PointOutsideVenue("start"))?;
        let terminal_partition = space
            .host_partition(&query.terminal)
            .map_err(|_| EngineError::PointOutsideVenue("terminal"))?;
        let lower_bound = space.skeleton_distance(&query.start, &query.terminal);
        if lower_bound > query.delta {
            return Err(EngineError::UnsatisfiableConstraint {
                delta: query.delta,
                lower_bound,
            });
        }
        let prepared = PreparedQuery::prepare(&query.keywords, directory, query.tau)?;
        let ranking = RankingModel::new(query.alpha, query.delta, query.num_keywords());
        Ok(SearchContext {
            space,
            directory,
            query,
            prepared,
            ranking,
            start_partition,
            terminal_partition,
            spec: OnceLock::new(),
        })
    }

    /// [`SearchContext::prepare`], ignoring the venue index: no search reads
    /// it. The parameter only keeps existing four-argument callers
    /// compiling, as the third parameter of
    /// [`Search::new`](crate::framework::Search::new) does.
    pub fn prepare_with_index(
        space: &'a IndoorSpace,
        directory: &'a KeywordDirectory,
        _index: Option<&'a VenueIndex>,
        query: &'a IkrqQuery,
    ) -> Result<Self> {
        Self::prepare(space, directory, query)
    }

    /// Appends partition `v`'s similarity for every query keyword, in
    /// query order, to `out` (0 where its i-word is no candidate of that
    /// keyword, and for a partition without an i-word). Debug builds check
    /// the row against the vocabulary scan, bit for bit.
    fn push_partition_similarities(&self, v: PartitionId, out: &mut Vec<f64>) {
        let offset = out.len();
        match self.directory.partition_iword(v) {
            Some(iw) => self.prepared.push_similarities(self.directory, iw, out),
            None => out.resize(offset + self.prepared.len(), 0.0),
        }
        debug_assert!(
            {
                let iword = self.directory.partition_iword(v);
                self.spec_candidates()
                    .iter()
                    .map(|set| iword.and_then(|iw| set.similarity(iw)).unwrap_or(0.0))
                    .map(f64::to_bits)
                    .eq(out[offset..].iter().map(|s| s.to_bits()))
            },
            "the similarity row of {v:?} must equal the vocabulary scan's"
        );
    }

    /// Rule 2's door test, `|ps, d|_L + |d, pt|_L` within `∆`, give or
    /// take the relative slack the shortest-path runs cut the ellipse with.
    pub(crate) fn door_in_ellipse(&self, d: DoorId) -> bool {
        self.start_to_door_lb(d) + self.door_to_terminal_lb(d)
            <= self.delta() * (1.0 + ELLIPSE_SLACK)
    }

    /// The vocabulary scan's candidate sets, one per query keyword.
    fn spec_candidates(&self) -> &[CandidateSet] {
        self.spec.get_or_init(|| {
            let (vocab, mappings) = (self.directory.vocab(), self.directory.mappings());
            let tau = self.prepared.tau();
            self.prepared
                .words()
                .iter()
                .map(|w| {
                    w.id.and_then(|id| CandidateSet::build(id, vocab, mappings, tau).ok())
                        .unwrap_or_default()
                })
                .collect()
        })
    }

    /// Whether a partition is a *key partition* in the sense of §II-B: it
    /// hosts the start point, the terminal point, or covers a subset of the
    /// query keywords. This predicate defines the key-partition sequences
    /// `KP(·)` used for homogeneity.
    pub fn is_key_partition(&self, v: PartitionId) -> bool {
        v == self.start_partition
            || v == self.terminal_partition
            || self.partition_covers_candidate(v)
    }

    /// Whether a partition's i-word is a candidate match of some query
    /// keyword (`PW(v).wi ∈ Wci`, the Lemma 2 condition in Algorithm 2).
    pub fn partition_covers_candidate(&self, v: PartitionId) -> bool {
        self.directory
            .partition_iword(v)
            .is_some_and(|iw| self.spec_candidates().iter().any(|set| set.contains(iw)))
    }

    /// The key-partition sequence `KP(R)` of a route under this query.
    ///
    /// Key partitions are collected from the route *items* through the same
    /// `v*(·)` operator that defines the route words `RW(R)` (Definition 5):
    /// a point contributes its host partition, a door contributes every
    /// partition leavable through it. This keeps homogeneity (Definition 2)
    /// consistent with keyword coverage — two routes that cover different
    /// keyword partitions are never considered homogeneous — and matches the
    /// `KP` sequences of the paper's Table II. Each key partition is kept
    /// once, at its last occurrence.
    ///
    /// This walk is the specification: the search carries `KP(R)` on each
    /// stamp instead, built from the parent stamp's, and debug builds assert
    /// the two agree; [`crate::ExhaustiveBaseline`] calls it directly.
    pub fn key_partition_sequence(&self, route: &Route) -> Vec<PartitionId> {
        let mut seq: Vec<PartitionId> = Vec::new();
        let push_key = |v: PartitionId, seq: &mut Vec<PartitionId>| {
            if self.is_key_partition(v) {
                seq.push(v);
            }
        };
        let push_item = |item: &indoor_space::RouteItem, seq: &mut Vec<PartitionId>| match item {
            indoor_space::RouteItem::Point(p) => {
                if let Ok(v) = self.space.host_partition(p) {
                    push_key(v, seq);
                }
            }
            indoor_space::RouteItem::Door(d) => {
                for &v in self.space.d2p_leave(*d) {
                    push_key(v, seq);
                }
            }
        };
        push_item(route.start(), &mut seq);
        for &d in route.doors() {
            push_item(&indoor_space::RouteItem::Door(d), &mut seq);
        }
        if let Some(t) = route.terminal() {
            push_item(t, &mut seq);
        }
        // Deduplicate, keeping the last occurrence of each key partition.
        let mut out = Vec::with_capacity(seq.len());
        for (i, v) in seq.iter().enumerate() {
            if !seq[i + 1..].contains(v) {
                out.push(*v);
            }
        }
        out
    }

    /// `δpt2d(ps, d)`: the walk from the start point to door `d`, finite
    /// iff `d` leaves `v(ps)`. [`IndoorSpace::pt2d_distance`] is the
    /// specification; it locates `ps` again on every call, and debug builds
    /// hold the two to each other bit for bit.
    pub fn start_to_door(&self, d: DoorId) -> f64 {
        let start = &self.query.start;
        let leg = self.point_leg(start, self.space.p2d_leave(self.start_partition), d);
        debug_assert_eq!(leg.to_bits(), self.space.pt2d_distance(start, d).to_bits());
        leg
    }

    /// `δd2pt(d, pt)`: the walk from door `d` to the terminal point, finite
    /// iff `d` enters `v(pt)`. [`IndoorSpace::d2pt_distance`] is the
    /// specification, held to it as [`SearchContext::start_to_door`] is.
    pub fn door_to_terminal(&self, d: DoorId) -> f64 {
        let terminal = &self.query.terminal;
        let leg = self.point_leg(terminal, self.space.p2d_enter(self.terminal_partition), d);
        debug_assert_eq!(
            leg.to_bits(),
            self.space.d2pt_distance(d, terminal).to_bits()
        );
        leg
    }

    /// The straight line between `p` and door `d` when `d` is one of
    /// `doors`, the doors of `p`'s host partition in the leg's direction;
    /// unreachable otherwise.
    fn point_leg(&self, p: &IndoorPoint, doors: &[DoorId], d: DoorId) -> f64 {
        if !doors.contains(&d) {
            return UNREACHABLE;
        }
        self.space.doors()[d.index()].position.distance(&p.position)
    }

    /// Skeleton lower bound from the start point to a door, `|ps, d|_L`.
    pub fn start_to_door_lb(&self, d: DoorId) -> f64 {
        self.space.skeleton_point_to_door(&self.query.start, d)
    }

    /// Skeleton lower bound from a door to the terminal point, `|d, pt|_L`.
    pub fn door_to_terminal_lb(&self, d: DoorId) -> f64 {
        self.space.skeleton_point_to_door(&self.query.terminal, d)
    }

    /// The distance constraint `∆`.
    pub fn delta(&self) -> f64 {
        self.query.delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::PooledScratch;
    use indoor_geom::{Point, Rect};
    use indoor_keywords::QueryKeywords;
    use indoor_space::{DoorKind, FloorId, IndoorPoint, IndoorSpaceBuilder, PartitionKind};

    /// Three rooms in a row with i-words zara / costa / apple; costa has
    /// t-word coffee.
    fn venue() -> (IndoorSpace, KeywordDirectory) {
        let mut b = IndoorSpaceBuilder::new();
        let f = FloorId(0);
        let rooms: Vec<_> = (0..3)
            .map(|i| {
                b.add_partition(
                    f,
                    PartitionKind::Room,
                    Rect::from_origin_size(Point::new(i as f64 * 10.0, 0.0), 10.0, 10.0).unwrap(),
                    None,
                )
            })
            .collect();
        for i in 0..2 {
            let d = b.add_door(Point::new((i + 1) as f64 * 10.0, 5.0), f, DoorKind::Normal);
            b.connect_bidirectional(d, rooms[i], rooms[i + 1]);
        }
        let space = b.build().unwrap();
        let mut dir = KeywordDirectory::new();
        for (i, name) in ["zara", "costa", "apple"].iter().enumerate() {
            let iw = dir.add_iword(name).unwrap();
            dir.name_partition(rooms[i], iw).unwrap();
            if *name == "costa" {
                dir.add_tword_for(iw, "coffee");
            }
        }
        (space, dir)
    }

    fn query(delta: f64, words: &[&str]) -> IkrqQuery {
        IkrqQuery::new(
            IndoorPoint::from_xy(2.0, 5.0, FloorId(0)),
            IndoorPoint::from_xy(28.0, 5.0, FloorId(0)),
            delta,
            QueryKeywords::new(words.iter().copied()).unwrap(),
            2,
        )
    }

    #[test]
    fn preparation_resolves_partitions_and_keywords() {
        let (space, dir) = venue();
        let q = query(100.0, &["coffee"]);
        let ctx = SearchContext::prepare(&space, &dir, &q).unwrap();
        assert_eq!(ctx.start_partition, PartitionId(0));
        assert_eq!(ctx.terminal_partition, PartitionId(2));
        // costa (v1) covers "coffee"; the start and terminal partitions are
        // key partitions without covering a keyword.
        let mut rows = KeyPartitionRows::default();
        let mut scratch = PooledScratch::take(space.num_doors(), space.num_partitions());
        let s = &mut scratch;
        assert!(rows.row(s, &ctx, PartitionId(1)).is_some());
        assert!(rows.row(s, &ctx, PartitionId(0)).is_none());
        assert!(rows.row(s, &ctx, PartitionId(2)).is_none());
        let costa = rows.row(s, &ctx, PartitionId(1)).unwrap();
        assert_eq!(rows.similarity(costa, 0), 1.0);
        assert!(
            ctx.is_key_partition(PartitionId(0)),
            "start partition is a key partition for KP()"
        );
        assert!(ctx.is_key_partition(PartitionId(1)));
        assert!(ctx.is_key_partition(PartitionId(2)));
        assert!(ctx.partition_covers_candidate(PartitionId(1)));
        assert!(!ctx.partition_covers_candidate(PartitionId(2)));
        assert_eq!(ctx.delta(), 100.0);
        assert!(ctx.directory.partition_iword(PartitionId(1)).is_some());
        // Same-floor skeleton bounds are planar Euclidean distances.
        assert!((ctx.start_to_door_lb(DoorId(0)) - 8.0).abs() < 1e-9);
        assert!((ctx.door_to_terminal_lb(DoorId(1)) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn key_partition_rows_score_each_partition_once() {
        let (space, dir) = venue();
        let q = query(100.0, &["apple", "coffee"]);
        let ctx = SearchContext::prepare(&space, &dir, &q).unwrap();
        let mut rows = KeyPartitionRows::default();
        let mut scratch = PooledScratch::take(space.num_doors(), space.num_partitions());
        let s = &mut scratch;
        let apple = rows.row(s, &ctx, PartitionId(2)).unwrap();
        assert_eq!(
            [rows.similarity(apple, 0), rows.similarity(apple, 1)],
            [1.0, 0.0]
        );
        assert_eq!(rows.row(s, &ctx, PartitionId(0)), None);
        let bytes = rows.estimated_bytes();
        // A partition met again is not scored again.
        assert_eq!(rows.row(s, &ctx, PartitionId(2)), Some(apple));
        assert_eq!(rows.row(s, &ctx, PartitionId(0)), None);
        assert_eq!(rows.estimated_bytes(), bytes);
        let mut coverage = CoverageTracker::new(2);
        for v in (0..3).map(PartitionId) {
            rows.credit(s, &ctx, v, &mut coverage);
        }
        assert_eq!(coverage.best_similarities(), [1.0, 1.0]);
    }

    #[test]
    fn unsatisfiable_constraint_is_rejected() {
        let (space, dir) = venue();
        let q = query(10.0, &["coffee"]); // straight-line distance is 26
        assert!(matches!(
            SearchContext::prepare(&space, &dir, &q),
            Err(EngineError::UnsatisfiableConstraint { .. })
        ));
    }

    #[test]
    fn points_outside_the_venue_are_rejected() {
        let (space, dir) = venue();
        let mut q = query(100.0, &["coffee"]);
        q.start = IndoorPoint::from_xy(-50.0, 5.0, FloorId(0));
        assert!(matches!(
            SearchContext::prepare(&space, &dir, &q),
            Err(EngineError::PointOutsideVenue("start"))
        ));
        let mut q = query(100.0, &["coffee"]);
        q.terminal = IndoorPoint::from_xy(500.0, 5.0, FloorId(0));
        assert!(matches!(
            SearchContext::prepare(&space, &dir, &q),
            Err(EngineError::PointOutsideVenue("terminal"))
        ));
    }

    #[test]
    fn key_partition_sequence_uses_query_context() {
        let (space, dir) = venue();
        let q = query(100.0, &["coffee"]);
        let ctx = SearchContext::prepare(&space, &dir, &q).unwrap();
        let mut route = Route::from_point(q.start);
        route.append_door(DoorId(0), PartitionId(0)).unwrap();
        route.append_door(DoorId(1), PartitionId(1)).unwrap();
        route
            .complete_with_point(q.terminal, PartitionId(2))
            .unwrap();
        assert_eq!(
            ctx.key_partition_sequence(&route),
            vec![PartitionId(0), PartitionId(1), PartitionId(2)]
        );
    }
}
