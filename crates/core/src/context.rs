//! The per-query search context: the query prepared against a concrete
//! venue, with every derived quantity the search algorithms need.

use crate::error::EngineError;
use crate::query::IkrqQuery;
use crate::score::RankingModel;
use crate::Result;
use indoor_index::VenueIndex;
use indoor_keywords::{KeywordDirectory, PreparedQuery, WordId};
use indoor_space::{DoorId, IndoorSpace, PartitionId, Route};

/// A query prepared for execution against a venue: host partitions resolved,
/// keyword candidates expanded, key partitions collected once as a sorted
/// list, ranking model instantiated.
///
/// KoE derives its routing set `P` from that list once per search, when it
/// expands the initial stamp (see [`crate::koe`]); ToE only asks whether a
/// partition is a key partition.
#[derive(Debug)]
pub struct SearchContext<'a> {
    /// The venue's space model.
    pub space: &'a IndoorSpace,
    /// The venue's keyword directory.
    pub directory: &'a KeywordDirectory,
    /// The query being executed.
    pub query: &'a IkrqQuery,
    /// The prepared query (candidate i-word sets, `Wci`).
    pub prepared: PreparedQuery,
    /// The ranking model `ψ` with the query's `α`, `∆` and `|QW|`.
    pub ranking: RankingModel,
    /// Host partition of the start point, `v(ps)`.
    pub start_partition: PartitionId,
    /// Host partition of the terminal point, `v(pt)`.
    pub terminal_partition: PartitionId,
    /// The venue index, when the engine runs accelerated. KoE tests Rule 3
    /// by region first with it; `None` runs the per-partition bounds only.
    pub index: Option<&'a VenueIndex>,
    /// The key partitions of the query, sorted and duplicate-free: the
    /// partitions whose i-word is a candidate of some query keyword
    /// ([`PreparedQuery::key_partitions`], before the start/terminal
    /// adjustment of Algorithm 1 line 3).
    pub(crate) key_partitions: Vec<PartitionId>,
}

impl<'a> SearchContext<'a> {
    /// Prepares a query for execution. Validates the query parameters,
    /// resolves the host partitions of both points, expands the keyword
    /// candidates and checks that the distance constraint is not trivially
    /// unsatisfiable (the skeleton lower bound from `ps` to `pt` already
    /// exceeds `∆`).
    pub fn prepare(
        space: &'a IndoorSpace,
        directory: &'a KeywordDirectory,
        query: &'a IkrqQuery,
    ) -> Result<Self> {
        Self::prepare_with_index(space, directory, None, query)
    }

    /// [`SearchContext::prepare`] with an optional venue index. With an
    /// index, keyword candidate expansion walks the keyword associations
    /// (`VenueIndex::prepare_query`) instead of the vocabulary scan; the
    /// produced context is otherwise identical — the two paths are
    /// cross-checked for byte-identical search results by the mirrored
    /// proptest in `tests/index_mirror.rs`.
    pub fn prepare_with_index(
        space: &'a IndoorSpace,
        directory: &'a KeywordDirectory,
        index: Option<&'a VenueIndex>,
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
        let prepared = match index {
            Some(index) => index.prepare_query(&query.keywords, directory, query.tau)?,
            None => PreparedQuery::prepare(&query.keywords, directory, query.tau)?,
        };
        let key_partitions = prepared.key_partitions(directory);
        let ranking = RankingModel::new(query.alpha, query.delta, query.num_keywords());
        Ok(SearchContext {
            space,
            directory,
            query,
            prepared,
            ranking,
            start_partition,
            terminal_partition,
            index,
            key_partitions,
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
        self.key_partitions.binary_search(&v).is_ok()
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

    /// The i-words contributed to `RW(R)` by appending door `d` (Definition
    /// 5: the i-words of all partitions leavable through the door).
    pub fn iwords_behind_door(&self, d: DoorId) -> Vec<WordId> {
        self.space
            .d2p_leave(d)
            .iter()
            .filter_map(|&v| self.directory.partition_iword(v))
            .collect()
    }

    /// The i-word of a partition, if it has one.
    pub fn iword_of_partition(&self, v: PartitionId) -> Option<WordId> {
        self.directory.partition_iword(v)
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
        assert_eq!(ctx.key_partitions, [PartitionId(1)]);
        assert!(
            ctx.is_key_partition(PartitionId(0)),
            "start partition is a key partition for KP()"
        );
        assert!(ctx.is_key_partition(PartitionId(1)));
        assert!(ctx.is_key_partition(PartitionId(2)));
        assert!(ctx.partition_covers_candidate(PartitionId(1)));
        assert!(!ctx.partition_covers_candidate(PartitionId(2)));
        assert_eq!(ctx.delta(), 100.0);
        // Door d0 leads into zara and costa: both i-words contribute.
        assert_eq!(ctx.iwords_behind_door(DoorId(0)).len(), 2);
        assert!(ctx.iword_of_partition(PartitionId(1)).is_some());
        // Same-floor skeleton bounds are planar Euclidean distances.
        assert!((ctx.start_to_door_lb(DoorId(0)) - 8.0).abs() < 1e-9);
        assert!((ctx.door_to_terminal_lb(DoorId(1)) - 8.0).abs() < 1e-9);
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
