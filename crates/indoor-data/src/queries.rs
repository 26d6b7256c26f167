//! IKRQ query-instance generation, following the four-step procedure of
//! §V-A1:
//!
//! 1. fix the target start-to-terminal distance `δs2t` and pick a random
//!    start point `ps`;
//! 2. using door-to-door shortest distances, find a door `d'` whose
//!    distance from `ps` approximates `δs2t`;
//! 3. expand from `d'` to a random terminal point `pt` whose indoor distance
//!    from `ps` best meets `δs2t`;
//! 4. set `∆ = η · δs2t` and draw the query keyword list `QW` with an i-word
//!    fraction `β` from the venue vocabulary.
//!
//! The crate does not depend on the engine crate, so the generated
//! [`QueryInstance`] carries plain fields; the benchmark harness converts it
//! into an `ikrq_core::IkrqQuery`.

use crate::params::ExperimentDefaults;
use crate::venue::Venue;
use indoor_keywords::WordId;
use indoor_space::{DijkstraResult, DoorId, IndoorPoint, PartitionId, PartitionKind, UNREACHABLE};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Workload parameters of one query setting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Number of query keywords `|QW|`.
    pub qw_len: usize,
    /// Fraction of i-words in `QW` (`β`).
    pub beta: f64,
    /// Target start-to-terminal distance `δs2t` in metres.
    pub s2t: f64,
    /// Distance constraint coefficient `η`.
    pub eta: f64,
    /// Number of routes to return, `k`.
    pub k: usize,
    /// Ranking trade-off `α`.
    pub alpha: f64,
    /// Candidate similarity threshold `τ`.
    pub tau: f64,
}

impl From<ExperimentDefaults> for WorkloadConfig {
    fn from(d: ExperimentDefaults) -> Self {
        WorkloadConfig {
            qw_len: d.qw_len,
            beta: d.beta,
            s2t: d.s2t,
            eta: d.eta,
            k: d.k,
            alpha: d.alpha,
            tau: d.tau,
        }
    }
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        ExperimentDefaults::default().into()
    }
}

/// One generated query instance, engine-agnostic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryInstance {
    /// Start point `ps`.
    pub start: IndoorPoint,
    /// Terminal point `pt`.
    pub terminal: IndoorPoint,
    /// Distance constraint `∆ = η · δs2t`.
    pub delta: f64,
    /// Query keyword strings `QW` (i-words and t-words mixed; the engine
    /// classifies them automatically).
    pub keywords: Vec<String>,
    /// `k`.
    pub k: usize,
    /// Ranking trade-off `α`.
    pub alpha: f64,
    /// Candidate similarity threshold `τ`.
    pub tau: f64,
    /// The realised indoor distance between `ps` and `pt`.
    pub actual_s2t: f64,
}

/// Query generator bound to a venue. The paper's procedure uses a
/// "precomputed door-to-door matrix", but every distance one attempt needs
/// starts at `ps` and leaves `v(ps)` through one of its doors. So an attempt
/// runs one full Dijkstra per leavable door of the sampled start partition
/// and reads every distance from those rows. This keeps generation memory
/// and time linear in the venue size instead of the quadratic all-pairs
/// matrix, which is what makes workload generation feasible on the
/// 10⁴–10⁵-partition mega venues of [`crate::mega`].
#[derive(Debug)]
pub struct QueryGenerator<'a> {
    venue: &'a Venue,
    candidate_partitions: Vec<PartitionId>,
    iword_pool: Vec<WordId>,
    tword_pool: Vec<WordId>,
}

impl<'a> QueryGenerator<'a> {
    /// Creates a generator. Cheap: distances are computed per attempt.
    pub fn new(venue: &'a Venue) -> Self {
        let candidate_partitions = venue
            .space
            .partitions()
            .iter()
            .filter(|p| !matches!(p.kind, PartitionKind::Staircase | PartitionKind::Elevator))
            .map(|p| p.id)
            .collect();
        let iword_pool = venue.directory.vocab().iwords().collect();
        let tword_pool = venue.directory.vocab().twords().collect();
        QueryGenerator {
            venue,
            candidate_partitions,
            iword_pool,
            tword_pool,
        }
    }

    /// Generates one query instance; returns `None` when no valid instance
    /// could be produced after a bounded number of attempts (e.g. the venue
    /// is too small for the requested `δs2t`).
    pub fn generate<R: Rng>(&self, config: &WorkloadConfig, rng: &mut R) -> Option<QueryInstance> {
        for _ in 0..64 {
            if let Some(instance) = self.try_generate(config, rng) {
                return Some(instance);
            }
        }
        None
    }

    /// Generates a batch of query instances (the paper uses ten per setting).
    pub fn generate_batch<R: Rng>(
        &self,
        config: &WorkloadConfig,
        count: usize,
        rng: &mut R,
    ) -> Vec<QueryInstance> {
        (0..count)
            .filter_map(|_| self.generate(config, rng))
            .collect()
    }

    fn try_generate<R: Rng>(&self, config: &WorkloadConfig, rng: &mut R) -> Option<QueryInstance> {
        let space = &self.venue.space;
        // Step 1: random start point.
        let &start_partition = self.candidate_partitions.choose(rng)?;
        let start = self.random_point_in(start_partition, rng);

        // Distance from ps to every door, via the leavable doors of v(ps).
        let rows = self.start_rows(&start, start_partition);
        let dist_to_door = |door: DoorId| -> f64 {
            rows.iter()
                .map(|(dx, head, row)| head + if *dx == door { 0.0 } else { row.distance(door) })
                .fold(UNREACHABLE, f64::min)
        };

        // Step 2: the door whose distance to ps best approximates δs2t.
        let num_doors = space.num_doors();
        let mut best_door = None;
        let mut best_gap = f64::INFINITY;
        for idx in 0..num_doors {
            let door = DoorId(idx as u32);
            let d = dist_to_door(door);
            if !d.is_finite() {
                continue;
            }
            let gap = (d - config.s2t).abs();
            if gap < best_gap {
                best_gap = gap;
                best_door = Some((door, d));
            }
        }
        let (anchor_door, _) = best_door?;

        // Step 3: expand from d' to a terminal point whose realised distance
        // best meets δs2t: sample candidate points in the partitions
        // enterable through d' and keep the best.
        let mut best_terminal: Option<(IndoorPoint, f64)> = None;
        for &vp in space.d2p_enter(anchor_door) {
            if space
                .partition(vp)
                .map(|p| p.kind == PartitionKind::Staircase)
                .unwrap_or(true)
            {
                continue;
            }
            for _ in 0..4 {
                let candidate = self.random_point_in(vp, rng);
                let actual = self.point_to_point(&start, start_partition, &rows, &candidate);
                if !actual.is_finite() || actual <= 0.0 {
                    continue;
                }
                let gap = (actual - config.s2t).abs();
                if best_terminal
                    .as_ref()
                    .map(|(_, best)| gap < (best - config.s2t).abs())
                    .unwrap_or(true)
                {
                    best_terminal = Some((candidate, actual));
                }
            }
        }
        let (terminal, actual_s2t) = best_terminal?;
        // Reject degenerate instances that missed the target badly (e.g. the
        // venue is smaller than the requested δs2t).
        if actual_s2t < 0.25 * config.s2t {
            return None;
        }

        // Step 4: distance constraint and keywords.
        let delta = config.eta * actual_s2t;
        let keywords = self.sample_keywords(config, rng)?;
        Some(QueryInstance {
            start,
            terminal,
            delta,
            keywords,
            k: config.k,
            alpha: config.alpha,
            tau: config.tau,
            actual_s2t,
        })
    }

    fn sample_keywords<R: Rng>(&self, config: &WorkloadConfig, rng: &mut R) -> Option<Vec<String>> {
        if config.qw_len == 0 {
            return None;
        }
        let num_iwords = ((config.beta * config.qw_len as f64).round() as usize).min(config.qw_len);
        let num_twords = config.qw_len - num_iwords;
        let mut words = Vec::with_capacity(config.qw_len);
        for _ in 0..num_iwords {
            let &w = self.iword_pool.choose(rng)?;
            words.push(self.venue.directory.resolve(w)?.to_string());
        }
        for _ in 0..num_twords {
            // Fall back to i-words when the venue has no t-words at all.
            let w = if self.tword_pool.is_empty() {
                *self.iword_pool.choose(rng)?
            } else {
                *self.tword_pool.choose(rng)?
            };
            words.push(self.venue.directory.resolve(w)?.to_string());
        }
        words.shuffle(rng);
        Some(words)
    }

    fn random_point_in<R: Rng>(&self, partition: PartitionId, rng: &mut R) -> IndoorPoint {
        self.venue.point_in_partition(
            partition,
            (rng.gen_range(0.1..0.9), rng.gen_range(0.1..0.9)),
        )
    }

    /// One full Dijkstra row per leavable door `dx` of `v(ps)` that `ps`
    /// reaches, with the point-to-door leg: `(dx, δpt2d(ps, dx), row)`.
    fn start_rows(
        &self,
        start: &IndoorPoint,
        start_partition: PartitionId,
    ) -> Vec<(DoorId, f64, DijkstraResult)> {
        let space = &self.venue.space;
        let paths = space.shortest_paths();
        space
            .p2d_leave(start_partition)
            .iter()
            .filter_map(|&dx| {
                let head = space.pt2d_distance(start, dx);
                head.is_finite()
                    .then(|| (dx, head, paths.from_door(dx, &HashSet::new())))
            })
            .collect()
    }

    /// Indoor distance from `a` (in `a_partition`, with the rows
    /// [`QueryGenerator::start_rows`] computed for it) to `b`.
    fn point_to_point(
        &self,
        a: &IndoorPoint,
        a_partition: PartitionId,
        a_rows: &[(DoorId, f64, DijkstraResult)],
        b: &IndoorPoint,
    ) -> f64 {
        let space = &self.venue.space;
        let Ok(b_partition) = space.host_partition(b) else {
            return UNREACHABLE;
        };
        let mut best = if a_partition == b_partition {
            a.position.distance(&b.position)
        } else {
            UNREACHABLE
        };
        for (dx, head, row) in a_rows {
            for &de in space.p2d_enter(b_partition) {
                let tail = space.d2pt_distance(de, b);
                if !tail.is_finite() {
                    continue;
                }
                let mid = if *dx == de { 0.0 } else { row.distance(de) };
                if mid.is_finite() {
                    best = best.min(head + mid + tail);
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::venue::{SyntheticVenueConfig, Venue};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_venue() -> Venue {
        Venue::synthetic(&SyntheticVenueConfig::small(11)).unwrap()
    }

    fn small_config() -> WorkloadConfig {
        WorkloadConfig {
            s2t: 600.0,
            ..WorkloadConfig::default()
        }
    }

    #[test]
    fn generated_instances_respect_the_workload_parameters() {
        let venue = small_venue();
        let generator = QueryGenerator::new(&venue);
        let mut rng = StdRng::seed_from_u64(1);
        let config = small_config();
        let instance = generator.generate(&config, &mut rng).expect("instance");
        assert_eq!(instance.keywords.len(), config.qw_len);
        assert_eq!(instance.k, config.k);
        assert!((instance.alpha - config.alpha).abs() < 1e-12);
        assert!((instance.delta - config.eta * instance.actual_s2t).abs() < 1e-9);
        assert!(instance.actual_s2t > 0.0);
        // Start and terminal are inside the venue.
        assert!(venue.space.host_partition(&instance.start).is_ok());
        assert!(venue.space.host_partition(&instance.terminal).is_ok());
        // Keywords resolve against the venue vocabulary.
        for w in &instance.keywords {
            assert!(venue.directory.lookup(w).is_some());
        }
    }

    #[test]
    fn beta_controls_the_iword_fraction() {
        let venue = small_venue();
        let generator = QueryGenerator::new(&venue);
        let mut rng = StdRng::seed_from_u64(2);
        let config = WorkloadConfig {
            beta: 1.0,
            qw_len: 4,
            ..small_config()
        };
        let instance = generator.generate(&config, &mut rng).unwrap();
        let iwords = instance
            .keywords
            .iter()
            .filter(|w| {
                matches!(
                    venue.directory.classify(w).1,
                    indoor_keywords::WordKind::IWord
                )
            })
            .count();
        assert_eq!(iwords, 4, "β = 100 % means only i-words");
        let config = WorkloadConfig {
            beta: 0.0,
            qw_len: 4,
            ..small_config()
        };
        let instance = generator.generate(&config, &mut rng).unwrap();
        let twords = instance
            .keywords
            .iter()
            .filter(|w| {
                matches!(
                    venue.directory.classify(w).1,
                    indoor_keywords::WordKind::TWord
                )
            })
            .count();
        assert_eq!(twords, 4, "β = 0 % means only t-words");
    }

    #[test]
    fn realised_s2t_tracks_the_target() {
        let venue = small_venue();
        let generator = QueryGenerator::new(&venue);
        let mut rng = StdRng::seed_from_u64(3);
        let config = small_config();
        let batch = generator.generate_batch(&config, 8, &mut rng);
        assert!(!batch.is_empty());
        for instance in &batch {
            // The realised distance is within a factor of the requested one
            // (the venue cannot always hit it exactly).
            assert!(instance.actual_s2t > 0.25 * config.s2t);
            assert!(instance.actual_s2t < 4.0 * config.s2t);
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let venue = small_venue();
        let generator = QueryGenerator::new(&venue);
        let config = small_config();
        let a = generator.generate_batch(&config, 3, &mut StdRng::seed_from_u64(9));
        let b = generator.generate_batch(&config, 3, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }
}
