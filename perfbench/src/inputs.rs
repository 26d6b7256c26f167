//! Seeded input generation: venue files, request bodies, the closed loop's
//! send orders and the open-loop operation schedule. Everything here is a
//! pure function of its seed, and none of it is timed — `indoor-data` only
//! feeds the benchmark.
//!
//! The venues and request pools are a fixed data set, generated from one
//! data-set seed on every run; a run's own seed draws the order in which
//! the pool is sent and the open-loop schedule. The serving processes
//! receive nothing but the venue files written here and the request bodies
//! sent over the wire.

use crate::workloads::{WIRE_BATCH_LEN, WIRE_BATCH_SHARE, WIRE_ZIPF_S};
use ikrq_bench::workload::to_query;
use ikrq_core::{ExecOptions, IkrqEngine, SearchRequest, VariantConfig};
use indoor_data::{
    mega_venue, MegaVenueConfig, QueryGenerator, QueryInstance, SyntheticVenueConfig, Venue,
    WorkloadConfig,
};
use indoor_persist::{binary, VenueDocument};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::path::{Path, PathBuf};

/// Threads generating query instances; fixed so the inputs do not depend on
/// the host.
const GEN_THREADS: u64 = 2;

/// The `scale` bench's query shape (|QW| = 3, k = 3) at start-to-terminal
/// distance `s2t` (the `scale` bench uses 150 m).
pub fn scale_workload(s2t: f64) -> WorkloadConfig {
    WorkloadConfig {
        qw_len: 3,
        beta: 0.5,
        s2t,
        eta: 2.0,
        k: 3,
        alpha: 0.5,
        tau: 0.3,
    }
}

/// The mall query shape: the experiment defaults with |QW| = 2, δs2t = 600.
pub fn mall_workload() -> WorkloadConfig {
    WorkloadConfig {
        s2t: 600.0,
        qw_len: 2,
        ..WorkloadConfig::default()
    }
}

/// A venue file written for the serving processes.
#[derive(Debug, Clone)]
pub struct VenueFile {
    /// The venue id it is served under (the document's name).
    pub id: String,
    /// Where it was written.
    pub path: PathBuf,
}

/// Writes `venue` as a pre-indexed columnar (v2) file named `id`, exactly as
/// `ikrq generate --save-indexed` does.
pub fn write_venue_file(venue: &Venue, id: &str, dir: &Path) -> std::io::Result<VenueFile> {
    let doc = VenueDocument::from_venue(&venue.space, &venue.directory, 32.0, Some(id.into()));
    let (space, directory) = doc.build().map_err(std::io::Error::other)?;
    // The index must bind to the document-rebuilt directory, as a loader
    // rebuilds it.
    let engine = IkrqEngine::new(space, directory);
    let path = dir.join(format!("{id}.ikrq"));
    binary::save_venue_columnar(
        &doc,
        engine.space(),
        engine.directory(),
        engine.index(),
        &path,
    )
    .map_err(std::io::Error::other)?;
    Ok(VenueFile {
        id: id.to_string(),
        path,
    })
}

/// The JSON body of a search request.
pub fn search_body(venue: &str, instance: &QueryInstance, options: ExecOptions) -> String {
    let request = SearchRequest {
        venue: venue.to_string(),
        query: to_query(instance),
        options,
    };
    serde_json::to_string(&request).expect("requests serialize")
}

/// Generates `count` query instances on [`GEN_THREADS`] threads, each with
/// its own stream derived from `seed`; the result depends only on the
/// arguments.
pub fn generate_instances(
    venue: &Venue,
    workload: &WorkloadConfig,
    count: usize,
    seed: u64,
) -> Vec<QueryInstance> {
    let per_thread = count.div_ceil(GEN_THREADS as usize);
    let mut out: Vec<QueryInstance> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..GEN_THREADS)
            .map(|stream| {
                scope.spawn(move || {
                    let generator = QueryGenerator::new(venue);
                    let mut rng = StdRng::seed_from_u64(stream_seed(seed, stream));
                    generator.generate_batch(workload, per_thread, &mut rng)
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("generator thread"))
            .collect()
    });
    out.truncate(count);
    out
}

fn stream_seed(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ stream.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// Keeps the first occurrence of every body, preserving order.
pub fn distinct(bodies: Vec<String>) -> Vec<String> {
    let mut seen = HashSet::new();
    bodies
        .into_iter()
        .filter(|body| seen.insert(body.clone()))
        .collect()
}

/// Inputs of a closed-loop mega-venue workload.
pub struct MegaInputs {
    /// The pre-indexed venue file.
    pub file: VenueFile,
    /// KoE requests of which the cheapest is answered once per launch to
    /// time set-up.
    pub setup_candidates: Vec<String>,
    /// Distinct measured request bodies, in send order.
    pub bodies: Vec<String>,
}

/// Set-up probe candidates generated per mega workload. With this many,
/// every data set tried offers one that needs a single Dijkstra run, so the
/// probe's cost stays small.
const SETUP_CANDIDATES: usize = 16;

/// FNV-1a, to name a cached data set after its parameters.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The inputs of a mega-venue workload: a mega venue of `partitions`,
/// written pre-indexed, `count` distinct requests at start-to-terminal
/// distance `s2t` under `options`, and the set-up probe candidates, all
/// from `seed`. They are generated once into a directory under `dir` named
/// after the parameters and read back from there by later runs.
pub fn mega_inputs(
    dir: &Path,
    partitions: usize,
    seed: u64,
    s2t: f64,
    options: ExecOptions,
    count: usize,
) -> std::io::Result<MegaInputs> {
    let id = format!("mega-{partitions}p-seed{seed}");
    let options_json = serde_json::to_string(&options).expect("options serialize");
    let key = format!(
        "{id}-s2t{s2t}-n{count}-{:016x}",
        fnv1a(options_json.as_bytes())
    );
    let cached = dir.join(&key);
    if !cached.is_dir() {
        // Written aside and renamed, so an interrupted run leaves no half
        // data set behind.
        let partial = dir.join(format!("{key}.partial"));
        let _ = std::fs::remove_dir_all(&partial);
        std::fs::create_dir_all(&partial)?;
        write_mega_inputs(&partial, &id, partitions, seed, s2t, options, count)?;
        std::fs::rename(&partial, &cached)?;
    }
    let lines = |name: &str| -> std::io::Result<Vec<String>> {
        Ok(std::fs::read_to_string(cached.join(name))?
            .lines()
            .map(String::from)
            .collect())
    };
    Ok(MegaInputs {
        file: VenueFile {
            path: cached.join(format!("{id}.ikrq")),
            id,
        },
        setup_candidates: lines("setup.jsonl")?,
        bodies: lines("bodies.jsonl")?,
    })
}

/// Generates what [`mega_inputs`] reads into `dir`: the venue file and the
/// bodies, one JSON document a line.
fn write_mega_inputs(
    dir: &Path,
    id: &str,
    partitions: usize,
    seed: u64,
    s2t: f64,
    options: ExecOptions,
    count: usize,
) -> std::io::Result<()> {
    let venue =
        mega_venue(&MegaVenueConfig::sized(partitions, seed)).map_err(std::io::Error::other)?;
    write_venue_file(&venue, id, dir)?;
    let instances =
        generate_instances(&venue, &scale_workload(s2t), count + SETUP_CANDIDATES, seed);
    if instances.len() <= SETUP_CANDIDATES {
        return Err(std::io::Error::other(
            "the venue yields too few query instances",
        ));
    }
    let (probes, measured) = instances.split_at(SETUP_CANDIDATES);
    let koe = ExecOptions::with_variant(VariantConfig::koe());
    let setup: Vec<String> = probes.iter().map(|p| search_body(id, p, koe)).collect();
    let bodies = distinct(
        measured
            .iter()
            .map(|instance| search_body(id, instance, options))
            .collect(),
    );
    std::fs::write(dir.join("setup.jsonl"), setup.join("\n"))?;
    std::fs::write(dir.join("bodies.jsonl"), bodies.join("\n"))
}

/// `rounds` seeded permutations of `0..pool`: the closed loop's send order
/// in each round.
pub fn round_orders(pool: usize, rounds: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0DE2_5EED);
    (0..rounds)
        .map(|_| {
            let mut order: Vec<usize> = (0..pool).collect();
            order.shuffle(&mut rng);
            order
        })
        .collect()
}

/// Zipf sampler over ranks `0..n` with weight `1 / (rank + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n ≥ 1` ranks with exponent `s ≥ 0`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|rank| {
                total += 1.0 / (rank as f64).powf(s);
                total
            })
            .collect();
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// One scheduled operation of the open loop.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `POST /v1/search` with the body of this rank.
    Search(usize),
    /// `POST /v1/search/batch` with the bodies of these ranks.
    Batch(Vec<usize>),
    /// `POST /v1/admin/reload` of this venue.
    Reload(usize),
}

/// Builds the seeded schedule of `ops` operations: Zipf([`WIRE_ZIPF_S`])
/// searches, a [`WIRE_BATCH_SHARE`] of batch calls of [`WIRE_BATCH_LEN`],
/// and every `reload_every`-th operation a venue reload. `body_shard[rank]`
/// is the shard owning the body's venue; batches are redrawn until they
/// span two shards. Reloads cycle through the `venues`.
pub fn schedule(
    ops: usize,
    reload_every: usize,
    body_shard: &[usize],
    venues: usize,
    seed: u64,
) -> Vec<Op> {
    let zipf = Zipf::new(body_shard.len(), WIRE_ZIPF_S);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0F0B);
    let mut reloads = 0usize;
    (0..ops)
        .map(|i| {
            if reload_every > 0 && i % reload_every == reload_every - 1 {
                reloads += 1;
                return Op::Reload((reloads - 1) % venues);
            }
            if rng.gen_bool(WIRE_BATCH_SHARE) {
                for _ in 0..64 {
                    let batch: Vec<usize> =
                        (0..WIRE_BATCH_LEN).map(|_| zipf.sample(&mut rng)).collect();
                    let first = body_shard[batch[0]];
                    if batch.iter().any(|&rank| body_shard[rank] != first) {
                        return Op::Batch(batch);
                    }
                }
            }
            Op::Search(zipf.sample(&mut rng))
        })
        .collect()
}

/// Inputs of the router workload.
pub struct MallInputs {
    /// One venue file per venue id, in venue order.
    pub files: Vec<VenueFile>,
    /// Distinct search bodies in popularity-rank order.
    pub bodies: Vec<String>,
    /// Venue index of each body.
    pub body_venue: Vec<usize>,
    /// A request answered once per launch to time set-up.
    pub setup_body: String,
}

/// Generates `venues` one-floor synthetic malls (ids `mall-0`, `mall-1`,
/// ...) and `per_venue` distinct KoE bodies on each, interleaved by venue so
/// popularity ranks spread over every venue.
pub fn mall_inputs(
    dir: &Path,
    venues: usize,
    per_venue: usize,
    seed: u64,
) -> std::io::Result<MallInputs> {
    let mut files = Vec::new();
    let mut per_venue_bodies: Vec<Vec<String>> = Vec::new();
    let mut setup_body = String::new();
    for v in 0..venues {
        let venue_seed = seed.wrapping_mul(31).wrapping_add(v as u64);
        let venue = Venue::synthetic(
            &SyntheticVenueConfig {
                seed: venue_seed,
                ..SyntheticVenueConfig::default()
            }
            .with_floors(1),
        )
        .map_err(std::io::Error::other)?;
        let id = format!("mall-{v}");
        files.push(write_venue_file(&venue, &id, dir)?);
        let instances = generate_instances(&venue, &mall_workload(), per_venue + 1, venue_seed);
        let options = ExecOptions::with_variant(VariantConfig::koe());
        if v == 0 {
            setup_body = search_body(&id, &instances[0], options);
        }
        per_venue_bodies.push(distinct(
            instances[1..]
                .iter()
                .map(|instance| search_body(&id, instance, options))
                .collect(),
        ));
    }
    let mut bodies = Vec::new();
    let mut body_venue = Vec::new();
    let longest = per_venue_bodies.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        for (v, list) in per_venue_bodies.iter().enumerate() {
            if let Some(body) = list.get(i) {
                bodies.push(body.clone());
                body_venue.push(v);
            }
        }
    }
    Ok(MallInputs {
        files,
        bodies,
        body_venue,
        setup_body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_and_repeats_for_a_seed() {
        let zipf = Zipf::new(1000, 1.0);
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..5000).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(7);
        assert_eq!(a, draw(7), "same seed, same ranks");
        assert_ne!(a, draw(8), "another seed, other ranks");
        assert!(a.iter().all(|&r| r < 1000));
        let top = a.iter().filter(|&&r| r == 0).count();
        let tail = a.iter().filter(|&&r| r == 999).count();
        assert!(top > 500 && tail < 20, "rank 0: {top}, rank 999: {tail}");
        let uniform = Zipf::new(4, 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            counts[uniform.sample(&mut rng)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 850), "{counts:?}");
    }

    #[test]
    fn the_schedule_repeats_for_a_seed_and_has_the_requested_mix() {
        let shards: Vec<usize> = (0..300).map(|rank| rank % 2).collect();
        let ops = schedule(4000, 500, &shards, 3, 42);
        assert_eq!(ops, schedule(4000, 500, &shards, 3, 42));
        assert_ne!(ops, schedule(4000, 500, &shards, 3, 43));
        let reloads: Vec<usize> = ops
            .iter()
            .filter_map(|op| match op {
                Op::Reload(v) => Some(*v),
                _ => None,
            })
            .collect();
        assert_eq!(reloads, vec![0, 1, 2, 0, 1, 2, 0, 1]);
        let batches: Vec<&Vec<usize>> = ops
            .iter()
            .filter_map(|op| match op {
                Op::Batch(b) => Some(b),
                _ => None,
            })
            .collect();
        assert!(
            batches.len() > 300 && batches.len() < 500,
            "{}",
            batches.len()
        );
        for batch in batches {
            assert_eq!(batch.len(), WIRE_BATCH_LEN);
            assert!(batch.iter().any(|&r| shards[r] == 0) && batch.iter().any(|&r| shards[r] == 1));
        }
    }

    #[test]
    fn round_orders_are_seeded_permutations() {
        let orders = round_orders(50, 3, 42);
        assert_eq!(orders, round_orders(50, 3, 42));
        assert_ne!(orders, round_orders(50, 3, 43));
        assert_ne!(orders[0], orders[1], "each round has its own order");
        for order in &orders {
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        }
    }

    #[test]
    fn requests_repeat_for_a_seed() {
        let dir = std::env::temp_dir().join(format!("perfbench-inputs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let options = ExecOptions::with_variant(VariantConfig::toe()).with_expansion_budget(500);
        // Generated twice apart, then read back from where it was kept.
        let a = mega_inputs(&dir.join("a"), 150, 9, 150.0, options, 6).unwrap();
        let b = mega_inputs(&dir.join("b"), 150, 9, 150.0, options, 6).unwrap();
        let kept = mega_inputs(&dir.join("a"), 150, 9, 150.0, options, 6).unwrap();
        let c = mega_inputs(&dir.join("a"), 150, 10, 150.0, options, 6).unwrap();
        assert!(!a.bodies.is_empty());
        assert_eq!(a.bodies.len(), 6);
        assert_eq!(a.bodies, b.bodies);
        assert_eq!(a.setup_candidates, b.setup_candidates);
        assert_eq!(a.bodies, kept.bodies);
        assert_eq!(a.file.path, kept.file.path);
        assert_ne!(a.bodies, c.bodies);
        assert_ne!(a.file.path, c.file.path);
        assert_eq!(
            std::fs::read(&a.file.path).unwrap(),
            std::fs::read(&b.file.path).unwrap()
        );
        assert!(a.bodies[0].contains("\"expansion_budget\":500"));
        let malls = mall_inputs(&dir, 2, 5, 3).unwrap();
        let again = mall_inputs(&dir, 2, 5, 3).unwrap();
        assert_eq!(malls.bodies, again.bodies);
        assert_eq!(malls.body_venue, again.body_venue);
        assert_eq!(malls.files.len(), 2);
        assert!(malls.body_venue.contains(&0) && malls.body_venue.contains(&1));
        std::fs::remove_dir_all(&dir).ok();
    }
}
