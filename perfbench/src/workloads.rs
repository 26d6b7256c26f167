//! The three workloads: `koe-mega`, `toe-mega` and `wire-mall`.
//!
//! Each one writes its seeded inputs, launches the serving processes a few
//! times to time set-up, drives its load, stops every process, checks every
//! answer it promises to check, and — in a traced run — measures the layers.

use crate::check::{batch_entries, entry_deterministic, served_deterministic, Oracle};
use crate::inputs::{self, MallInputs, Op};
use crate::layers::{self, Replayer};
use crate::load::{self, Phase};
use crate::proc;
use crate::stats;
use crate::trace::Tracer;
use ikrq_bench::multiproc::ChildServer;
use ikrq_core::{ExecOptions, VariantConfig};
use ikrq_router::{HashRing, DEFAULT_VNODES};
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Launches per run whose time to the first correct answer is `setup_s`.
const SETUP_LAUNCHES: usize = 9;

/// Seed of the data set — the venues and the request pools — which is the
/// same on every run; a run's own seed draws the send orders and the
/// open-loop schedule. Query cost spreads over two orders of magnitude, so
/// a pool drawn afresh per seed moved p50, p90 and throughput by more than
/// the machine did.
pub const DATASET_SEED: u64 = 42;

/// Rounds over the request pool a closed loop may send at most.
const MAX_ROUNDS: usize = 64;

/// `toe-mega`'s expansion budget per request.
pub const TOE_BUDGET: u64 = 2_000;

/// `wire-mall`'s offered rate, operations per second.
pub const WIRE_RATE: f64 = 400.0;

/// `wire-mall`'s Zipf exponent over request bodies. With it and the reload
/// period, about three single searches in four are cache hits, so the
/// median lies inside the hits' latencies. At 1.0 with a reload every 2 s
/// only ~55% were hits and p50 sat on the step from hits (~0.3 ms) to
/// misses (~1 ms), jumping between them from one window to the next.
pub const WIRE_ZIPF_S: f64 = 1.2;

/// `wire-mall`'s share of operations that are batch calls, and the
/// requests in one batch call.
pub const WIRE_BATCH_SHARE: f64 = 0.1;
pub const WIRE_BATCH_LEN: usize = 4;

/// `wire-mall`'s seconds between venue reloads.
const WIRE_RELOAD_EVERY_S: f64 = 4.0;

/// `wire-mall`'s measuring window, seconds: one reload period, so every
/// window holds the same number of reloads.
const WIRE_WINDOW_S: f64 = WIRE_RELOAD_EVERY_S;

/// `wire-mall` venue ids and distinct bodies per venue.
const WIRE_VENUES: usize = 6;
const WIRE_BODIES_PER_VENUE: usize = 500;

/// A run is marked invalid when this share of operations went out later
/// than [`LATE_MS`] after their due time: the generator fell behind its
/// schedule, so the offered rate did not hold. The answers may still all be
/// right, so this does not touch `correct`.
const LATE_SHARE: f64 = 0.01;
const LATE_MS: f64 = 50.0;

/// One metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What a run prints.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (measured requests, set-up probes, checks).
    pub attempted: u64,
    /// Failed operations: wrong answers, non-200 replies, transport errors.
    pub failed: u64,
    /// End-to-end metrics.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Human-readable report lines.
    pub notes: Vec<String>,
    /// Failed operations by kind.
    pub failures: BTreeMap<&'static str, u64>,
}

impl Outcome {
    /// Counts `count` failed operations of one kind.
    fn fail(&mut self, kind: &'static str, count: u64) {
        if count > 0 {
            self.failed += count;
            *self.failures.entry(kind).or_default() += count;
        }
    }
}

/// The settings of one run.
pub struct Run {
    /// The `ikrq` binary.
    pub ikrq: PathBuf,
    /// Directory for this run's venue files and trace.
    pub dir: PathBuf,
    /// Directory keeping the mega data sets from one run to the next.
    pub data: PathBuf,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether to run the traced per-layer pass.
    pub trace: bool,
}

/// Wall time of a run's phases, for the report.
struct Phases {
    last: Instant,
    shown: Vec<String>,
}

impl Phases {
    fn start() -> Phases {
        Phases {
            last: Instant::now(),
            shown: Vec::new(),
        }
    }

    /// Ends the phase called `name`.
    fn mark(&mut self, name: &str) {
        let now = Instant::now();
        self.shown
            .push(format!("{name} {:.1} s", (now - self.last).as_secs_f64()));
        self.last = now;
    }

    fn note(self) -> String {
        format!("wall time: {}", self.shown.join(", "))
    }
}

fn fail<E: std::fmt::Display>(error: E) -> std::io::Error {
    std::io::Error::other(error.to_string())
}

/// Times [`SETUP_LAUNCHES`] launches; `launch` starts the processes and
/// returns them with whether the first answer was correct. The last launch
/// keeps serving.
fn time_setup<T>(
    outcome: &mut Outcome,
    mut launch: impl FnMut() -> std::io::Result<(T, bool)>,
) -> std::io::Result<(T, f64)> {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_LAUNCHES {
        drop(kept.take());
        let started = Instant::now();
        let (served, correct) = launch()?;
        times.push(started.elapsed().as_secs_f64());
        outcome.attempted += 1;
        outcome.fail("set-up answer", u64::from(!correct));
        kept = Some(served);
    }
    let shown: Vec<String> = times.iter().map(|t| format!("{:.1}", t * 1e3)).collect();
    outcome
        .notes
        .push(format!("set-up launches (ms): {}", shown.join(" ")));
    Ok((kept.expect("at least one launch"), stats::median(&times)))
}

/// Sends one search and checks it against the expected deterministic bytes.
fn probe(addr: SocketAddr, body: &str, expected: &Result<String, String>) -> bool {
    let (status, reply) = load::send(&mut load::client(addr), "/v1/search", body);
    status == 200 && expected.as_ref().ok() == served_deterministic(&reply).as_ref()
}

/// Notes the sample size, mean and highest supported percentile.
fn note_sample(latencies: &[f64], outcome: &mut Outcome) {
    let n = latencies.len();
    if !stats::supports(n, 900) {
        outcome.notes.push(format!(
            "note: {n} samples leave {} beyond p90 (fewer than {})",
            stats::samples_beyond(n, 900),
            stats::MIN_BEYOND
        ));
    }
    outcome.notes.push(format!(
        "samples {n}, mean {:.3} ms, highest supported percentile p{}",
        stats::mean(latencies),
        stats::highest_supported(n, &[500, 900, 990, 999]).map_or(0.0, |q| q as f64 / 10.0)
    ));
}

/// What the complete rounds of a closed loop over a pool measured.
struct Rounds {
    /// Rounds in which every request of the pool was answered.
    complete: usize,
    /// Each pool request's lowest latency over the complete rounds, ms.
    best_ms: Vec<f64>,
    /// Requests per second of each complete round, first to last.
    qps: Vec<f64>,
}

/// Splits a closed loop's exchanges, which are a contiguous prefix of the
/// send sequence, into rounds of `pool` and keeps the complete ones.
fn rounds(phase: &Phase, pool: usize) -> Rounds {
    let complete = phase.exchanges.len() / pool;
    let mut best_ms = vec![f64::INFINITY; pool];
    let mut qps = Vec::new();
    for round in phase.exchanges[..complete * pool].chunks(pool) {
        let first_send = round.iter().map(|e| e.sent_s).fold(f64::INFINITY, f64::min);
        let last_reply = round
            .iter()
            .map(|e| e.sent_s + e.latency_ms / 1e3)
            .fold(0.0, f64::max);
        qps.push(pool as f64 / (last_reply - first_send));
        for e in round {
            best_ms[e.op] = best_ms[e.op].min(e.latency_ms);
        }
    }
    Rounds {
        complete,
        best_ms,
        qps,
    }
}

/// The lowest p50 and the lowest p90 over consecutive windows of
/// `window_s` seconds of due time (the last window takes the remainder).
fn best_window_percentiles(phase: &Phase, seconds: f64, window_s: f64) -> (f64, f64, Vec<String>) {
    let windows = ((seconds / window_s).floor() as usize).max(1);
    let mut samples = vec![Vec::new(); windows];
    for e in &phase.exchanges {
        let w = ((e.sent_s / window_s) as usize).min(windows - 1);
        samples[w].push(e.latency_ms);
    }
    let mut best = (f64::INFINITY, f64::INFINITY);
    let mut shown = Vec::new();
    for window in samples.iter().filter(|w| !w.is_empty()) {
        let sorted = stats::sorted(window);
        let (p50, p90) = (
            stats::percentile(&sorted, 500),
            stats::percentile(&sorted, 900),
        );
        best = (best.0.min(p50), best.1.min(p90));
        shown.push(format!("{p50:.3}/{p90:.3}"));
    }
    (best.0, best.1, shown)
}

/// Backend counters read from `/v1/stats`.
#[derive(Debug, Clone, Copy, Default)]
struct ServerCounters {
    served: f64,
    reuses: f64,
    wakeups: f64,
    spurious: f64,
    shed: f64,
    hits: f64,
    misses: f64,
    evictions: f64,
}

impl ServerCounters {
    fn read(addr: SocketAddr) -> std::io::Result<ServerCounters> {
        let body = load::get_json(addr, "/v1/stats")?;
        let stats = body
            .get("stats")
            .ok_or_else(|| fail("stats body has no `stats`"))?;
        let field = |value: &serde::Value, name: &str| {
            value.get(name).and_then(|v| v.as_f64()).unwrap_or(0.0)
        };
        let cache = stats
            .get("cache")
            .ok_or_else(|| fail("stats body has no `cache`"))?;
        Ok(ServerCounters {
            served: field(stats, "requests_served"),
            reuses: field(stats, "keep_alive_reuses"),
            wakeups: field(stats, "reactor_wakeups"),
            spurious: field(stats, "reactor_spurious_wakeups"),
            shed: field(stats, "requests_shed"),
            hits: field(cache, "hits"),
            misses: field(cache, "misses"),
            evictions: field(cache, "evictions"),
        })
    }

    fn minus(self, before: ServerCounters) -> ServerCounters {
        ServerCounters {
            served: self.served - before.served,
            reuses: self.reuses - before.reuses,
            wakeups: self.wakeups - before.wakeups,
            spurious: self.spurious - before.spurious,
            shed: self.shed - before.shed,
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
        }
    }

    fn plus(self, other: ServerCounters) -> ServerCounters {
        ServerCounters {
            served: self.served + other.served,
            reuses: self.reuses + other.reuses,
            wakeups: self.wakeups + other.wakeups,
            spurious: self.spurious + other.spurious,
            shed: self.shed + other.shed,
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
        }
    }

    fn metrics(&self) -> Vec<Metric> {
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        vec![
            (
                "cache.hit_ratio",
                ratio(self.hits, self.hits + self.misses),
                "ratio",
            ),
            ("cache.evictions", self.evictions, "count"),
            (
                "server.reuse_ratio",
                ratio(self.reuses, self.served),
                "ratio",
            ),
            ("server.reactor_wakeups", self.wakeups, "count"),
            (
                "server.spurious_ratio",
                ratio(self.spurious, self.wakeups + self.spurious),
                "ratio",
            ),
            ("server.shed", self.shed, "count"),
        ]
    }
}

/// Client-timed `POST /v1/admin/reload` of `venue`, milliseconds, `None`
/// unless the reload answered `200`.
fn reload_ms(addr: SocketAddr, venue: &str) -> Option<f64> {
    let started = Instant::now();
    let (status, _) = load::send(
        &mut load::client(addr),
        "/v1/admin/reload",
        &format!("{{\"venue\":\"{venue}\"}}"),
    );
    (status == 200).then(|| started.elapsed().as_secs_f64() * 1e3)
}

/// A closed-loop workload on one `ikrq serve` hosting a mega venue.
struct MegaSpec {
    partitions: usize,
    /// Start-to-terminal distance of the generated queries, metres.
    s2t: f64,
    options: ExecOptions,
    /// Keep-alive clients of the closed loop.
    clients: usize,
    /// Distinct requests in the pool, sent once per round.
    pool: usize,
}

/// `koe-mega`: KoE on a 10⁴-partition venue.
pub fn koe_mega(run: &Run) -> std::io::Result<Outcome> {
    mega(
        run,
        &MegaSpec {
            // Not 10⁵: there whole-venue Dijkstra streams a ~200 MiB
            // process, a run's speed followed the host's memory traffic
            // (round rates 6.9–10 requests/s from one run to the next), and
            // p50 and throughput spread 0.22–0.34 between runs. At 10⁴ the
            // same queries are still distance-bound and ~40 rounds fit.
            partitions: 10_000,
            // Not the `scale` bench's 150 m: there (at 10⁵) the latency
            // distribution splits into two clusters with the gap at the
            // median, so p50 jumps between them from one query sample to
            // the next.
            s2t: 200.0,
            options: ExecOptions::with_variant(VariantConfig::koe()),
            // One client, not two: two concurrent whole-venue searches
            // slow each other by however much the host lets them, which
            // doubled the spread of p50 and throughput between runs.
            clients: 1,
            // p90 needs 100 requests for ten beyond it.
            pool: 100,
        },
    )
}

/// `toe-mega`: budgeted ToE on a 10³-partition venue.
pub fn toe_mega(run: &Run) -> std::io::Result<Outcome> {
    mega(
        run,
        &MegaSpec {
            partitions: 1_000,
            s2t: 150.0,
            options: ExecOptions::with_variant(VariantConfig::toe())
                .with_expansion_budget(TOE_BUDGET),
            clients: 1,
            pool: 400,
        },
    )
}

fn mega(run: &Run, spec: &MegaSpec) -> std::io::Result<Outcome> {
    let mut outcome = Outcome::default();
    let mut phases = Phases::start();
    let inputs = inputs::mega_inputs(
        &run.data,
        spec.partitions,
        DATASET_SEED,
        spec.s2t,
        spec.options,
        spec.pool,
    )?;
    let pool = inputs.bodies.len();
    phases.mark("inputs");
    let oracle = Oracle::load(std::slice::from_ref(&inputs.file))?;
    let setup_body = &inputs.setup_candidates[oracle
        .cheapest(&inputs.setup_candidates)
        .expect("mega inputs carry set-up candidates")];
    let setup_expected = oracle.expected(setup_body);
    phases.mark("oracle and probe");
    // The pool is sent again every round, so the response cache is off:
    // every request is a miss, as distinct requests would be.
    let mut args = proc::serve_args(&[inputs.file.path.as_path()]);
    args.extend(["--cache-capacity".into(), "0".into()]);
    let (served, setup_s) = time_setup(&mut outcome, || {
        let served = proc::spawn(&run.ikrq, &args)?;
        let correct = probe(served.addr(), setup_body, &setup_expected);
        Ok((served, correct))
    })?;
    let addr = served.addr();
    phases.mark("set-up");
    let orders = inputs::round_orders(pool, MAX_ROUNDS, run.seed);
    let before = ServerCounters::read(addr)?;
    let phase = load::closed_loop(addr, &inputs.bodies, &orders, run.seconds, spec.clients);
    let counters = ServerCounters::read(addr)?.minus(before);
    let peak_rss_mib = proc::peak_rss_mib(&served);
    let reload = if run.trace {
        reload_ms(addr, &inputs.file.id)
    } else {
        None
    };
    // Stop serving before the oracle runs, so the two never share the cores.
    drop(served);
    phases.mark("load");

    outcome.attempted += phase.exchanges.len() as u64;
    let bodies: Vec<&str> = inputs.bodies.iter().map(String::as_str).collect();
    let expected = oracle.expected_all(&bodies);
    drop(oracle);
    let wrong = phase
        .exchanges
        .iter()
        .filter(|e| {
            !e.ok() || expected[e.op].as_ref().ok() != served_deterministic(&e.body).as_ref()
        })
        .count();
    outcome.fail("wrong or failed answer", wrong as u64);
    phases.mark("check");
    outcome.notes.push(phases.note());
    outcome.notes.push(format!(
        "{} requests over a pool of {pool}, every one checked against the scan oracle",
        phase.exchanges.len()
    ));

    let rounds = rounds(&phase, pool);
    let shown: Vec<String> = rounds.qps.iter().map(|q| format!("{q:.2}")).collect();
    outcome.notes.push(format!(
        "{} complete rounds, requests/s per round: {}",
        rounds.complete,
        shown.join(" ")
    ));
    note_sample(&rounds.best_ms, &mut outcome);
    let sorted = stats::sorted(&rounds.best_ms);
    outcome.end_to_end = vec![
        ("latency_p50_ms", stats::percentile(&sorted, 500), "ms"),
        (
            "throughput_qps",
            spec.clients as f64 * 1e3 / stats::mean(&rounds.best_ms),
            "1/s",
        ),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mib", peak_rss_mib, "MiB"),
    ];

    if run.trace {
        let mut tracer = Tracer::new();
        let (persist, engine) = layers::persist_probe(&inputs.file.path, &mut tracer)?;
        let from_door_ms = layers::from_door_ms(engine.space(), run.seed, &mut tracer);
        let engines = HashMap::from([(inputs.file.id.clone(), Arc::new(engine))]);
        let mut replayer = Replayer::new(&engines, tracer);
        // Every pool request once, in the first round's order.
        let mut served_answer: HashMap<usize, &str> = HashMap::new();
        for e in &phase.exchanges[..pool] {
            served_answer.insert(e.op, &e.body);
        }
        let started = Instant::now();
        for &op in &orders[0] {
            if started.elapsed().as_secs_f64() >= run.seconds {
                break;
            }
            let replayed = replayer.replay(op as u64, &inputs.bodies[op], 0);
            outcome.attempted += 1;
            // The traced path must reproduce the served answer.
            let same = replayed.is_some()
                && replayed == served_answer.get(&op).and_then(|b| served_deterministic(b));
            outcome.fail(
                "traced replay differs from the served answer",
                u64::from(!same),
            );
        }
        let requests: Vec<(&str, String)> = inputs
            .bodies
            .iter()
            .map(|b| ("/v1/search", b.clone()))
            .collect();
        let served: HashMap<u64, f64> = rounds
            .best_ms
            .iter()
            .enumerate()
            .map(|(op, &ms)| (op as u64, ms))
            .collect();
        let mut per_layer = replayer.metrics(&served);
        per_layer.extend(persist_metrics(&persist, reload));
        per_layer.extend(distance_metrics(&per_layer, from_door_ms));
        let parse_us = layers::http_parse_us(&requests, &mut replayer.tracer);
        per_layer.push(("http.parse_us", parse_us, "us"));
        per_layer.extend(counters.metrics());
        per_layer.extend(no_router());
        per_layer.push(("sched_lag_ms", 0.0, "ms"));
        per_layer.push(("latency_p90_ms", stats::percentile(&sorted, 900), "ms"));
        per_layer.push(("latency_p99_ms", supported_p99(&rounds.best_ms), "ms"));
        outcome.notes.push(cross_check(&per_layer));
        write_trace(&replayer, run, &mut outcome)?;
        outcome.per_layer = per_layer;
    }
    Ok(outcome)
}

fn persist_metrics(persist: &layers::PersistProbe, reload: Option<f64>) -> Vec<Metric> {
    vec![
        ("persist.load_ms", persist.load_ms, "ms"),
        ("persist.adopted_frac", persist.adopted_frac, "ratio"),
        ("persist.file_mib", persist.file_mib, "MiB"),
        ("index.adopt_ms", persist.adopt_ms, "ms"),
        ("persist.reload_ms", reload.unwrap_or(0.0), "ms"),
    ]
}

/// The value of the named metric (0 when absent).
fn value_of(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(n, _, _)| *n == name)
        .map_or(0.0, |(_, v, _)| *v)
}

/// `space.from_door_ms` and the outside estimate of distance work's share
/// of search time: Dijkstra runs per query × one full run / search time.
fn distance_metrics(per_layer: &[Metric], from_door_ms: f64) -> Vec<Metric> {
    let search_ms = value_of(per_layer, "core.search_ms");
    let share = if search_ms > 0.0 {
        value_of(per_layer, "space.dijkstra_calls") * from_door_ms / search_ms
    } else {
        0.0
    };
    vec![
        ("space.from_door_ms", from_door_ms, "ms"),
        ("space.distance_share", share, "ratio"),
    ]
}

/// Router metrics of a workload served without a router.
fn no_router() -> Vec<Metric> {
    vec![
        ("router.hop_ms", 0.0, "ms"),
        ("router.batch_fanout", 0.0, "count/batch"),
        ("router.failovers", 0.0, "count"),
    ]
}

/// p99 latency when the sample supports it, else 0.
fn supported_p99(latencies: &[f64]) -> f64 {
    let sorted = stats::sorted(latencies);
    if stats::supports(sorted.len(), 990) {
        stats::percentile(&sorted, 990)
    } else {
        0.0
    }
}

/// The ROADMAP's *Measured at this re-anchor* columns for this run.
fn cross_check(per_layer: &[Metric]) -> String {
    let find = |name| value_of(per_layer, name);
    format!(
        "cross-check: {:.2} ms/query search, {:.2} Dijkstra runs/query, one full Dijkstra {:.3} ms, {:.1} stamps expanded/query",
        find("core.search_ms"),
        find("space.dijkstra_calls"),
        find("space.from_door_ms"),
        find("core.stamps_expanded"),
    )
}

fn write_trace(replayer: &Replayer<'_>, run: &Run, outcome: &mut Outcome) -> std::io::Result<()> {
    let path = run.dir.with_file_name(format!(
        "{}-trace.jsonl",
        run.dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("run")
    ));
    replayer.tracer.write_jsonl(&path)?;
    outcome.notes.push(format!(
        "trace: {} spans written to {}",
        replayer.tracer.spans().len(),
        path.display()
    ));
    for (name, layer) in crate::trace::reduce(replayer.tracer.spans()) {
        outcome.notes.push(format!(
            "self time {name:<20} {:>10.4} ms/call over {} calls",
            layer.mean_self_ms(),
            layer.calls
        ));
    }
    Ok(())
}

/// The processes of a `wire-mall` cluster: two backends and the router.
struct Cluster {
    backends: Vec<ChildServer>,
    router: ChildServer,
}

impl Cluster {
    fn launch(ikrq: &Path, shard_files: &[Vec<PathBuf>]) -> std::io::Result<Cluster> {
        let backends = std::thread::scope(|scope| {
            let handles: Vec<_> = shard_files
                .iter()
                .map(|files| {
                    scope.spawn(move || {
                        let paths: Vec<&Path> = files.iter().map(PathBuf::as_path).collect();
                        proc::spawn(ikrq, &proc::serve_args(&paths))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("launch thread"))
                .collect::<std::io::Result<Vec<ChildServer>>>()
        })?;
        let shards: Vec<(String, SocketAddr)> = backends
            .iter()
            .enumerate()
            .map(|(i, backend)| (shard_name(i), backend.addr()))
            .collect();
        let router = proc::spawn(ikrq, &proc::route_args(&shards))?;
        Ok(Cluster { backends, router })
    }

    fn peak_rss_mib(&self) -> f64 {
        self.backends.iter().map(proc::peak_rss_mib).sum::<f64>() + proc::peak_rss_mib(&self.router)
    }

    fn backend_counters(&self) -> std::io::Result<ServerCounters> {
        self.backends
            .iter()
            .try_fold(ServerCounters::default(), |sum, backend| {
                Ok(sum.plus(ServerCounters::read(backend.addr())?))
            })
    }
}

fn shard_name(i: usize) -> String {
    format!("s{i}")
}

/// Router counters read from the router's `/v1/stats`.
fn router_counters(addr: SocketAddr) -> std::io::Result<(f64, f64)> {
    let body = load::get_json(addr, "/v1/stats")?;
    let router = body
        .get("router")
        .ok_or_else(|| fail("router stats missing"))?;
    let field = |name: &str| router.get(name).and_then(|v| v.as_f64()).unwrap_or(0.0);
    Ok((field("forwarded"), field("failovers")))
}

fn batch_body(inputs: &MallInputs, ranks: &[usize]) -> String {
    let parts: Vec<&str> = ranks.iter().map(|&r| inputs.bodies[r].as_str()).collect();
    format!("{{\"requests\":[{}]}}", parts.join(","))
}

/// `wire-mall`: KoE on six one-floor malls behind `ikrq route` over two
/// shards, open loop at [`WIRE_RATE`] with batches and reloads mixed in.
pub fn wire_mall(run: &Run) -> std::io::Result<Outcome> {
    let mut outcome = Outcome::default();
    let inputs = inputs::mall_inputs(&run.dir, WIRE_VENUES, WIRE_BODIES_PER_VENUE, DATASET_SEED)?;
    let names: Vec<String> = (0..2).map(shard_name).collect();
    let ring = HashRing::new(&names, DEFAULT_VNODES);
    let venue_shard: Vec<usize> = inputs.files.iter().map(|f| ring.assign(&f.id)).collect();
    let mut shard_files: Vec<Vec<PathBuf>> = vec![Vec::new(); names.len()];
    for (file, &shard) in inputs.files.iter().zip(&venue_shard) {
        shard_files[shard].push(file.path.clone());
    }
    if shard_files.iter().any(Vec::is_empty) {
        return Err(fail("the venue ids do not spread over both shards"));
    }
    let body_shard: Vec<usize> = inputs.body_venue.iter().map(|&v| venue_shard[v]).collect();
    let ops = inputs::schedule(
        (WIRE_RATE * run.seconds).round() as usize,
        (WIRE_RATE * WIRE_RELOAD_EVERY_S).round() as usize,
        &body_shard,
        inputs.files.len(),
        run.seed,
    );
    let wire: Vec<(&str, String)> = ops
        .iter()
        .map(|op| match op {
            Op::Search(rank) => ("/v1/search", inputs.bodies[*rank].clone()),
            Op::Batch(ranks) => ("/v1/search/batch", batch_body(&inputs, ranks)),
            Op::Reload(v) => (
                "/v1/admin/reload",
                format!("{{\"venue\":\"{}\"}}", inputs.files[*v].id),
            ),
        })
        .collect();

    let oracle = Oracle::load(&inputs.files)?;
    let setup_expected = oracle.expected(&inputs.setup_body);
    let (cluster, setup_s) = time_setup(&mut outcome, || {
        let cluster = Cluster::launch(&run.ikrq, &shard_files)?;
        let correct = probe(cluster.router.addr(), &inputs.setup_body, &setup_expected);
        Ok((cluster, correct))
    })?;
    let router = cluster.router.addr();
    let before = cluster.backend_counters()?;
    let router_before = router_counters(router)?;
    let phase = load::open_loop(router, &wire, WIRE_RATE);
    let counters = cluster.backend_counters()?.minus(before);
    let router_after = router_counters(router)?;
    let peak_rss_mib = cluster.peak_rss_mib();
    let splice = splice_check(&cluster, &inputs, &ops, &body_shard);
    drop(cluster);
    outcome.attempted += splice.attempted;
    outcome.fail("router splice or hop probe", splice.failed);

    // Validity: did the generator keep to its schedule?
    let lags = stats::sorted(&phase.exchanges.iter().map(|e| e.lag_ms).collect::<Vec<_>>());
    let late = lags.iter().filter(|&&lag| lag > LATE_MS).count();
    let sched_lag_ms = stats::percentile(&lags, 990);
    if late as f64 > LATE_SHARE * lags.len() as f64 {
        outcome.notes.push(format!(
            "INVALID: {late} of {} operations went out more than {LATE_MS} ms late",
            lags.len()
        ));
    }

    // Answers: every search and every batch entry against the oracle, every
    // reload must succeed.
    let expected =
        oracle.expected_all(&inputs.bodies.iter().map(String::as_str).collect::<Vec<_>>());
    drop(oracle);
    outcome.attempted += phase.exchanges.len() as u64;
    let mut verdicts: HashMap<(usize, &str), bool> = HashMap::new();
    let right = |rank: usize, deterministic: Option<String>| {
        expected[rank].as_ref().ok() == deterministic.as_ref()
    };
    let mut reload_ms = Vec::new();
    for exchange in &phase.exchanges {
        let correct = exchange.ok()
            && match &ops[exchange.op] {
                Op::Search(rank) => *verdicts
                    .entry((*rank, exchange.body.as_str()))
                    .or_insert_with(|| right(*rank, served_deterministic(&exchange.body))),
                Op::Batch(ranks) => batch_entries(&exchange.body).is_some_and(|entries| {
                    entries.len() == ranks.len()
                        && ranks
                            .iter()
                            .zip(entries)
                            .all(|(&rank, entry)| right(rank, entry_deterministic(entry)))
                }),
                Op::Reload(_) => {
                    // Send to reply, like the mega workloads' reload: the
                    // generator's lateness is not the reload's cost.
                    reload_ms.push(exchange.latency_ms - exchange.lag_ms);
                    true
                }
            };
        outcome.fail("wrong or failed answer", u64::from(!correct));
    }

    outcome.notes.push(format!(
        "offered rate {WIRE_RATE}/s over 2 connections, {} operations, sched lag p50 {:.3} ms, p99 {sched_lag_ms:.3} ms, {late} late",
        phase.exchanges.len(),
        stats::percentile(&lags, 500)
    ));
    let (p50, p90, shown) = best_window_percentiles(&phase, run.seconds, WIRE_WINDOW_S);
    outcome.notes.push(format!(
        "p50/p90 ms per {WIRE_WINDOW_S} s window: {}",
        shown.join(" ")
    ));
    note_sample(&phase.latencies(), &mut outcome);
    let all = stats::sorted(&phase.latencies());
    let deciles: Vec<String> = (1..10)
        .map(|d| format!("{:.3}", stats::percentile(&all, d * 100)))
        .collect();
    outcome
        .notes
        .push(format!("latency deciles ms: {}", deciles.join(" ")));
    outcome.end_to_end = vec![
        ("latency_p50_ms", p50, "ms"),
        (
            "throughput_qps",
            phase.exchanges.len() as f64 / phase.elapsed_s,
            "1/s",
        ),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mib", peak_rss_mib, "MiB"),
    ];

    if run.trace {
        let mut tracer = Tracer::new();
        let mut engines = HashMap::new();
        let mut persist = None;
        for file in &inputs.files {
            let (probe, engine) = layers::persist_probe(&file.path, &mut tracer)?;
            persist.get_or_insert(probe);
            engines.insert(file.id.clone(), Arc::new(engine));
        }
        let persist = persist.expect("at least one venue");
        let from_door_ms =
            layers::from_door_ms(engines[&inputs.files[0].id].space(), run.seed, &mut tracer);
        let mut replayer = Replayer::new(&engines, tracer);
        let mut epochs = vec![0u64; names.len()];
        let started = Instant::now();
        for (id, op) in ops.iter().enumerate() {
            if started.elapsed().as_secs_f64() >= run.seconds {
                break;
            }
            let ranks: &[usize] = match op {
                Op::Search(rank) => std::slice::from_ref(rank),
                Op::Batch(ranks) => ranks,
                Op::Reload(v) => {
                    epochs[venue_shard[*v]] += 1;
                    continue;
                }
            };
            for &rank in ranks {
                let replayed =
                    replayer.replay(id as u64, &inputs.bodies[rank], epochs[body_shard[rank]]);
                outcome.attempted += 1;
                outcome.fail(
                    "traced replay differs from the oracle",
                    u64::from(!right(rank, replayed)),
                );
            }
        }
        // Single searches only, timed from send rather than due time.
        let served: HashMap<u64, f64> = phase
            .exchanges
            .iter()
            .filter(|e| matches!(ops[e.op], Op::Search(_)))
            .map(|e| (e.op as u64, e.latency_ms - e.lag_ms))
            .collect();
        let mut per_layer = replayer.metrics(&served);
        per_layer.extend(persist_metrics(&persist, Some(stats::median(&reload_ms))));
        per_layer.extend(distance_metrics(&per_layer, from_door_ms));
        let parse_us = layers::http_parse_us(&wire, &mut replayer.tracer);
        per_layer.push(("http.parse_us", parse_us, "us"));
        per_layer.extend(counters.metrics());
        per_layer.push(("router.hop_ms", splice.hop_ms, "ms"));
        per_layer.push(("router.batch_fanout", splice.fanout, "count/batch"));
        per_layer.push((
            "router.failovers",
            router_after.1 - router_before.1,
            "count",
        ));
        per_layer.push(("sched_lag_ms", sched_lag_ms, "ms"));
        per_layer.push(("latency_p90_ms", p90, "ms"));
        per_layer.push(("latency_p99_ms", supported_p99(&phase.latencies()), "ms"));
        write_trace(&replayer, run, &mut outcome)?;
        outcome.per_layer = per_layer;
    }
    Ok(outcome)
}

/// What the post-measurement router probe found.
struct SpliceCheck {
    attempted: u64,
    failed: u64,
    /// Median via-router latency minus median direct-to-backend latency of
    /// the same cached search bodies, milliseconds.
    hop_ms: f64,
    /// Backend exchanges the router forwarded per batch call.
    fanout: f64,
}

/// Sends a sample of the schedule's batches through the router and each
/// shard's sub-batch straight to its backend: the router's spliced entries
/// must equal the backends' (cached, so byte-stable) bytes. Then times a
/// sample of searches via the router and directly, alternating, for the
/// router hop.
fn splice_check(
    cluster: &Cluster,
    inputs: &MallInputs,
    ops: &[Op],
    body_shard: &[usize],
) -> SpliceCheck {
    const BATCHES: usize = 40;
    const HOPS: usize = 200;
    let router = cluster.router.addr();
    let mut via_router = load::client(router);
    let mut direct: Vec<_> = cluster
        .backends
        .iter()
        .map(|b| load::client(b.addr()))
        .collect();
    let mut check = SpliceCheck {
        attempted: 0,
        failed: 0,
        hop_ms: 0.0,
        fanout: 0.0,
    };
    let forwarded_before = router_counters(router).map_or(0.0, |c| c.0);
    let batches: Vec<&Vec<usize>> = ops
        .iter()
        .filter_map(|op| match op {
            Op::Batch(ranks) => Some(ranks),
            _ => None,
        })
        .take(BATCHES)
        .collect();
    for ranks in &batches {
        // Cache every body first: a batch repeating a body computes each
        // copy afresh, while the direct sub-batch would replay one of them.
        for &rank in ranks.iter() {
            load::send(&mut via_router, "/v1/search", &inputs.bodies[rank]);
        }
        check.attempted += 1;
        let (status, body) = load::send(
            &mut via_router,
            "/v1/search/batch",
            &batch_body(inputs, ranks),
        );
        let spliced = batch_entries(&body).filter(|e| status == 200 && e.len() == ranks.len());
        let Some(spliced) = spliced else {
            check.failed += 1;
            continue;
        };
        let mut by_shard: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (slot, &rank) in ranks.iter().enumerate() {
            by_shard.entry(body_shard[rank]).or_default().push(slot);
        }
        let mut same = true;
        for (shard, slots) in by_shard {
            let sub: Vec<usize> = slots.iter().map(|&s| ranks[s]).collect();
            let (status, reply) = load::send(
                &mut direct[shard],
                "/v1/search/batch",
                &batch_body(inputs, &sub),
            );
            same &= status == 200
                && batch_entries(&reply).is_some_and(|entries| {
                    entries.len() == slots.len()
                        && slots
                            .iter()
                            .zip(entries)
                            .all(|(&slot, entry)| spliced[slot] == entry)
                });
        }
        check.failed += u64::from(!same);
    }
    let forwarded_after = router_counters(router).map_or(0.0, |c| c.0);
    if !batches.is_empty() {
        check.fanout = (forwarded_after - forwarded_before) / batches.len() as f64;
    }
    let mut routed = Vec::new();
    let mut straight = Vec::new();
    for (body, &shard) in inputs.bodies.iter().zip(body_shard).take(HOPS) {
        // Warm both paths' caches so the difference is the hop alone.
        load::send(&mut via_router, "/v1/search", body);
        let started = Instant::now();
        let (a, _) = load::send(&mut via_router, "/v1/search", body);
        routed.push(started.elapsed().as_secs_f64() * 1e3);
        let started = Instant::now();
        let (b, _) = load::send(&mut direct[shard], "/v1/search", body);
        straight.push(started.elapsed().as_secs_f64() * 1e3);
        check.attempted += 1;
        check.failed += u64::from(a != 200 || b != 200);
    }
    check.hop_ms = stats::median(&routed) - stats::median(&straight);
    check
}

/// Runs a workload by name.
pub fn run_workload(name: &str, run: &Run) -> std::io::Result<Outcome> {
    match name {
        "koe-mega" => koe_mega(run),
        "toe-mega" => toe_mega(run),
        "wire-mall" => wire_mall(run),
        other => Err(fail(format!(
            "unknown workload `{other}` (expected koe-mega, toe-mega or wire-mall)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::Exchange;

    fn exchange(op: usize, seq: usize, sent_s: f64, latency_ms: f64) -> Exchange {
        Exchange {
            op,
            seq,
            sent_s,
            latency_ms,
            lag_ms: 0.0,
            status: 200,
            body: String::new(),
        }
    }

    #[test]
    fn rounds_keep_each_requests_best_latency_over_complete_rounds() {
        // A pool of two, two complete rounds and a cut third.
        let phase = Phase {
            exchanges: vec![
                exchange(1, 0, 0.0, 30.0),
                exchange(0, 1, 0.03, 10.0),
                exchange(0, 2, 0.04, 20.0),
                exchange(1, 3, 0.06, 20.0),
                exchange(0, 4, 0.08, 1.0),
            ],
            elapsed_s: 0.1,
        };
        let r = rounds(&phase, 2);
        assert_eq!(r.complete, 2);
        assert_eq!(r.best_ms, vec![10.0, 20.0]);
        // Round one spans 0 → 40 ms, round two 40 → 80 ms.
        assert_eq!(r.qps.len(), 2);
        assert!((r.qps[0] - 50.0).abs() < 1e-9, "{:?}", r.qps);
        assert!((r.qps[1] - 50.0).abs() < 1e-9, "{:?}", r.qps);
    }

    #[test]
    fn windows_report_the_lowest_percentile_of_any_window() {
        // Two 1 s windows; the second is uniformly faster.
        let mut exchanges = Vec::new();
        for i in 0..200 {
            let t = i as f64 / 100.0;
            let ms = if t < 1.0 {
                10.0 + i as f64
            } else {
                1.0 + (i - 100) as f64 / 10.0
            };
            exchanges.push(exchange(i, i, t, ms));
        }
        let phase = Phase {
            exchanges,
            elapsed_s: 2.0,
        };
        let (p50, p90, shown) = best_window_percentiles(&phase, 2.5, 1.0);
        assert_eq!(shown.len(), 2);
        assert_eq!(p50, 1.0 + 4.9);
        assert_eq!(p90, 1.0 + 8.9);
    }
}
