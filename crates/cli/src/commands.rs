//! The `ikrq` subcommands.
//!
//! Every command is a pure function from parsed arguments to a textual
//! report (what the binary prints to stdout), so the integration tests can
//! drive the tool without spawning processes.

use crate::args::ParsedArgs;
use crate::error::CliError;
use crate::Result;
use ikrq_core::extensions::SoftDeltaConfig;
use ikrq_core::{
    IkrqQuery, IkrqService, MetricsDetail, SearchRequest, SearchResponse, VariantConfig,
};
use indoor_data::real_mall::RealMallConfig;
use indoor_data::{
    mega_venue, paper_example_venue, MegaVenueConfig, RealMallSimulator, SyntheticVenueConfig,
    Venue,
};
use indoor_keywords::{KeywordDirectory, QueryKeywords};
use indoor_persist::{binary, json, LoadedVenue, ResultDocument, VenueDocument};
use indoor_space::{FloorId, IndoorPoint, IndoorSpace};
use indoor_viz::{render_floor, render_routes_on_floor, RenderStyle};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

/// The usage text printed by `ikrq help`.
pub const USAGE: &str = "\
ikrq — indoor top-k keyword-aware routing (IKRQ, ICDE 2020 reproduction)

USAGE:
    ikrq <command> [--flag value ...]

COMMANDS:
    generate   Generate a venue document
               --kind example|synthetic|real|mega   (default: synthetic)
               --floors N   --seed S           (synthetic/real/mega)
               --partitions N                  target partition count (mega only)
               --out PATH                      write the venue as JSON
               --save-indexed PATH             write the binary venue file: records,
                                               the built model's columns and a
                                               pre-built index (every command adopts
                                               them instead of rebuilding)
    stats      Print venue statistics
               --venue PATH                    venue file (JSON or binary, told
                                               apart by content)
    query      Run an IKRQ against a venue
               --venue PATH                    venue document
               --from x,y[,floor]  --to x,y[,floor]
               --delta METERS      --keywords \"w1,w2,...\"
               --k N (default 3)   --alpha A (0.5)   --tau T (0.1)
               --algorithm toe|koe|toe-d|toe-b|toe-p|koe-d|koe-b|koe-star
               --budget N                      cap on expanded stamps
               --slack FRACTION                soft distance constraint
               --out PATH                      also save results as JSON
    batch      Run a saved query workload against a venue (parallel batch)
               --venue PATH   --workload PATH  workload document (JSON)
               --algorithm ...  --budget N     as for query
               --out PATH                      save all results as JSON
    render     Render a floorplan (optionally with the routes of a query)
               --venue PATH   --floor N (default 0)   --out PATH.svg
               --no-labels    --door-ids
               --from --to --delta --keywords --k --alpha --tau
               --algorithm --budget            as for query, to overlay its routes
    serve      Serve venues over HTTP/JSON (protocol v1, docs/PROTOCOL.md)
               --venues \"a.json,b.json\"        venue documents to host
               --addr HOST:PORT                (default 127.0.0.1:8080)
               --workers N                     worker threads (default: cores)
               --max-in-flight N               concurrent-request bound (default 4x workers)
               --max-connections N             open-connection bound (default 4x max-in-flight)
               --keep-alive true|false         connection reuse (default true)
               --idle-timeout SECONDS          close idle connections after (default 30)
               --max-requests-per-conn N       recycle connections after N requests (default: unlimited)
               --koe-rows-cap N                bound on cached KoE* distance rows per venue
                                               (default: sized from a 256 MiB budget)
               --cache-capacity N              response-cache entries (default 4096, 0 disables)
               --cache-shards N                response-cache shards (default 8)
               (POST /v1/admin/reload re-reads a venue's document from disk
                and swaps it in without dropping connections)
    route      Front a cluster of serve processes: consistent-hash venue
               placement, replica failover, fan-out batches (docs/ROUTER.md)
               --shards \"a=H:P,H:P;b=H:P\"      shard name = replica addresses;
                                               replicas comma-separated, shards
                                               semicolon-separated (required)
               --addr HOST:PORT                (default 127.0.0.1:8080)
               --workers N                     worker threads (default: cores)
               --vnodes N                      ring points per shard (default 64)
               --backend-timeout SECONDS       per-request backend budget (default 10)
               --probe-interval SECONDS        health-probe cadence (default 0.5)
               --fail-threshold N              consecutive failures before a
                                               backend is routed around (default 3)
    help       Show this message
";

/// Runs a parsed command line and returns the report to print.
pub fn run(args: &ParsedArgs) -> Result<String> {
    let command: fn(&ParsedArgs) -> Result<String> = match args.command.as_str() {
        "help" => |_| Ok(USAGE.to_string()),
        "generate" => generate,
        "stats" => stats,
        "query" => query,
        "batch" => batch,
        "render" => render,
        "serve" => serve,
        "route" => route,
        other => return Err(CliError::UnknownCommand(other.to_string())),
    };
    args.accept_only(&listed_flags(&args.command))?;
    command(args)
}

/// The flags `USAGE` lists in `command`'s section, which starts at the
/// command's name indented four spaces. A command accepts exactly these,
/// so a typo or a retired flag is a usage error instead of being ignored.
fn listed_flags(command: &str) -> Vec<&'static str> {
    let mut section = "";
    let mut flags = Vec::new();
    for line in USAGE.lines() {
        let head = line
            .strip_prefix("    ")
            .filter(|rest| !rest.starts_with(' '));
        if let Some(head) = head {
            section = head.split_whitespace().next().unwrap_or_default();
        }
        if section == command {
            let words = line.split_whitespace();
            flags.extend(words.filter_map(|word| word.strip_prefix("--")));
        }
    }
    flags
}

// ---------------------------------------------------------------------
// generate
// ---------------------------------------------------------------------

fn build_venue(args: &ParsedArgs) -> Result<(Venue, String, f64)> {
    let kind = args.get("kind").unwrap_or("synthetic");
    let seed = args.get_u64("seed")?.unwrap_or(42);
    match kind {
        "example" => {
            let example = paper_example_venue();
            Ok((example.venue, "fig1-example".to_string(), 10.0))
        }
        "synthetic" => {
            let floors = args.get_usize("floors")?.unwrap_or(5);
            let config = SyntheticVenueConfig {
                seed,
                ..SyntheticVenueConfig::default()
            }
            .with_floors(floors);
            let venue = Venue::synthetic(&config)?;
            Ok((venue, format!("synthetic-{floors}f-seed{seed}"), 25.0))
        }
        "real" => {
            let mut config = RealMallConfig {
                seed,
                ..RealMallConfig::default()
            };
            if let Some(floors) = args.get_usize("floors")? {
                config.floors = floors;
            }
            let venue = RealMallSimulator::generate(&config)?;
            Ok((venue, format!("real-mall-seed{seed}"), 25.0))
        }
        "mega" => {
            let partitions = args.get_usize("partitions")?.unwrap_or(1_000);
            let mut config = MegaVenueConfig::sized(partitions, seed);
            if let Some(floors) = args.get_usize("floors")? {
                config.floors = floors;
            }
            let venue = mega_venue(&config)?;
            Ok((venue, format!("mega-{partitions}p-seed{seed}"), 32.0))
        }
        other => Err(CliError::Usage(format!(
            "unknown venue kind `{other}` (expected example, synthetic, real or mega)"
        ))),
    }
}

fn generate(args: &ParsedArgs) -> Result<String> {
    let out = args.get("out").map(str::to_string);
    let save_indexed = args.get("save-indexed").map(str::to_string);
    if out.is_none() && save_indexed.is_none() {
        return Err(CliError::Usage(
            "missing output flag: give `--out PATH`, `--save-indexed PATH` or both".into(),
        ));
    }
    let (venue, name, grid_cell) = build_venue(args)?;
    let doc = VenueDocument::from_venue(&venue.space, &venue.directory, grid_cell, Some(name));
    let mut report = String::new();
    if let Some(out) = &out {
        json::save_venue_json(&doc, out)?;
        let _ = writeln!(
            report,
            "wrote {} ({} partitions, {} doors, {} i-words, {} t-words)",
            out,
            doc.num_partitions(),
            doc.num_doors(),
            doc.num_iwords(),
            doc.num_twords(),
        );
    }
    if let Some(path) = &save_indexed {
        // The persisted index must bind to the directory a loader will
        // rebuild from the document (interned word ids are insertion-order
        // artifacts), so build it from the round-tripped document rather
        // than the generator's in-memory venue.
        let (space, directory) = doc.build()?;
        let engine = ikrq_core::IkrqEngine::new(space, directory);
        let index = engine
            .index()
            .expect("accelerated engines build an index at construction");
        binary::save_venue_columnar(&doc, engine.space(), engine.directory(), Some(index), path)?;
        let _ = writeln!(
            report,
            "wrote {} (columnar + pre-indexed: {} built in {:.2} ms, {:.2} MB)",
            path,
            doc.name.as_deref().unwrap_or("venue"),
            index.build_micros() as f64 / 1e3,
            index.estimated_bytes() as f64 / (1024.0 * 1024.0),
        );
    }
    Ok(report)
}

// ---------------------------------------------------------------------
// stats
// ---------------------------------------------------------------------

/// Builds the engine for a venue file; every command takes its venue from
/// here. The file goes through the one venue loader, so a usable persisted
/// columnar document body and index section are adopted instead of
/// rebuilt. Any section defect (corruption, version skew, directory
/// mismatch) degrades to a fresh build with a warning on stderr — a stale
/// section never prevents a venue from serving.
fn build_serving_engine(
    path: &str,
    koe_rows_cap: Option<usize>,
) -> Result<(ikrq_core::IkrqEngine, Option<String>)> {
    let LoadedVenue {
        name,
        space,
        directory,
        index: section,
        stats,
    } = binary::load_venue_model_file(path)?;
    if let Some(reason) = &stats.degraded {
        eprintln!(
            "warning: {path}: columnar document not adopted ({reason}); rebuilt from records"
        );
    }
    let mut engine = match section {
        indoor_persist::IndexSection::Present(prebuilt) => match prebuilt.into_index(&directory) {
            Ok(index) => ikrq_core::IkrqEngine::with_prebuilt_index(space, directory, index),
            Err(reason) => {
                eprintln!("warning: {path}: persisted index not loaded ({reason}); rebuilding");
                ikrq_core::IkrqEngine::new(space, directory)
            }
        },
        section => {
            if let indoor_persist::IndexSection::Unusable(reason) = &section {
                eprintln!("warning: {path}: persisted index not loaded ({reason}); rebuilding");
            }
            ikrq_core::IkrqEngine::new(space, directory)
        }
    };
    if let Some(cap) = koe_rows_cap {
        engine.set_koe_rows_cap(cap);
    }
    engine.set_document_stats(stats);
    Ok((engine, name))
}

fn stats(args: &ParsedArgs) -> Result<String> {
    let path = args.require("venue")?;
    let (engine, name) = build_serving_engine(path, None)?;
    let directory = engine.directory();
    let stats = engine.space().stats();
    let mut report = String::new();
    let _ = writeln!(report, "venue: {}", name.as_deref().unwrap_or(path));
    let _ = writeln!(report, "floors: {}", stats.floors);
    let _ = writeln!(report, "partitions: {}", stats.partitions);
    for (kind, count) in &stats.partitions_by_kind {
        let _ = writeln!(report, "  {kind}: {count}");
    }
    let _ = writeln!(report, "doors: {}", stats.doors);
    let _ = writeln!(report, "  vertical: {}", stats.vertical_doors);
    let _ = writeln!(report, "door-graph edges: {}", stats.door_graph_edges);
    let _ = writeln!(
        report,
        "avg doors per partition: {:.2}",
        stats.avg_doors_per_partition
    );
    let _ = writeln!(report, "i-words: {}", directory.vocab().num_iwords());
    let _ = writeln!(report, "t-words: {}", directory.vocab().num_twords());
    let _ = writeln!(
        report,
        "named partitions: {}",
        directory.mappings().named_partitions().count()
    );
    let _ = writeln!(
        report,
        "avg t-words per i-word: {:.2}",
        directory.mappings().avg_twords_per_iword()
    );
    let _ = writeln!(
        report,
        "keyword mappings: {:.2} MB",
        directory.estimated_bytes() as f64 / (1024.0 * 1024.0)
    );
    Ok(report)
}

// ---------------------------------------------------------------------
// query
// ---------------------------------------------------------------------

/// Resolves the `--algorithm` flag to a variant configuration.
pub fn parse_variant(label: Option<&str>) -> Result<VariantConfig> {
    Ok(match label.unwrap_or("toe") {
        "toe" => VariantConfig::toe(),
        "koe" => VariantConfig::koe(),
        "toe-d" => VariantConfig::toe_no_distance(),
        "toe-b" => VariantConfig::toe_no_kbound(),
        "toe-p" => VariantConfig::toe_no_prime(),
        "koe-d" => VariantConfig::koe_no_distance(),
        "koe-b" => VariantConfig::koe_no_kbound(),
        "koe-star" | "koe*" => VariantConfig::koe_star(),
        other => {
            return Err(CliError::Usage(format!(
                "unknown algorithm `{other}` (see `ikrq help`)"
            )))
        }
    })
}

fn build_query(args: &ParsedArgs) -> Result<IkrqQuery> {
    let (fx, fy, ff) = args
        .get_point("from")?
        .ok_or_else(|| CliError::Usage("missing required flag `--from`".into()))?;
    let (tx, ty, tf) = args
        .get_point("to")?
        .ok_or_else(|| CliError::Usage("missing required flag `--to`".into()))?;
    let delta = args
        .get_f64("delta")?
        .ok_or_else(|| CliError::Usage("missing required flag `--delta`".into()))?;
    let keywords = args.get_list("keywords");
    if keywords.is_empty() {
        return Err(CliError::Usage(
            "missing required flag `--keywords` (comma-separated list)".into(),
        ));
    }
    let keywords = QueryKeywords::new(keywords.iter().map(String::as_str))?;
    let k = args.get_usize("k")?.unwrap_or(3);
    let mut query = IkrqQuery::new(
        IndoorPoint::from_xy(fx, fy, FloorId(ff)),
        IndoorPoint::from_xy(tx, ty, FloorId(tf)),
        delta,
        keywords,
        k,
    );
    if let Some(alpha) = args.get_f64("alpha")? {
        query = query.with_alpha(alpha);
    }
    if let Some(tau) = args.get_f64("tau")? {
        query = query.with_tau(tau);
    }
    Ok(query)
}

fn describe_route(
    space: &IndoorSpace,
    directory: &KeywordDirectory,
    route: &ikrq_core::ResultRoute,
) -> String {
    let mut shops: Vec<String> = Vec::new();
    for &v in route.route.legs() {
        if let Some(name) = directory
            .partition_iword(v)
            .and_then(|w| directory.resolve(w))
        {
            let name = name.to_string();
            if !shops.contains(&name) {
                shops.push(name);
            }
        }
    }
    let _ = space;
    format!(
        "score {:.4}  relevance {:.3}  distance {:.1} m  doors {}  via [{}]",
        route.score,
        route.relevance,
        route.distance,
        route.route.doors().len(),
        shops.join(", "),
    )
}

/// Loads a venue file and hosts it on a fresh single-venue service,
/// returning the service, the venue id it is registered under, and the
/// shared engine (for extension paths and route descriptions).
fn load_service(path: &str) -> Result<(IkrqService, String, Arc<ikrq_core::IkrqEngine>)> {
    let (engine, name) = build_serving_engine(path, None)?;
    let venue_id = name.unwrap_or_else(|| path.to_string());
    let engine = Arc::new(engine);
    let service = IkrqService::new();
    service
        .register_engine(&venue_id, Arc::clone(&engine))
        .map_err(CliError::Engine)?;
    Ok((service, venue_id, engine))
}

/// Builds the service request for the common query flags.
fn build_request(args: &ParsedArgs, venue_id: &str) -> Result<SearchRequest> {
    let query = build_query(args)?;
    let variant = parse_variant(args.get("algorithm"))?;
    let mut builder = SearchRequest::builder(venue_id)
        .query(query)
        .variant(variant)
        .metrics(MetricsDetail::Full);
    if let Some(budget) = args.get_u64("budget")? {
        builder = builder.expansion_budget(budget);
    }
    builder.build().map_err(CliError::Engine)
}

fn report_response(report: &mut String, engine: &ikrq_core::IkrqEngine, response: &SearchResponse) {
    let metrics = response.to_outcome().metrics;
    let _ = writeln!(
        report,
        "{}: {} routes, {:.2} ms, peak {:.2} MB, {} stamps expanded",
        response.variant,
        response.results.len(),
        response.timing.search_ms,
        metrics.peak_memory_mb(),
        metrics.stamps_expanded,
    );
    for (i, r) in response.results.routes().iter().enumerate() {
        let _ = writeln!(
            report,
            "  #{:<2} {}",
            i + 1,
            describe_route(engine.space(), engine.directory(), r)
        );
    }
}

fn query(args: &ParsedArgs) -> Result<String> {
    let path = args.require("venue")?;
    let (service, venue_id, engine) = load_service(path)?;
    let request = build_request(args, &venue_id)?;

    let mut report = String::new();
    let outcome = if let Some(slack) = args.get_f64("slack")? {
        let soft = engine.search_soft(
            &request.query,
            request.options.effective_variant(),
            SoftDeltaConfig::with_slack(slack),
        )?;
        let _ = writeln!(
            report,
            "{}: {} routes (soft ∆ = {:.1} m), {:.2} ms",
            soft.label,
            soft.routes.len(),
            soft.relaxed_delta,
            soft.metrics.elapsed_millis(),
        );
        for (i, r) in soft.routes.iter().enumerate() {
            let over = if r.exceeds_hard_delta {
                "  (over ∆)"
            } else {
                ""
            };
            let _ = writeln!(
                report,
                "  #{:<2} soft score {:.4}  {}{}",
                i + 1,
                r.soft_score,
                describe_route(engine.space(), engine.directory(), &r.result),
                over,
            );
        }
        None
    } else {
        let response = service.search(&request)?;
        report_response(&mut report, &engine, &response);
        Some(response.to_outcome())
    };

    if let Some(out) = args.get("out") {
        let mut results = ResultDocument::new(format!("ikrq query against {path}"));
        if let Some(outcome) = outcome {
            results.push(&request.query, outcome);
        } else {
            // Soft-constraint runs save the underlying relaxed outcome.
            let hard = service.search(&request)?;
            results.push(&request.query, hard.to_outcome());
        }
        json::save_json(&results, out)?;
        let _ = writeln!(report, "results written to {out}");
    }
    Ok(report)
}

// ---------------------------------------------------------------------
// batch
// ---------------------------------------------------------------------

fn batch(args: &ParsedArgs) -> Result<String> {
    let venue_path = args.require("venue")?;
    let workload_path = args.require("workload")?;
    let (service, venue_id, _engine) = load_service(venue_path)?;
    let variant = parse_variant(args.get("algorithm"))?;

    let workload = json::load_workload_json(workload_path)?;
    let queries = workload.to_queries()?;
    if queries.is_empty() {
        return Err(CliError::Usage(format!(
            "workload `{workload_path}` contains no queries"
        )));
    }
    let budget = args.get_u64("budget")?;
    let requests: Vec<SearchRequest> = queries
        .iter()
        .map(|query| {
            let mut builder = SearchRequest::builder(&venue_id)
                .query(query.clone())
                .variant(variant);
            if let Some(budget) = budget {
                builder = builder.expansion_budget(budget);
            }
            builder.build().map_err(CliError::Engine)
        })
        .collect::<Result<_>>()?;

    let started = std::time::Instant::now();
    let responses = service.search_batch(&requests);
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

    let mut report = String::new();
    let mut ok = 0usize;
    let mut failed = 0usize;
    let mut search_ms_total = 0.0;
    let mut results = ResultDocument::new(format!(
        "ikrq batch of {} queries from {workload_path} against {venue_path}",
        requests.len()
    ));
    for (request, response) in requests.iter().zip(&responses) {
        match response {
            Ok(response) => {
                ok += 1;
                search_ms_total += response.timing.search_ms;
                results.push(&request.query, response.to_outcome());
            }
            Err(error) => {
                failed += 1;
                let _ = writeln!(report, "  query #{} failed: {error}", ok + failed);
            }
        }
    }
    let _ = writeln!(
        report,
        "{}: {ok} ok, {failed} failed in {wall_ms:.2} ms wall \
         ({:.2} ms summed search time, {:.2} ms/query)",
        variant.label(),
        search_ms_total,
        search_ms_total / ok.max(1) as f64,
    );
    if let Some(out) = args.get("out") {
        json::save_json(&results, out)?;
        let _ = writeln!(report, "results written to {out}");
    }
    Ok(report)
}

// ---------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------

/// Builds the service + server configuration from the `serve` flags and
/// starts the HTTP front end. Exposed (crate-public via the library) so the
/// integration tests can bind an ephemeral port and shut the server down;
/// the `serve` command itself blocks forever on the returned handle.
pub fn start_server(args: &ParsedArgs) -> Result<ikrq_server::ServerHandle> {
    let paths = args.get_list("venues");
    if paths.is_empty() {
        return Err(CliError::Usage(
            "missing required flag `--venues` (comma-separated venue documents)".into(),
        ));
    }
    let koe_rows_cap = args.get_usize("koe-rows-cap")?;
    if koe_rows_cap == Some(0) {
        return Err(CliError::Usage(
            "flag `--koe-rows-cap` must be at least 1".into(),
        ));
    }
    let service = std::sync::Arc::new(IkrqService::new());
    let mut documents: std::collections::BTreeMap<String, String> =
        std::collections::BTreeMap::new();
    for path in &paths {
        let (engine, name) = build_serving_engine(path, koe_rows_cap)?;
        let venue_id = name.unwrap_or_else(|| path.clone());
        service
            .register_engine(&venue_id, std::sync::Arc::new(engine))
            .map_err(CliError::Engine)?;
        documents.insert(venue_id, path.clone());
    }
    // Hot reload re-reads the venue's document from disk — edit the file,
    // `POST /v1/admin/reload`, and the new engine swaps in atomically.
    let reloader: ikrq_server::VenueReloader = std::sync::Arc::new(move |venue_id: &str| {
        let path = documents
            .get(venue_id)
            .ok_or_else(|| format!("venue `{venue_id}` was not loaded from a document"))?;
        let (engine, _) =
            build_serving_engine(path, koe_rows_cap).map_err(|error| error.to_string())?;
        Ok(std::sync::Arc::new(engine))
    });

    let mut config = ikrq_server::ServerConfig::default();
    if let Some(workers) = args.get_usize("workers")? {
        config.workers = workers;
    }
    if let Some(max_in_flight) = args.get_usize("max-in-flight")? {
        config.max_in_flight = max_in_flight;
    }
    if let Some(capacity) = args.get_usize("cache-capacity")? {
        config.cache.capacity = capacity;
    }
    if let Some(shards) = args.get_usize("cache-shards")? {
        config.cache.shards = shards;
    }
    if let Some(keep_alive) = args.get_bool("keep-alive")? {
        config.keep_alive = keep_alive;
    }
    if let Some(idle_timeout) = args.get_f64("idle-timeout")? {
        // try_from_secs_f64 also rejects NaN/negative/overflowing values,
        // which from_secs_f64 would panic on (e.g. `--idle-timeout 1e30`).
        match std::time::Duration::try_from_secs_f64(idle_timeout) {
            // Guard the rounded Duration, not the f64: 1e-10 is positive
            // but rounds to zero, which would close every connection the
            // moment it is parked.
            Ok(duration) if !duration.is_zero() => config.idle_timeout = duration,
            _ => {
                return Err(CliError::Usage(
                    "flag `--idle-timeout` expects a positive number of seconds".into(),
                ))
            }
        }
    }
    if let Some(max_requests) = args.get_usize("max-requests-per-conn")? {
        config.max_requests_per_conn = max_requests;
    }
    if let Some(max_connections) = args.get_usize("max-connections")? {
        config.max_connections = max_connections;
    }
    let addr = args.get("addr").unwrap_or("127.0.0.1:8080");
    let handle = ikrq_server::serve_with_reloader(service, addr, config, reloader)?;
    Ok(handle)
}

fn serve(args: &ParsedArgs) -> Result<String> {
    let handle = start_server(args)?;
    // The listening line goes to stderr immediately — the stdout report
    // only flushes when the server stops, which for a foreground server
    // is never.
    eprintln!(
        "ikrq-server listening on http://{} (protocol v1; ctrl-c to stop)",
        handle.local_addr()
    );
    let addr = handle.local_addr();
    handle.join();
    Ok(format!("server on {addr} stopped\n"))
}

// ---------------------------------------------------------------------
// route
// ---------------------------------------------------------------------

/// A flag holding a positive duration in (possibly fractional) seconds.
fn positive_secs(args: &ParsedArgs, name: &str) -> Result<Option<std::time::Duration>> {
    let Some(value) = args.get_f64(name)? else {
        return Ok(None);
    };
    match std::time::Duration::try_from_secs_f64(value) {
        Ok(duration) if !duration.is_zero() => Ok(Some(duration)),
        _ => Err(CliError::Usage(format!(
            "flag `--{name}` expects a positive number of seconds"
        ))),
    }
}

/// Builds the shard topology + router configuration from the `route` flags
/// and starts the front tier. Exposed so the integration tests can bind an
/// ephemeral port and shut the router down; the `route` command itself
/// blocks forever on the returned handle.
pub fn start_router(args: &ParsedArgs) -> Result<ikrq_router::RouterHandle> {
    let specs = args.require("shards")?;
    let mut shards = Vec::new();
    for spec in specs.split(';').map(str::trim).filter(|s| !s.is_empty()) {
        shards.push(ikrq_router::ShardSpec::parse(spec).map_err(CliError::Usage)?);
    }
    if shards.is_empty() {
        return Err(CliError::Usage(
            "flag `--shards` expects at least one `name=host:port` spec".into(),
        ));
    }
    let mut config = ikrq_router::RouterConfig::default();
    if let Some(workers) = args.get_usize("workers")? {
        config.server.workers = workers;
    }
    if let Some(vnodes) = args.get_usize("vnodes")? {
        config.vnodes = vnodes;
    }
    if let Some(timeout) = positive_secs(args, "backend-timeout")? {
        config.backend_timeout = timeout;
    }
    if let Some(interval) = positive_secs(args, "probe-interval")? {
        config.probe_interval = interval;
    }
    if let Some(threshold) = args.get_usize("fail-threshold")? {
        config.fail_threshold = u32::try_from(threshold).map_err(|_| {
            CliError::Usage(format!(
                "flag `--fail-threshold` is out of range: {threshold}"
            ))
        })?;
        if config.fail_threshold == 0 {
            return Err(CliError::Usage(
                "flag `--fail-threshold` must be at least 1".into(),
            ));
        }
    }
    let addr = args.get("addr").unwrap_or("127.0.0.1:8080");
    Ok(ikrq_router::route(shards, addr, config)?)
}

fn route(args: &ParsedArgs) -> Result<String> {
    let handle = start_router(args)?;
    eprintln!(
        "ikrq-router fronting {} shard(s) on http://{} (protocol v1; ctrl-c to stop)",
        handle.shard_count(),
        handle.local_addr()
    );
    // A foreground router runs until killed; the handle keeps the server
    // and prober alive while this thread sleeps.
    loop {
        std::thread::park();
    }
}

// ---------------------------------------------------------------------
// render
// ---------------------------------------------------------------------

fn render(args: &ParsedArgs) -> Result<String> {
    let path = args.require("venue")?;
    let out = args.require("out")?.to_string();
    let floor = FloorId(args.get_i32("floor")?.unwrap_or(0));
    let (engine, _) = build_serving_engine(path, None)?;
    let engine = Arc::new(engine);
    let (space, directory) = (engine.space(), engine.directory());

    let mut style = RenderStyle::default();
    if args.switch("no-labels") {
        style.show_labels = false;
    }
    if args.switch("door-ids") {
        style.show_door_ids = true;
    }
    // Large venues render better compact.
    if space.num_partitions() > 200 {
        style.scale = 0.5;
        style.show_labels = false;
    }

    let mut report = String::new();
    let svg = if args.get("from").is_some() {
        // Overlay the routes of a query.
        let service = IkrqService::new();
        service
            .register_engine("render", Arc::clone(&engine))
            .map_err(CliError::Engine)?;
        let request = build_request(args, "render")?;
        let response = service.search(&request)?;
        let routes: Vec<&indoor_space::Route> =
            response.results.routes().iter().map(|r| &r.route).collect();
        let _ = writeln!(
            report,
            "overlaying {} route(s) from {}",
            routes.len(),
            response.variant
        );
        render_routes_on_floor(space, &routes, floor, &style)?
    } else {
        render_floor(space, Some(directory), floor, &style)?
    };

    if let Some(parent) = Path::new(&out).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(&out, &svg)?;
    let _ = writeln!(report, "wrote {out} ({} bytes)", svg.len());
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_mentions_every_command() {
        for cmd in [
            "generate", "stats", "query", "batch", "render", "serve", "route", "help",
        ] {
            assert!(USAGE.contains(cmd), "usage should mention {cmd}");
        }
    }

    #[test]
    fn unknown_commands_are_rejected() {
        let args = ParsedArgs::parse(["frobnicate"]).unwrap();
        assert!(matches!(run(&args), Err(CliError::UnknownCommand(_))));
    }

    #[test]
    fn commands_accept_only_the_flags_usage_lists() {
        assert_eq!(
            listed_flags("serve").join(" "),
            "venues addr workers max-in-flight max-connections keep-alive idle-timeout \
             max-requests-per-conn koe-rows-cap cache-capacity cache-shards"
        );
        assert_eq!(
            listed_flags("route").join(" "),
            "shards addr workers vnodes backend-timeout probe-interval fail-threshold"
        );
        // Retired flags and typos are usage errors naming the flag, raised
        // before any venue is loaded or any port is bound.
        for (flag, value) in [("reactor", "false"), ("index", "false"), ("worker", "4")] {
            let flag = format!("--{flag}");
            let args = ParsedArgs::parse(["serve", "--venues", "v.json", &flag, value]).unwrap();
            match run(&args) {
                Err(CliError::Usage(message)) => {
                    assert!(message.contains(&format!("`{flag}`")), "{message}")
                }
                other => panic!("serve {flag} {value}: expected a usage error, got {other:?}"),
            }
        }
    }

    #[test]
    fn help_returns_the_usage_text() {
        let args = ParsedArgs::parse::<[&str; 0], &str>([]).unwrap();
        assert_eq!(run(&args).unwrap(), USAGE);
    }

    #[test]
    fn variant_parsing_covers_the_table_iii_notation() {
        assert_eq!(parse_variant(None).unwrap(), VariantConfig::toe());
        assert_eq!(parse_variant(Some("koe")).unwrap(), VariantConfig::koe());
        assert_eq!(
            parse_variant(Some("toe-d")).unwrap(),
            VariantConfig::toe_no_distance()
        );
        assert_eq!(
            parse_variant(Some("toe-b")).unwrap(),
            VariantConfig::toe_no_kbound()
        );
        assert_eq!(
            parse_variant(Some("toe-p")).unwrap(),
            VariantConfig::toe_no_prime()
        );
        assert_eq!(
            parse_variant(Some("koe-d")).unwrap(),
            VariantConfig::koe_no_distance()
        );
        assert_eq!(
            parse_variant(Some("koe-b")).unwrap(),
            VariantConfig::koe_no_kbound()
        );
        assert_eq!(
            parse_variant(Some("koe-star")).unwrap(),
            VariantConfig::koe_star()
        );
        assert!(parse_variant(Some("dijkstra")).is_err());
    }

    #[test]
    fn serving_engines_adopt_persisted_indexes_transparently() {
        use indoor_data::{QueryGenerator, WorkloadConfig};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let dir = std::env::temp_dir().join(format!(
            "ikrq-serve-seam-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let bin = dir.join("mega.bin").to_string_lossy().into_owned();
        let json_path = dir.join("mega.json").to_string_lossy().into_owned();

        let args = ParsedArgs::parse([
            "generate",
            "--kind",
            "mega",
            "--partitions",
            "150",
            "--seed",
            "9",
            "--out",
            json_path.as_str(),
            "--save-indexed",
            bin.as_str(),
        ])
        .unwrap();
        let report = run(&args).unwrap();
        assert!(report.contains("pre-indexed"), "report: {report}");

        // The seam `serve` uses: a pre-indexed binary adopts its section, a
        // plain JSON document rebuilds, and the row cap is applied.
        let (loaded, name) = build_serving_engine(&bin, Some(64)).unwrap();
        assert!(loaded.index().is_some_and(|i| i.loaded_from_disk()));
        assert_eq!(loaded.koe_rows_capacity(), 64);
        assert_eq!(name.as_deref(), Some("mega-150p-seed9"));
        let doc_stats = loaded.document_stats().expect("loaded from a document");
        assert_eq!(doc_stats.format_version, 2);
        assert!(doc_stats.adopted_columnar, "stats: {doc_stats:?}");
        assert!(doc_stats.degraded.is_none(), "stats: {doc_stats:?}");
        let (fresh, _) = build_serving_engine(&json_path, None).unwrap();
        assert!(fresh.index().is_some_and(|i| !i.loaded_from_disk()));
        let fresh_stats = fresh.document_stats().expect("loaded from a document");
        assert_eq!(fresh_stats.format_version, 0);
        assert!(!fresh_stats.adopted_columnar);

        let loaded_service = IkrqService::new();
        loaded_service
            .register_engine("m", Arc::new(loaded))
            .unwrap();
        let fresh_service = IkrqService::new();
        fresh_service.register_engine("m", Arc::new(fresh)).unwrap();

        // Same workload through both: responses must be byte-identical.
        let venue = mega_venue(&MegaVenueConfig::sized(150, 9)).unwrap();
        let generator = QueryGenerator::new(&venue);
        let mut rng = StdRng::seed_from_u64(77);
        let workload = WorkloadConfig {
            qw_len: 3,
            beta: 0.5,
            s2t: 60.0,
            eta: 2.0,
            k: 3,
            alpha: 0.5,
            tau: 0.3,
        };
        let instances = generator.generate_batch(&workload, 3, &mut rng);
        assert!(!instances.is_empty(), "the mega venue yields instances");
        for instance in &instances {
            let query = IkrqQuery::new(
                instance.start,
                instance.terminal,
                instance.delta,
                QueryKeywords::new(instance.keywords.iter().cloned()).unwrap(),
                instance.k,
            )
            .with_alpha(instance.alpha)
            .with_tau(instance.tau);
            let request = SearchRequest::builder("m")
                .query(query)
                .variant(VariantConfig::koe())
                .build()
                .unwrap();
            let a = loaded_service.search(&request).unwrap();
            let b = fresh_service.search(&request).unwrap();
            assert_eq!(a.deterministic_json(), b.deterministic_json());
        }

        // Corrupting the index section degrades it to a rebuild, not a
        // failure — and leaves the columnar document adoption intact.
        let mut bytes = std::fs::read(&bin).unwrap();
        let n = bytes.len();
        bytes[n - 5] ^= 0xff;
        std::fs::write(&bin, &bytes).unwrap();
        let (degraded, _) = build_serving_engine(&bin, None).unwrap();
        assert!(degraded.index().is_some_and(|i| !i.loaded_from_disk()));
        assert!(degraded.document_stats().unwrap().adopted_columnar);

        // Corrupting the columnar section degrades the document to a record
        // rebuild — the venue still serves.
        let record_len = u32::from_le_bytes(bytes[10..14].try_into().unwrap()) as usize;
        bytes[14 + record_len + 20] ^= 0xff;
        std::fs::write(&bin, &bytes).unwrap();
        let (rebuilt, _) = build_serving_engine(&bin, None).unwrap();
        let stats = rebuilt.document_stats().unwrap();
        assert!(!stats.adopted_columnar, "stats: {stats:?}");
        assert!(stats.degraded.is_some(), "stats: {stats:?}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generate_requires_an_output_path_and_known_kind() {
        let args = ParsedArgs::parse(["generate", "--kind", "example"]).unwrap();
        assert!(matches!(run(&args), Err(CliError::Usage(_))));
        let args =
            ParsedArgs::parse(["generate", "--kind", "moonbase", "--out", "/tmp/x.json"]).unwrap();
        assert!(matches!(run(&args), Err(CliError::Usage(_))));
    }

    #[test]
    fn query_flag_validation() {
        let args = ParsedArgs::parse([
            "query",
            "--venue",
            "v.json",
            "--to",
            "1,1",
            "--delta",
            "10",
            "--keywords",
            "a",
        ])
        .unwrap();
        // Missing --from is a usage error (before the venue is even loaded,
        // the venue load fails first — accept either error kind but not Ok).
        assert!(run(&args).is_err());

        let args = ParsedArgs::parse(["query", "--venue", "/nonexistent.json"]).unwrap();
        assert!(run(&args).is_err());
    }
}
