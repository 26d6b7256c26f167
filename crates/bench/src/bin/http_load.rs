//! Wire-path throughput: start an `ikrq-server` on an ephemeral port and
//! flood it with concurrent HTTP clients.
//!
//! ```text
//! cargo run --release -p ikrq-bench --bin http_load -- \
//!     [--floors N] [--clients N] [--requests N] [--instances N]
//!     [--algorithm toe|koe|koe-star] [--seed N] [--keep-alive] [--compare]
//!     [--strict-terminal true|false] [--strict-compare]
//!     [--connections 0,64,1024,4096 [--active N] [--external HOST:PORT]]
//!     [--serve HOST:PORT]
//! ```
//!
//! Prints one summary line per configuration: attempted/ok/shed counts,
//! cache hits, queries per second and latency. `--instances 1` serves the
//! best case for the response cache (every request identical);
//! `--instances N` with a large N approximates a cache-hostile workload.
//! `--keep-alive` reuses one connection per client instead of dialing per
//! request; `--compare` runs both modes back to back and prints the
//! close-vs-reuse throughput ratio. `--strict-terminal` pins the ToE
//! terminal-expansion rule per request, and `--strict-compare` runs
//! strict-off then strict-on back to back to quantify its wire-path cost.
//!
//! `--connections` switches to the *parked-connection sweep*: ramp idle
//! keep-alive sessions through the listed counts while `--active` client
//! threads measure q/s and p50/p99 latency at every step — the workload
//! the readiness reactor exists for. Both socket ends count against
//! `RLIMIT_NOFILE` when the server is in-process; for large steps run
//! `http_load --serve HOST:PORT` (same --floors/--seed/--algorithm) in a
//! second process and point the sweep at it with `--external HOST:PORT`.

use ikrq_bench::http_load::{
    host_cores, run_close_vs_keep_alive, run_connection_sweep, run_http_load,
    run_strict_terminal_comparison, ConnectionSweepConfig, HttpLoadConfig, HttpLoadReport,
    SweepStep,
};
use ikrq_bench::workload::{ExperimentContext, VenueKind};
use ikrq_core::VariantConfig;
use indoor_data::WorkloadConfig;

struct Args {
    floors: usize,
    clients: usize,
    requests_per_client: usize,
    instances: usize,
    variant: VariantConfig,
    seed: u64,
    keep_alive: bool,
    compare: bool,
    /// `--strict-terminal`: pin `strict_terminal_expansion` per request.
    strict_terminal: Option<bool>,
    /// `--strict-compare`: run strict off then on, print the cost ratio.
    strict_compare: bool,
    /// `--connections`: parked-session counts of a connection sweep.
    connections: Option<Vec<usize>>,
    /// Active client threads of the sweep.
    active: usize,
    /// Sweep against an already-running server instead of in-process.
    external: Option<std::net::SocketAddr>,
    /// Serve mode: host the synthetic venue on this address and block.
    serve_addr: Option<String>,
    /// Router mode: spawn this many `--serve` child processes, front them
    /// with `ikrq-router`, verify byte-identity, then measure.
    router: Option<usize>,
    /// Extra venue aliases each serve process registers (`0` = auto in
    /// router mode, none in serve mode). The aliases give the ring
    /// something to spread across shards.
    copies: usize,
}

/// The alias a venue copy is registered (and queried) under.
fn copy_id(base: &str, copy: usize) -> String {
    format!("{base}#copy-{copy}")
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        floors: 1,
        clients: 8,
        requests_per_client: 50,
        instances: 8,
        variant: VariantConfig::toe(),
        seed: 2020,
        keep_alive: false,
        compare: false,
        strict_terminal: None,
        strict_compare: false,
        connections: None,
        active: 8,
        external: None,
        serve_addr: None,
        router: None,
        copies: 0,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--floors" => parsed.floors = value("--floors")?.parse().map_err(|e| format!("{e}"))?,
            "--clients" => {
                parsed.clients = value("--clients")?.parse().map_err(|e| format!("{e}"))?
            }
            "--requests" => {
                parsed.requests_per_client =
                    value("--requests")?.parse().map_err(|e| format!("{e}"))?
            }
            "--instances" => {
                parsed.instances = value("--instances")?.parse().map_err(|e| format!("{e}"))?
            }
            "--seed" => parsed.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--keep-alive" => parsed.keep_alive = true,
            "--compare" => parsed.compare = true,
            "--strict-terminal" => {
                parsed.strict_terminal = Some(match value("--strict-terminal")?.as_str() {
                    "true" | "on" | "1" => true,
                    "false" | "off" | "0" => false,
                    other => {
                        return Err(format!(
                            "--strict-terminal expects true|false, got `{other}`"
                        ))
                    }
                })
            }
            "--strict-compare" => parsed.strict_compare = true,
            "--connections" => {
                let list = value("--connections")?;
                let steps: Result<Vec<usize>, _> =
                    list.split(',').map(|step| step.trim().parse()).collect();
                parsed.connections = Some(steps.map_err(|e| format!("--connections: {e}"))?);
            }
            "--active" => parsed.active = value("--active")?.parse().map_err(|e| format!("{e}"))?,
            "--external" => {
                let addr = value("--external")?;
                parsed.external = Some(addr.parse().map_err(|e| format!("--external: {e}"))?);
            }
            "--serve" => parsed.serve_addr = Some(value("--serve")?),
            "--router" => {
                parsed.router = Some(value("--router")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--copies" => parsed.copies = value("--copies")?.parse().map_err(|e| format!("{e}"))?,
            "--algorithm" => {
                parsed.variant = match value("--algorithm")?.as_str() {
                    "toe" => VariantConfig::toe(),
                    "koe" => VariantConfig::koe(),
                    "koe-star" | "koe*" => VariantConfig::koe_star(),
                    other => return Err(format!("unknown algorithm `{other}`")),
                }
            }
            "--help" | "-h" => {
                return Err(
                    "usage: http_load [--floors N] [--clients N] [--requests N] \
                     [--instances N] [--algorithm toe|koe|koe-star] [--seed N] \
                     [--keep-alive] [--compare] [--strict-terminal true|false] \
                     [--strict-compare] \
                     [--connections N,N,... [--active N] [--external HOST:PORT]] \
                     [--serve HOST:PORT [--copies N]] [--router N [--copies N]]"
                        .into(),
                )
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if parsed.clients == 0 || parsed.requests_per_client == 0 || parsed.instances == 0 {
        return Err("--clients, --requests and --instances must be at least 1".into());
    }
    if parsed.active == 0 {
        return Err("--active must be at least 1".into());
    }
    if parsed.connections.as_ref().is_some_and(|c| c.is_empty()) {
        return Err("--connections needs at least one step".into());
    }
    if parsed.router == Some(0) {
        return Err("--router needs at least one shard".into());
    }
    Ok(parsed)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    let ctx = ExperimentContext::new(args.seed, 1.0);
    eprintln!("building the {}-floor synthetic venue ...", args.floors);
    let venue = ctx.venue(VenueKind::Synthetic {
        floors: args.floors,
    });
    let workload = WorkloadConfig {
        s2t: 600.0,
        qw_len: 2,
        ..WorkloadConfig::default()
    };
    let instances = venue.instances(&workload, args.instances, args.seed ^ 0x10ad);
    if instances.is_empty() {
        eprintln!("workload generation produced no instances");
        std::process::exit(1);
    }

    let config = HttpLoadConfig {
        clients: args.clients,
        requests_per_client: args.requests_per_client,
        keep_alive: args.keep_alive,
        strict_terminal: args.strict_terminal,
        ..HttpLoadConfig::default()
    };

    // Serve mode: host the venue for an --external sweep (or as one
    // shard of a --router run) and block.
    if let Some(addr) = &args.serve_addr {
        let service = std::sync::Arc::new(ikrq_core::IkrqService::new());
        service
            .register_engine(&venue.venue_id, std::sync::Arc::clone(&venue.engine))
            .expect("fresh service accepts the venue");
        // Copy aliases share the engine (Arc clones); they exist so a
        // router's consistent-hash ring has multiple venue ids to spread
        // across shards.
        for copy in 0..args.copies {
            service
                .register_engine(
                    copy_id(&venue.venue_id, copy),
                    std::sync::Arc::clone(&venue.engine),
                )
                .expect("copy alias registers");
        }
        let mut server = config.server.clone();
        server.idle_timeout = std::time::Duration::from_secs(600);
        server.max_connections = server.max_connections.max(32 * 1024);
        let handle = match ikrq_server::serve(service, addr.as_str(), server) {
            Ok(handle) => handle,
            Err(error) => {
                eprintln!("--serve failed to bind {addr}: {error}");
                std::process::exit(1);
            }
        };
        eprintln!(
            "http_load serving venue `{}` on http://{} (ctrl-c to stop)",
            venue.venue_id,
            handle.local_addr(),
        );
        handle.join();
        return;
    }

    // Router mode: spawn child backends, front them with ikrq-router,
    // verify byte-identity, then measure the spliced wire path.
    if args.router.is_some() {
        run_router_mode(&args, &venue, &instances, &config);
        return;
    }

    // Sweep mode: ramp parked keep-alive sessions, measure the active
    // subset at every step.
    if let Some(steps) = &args.connections {
        let sweep = ConnectionSweepConfig {
            parked_steps: steps.clone(),
            active_clients: args.active,
            requests_per_client: args.requests_per_client,
            server: config.server.clone(),
            external: args.external,
        };
        eprintln!(
            "sweeping parked connections {:?} with {} active clients x {} requests \
             ({}; host cores: {}) ...",
            sweep.parked_steps,
            sweep.active_clients,
            sweep.requests_per_client,
            args.variant.label(),
            host_cores(),
        );
        match run_connection_sweep(&venue, &instances, args.variant, &sweep) {
            Ok(steps) => {
                for step in &steps {
                    print_sweep_step(step);
                }
            }
            Err(error) => {
                eprintln!("connection sweep failed: {error}");
                std::process::exit(1);
            }
        }
        return;
    }
    eprintln!(
        "driving {} clients x {} requests over {} distinct queries ({}) ...",
        config.clients,
        config.requests_per_client,
        instances.len(),
        args.variant.label(),
    );
    if args.strict_compare {
        match run_strict_terminal_comparison(&venue, &instances, args.variant, &config) {
            Ok((relaxed, strict)) => {
                print_report(&format!("{} strict=off", args.variant.label()), &relaxed);
                print_report(&format!("{} strict=on", args.variant.label()), &strict);
                println!(
                    "strict terminal expansion cost: {:.2}x q/s ({:.1} -> {:.1}; \
                     p50 {:.2} -> {:.2} ms, p99 {:.2} -> {:.2} ms)",
                    relaxed.qps / strict.qps.max(1e-9),
                    relaxed.qps,
                    strict.qps,
                    relaxed.p50_latency_ms,
                    strict.p50_latency_ms,
                    relaxed.p99_latency_ms,
                    strict.p99_latency_ms,
                );
            }
            Err(error) => {
                eprintln!("strict-expansion comparison failed: {error}");
                std::process::exit(1);
            }
        }
        return;
    }
    if args.compare {
        match run_close_vs_keep_alive(&venue, &instances, args.variant, &config) {
            Ok((close, reuse)) => {
                print_report(&args.variant.label(), &close);
                print_report(&args.variant.label(), &reuse);
                println!(
                    "keep-alive speedup: {:.2}x ({:.1} -> {:.1} q/s; {} -> {} connects)",
                    reuse.qps / close.qps.max(1e-9),
                    close.qps,
                    reuse.qps,
                    close.connects,
                    reuse.connects,
                );
            }
            Err(error) => {
                eprintln!("http load comparison failed: {error}");
                std::process::exit(1);
            }
        }
        return;
    }
    match run_http_load(&venue, &instances, args.variant, &config) {
        Ok(report) => print_report(&args.variant.label(), &report),
        Err(error) => {
            eprintln!("http load run failed: {error}");
            std::process::exit(1);
        }
    }
}

/// The `--router N` flow: N backend *processes* (spawned from this very
/// binary in `--serve` mode, killed on drop — even a panicking
/// verification pass cannot leak them), one single-replica shard each,
/// fronted by an in-process `ikrq-router`. Before measuring, every
/// distinct request is verified byte-identical between the router and its
/// owning backend's response cache; any divergence exits non-zero, which
/// is what CI runs this mode for.
fn run_router_mode(
    args: &Args,
    venue: &ikrq_bench::workload::PreparedVenue,
    instances: &[indoor_data::QueryInstance],
    config: &HttpLoadConfig,
) {
    use ikrq_bench::http_load::drive_external_load;
    use ikrq_bench::multiproc::ChildServer;

    let shard_count = args.router.expect("router mode");
    let copies = if args.copies > 0 {
        args.copies
    } else {
        // Auto-size the copy alias count by walking the same ring the
        // router will build, until every shard owns at least two venue
        // ids — a blind guess can land every alias on one shard and
        // measure a cluster of one.
        let names: Vec<String> = (0..shard_count).map(|i| format!("shard-{i}")).collect();
        let ring = ikrq_router::HashRing::new(&names, ikrq_router::DEFAULT_VNODES);
        let mut per_shard = vec![0usize; shard_count];
        let mut copies = 0;
        while copies < 4 || per_shard.iter().any(|&owned| owned < 2) {
            per_shard[ring.assign(&copy_id(&venue.venue_id, copies))] += 1;
            copies += 1;
            assert!(copies < 4096, "ring never covered every shard");
        }
        copies
    };
    let exe = std::env::current_exe().expect("own executable path");
    eprintln!("spawning {shard_count} backend processes ({copies} venue copies each) ...");
    let children: Vec<ChildServer> = (0..shard_count)
        .map(|index| {
            let mut command = std::process::Command::new(&exe);
            command
                .args(["--serve", "127.0.0.1:0"])
                .args(["--floors", &args.floors.to_string()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--copies", &copies.to_string()]);
            match ChildServer::spawn(command, std::time::Duration::from_secs(300)) {
                Ok(child) => {
                    eprintln!("  shard-{index} on {} (pid {})", child.addr(), child.id());
                    child
                }
                Err(error) => {
                    eprintln!("failed to spawn backend {index}: {error}");
                    std::process::exit(1);
                }
            }
        })
        .collect();
    let shards: Vec<ikrq_router::ShardSpec> = children
        .iter()
        .enumerate()
        .map(|(index, child)| ikrq_router::ShardSpec {
            name: format!("shard-{index}"),
            replicas: vec![child.addr()],
        })
        .collect();
    let router_config = ikrq_router::RouterConfig {
        server: config.server.clone(),
        ..ikrq_router::RouterConfig::default()
    };
    let router = match ikrq_router::route(shards, "127.0.0.1:0", router_config) {
        Ok(router) => router,
        Err(error) => {
            eprintln!("router failed to start: {error}");
            std::process::exit(1);
        }
    };
    let addr = router.local_addr();

    // One body per (instance, venue copy): the copy aliases are what the
    // ring spreads over the shards.
    let mut bodies: Vec<(String, String)> = Vec::with_capacity(instances.len() * copies);
    for instance in instances {
        for copy in 0..copies {
            let mut request = venue.request(instance, args.variant);
            request.options.strict_terminal_expansion = args.strict_terminal;
            request.venue = copy_id(&venue.venue_id, copy);
            let body = serde_json::to_string(&request).expect("requests serialize");
            bodies.push((request.venue, body));
        }
    }

    // Verification pass: route each distinct request once, then fetch the
    // same request from its owning backend — the backend serves its cached
    // bytes, which must equal what the router relayed.
    let mut owned = vec![0usize; shard_count];
    for (venue_id, body) in &bodies {
        let routed = match ikrq_server::client::one_shot(addr, "POST", "/v1/search", body) {
            Ok(reply) => reply,
            Err(error) => {
                eprintln!("verification: router request failed for `{venue_id}`: {error}");
                std::process::exit(1);
            }
        };
        if routed.status != 200 {
            eprintln!(
                "verification: router answered {} for `{venue_id}`: {}",
                routed.status, routed.body
            );
            std::process::exit(1);
        }
        let shard_name = router.shard_for(venue_id);
        let index: usize = shard_name
            .strip_prefix("shard-")
            .and_then(|n| n.parse().ok())
            .expect("shard names are shard-N");
        owned[index] += 1;
        let direct =
            match ikrq_server::client::one_shot(children[index].addr(), "POST", "/v1/search", body)
            {
                Ok(reply) => reply,
                Err(error) => {
                    eprintln!("verification: direct request to {shard_name} failed: {error}");
                    std::process::exit(1);
                }
            };
        if direct.header("x-ikrq-cache") != Some("hit") {
            eprintln!(
                "verification: `{venue_id}` was not cached on {shard_name} — the router \
                 did not execute it there"
            );
            std::process::exit(1);
        }
        if direct.body != routed.body {
            eprintln!(
                "BYTE DIVERGENCE on `{venue_id}`: the router's response differs from \
                 {shard_name}'s cached bytes"
            );
            std::process::exit(1);
        }
    }
    eprintln!(
        "verification: {} responses byte-identical to their owning shards (placement {owned:?})",
        bodies.len()
    );

    let request_bodies: Vec<String> = bodies.into_iter().map(|(_, body)| body).collect();
    eprintln!(
        "driving {} clients x {} requests over {} distinct queries through {shard_count} \
         shard(s) ({}) ...",
        config.clients,
        config.requests_per_client,
        request_bodies.len(),
        args.variant.label(),
    );
    let report = drive_external_load(
        addr,
        &request_bodies,
        config.clients,
        config.requests_per_client,
        args.keep_alive,
    );
    print_report(
        &format!("{} via {shard_count}-shard router", args.variant.label()),
        &report,
    );
    if report.failed > 0 {
        eprintln!("router measurement saw {} failed requests", report.failed);
        std::process::exit(1);
    }
}

fn print_report(label: &str, report: &HttpLoadReport) {
    println!(
        "{} [{}]: {} requests ({} connects) -> {} ok, {} shed, {} failed | \
         {} cache hits | {:.1} q/s | avg {:.2} ms, p50 {:.2} ms, p99 {:.2} ms, \
         max {:.2} ms over {:.2} s | {} cores",
        label,
        if report.keep_alive {
            "keep-alive"
        } else {
            "close"
        },
        report.requests,
        report.connects,
        report.ok,
        report.shed,
        report.failed,
        report.cache_hits,
        report.qps,
        report.avg_latency_ms,
        report.p50_latency_ms,
        report.p99_latency_ms,
        report.max_latency_ms,
        report.wall_s,
        report.host_cores,
    );
}

fn print_sweep_step(step: &SweepStep) {
    println!(
        "parked {:>6} (target {:>6}): {:.1} q/s | p50 {:.2} ms, p99 {:.2} ms, \
         max {:.2} ms | {} ok, {} shed, {} failed | {} cores",
        step.parked_established,
        step.parked_target,
        step.report.qps,
        step.report.p50_latency_ms,
        step.report.p99_latency_ms,
        step.report.max_latency_ms,
        step.report.ok,
        step.report.shed,
        step.report.failed,
        step.report.host_cores,
    );
}
