//! End-to-end tests of the `ikrq` command-line tool: generate a venue
//! document, inspect it, query it, and render it — all through the public
//! `run_args` entry point, against a per-test temporary directory.

use ikrq_cli::{run_args, CliError};
use std::path::PathBuf;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "ikrq-cli-{}-{}-{}",
            tag,
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }

    fn file(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

#[test]
fn generate_stats_query_render_flow_on_the_example_venue() {
    let dir = TempDir::new("flow");
    let venue_path = dir.file("example.json");

    // generate
    let report = run_args([
        "generate",
        "--kind",
        "example",
        "--out",
        venue_path.as_str(),
    ])
    .unwrap();
    assert!(report.contains("partitions"));
    assert!(std::path::Path::new(&venue_path).exists());

    // stats
    let report = run_args(["stats", "--venue", venue_path.as_str()]).unwrap();
    assert!(report.contains("partitions: 12"));
    assert!(report.contains("i-words: 9"));
    assert!(report.contains("floors: 1"));

    // query: from inside zara (10, 45) to the east hallway (90, 30), the
    // running-example keywords.
    let results_path = dir.file("results.json");
    let report = run_args([
        "query",
        "--venue",
        venue_path.as_str(),
        "--from",
        "10,45",
        "--to",
        "90,30",
        "--delta",
        "300",
        "--keywords",
        "coffee,laptop",
        "--k",
        "3",
        "--out",
        results_path.as_str(),
    ])
    .unwrap();
    assert!(report.contains("ToE:"));
    assert!(report.contains("score"));
    assert!(report.contains("results written"));
    assert!(std::path::Path::new(&results_path).exists());
    let saved: indoor_persist::ResultDocument =
        indoor_persist::json::load_json(&results_path).unwrap();
    assert_eq!(saved.len(), 1);
    assert!(!saved.results[0].outcome.results.is_empty());

    // query with KoE and a soft constraint.
    let report = run_args([
        "query",
        "--venue",
        venue_path.as_str(),
        "--from",
        "10,45",
        "--to",
        "90,30",
        "--delta",
        "140",
        "--keywords",
        "coffee,laptop",
        "--algorithm",
        "koe",
        "--slack",
        "0.5",
    ])
    .unwrap();
    assert!(report.contains("KoE"));
    assert!(report.contains("soft"));

    // render the floorplan, then render with a route overlay.
    let plain_svg = dir.file("floor0.svg");
    let report = run_args([
        "render",
        "--venue",
        venue_path.as_str(),
        "--out",
        plain_svg.as_str(),
        "--door-ids",
    ])
    .unwrap();
    assert!(report.contains("wrote"));
    let svg = std::fs::read_to_string(&plain_svg).unwrap();
    assert!(svg.contains("<svg"));
    assert!(svg.contains("starbucks"));

    let route_svg = dir.file("route.svg");
    let report = run_args([
        "render",
        "--venue",
        venue_path.as_str(),
        "--out",
        route_svg.as_str(),
        "--from",
        "10,45",
        "--to",
        "90,30",
        "--delta",
        "300",
        "--keywords",
        "coffee,laptop",
    ])
    .unwrap();
    assert!(report.contains("overlaying"));
    let svg = std::fs::read_to_string(&route_svg).unwrap();
    assert!(svg.contains("<polyline"));
}

#[test]
fn batch_runs_a_saved_workload_through_the_service() {
    use ikrq_core::IkrqQuery;
    use indoor_keywords::QueryKeywords;
    use indoor_space::{FloorId, IndoorPoint};

    let dir = TempDir::new("batch");
    let venue_path = dir.file("example.json");
    run_args([
        "generate",
        "--kind",
        "example",
        "--out",
        venue_path.as_str(),
    ])
    .unwrap();

    // Save a workload of repeated running-example queries.
    let mut workload = indoor_persist::WorkloadDocument::new("cli batch test");
    for k in [1usize, 2, 3] {
        let query = IkrqQuery::new(
            IndoorPoint::from_xy(10.0, 45.0, FloorId(0)),
            IndoorPoint::from_xy(90.0, 30.0, FloorId(0)),
            300.0,
            QueryKeywords::new(["coffee", "laptop"]).unwrap(),
            k,
        );
        workload.push_query(&query);
    }
    let workload_path = dir.file("workload.json");
    indoor_persist::json::save_workload_json(&workload, &workload_path).unwrap();

    let results_path = dir.file("batch-results.json");
    let report = run_args([
        "batch",
        "--venue",
        venue_path.as_str(),
        "--workload",
        workload_path.as_str(),
        "--algorithm",
        "koe",
        "--out",
        results_path.as_str(),
    ])
    .unwrap();
    assert!(report.contains("3 ok, 0 failed"), "report: {report}");
    assert!(report.contains("results written"));
    let saved: indoor_persist::ResultDocument =
        indoor_persist::json::load_json(&results_path).unwrap();
    assert_eq!(saved.len(), 3);
    for record in &saved.results {
        assert_eq!(record.outcome.label, "KoE");
        assert!(!record.outcome.results.is_empty());
    }

    // A workload against a missing venue id / empty workload errors cleanly.
    let empty = indoor_persist::WorkloadDocument::new("empty");
    let empty_path = dir.file("empty.json");
    indoor_persist::json::save_workload_json(&empty, &empty_path).unwrap();
    assert!(matches!(
        run_args([
            "batch",
            "--venue",
            venue_path.as_str(),
            "--workload",
            empty_path.as_str(),
        ]),
        Err(CliError::Usage(_))
    ));
}

#[test]
fn binary_venue_documents_work_end_to_end() {
    let dir = TempDir::new("binary");
    let venue_path = dir.file("example.ikrq");
    // `--binary` (the v1 writer) is gone; v1 files are read, not written.
    assert!(matches!(
        run_args([
            "generate",
            "--kind",
            "example",
            "--binary",
            "--out",
            venue_path.as_str(),
        ]),
        Err(CliError::Usage(_))
    ));
    // The stats command recognises a v1 file by its content, whatever its
    // name.
    let v1 = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../indoor-persist/tests/fixtures/fig1-v1.ikrq"
    );
    let renamed = dir.file("example.json");
    std::fs::copy(v1, &renamed).unwrap();
    for path in [v1, renamed.as_str()] {
        let report = run_args(["stats", "--venue", path]).unwrap();
        assert!(report.contains("partitions: 12"), "{path}: {report}");
    }
}

#[test]
fn load_errors_name_the_defect_of_the_real_format() {
    let dir = TempDir::new("load-errors");
    let json = dir.file("example.json");
    let bin = dir.file("example.ikrq");
    run_args([
        "generate",
        "--kind",
        "example",
        "--out",
        json.as_str(),
        "--save-indexed",
        bin.as_str(),
    ])
    .unwrap();
    let v2 = std::fs::read(&bin).unwrap();
    let text = std::fs::read_to_string(&json).unwrap();
    // Cut inside the venue name's string value.
    let inside_a_string = text.find("\"fig1-example\"").unwrap() + 5;

    let cases = [
        (
            "cut.ikrq",
            &v2[..200],
            "truncated payload while reading partition footprint",
        ),
        (
            "cut.dat",
            &v2[..200],
            "truncated payload while reading partition footprint",
        ),
        (
            "cut-json.ikrq",
            &text.as_bytes()[..inside_a_string],
            "json error: unterminated string",
        ),
    ];
    for (name, bytes, cause) in cases {
        let path = dir.file(name);
        std::fs::write(&path, bytes).unwrap();
        let error = run_args(["stats", "--venue", path.as_str()]).unwrap_err();
        assert!(error.to_string().contains(cause), "stats {name}: {error}");
        let args = ikrq_cli::ParsedArgs::parse([
            "serve",
            "--venues",
            path.as_str(),
            "--addr",
            "127.0.0.1:0",
        ])
        .unwrap();
        match ikrq_cli::commands::start_server(&args) {
            Err(error) => assert!(error.to_string().contains(cause), "serve {name}: {error}"),
            Ok(mut handle) => {
                handle.shutdown();
                panic!("serve {name}: a defective venue file was served");
            }
        }
    }
}

#[test]
fn synthetic_generation_scales_with_the_floor_flag() {
    let dir = TempDir::new("synthetic");
    let venue_path = dir.file("mall.json");
    let report = run_args([
        "generate",
        "--kind",
        "synthetic",
        "--floors",
        "1",
        "--seed",
        "9",
        "--out",
        venue_path.as_str(),
    ])
    .unwrap();
    assert!(report.contains("141 partitions"), "report: {report}");
    let stats = run_args(["stats", "--venue", venue_path.as_str()]).unwrap();
    assert!(stats.contains("partitions: 141"));
    assert!(stats.contains("doors: 220"));
}

#[test]
fn serve_hosts_generated_venues_over_http() {
    use std::io::{Read, Write};

    let dir = TempDir::new("serve");
    let venue_path = dir.file("example.json");
    run_args([
        "generate",
        "--kind",
        "example",
        "--out",
        venue_path.as_str(),
    ])
    .unwrap();

    // Missing --venues is a usage error before anything binds.
    assert!(matches!(
        run_args(["serve", "--addr", "127.0.0.1:0"]),
        Err(CliError::Usage(_))
    ));

    // Start on an ephemeral port through the same code path the `serve`
    // command uses, then drive the socket directly.
    let args = ikrq_cli::ParsedArgs::parse([
        "serve",
        "--venues",
        venue_path.as_str(),
        "--addr",
        "127.0.0.1:0",
        "--workers",
        "2",
        "--keep-alive",
        "true",
        "--idle-timeout",
        "5",
        "--max-requests-per-conn",
        "2",
        "--max-connections",
        "16",
    ])
    .unwrap();
    let handle = ikrq_cli::commands::start_server(&args).unwrap();
    let addr = handle.local_addr();

    // Two requests on one connection: the keep-alive flags wired through,
    // and the request cap of 2 closes the connection after the second.
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(
            b"GET /v1/venues HTTP/1.1\r\nhost: t\r\n\r\nGET /v1/venues HTTP/1.1\r\nhost: t\r\n\r\n",
        )
        .unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 200"), "reply: {reply}");
    // The venue document carries its name, which becomes the hosted id.
    assert!(reply.contains("fig1-example"), "reply: {reply}");
    assert!(reply.contains("connection: keep-alive"), "reply: {reply}");
    // The second response retires the connection (cap = 2), which is what
    // let read_to_string return at all.
    assert!(reply.contains("connection: close"), "reply: {reply}");

    // Bad boolean spellings are usage errors before anything binds.
    assert!(matches!(
        run_args([
            "serve",
            "--venues",
            venue_path.as_str(),
            "--keep-alive",
            "maybe"
        ]),
        Err(CliError::Usage(_))
    ));
    assert!(matches!(
        run_args([
            "serve",
            "--venues",
            venue_path.as_str(),
            "--idle-timeout",
            "-3"
        ]),
        Err(CliError::Usage(_))
    ));
}

#[test]
fn route_fronts_sharded_serve_processes() {
    use ikrq_server::client::one_shot;

    let dir = TempDir::new("route");
    let venue_path = dir.file("example.json");
    run_args([
        "generate",
        "--kind",
        "example",
        "--out",
        venue_path.as_str(),
    ])
    .unwrap();

    // Usage errors before anything binds.
    assert!(matches!(run_args(["route"]), Err(CliError::Usage(_))));
    assert!(matches!(
        run_args(["route", "--shards", "a=not-an-address"]),
        Err(CliError::Usage(_))
    ));
    assert!(matches!(
        run_args([
            "route",
            "--shards",
            "a=127.0.0.1:1",
            "--probe-interval",
            "0"
        ]),
        Err(CliError::Usage(_))
    ));

    // Two single-replica shards, each a full `serve` process (so the
    // router also exercises the disk-based reload the serve command
    // wires up).
    let backend_args = ikrq_cli::ParsedArgs::parse([
        "serve",
        "--venues",
        venue_path.as_str(),
        "--addr",
        "127.0.0.1:0",
        "--workers",
        "2",
    ])
    .unwrap();
    let backend_a = ikrq_cli::commands::start_server(&backend_args).unwrap();
    let backend_b = ikrq_cli::commands::start_server(&backend_args).unwrap();

    let route_args = ikrq_cli::ParsedArgs::parse([
        "route",
        "--shards",
        &format!("a={};b={}", backend_a.local_addr(), backend_b.local_addr()),
        "--addr",
        "127.0.0.1:0",
        "--workers",
        "2",
        "--vnodes",
        "32",
        "--backend-timeout",
        "5",
        "--fail-threshold",
        "1",
    ])
    .unwrap();
    let router = ikrq_cli::commands::start_router(&route_args).unwrap();
    let addr = router.local_addr();
    assert_eq!(router.shard_count(), 2);

    let health = one_shot(addr, "GET", "/v1/healthz", "").unwrap();
    assert_eq!(health.status, 200);
    assert!(
        health.body.contains("\"shards\":2"),
        "body: {}",
        health.body
    );

    // Both backends host the example venue; the aggregate attributes it
    // to its ring owner exactly once.
    let venues = one_shot(addr, "GET", "/v1/venues", "").unwrap();
    assert_eq!(venues.status, 200);
    assert_eq!(venues.body.matches("fig1-example").count(), 1);

    // Reload through the router reaches the owning serve process, whose
    // reloader re-reads the document from disk.
    let reload = one_shot(
        addr,
        "POST",
        "/v1/admin/reload",
        "{\"venue\":\"fig1-example\"}",
    )
    .unwrap();
    assert_eq!(reload.status, 200, "reload: {}", reload.body);
    assert!(reload.body.contains("\"shard\""), "reload: {}", reload.body);
}

#[test]
fn generate_save_indexed_produces_a_binary_other_commands_accept() {
    let dir = TempDir::new("preindexed");
    let bin = dir.file("mega.bin");

    // --save-indexed alone is a valid output target.
    let report = run_args([
        "generate",
        "--kind",
        "mega",
        "--partitions",
        "120",
        "--seed",
        "4",
        "--save-indexed",
        bin.as_str(),
    ])
    .unwrap();
    assert!(report.contains("pre-indexed"), "report: {report}");
    assert!(std::path::Path::new(&bin).exists());

    // The pre-indexed binary flows through document-consuming commands
    // exactly like a plain venue file.
    let report = run_args(["stats", "--venue", bin.as_str()]).unwrap();
    assert!(report.contains("partitions: "), "report: {report}");
    assert!(report.contains("i-words: "), "report: {report}");
}

#[test]
fn usage_errors_and_unknown_commands_are_reported() {
    assert!(matches!(
        run_args(["query", "--venue"]),
        Err(CliError::Usage(_))
    ));
    assert!(matches!(
        run_args(["teleport"]),
        Err(CliError::UnknownCommand(_))
    ));
    let help = run_args(["help"]).unwrap();
    assert!(help.contains("USAGE"));
    // Missing venue file is an I/O or persistence error, not a panic.
    assert!(run_args(["stats", "--venue", "/does/not/exist.json"]).is_err());
}
