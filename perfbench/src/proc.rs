//! Serving processes: `ikrq serve` and `ikrq route` children and their peak
//! memory. The children are [`ChildServer`]s, which kill and reap the
//! process when dropped.

use ikrq_bench::multiproc::ChildServer;
use std::net::SocketAddr;
use std::path::Path;
use std::process::Command;
use std::time::Duration;

/// How long a child may take to listen and answer `/v1/healthz`.
const START_TIMEOUT: Duration = Duration::from_secs(120);

/// Starts `ikrq <args>` and waits until it listens and answers health
/// checks.
pub fn spawn(ikrq: &Path, args: &[String]) -> std::io::Result<ChildServer> {
    let mut command = Command::new(ikrq);
    command.args(args);
    ChildServer::spawn(command, START_TIMEOUT)
}

/// Peak resident set (`VmHWM`) of a child in MiB, 0 where procfs is
/// unavailable.
pub fn peak_rss_mib(server: &ChildServer) -> f64 {
    std::fs::read_to_string(format!("/proc/{}/status", server.id()))
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Arguments of `ikrq serve` over `venues` with two workers on an
/// ephemeral port.
pub fn serve_args(venues: &[&Path]) -> Vec<String> {
    let venues: Vec<String> = venues.iter().map(|p| p.display().to_string()).collect();
    vec![
        "serve".into(),
        "--venues".into(),
        venues.join(","),
        "--addr".into(),
        "127.0.0.1:0".into(),
        "--workers".into(),
        "2".into(),
    ]
}

/// Arguments of `ikrq route` over named single-replica shards with two
/// workers on an ephemeral port.
pub fn route_args(shards: &[(String, SocketAddr)]) -> Vec<String> {
    let spec: Vec<String> = shards
        .iter()
        .map(|(name, addr)| format!("{name}={addr}"))
        .collect();
    vec![
        "route".into(),
        "--shards".into(),
        spec.join(";"),
        "--addr".into(),
        "127.0.0.1:0".into(),
        "--workers".into(),
        "2".into(),
    ]
}
