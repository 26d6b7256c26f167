//! Split-process harness: spawn `http_load --serve` backends as child
//! processes and guard their lifetime.
//!
//! The scale-out measurement (`http_load --router N`) needs N independent
//! server *processes* — in-process shards would share one allocator and
//! scheduler and prove nothing about horizontal scaling. Children are
//! wrapped in [`ChildGuard`], whose `Drop` kills and reaps the process:
//! without it, a panic anywhere in the parent (an assert in the
//! verification pass, a poisoned lock) unwinds past the children and
//! leaves orphaned servers holding their ports — the next run then fails
//! to bind, or worse, measures against a stale binary.

use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Kills (and reaps) a child process when dropped. Drop runs on panic
/// unwind too, which is the whole point: a crashed harness must not leak
/// serving children.
pub struct ChildGuard {
    child: Option<Child>,
}

impl ChildGuard {
    /// Takes ownership of a spawned child.
    pub fn new(child: Child) -> ChildGuard {
        ChildGuard { child: Some(child) }
    }

    /// The child's OS process id.
    pub fn id(&self) -> u32 {
        self.child.as_ref().expect("guard holds a child").id()
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            // Already-exited children make kill() a no-op error; either
            // way wait() reaps the zombie so the pid is actually released.
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// A serving child process plus the address it bound.
pub struct ChildServer {
    guard: ChildGuard,
    addr: SocketAddr,
}

impl ChildServer {
    /// Spawns `command` (typically `current_exe --serve 127.0.0.1:0 ...`),
    /// reads its stderr until the `http://HOST:PORT` listening line, and
    /// polls `GET /v1/healthz` until the child answers. The child is
    /// killed on drop — including a panic unwind in the caller.
    pub fn spawn(mut command: Command, timeout: Duration) -> io::Result<ChildServer> {
        command
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        let mut child = command.spawn()?;
        let stderr = child.stderr.take().expect("stderr was piped");
        let guard = ChildGuard::new(child);
        let mut reader = BufReader::new(stderr);
        let deadline = Instant::now() + timeout;

        let addr = loop {
            let mut line = String::new();
            if reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "child exited before printing its listening line",
                ));
            }
            if let Some(addr) = parse_listening_line(&line) {
                break addr;
            }
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "child did not print a listening line in time",
                ));
            }
        };
        // Keep draining the pipe so the child can never block on a full
        // stderr buffer.
        std::thread::spawn(move || {
            let _ = io::copy(&mut reader, &mut io::sink());
        });

        // The listening line is printed after bind, but give the worker
        // pool a beat if needed.
        loop {
            match ikrq_server::client::one_shot(addr, "GET", "/v1/healthz", "") {
                Ok(reply) if reply.status == 200 => break,
                _ if Instant::now() > deadline => {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("child on {addr} never answered /v1/healthz"),
                    ));
                }
                _ => std::thread::sleep(Duration::from_millis(20)),
            }
        }
        // The guard is moved into the ChildServer only once the child is
        // known-healthy; every early return above kills it.
        Ok(ChildServer { guard, addr })
    }

    /// The address the child bound (resolves an ephemeral `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The child's OS process id.
    pub fn id(&self) -> u32 {
        self.guard.id()
    }
}

/// Extracts `HOST:PORT` from a `... http://HOST:PORT ...` listening line.
fn parse_listening_line(line: &str) -> Option<SocketAddr> {
    let rest = line.split("http://").nth(1)?;
    let end = rest
        .find(|c: char| c.is_whitespace() || c == '(' || c == '/')
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sleeping_child() -> Child {
        Command::new("sleep")
            .arg("30")
            .stdin(Stdio::null())
            .spawn()
            .expect("spawn sleep")
    }

    #[cfg(target_os = "linux")]
    fn alive(pid: u32) -> bool {
        std::path::Path::new(&format!("/proc/{pid}")).exists()
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn guard_kills_the_child_on_drop() {
        let child = sleeping_child();
        let pid = child.id();
        let guard = ChildGuard::new(child);
        assert!(alive(pid));
        let started = Instant::now();
        drop(guard);
        // kill + reap, not a 30 s natural-exit wait.
        assert!(started.elapsed() < Duration::from_secs(5));
        assert!(!alive(pid), "child {pid} must be gone after drop");
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn guard_kills_the_child_on_panic_unwind() {
        let child = sleeping_child();
        let pid = child.id();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = ChildGuard::new(child);
            panic!("harness crashed mid-measurement");
        }));
        assert!(result.is_err());
        assert!(
            !alive(pid),
            "a panic in the harness must not leak serving child {pid}"
        );
    }

    #[test]
    fn listening_lines_parse() {
        assert_eq!(
            parse_listening_line(
                "http_load serving venue `x` on http://127.0.0.1:8080 (ctrl-c to stop)\n"
            ),
            Some("127.0.0.1:8080".parse().unwrap())
        );
        assert_eq!(
            parse_listening_line("ikrq-server listening on http://127.0.0.1:9/ path\n"),
            Some("127.0.0.1:9".parse().unwrap())
        );
        assert_eq!(parse_listening_line("no address here\n"), None);
    }
}
