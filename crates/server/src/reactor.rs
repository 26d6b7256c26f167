//! The readiness reactor: one thread that owns every parked keep-alive
//! session and blocks in [`netpoll::Poller::wait`] until a session
//! becomes readable, its idle timeout expires, or the server shuts
//! down.
//!
//! It is the server's only idle-connection path. It does O(ready) work
//! per wake-up on the epoll backend, so tens of thousands of idle
//! sessions cost nothing while they are idle, and a request arriving on
//! a parked session wakes it without waiting for any sweep.
//!
//! # Lifecycle
//!
//! ```text
//! accept → serve (worker) → park (inbox) → register readable (slab)
//!        ← re-serve (worker) ← wake-on-readable / close-on-idle-expiry
//! ```
//!
//! Workers hand quiet sessions to [`Reactor::park`], which enqueues
//! them on an inbox and wakes the reactor via the poller's built-in
//! notify pipe. The reactor thread moves inbox sessions into a token
//! slab and registers their sockets for readability. A session parked
//! for *fairness* (it yielded its worker to a queued session) goes
//! back behind the sessions already waiting: immediately when its next
//! pipelined request already sits in the connection buffer, invisible
//! to the kernel, and on the next wait when the bytes are in the
//! kernel buffer (registration is level-triggered).
//!
//! Idle-timeout expiry happens *inside* the wait: the reactor sleeps
//! exactly until the earliest parked deadline (or forever when nothing
//! is parked), closes whatever expired, and recomputes. Shutdown
//! notifies the poller; the reactor then closes every parked session
//! and exits, so a server with 10 000 idle connections still stops
//! within milliseconds.

use crate::server::{requeue_session, Session, Shared};
use std::sync::atomic::Ordering;
use std::sync::mpsc::Sender;
use std::sync::Arc;

#[cfg(unix)]
pub(crate) use unix::{reactor_loop, Reactor};

#[cfg(not(unix))]
pub(crate) use fallback::{reactor_loop, Reactor};

#[cfg(unix)]
mod unix {
    use super::*;
    use netpoll::{Event, Interest, Poller};
    use std::os::unix::io::AsRawFd;
    use std::sync::Mutex;
    use std::time::{Duration, Instant};

    /// The state shared between the reactor thread and the workers
    /// that park sessions into it.
    pub(crate) struct Reactor {
        poller: Poller,
        /// Sessions handed over by workers, not yet registered.
        inbox: Mutex<Vec<Session>>,
    }

    impl Reactor {
        /// A reactor on the platform's default poller backend.
        pub(crate) fn new() -> std::io::Result<Reactor> {
            Ok(Reactor {
                poller: Poller::new()?,
                inbox: Mutex::new(Vec::new()),
            })
        }

        /// Hands a quiet session to the reactor thread (called from
        /// workers). The notify failure mode is benign: the session is
        /// on the inbox either way, and the reactor also drains the
        /// inbox whenever anything else wakes it.
        pub(crate) fn park(&self, session: Session) {
            self.inbox.lock().expect("reactor inbox lock").push(session);
            let _ = self.poller.notify();
        }

        /// Wakes the reactor thread (the shutdown path).
        pub(crate) fn wake(&self) {
            let _ = self.poller.notify();
        }

        /// Empties the inbox (the post-join sweep for sessions parked
        /// after the reactor thread already exited).
        pub(crate) fn drain_inbox(&self) -> Vec<Session> {
            std::mem::take(&mut *self.inbox.lock().expect("reactor inbox lock"))
        }
    }

    /// One registered session: the token slab entry.
    struct Slot {
        session: Session,
        parked_at: Instant,
    }

    /// The reactor thread. Owns the slab; nothing else touches parked
    /// sessions between registration and wake/close.
    pub(crate) fn reactor_loop(shared: &Arc<Shared>, sender: Sender<Session>) {
        let reactor = &shared.reactor;
        let idle_timeout = shared.config.idle_timeout;
        let mut slots: Vec<Option<Slot>> = Vec::new();
        let mut free_tokens: Vec<usize> = Vec::new();
        let mut live = 0usize;
        // Earliest idle deadline over the slab; `None` when the slab is
        // empty (then the wait blocks until a notify).
        let mut next_deadline: Option<Instant> = None;
        let mut events: Vec<Event> = Vec::new();

        loop {
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }

            // Intake: register newly parked sessions. A session whose
            // next request is already buffered is invisible to the
            // kernel — requeue it to the workers instead (this is the
            // fairness-park path for pipelining clients).
            for mut session in reactor.drain_inbox() {
                if session.conn.has_buffered_data() {
                    wake_session(shared, &sender, session);
                    continue;
                }
                let token = free_tokens.pop().unwrap_or_else(|| {
                    slots.push(None);
                    slots.len() - 1
                });
                let fd = session.conn.get_mut().as_raw_fd();
                match reactor.poller.add(fd, token, Interest::READABLE) {
                    Ok(()) => {
                        let parked_at = Instant::now();
                        let deadline = parked_at + idle_timeout;
                        next_deadline = Some(match next_deadline {
                            Some(current) => current.min(deadline),
                            None => deadline,
                        });
                        slots[token] = Some(Slot { session, parked_at });
                        live += 1;
                    }
                    Err(_) => {
                        // Registration failing (fd exhaustion in the
                        // poller, a dead socket) costs the session, not
                        // the server.
                        free_tokens.push(token);
                        shared.parked.fetch_sub(1, Ordering::SeqCst);
                        shared.close_session(session);
                    }
                }
            }

            // Sleep until the earliest idle deadline, a readiness
            // event, or a notify — no periodic sweep.
            let timeout =
                next_deadline.map(|deadline| deadline.saturating_duration_since(Instant::now()));
            let notified = match reactor.poller.wait(&mut events, timeout) {
                Ok(notified) => notified,
                Err(error) => {
                    // A failing wait must not spin the thread; pace the
                    // retry and keep serving.
                    eprintln!("ikrq-server: reactor wait failed: {error}");
                    std::thread::sleep(Duration::from_millis(10));
                    false
                }
            };

            // Wake every ready session. Readable covers data, EOF and
            // pending errors alike — the worker's read distinguishes
            // them, keeping close bookkeeping in one place.
            let mut woke = 0usize;
            for event in events.drain(..) {
                let Some(slot) = slots.get_mut(event.token).and_then(Option::take) else {
                    continue; // stale event for an already-closed token
                };
                let mut slot = slot;
                live -= 1;
                free_tokens.push(event.token);
                let fd = slot.session.conn.get_mut().as_raw_fd();
                let _ = reactor.poller.delete(fd);
                wake_session(shared, &sender, slot.session);
                woke += 1;
            }
            shared
                .reactor_wakeups
                .fetch_add(woke as u64, Ordering::SeqCst);

            // Idle expiry, inside the wait cadence: only scan when the
            // earliest deadline actually passed.
            let mut expired = 0usize;
            if next_deadline.is_some_and(|deadline| Instant::now() >= deadline) {
                let now = Instant::now();
                next_deadline = None;
                for (token, entry) in slots.iter_mut().enumerate() {
                    let Some(slot) = entry else { continue };
                    let deadline = slot.parked_at + idle_timeout;
                    if now >= deadline {
                        let mut slot = entry.take().expect("checked above");
                        live -= 1;
                        free_tokens.push(token);
                        let fd = slot.session.conn.get_mut().as_raw_fd();
                        let _ = reactor.poller.delete(fd);
                        shared.parked.fetch_sub(1, Ordering::SeqCst);
                        shared.close_session(slot.session);
                        expired += 1;
                    } else {
                        next_deadline = Some(match next_deadline {
                            Some(current) => current.min(deadline),
                            None => deadline,
                        });
                    }
                }
            }
            if live == 0 {
                next_deadline = None;
            }

            if woke == 0 && expired == 0 && !notified {
                // Nothing to do and nobody asked: a stale timer tick or
                // an EINTR. Counted so operators can see poll churn.
                shared
                    .reactor_spurious_wakeups
                    .fetch_add(1, Ordering::SeqCst);
            }
        }

        // Shutdown: every parked session is idle by definition — close
        // the slab, then whatever straggled onto the inbox.
        for slot in slots.iter_mut() {
            if let Some(mut slot) = slot.take() {
                let fd = slot.session.conn.get_mut().as_raw_fd();
                let _ = reactor.poller.delete(fd);
                shared.parked.fetch_sub(1, Ordering::SeqCst);
                shared.close_session(slot.session);
            }
        }
        for session in reactor.drain_inbox() {
            shared.parked.fetch_sub(1, Ordering::SeqCst);
            shared.close_session(session);
        }
    }

    /// Moves a no-longer-parked session back to the worker pool.
    fn wake_session(shared: &Arc<Shared>, sender: &Sender<Session>, session: Session) {
        shared.parked.fetch_sub(1, Ordering::SeqCst);
        requeue_session(shared, sender, session);
    }
}

#[cfg(not(unix))]
mod fallback {
    use super::*;

    /// Stub for non-unix targets: construction fails with
    /// `Unsupported`, so `serve` returns that error.
    pub(crate) struct Reactor {
        never: std::convert::Infallible,
    }

    impl Reactor {
        pub(crate) fn new() -> std::io::Result<Reactor> {
            Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "the reactor requires a unix platform",
            ))
        }

        pub(crate) fn park(&self, _session: Session) {
            match self.never {}
        }

        pub(crate) fn wake(&self) {
            match self.never {}
        }

        pub(crate) fn drain_inbox(&self) -> Vec<Session> {
            match self.never {}
        }
    }

    pub(crate) fn reactor_loop(_shared: &Arc<Shared>, _sender: Sender<Session>) {
        unreachable!("a non-unix Reactor cannot be constructed");
    }
}
