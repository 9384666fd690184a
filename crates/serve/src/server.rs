//! The TCP front end: accept loop, per-connection dispatch, graceful
//! drain.
//!
//! Pure `std`: a nonblocking `TcpListener` polled on a short interval
//! (the environment is offline, so there is no async runtime to lean
//! on), one OS thread per connection. A `shutdown` request flips the
//! scheduler into draining mode; the accept loop exits once every
//! queued and running job has finished, and `Server::join` returns.

use crate::job::JobState;
use crate::protocol::{self, Request};
use crate::scheduler::{Executor, SchedConfig, Scheduler, Submit};
use crate::sync::lock;
use jsonlite::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:9118` (port 0 = ephemeral).
    pub addr: String,
    /// Scheduler knobs (queue cap, workers, timeout).
    pub sched: SchedConfig,
    /// On-disk result cache directory (`None` = memory-only).
    pub cache_dir: Option<PathBuf>,
    /// Crash-safety journal directory (`None` = no journal; a kill
    /// loses queued/running jobs). On start the journal is replayed
    /// and unfinished jobs are re-admitted before the listener binds,
    /// so clients never observe the half-recovered state.
    pub journal_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:9118".to_string(),
            sched: SchedConfig::default(),
            cache_dir: Some(PathBuf::from("results/cache")),
            journal_dir: Some(PathBuf::from("results/journal")),
        }
    }
}

/// A running server: scheduler plus accept thread.
pub struct Server {
    sched: Arc<Scheduler>,
    journal: Option<Arc<crate::journal::Journal>>,
    local_addr: SocketAddr,
    accept: std::sync::Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Server {
    /// Bind, start the worker pool, and begin accepting connections.
    ///
    /// With a `journal_dir`, the previous process's journal is
    /// replayed first: jobs it admitted but never finished are
    /// re-submitted through the normal admission path (where the
    /// result cache absorbs anything whose payload survived), counted
    /// in `replayed_jobs`, and jobs the crash caught mid-run also
    /// count as `worker_deaths`. All of that happens before the
    /// listener binds.
    pub fn start(cfg: ServerConfig, executor: Arc<dyn Executor>) -> std::io::Result<Server> {
        let cache = crate::cache::ResultCache::new(cfg.cache_dir.clone())?;
        let mut sched_cfg = cfg.sched.clone();
        let mut journal = None;
        let mut replay = None;
        if let Some(dir) = &cfg.journal_dir {
            let (j, r) = crate::journal::Journal::open(dir)?;
            let j = Arc::new(j);
            sched_cfg.journal = Some(Arc::clone(&j));
            journal = Some(j);
            replay = Some(r);
        }
        let sched = Scheduler::start(sched_cfg, cache, executor);
        if let Some(r) = replay {
            if !r.clean && (r.records > 0 || r.torn_bytes > 0) {
                eprintln!(
                    "serve: journal replay: {} records, {} unfinished jobs re-admitted, \
                     {} torn bytes discarded",
                    r.records,
                    r.pending.len(),
                    r.torn_bytes
                );
            }
            for job in r.pending {
                if job.started {
                    sched
                        .metrics
                        .worker_deaths
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
                sched
                    .metrics
                    .replayed_jobs
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let _ = sched.submit(job.spec);
            }
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let accept_sched = Arc::clone(&sched);
        let handle = std::thread::Builder::new()
            .name("serve-accept".to_string())
            .spawn(move || accept_loop(listener, accept_sched))
            .expect("spawn accept thread");
        Ok(Server {
            sched,
            journal,
            local_addr,
            accept: std::sync::Mutex::new(Some(handle)),
        })
    }

    /// The bound address (resolves port 0 to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The scheduler (tests poke it directly).
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.sched
    }

    /// Request a drain without a client connection (what a SIGTERM
    /// handler would call if the platform exposed one to pure std).
    pub fn request_shutdown(&self) {
        self.sched.begin_drain();
    }

    /// Block until a requested drain completes and the accept thread
    /// exits; joins the worker pool. A completed drain is marked
    /// `drained-clean` in the journal, so the next start knows there
    /// is nothing to replay.
    pub fn join(&self) {
        self.sched.wait_drained();
        if let Some(j) = &self.journal {
            j.record_drained_clean();
        }
        if let Some(h) = lock(&self.accept).take() {
            let _ = h.join();
        }
        self.sched.join_workers();
    }
}

fn accept_loop(listener: TcpListener, sched: Arc<Scheduler>) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let sched = Arc::clone(&sched);
                let _ = std::thread::Builder::new()
                    .name("serve-conn".to_string())
                    .spawn(move || {
                        if let Err(e) = handle_conn(stream, &sched) {
                            // Disconnects mid-request are routine.
                            let _ = e;
                        }
                    });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if sched.quiesced() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn send(stream: &mut TcpStream, v: &Json) -> std::io::Result<()> {
    let mut line = v.write();
    line.push('\n');
    stream.write_all(line.as_bytes())
}

/// Serve one connection: requests in, response line(s) out, until EOF.
fn handle_conn(stream: TcpStream, sched: &Arc<Scheduler>) -> std::io::Result<()> {
    let reader = BufReader::new(stream.try_clone()?);
    let mut out = stream;
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let req = match Request::parse(&line) {
            Ok(r) => r,
            Err(e) => {
                send(&mut out, &protocol::resp_error(&e))?;
                continue;
            }
        };
        match req {
            Request::Submit { spec } => {
                let resp = match sched.submit(spec) {
                    Submit::Cached(job) => protocol::resp_accepted(&job.id, job.state(), true),
                    // Admitted means queued, whether or not a worker has
                    // already picked the job up.
                    Submit::Enqueued(job) => {
                        protocol::resp_accepted(&job.id, JobState::Queued, false)
                    }
                    Submit::InFlight(job) => protocol::resp_accepted(&job.id, job.state(), false),
                    Submit::Overloaded { depth, cap } => protocol::resp_overloaded(depth, cap),
                    Submit::Draining => protocol::resp_draining(),
                };
                send(&mut out, &resp)?;
            }
            Request::Status { id } => {
                let resp = match sched.job(&id) {
                    Some(job) => protocol::resp_status(&id, &job.view()),
                    None => protocol::resp_error(&format!("unknown job {id:?}")),
                };
                send(&mut out, &resp)?;
            }
            Request::Result { id, wait } => {
                let resp = match sched.job(&id) {
                    Some(job) => {
                        let view = if wait {
                            job.wait_terminal()
                        } else {
                            job.view()
                        };
                        if view.state.is_terminal() {
                            protocol::resp_result(&id, &view)
                        } else {
                            protocol::resp_pending(&id, &view)
                        }
                    }
                    None => protocol::resp_error(&format!("unknown job {id:?}")),
                };
                send(&mut out, &resp)?;
            }
            Request::Watch { id } => match sched.job(&id) {
                Some(job) => {
                    // Stream each progress event as its own line, then
                    // finish with the terminal status line.
                    let mut seen = 0usize;
                    loop {
                        let (events, view) = job.wait_events(seen);
                        for msg in &events {
                            send(
                                &mut out,
                                &protocol::resp_progress(&id, view.done, view.total, msg),
                            )?;
                        }
                        seen += events.len();
                        if view.state.is_terminal() {
                            send(&mut out, &protocol::resp_status(&id, &view))?;
                            break;
                        }
                    }
                }
                None => send(
                    &mut out,
                    &protocol::resp_error(&format!("unknown job {id:?}")),
                )?,
            },
            Request::Cancel { id } => {
                let resp = match sched.cancel(&id) {
                    Some(state) => protocol::resp_cancel(&id, state),
                    None => protocol::resp_error(&format!("unknown job {id:?}")),
                };
                send(&mut out, &resp)?;
            }
            Request::Metrics => send(&mut out, &sched.snapshot())?,
            Request::Shutdown => {
                sched.begin_drain();
                send(&mut out, &protocol::resp_shutdown())?;
            }
        }
    }
    Ok(())
}
