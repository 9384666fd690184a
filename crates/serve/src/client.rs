//! Blocking client for the serve protocol (used by `mosaic-client`,
//! `reproduce_all --via-server`, and the integration tests).

use crate::job::{JobSpec, JobState};
use crate::protocol::Request;
use crate::scheduler::RetryPolicy;
use jsonlite::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// Outcome of a submission, decoded from the `accepted`/`overloaded`/
/// `draining` response family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitReply {
    /// Admitted (or coalesced/served from cache).
    Accepted {
        /// Job id (spec digest).
        id: String,
        /// Job state at admission (`done` when served from cache).
        state: JobState,
        /// Whether the result came straight from the cache.
        cached: bool,
    },
    /// Rejected by admission control.
    Overloaded {
        /// Jobs currently queued.
        depth: u64,
        /// The configured cap.
        cap: u64,
    },
    /// Rejected because the server is draining.
    Draining,
}

/// A job's terminal outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultReply {
    /// Terminal state.
    pub state: JobState,
    /// Payload when `Done`.
    pub payload: Option<String>,
    /// Error message when `Failed`.
    pub error: Option<String>,
}

/// One connection to a serve daemon.
pub struct Client {
    out: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connect to `addr` (e.g. `127.0.0.1:9118`).
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let out = TcpStream::connect(addr)?;
        let reader = BufReader::new(out.try_clone()?);
        Ok(Client { out, reader })
    }

    /// Connect with bounded retries under `policy` (exponential
    /// backoff, deterministic jitter keyed on the address). Covers the
    /// window where a daemon is still binding its listener — or was
    /// just restarted by a supervisor — without hammering it.
    pub fn connect_with_retry(addr: &str, policy: &RetryPolicy) -> std::io::Result<Client> {
        Client::connect_with_deadline(addr, policy, std::time::Duration::MAX)
    }

    /// Like [`Client::connect_with_retry`], but additionally bounded
    /// by an `overall` wall-clock budget: once a backoff sleep would
    /// cross the deadline the attempt loop gives up immediately with
    /// the last error, so a supervisor restarting a crashed daemon can
    /// cap how long clients hang on it (`--connect-timeout-ms`). The
    /// first attempt is always made, even with a zero budget.
    pub fn connect_with_deadline(
        addr: &str,
        policy: &RetryPolicy,
        overall: std::time::Duration,
    ) -> std::io::Result<Client> {
        let start = std::time::Instant::now();
        let max_attempts = policy.max_attempts.max(1);
        let mut last_err = None;
        for attempt in 1..=max_attempts {
            match Client::connect(addr) {
                Ok(c) => return Ok(c),
                Err(e) => {
                    last_err = Some(e);
                    if attempt < max_attempts {
                        let backoff = policy.backoff(addr, attempt);
                        // `checked_add` so `Duration::MAX` means "no
                        // deadline" instead of an overflow panic.
                        let would_elapse = start
                            .elapsed()
                            .checked_add(backoff)
                            .unwrap_or(std::time::Duration::MAX);
                        if would_elapse >= overall {
                            break;
                        }
                        std::thread::sleep(backoff);
                    }
                }
            }
        }
        // max_attempts >= 1, so at least one attempt stored an error.
        Err(last_err.unwrap_or_else(|| std::io::Error::other("no connect attempts made")))
    }

    /// Send one request line.
    pub fn send(&mut self, req: &Request) -> Result<(), String> {
        let mut line = req.to_json().write();
        line.push('\n');
        self.out
            .write_all(line.as_bytes())
            .map_err(|e| format!("send failed: {e}"))
    }

    /// Read one response line as JSON.
    pub fn recv(&mut self) -> Result<Json, String> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| format!("recv failed: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".to_string());
        }
        Json::parse(line.trim_end())
    }

    /// Send a request and read its single response line. An `error`
    /// response becomes `Err`.
    pub fn request(&mut self, req: &Request) -> Result<Json, String> {
        self.send(req)?;
        let v = self.recv()?;
        let obj = v.as_object("response")?;
        if obj.get("type", "response")?.as_string()? == "error" {
            return Err(obj.get("message", "error")?.as_string()?);
        }
        Ok(v)
    }

    /// Submit a spec.
    pub fn submit(&mut self, spec: &JobSpec) -> Result<SubmitReply, String> {
        let v = self.request(&Request::Submit { spec: spec.clone() })?;
        let obj = v.as_object("submit response")?;
        Ok(
            match obj.get("type", "submit response")?.as_string()?.as_str() {
                "accepted" => SubmitReply::Accepted {
                    id: obj.get("id", "accepted")?.as_string()?,
                    state: JobState::parse(&obj.get("state", "accepted")?.as_string()?)?,
                    cached: obj.get("cached", "accepted")?.as_bool()?,
                },
                "overloaded" => SubmitReply::Overloaded {
                    depth: obj.get("queue_depth", "overloaded")?.as_u64()?,
                    cap: obj.get("queue_cap", "overloaded")?.as_u64()?,
                },
                "draining" => SubmitReply::Draining,
                other => return Err(format!("unexpected submit response {other:?}")),
            },
        )
    }

    /// Block until `id` is terminal and return its outcome.
    pub fn wait_result(&mut self, id: &str) -> Result<ResultReply, String> {
        let v = self.request(&Request::Result {
            id: id.to_string(),
            wait: true,
        })?;
        let obj = v.as_object("result response")?;
        Ok(ResultReply {
            state: JobState::parse(&obj.get("state", "result")?.as_string()?)?,
            payload: match obj.opt("payload") {
                Some(p) => Some(p.as_string()?),
                None => None,
            },
            error: match obj.opt("error") {
                Some(e) => Some(e.as_string()?),
                None => None,
            },
        })
    }

    /// Query a job's (state, done, total).
    pub fn status(&mut self, id: &str) -> Result<(JobState, u64, u64), String> {
        let v = self.request(&Request::Status { id: id.to_string() })?;
        let obj = v.as_object("status response")?;
        Ok((
            JobState::parse(&obj.get("state", "status")?.as_string()?)?,
            obj.get("done", "status")?.as_u64()?,
            obj.get("total", "status")?.as_u64()?,
        ))
    }

    /// Cancel a job; returns its state after the request.
    pub fn cancel(&mut self, id: &str) -> Result<JobState, String> {
        let v = self.request(&Request::Cancel { id: id.to_string() })?;
        let obj = v.as_object("cancel response")?;
        JobState::parse(&obj.get("state", "cancel")?.as_string()?)
    }

    /// Stream `watch` progress lines into `on_event(done, total,
    /// message)` until the job is terminal; returns the final state.
    pub fn watch(
        &mut self,
        id: &str,
        mut on_event: impl FnMut(u64, u64, &str),
    ) -> Result<JobState, String> {
        self.send(&Request::Watch { id: id.to_string() })?;
        loop {
            let v = self.recv()?;
            let obj = v.as_object("watch line")?;
            match obj.get("type", "watch line")?.as_string()?.as_str() {
                "progress" => on_event(
                    obj.get("done", "progress")?.as_u64()?,
                    obj.get("total", "progress")?.as_u64()?,
                    &obj.get("message", "progress")?.as_string()?,
                ),
                "status" => {
                    return JobState::parse(&obj.get("state", "status")?.as_string()?);
                }
                "error" => return Err(obj.get("message", "error")?.as_string()?),
                other => return Err(format!("unexpected watch line {other:?}")),
            }
        }
    }

    /// Fetch the metrics snapshot.
    pub fn metrics(&mut self) -> Result<Json, String> {
        self.request(&Request::Metrics)
    }

    /// Ask the server to drain and stop.
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.request(&Request::Shutdown).map(|_| ())
    }
}
