//! The wire protocol: newline-delimited JSON over TCP.
//!
//! Each request is one JSON object on one line; each response is one
//! (or, for `watch` and `result --wait`, several) JSON object line(s).
//! Every response object carries a `"type"` discriminator. The
//! grammar is the [`jsonlite`] subset, so the protocol shares its one
//! serializer (and escaping bug surface) with the golden-number files.

use crate::job::{JobSpec, JobState};
use crate::scheduler::JobView;
use jsonlite::Json;

/// A decoded client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Submit a job spec; response: `accepted` / `overloaded` /
    /// `draining`.
    Submit {
        /// The job to run.
        spec: JobSpec,
    },
    /// Query one job's state and progress counters.
    Status {
        /// Job id (spec digest).
        id: String,
    },
    /// Fetch a job's result; with `wait`, block until terminal.
    Result {
        /// Job id (spec digest).
        id: String,
        /// Block until the job is terminal instead of answering
        /// `pending`.
        wait: bool,
    },
    /// Stream progress events until the job is terminal.
    Watch {
        /// Job id (spec digest).
        id: String,
    },
    /// Cancel a queued or running job.
    Cancel {
        /// Job id (spec digest).
        id: String,
    },
    /// Fetch the live metrics snapshot.
    Metrics,
    /// Drain and stop the server (in-flight jobs complete).
    Shutdown,
}

impl Request {
    /// Decode one request line.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = Json::parse(line)?;
        let obj = v.as_object("request")?;
        let ty = obj.get("type", "request")?.as_string()?;
        let id = |field: &str| -> Result<String, String> { obj.get(field, "request")?.as_string() };
        Ok(match ty.as_str() {
            // Older clients may still send a `"tenant"` key (the label
            // of a retired gateway admission scheme); it is ignored.
            "submit" => Request::Submit {
                spec: JobSpec::from_json(obj.get("spec", "submit")?)?,
            },
            "status" => Request::Status { id: id("id")? },
            "result" => Request::Result {
                id: id("id")?,
                wait: match obj.opt("wait") {
                    Some(w) => w.as_bool()?,
                    None => false,
                },
            },
            "watch" => Request::Watch { id: id("id")? },
            "cancel" => Request::Cancel { id: id("id")? },
            "metrics" => Request::Metrics,
            "shutdown" => Request::Shutdown,
            other => return Err(format!("unknown request type {other:?}")),
        })
    }

    /// Encode for the wire (client side).
    pub fn to_json(&self) -> Json {
        match self {
            Request::Submit { spec } => Json::obj()
                .field("type", "submit")
                .field("spec", spec.to_json())
                .build(),
            Request::Status { id } => Json::obj()
                .field("type", "status")
                .field("id", id.as_str())
                .build(),
            Request::Result { id, wait } => Json::obj()
                .field("type", "result")
                .field("id", id.as_str())
                .field("wait", *wait)
                .build(),
            Request::Watch { id } => Json::obj()
                .field("type", "watch")
                .field("id", id.as_str())
                .build(),
            Request::Cancel { id } => Json::obj()
                .field("type", "cancel")
                .field("id", id.as_str())
                .build(),
            Request::Metrics => Json::obj().field("type", "metrics").build(),
            Request::Shutdown => Json::obj().field("type", "shutdown").build(),
        }
    }
}

/// `accepted`: the submission's id and how it will be served.
pub fn resp_accepted(id: &str, state: JobState, cached: bool) -> Json {
    Json::obj()
        .field("type", "accepted")
        .field("id", id)
        .field("state", state.as_str())
        .field("cached", cached)
        .build()
}

/// `overloaded`: admission control rejected the submission.
pub fn resp_overloaded(depth: usize, cap: usize) -> Json {
    Json::obj()
        .field("type", "overloaded")
        .field("queue_depth", depth as u64)
        .field("queue_cap", cap as u64)
        .build()
}

/// `draining`: the server is shutting down and rejects new work.
pub fn resp_draining() -> Json {
    Json::obj().field("type", "draining").build()
}

/// `status`: a job's state and progress counters.
pub fn resp_status(id: &str, view: &JobView) -> Json {
    Json::obj()
        .field("type", "status")
        .field("id", id)
        .field("state", view.state.as_str())
        .field("done", view.done)
        .field("total", view.total)
        .build()
}

/// `result`: terminal state plus payload or error.
pub fn resp_result(id: &str, view: &JobView) -> Json {
    let mut b = Json::obj()
        .field("type", "result")
        .field("id", id)
        .field("state", view.state.as_str());
    if let Some(p) = &view.payload {
        b = b.field("payload", p.as_str());
    }
    if let Some(e) = &view.error {
        b = b.field("error", e.as_str());
    }
    b.build()
}

/// `pending`: `result` without `wait` on a job still in flight.
pub fn resp_pending(id: &str, view: &JobView) -> Json {
    Json::obj()
        .field("type", "pending")
        .field("id", id)
        .field("state", view.state.as_str())
        .build()
}

/// `progress`: one streamed `watch` event.
pub fn resp_progress(id: &str, done: u64, total: u64, message: &str) -> Json {
    Json::obj()
        .field("type", "progress")
        .field("id", id)
        .field("done", done)
        .field("total", total)
        .field("message", message)
        .build()
}

/// `cancelled`: outcome of a cancel request.
pub fn resp_cancel(id: &str, state: JobState) -> Json {
    Json::obj()
        .field("type", "cancel")
        .field("id", id)
        .field("state", state.as_str())
        .build()
}

/// `shutdown`: drain acknowledged.
pub fn resp_shutdown() -> Json {
    Json::obj()
        .field("type", "shutdown")
        .field("draining", true)
        .build()
}

/// `error`: the request could not be served (unknown id, parse
/// failure, ...).
pub fn resp_error(message: &str) -> Json {
    Json::obj()
        .field("type", "error")
        .field("message", message)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One request of every kind, as a client would send it.
    fn every_request() -> Vec<Request> {
        let mut spec = JobSpec::new("table1", "tiny");
        spec.workload = "Fib-12".into();
        spec.faults = "seed=1,horizon=1000,links=1x10".into();
        vec![
            Request::Submit {
                spec: JobSpec::new("table1", "tiny"),
            },
            Request::Submit { spec },
            Request::Status { id: "ab12".into() },
            Request::Result {
                id: "ab12".into(),
                wait: true,
            },
            Request::Watch { id: "ab12".into() },
            Request::Cancel { id: "ab12".into() },
            Request::Metrics,
            Request::Shutdown,
        ]
    }

    #[test]
    fn requests_round_trip_through_the_wire_form() {
        for r in every_request() {
            let line = r.to_json().write();
            assert!(!line.contains('\n'));
            assert_eq!(Request::parse(&line).unwrap(), r);
        }
    }

    #[test]
    fn result_without_wait_defaults_to_false() {
        let r = Request::parse("{\"type\":\"result\",\"id\":\"x\"}").unwrap();
        assert_eq!(
            r,
            Request::Result {
                id: "x".into(),
                wait: false
            }
        );
    }

    #[test]
    fn unknown_request_types_are_rejected() {
        // The retired fleet verbs are unknown types like any other.
        for line in [
            r#"{"type":"frobnicate"}"#,
            r#"{"type":"steal"}"#,
            r#"{"type":"offer","id":"ab12","ok":true,"payload":"{}"}"#,
            r#"{"type":"fetch","id":"ab12"}"#,
        ] {
            let err = Request::parse(line).unwrap_err();
            assert!(err.contains("unknown request type"), "{line}: {err}");
        }
        assert!(Request::parse("not json").is_err());
    }

    #[test]
    fn a_legacy_tenant_key_on_submit_is_ignored() {
        // Older clients label submissions with a tenant; the key must
        // keep parsing, to the same request as without it.
        let spec = JobSpec::new("table1", "tiny");
        let line = |tenant: Option<&str>| {
            let b = Json::obj()
                .field("type", "submit")
                .field("spec", spec.to_json());
            match tenant {
                Some(t) => b.field("tenant", t),
                None => b,
            }
            .build()
            .write()
        };
        let plain = Request::parse(&line(None)).unwrap();
        assert_eq!(plain, Request::Submit { spec: spec.clone() });
        assert_eq!(Request::parse(&line(Some("acme"))).unwrap(), plain);
        assert_eq!(Request::parse(&line(Some(""))).unwrap(), plain);
    }

    #[test]
    fn every_truncation_and_single_byte_mutation_decodes_without_panicking() {
        // Exhaustive over each request's wire line: every prefix, and
        // every position overwritten with every byte value. Decode must
        // return, never panic; most of these are errors.
        for r in every_request() {
            let line = r.to_json().write().into_bytes();
            for end in 0..line.len() {
                let _ = Request::parse(&String::from_utf8_lossy(&line[..end]));
            }
            let mut mutated = line.clone();
            for i in 0..line.len() {
                for b in 0..=u8::MAX {
                    mutated[i] = b;
                    let _ = Request::parse(&String::from_utf8_lossy(&mutated));
                }
                mutated[i] = line[i];
            }
        }
    }

    /// `v` with one field, at any depth, replaced by a value of each
    /// JSON type or removed.
    fn field_variants(v: &Json) -> Vec<Json> {
        let Json::Object(fields) = v else {
            return Vec::new();
        };
        let retyped = [
            Json::Number(u64::MAX),
            Json::String(String::new()),
            Json::Bool(false),
            Json::Array(Vec::new()),
            Json::Object(Vec::new()),
        ];
        let mut out = Vec::new();
        for (i, (_, value)) in fields.iter().enumerate() {
            let mut dropped = fields.clone();
            dropped.remove(i);
            out.push(Json::Object(dropped));
            for alt in retyped.iter().cloned().chain(field_variants(value)) {
                let mut swapped = fields.clone();
                swapped[i].1 = alt;
                out.push(Json::Object(swapped));
            }
        }
        out
    }

    #[test]
    fn every_field_retyped_or_dropped_decodes_without_panicking() {
        // Byte mutations rarely keep a line valid JSON; this reaches
        // the field decoders with well-formed lines of the wrong shape.
        for r in every_request() {
            for v in field_variants(&r.to_json()) {
                let _ = Request::parse(&v.write());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn decode_is_total_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
            let _ = Request::parse(&String::from_utf8_lossy(&bytes));
        }
    }
}
