//! Crash-safe job journal: an append-only record log that lets a
//! killed daemon re-admit the work it lost.
//!
//! ## Format
//!
//! One file, `<dir>/journal.mlog`, holding a sequence of
//! length-prefixed, CRC-guarded frames ([`jsonlite::frame`]); each
//! frame's payload is one single-line JSON record:
//!
//! ```text
//! {"record":"admitted","id":"<digest>","spec":{...}}
//! {"record":"started","id":"<digest>"}
//! {"record":"progress","id":"<digest>","done":3,"total":8}
//! {"record":"completed","id":"<digest>","ok":true}
//! {"record":"cancelled","id":"<digest>"}
//! {"record":"drained-clean"}
//! ```
//!
//! Lifecycle records (`admitted`, `started`, `completed`, `cancelled`,
//! `drained-clean`) are fsync'd as they are appended — they change
//! what a restart must do. `progress` records change nothing: replay
//! skips them, and the scheduler does not write them (a job re-runs
//! from scratch anyway). [`Journal::record_progress`] remains only to
//! fill a log cheaply for replay measurements.
//!
//! ## Replay
//!
//! [`Journal::open`] scans the existing log, tolerating a torn final
//! frame (the crash may have landed mid-append), and folds the records
//! into the set of jobs that were admitted but never reached a
//! terminal state. The server re-submits those through the normal
//! admission path, where the content-addressed cache already absorbs
//! any job whose result survived — so `kill -9` mid-sweep followed by
//! a restart converges to the same byte-identical results as an
//! uninterrupted run, recomputing only what was genuinely lost.
//!
//! A final `drained-clean` record marks a graceful drain: on the next
//! start there is provably nothing to replay and the scan is skipped
//! in spirit (the log is compacted away without a summary).
//!
//! ## Compaction
//!
//! On open, after replay, the log is rewritten to contain only the
//! still-pending `admitted` records (tmp + fsync + rename + directory
//! fsync) — so the log stays bounded by the live job set, and a crash
//! at any point during compaction leaves either the old complete log
//! or the new one. Re-admission then appends duplicate `admitted`
//! records through the normal path; replay is idempotent per job id,
//! so duplicates are harmless and disappear at the next compaction.

use crate::job::JobSpec;
use crate::sync::lock;
use jsonlite::{frame, Json};
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// File name of the journal inside its directory.
const JOURNAL_FILE: &str = "journal.mlog";

/// The append side of the journal, shared by the scheduler's workers.
pub struct Journal {
    file: Mutex<File>,
    path: PathBuf,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Journal({})", self.path.display())
    }
}

/// One job the crash left un-finished, as reconstructed by replay.
#[derive(Debug, Clone)]
pub struct ReplayJob {
    /// The job's content digest (its id).
    pub id: String,
    /// The spec to re-admit.
    pub spec: JobSpec,
    /// Whether the crash caught the job mid-run (a `started` record
    /// with no terminal record after it) — the daemon died with a
    /// worker on it.
    pub started: bool,
}

/// What [`Journal::open`] reconstructed from the previous process's
/// log.
#[derive(Debug, Default)]
pub struct Replay {
    /// Jobs admitted but not terminal at the crash, in admission
    /// order.
    pub pending: Vec<ReplayJob>,
    /// The previous shutdown ended with `drained-clean`: nothing was
    /// lost and no replay summary is worth printing.
    pub clean: bool,
    /// Decodable records scanned.
    pub records: usize,
    /// Bytes of torn/corrupt tail discarded (crash mid-append).
    pub torn_bytes: usize,
}

impl Journal {
    /// Open (creating if needed) the journal under `dir`, replay the
    /// previous process's records, and compact the log down to the
    /// still-pending jobs.
    pub fn open(dir: &Path) -> std::io::Result<(Journal, Replay)> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(JOURNAL_FILE);
        let replay = match std::fs::read(&path) {
            Ok(bytes) => replay_records(&bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Replay::default(),
            Err(e) => return Err(e),
        };
        // Compact: rewrite the log as just the pending admissions, so
        // a crash during or right after compaction still recovers
        // exactly these jobs.
        let mut compacted = Vec::new();
        for job in &replay.pending {
            compacted.extend_from_slice(&frame::encode_record(
                admitted_payload(&job.id, &job.spec).write().as_bytes(),
            ));
        }
        let tmp = dir.join(format!("{JOURNAL_FILE}.tmp-{}", std::process::id()));
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&compacted)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &path)?;
        File::open(dir).and_then(|d| d.sync_all())?;
        let file = OpenOptions::new().append(true).open(&path)?;
        Ok((
            Journal {
                file: Mutex::new(file),
                path,
            },
            replay,
        ))
    }

    /// Append one record; `sync` forces it to disk before returning.
    /// Best-effort: the journal is a recovery aid, and a full disk
    /// must degrade durability, not crash the daemon mid-job.
    fn append(&self, payload: &Json, sync: bool) {
        let bytes = frame::encode_record(payload.write().as_bytes());
        let mut f = lock(&self.file);
        let result = f
            .write_all(&bytes)
            .and_then(|()| if sync { f.sync_all() } else { Ok(()) });
        if let Err(e) = result {
            eprintln!("serve: journal append {} failed: {e}", self.path.display());
        }
    }

    /// A job passed admission control and entered the queue.
    pub fn record_admitted(&self, id: &str, spec: &JobSpec) {
        self.append(&admitted_payload(id, spec), true);
    }

    /// A worker began executing the job.
    pub fn record_started(&self, id: &str) {
        self.append(
            &Json::obj()
                .field("record", "started")
                .field("id", id)
                .build(),
            true,
        );
    }

    /// Append a `progress` record without fsync. Replay ignores it and
    /// the scheduler never calls this; it is kept because the
    /// benchmark's replay probe fills a 1000-record log with it.
    pub fn record_progress(&self, id: &str, done: u64, total: u64) {
        self.append(
            &Json::obj()
                .field("record", "progress")
                .field("id", id)
                .field("done", done)
                .field("total", total)
                .build(),
            false,
        );
    }

    /// The job reached a terminal success/failure state (`ok: false`
    /// covers executor errors, panics, and timeouts — all terminal,
    /// none re-admitted on restart).
    pub fn record_completed(&self, id: &str, ok: bool) {
        self.append(
            &Json::obj()
                .field("record", "completed")
                .field("id", id)
                .field("ok", ok)
                .build(),
            true,
        );
    }

    /// The job was cancelled (terminal; not re-admitted on restart).
    pub fn record_cancelled(&self, id: &str) {
        self.append(
            &Json::obj()
                .field("record", "cancelled")
                .field("id", id)
                .build(),
            true,
        );
    }

    /// The server drained gracefully: every admitted job is terminal,
    /// and the next start has nothing to replay.
    pub fn record_drained_clean(&self) {
        self.append(&Json::obj().field("record", "drained-clean").build(), true);
    }
}

fn admitted_payload(id: &str, spec: &JobSpec) -> Json {
    Json::obj()
        .field("record", "admitted")
        .field("id", id)
        .field("spec", spec.to_json())
        .build()
}

/// Fold a journal byte stream into the pending-job set. Undecodable
/// frames end the scan (torn tail); undecodable *payloads* inside
/// valid frames are skipped defensively (forward compatibility with
/// record types this build does not know).
fn replay_records(bytes: &[u8]) -> Replay {
    let (frames, torn_bytes) = frame::decode_records(bytes);
    let mut replay = Replay {
        torn_bytes,
        records: frames.len(),
        ..Replay::default()
    };
    // Admission order, keyed by id; a terminal record removes the job.
    let mut order: Vec<String> = Vec::new();
    let mut live: std::collections::HashMap<String, ReplayJob> = std::collections::HashMap::new();
    for (i, payload) in frames.iter().enumerate() {
        let Ok(text) = std::str::from_utf8(payload) else {
            continue;
        };
        let Ok(json) = Json::parse(text) else {
            continue;
        };
        let Ok(obj) = json.as_object("journal record") else {
            continue;
        };
        let Some(kind) = obj.opt("record").and_then(|r| r.as_string().ok()) else {
            continue;
        };
        if kind == "drained-clean" {
            // Clean only as the final record: anything after it means
            // the daemon kept working past the drain marker.
            replay.clean = i == frames.len() - 1 && live.is_empty();
            continue;
        }
        let Some(id) = obj.opt("id").and_then(|r| r.as_string().ok()) else {
            continue;
        };
        match kind.as_str() {
            "admitted" => {
                let Some(spec) = obj.opt("spec").and_then(|s| JobSpec::from_json(s).ok()) else {
                    continue;
                };
                if !live.contains_key(&id) {
                    order.push(id.clone());
                    live.insert(
                        id.clone(),
                        ReplayJob {
                            id,
                            spec,
                            started: false,
                        },
                    );
                }
            }
            "started" => {
                if let Some(job) = live.get_mut(&id) {
                    job.started = true;
                }
            }
            "completed" | "cancelled" => {
                live.remove(&id);
            }
            // `progress` and unknown future kinds: no lifecycle effect.
            _ => {}
        }
    }
    replay.pending = order
        .into_iter()
        .filter_map(|id| live.remove(&id))
        .collect();
    replay
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mosaic-serve-journal-{tag}-{}", std::process::id()))
    }

    fn spec(seed: u64) -> JobSpec {
        let mut s = JobSpec::new("table1", "tiny");
        s.seed = seed;
        s
    }

    #[test]
    fn fresh_journal_replays_nothing() {
        let dir = tmp_dir("fresh");
        let _ = std::fs::remove_dir_all(&dir);
        let (_j, replay) = Journal::open(&dir).unwrap();
        assert!(replay.pending.is_empty());
        assert_eq!(replay.records, 0);
        assert!(!replay.clean);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unfinished_jobs_come_back_finished_ones_do_not() {
        let dir = tmp_dir("replay");
        let _ = std::fs::remove_dir_all(&dir);
        let (queued, running, done, gone) = (spec(1), spec(2), spec(3), spec(4));
        {
            let (j, _) = Journal::open(&dir).unwrap();
            j.record_admitted(&done.digest(), &done);
            j.record_started(&done.digest());
            j.record_completed(&done.digest(), true);
            j.record_admitted(&running.digest(), &running);
            j.record_started(&running.digest());
            j.record_progress(&running.digest(), 2, 8);
            j.record_admitted(&queued.digest(), &queued);
            j.record_admitted(&gone.digest(), &gone);
            j.record_cancelled(&gone.digest());
            // No drained-clean: simulate a hard kill.
        }
        let (_j, replay) = Journal::open(&dir).unwrap();
        assert!(!replay.clean);
        let ids: Vec<String> = replay.pending.iter().map(|p| p.id.clone()).collect();
        assert_eq!(ids, vec![running.digest(), queued.digest()]);
        assert!(replay.pending[0].started, "running job was mid-run");
        assert!(!replay.pending[1].started, "queued job never started");
        assert_eq!(replay.pending[0].spec, running);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drained_clean_means_nothing_to_replay() {
        let dir = tmp_dir("clean");
        let _ = std::fs::remove_dir_all(&dir);
        let s = spec(7);
        {
            let (j, _) = Journal::open(&dir).unwrap();
            j.record_admitted(&s.digest(), &s);
            j.record_started(&s.digest());
            j.record_completed(&s.digest(), true);
            j.record_drained_clean();
        }
        let (_j, replay) = Journal::open(&dir).unwrap();
        assert!(replay.clean);
        assert!(replay.pending.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_discarded_not_fatal() {
        let dir = tmp_dir("torn");
        let _ = std::fs::remove_dir_all(&dir);
        let s = spec(9);
        {
            let (j, _) = Journal::open(&dir).unwrap();
            j.record_admitted(&s.digest(), &s);
        }
        // Simulate a crash mid-append: half a frame of garbage.
        let path = dir.join(JOURNAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0xAB; 5]);
        std::fs::write(&path, &bytes).unwrap();
        let (_j, replay) = Journal::open(&dir).unwrap();
        assert_eq!(replay.pending.len(), 1);
        assert_eq!(replay.pending[0].id, s.digest());
        assert!(replay.torn_bytes > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_bounds_the_log_and_preserves_pending() {
        let dir = tmp_dir("compact");
        let _ = std::fs::remove_dir_all(&dir);
        let live = spec(1);
        {
            let (j, _) = Journal::open(&dir).unwrap();
            for seed in 10..30 {
                let s = spec(seed);
                j.record_admitted(&s.digest(), &s);
                j.record_completed(&s.digest(), seed % 2 == 0);
            }
            j.record_admitted(&live.digest(), &live);
        }
        let before = std::fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len();
        let (_j, replay) = Journal::open(&dir).unwrap();
        let after = std::fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len();
        assert_eq!(replay.pending.len(), 1);
        assert!(
            after < before / 4,
            "compaction must shed terminal records ({after} vs {before})"
        );
        // The compacted log alone still recovers the pending job.
        let (_j2, replay2) = Journal::open(&dir).unwrap();
        assert_eq!(replay2.pending.len(), 1);
        assert_eq!(replay2.pending[0].spec, live);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_admissions_are_idempotent() {
        let dir = tmp_dir("dup");
        let _ = std::fs::remove_dir_all(&dir);
        let s = spec(5);
        {
            let (j, _) = Journal::open(&dir).unwrap();
            j.record_admitted(&s.digest(), &s);
            j.record_admitted(&s.digest(), &s); // restart re-admission
            j.record_started(&s.digest());
        }
        let (_j, replay) = Journal::open(&dir).unwrap();
        assert_eq!(replay.pending.len(), 1);
        assert!(replay.pending[0].started);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_job_reporting_progress_journals_no_progress_record() {
        use crate::cache::ResultCache;
        use crate::scheduler::{Executor, SchedConfig, Scheduler, Submit};
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        struct Ticks;
        impl Executor for Ticks {
            fn run(
                &self,
                _spec: &JobSpec,
                progress: &dyn Fn(u64, u64, &str),
                _cancelled: &AtomicBool,
            ) -> Result<String, String> {
                for done in 1..=3 {
                    progress(done, 3, "tick");
                }
                Ok("{}".to_string())
            }
        }

        let dir = tmp_dir("progress");
        let _ = std::fs::remove_dir_all(&dir);
        let (j, _) = Journal::open(&dir).unwrap();
        let cfg = SchedConfig {
            journal: Some(Arc::new(j)),
            ..SchedConfig::default()
        };
        let sched = Scheduler::start(cfg, ResultCache::new(None).unwrap(), Arc::new(Ticks));
        let Submit::Enqueued(job) = sched.submit(spec(11)) else {
            panic!("expected enqueue");
        };
        assert_eq!(job.wait_terminal().done, 3, "the ticks reach the job");
        let bytes = std::fs::read(dir.join(JOURNAL_FILE)).unwrap();
        let records: Vec<String> = frame::decode_records(&bytes)
            .0
            .iter()
            .map(|f| String::from_utf8_lossy(f).into_owned())
            .collect();
        assert!(
            records
                .iter()
                .any(|r| r.contains("\"record\":\"completed\"")),
            "the lifecycle is journaled: {records:?}"
        );
        assert!(
            !records
                .iter()
                .any(|r| r.contains("\"record\":\"progress\"")),
            "progress ticks are not journaled: {records:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
