//! Totality of journal decoding. Logs are written through the real
//! [`Journal`] append path, then torn at every offset, mutated in one
//! byte, or given a garbage tail:
//!
//! - [`frame::decode_records`] never panics and returns exactly the
//!   original records that precede the damage;
//! - [`Journal::open`] never panics and replays exactly the job set
//!   those surviving records describe.

use jsonlite::frame;
use mosaic_serve::{JobSpec, Journal};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// One journal append: `(kind, job)` with `kind` indexing [`KINDS`].
type Op = (u8, u8);

const KINDS: [&str; 6] = [
    "admitted",
    "started",
    "progress",
    "completed",
    "cancelled",
    "drained-clean",
];

fn spec(job: u8) -> JobSpec {
    let mut s = JobSpec::new("table1", "tiny");
    s.seed = u64::from(job);
    s
}

fn scratch_dir(test: &str, case: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mosaic-journal-totality-{test}-{}-{case}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Append `ops` to a fresh journal and return the log's bytes.
fn write_log(dir: &Path, ops: &[Op]) -> Vec<u8> {
    let (journal, _) = Journal::open(dir).expect("open a fresh journal");
    for &(kind, job) in ops {
        let s = spec(job);
        let id = s.digest();
        match KINDS[usize::from(kind)] {
            "admitted" => journal.record_admitted(&id, &s),
            "started" => journal.record_started(&id),
            "progress" => journal.record_progress(&id, 1, 4),
            "completed" => journal.record_completed(&id, job % 2 == 0),
            "cancelled" => journal.record_cancelled(&id),
            _ => journal.record_drained_clean(),
        }
    }
    drop(journal);
    std::fs::read(dir.join("journal.mlog")).expect("read the log back")
}

/// The jobs a replay of `ops` must leave pending: `(id, started)`.
fn pending_after(ops: &[Op]) -> BTreeSet<(String, bool)> {
    let mut live: Vec<(String, bool)> = Vec::new();
    for &(kind, job) in ops {
        let id = spec(job).digest();
        let at = live.iter().position(|(j, _)| *j == id);
        match (KINDS[usize::from(kind)], at) {
            ("admitted", None) => live.push((id, false)),
            ("started", Some(i)) => live[i].1 = true,
            ("completed" | "cancelled", Some(i)) => {
                live.remove(i);
            }
            _ => {}
        }
    }
    live.into_iter().collect()
}

/// Byte offsets at which each frame of `records` ends.
fn frame_ends(records: &[&[u8]]) -> Vec<usize> {
    let mut end = 0;
    records
        .iter()
        .map(|r| {
            end += 8 + r.len();
            end
        })
        .collect()
}

/// The number of leading `decoded` records that are the originals.
fn intact_prefix(decoded: &[&[u8]], originals: &[&[u8]]) -> usize {
    decoded
        .iter()
        .zip(originals)
        .take_while(|(d, o)| d == o)
        .count()
}

fn ops_strategy() -> impl Strategy<Value = Vec<(u8, u8)>> {
    prop::collection::vec((0u8..6, 0u8..4), 1..10)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn decode_records_keeps_exactly_the_frames_before_the_damage(
        ops in ops_strategy(),
        flip in 1u8..=255,
        garbage in prop::collection::vec(any::<u8>(), 0..40),
        case in 0usize..1_000_000,
    ) {
        let dir = scratch_dir("decode", case);
        let log = write_log(&dir, &ops);
        let _ = std::fs::remove_dir_all(&dir);
        let (originals, torn) = frame::decode_records(&log);
        prop_assert_eq!(originals.len(), ops.len());
        prop_assert_eq!(torn, 0);
        let ends = frame_ends(&originals);

        for cut in 0..=log.len() {
            let (decoded, torn) = frame::decode_records(&log[..cut]);
            let whole = ends.iter().filter(|&&e| e <= cut).count();
            prop_assert_eq!(&decoded[..], &originals[..whole]);
            prop_assert_eq!(torn, cut - if whole == 0 { 0 } else { ends[whole - 1] });
        }

        for at in 0..log.len() {
            let mut bad = log.clone();
            bad[at] ^= flip;
            let (decoded, _) = frame::decode_records(&bad);
            let damaged_frame = ends.iter().filter(|&&e| e <= at).count();
            prop_assert_eq!(&decoded[..], &originals[..damaged_frame], "byte {} ^ {:#x}", at, flip);
        }

        let mut tailed = log.clone();
        tailed.extend_from_slice(&garbage);
        let (decoded, _) = frame::decode_records(&tailed);
        prop_assert_eq!(intact_prefix(&decoded, &originals), originals.len());
    }

    #[test]
    fn journal_open_replays_the_surviving_records(
        ops in ops_strategy(),
        damage in 0u8..3,
        at in any::<u64>(),
        flip in 1u8..=255,
        garbage in prop::collection::vec(any::<u8>(), 1..40),
        case in 0usize..1_000_000,
    ) {
        let dir = scratch_dir("open", case);
        let log = write_log(&dir, &ops);
        let (originals, _) = frame::decode_records(&log);
        let at = (at % log.len() as u64) as usize;
        let damaged = match damage {
            0 => log[..at].to_vec(),
            1 => {
                let mut bad = log.clone();
                bad[at] ^= flip;
                bad
            }
            _ => [log.as_slice(), &garbage].concat(),
        };
        std::fs::write(dir.join("journal.mlog"), &damaged).expect("write the damaged log");
        let (journal, replay) = Journal::open(&dir).expect("open never fails on bad bytes");
        drop(journal);
        let _ = std::fs::remove_dir_all(&dir);

        let (decoded, _) = frame::decode_records(&damaged);
        let survived = intact_prefix(&decoded, &originals);
        let got: BTreeSet<(String, bool)> = replay
            .pending
            .iter()
            .map(|j| (j.id.clone(), j.started))
            .collect();
        prop_assert_eq!(got.len(), replay.pending.len(), "a job replayed twice");
        for job in &replay.pending {
            prop_assert_eq!(&job.spec.digest(), &job.id);
        }
        prop_assert_eq!(got, pending_after(&ops[..survived]));
    }
}
