//! Content-addressed result cache.
//!
//! Keyed by [`JobSpec::digest`]: because every simulation is fully
//! deterministic (same spec ⇒ byte-identical numbers, a property the
//! golden-number suite already tests), a completed payload can be
//! returned for any later submission of the same spec with no
//! invalidation logic at all. Two tiers: an in-memory map for the
//! hot path, and an on-disk store (`<dir>/<digest>.json`) that
//! survives server restarts. Hit/miss counters feed the `metrics`
//! snapshot.

use crate::job::JobSpec;
use jsonlite::Json;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::sync::lock;

/// Two-tier (memory + disk) cache of completed job payloads.
pub struct ResultCache {
    dir: Option<PathBuf>,
    map: Mutex<HashMap<String, String>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResultCache {
    /// A cache persisting under `dir` (`None` = memory-only, used by
    /// tests). The directory is created eagerly so a misconfigured
    /// path fails at startup, not on the first completed job.
    ///
    /// Stray `*.tmp-<pid>` files — the half-written residue of a
    /// daemon killed between its temp write and its rename — are
    /// garbage-collected here. They were never reachable as cache
    /// entries (lookups only read `<digest>.json`), so this is purely
    /// reclaiming disk; best-effort by design.
    pub fn new(dir: Option<PathBuf>) -> std::io::Result<ResultCache> {
        if let Some(d) = &dir {
            std::fs::create_dir_all(d)?;
            if let Ok(entries) = std::fs::read_dir(d) {
                for entry in entries.flatten() {
                    let name = entry.file_name();
                    if name.to_string_lossy().contains(".tmp-") {
                        let _ = std::fs::remove_file(entry.path());
                    }
                }
            }
        }
        Ok(ResultCache {
            dir,
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    fn disk_path(&self, digest: &str) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("{digest}.json")))
    }

    /// Look up a payload by digest, counting a hit or a miss.
    ///
    /// Misses in memory fall through to disk; a disk hit is promoted
    /// into the map so subsequent lookups stay off the filesystem.
    pub fn lookup(&self, digest: &str) -> Option<String> {
        if let Some(p) = lock(&self.map).get(digest).cloned() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(p);
        }
        if let Some(path) = self.disk_path(digest) {
            if let Some(payload) = read_entry(&path, digest) {
                lock(&self.map).insert(digest.to_string(), payload.clone());
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(payload);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Store a completed payload under `digest`: as a disk entry
    /// (spec included, so cache files are self-describing) when there
    /// is a disk tier, in the in-memory map when there is not. A
    /// result the disk holds enters the map on its first lookup, not
    /// here — the job table already holds the bytes for whoever
    /// submitted it, and a daemon working through never-repeated specs
    /// would otherwise keep every payload it ever produced twice. Disk
    /// write failures are reported but do not fail the job — the cache
    /// is an accelerator, not a ledger — and fall back to the map.
    ///
    /// The disk write is crash-safe: the entry is written to a
    /// temporary file in the same directory and `rename`d into place,
    /// so a daemon killed mid-write can never leave a torn
    /// `<digest>.json` (the corrupt-is-a-miss fallback in
    /// `read_entry` stays as defense in depth).
    pub fn insert(&self, digest: &str, spec: &JobSpec, payload: &str) {
        let on_disk = match self.disk_path(digest) {
            Some(path) => match write_entry(&path, digest, spec, payload) {
                Ok(()) => true,
                Err(e) => {
                    eprintln!("serve: cache write {} failed: {e}", path.display());
                    false
                }
            },
            None => false,
        };
        if !on_disk {
            lock(&self.map).insert(digest.to_string(), payload.to_string());
        }
    }

    /// Like [`lookup`](Self::lookup) but without touching the hit/miss
    /// counters: peer `fetch` probes from the rest of the fleet are
    /// not this daemon's workload, so they must not distort the
    /// admission-facing cache statistics.
    pub fn peek(&self, digest: &str) -> Option<String> {
        if let Some(p) = lock(&self.map).get(digest).cloned() {
            return Some(p);
        }
        if let Some(path) = self.disk_path(digest) {
            if let Some(payload) = read_entry(&path, digest) {
                lock(&self.map).insert(digest.to_string(), payload.clone());
                return Some(payload);
            }
        }
        None
    }

    /// Lookups that found a payload.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// Write one on-disk entry, crash-safely (see [`ResultCache::insert`]).
fn write_entry(path: &Path, digest: &str, spec: &JobSpec, payload: &str) -> std::io::Result<()> {
    let entry = Json::obj()
        .field("digest", digest)
        .field("spec", spec.to_json())
        .field("payload", payload)
        .build();
    let mut text = entry.write();
    text.push('\n');
    // Same directory as the final path so the rename cannot cross a
    // filesystem boundary; pid-qualified so concurrent daemons sharing
    // a cache directory don't collide.
    let tmp = path.with_extension(format!("tmp-{}", std::process::id()));
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// Read and validate one on-disk entry; `None` on any mismatch (a
/// corrupt file behaves as a miss and is overwritten on completion).
fn read_entry(path: &Path, digest: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let v = Json::parse(&text).ok()?;
    let obj = v.as_object("cache entry").ok()?;
    let stored = obj.get("digest", "cache entry").ok()?.as_string().ok()?;
    if stored != digest {
        return None;
    }
    obj.get("payload", "cache entry").ok()?.as_string().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mosaic-serve-cache-{tag}-{}", std::process::id()))
    }

    #[test]
    fn memory_only_hits_and_misses() {
        let c = ResultCache::new(None).unwrap();
        let spec = JobSpec::new("table1", "tiny");
        let d = spec.digest();
        assert_eq!(c.lookup(&d), None);
        c.insert(&d, &spec, "{\"cells\":[]}");
        assert_eq!(c.lookup(&d).as_deref(), Some("{\"cells\":[]}"));
        assert_eq!((c.hits(), c.misses()), (1, 1));
    }

    #[test]
    fn disk_entries_survive_a_new_cache_instance() {
        let dir = tmp_dir("persist");
        let spec = JobSpec::new("fig10_dynamic", "tiny");
        let d = spec.digest();
        {
            let c = ResultCache::new(Some(dir.clone())).unwrap();
            c.insert(&d, &spec, "payload-text");
        }
        let c2 = ResultCache::new(Some(dir.clone())).unwrap();
        assert_eq!(c2.lookup(&d).as_deref(), Some("payload-text"));
        assert_eq!(c2.hits(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_result_on_disk_enters_memory_when_it_is_first_read() {
        let dir = tmp_dir("lazy");
        let spec = JobSpec::new("table1", "tiny");
        let d = spec.digest();
        let c = ResultCache::new(Some(dir.clone())).unwrap();
        c.insert(&d, &spec, "payload-text");
        assert!(lock(&c.map).is_empty(), "the disk entry is the only copy");
        assert_eq!(c.lookup(&d).as_deref(), Some("payload-text"));
        // Promoted: the second hit no longer needs the file.
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(c.lookup(&d).as_deref(), Some("payload-text"));
        assert_eq!((c.hits(), c.misses()), (2, 0));
    }

    #[test]
    fn a_failed_disk_write_keeps_the_result_in_memory() {
        let dir = tmp_dir("nodisk");
        let spec = JobSpec::new("table1", "tiny");
        let d = spec.digest();
        let c = ResultCache::new(Some(dir.clone())).unwrap();
        // The directory goes away under the daemon.
        std::fs::remove_dir_all(&dir).unwrap();
        c.insert(&d, &spec, "payload-text");
        assert_eq!(c.lookup(&d).as_deref(), Some("payload-text"));
    }

    #[test]
    fn stray_tmp_files_are_collected_and_never_served() {
        let dir = tmp_dir("straytmp");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec = JobSpec::new("table1", "tiny");
        let d = spec.digest();
        // The residue of a daemon killed mid-insert: a half-written
        // temp entry that never got renamed into place.
        let stray = dir.join(format!("{d}.tmp-99999"));
        std::fs::write(&stray, "{\"digest\":\"torn").unwrap();
        let c = ResultCache::new(Some(dir.clone())).unwrap();
        assert_eq!(c.lookup(&d), None, "a temp file must never be served");
        assert!(!stray.exists(), "startup must GC the stray temp file");
        // A real insert over the same digest works normally afterwards.
        c.insert(&d, &spec, "good-payload");
        let c2 = ResultCache::new(Some(dir.clone())).unwrap();
        assert_eq!(c2.lookup(&d).as_deref(), Some("good-payload"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entry_is_a_miss() {
        let dir = tmp_dir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let spec = JobSpec::new("table1", "tiny");
        let d = spec.digest();
        std::fs::write(dir.join(format!("{d}.json")), "not json").unwrap();
        let c = ResultCache::new(Some(dir.clone())).unwrap();
        assert_eq!(c.lookup(&d), None);
        assert_eq!(c.misses(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
