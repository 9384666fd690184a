//! The versioned checkpoint container.
//!
//! A checkpoint file is one JSON header line followed by the raw
//! machine-state body:
//!
//! ```text
//! {"version":2,"cycle":4096,"seq":1812,"cols":8,"rows":4,...}\n
//! <body bytes: the Machine's canonical component snapshot>
//! ```
//!
//! The header is the explicit contract: [`CheckpointHeader::to_json`]
//! destructures the struct, so a new header field that never reaches
//! serialization does not compile. The body is the `Machine`'s
//! canonical snapshot — every stateful component in fixed section
//! order, little-endian, in index order — and the header carries its
//! `body_len`/`body_crc`, so a torn or bit-rotted file is recognisable.
//!
//! ## What a checkpoint means
//!
//! Core behaviours are host closures suspended on coroutine stacks
//! full of host pointers; their continuations cannot be serialized. A
//! checkpoint therefore captures *machine* state at a canonical event
//! boundary — which is byte-identical from run to run, because all
//! machine mutation happens engine-side in `(cycle, seq)` order.
//! Nothing reads an image back: there is no decoder and no resume.
//! The writer remains because the host benchmark drives it (cadenced
//! writes in its instrumented workload, `Machine::checkpoint` in its
//! `sim.checkpoint.*` probes) to measure what the hook costs the
//! engine. Crash recovery of jobs comes from the job journal plus the
//! content-addressed result cache. See `docs/determinism.md`.

use crate::Cycle;
use jsonlite::{frame, Json};

/// Format version of the checkpoint container (header + body layout).
/// Bump on any change to that layout.
///
/// Version 2: the `dram` section lists only the nonzero words, in word
/// index order. Version 1 listed every word ever written, zeros
/// included, so the same memory could serialize differently.
pub const CHECKPOINT_VERSION: u64 = 2;

/// The self-describing prefix of a checkpoint file. Identifies the
/// format version, the event boundary the body was captured at, and
/// the geometry and seed of the machine it was captured on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointHeader {
    /// Container format version ([`CHECKPOINT_VERSION`]).
    pub version: u64,
    /// Simulated cycle of the event boundary the body was captured at.
    pub cycle: Cycle,
    /// Canonical event sequence number of that boundary (the engine's
    /// global `(cycle, seq)` order; together with `cycle` it names the
    /// boundary uniquely).
    pub seq: u64,
    /// Mesh columns of the captured machine.
    pub cols: u64,
    /// Mesh core rows of the captured machine.
    pub rows: u64,
    /// The machine's deterministic seed.
    pub seed: u64,
    /// Body length in bytes.
    pub body_len: u64,
    /// CRC-32 of the body (stored widened to `u64`; jsonlite numbers
    /// are `u64`).
    pub body_crc: u64,
}

impl CheckpointHeader {
    /// Serialize to the canonical single-line JSON form. Every header
    /// field is bound here, so a new one does not compile until it is
    /// serialized: a dropped field would leave the image unable to
    /// name its boundary or machine.
    pub fn to_json(&self) -> Json {
        let CheckpointHeader {
            version,
            cycle,
            seq,
            cols,
            rows,
            seed,
            body_len,
            body_crc,
        } = *self;
        Json::obj()
            .field("version", version)
            .field("cycle", cycle)
            .field("seq", seq)
            .field("cols", cols)
            .field("rows", rows)
            .field("seed", seed)
            .field("body_len", body_len)
            .field("body_crc", body_crc)
            .build()
    }
}

/// Assemble a complete checkpoint file: header line + `\n` + body.
/// `header.body_len`/`body_crc` are recomputed from `body` so the
/// integrity fields can never disagree with the payload.
pub fn encode(mut header: CheckpointHeader, body: &[u8]) -> Vec<u8> {
    header.body_len = body.len() as u64;
    header.body_crc = frame::crc32(body) as u64;
    let mut line = header.to_json().write();
    line.push('\n');
    let mut out = line.into_bytes();
    out.extend_from_slice(body);
    out
}

// ----------------------------------------------------------------------
// Body section helpers (used by `Machine::checkpoint_body`)
// ----------------------------------------------------------------------

/// Append one tagged body section: `[tag_len u32][tag][len u64][bytes]`
/// (all little-endian). The tags double as the self-describing names of
/// the machine fields the body carries.
pub(crate) fn put_section(out: &mut Vec<u8>, tag: &str, body: &[u8]) {
    out.extend_from_slice(&(tag.len() as u32).to_le_bytes());
    out.extend_from_slice(tag.as_bytes());
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(body);
}

/// Append a little-endian `u64`.
pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> CheckpointHeader {
        CheckpointHeader {
            version: CHECKPOINT_VERSION,
            cycle: 4096,
            seq: 1812,
            cols: 8,
            rows: 4,
            seed: 0xC0FFEE,
            body_len: 0,
            body_crc: 0,
        }
    }

    #[test]
    fn encode_writes_the_real_body_len_and_crc() {
        // `header()` carries zeros; the image must carry the body's own.
        let body = vec![7u8; 100];
        let mut expect = CheckpointHeader {
            body_len: 100,
            body_crc: frame::crc32(&body) as u64,
            ..header()
        }
        .to_json()
        .write()
        .into_bytes();
        expect.push(b'\n');
        expect.extend_from_slice(&body);
        assert_eq!(encode(header(), &body), expect);
    }

    #[test]
    fn sections_are_tagged_and_length_prefixed() {
        let mut out = Vec::new();
        put_section(&mut out, "alpha", &[1, 2, 3]);
        put_section(&mut out, "beta", &[]);
        let mut expect = Vec::new();
        expect.extend_from_slice(&5u32.to_le_bytes());
        expect.extend_from_slice(b"alpha");
        expect.extend_from_slice(&3u64.to_le_bytes());
        expect.extend_from_slice(&[1, 2, 3]);
        expect.extend_from_slice(&4u32.to_le_bytes());
        expect.extend_from_slice(b"beta");
        expect.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(out, expect);
    }

    #[test]
    fn header_line_omits_no_field() {
        // The wire form carries every one of these keys; the exhaustive
        // destructure in `to_json` keeps the reverse direction honest
        // (a new field does not compile until it is serialized).
        let line = header().to_json().write();
        for key in [
            "version", "cycle", "seq", "cols", "rows", "seed", "body_len", "body_crc",
        ] {
            assert!(line.contains(&format!("\"{key}\"")), "{line}");
        }
    }
}
