//! The versioned checkpoint container.
//!
//! A checkpoint file is one JSON header line followed by the raw
//! machine-state body:
//!
//! ```text
//! {"version":1,"cycle":4096,"seq":1812,"cols":8,"rows":4,...}\n
//! <body bytes: the Machine's canonical component snapshot>
//! ```
//!
//! The header is the explicit, digest-covered contract (detlint D005
//! tracks [`CheckpointHeader`] against [`CheckpointHeader::to_json`]):
//! a new header field that never reaches serialization fails CI. The
//! body is the `Machine`'s canonical snapshot — every stateful
//! component in fixed section order, little-endian, sorted where the
//! in-memory representation is unordered — and is integrity-checked by
//! `body_len`/`body_crc`, so a truncated or bit-rotted file is
//! rejected instead of silently compared against.
//!
//! ## What a checkpoint means
//!
//! Core behaviours are host closures suspended on coroutine stacks
//! full of host pointers; their continuations cannot be serialized. A
//! checkpoint therefore captures *machine* state at a canonical event
//! boundary — which is byte-identical from run to run, because all
//! machine mutation happens engine-side in `(cycle, seq)` order.
//! Resume is **verified
//! re-execution**: the engine replays deterministically from cycle
//! zero and byte-compares the machine against the checkpoint at its
//! recorded boundary, hard-failing on any divergence. The wall-clock
//! savings of crash recovery come from the job journal plus the
//! content-addressed result cache (completed jobs are skipped by
//! digest); the checkpoint is the proof that a resumed run is the same
//! run. Images are verify-only: nothing decodes a body back into a
//! [`crate::Machine`]. See `docs/determinism.md`.

use crate::Cycle;
use jsonlite::{frame, Json};

/// Format version of the checkpoint container (header + body layout).
/// Bump on any incompatible change; [`decode`] rejects mismatches.
pub const CHECKPOINT_VERSION: u64 = 1;

/// The self-describing prefix of a checkpoint file. Identifies the
/// format version, the event boundary the body was captured at, and
/// enough machine geometry to reject a checkpoint taken on a different
/// machine before any body byte is interpreted.
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
    /// Serialize to the canonical single-line JSON form. This is the
    /// digest-covered serializer: every header field must appear here
    /// by name.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("version", self.version)
            .field("cycle", self.cycle)
            .field("seq", self.seq)
            .field("cols", self.cols)
            .field("rows", self.rows)
            .field("seed", self.seed)
            .field("body_len", self.body_len)
            .field("body_crc", self.body_crc)
            .build()
    }

    /// Parse the header line written by [`CheckpointHeader::to_json`].
    pub fn parse(line: &str) -> Result<CheckpointHeader, String> {
        let json = Json::parse(line).map_err(|e| format!("checkpoint header: {e}"))?;
        let obj = json.as_object("checkpoint header")?;
        let get =
            |name: &str| -> Result<u64, String> { obj.get(name, "checkpoint header")?.as_u64() };
        Ok(CheckpointHeader {
            version: get("version")?,
            cycle: get("cycle")?,
            seq: get("seq")?,
            cols: get("cols")?,
            rows: get("rows")?,
            seed: get("seed")?,
            body_len: get("body_len")?,
            body_crc: get("body_crc")?,
        })
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

/// Split a checkpoint file into its validated header and body. Checks
/// the version, the body length, and the body CRC; a torn or corrupt
/// file is an error, never a partial comparison.
pub fn decode(bytes: &[u8]) -> Result<(CheckpointHeader, &[u8]), String> {
    let nl = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or("checkpoint: missing header line")?;
    let line = std::str::from_utf8(&bytes[..nl]).map_err(|e| format!("checkpoint header: {e}"))?;
    let header = CheckpointHeader::parse(line)?;
    if header.version != CHECKPOINT_VERSION {
        return Err(format!(
            "checkpoint version {} unsupported (this build reads version {CHECKPOINT_VERSION})",
            header.version
        ));
    }
    let body = &bytes[nl + 1..];
    if body.len() as u64 != header.body_len {
        return Err(format!(
            "checkpoint body truncated: header promises {} bytes, file has {}",
            header.body_len,
            body.len()
        ));
    }
    let crc = frame::crc32(body) as u64;
    if crc != header.body_crc {
        return Err(format!(
            "checkpoint body CRC mismatch (header {:#x}, body {:#x})",
            header.body_crc, crc
        ));
    }
    Ok((header, body))
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
    fn encode_decode_round_trips() {
        let body = vec![7u8; 100];
        let file = encode(header(), &body);
        let (h, b) = decode(&file).unwrap();
        assert_eq!(b, &body[..]);
        assert_eq!(h.cycle, 4096);
        assert_eq!(h.seq, 1812);
        assert_eq!(h.body_len, 100);
        assert_eq!(h.body_crc, frame::crc32(&body) as u64);
    }

    #[test]
    fn header_parse_round_trips() {
        let h = header();
        let parsed = CheckpointHeader::parse(&h.to_json().write()).unwrap();
        assert_eq!(parsed, h);
    }

    #[test]
    fn decode_rejects_truncation_and_corruption() {
        let body = vec![3u8; 64];
        let file = encode(header(), &body);
        // Torn body (crash mid-write).
        assert!(decode(&file[..file.len() - 1]).is_err());
        // Flipped body bit.
        let mut flipped = file.clone();
        *flipped.last_mut().unwrap() ^= 1;
        assert!(decode(&flipped).is_err());
        // Missing header newline entirely.
        assert!(decode(b"{\"version\":1}").is_err());
    }

    #[test]
    fn decode_rejects_future_versions() {
        let mut h = header();
        h.version = CHECKPOINT_VERSION + 1;
        let mut line = h.to_json().write();
        line.push('\n');
        let err = decode(line.as_bytes()).unwrap_err();
        assert!(err.contains("version"), "{err}");
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
        // The wire form carries exactly the struct's fields — the
        // digest contract (detlint D005) keeps the reverse direction
        // honest.
        let line = header().to_json().write();
        for key in [
            "version", "cycle", "seq", "cols", "rows", "seed", "body_len", "body_crc",
        ] {
            assert!(line.contains(&format!("\"{key}\"")), "{line}");
        }
    }
}
