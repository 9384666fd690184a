//! Binary-safe record framing for append-only logs:
//! `[payload_len: u32 LE][crc32: u32 LE][payload bytes]`.
//!
//! The job journal in `mosaic-serve` needs to append records that
//! survive a `kill -9` mid-write: a torn tail (a record whose length
//! prefix, payload, or CRC never fully reached the disk) must be
//! detectable and skippable without losing the intact records before
//! it. This module is that framing layer — length prefix to find
//! record boundaries, a CRC-32 over the payload to reject
//! partially-flushed bytes that happen to look complete. The
//! checkpoint container in `mosaic-sim` uses only [`crc32`].
//!
//! [`decode_records`] is deliberately forgiving about the *tail* and
//! strict about everything before it: the first frame that fails to
//! decode ends the scan, and the remaining byte count is reported so
//! the caller can log what was dropped.

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of `bytes` —
/// the same checksum gzip and PNG use. Bitwise implementation; record
/// payloads are small (a JSON line or one checkpoint body), so a lookup
/// table would buy nothing measurable.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Frame one payload: `[len u32 LE][crc32 u32 LE][payload]`.
pub fn encode_record(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Decode back-to-back frames from `buf`. Returns the intact payloads
/// in order plus the number of trailing bytes that did not form a
/// complete, CRC-valid record (the torn tail a crash mid-append leaves
/// behind; `0` for a cleanly written log).
pub fn decode_records(buf: &[u8]) -> (Vec<&[u8]>, usize) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while buf.len() - pos >= 8 {
        let len = u32::from_le_bytes([buf[pos], buf[pos + 1], buf[pos + 2], buf[pos + 3]]) as usize;
        let crc = u32::from_le_bytes([buf[pos + 4], buf[pos + 5], buf[pos + 6], buf[pos + 7]]);
        let start = pos + 8;
        let Some(payload) = buf.get(start..start.saturating_add(len)) else {
            break; // length prefix promises more bytes than exist: torn
        };
        if crc32(payload) != crc {
            break; // payload bytes never fully landed: torn
        }
        records.push(payload);
        pos = start + len;
    }
    (records, buf.len() - pos)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn encode_decode_round_trips() {
        let mut log = Vec::new();
        let payloads: [&[u8]; 3] = [b"first", b"", b"third record\nwith bytes \x00\xff"];
        for p in payloads {
            log.extend_from_slice(&encode_record(p));
        }
        let (records, torn) = decode_records(&log);
        assert_eq!(records, payloads);
        assert_eq!(torn, 0);
    }

    #[test]
    fn torn_tail_is_tolerated_and_counted() {
        let mut log = Vec::new();
        log.extend_from_slice(&encode_record(b"intact"));
        let partial = encode_record(b"this one never finished");
        // Simulate a crash mid-append: only half the frame landed.
        log.extend_from_slice(&partial[..partial.len() / 2]);
        let torn_len = partial.len() / 2;
        let (records, torn) = decode_records(&log);
        assert_eq!(records, vec![b"intact".as_slice()]);
        assert_eq!(torn, torn_len);
    }

    #[test]
    fn corrupt_crc_stops_the_scan() {
        let mut log = Vec::new();
        log.extend_from_slice(&encode_record(b"good"));
        let mut bad = encode_record(b"evil");
        bad[8] ^= 0x40; // flip a payload bit; the CRC no longer matches
        log.extend_from_slice(&bad);
        log.extend_from_slice(&encode_record(b"unreachable"));
        let (records, torn) = decode_records(&log);
        assert_eq!(records, vec![b"good".as_slice()]);
        assert!(torn > 0);
    }

    #[test]
    fn truncated_length_prefix_is_torn() {
        let (records, torn) = decode_records(&[0x05, 0x00, 0x00]);
        assert!(records.is_empty());
        assert_eq!(torn, 3);
    }

    #[test]
    fn oversized_length_prefix_is_torn_not_a_panic() {
        // A length prefix near u32::MAX must not overflow the range
        // arithmetic.
        let mut log = (u32::MAX - 1).to_le_bytes().to_vec();
        log.extend_from_slice(&[0u8; 12]);
        let (records, torn) = decode_records(&log);
        assert!(records.is_empty());
        assert_eq!(torn, log.len());
    }
}
