//! Totality of `Json::parse`: on any input — arbitrary bytes read as
//! lossy UTF-8, mutated valid documents, integers at the `u64`/`i64`
//! edges, `\u` escapes including lone surrogates — it returns `Ok` or a
//! typed `Err` and never panics. And every value the writer can emit
//! parses back to itself.

use jsonlite::Json;
use proptest::prelude::*;
use proptest::TestRng;

/// Characters a generated string draws from: plain ASCII, everything
/// the writer escapes, and multi-byte UTF-8 up to a non-BMP scalar.
const CHARS: &[char] = &[
    'a', 'Z', '0', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é',
    '\u{2028}', '\u{fffd}', '\u{ffff}', '😀',
];

/// Bytes that carry JSON structure, so random text reaches past the
/// first token often enough to matter.
const JSONISH: &[u8] = b"{}[]:,\"\\u0123456789abcdefABCDEF-+eE. \ntruefalsnl";

fn pick<T: Copy>(rng: &mut TestRng, from: &[T]) -> T {
    from[(rng.next_u64() % from.len() as u64) as usize]
}

fn string(rng: &mut TestRng) -> String {
    let len = rng.next_u64() % 8;
    (0..len).map(|_| pick(rng, CHARS)).collect()
}

/// Integers clustered at the edges the codec could mishandle.
fn edge_u64(rng: &mut TestRng) -> u64 {
    let base = pick(rng, &[0, 9, 10, u32::MAX as u64, i64::MAX as u64, u64::MAX]);
    let nudge = rng.next_u64() % 3;
    match rng.next_u64() % 3 {
        0 => base.saturating_sub(nudge),
        1 => base.saturating_add(nudge),
        _ => rng.next_u64(),
    }
}

/// Arbitrary [`Json`] values nested at most `depth` containers deep.
struct AnyJson {
    depth: u32,
}

impl Strategy for AnyJson {
    type Value = Json;
    fn sample(&self, rng: &mut TestRng) -> Json {
        let kinds = if self.depth == 0 { 3 } else { 5 };
        let inner = AnyJson {
            depth: self.depth.saturating_sub(1),
        };
        let len = rng.next_u64() % 4;
        match rng.next_u64() % kinds {
            0 => Json::Number(edge_u64(rng)),
            1 => Json::Bool(rng.next_u64() & 1 == 1),
            2 => Json::String(string(rng)),
            3 => Json::Array((0..len).map(|_| inner.sample(rng)).collect()),
            _ => Json::Object((0..len).map(|_| (string(rng), inner.sample(rng))).collect()),
        }
    }
}

/// Parse, and when that succeeds, check the value is a fixed point of
/// write-then-parse: the parser never accepts what it cannot reproduce.
fn parse_is_total(text: &str) {
    if let Ok(v) = Json::parse(text) {
        assert_eq!(Json::parse(&v.write()), Ok(v), "input {text:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn generated_values_round_trip_through_write_and_parse(v in AnyJson { depth: 4 }) {
        prop_assert_eq!(Json::parse(&v.write()), Ok(v));
    }

    #[test]
    fn lossy_utf8_bytes_parse_or_err(
        raw in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 0..96),
    ) {
        let bytes: Vec<u8> = raw
            .iter()
            .map(|&(b, i, structural)| {
                if structural { JSONISH[i as usize % JSONISH.len()] } else { b }
            })
            .collect();
        parse_is_total(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn mutated_documents_parse_or_err(
        v in AnyJson { depth: 3 },
        edits in prop::collection::vec((any::<u64>(), 0u8..3, any::<u8>()), 1..6),
    ) {
        let mut doc = v.write().into_bytes();
        for (at, op, byte) in edits {
            let at = (at % (doc.len() as u64 + 1)) as usize;
            match op {
                0 if at < doc.len() => doc[at] = byte,
                1 => doc.insert(at, byte),
                _ if at < doc.len() => {
                    doc.remove(at);
                }
                _ => {}
            }
        }
        parse_is_total(&String::from_utf8_lossy(&doc));
    }

    #[test]
    fn integers_at_the_u64_and_i64_edges_parse_exactly_or_err(
        base in 0usize..7,
        nudge in -3i64..=3,
        wrap in any::<bool>(),
    ) {
        let edges = [
            0,
            u64::MAX as i128,
            i64::MAX as i128,
            i64::MIN as i128,
            u64::MAX as i128 * 10,
            -1,
            u32::MAX as i128,
        ];
        let n = edges[base] + i128::from(nudge);
        let text = if wrap { format!("[{n}]") } else { n.to_string() };
        match u64::try_from(n) {
            Ok(exact) => {
                let want = Json::Number(exact);
                let want = if wrap { Json::Array(vec![want]) } else { want };
                prop_assert_eq!(Json::parse(&text), Ok(want));
            }
            Err(_) => prop_assert!(Json::parse(&text).is_err(), "{}", text),
        }
    }

    #[test]
    fn unicode_escapes_decode_scalars_and_refuse_the_rest(
        code in 0u32..=0xFFFF,
        upper in any::<bool>(),
        cut in 0usize..5,
    ) {
        let hex = if upper { format!("{code:04X}") } else { format!("{code:04x}") };
        let got = Json::parse(&format!("\"\\u{hex}\""));
        match char::from_u32(code) {
            Some(c) => prop_assert_eq!(got, Ok(Json::String(c.to_string()))),
            // A lone surrogate is no scalar value.
            None => prop_assert!(got.is_err(), "\\u{} decoded", hex),
        }
        // Truncated, or followed by a surrogate half, or a sign where a
        // digit belongs: errors, never panics.
        prop_assert!(Json::parse(&format!("\"\\u{}\"", &hex[..cut.min(3)])).is_err());
        parse_is_total(&format!("\"\\u{hex}\\udc00\""));
        prop_assert!(Json::parse(&format!("\"\\u+{}\"", &hex[..3])).is_err());
    }
}
