//! The runtime's one JSON writer (`telemetry::json::JsonWriter`) and the
//! workspace's one reader (`analyze::parse_json`) agree: every string,
//! integer and float the writer is given reads back as the same value,
//! with non-finite floats read back as `0`. Generated from a seeded
//! generator, so a failure reproduces.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use resildb_analyze::{parse_json, JsonValue};
use resildb_core::telemetry::json::{JsonWriter, Scalar};

const CASES: usize = 2_000;

/// 2^53: the integers an `f64` (and so the reader) holds exactly.
const EXACT: i64 = 1 << 53;

/// A string mixing what escaping must get right: quotes, backslashes,
/// every control character, ASCII, DEL, BMP and non-BMP scalars.
fn hostile_string(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0..24);
    (0..len)
        .map(|_| match rng.gen_range(0..7) {
            0 => '"',
            1 => '\\',
            2 => char::from(rng.gen_range(0u8..0x20)),
            3 => char::from(rng.gen_range(0x20u8..0x80)),
            4 => char::from_u32(rng.gen_range(0x80u32..0xD800)).unwrap(),
            5 => char::from_u32(rng.gen_range(0xE000u32..0x1_0000)).unwrap(),
            _ => char::from_u32(rng.gen_range(0x1_0000u32..0x11_0000)).unwrap(),
        })
        .collect()
}

fn write_one<'a>(v: impl Into<Scalar<'a>>) -> JsonValue {
    let doc = JsonWriter::render(|w| {
        w.value(v);
    });
    parse_json(&doc).unwrap_or_else(|e| panic!("{doc:?}: {e}"))
}

#[test]
fn strings_round_trip_as_values_and_keys() {
    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..CASES {
        let s = hostile_string(&mut rng);
        assert_eq!(write_one(s.as_str()), JsonValue::String(s.clone()));
        let doc = JsonWriter::render(|w| {
            w.object(|w| {
                w.field(&s, 1_u64);
            });
        });
        let keys: Vec<String> = parse_json(&doc)
            .unwrap()
            .as_object()
            .unwrap()
            .keys()
            .cloned()
            .collect();
        assert_eq!(keys, [s]);
    }
}

#[test]
fn integers_round_trip_up_to_two_to_the_53() {
    let mut rng = StdRng::seed_from_u64(2);
    let edges = [0, 1, -1, EXACT - 1, -(EXACT - 1), EXACT, -EXACT];
    let random = (0..CASES).map(|_| rng.gen_range(-EXACT..=EXACT));
    for n in edges.into_iter().chain(random) {
        let read = write_one(n);
        assert_eq!(read, JsonValue::Number(n as f64), "{n}");
        if n.abs() < EXACT {
            assert_eq!(read.as_i64(), Some(n));
        }
        if let Ok(u) = u64::try_from(n) {
            assert_eq!(write_one(u), JsonValue::Number(n as f64), "{u}");
        }
    }
}

#[test]
fn floats_round_trip_and_non_finite_reads_as_zero() {
    let mut rng = StdRng::seed_from_u64(3);
    let edges = [
        0.0,
        -0.0,
        0.1,
        -2.5,
        1e21,
        1e-7,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        5e-324,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    let random = (0..CASES).map(|_| f64::from_bits(rng.next_u64()));
    for x in edges.into_iter().chain(random) {
        let expected = if x.is_finite() { x } else { 0.0 };
        assert_eq!(write_one(x), JsonValue::Number(expected), "{x:e}");
    }
}

#[test]
fn nested_documents_round_trip() {
    let mut rng = StdRng::seed_from_u64(4);
    for _ in 0..CASES / 10 {
        let (s, n, b) = (
            hostile_string(&mut rng),
            rng.gen_range(-EXACT..=EXACT),
            rng.gen_bool(0.5),
        );
        let doc = JsonWriter::render(|w| {
            w.object(|w| {
                w.key("xs").array(|w| {
                    w.value(s.as_str()).value(n).value(b).value(Scalar::Null);
                    w.array(|_| {}).object(|_| {});
                });
                w.field(&s, f64::NAN);
            });
        });
        let v = parse_json(&doc).unwrap();
        let xs = v.get("xs").and_then(JsonValue::as_array).unwrap();
        assert_eq!(xs[0], JsonValue::String(s.clone()));
        assert_eq!(xs[1], JsonValue::Number(n as f64));
        assert_eq!(xs[2], JsonValue::Bool(b));
        assert_eq!(xs[3], JsonValue::Null);
        assert_eq!(xs[4], JsonValue::Array(Vec::new()));
        assert_eq!(xs[5], JsonValue::Object(Default::default()));
        assert_eq!(v.get(&s), Some(&JsonValue::Number(0.0)));
    }
}
