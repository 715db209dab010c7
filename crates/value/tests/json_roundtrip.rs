//! WAL-grade JSON round-trip properties.
//!
//! The durable store replays every committed model from its serialized
//! form, so `parse(to_string(v)) == v` must hold for the *full* value
//! domain — not just the friendly subset `properties.rs` samples: integers
//! past 2^53, subnormals, infinities, escape-heavy strings, and the
//! `from_exact_u64` decimal-string fallback all have to survive.

use proptest::prelude::*;

use dspace_value::{json, Value};

/// Numbers drawn from the hostile end of the f64 domain. NaN is excluded:
/// it has no JSON spelling and degrades to null by design.
fn arb_number() -> impl Strategy<Value = f64> {
    prop_oneof![
        // The full bit pattern space: subnormals, huge magnitudes, ±0,
        // infinities. NaN payloads collapse to 0.0 (no JSON spelling).
        any::<u64>().prop_map(|bits| {
            let f = f64::from_bits(bits);
            if f.is_nan() {
                0.0
            } else {
                f
            }
        }),
        // Integers around and past the 2^53 exactness cliff.
        any::<u64>().prop_map(|n| n as f64),
        (-(1i64 << 60)..(1i64 << 60)).prop_map(|n| n as f64),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::MAX),
        Just(f64::MIN_POSITIVE),
        Just(5e-324), // smallest subnormal
    ]
}

/// Escape-heavy strings: quotes, backslashes, control characters, and
/// multi-byte unicode, all of which the escaper must handle.
const HOSTILE_STRING: &str = "[\"\\\\\n\r\t\u{1}\u{1f} a-zλ中☃𝄞]{0,24}";

/// Arbitrary documents over the hostile scalar domain.
fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        arb_number().prop_map(Value::Num),
        HOSTILE_STRING.prop_map(Value::Str),
        // The store's own escape hatch for revision counters past 2^53.
        any::<u64>().prop_map(Value::from_exact_u64),
    ];
    leaf.prop_recursive(3, 48, 5, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
            prop::collection::btree_map(HOSTILE_STRING, inner, 0..4).prop_map(dspace_value::object),
        ]
    })
}

proptest! {
    /// serialize → replay is the identity on every representable value.
    #[test]
    fn serialize_replay_identity(v in arb_value()) {
        let s = json::to_string(&v);
        let back = json::parse(&s)
            .unwrap_or_else(|e| panic!("replay failed for {s}: {e}"));
        prop_assert_eq!(&v, &back, "serialized form: {}", s);
    }

    /// `from_exact_u64` values survive the trip and decode back exactly.
    #[test]
    fn exact_u64_roundtrip(n in any::<u64>()) {
        let v = Value::from_exact_u64(n);
        let back = json::parse(&json::to_string(&v)).unwrap();
        prop_assert_eq!(back.as_exact_u64(), Some(n));
    }
}
