//! Property-based tests for the CSV cell rendering.

use extractor::Value;
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        (-1e15f64..1e15).prop_map(Value::Float),
        // Strings stressing the quoting path. Avoid strings that parse as
        // numbers or are empty, since those legitimately change type on a
        // round trip.
        "[a-zA-Z][a-zA-Z0-9 ,\"\n/._-]{0,30}".prop_map(|s: String| Value::Str(s.into())),
        Just(Value::Null),
    ]
}

/// Semantic equality of a rendered-and-reparsed cell: numbers compare
/// numerically (an Int may come back as the same Float and vice versa is
/// impossible since ints parse first), strings and nulls exactly.
fn csv_equivalent(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Str(x), Value::Str(y)) => x == y,
        _ => match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => (x - y).abs() <= (x.abs().max(y.abs())) * 1e-12 + f64::EPSILON,
            _ => false,
        },
    }
}

proptest! {
    #[test]
    fn value_parse_display_is_stable(v in arb_value()) {
        // Rendering and reparsing twice reaches a fixed point.
        let once = Value::parse(&v.to_string());
        let twice = Value::parse(&once.to_string());
        prop_assert!(csv_equivalent(&once, &twice));
    }
}
