//! Robustness properties of the reflex interpreter: embedded policies are
//! user input, so neither the compiler nor the evaluator may ever panic.

use proptest::prelude::*;

use dspace_reflex::{eval_str, Env, Program};
use dspace_value::Value;

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-1000.0f64..1000.0).prop_map(Value::Num),
        "[a-z]{0,6}".prop_map(Value::Str),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
            prop::collection::btree_map("[a-z]{1,4}", inner, 0..4).prop_map(dspace_value::object),
        ]
    })
}

/// Fragments that compose into syntactically plausible (often invalid)
/// programs — a grammar-aware fuzzer beats pure noise at reaching the
/// evaluator.
fn arb_program() -> impl Strategy<Value = String> {
    let atom = prop_oneof![
        Just(".".to_string()),
        Just(".a".to_string()),
        Just(".a.b".to_string()),
        Just(".a[0]".to_string()),
        Just("$time".to_string()),
        Just("$x".to_string()),
        Just("1".to_string()),
        Just("\"s\"".to_string()),
        Just("null".to_string()),
        Just("true".to_string()),
        Just("[1, .a]".to_string()),
        Just("{k: .a}".to_string()),
        Just("length".to_string()),
        Just("keys".to_string()),
        Just("map(. + 1)".to_string()),
        Just("select(. > 0)".to_string()),
        Just("error(\"x\")".to_string()),
        Just("frobnicate".to_string()),
    ];
    let op = prop_oneof![
        Just(" + "),
        Just(" - "),
        Just(" * "),
        Just(" / "),
        Just(" % "),
        Just(" == "),
        Just(" != "),
        Just(" < "),
        Just(" <= "),
        Just(" and "),
        Just(" or "),
        Just(" // "),
        Just(" | "),
        Just(" = "),
        Just(" |= "),
        Just(" += "),
    ];
    (atom.clone(), prop::collection::vec((op, atom), 0..5)).prop_map(|(first, rest)| {
        let mut s = first;
        for (o, a) in rest {
            s.push_str(o);
            s.push_str(&a);
        }
        s
    })
}

proptest! {
    /// Compiling arbitrary byte soup never panics.
    #[test]
    fn compile_never_panics(src in "\\PC{0,64}") {
        let _ = Program::compile(&src);
    }

    /// Compiling and evaluating grammar-shaped programs never panics and
    /// always returns a Result.
    #[test]
    fn eval_never_panics(src in arb_program(), input in arb_value()) {
        let env = Env::new().with_var("time", 100.0.into());
        let _ = eval_str(&src, &input, &env);
    }

    /// Conditions used by policies are total: whatever the model looks
    /// like, the Fig. 3 reflex either succeeds or errors — and when it
    /// succeeds on an object input, the output is still an object.
    #[test]
    fn fig3_is_total_over_models(input in arb_value(), t in 0.0f64..10_000.0) {
        let env = Env::new().with_var("time", t.into());
        let src = "if $time - (.motion.obs.last_triggered_time // 0) <= 600 \
                   then .control.brightness.intent = 1 else . end";
        if let Ok(out) = eval_str(src, &input, &env) {
            if input.as_object().is_some() {
                prop_assert!(out.as_object().is_some(), "object in, {} out", out.type_name());
            }
        }
    }

    /// Evaluation is deterministic.
    #[test]
    fn eval_deterministic(src in arb_program(), input in arb_value()) {
        let env = Env::new().with_var("time", 5.0.into());
        let a = eval_str(&src, &input, &env);
        let b = eval_str(&src, &input, &env);
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
