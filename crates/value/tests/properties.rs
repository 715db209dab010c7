//! Property-based tests for the document substrate.

use proptest::prelude::*;

use dspace_value::{changed_paths, diff, json, yaml, Path, Value};

/// Strategy producing arbitrary JSON-like values of bounded depth.
fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        // Finite doubles that roundtrip through our integer-aware printer.
        (-1_000_000i64..1_000_000).prop_map(|n| Value::Num(n as f64)),
        (-1000.0f64..1000.0).prop_map(Value::Num),
        "[a-zA-Z0-9_ .:/-]{0,12}".prop_map(Value::Str),
    ];
    leaf.prop_recursive(3, 64, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..5).prop_map(Value::Array),
            prop::collection::btree_map("[a-z][a-z0-9_-]{0,6}", inner, 0..5)
                .prop_map(|m| Value::Object(m.into())),
        ]
    })
}

/// Strategy producing key-only paths.
fn arb_path() -> impl Strategy<Value = Path> {
    prop::collection::vec("[a-z][a-z0-9_]{0,5}", 1..4).prop_map(Path::keys)
}

/// Object-rooted documents over a three-letter key alphabet, so that
/// random paths and merges land on existing subtrees. NaN-free, like every
/// generator here.
fn arb_doc() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-1000.0f64..1000.0).prop_map(Value::Num),
        "[a-z]{0,3}".prop_map(Value::Str),
    ];
    let value = leaf.prop_recursive(3, 32, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..3).prop_map(Value::Array),
            prop::collection::btree_map("[a-c]", inner, 0..4).prop_map(|m| Value::Object(m.into())),
        ]
    });
    prop::collection::btree_map("[a-c]", value, 0..4).prop_map(|m| Value::Object(m.into()))
}

/// Key paths over [`arb_doc`]'s alphabet; the root path when empty.
fn arb_doc_path() -> impl Strategy<Value = Path> {
    prop::collection::vec("[a-c]", 0..4).prop_map(Path::keys)
}

/// Path strings over an alphabet heavy in the grammar's delimiters, digits,
/// whitespace, the key punctuation and a non-ASCII letter, with whole
/// index and key pieces mixed in so that many strings are well formed and
/// reach into [`arb_doc`]'s keys and arrays.
fn arb_path_str() -> impl Strategy<Value = String> {
    const PIECES: &[&str] = &[
        ".", ".", ".", "[", "]", "0", "1", "2", " ", "-", ":", "/", "_", "é", "a", "b", "c", ".a",
        ".b", "[0]", "[1]", "[ 2 ]",
    ];
    prop::collection::vec(0..PIECES.len(), 0..10)
        .prop_map(|ix| ix.into_iter().map(|i| PIECES[i]).collect())
}

/// One in-place edit of a document.
#[derive(Debug, Clone)]
enum Edit {
    Set(Path, Value),
    Merge(Value),
    Remove(Path),
    /// Inserts a key into the object at the path, via `as_object_mut`.
    Insert(Path, String, Value),
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (arb_doc_path(), arb_doc()).prop_map(|(p, v)| Edit::Set(p, v)),
        (arb_doc_path(), -10.0f64..10.0).prop_map(|(p, n)| Edit::Set(p, Value::Num(n))),
        arb_doc().prop_map(Edit::Merge),
        arb_doc_path().prop_map(Edit::Remove),
        (arb_doc_path(), "[a-c]", arb_doc()).prop_map(|(p, k, v)| Edit::Insert(p, k, v)),
    ]
}

fn apply(doc: &mut Value, edit: &Edit) {
    match edit {
        Edit::Set(p, v) => {
            let _ = doc.set(p, v.clone());
        }
        Edit::Merge(v) => doc.merge(v),
        Edit::Remove(p) => {
            doc.remove(p);
        }
        Edit::Insert(p, k, v) => {
            if let Some(map) = doc.get_mut(p).and_then(Value::as_object_mut) {
                map.insert(k.clone(), v.clone());
            }
        }
    }
}

/// A copy of `v` that shares nothing with it.
fn unshared(v: &Value) -> Value {
    json::parse(&json::to_string(v)).unwrap()
}

/// Structural equality that walks every map, whatever allocations the two
/// sides share: the reference the pruned `==` must agree with.
fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Object(x), Value::Object(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y.iter())
                    .all(|((kx, vx), (ky, vy))| kx == ky && same(vx, vy))
        }
        (Value::Array(x), Value::Array(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| same(p, q))
        }
        (Value::Object(_) | Value::Array(_), _) | (_, Value::Object(_) | Value::Array(_)) => false,
        _ => a == b,
    }
}

/// Applies `diff(from, to)` to a copy of `from`.
fn patched(from: &Value, to: &Value) -> Value {
    let mut out = from.clone();
    for change in diff(from, to) {
        match change.op {
            dspace_value::ChangeOp::Removed => {
                out.remove(&change.path);
            }
            _ => out.set(&change.path, change.new).unwrap(),
        }
    }
    out
}

proptest! {
    /// JSON serialization roundtrips: parse(to_string(v)) == v.
    #[test]
    fn json_roundtrip(v in arb_value()) {
        let s = json::to_string(&v);
        let back = json::parse(&s).unwrap();
        prop_assert_eq!(&v, &back);
        // Pretty form roundtrips too.
        let pretty = json::to_string_pretty(&v);
        prop_assert_eq!(&v, &json::parse(&pretty).unwrap());
    }

    /// diff(a, a) is empty for all documents.
    #[test]
    fn diff_reflexive(v in arb_value()) {
        prop_assert!(diff(&v, &v).is_empty());
    }

    /// Applying the changes from diff(a, b) to a produces b (on
    /// object-rooted documents).
    #[test]
    fn diff_then_patch_converges(
        a in prop::collection::btree_map("[a-z][a-z0-9]{0,4}", arb_value(), 0..5),
        b in prop::collection::btree_map("[a-z][a-z0-9]{0,4}", arb_value(), 0..5),
    ) {
        let a = Value::Object(a.into());
        let b = Value::Object(b.into());
        let patched = patched(&a, &b);
        prop_assert!(same(&patched, &b), "patched={patched} b={b}");
    }

    /// set followed by get returns the stored value.
    #[test]
    fn set_get_roundtrip(p in arb_path(), v in arb_value()) {
        let mut doc = dspace_value::obj();
        doc.set(&p, v.clone()).unwrap();
        prop_assert_eq!(doc.get(&p), Some(&v));
    }

    /// YAML emit/parse roundtrips for object-rooted documents.
    #[test]
    fn yaml_roundtrip(
        doc in prop::collection::btree_map("[a-z][a-z0-9_-]{0,6}", arb_value(), 0..5)
    ) {
        let v = Value::Object(doc.into());
        let text = yaml::to_string(&v);
        let back = yaml::parse(&text);
        prop_assert!(back.is_ok(), "parse failed: {:?}\n{}", back, text);
        prop_assert_eq!(back.unwrap(), v, "roundtrip mismatch:\n{}", text);
    }

    /// Path display/parse roundtrips.
    #[test]
    fn path_roundtrip(p in arb_path()) {
        let shown = p.to_string();
        let back: Path = shown.parse().unwrap();
        prop_assert_eq!(p, back);
    }

    /// Reading a path string in place agrees with parsing it and reading
    /// the parsed path, a malformed string included (both read `None`).
    #[test]
    fn get_path_reads_as_parse_then_get(v in arb_doc(), s in arb_path_str()) {
        let parsed = s.parse::<Path>().ok();
        prop_assert_eq!(v.get_path(&s), parsed.and_then(|p| v.get(&p)), "path {:?}", s);
    }

    /// The rendered change summary is the first `limit` paths of `diff`,
    /// `;`-joined, on documents that share subtrees or replace the root
    /// (rendered `.`), and it is allocated at exactly its length.
    #[test]
    fn changed_paths_render_the_first_diff_paths(
        a in arb_doc(),
        sets in prop::collection::vec((arb_doc_path(), arb_doc()), 0..6),
        replace_root in 0u8..4,
        root in arb_value(),
        limit in 0usize..10,
    ) {
        let mut b = a.clone();
        for (p, v) in sets {
            let _ = b.set(&p, v);
        }
        if replace_root == 0 {
            b = root;
        }
        for (from, to) in [(&a, &b), (&b, &a)] {
            let expected: Vec<String> = diff(from, to)
                .iter()
                .take(limit)
                .map(|c| c.path.to_string())
                .collect();
            let rendered = changed_paths(from, to, limit);
            prop_assert_eq!(&rendered, &expected.join(";"));
            prop_assert_eq!(rendered.capacity(), rendered.len());
        }
    }

    /// merge(a, b) makes every leaf of b present in the result.
    #[test]
    fn merge_takes_rhs_leaves(
        a in prop::collection::btree_map("[a-z][a-z0-9]{0,4}", arb_value(), 0..4),
        b in prop::collection::btree_map("[a-z][a-z0-9]{0,4}", arb_value(), 0..4),
    ) {
        let a = Value::Object(a.into());
        let b = Value::Object(b.into());
        let mut merged = a.clone();
        merged.merge(&b);
        // Every change between merged and b must come from `a`'s extra keys,
        // i.e. diffing b against merged only reports additions.
        for change in diff(&b, &merged) {
            prop_assert_eq!(change.op, dspace_value::ChangeOp::Added);
        }
    }

    /// Copy-on-write isolation: edits to a clone never reach the original,
    /// and land exactly as they do on a copy that shares nothing.
    #[test]
    fn edits_to_a_clone_never_alias(
        a in arb_doc(),
        edits in prop::collection::vec(arb_edit(), 0..8),
    ) {
        let before = unshared(&a);
        let mut b = a.clone();
        let mut expected = unshared(&a);
        for edit in &edits {
            apply(&mut b, edit);
            apply(&mut expected, edit);
        }
        prop_assert!(same(&a, &before), "a={a} before={before}");
        prop_assert!(same(&b, &expected), "b={b} expected={expected}");
        prop_assert_eq!(&a, &before);
    }

    /// Equality, diff and merge skip subtrees two documents share, and
    /// agree with a full walk and with the same operations on copies that
    /// share nothing.
    #[test]
    fn pruned_compare_diff_and_merge_match_unshared(
        a in arb_doc(),
        sets in prop::collection::vec((arb_doc_path(), arb_doc()), 0..4),
        nums in prop::collection::vec((arb_doc_path(), -3i64..4), 0..4),
    ) {
        let mut b = a.clone();
        for (p, v) in sets {
            let _ = b.set(&p, v);
        }
        // Small integers often rewrite a leaf with the value it holds.
        for (p, n) in nums {
            let _ = b.set(&p, Value::Num(n as f64));
        }
        let (ua, ub) = (unshared(&a), unshared(&b));
        prop_assert_eq!(a == b, same(&a, &b));
        prop_assert_eq!(b == a, same(&a, &b));
        prop_assert_eq!(ua == ub, same(&a, &b));
        prop_assert_eq!(diff(&a, &b), diff(&ua, &ub));
        prop_assert_eq!(diff(&b, &a), diff(&ub, &ua));
        prop_assert!(same(&patched(&a, &b), &b), "diff(a, b) does not turn a into b");
        prop_assert!(same(&patched(&b, &a), &a), "diff(b, a) does not turn b into a");
        let (mut merged, mut umerged) = (a.clone(), ua.clone());
        merged.merge(&b);
        umerged.merge(&ub);
        prop_assert!(same(&merged, &umerged), "merged={merged} unshared={umerged}");
    }
}
