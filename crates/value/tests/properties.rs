//! Property-based tests for the document substrate.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;

use dspace_value::{changed_paths, diff, json, yaml, Change, ChangeOp, Map, Name, Path, Value};

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
                .prop_map(dspace_value::object),
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
            prop::collection::btree_map("[a-c]", inner, 0..4).prop_map(dspace_value::object),
        ]
    });
    prop::collection::btree_map("[a-c]", value, 0..4).prop_map(dspace_value::object)
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
                map.insert(k.as_str().into(), v.clone());
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
            ChangeOp::Removed => {
                out.remove(&change.path);
            }
            _ => out.set(&change.path, change.new).unwrap(),
        }
    }
    out
}

/// Strings over a small alphabet with ASCII, two-byte, three-byte and
/// four-byte letters, each followed by all of its prefixes: the set holds
/// empty strings, strings that are prefixes of one another and strings
/// that differ only past a shared prefix.
fn arb_names() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec("[abZ é中𝄞]{0,5}", 1..6).prop_map(|words| {
        let mut out = Vec::new();
        for w in &words {
            out.extend(w.char_indices().map(|(i, _)| w[..i].to_string()));
            out.push(w.clone());
        }
        out
    })
}

fn hash_of<T: Hash + ?Sized>(t: &T) -> u64 {
    let mut h = DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

/// The lookup walk `diff` made before its merge pass, kept as the order
/// reference: removals and recursion in the old map's key order, each key
/// looked up in the new map, then additions in the new map's order, each
/// key looked up in the old map; a shared map is skipped.
fn diff_by_lookup(old: &Value, new: &Value) -> Vec<Change> {
    fn change(keys: &[String], op: ChangeOp, old: &Value, new: &Value) -> Change {
        Change {
            path: Path::keys(keys.iter().map(String::as_str)),
            op,
            old: old.clone(),
            new: new.clone(),
        }
    }
    fn walk(keys: &mut Vec<String>, a: &Value, b: &Value, out: &mut Vec<Change>) {
        match (a, b) {
            (Value::Object(x), Value::Object(y)) => {
                if Map::ptr_eq(x, y) {
                    return;
                }
                for (k, va) in x {
                    keys.push(k.to_string());
                    match y.get(k.as_str()) {
                        Some(vb) => walk(keys, va, vb, out),
                        None => out.push(change(keys, ChangeOp::Removed, va, &Value::Null)),
                    }
                    keys.pop();
                }
                for (k, vb) in y {
                    if !x.contains_key(k.as_str()) {
                        keys.push(k.to_string());
                        out.push(change(keys, ChangeOp::Added, &Value::Null, vb));
                        keys.pop();
                    }
                }
            }
            (a, b) if a == b => {}
            (a, b) => out.push(change(keys, ChangeOp::Updated, a, b)),
        }
    }
    let mut out = Vec::new();
    walk(&mut Vec::new(), old, new, &mut out);
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
        let a = dspace_value::object(a);
        let b = dspace_value::object(b);
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
        let v = dspace_value::object(doc);
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
        let a = dspace_value::object(a);
        let b = dspace_value::object(b);
        let mut merged = a.clone();
        merged.merge(&b);
        // Every change between merged and b must come from `a`'s extra keys,
        // i.e. diffing b against merged only reports additions.
        for change in diff(&b, &merged) {
            prop_assert_eq!(change.op, ChangeOp::Added);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `Name` compares, orders and hashes exactly as `str`; a clone and a
    /// separately built name are equal; and a `Name`-keyed map iterates in
    /// the order a `String`-keyed one of the same strings does, and looks
    /// up by `&str`.
    #[test]
    fn names_compare_order_and_hash_as_str(words in arb_names()) {
        let names: Vec<Name> = words.iter().map(|w| Name::from(w.as_str())).collect();
        for (a, na) in words.iter().zip(&names) {
            let rebuilt = Name::from(a.clone());
            prop_assert_eq!(na.clone(), rebuilt.clone());
            prop_assert_eq!(na.cmp(&rebuilt), std::cmp::Ordering::Equal);
            prop_assert_eq!(hash_of(na), hash_of(&rebuilt));
            prop_assert_eq!(na.as_str(), a.as_str());
            prop_assert!(*na == *a.as_str());
            prop_assert_eq!(hash_of(na), hash_of(a.as_str()));
            for (b, nb) in words.iter().zip(&names) {
                prop_assert_eq!(na == nb, a == b, "{:?} == {:?}", a, b);
                prop_assert_eq!(na.cmp(nb), a.cmp(b), "{:?} cmp {:?}", a, b);
                prop_assert_eq!(na.partial_cmp(nb), a.partial_cmp(b));
            }
        }
        let by_name: BTreeMap<Name, usize> = names.iter().cloned().zip(0..).collect();
        let by_string: BTreeMap<String, usize> = words.iter().cloned().zip(0..).collect();
        prop_assert!(by_name.keys().map(Name::as_str).eq(by_string.keys().map(String::as_str)));
        prop_assert!(by_name.values().eq(by_string.values()));
        for w in &words {
            prop_assert_eq!(by_name.get(w.as_str()), by_string.get(w));
        }
    }

    /// `diff`'s merge pass lists the same paths, ops and values in the
    /// same order as the lookup walk it replaced, on pairs with added,
    /// removed and changed keys at several depths: a document against an
    /// edited clone that shares its untouched subtrees, against an
    /// unshared copy of that clone, and against an unrelated document.
    #[test]
    fn diff_matches_the_lookup_walk_in_order(
        a in arb_doc(),
        edits in prop::collection::vec(arb_edit(), 0..8),
        other in arb_doc(),
        pick in 0u8..4,
    ) {
        let mut b = a.clone();
        for edit in &edits {
            apply(&mut b, edit);
        }
        match pick {
            0 => b = unshared(&b),
            1 => b = other,
            _ => {}
        }
        prop_assert_eq!(diff(&a, &b), diff_by_lookup(&a, &b));
        prop_assert_eq!(diff(&b, &a), diff_by_lookup(&b, &a));
    }
}
