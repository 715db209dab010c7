//! The [`Value`] type: a JSON-like attribute–value tree.

use std::collections::{btree_map, BTreeMap};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use crate::name::Name;
use crate::path::{Malformed, Path, Segment, Token};

/// A JSON-like value with deterministic object ordering.
///
/// Objects are copy-on-write [`Map`]s over a [`BTreeMap`], so that
/// serialization, diffing, and hashing are deterministic — a requirement
/// for the reproducible experiments in this repository (every run of a
/// scenario must produce identical model states) — and so that cloning a
/// model or any object subtree costs O(1). Arrays and strings are still
/// copied whole.
///
/// Equality is structural, except that an object compares equal to itself
/// without being walked: a subtree shared by both sides is equal even if it
/// holds a `NaN`, which a walk would report unequal. No model can hold
/// `NaN` in practice (the JSON codec cannot spell it and reflex rejects
/// division by zero).
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// The null value.
    #[default]
    Null,
    /// A boolean.
    Bool(bool),
    /// A number; like jq, all numbers are IEEE-754 doubles.
    Num(f64),
    /// A UTF-8 string.
    Str(String),
    /// An ordered sequence of values.
    Array(Vec<Value>),
    /// A key-sorted map of attribute names to values.
    Object(Map),
}

/// The map behind [`Value::Object`]: a [`BTreeMap`] behind a reference
/// count (an [`Arc`], so `Value` stays `Send + Sync`), copied on write.
///
/// Cloning is O(1). A write through [`DerefMut`] copies this one map if
/// another handle still shares it, and leaves its entries shared, so a
/// write to a path copies only the maps along that path. Keys are
/// [`Name`]s, so that copy copies no key text. Two handles to
/// the same allocation compare equal without a walk (see [`Value`] on
/// `NaN`), and [`diff`](crate::diff()) and [`Value::merge`] skip such
/// subtrees.
#[derive(Clone, Default)]
pub struct Map(Arc<BTreeMap<Name, Value>>);

impl Map {
    /// An empty map.
    pub fn new() -> Self {
        Map::default()
    }

    /// Returns `true` if both handles share one allocation, which implies
    /// equal contents.
    pub fn ptr_eq(a: &Map, b: &Map) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// Returns `true` if another handle shares this map, so that a write
    /// through [`DerefMut`] would copy it first.
    pub fn is_shared(&self) -> bool {
        Arc::strong_count(&self.0) > 1
    }
}

impl Deref for Map {
    type Target = BTreeMap<Name, Value>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl DerefMut for Map {
    fn deref_mut(&mut self) -> &mut Self::Target {
        Arc::make_mut(&mut self.0)
    }
}

impl fmt::Debug for Map {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl PartialEq for Map {
    fn eq(&self, other: &Self) -> bool {
        Map::ptr_eq(self, other) || self.0 == other.0
    }
}

impl From<BTreeMap<Name, Value>> for Map {
    fn from(map: BTreeMap<Name, Value>) -> Self {
        Map(Arc::new(map))
    }
}

impl FromIterator<(Name, Value)> for Map {
    fn from_iter<I: IntoIterator<Item = (Name, Value)>>(iter: I) -> Self {
        Map::from(iter.into_iter().collect::<BTreeMap<_, _>>())
    }
}

impl<'a> IntoIterator for &'a Map {
    type Item = (&'a Name, &'a Value);
    type IntoIter = btree_map::Iter<'a, Name, Value>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl IntoIterator for Map {
    type Item = (Name, Value);
    type IntoIter = btree_map::IntoIter<Name, Value>;

    fn into_iter(self) -> Self::IntoIter {
        Arc::unwrap_or_clone(self.0).into_iter()
    }
}

/// Errors produced by path-based access on a [`Value`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValueError {
    /// The addressed attribute does not exist.
    NotFound(String),
    /// A path segment addressed into a non-container value.
    NotAContainer(String),
    /// An array index was out of bounds.
    IndexOutOfBounds(usize, usize),
    /// A key segment was applied to an array or an index to an object.
    SegmentMismatch(String),
}

impl fmt::Display for ValueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueError::NotFound(p) => write!(f, "attribute not found: {p}"),
            ValueError::NotAContainer(p) => {
                write!(f, "cannot descend into scalar at: {p}")
            }
            ValueError::IndexOutOfBounds(i, len) => {
                write!(f, "index {i} out of bounds for array of length {len}")
            }
            ValueError::SegmentMismatch(p) => {
                write!(f, "segment kind does not match container at: {p}")
            }
        }
    }
}

impl std::error::Error for ValueError {}

impl Value {
    /// Returns `true` if this value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Returns the boolean if this value is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the number if this value is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Returns the number rounded to an `i64` if this value is numeric.
    pub fn as_i64(&self) -> Option<i64> {
        self.as_f64().map(|n| n as i64)
    }

    /// Encodes a `u64` without precision loss: values at or below 2^53
    /// (exactly representable in an `f64`) become [`Value::Num`]; larger
    /// values become their decimal [`Value::Str`] rendering. Counters such
    /// as `meta.gen` use this so version comparisons stay exact past the
    /// `f64` mantissa.
    pub fn from_exact_u64(n: u64) -> Value {
        const MAX_SAFE: u64 = 1 << 53;
        if n <= MAX_SAFE {
            Value::Num(n as f64)
        } else {
            Value::Str(n.to_string())
        }
    }

    /// Inverse of [`Value::from_exact_u64`]: reads a non-negative integer
    /// from either a `Num` that is exactly representable (integral,
    /// within 2^53) or a decimal `Str`.
    pub fn as_exact_u64(&self) -> Option<u64> {
        const MAX_SAFE: f64 = (1u64 << 53) as f64;
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= MAX_SAFE => Some(*n as u64),
            Value::Str(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// Returns the string slice if this value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the array if this value is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Returns the object map if this value is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<Name, Value>> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Returns the mutable object map if this value is an object, copying
    /// it first if it is shared.
    pub fn as_object_mut(&mut self) -> Option<&mut BTreeMap<Name, Value>> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Returns the "truthiness" of the value using jq semantics: only
    /// `null` and `false` are falsy.
    pub fn truthy(&self) -> bool {
        !matches!(self, Value::Null | Value::Bool(false))
    }

    /// Looks up a value by [`Path`], returning `None` if any segment is
    /// missing or mismatched.
    pub fn get(&self, path: &Path) -> Option<&Value> {
        self.walk(path.segments().iter().map(|seg| Ok(seg.token())))
    }

    /// Looks up a value by a dotted path string, e.g. `"control.power.intent"`.
    ///
    /// Leading dots are accepted, so jq-style `.control.power` works too.
    /// The string is read in place, segment by segment, with the grammar
    /// [`Path`] parses: it allocates nothing, and a malformed path reads as
    /// `None`, exactly as `path.parse().ok().and_then(|p| self.get(&p))`.
    pub fn get_path(&self, path: &str) -> Option<&Value> {
        self.walk(crate::path::tokens(path))
    }

    /// Follows `tokens` down from this value; `None` at the first missing or
    /// mismatched segment, or at a malformed one.
    fn walk<'p>(
        &self,
        tokens: impl Iterator<Item = Result<Token<'p>, Malformed>>,
    ) -> Option<&Value> {
        let mut cur = self;
        for token in tokens {
            cur = match (token.ok()?, cur) {
                (Token::Key(k), Value::Object(map)) => map.get(k)?,
                (Token::Index(i), Value::Array(arr)) => arr.get(i)?,
                _ => return None,
            };
        }
        Some(cur)
    }

    /// Mutable lookup by [`Path`]; copies the shared maps along the path.
    pub fn get_mut(&mut self, path: &Path) -> Option<&mut Value> {
        let mut cur = self;
        for seg in path.segments() {
            match (seg, cur) {
                (Segment::Key(k), Value::Object(map)) => cur = map.get_mut(k.as_str())?,
                (Segment::Index(i), Value::Array(arr)) => cur = arr.get_mut(*i)?,
                _ => return None,
            }
        }
        Some(cur)
    }

    /// Sets the value at `path`, creating intermediate objects as needed.
    /// Only the maps along `path` are copied; every other subtree stays
    /// shared with the values this one was cloned from.
    ///
    /// Creating intermediate values only happens for key segments; writing
    /// through a missing array index is an error, as is descending through
    /// an existing scalar.
    pub fn set(&mut self, path: &Path, value: Value) -> Result<(), ValueError> {
        if path.is_empty() {
            *self = value;
            return Ok(());
        }
        let mut cur = self;
        let segs = path.segments();
        for (i, seg) in segs.iter().enumerate() {
            let last = i + 1 == segs.len();
            match seg {
                Segment::Key(k) => {
                    if cur.is_null() {
                        *cur = Value::Object(Map::new());
                    }
                    let map: &mut BTreeMap<Name, Value> = match cur {
                        Value::Object(m) => m,
                        _ => return Err(ValueError::NotAContainer(path.prefix(i).to_string())),
                    };
                    // The key is copied only when it is new to the map.
                    if last {
                        match map.get_mut(k.as_str()) {
                            Some(slot) => *slot = value,
                            None => {
                                map.insert(Name::from(k.as_str()), value);
                            }
                        }
                        return Ok(());
                    }
                    if !map.contains_key(k.as_str()) {
                        map.insert(Name::from(k.as_str()), Value::Null);
                    }
                    cur = map.get_mut(k.as_str()).expect("present or inserted above");
                }
                Segment::Index(idx) => {
                    let arr = match cur {
                        Value::Array(a) => a,
                        _ => return Err(ValueError::NotAContainer(path.prefix(i).to_string())),
                    };
                    let len = arr.len();
                    let slot = arr
                        .get_mut(*idx)
                        .ok_or(ValueError::IndexOutOfBounds(*idx, len))?;
                    if last {
                        *slot = value;
                        return Ok(());
                    }
                    cur = slot;
                }
            }
        }
        unreachable!("loop returns on the last segment");
    }

    /// Removes the value at `path`, returning it if present.
    pub fn remove(&mut self, path: &Path) -> Option<Value> {
        let (parent_path, last) = path.split_last()?;
        let parent = self.get_mut(&parent_path)?;
        match (last, parent) {
            (Segment::Key(k), Value::Object(map)) => map.remove(k.as_str()),
            (Segment::Index(i), Value::Array(arr)) if i < arr.len() => Some(arr.remove(i)),
            _ => None,
        }
    }

    /// Deep-merges `other` into `self`.
    ///
    /// Objects merge recursively; every other kind of value (including
    /// arrays) replaces the existing value wholesale, matching the
    /// strategic-merge behaviour digi models rely on. A subtree `other`
    /// shares with `self` is already merged and is skipped.
    pub fn merge(&mut self, other: &Value) {
        match (self, other) {
            (Value::Object(a), Value::Object(b)) if Map::ptr_eq(a, b) => {}
            (Value::Object(a), Value::Object(b)) => {
                for (k, v) in b {
                    match a.get_mut(k) {
                        Some(slot) => slot.merge(v),
                        None => {
                            a.insert(k.clone(), v.clone());
                        }
                    }
                }
            }
            (slot, v) => *slot = v.clone(),
        }
    }

    /// Returns the number of leaf (non-container) attributes in the tree.
    pub fn leaf_count(&self) -> usize {
        match self {
            Value::Object(map) => map.values().map(Value::leaf_count).sum(),
            Value::Array(arr) => arr.iter().map(Value::leaf_count).sum(),
            _ => 1,
        }
    }

    /// Returns a short name for the value's type, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "boolean",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::json::to_string(self))
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Num(n)
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Self {
        Value::Num(n as f64)
    }
}

impl From<i32> for Value {
    fn from(n: i32) -> Self {
        Value::Num(n as f64)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Num(n as f64)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Num(n as f64)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_u64_roundtrips_across_the_f64_cliff() {
        const MAX_SAFE: u64 = 1 << 53;
        for n in [0, 1, 42, MAX_SAFE - 1, MAX_SAFE, MAX_SAFE + 1, u64::MAX] {
            assert_eq!(Value::from_exact_u64(n).as_exact_u64(), Some(n), "n={n}");
        }
        // Small values stay plain numbers for backward compatibility...
        assert_eq!(Value::from_exact_u64(7), Value::Num(7.0));
        // ...and only the unrepresentable tail switches to strings.
        assert_eq!(
            Value::from_exact_u64(MAX_SAFE + 1),
            Value::Str((MAX_SAFE + 1).to_string())
        );
        // Adjacent giants must stay distinguishable (f64 would collapse them).
        assert_ne!(
            Value::from_exact_u64(MAX_SAFE + 1).as_exact_u64(),
            Value::from_exact_u64(MAX_SAFE + 2).as_exact_u64()
        );
    }

    #[test]
    fn as_exact_u64_rejects_lossy_shapes() {
        assert_eq!(Value::Num(-1.0).as_exact_u64(), None);
        assert_eq!(Value::Num(1.5).as_exact_u64(), None);
        assert_eq!(Value::Num(1e300).as_exact_u64(), None);
        assert_eq!(Value::Str("not a number".into()).as_exact_u64(), None);
        assert_eq!(Value::Null.as_exact_u64(), None);
    }

    fn sample() -> Value {
        crate::json::parse(
            r#"{
                "control": {
                    "power": {"intent": "on", "status": "off"},
                    "brightness": {"intent": 0.8, "status": 0.3}
                },
                "obs": {"objects": ["person", "dog"]}
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn get_by_path() {
        let v = sample();
        assert_eq!(
            v.get_path(".control.power.intent").and_then(Value::as_str),
            Some("on")
        );
        assert_eq!(
            v.get_path("obs.objects[1]").and_then(Value::as_str),
            Some("dog")
        );
        assert!(v.get_path(".missing.attr").is_none());
    }

    #[test]
    fn set_creates_intermediate_objects() {
        let mut v = Value::Null;
        let p: Path = ".a.b.c".parse().unwrap();
        v.set(&p, Value::from(1.0)).unwrap();
        assert_eq!(v.get_path(".a.b.c").and_then(Value::as_f64), Some(1.0));
    }

    #[test]
    fn set_through_scalar_fails() {
        let mut v = sample();
        let p: Path = ".control.power.intent.deeper".parse().unwrap();
        assert!(matches!(
            v.set(&p, Value::Null),
            Err(ValueError::NotAContainer(_))
        ));
    }

    #[test]
    fn set_array_index() {
        let mut v = sample();
        let p: Path = "obs.objects[0]".parse().unwrap();
        v.set(&p, "cat".into()).unwrap();
        assert_eq!(
            v.get_path("obs.objects[0]").and_then(Value::as_str),
            Some("cat")
        );
        let oob: Path = "obs.objects[9]".parse().unwrap();
        assert!(matches!(
            v.set(&oob, Value::Null),
            Err(ValueError::IndexOutOfBounds(9, 2))
        ));
    }

    #[test]
    fn remove_leaf_and_missing() {
        let mut v = sample();
        let p: Path = ".control.power.intent".parse().unwrap();
        assert_eq!(v.remove(&p), Some("on".into()));
        assert_eq!(v.remove(&p), None);
        assert!(v.get(&p).is_none());
    }

    #[test]
    fn merge_is_recursive_for_objects() {
        let mut a = sample();
        let b =
            crate::json::parse(r#"{"control": {"power": {"status": "on"}}, "extra": 1}"#).unwrap();
        a.merge(&b);
        assert_eq!(
            a.get_path(".control.power.status").and_then(Value::as_str),
            Some("on")
        );
        // Untouched sibling survives.
        assert_eq!(
            a.get_path(".control.power.intent").and_then(Value::as_str),
            Some("on")
        );
        assert_eq!(a.get_path("extra").and_then(Value::as_f64), Some(1.0));
    }

    #[test]
    fn merge_replaces_arrays() {
        let mut a = sample();
        let b = crate::json::parse(r#"{"obs": {"objects": ["cat"]}}"#).unwrap();
        a.merge(&b);
        assert_eq!(
            a.get_path("obs.objects").unwrap().as_array().unwrap().len(),
            1
        );
    }

    #[test]
    fn truthiness_follows_jq() {
        assert!(!Value::Null.truthy());
        assert!(!Value::Bool(false).truthy());
        assert!(Value::Num(0.0).truthy());
        assert!(Value::Str(String::new()).truthy());
    }

    #[test]
    fn leaf_count_counts_scalars() {
        assert_eq!(sample().leaf_count(), 6);
    }

    #[test]
    fn set_empty_path_replaces_root() {
        let mut v = sample();
        v.set(&Path::root(), Value::Num(3.0)).unwrap();
        assert_eq!(v, Value::Num(3.0));
    }

    #[test]
    fn a_shared_subtree_holding_nan_equals_itself() {
        let nan = crate::object([("x", Value::Num(f64::NAN))]);
        // Leaves keep IEEE semantics...
        assert_ne!(Value::Num(f64::NAN), Value::Num(f64::NAN));
        // ...but one map compares equal to itself without a walk...
        assert_eq!(nan, nan.clone());
        let (a, b) = (
            crate::object([("n", nan.clone())]),
            crate::object([("n", nan)]),
        );
        assert_eq!(a, b);
        assert!(crate::diff(&a, &b).is_empty());
        // ...while two separately built ones are walked and differ.
        let other = crate::object([("n", crate::object([("x", Value::Num(f64::NAN))]))]);
        assert_ne!(a, other);
        assert_eq!(crate::diff(&a, &other).len(), 1);
    }

    #[test]
    fn a_write_copies_only_its_path() {
        let old = sample();
        let mut new = old.clone();
        new.set(&".control.power.intent".parse().unwrap(), "off".into())
            .unwrap();
        let map = |v: &Value, p: &str| match v.get_path(p) {
            Some(Value::Object(m)) => m.clone(),
            other => panic!("no object at {p}: {other:?}"),
        };
        assert!(Map::ptr_eq(&map(&old, "obs"), &map(&new, "obs")));
        assert!(Map::ptr_eq(
            &map(&old, "control.brightness"),
            &map(&new, "control.brightness")
        ));
        assert!(!Map::ptr_eq(&map(&old, "control"), &map(&new, "control")));
        assert!(!Map::ptr_eq(
            &map(&old, "control.power"),
            &map(&new, "control.power")
        ));
        assert_eq!(
            old.get_path("control.power.intent").and_then(Value::as_str),
            Some("on")
        );
    }
}
