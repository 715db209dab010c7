//! Structural diffs between two model snapshots.
//!
//! Drivers in dSpace register handlers with *filters* that fire only when
//! particular attributes change (§4.2). The reconciler computes the set of
//! changed paths between the previous and the new model with [`diff`] and
//! matches handler filters against it.

use std::ops::ControlFlow;

use crate::name::Name;
use crate::path::Path;
use crate::value::{Map, Value};

/// The kind of change at a path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChangeOp {
    /// The attribute was created.
    Added,
    /// The attribute's value changed.
    Updated,
    /// The attribute was removed.
    Removed,
}

/// A single leaf-level change between two documents.
#[derive(Debug, Clone, PartialEq)]
pub struct Change {
    /// Path of the changed attribute.
    pub path: Path,
    /// Kind of change.
    pub op: ChangeOp,
    /// Value before the change (`Null` when added).
    pub old: Value,
    /// Value after the change (`Null` when removed).
    pub new: Value,
}

impl Change {
    /// Returns `true` if this change is at or below `prefix`.
    pub fn under(&self, prefix: &Path) -> bool {
        prefix.is_prefix_of(&self.path)
    }
}

/// Computes the leaf-level changes needed to turn `old` into `new`.
///
/// Object attributes are compared recursively. Arrays are treated as leaves:
/// any difference produces a single `Updated` change at the array's path,
/// which matches how digi models treat list attributes (e.g. `obs.objects`)
/// as atomic observations. A subtree both documents share (the same
/// [`Map`] allocation) has no changes and is not walked.
///
/// # Examples
///
/// ```
/// use dspace_value::{diff, json};
/// let old = json::parse(r#"{"a": 1, "b": {"c": 2}}"#).unwrap();
/// let new = json::parse(r#"{"a": 1, "b": {"c": 3}, "d": 4}"#).unwrap();
/// let changes = diff(&old, &new);
/// assert_eq!(changes.len(), 2);
/// ```
pub fn diff(old: &Value, new: &Value) -> Vec<Change> {
    let mut out = Vec::new();
    let _ = walk(&mut Vec::new(), old, new, &mut |keys, op, old, new| {
        out.push(Change {
            path: Path::keys(keys.iter().copied()),
            op,
            old: old.clone(),
            new: new.clone(),
        });
        ControlFlow::Continue(())
    });
    out
}

/// Renders the paths of the first `limit` changes [`diff`] would list,
/// `;`-joined in the same order, without building the changes: a trace
/// line's summary of what changed. The root path renders as `.`. The text
/// is copied into a string of exactly its length before it is returned,
/// since callers keep it.
///
/// # Examples
///
/// ```
/// use dspace_value::{changed_paths, json};
/// let old = json::parse(r#"{"a": 1, "b": {"c": 2}}"#).unwrap();
/// let new = json::parse(r#"{"a": 1, "b": {"c": 3}, "d": 4}"#).unwrap();
/// assert_eq!(changed_paths(&old, &new, 8), ".b.c;.d");
/// assert_eq!(changed_paths(&old, &new, 1), ".b.c");
/// ```
pub fn changed_paths(old: &Value, new: &Value, limit: usize) -> String {
    let mut out = String::with_capacity(64);
    let mut left = limit;
    if left > 0 {
        let _ = walk(&mut Vec::new(), old, new, &mut |keys, _, _, _| {
            if left < limit {
                out.push(';');
            }
            if keys.is_empty() {
                out.push('.');
            }
            for k in keys {
                out.push('.');
                out.push_str(k);
            }
            left -= 1;
            if left == 0 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
    }
    out.as_str().to_owned()
}

/// Visits, in order, each change below the path spelled by the key stack
/// `keys` with its key path, kind, old value and new value (`Null` where
/// absent). Stops when `visit` breaks.
fn walk<'a>(
    keys: &mut Vec<&'a str>,
    old: &'a Value,
    new: &'a Value,
    visit: &mut impl FnMut(&[&'a str], ChangeOp, &'a Value, &'a Value) -> ControlFlow<()>,
) -> ControlFlow<()> {
    match (old, new) {
        (Value::Object(a), Value::Object(b)) => {
            if Map::ptr_eq(a, b) {
                return ControlFlow::Continue(());
            }
            // One merge pass over both sorted entry sequences: removals and
            // recursion in `a`'s order, then additions in `b`'s order.
            let mut added: Vec<(&'a Name, &'a Value)> = Vec::new();
            let mut bs = b.iter().peekable();
            for (k, va) in a {
                while let Some(entry) = bs.next_if(|(kb, _)| *kb < k) {
                    added.push(entry);
                }
                keys.push(k);
                let flow = match bs.next_if(|(kb, _)| *kb == k) {
                    Some((_, vb)) => walk(keys, va, vb, visit),
                    None => visit(keys, ChangeOp::Removed, va, &Value::Null),
                };
                keys.pop();
                flow?;
            }
            for (k, vb) in added.into_iter().chain(bs) {
                keys.push(k);
                let flow = visit(keys, ChangeOp::Added, &Value::Null, vb);
                keys.pop();
                flow?;
            }
            ControlFlow::Continue(())
        }
        (a, b) if a == b => ControlFlow::Continue(()),
        (a, b) => visit(keys, ChangeOp::Updated, a, b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn identical_documents_have_no_changes() {
        let v = parse(r#"{"a": {"b": [1, 2]}}"#).unwrap();
        assert!(diff(&v, &v).is_empty());
    }

    #[test]
    fn detects_update_add_remove() {
        let old = parse(r#"{"keep": 1, "change": 2, "drop": 3}"#).unwrap();
        let new = parse(r#"{"keep": 1, "change": 20, "fresh": 4}"#).unwrap();
        let changes = diff(&old, &new);
        assert_eq!(changes.len(), 3);
        let find = |p: &str| {
            changes
                .iter()
                .find(|c| c.path.to_string() == p)
                .unwrap_or_else(|| panic!("no change at {p}"))
        };
        assert_eq!(find(".change").op, ChangeOp::Updated);
        assert_eq!(find(".drop").op, ChangeOp::Removed);
        assert_eq!(find(".fresh").op, ChangeOp::Added);
    }

    #[test]
    fn nested_change_reports_leaf_path() {
        let old = parse(r#"{"control": {"power": {"intent": "off"}}}"#).unwrap();
        let new = parse(r#"{"control": {"power": {"intent": "on"}}}"#).unwrap();
        let changes = diff(&old, &new);
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].path.to_string(), ".control.power.intent");
        assert_eq!(changes[0].old.as_str(), Some("off"));
        assert_eq!(changes[0].new.as_str(), Some("on"));
    }

    #[test]
    fn arrays_are_atomic() {
        let old = parse(r#"{"objects": ["person"]}"#).unwrap();
        let new = parse(r#"{"objects": ["person", "dog"]}"#).unwrap();
        let changes = diff(&old, &new);
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].path.to_string(), ".objects");
        assert_eq!(changes[0].op, ChangeOp::Updated);
    }

    #[test]
    fn type_change_is_update() {
        let old = parse(r#"{"x": {"y": 1}}"#).unwrap();
        let new = parse(r#"{"x": 5}"#).unwrap();
        let changes = diff(&old, &new);
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].path.to_string(), ".x");
    }

    #[test]
    fn change_under_prefix() {
        let old = parse(r#"{"control": {"power": {"intent": "off"}}}"#).unwrap();
        let new = parse(r#"{"control": {"power": {"intent": "on"}}}"#).unwrap();
        let changes = diff(&old, &new);
        let control: Path = ".control".parse().unwrap();
        let obs: Path = ".obs".parse().unwrap();
        assert!(changes[0].under(&control));
        assert!(!changes[0].under(&obs));
    }
}
