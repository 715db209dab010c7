//! API objects and references.

use std::fmt;

use dspace_value::{Name, Value};

/// Uniquely identifies an API object: `(kind, namespace, name)`.
///
/// The parts are shared [`Name`]s, so cloning a reference (and every event,
/// object or mount edge that holds one) copies no text.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectRef {
    /// The object's kind, e.g. `Room` or `Sync`.
    pub kind: Name,
    /// Namespace, usually `default`.
    pub namespace: Name,
    /// Object name, e.g. `lvroom`.
    pub name: Name,
}

impl ObjectRef {
    /// Creates a reference.
    pub fn new(kind: impl Into<Name>, namespace: impl Into<Name>, name: impl Into<Name>) -> Self {
        ObjectRef {
            kind: kind.into(),
            namespace: namespace.into(),
            name: name.into(),
        }
    }

    /// Shorthand for the `default` namespace.
    pub fn default_ns(kind: impl Into<Name>, name: impl Into<Name>) -> Self {
        Self::new(kind, "default", name)
    }

    /// Builds a reference from a model's `meta` section, if complete.
    pub fn from_model(model: &Value) -> Option<ObjectRef> {
        Some(ObjectRef::new(
            model.get_path("meta.kind")?.as_str()?,
            model
                .get_path("meta.namespace")
                .and_then(Value::as_str)
                .unwrap_or("default"),
            model.get_path("meta.name")?.as_str()?,
        ))
    }
}

impl fmt::Display for ObjectRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}/{}", self.kind, self.namespace, self.name)
    }
}

/// A stored object: its model document plus the resource version.
#[derive(Debug, Clone, PartialEq)]
pub struct Object {
    /// The object's identity.
    pub oref: ObjectRef,
    /// The model document. `meta.gen` mirrors `resource_version` — this is
    /// the version number that §3.5's intent-reconciliation guarantee is
    /// built on.
    ///
    /// The model shares its maps with the watch events that announced it
    /// (see [`dspace_value::Map`]): reading an object is O(1) in the model
    /// size, and a write to a model that an event still holds copies only
    /// the maps along the written path.
    pub model: Value,
    /// Monotonic per-object version, incremented on every write.
    pub resource_version: u64,
}

impl Object {
    /// Convenience accessor into the model.
    pub fn get(&self, path: &str) -> Option<&Value> {
        self.model.get_path(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspace_value::json;

    #[test]
    fn display_is_kind_ns_name() {
        let r = ObjectRef::default_ns("Room", "lvroom");
        assert_eq!(r.to_string(), "Room/default/lvroom");
    }

    #[test]
    fn from_model_reads_meta() {
        let m =
            json::parse(r#"{"meta": {"kind": "Lamp", "namespace": "ns1", "name": "l1"}}"#).unwrap();
        assert_eq!(
            ObjectRef::from_model(&m),
            Some(ObjectRef::new("Lamp", "ns1", "l1"))
        );
        // Missing name -> None.
        let bad = json::parse(r#"{"meta": {"kind": "Lamp"}}"#).unwrap();
        assert_eq!(ObjectRef::from_model(&bad), None);
        // Missing namespace defaults.
        let dflt = json::parse(r#"{"meta": {"kind": "Lamp", "name": "l1"}}"#).unwrap();
        assert_eq!(ObjectRef::from_model(&dflt).unwrap().namespace, "default");
    }
}
