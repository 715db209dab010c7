//! Attribute–value document substrate for dSpace.
//!
//! Digi models in dSpace (SOSP 2021, §3.1) are attribute–value documents
//! hosted on the apiserver. This crate provides the document model used
//! throughout the reproduction:
//!
//! - [`Value`]: a JSON-like value (null, bool, number, string, array, object)
//!   with deterministic (sorted) object ordering.
//! - [`Path`]: dotted-path addressing of attributes, mirroring the URIs used
//!   by the paper's model verbs (e.g. `.control.brightness.intent`).
//! - [`json`]: a self-contained JSON parser and serializer.
//! - [`yaml`]: a YAML-subset parser for digi schemas and `dq` configuration
//!   files (the paper composes digis declaratively via yaml).
//! - [`diff()`]: structural diffs between two models, used by drivers to filter
//!   handler invocations on the attributes that actually changed.
//! - [`schema`]: kind schemas with typed attributes and validation, the
//!   equivalent of the paper's model schemas (§4.1).
//!
//! # Examples
//!
//! ```
//! use dspace_value::{Value, Path};
//!
//! let mut model = dspace_value::json::parse(
//!     r#"{"control": {"power": {"intent": "on", "status": "off"}}}"#,
//! ).unwrap();
//! let path: Path = ".control.power.status".parse().unwrap();
//! model.set(&path, Value::from("on")).unwrap();
//! assert_eq!(model.get(&path).unwrap().as_str(), Some("on"));
//! ```

pub mod diff;
pub mod json;
pub mod name;
pub mod path;
pub mod schema;
pub mod value;
pub mod yaml;

pub use diff::{changed_paths, diff, Change, ChangeOp};
pub use name::Name;
pub use path::{Path, Segment};
pub use schema::{AttrType, KindSchema, SchemaError};
pub use value::{Map, Value, ValueError};

/// Convenience constructor for an empty object value.
pub fn obj() -> Value {
    Value::Object(Default::default())
}

/// Builds an object [`Value`] from `(key, value)` pairs.
///
/// # Examples
///
/// ```
/// let v = dspace_value::object([("a", 1.0.into()), ("b", true.into())]);
/// assert_eq!(v.get_path("a").and_then(|x| x.as_f64()), Some(1.0));
/// ```
pub fn object<I, K>(pairs: I) -> Value
where
    I: IntoIterator<Item = (K, Value)>,
    K: Into<Name>,
{
    Value::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Builds an array [`Value`] from an iterator of values.
pub fn array<I: IntoIterator<Item = Value>>(items: I) -> Value {
    Value::Array(items.into_iter().collect())
}
