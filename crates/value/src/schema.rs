//! Kind schemas for digi models (§4.1 of the paper).
//!
//! A digi is created by "specifying its model schema": the digi's group,
//! version, and kind, plus its typed attributes. A [`KindSchema`] validates
//! model documents, distinguishes digivices (control attributes) from
//! digidata (data attributes), and records which child kinds may be mounted
//! (the *mount references* of §3.2).

use std::collections::BTreeMap;
use std::fmt;

use crate::name::Name;
use crate::value::{Map, Value};

/// The declared type of a model attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttrType {
    /// A UTF-8 string.
    String,
    /// An IEEE-754 number.
    Number,
    /// A boolean.
    Bool,
    /// An arbitrary object subtree.
    Object,
    /// An array of arbitrary values.
    Array,
    /// Any value type (no constraint).
    Any,
}

impl AttrType {
    /// Returns `true` if `value` conforms to this type. `Null` conforms to
    /// every type (attributes may be unset).
    pub fn admits(&self, value: &Value) -> bool {
        matches!(
            (self, value),
            (_, Value::Null)
                | (AttrType::Any, _)
                | (AttrType::String, Value::Str(_))
                | (AttrType::Number, Value::Num(_))
                | (AttrType::Bool, Value::Bool(_))
                | (AttrType::Object, Value::Object(_))
                | (AttrType::Array, Value::Array(_))
        )
    }
}

impl fmt::Display for AttrType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AttrType::String => "string",
            AttrType::Number => "number",
            AttrType::Bool => "bool",
            AttrType::Object => "object",
            AttrType::Array => "array",
            AttrType::Any => "any",
        };
        f.write_str(s)
    }
}

/// Validation failure for a model against its [`KindSchema`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// A control/data attribute had the wrong type.
    TypeMismatch {
        /// Attribute path that failed.
        path: String,
        /// Declared type.
        expected: AttrType,
        /// Actual value type found.
        found: &'static str,
    },
    /// The model declares a kind that differs from the schema's kind.
    KindMismatch {
        /// Kind declared by the schema.
        expected: String,
        /// Kind found in the model.
        found: String,
    },
    /// An attribute appears in the model but not in the schema.
    UnknownAttribute(String),
    /// A digi may have control attributes or data attributes, never both
    /// (§3.1, footnote 4).
    MixedControlAndData,
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::TypeMismatch {
                path,
                expected,
                found,
            } => {
                write!(f, "attribute {path}: expected {expected}, found {found}")
            }
            SchemaError::KindMismatch { expected, found } => {
                write!(
                    f,
                    "model kind {found} does not match schema kind {expected}"
                )
            }
            SchemaError::UnknownAttribute(p) => write!(f, "unknown attribute {p}"),
            SchemaError::MixedControlAndData => {
                write!(f, "a digi cannot declare both control and data attributes")
            }
        }
    }
}

impl std::error::Error for SchemaError {}

/// Whether a schema describes a digivice or a digidata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DigiClass {
    /// Declaratively controlled actuation (has `control` attributes).
    Digivice,
    /// Dataflow processing (has `data.input`/`data.output` attributes).
    Digidata,
}

/// The schema of a digi kind: identifiers plus typed attributes.
///
/// # Examples
///
/// ```
/// use dspace_value::{AttrType, KindSchema};
///
/// let plug = KindSchema::digivice("digi.dev", "v1", "Plug")
///     .control("power", AttrType::String);
/// assert_eq!(plug.kind, "Plug");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KindSchema {
    /// API group, e.g. `digi.dev`.
    pub group: String,
    /// Schema version, e.g. `v1` (distinct from the model's runtime version
    /// number, see §3.5 footnote 5).
    pub version: String,
    /// The kind name, e.g. `Room`.
    pub kind: String,
    /// Digivice or digidata.
    pub class: DigiClass,
    /// Control attributes (digivice) with their declared types.
    pub control: BTreeMap<String, AttrType>,
    /// Data input attributes (digidata).
    pub input: BTreeMap<String, AttrType>,
    /// Data output attributes (digidata).
    pub output: BTreeMap<String, AttrType>,
    /// Observation attributes (free-form events/insights).
    pub obs: BTreeMap<String, AttrType>,
    /// Kinds that may be mounted as children (mount references, §3.2).
    pub mounts: Vec<String>,
}

impl KindSchema {
    /// Starts a digivice schema.
    pub fn digivice(
        group: impl Into<String>,
        version: impl Into<String>,
        kind: impl Into<String>,
    ) -> Self {
        KindSchema {
            group: group.into(),
            version: version.into(),
            kind: kind.into(),
            class: DigiClass::Digivice,
            control: BTreeMap::new(),
            input: BTreeMap::new(),
            output: BTreeMap::new(),
            obs: BTreeMap::new(),
            mounts: Vec::new(),
        }
    }

    /// Starts a digidata schema.
    pub fn digidata(
        group: impl Into<String>,
        version: impl Into<String>,
        kind: impl Into<String>,
    ) -> Self {
        let mut s = Self::digivice(group, version, kind);
        s.class = DigiClass::Digidata;
        s
    }

    /// Declares a control attribute (digivice only).
    ///
    /// # Panics
    ///
    /// Panics if called on a digidata schema; a digi cannot have both
    /// control and data attributes (§3.1).
    pub fn control(mut self, name: impl Into<String>, ty: AttrType) -> Self {
        assert!(
            self.class == DigiClass::Digivice,
            "control attributes are digivice-only"
        );
        self.control.insert(name.into(), ty);
        self
    }

    /// Declares a data input attribute (digidata only).
    ///
    /// # Panics
    ///
    /// Panics if called on a digivice schema.
    pub fn input(mut self, name: impl Into<String>, ty: AttrType) -> Self {
        assert!(
            self.class == DigiClass::Digidata,
            "input attributes are digidata-only"
        );
        self.input.insert(name.into(), ty);
        self
    }

    /// Declares a data output attribute (digidata only).
    ///
    /// # Panics
    ///
    /// Panics if called on a digivice schema.
    pub fn output(mut self, name: impl Into<String>, ty: AttrType) -> Self {
        assert!(
            self.class == DigiClass::Digidata,
            "output attributes are digidata-only"
        );
        self.output.insert(name.into(), ty);
        self
    }

    /// Declares an observation attribute.
    pub fn obs(mut self, name: impl Into<String>, ty: AttrType) -> Self {
        self.obs.insert(name.into(), ty);
        self
    }

    /// Declares that children of `kind` may be mounted to this digivice.
    pub fn mounts(mut self, kind: impl Into<String>) -> Self {
        self.mounts.push(kind.into());
        self
    }

    /// Returns `true` if this schema allows mounting children of `kind`.
    pub fn allows_mount_of(&self, kind: &str) -> bool {
        self.mounts.iter().any(|k| k == kind)
    }

    /// Builds a fresh model document conforming to this schema: `meta`
    /// populated, every declared attribute present as `intent`/`status`
    /// pairs (digivice) or `input`/`output` maps (digidata).
    pub fn new_model(&self, name: &str, namespace: &str) -> Value {
        // An object with one entry per declared attribute, each `value()`.
        let entries = |attrs: &BTreeMap<String, AttrType>, value: fn() -> Value| {
            crate::object(attrs.keys().map(|k| (k.as_str(), value())))
        };
        let meta = crate::object([
            ("group", Value::from(self.group.as_str())),
            ("version", Value::from(self.version.as_str())),
            ("kind", Value::from(self.kind.as_str())),
            ("name", Value::from(name)),
            ("namespace", Value::from(namespace)),
            ("gen", Value::from(0.0)),
        ]);
        let mut root: BTreeMap<Name, Value> = BTreeMap::new();
        root.insert("meta".into(), meta);
        match self.class {
            DigiClass::Digivice => {
                let pair = || crate::object([("intent", Value::Null), ("status", Value::Null)]);
                root.insert("control".into(), entries(&self.control, pair));
                root.insert("mount".into(), Value::Object(Map::new()));
            }
            DigiClass::Digidata => {
                let data = crate::object([
                    ("input", entries(&self.input, || Value::Null)),
                    ("output", entries(&self.output, || Value::Null)),
                ]);
                root.insert("data".into(), data);
            }
        }
        root.insert("obs".into(), entries(&self.obs, || Value::Null));
        root.insert("reflex".into(), Value::Object(Map::new()));
        Value::Object(root.into())
    }

    /// Validates a model document against this schema.
    ///
    /// Checks the declared kind, the type of every declared control/data
    /// attribute that is present, and rejects models mixing control and
    /// data sections.
    pub fn validate(&self, model: &Value) -> Result<(), SchemaError> {
        if let Some(kind) = model.get_path("meta.kind").and_then(Value::as_str) {
            if kind != self.kind {
                return Err(SchemaError::KindMismatch {
                    expected: self.kind.clone(),
                    found: kind.to_string(),
                });
            }
        }
        let has_control = model
            .get_path("control")
            .and_then(Value::as_object)
            .map(|m| !m.is_empty())
            .unwrap_or(false);
        let has_data = model
            .get_path("data")
            .and_then(Value::as_object)
            .map(|m| !m.is_empty())
            .unwrap_or(false);
        if has_control && has_data {
            return Err(SchemaError::MixedControlAndData);
        }
        if let Some(control) = model.get_path("control").and_then(Value::as_object) {
            for (attr, pair) in control {
                let ty = self
                    .control
                    .get(attr.as_str())
                    .ok_or_else(|| SchemaError::UnknownAttribute(format!(".control.{attr}")))?;
                for field in ["intent", "status"] {
                    if let Some(v) = pair.get_path(field) {
                        if !ty.admits(v) {
                            return Err(SchemaError::TypeMismatch {
                                path: format!(".control.{attr}.{field}"),
                                expected: *ty,
                                found: v.type_name(),
                            });
                        }
                    }
                }
            }
        }
        let data = model.get_path("data").and_then(Value::as_object);
        for (section, decls) in [("input", &self.input), ("output", &self.output)] {
            if let Some(map) = data
                .and_then(|data| data.get(section))
                .and_then(Value::as_object)
            {
                for (attr, v) in map {
                    let ty = decls.get(attr.as_str()).ok_or_else(|| {
                        SchemaError::UnknownAttribute(format!(".data.{section}.{attr}"))
                    })?;
                    if !ty.admits(v) {
                        return Err(SchemaError::TypeMismatch {
                            path: format!(".data.{section}.{attr}"),
                            expected: *ty,
                            found: v.type_name(),
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn room() -> KindSchema {
        KindSchema::digivice("digi.dev", "v1", "Room")
            .control("brightness", AttrType::Number)
            .control("mode", AttrType::String)
            .obs("objects", AttrType::Array)
            .mounts("UniLamp")
            .mounts("Scene")
    }

    #[test]
    fn new_model_has_declared_attributes() {
        let m = room().new_model("lvroom", "default");
        assert_eq!(
            m.get_path("meta.kind").and_then(Value::as_str),
            Some("Room")
        );
        assert!(m.get_path("control.brightness.intent").unwrap().is_null());
        assert!(m.get_path("control.mode.status").unwrap().is_null());
        assert!(m.get_path("obs.objects").unwrap().is_null());
        assert_eq!(m.get_path("meta.gen").and_then(Value::as_f64), Some(0.0));
    }

    #[test]
    fn validate_accepts_conforming_model() {
        let schema = room();
        let mut m = schema.new_model("r", "default");
        m.set(
            &".control.brightness.intent".parse().unwrap(),
            Value::from(0.8),
        )
        .unwrap();
        assert_eq!(schema.validate(&m), Ok(()));
    }

    #[test]
    fn validate_rejects_type_mismatch() {
        let schema = room();
        let mut m = schema.new_model("r", "default");
        m.set(
            &".control.brightness.intent".parse().unwrap(),
            Value::from("high"),
        )
        .unwrap();
        assert!(matches!(
            schema.validate(&m),
            Err(SchemaError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn validate_rejects_unknown_attribute() {
        let schema = room();
        let mut m = schema.new_model("r", "default");
        m.set(&".control.volume.intent".parse().unwrap(), Value::from(1.0))
            .unwrap();
        assert!(matches!(
            schema.validate(&m),
            Err(SchemaError::UnknownAttribute(_))
        ));
    }

    #[test]
    fn validate_rejects_wrong_kind() {
        let schema = room();
        let other = KindSchema::digivice("digi.dev", "v1", "Home").new_model("h", "default");
        assert!(matches!(
            schema.validate(&other),
            Err(SchemaError::KindMismatch { .. })
        ));
    }

    #[test]
    fn digidata_model_shape() {
        let scene = KindSchema::digidata("digi.dev", "v1", "Scene")
            .input("url", AttrType::String)
            .output("objects", AttrType::Array);
        let m = scene.new_model("lvscene", "default");
        assert!(m.get_path("data.input.url").unwrap().is_null());
        assert!(m.get_path("data.output.objects").unwrap().is_null());
        assert!(m.get_path("control").is_none());
    }

    #[test]
    fn mixed_control_and_data_rejected() {
        let schema = room();
        let mut m = schema.new_model("r", "default");
        m.set(&".data.input.url".parse().unwrap(), Value::from("rtsp://x"))
            .unwrap();
        assert_eq!(schema.validate(&m), Err(SchemaError::MixedControlAndData));
    }

    #[test]
    fn mount_reference_declarations() {
        let schema = room();
        assert!(schema.allows_mount_of("UniLamp"));
        assert!(!schema.allows_mount_of("Home"));
    }

    #[test]
    #[should_panic(expected = "digivice-only")]
    fn control_on_digidata_panics() {
        KindSchema::digidata("g", "v1", "T").control("x", AttrType::Any);
    }
}
