//! Conventions over digi model documents (Table 1 of the paper).
//!
//! A digi model is an attribute–value document with well-known sections:
//!
//! ```yaml
//! meta:    {group, version, kind, name, namespace, gen}
//! control: {<attr>: {intent, status}}     # digivice only
//! data:    {input: {..}, output: {..}}    # digidata only
//! obs:     {..}                           # events/observations
//! mount:   {<Kind>: {<name>: <replica>}}  # children replicas
//! reflex:  {<name>: {policy, priority, processor}}
//! ```
//!
//! [`DigiModel`] wraps a [`Value`] and exposes typed accessors for these
//! conventions; it is used by drivers and controllers alike.

use dspace_value::{Name, Path, Value};

/// Mount reference status values: the parent currently holds write access.
pub const MOUNT_ACTIVE: &str = "active";
/// Mount reference status values: the parent's write access was yielded.
pub const MOUNT_YIELDED: &str = "yielded";

/// A convenience wrapper over a digi model document.
///
/// Wraps a borrowed mutable [`Value`]; all mutation happens in place so the
/// caller (usually a driver's reconcile cycle) decides when to commit.
#[derive(Debug)]
pub struct DigiModel<'a> {
    model: &'a mut Value,
}

impl<'a> DigiModel<'a> {
    /// Wraps a model document.
    pub fn new(model: &'a mut Value) -> Self {
        DigiModel { model }
    }

    /// The underlying document.
    pub fn raw(&self) -> &Value {
        self.model
    }

    /// The digi's kind, if present.
    pub fn kind(&self) -> Option<&str> {
        self.model.get_path("meta.kind").and_then(Value::as_str)
    }

    /// The digi's name, if present.
    pub fn name(&self) -> Option<&str> {
        self.model.get_path("meta.name").and_then(Value::as_str)
    }

    /// The model's version number (`meta.gen`, §3.5). Decoded exactly:
    /// generations past 2^53 are string-encoded by the store and must not
    /// round-trip through `f64`.
    pub fn gen(&self) -> u64 {
        self.model
            .get_path("meta.gen")
            .and_then(Value::as_exact_u64)
            .unwrap_or(0)
    }

    /// Reads `control.<attr>.intent`.
    pub fn intent(&self, attr: &str) -> Value {
        self.read(&["control", attr, "intent"])
    }

    /// Reads `control.<attr>.status`.
    pub fn status(&self, attr: &str) -> Value {
        self.read(&["control", attr, "status"])
    }

    /// Writes `control.<attr>.intent`.
    pub fn set_intent(&mut self, attr: &str, value: Value) {
        self.write(&["control", attr, "intent"], value);
    }

    /// Writes `control.<attr>.status`.
    pub fn set_status(&mut self, attr: &str, value: Value) {
        self.write(&["control", attr, "status"], value);
    }

    /// Reads `obs.<attr>`.
    pub fn obs(&self, attr: &str) -> Value {
        self.read(&["obs", attr])
    }

    /// Writes `obs.<attr>`.
    pub fn set_obs(&mut self, attr: &str, value: Value) {
        self.write(&["obs", attr], value);
    }

    /// Reads `data.input.<attr>` (digidata).
    pub fn input(&self, attr: &str) -> Value {
        self.read(&["data", "input", attr])
    }

    /// Writes `data.input.<attr>` (digidata).
    pub fn set_input(&mut self, attr: &str, value: Value) {
        self.write(&["data", "input", attr], value);
    }

    /// Reads `data.output.<attr>` (digidata).
    pub fn output(&self, attr: &str) -> Value {
        self.read(&["data", "output", attr])
    }

    /// Writes `data.output.<attr>` (digidata).
    pub fn set_output(&mut self, attr: &str, value: Value) {
        self.write(&["data", "output", attr], value);
    }

    /// Lists `(kind, name)` of every mount reference in this model.
    pub fn mounts(&self) -> Vec<(Name, Name)> {
        let mut out = Vec::new();
        if let Some(kinds) = self.model.get_path(".mount").and_then(Value::as_object) {
            for (kind, names) in kinds {
                if let Some(names) = names.as_object() {
                    for name in names.keys() {
                        out.push((kind.clone(), name.clone()));
                    }
                }
            }
        }
        out
    }

    /// Reads an attribute inside a mounted child's replica, e.g.
    /// `replica("UniLamp", "ul1", ".control.power.status")`.
    pub fn replica(&self, kind: &str, name: &str, path: &str) -> Value {
        at(self.model, &["mount", kind, name])
            .and_then(|replica| replica.get_path(path))
            .cloned()
            .unwrap_or(Value::Null)
    }

    /// Writes into a mounted child's replica (typically `.control.*.intent`);
    /// the Mounter then syncs the write southbound to the child (§5.2).
    pub fn set_replica(&mut self, kind: &str, name: &str, path: &str, value: Value) {
        let path: Path = path.parse().expect("valid replica path");
        let full = Path::keys(["mount", kind, name]).join(&path);
        self.model
            .set(&full, value)
            .expect("mount section is an object");
    }

    /// Lists names of children of `kind` currently mounted.
    pub fn mounted_names(&self, kind: &str) -> Vec<Name> {
        at(self.model, &["mount", kind])
            .and_then(Value::as_object)
            .map(|m| m.keys().cloned().collect())
            .unwrap_or_default()
    }

    /// The value under `keys`, or `Null` where it is missing.
    fn read(&self, keys: &[&str]) -> Value {
        at(self.model, keys).cloned().unwrap_or(Value::Null)
    }

    /// Sets the value under `keys`, creating missing objects on the way.
    fn write(&mut self, keys: &[&str], value: Value) {
        self.model
            .set(&Path::keys(keys.iter().copied()), value)
            .expect("the model's sections are objects");
    }
}

/// The value under `keys`, each one key of an object: the model path
/// `.<k1>.<k2>…` addressed without building it.
pub(crate) fn at<'v>(model: &'v Value, keys: &[&str]) -> Option<&'v Value> {
    keys.iter()
        .try_fold(model, |v, k| v.as_object().and_then(|m| m.get(*k)))
}

/// Returns the model path of the replica of child `(kind, name)`.
pub fn replica_path(kind: &str, name: &str) -> String {
    format!(".mount.{kind}.{name}")
}

/// Extracts the `(kind, name)` a replica path refers to, if `path` points
/// into the `.mount` section.
pub fn parse_replica_path(path: &Path) -> Option<(String, String, Path)> {
    let segs = path.segments();
    match segs {
        [dspace_value::Segment::Key(mount), dspace_value::Segment::Key(kind), dspace_value::Segment::Key(name), rest @ ..]
            if mount == "mount" =>
        {
            Some((kind.clone(), name.clone(), Path::new(rest.to_vec())))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspace_value::{json, AttrType, KindSchema};

    fn lamp_model() -> Value {
        KindSchema::digivice("digi.dev", "v1", "Lamp")
            .control("power", AttrType::String)
            .control("brightness", AttrType::Number)
            .obs("reason", AttrType::String)
            .new_model("l1", "default")
    }

    #[test]
    fn intent_status_accessors() {
        let mut m = lamp_model();
        let mut dm = DigiModel::new(&mut m);
        assert!(dm.intent("power").is_null());
        dm.set_intent("power", "on".into());
        dm.set_status("power", "off".into());
        assert_eq!(dm.intent("power").as_str(), Some("on"));
        assert_eq!(dm.status("power").as_str(), Some("off"));
        assert_eq!(dm.kind(), Some("Lamp"));
        assert_eq!(dm.name(), Some("l1"));
        assert_eq!(dm.gen(), 0);
    }

    #[test]
    fn obs_accessors() {
        let mut m = lamp_model();
        let mut dm = DigiModel::new(&mut m);
        dm.set_obs("reason", "DISCONNECT".into());
        assert_eq!(dm.obs("reason").as_str(), Some("DISCONNECT"));
        assert!(dm.obs("missing").is_null());
    }

    #[test]
    fn data_accessors() {
        let mut m = KindSchema::digidata("digi.dev", "v1", "Scene")
            .input("url", AttrType::String)
            .output("objects", AttrType::Array)
            .new_model("sc1", "default");
        let mut dm = DigiModel::new(&mut m);
        dm.set_input("url", "rtsp://cam".into());
        dm.set_output("objects", vec!["person"].into());
        assert_eq!(dm.input("url").as_str(), Some("rtsp://cam"));
        assert_eq!(dm.output("objects").as_array().unwrap().len(), 1);
    }

    #[test]
    fn mounts_enumeration_and_replicas() {
        let mut m = lamp_model();
        {
            let mut dm = DigiModel::new(&mut m);
            dm.set_replica("UniLamp", "ul1", ".control.power.intent", "on".into());
            dm.set_replica("UniLamp", "ul2", ".control.power.intent", "off".into());
            dm.set_replica(
                "Scene",
                "sc1",
                ".data.output.objects",
                json::parse("[]").unwrap(),
            );
        }
        let mut dm = DigiModel::new(&mut m);
        let mut mounts = dm.mounts();
        mounts.sort();
        assert_eq!(
            mounts,
            vec![
                ("Scene".into(), "sc1".into()),
                ("UniLamp".into(), "ul1".into()),
                ("UniLamp".into(), "ul2".into()),
            ]
        );
        assert_eq!(
            dm.replica("UniLamp", "ul1", ".control.power.intent")
                .as_str(),
            Some("on")
        );
        assert_eq!(dm.mounted_names("UniLamp"), vec!["ul1", "ul2"]);
        dm.set_replica("UniLamp", "ul1", ".control.power.intent", "off".into());
        assert_eq!(
            dm.replica("UniLamp", "ul1", ".control.power.intent")
                .as_str(),
            Some("off")
        );
    }

    #[test]
    fn parse_replica_path_extracts_child() {
        let p: Path = ".mount.UniLamp.ul1.control.power.intent".parse().unwrap();
        let (kind, name, rest) = parse_replica_path(&p).unwrap();
        assert_eq!(kind, "UniLamp");
        assert_eq!(name, "ul1");
        assert_eq!(rest.to_string(), ".control.power.intent");
        let not_mount: Path = ".control.power".parse().unwrap();
        assert!(parse_replica_path(&not_mount).is_none());
    }
}
