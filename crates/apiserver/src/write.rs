//! One model write, defined once.
//!
//! Every verb that modifies an existing object's model — `update`,
//! `patch`, `patch_path`, `delete_path` and `fast_forward` — is one
//! [`WriteOp`]. [`WriteOp::apply`] is the only definition of each edit and
//! of the `meta.gen` stamp that goes with it (§3.5): the server applies an
//! op once to build the model it validates, admits and commits; the store
//! applies it for its own verbs and on WAL replay; and a controller's
//! write batch applies it to build its read-your-writes overlay. Each op
//! also has exactly one journal encoding.

use std::sync::OnceLock;

use dspace_value::{json, Path, Segment, Value};

use crate::error::ApiError;
use crate::object::ObjectRef;
use crate::rbac::Verb;

/// One write to an existing object's model.
#[derive(Debug, Clone, PartialEq)]
pub enum WriteOp {
    /// Replace the whole model (`update`).
    Put(Value),
    /// Deep-merge a patch into the model (`patch`; see [`Value::merge`]).
    Merge(Value),
    /// Set one attribute (`patch_path`).
    Set(Path, Value),
    /// Remove one attribute (`delete_path`).
    Remove(Path),
    /// Jump the resource version forward to this one, changing nothing
    /// but the `meta.gen` stamp (`fast_forward`).
    FastForward(u64),
}

impl WriteOp {
    /// The verb RBAC and admission see: replacing the whole model, or
    /// jumping its version, is an `Update`; every partial edit a `Patch`.
    pub(crate) fn verb(&self) -> Verb {
        match self {
            WriteOp::Put(_) | WriteOp::FastForward(_) => Verb::Update,
            WriteOp::Merge(_) | WriteOp::Set(..) | WriteOp::Remove(_) => Verb::Patch,
        }
    }

    /// The resource version the op commits at, given the object's current
    /// one: the next, or a fast-forward's target, which must lie ahead.
    pub fn next_rv(&self, oref: &ObjectRef, current: u64) -> Result<u64, ApiError> {
        match *self {
            WriteOp::FastForward(rv) if rv <= current => Err(ApiError::Invalid(format!(
                "fast_forward to {rv} would not advance {oref} (at {current})"
            ))),
            WriteOp::FastForward(rv) => Ok(rv),
            _ => Ok(current + 1),
        }
    }

    /// Applies the edit to `model` and stamps its `meta.gen` with `rv`,
    /// the version it commits at ([`next_rv`](Self::next_rv)). A set that
    /// cannot be made (through a scalar, or past an array's end) is a
    /// `BadRequest` and leaves `model` untouched.
    pub fn apply(&self, model: &mut Value, rv: u64) -> Result<(), ApiError> {
        match self {
            WriteOp::Put(m) => *model = m.clone(),
            WriteOp::Merge(patch) => model.merge(patch),
            WriteOp::Set(path, value) => {
                // `Value::set` may create intermediates before it fails, so
                // it runs on a clone. The clone shares every subtree with
                // `model`: the set copies only the maps along `path`.
                let mut next = model.clone();
                next.set(path, value.clone())
                    .map_err(|e| ApiError::BadRequest(e.to_string()))?;
                *model = next;
            }
            WriteOp::Remove(path) => {
                model.remove(path);
            }
            WriteOp::FastForward(_) => {}
        }
        stamp_gen(model, rv);
        Ok(())
    }

    /// Renders the op's journal record. `committed` is the model the op
    /// committed: a put or a remove journals it whole, as a `put` record;
    /// a merge, a set and a fast-forward journal only themselves.
    /// Replaying a record against the same base reproduces the model
    /// bit-for-bit, because `meta.gen` stamping is idempotent.
    pub(crate) fn record(&self, oref: &ObjectRef, committed: &Value) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(96);
        match self {
            WriteOp::Put(_) | WriteOp::Remove(_) => {
                record_open(&mut out, "put", oref);
                out.push_str(",\"model\":");
                json::write_to(&mut out, committed);
            }
            WriteOp::Merge(patch) => {
                record_open(&mut out, "merge", oref);
                out.push_str(",\"patch\":");
                json::write_to(&mut out, patch);
            }
            WriteOp::Set(path, value) => {
                // The path renders segment by segment straight into the
                // buffer (its canonical `.a.b[0]` form), escaped as it goes.
                record_open(&mut out, "set", oref);
                out.push_str(",\"path\":\"");
                if path.is_empty() {
                    out.push('.');
                }
                for seg in path.segments() {
                    match seg {
                        Segment::Key(k) => {
                            out.push('.');
                            json::write_str_body_to(&mut out, k);
                        }
                        Segment::Index(i) => {
                            let _ = write!(out, "[{i}]");
                        }
                    }
                }
                out.push_str("\",\"value\":");
                json::write_to(&mut out, value);
            }
            WriteOp::FastForward(rv) => {
                record_open(&mut out, "ff", oref);
                out.push_str(",\"rv\":");
                json::write_to(&mut out, &Value::from_exact_u64(*rv));
            }
        }
        out.push('}');
        out
    }

    /// Decodes the op of a journaled `put`, `merge`, `set` or `ff` record
    /// from its remaining fields; `None` for any other verb.
    pub(crate) fn from_record(
        verb: &str,
        fields: &mut dspace_value::Map,
    ) -> Result<Option<WriteOp>, String> {
        let mut take = |k: &str| fields.remove(k).ok_or_else(|| format!("op missing '{k}'"));
        Ok(Some(match verb {
            "put" => WriteOp::Put(take("model")?),
            "merge" => WriteOp::Merge(take("patch")?),
            "set" => {
                let Value::Str(path) = take("path")? else {
                    return Err("op missing 'path'".to_string());
                };
                let path = path.parse().map_err(|e| format!("bad path: {e}"))?;
                WriteOp::Set(path, take("value")?)
            }
            "ff" => {
                let rv = take("rv")?.as_exact_u64().ok_or("op missing 'rv'")?;
                WriteOp::FastForward(rv)
            }
            _ => return Ok(None),
        }))
    }
}

/// Starts an op record in `out`: `{"op":"<verb>","kind":…,"ns":…,"name":…`
/// — one buffer, no intermediate strings (a record is rendered once per
/// journaled write).
pub(crate) fn record_open(out: &mut String, verb: &str, oref: &ObjectRef) {
    out.push_str("{\"op\":\"");
    out.push_str(verb);
    out.push_str("\",\"kind\":");
    json::write_str_to(out, &oref.kind);
    out.push_str(",\"ns\":");
    json::write_str_to(out, &oref.namespace);
    out.push_str(",\"name\":");
    json::write_str_to(out, &oref.name);
}

/// The parsed `.meta.gen` path (parsed once per process).
fn gen_path() -> &'static Path {
    static GEN: OnceLock<Path> = OnceLock::new();
    GEN.get_or_init(|| ".meta.gen".parse().expect("static path"))
}

/// Keeps `meta.gen` in the model equal to the resource version, so the
/// version number of §3.5 is visible to drivers and the mounter. Encoded
/// via [`Value::from_exact_u64`]: generations beyond 2^53 survive without
/// `f64` rounding, so the mounter's version gate stays exact.
pub(crate) fn stamp_gen(model: &mut Value, rv: u64) {
    let _ = model.set(gen_path(), Value::from_exact_u64(rv));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Value {
        json::parse(r#"{"meta": {"gen": 1}, "n": 1, "x": {"y": true}}"#).unwrap()
    }

    fn path(p: &str) -> Path {
        p.parse().unwrap()
    }

    #[test]
    fn every_op_stamps_the_version_it_commits_at() {
        let oref = ObjectRef::default_ns("Thing", "t");
        for op in [
            WriteOp::Put(doc()),
            WriteOp::Merge(json::parse(r#"{"x": {"z": 2}}"#).unwrap()),
            WriteOp::Set(path(".x.y"), false.into()),
            WriteOp::Remove(path(".x.y")),
            WriteOp::FastForward(7),
        ] {
            let rv = op.next_rv(&oref, 1).unwrap();
            let mut m = doc();
            op.apply(&mut m, rv).unwrap();
            assert_eq!(
                m.get(gen_path()).and_then(Value::as_exact_u64),
                Some(rv),
                "{op:?}"
            );
        }
        let err = WriteOp::FastForward(1).next_rv(&oref, 1).unwrap_err();
        assert!(matches!(err, ApiError::Invalid(_)), "{err}");
    }

    #[test]
    fn a_failed_set_leaves_the_model_untouched() {
        // `Value::set` would create `.x.fresh` before failing to index it.
        for bad in [".n.deeper", ".x.fresh[0]"] {
            let mut m = doc();
            let err = WriteOp::Set(path(bad), 1.0.into())
                .apply(&mut m, 2)
                .unwrap_err();
            assert!(matches!(err, ApiError::BadRequest(_)), "{bad}: {err}");
            assert_eq!(m, doc(), "{bad}");
        }
    }
}
