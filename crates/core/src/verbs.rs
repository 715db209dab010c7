//! Composition verbs (§3.2): the operations behind `dq mount/yield/pipe`.
//!
//! Verbs are plain apiserver writes — a mount is a mount reference written
//! into the parent's model, a pipe is a `Sync` object — validated by the
//! topology webhook and enacted by the Mounter/Syncer controllers. Both
//! the [`crate::space::Space`] facade and the Policer execute composition
//! through these functions.

use std::cell::RefCell;
use std::fmt;

use dspace_apiserver::{ApiError, ApiServer, ObjectRef, Query};
use dspace_value::Value;

use crate::graph::{DigiGraph, EdgeState, MountMode};
use crate::model::{MOUNT_ACTIVE, MOUNT_YIELDED};
use crate::syncer::SyncSpec;

/// Errors from composition verbs.
#[derive(Debug, Clone, PartialEq)]
pub enum VerbError {
    /// The apiserver rejected the write (admission, RBAC, missing object).
    Api(ApiError),
    /// The verb arguments were invalid.
    Invalid(String),
}

impl fmt::Display for VerbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerbError::Api(e) => write!(f, "{e}"),
            VerbError::Invalid(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for VerbError {}

impl From<ApiError> for VerbError {
    fn from(e: ApiError) -> Self {
        VerbError::Api(e)
    }
}

/// `mount(child, parent)`: writes a mount reference into the parent model.
///
/// If the child already has an active parent, the new mount starts in the
/// yielded state ("the mount is automatically followed by a yield", §3.4).
/// Returns the state the mount was created in.
///
/// `graph` is the live digi-graph the topology webhook maintains; it is
/// read before the write, which re-borrows it mutably through admission.
pub fn mount(
    api: &mut ApiServer,
    graph: &RefCell<DigiGraph>,
    subject: &str,
    child: &ObjectRef,
    parent: &ObjectRef,
    mode: MountMode,
) -> Result<EdgeState, VerbError> {
    let holder = graph.borrow().active_parent(child);
    mount_under(api, holder, subject, child, parent, mode)
}

/// [`mount`] with the child's current writer (`holder`) already read.
fn mount_under(
    api: &mut ApiServer,
    holder: Option<ObjectRef>,
    subject: &str,
    child: &ObjectRef,
    parent: &ObjectRef,
    mode: MountMode,
) -> Result<EdgeState, VerbError> {
    let state = match holder {
        Some(holder) if holder != *parent => EdgeState::Yielded,
        _ => EdgeState::Active,
    };
    let status = match state {
        EdgeState::Active => MOUNT_ACTIVE,
        EdgeState::Yielded => MOUNT_YIELDED,
    };
    let path = crate::model::replica_path(&child.kind, &child.name);
    let body = dspace_value::object([
        ("mode", Value::from(mode.as_str())),
        ("status", Value::from(status)),
        ("gen", Value::from(0.0)),
    ]);
    api.patch_path(subject, parent, &path, body)?;
    Ok(state)
}

/// `unmount(child, parent)`: removes the mount reference.
pub fn unmount(
    api: &mut ApiServer,
    subject: &str,
    child: &ObjectRef,
    parent: &ObjectRef,
) -> Result<(), VerbError> {
    let path = crate::model::replica_path(&child.kind, &child.name);
    api.delete_path(subject, parent, &path)?;
    Ok(())
}

/// `yield(child, parent)`: revokes the parent's write access (§3.2); the
/// parent keeps watching the child through its replica.
pub fn yield_(
    api: &mut ApiServer,
    subject: &str,
    child: &ObjectRef,
    parent: &ObjectRef,
) -> Result<(), VerbError> {
    let path = format!(
        "{}.status",
        crate::model::replica_path(&child.kind, &child.name)
    );
    api.patch_path(subject, parent, &path, MOUNT_YIELDED.into())?;
    Ok(())
}

/// `unyield(child, parent)`: restores write access. The topology webhook
/// rejects this while another parent holds the writer slot.
pub fn unyield(
    api: &mut ApiServer,
    subject: &str,
    child: &ObjectRef,
    parent: &ObjectRef,
) -> Result<(), VerbError> {
    let path = format!(
        "{}.status",
        crate::model::replica_path(&child.kind, &child.name)
    );
    api.patch_path(subject, parent, &path, MOUNT_ACTIVE.into())?;
    Ok(())
}

/// Moves write access over `child` from `from` to `to`, mounting `to`
/// (yielded) first when it has no existing mount.
///
/// The topology is read once, before the first write: every step acts on
/// the graph as it stood when the transfer began.
pub fn transfer(
    api: &mut ApiServer,
    graph: &RefCell<DigiGraph>,
    subject: &str,
    child: &ObjectRef,
    from: &ObjectRef,
    to: &ObjectRef,
) -> Result<(), VerbError> {
    let (to_mounted, from_mounted, holder) = {
        let g = graph.borrow();
        (
            g.edge(to, child).is_some(),
            g.edge(from, child).is_some(),
            g.active_parent(child),
        )
    };
    if !to_mounted {
        mount_under(api, holder, subject, child, to, MountMode::Expose)?;
    }
    if from_mounted {
        yield_(api, subject, child, from)?;
    }
    unyield(api, subject, child, to)
}

/// Writes `.control.<attr>.intent` on a digi.
pub fn set_intent(
    api: &mut ApiServer,
    subject: &str,
    target: &ObjectRef,
    attr: &str,
    value: Value,
) -> Result<(), VerbError> {
    api.patch_path(subject, target, &format!(".control.{attr}.intent"), value)?;
    Ok(())
}

/// `pipe(A.out.x, B.in.x)`: creates the `Sync` object implementing the
/// data flow. Returns the Sync object's reference (pass it to [`unpipe`]).
pub fn pipe(api: &mut ApiServer, subject: &str, spec: &SyncSpec) -> Result<ObjectRef, VerbError> {
    if !spec.source_path.starts_with(".data.output") || !spec.target_path.starts_with(".data.input")
    {
        return Err(VerbError::Invalid(
            "pipe must connect a data.output path to a data.input path".into(),
        ));
    }
    let name = format!(
        "pipe-{}-{}--{}-{}",
        spec.source.name,
        spec.source_path.rsplit('.').next().unwrap_or("x"),
        spec.target.name,
        spec.target_path.rsplit('.').next().unwrap_or("x"),
    );
    let oref = ObjectRef::default_ns("Sync", name.clone());
    api.create(subject, &oref, spec.to_model(&name))?;
    Ok(oref)
}

/// Removes a pipe created by [`pipe`].
pub fn unpipe(api: &mut ApiServer, subject: &str, sync: &ObjectRef) -> Result<(), VerbError> {
    api.delete(subject, sync)?;
    Ok(())
}

/// Removes the pipe whose Sync spec matches `spec` (used by pipe policies,
/// which name endpoints rather than Sync objects).
pub fn unpipe_matching(
    api: &mut ApiServer,
    subject: &str,
    spec: &SyncSpec,
) -> Result<(), VerbError> {
    let syncs = api.query(subject, &Query::kind("Sync"))?;
    for obj in syncs {
        if SyncSpec::parse(&obj.model).as_ref() == Some(spec) {
            api.delete(subject, &obj.oref)?;
            return Ok(());
        }
    }
    Err(VerbError::Invalid(format!(
        "no pipe from {}{} to {}{}",
        spec.source, spec.source_path, spec.target, spec.target_path
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspace_apiserver::ApiServer;
    use dspace_value::json;

    fn digi(kind: &str, name: &str) -> Value {
        json::parse(&format!(
            r#"{{"meta": {{"kind": "{kind}", "name": "{name}", "namespace": "default"}},
                 "control": {{}}, "mount": {{}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn mount_writes_reference_with_state() {
        let mut api = ApiServer::new();
        let graph = RefCell::new(DigiGraph::new());
        let lamp = ObjectRef::default_ns("Lamp", "l1");
        let room = ObjectRef::default_ns("Room", "r1");
        api.create(ApiServer::ADMIN, &lamp, digi("Lamp", "l1"))
            .unwrap();
        api.create(ApiServer::ADMIN, &room, digi("Room", "r1"))
            .unwrap();
        let st = mount(
            &mut api,
            &graph,
            ApiServer::ADMIN,
            &lamp,
            &room,
            MountMode::Hide,
        )
        .unwrap();
        assert_eq!(st, EdgeState::Active);
        assert_eq!(
            api.get_path(ApiServer::ADMIN, &room, ".mount.Lamp.l1.mode")
                .unwrap()
                .as_str(),
            Some("hide")
        );
        assert_eq!(
            api.get_path(ApiServer::ADMIN, &room, ".mount.Lamp.l1.status")
                .unwrap()
                .as_str(),
            Some(MOUNT_ACTIVE)
        );
    }

    #[test]
    fn pipe_requires_output_to_input() {
        let mut api = ApiServer::new();
        let bad = SyncSpec {
            source: ObjectRef::default_ns("A", "a"),
            source_path: ".control.x.status".into(),
            target: ObjectRef::default_ns("B", "b"),
            target_path: ".data.input.x".into(),
        };
        assert!(matches!(
            pipe(&mut api, ApiServer::ADMIN, &bad),
            Err(VerbError::Invalid(_))
        ));
    }

    #[test]
    fn pipe_and_unpipe_roundtrip() {
        let mut api = ApiServer::new();
        let spec = SyncSpec {
            source: ObjectRef::default_ns("Xcdr", "x"),
            source_path: ".data.output.url".into(),
            target: ObjectRef::default_ns("Scene", "s"),
            target_path: ".data.input.url".into(),
        };
        let sref = pipe(&mut api, ApiServer::ADMIN, &spec).unwrap();
        assert!(api.get(ApiServer::ADMIN, &sref).is_ok());
        unpipe(&mut api, ApiServer::ADMIN, &sref).unwrap();
        assert!(api.get(ApiServer::ADMIN, &sref).is_err());
    }
}
