//! Write batching for controllers.
//!
//! A [`WriteBatch`] is the write surface of one controller cycle. Each
//! write is a [`WriteOp`]. An inline cycle (zero latency) issues each op
//! as it is decided. A deferred cycle accumulates every op and lands them
//! after its simulated delays, committing each surviving op through the
//! same server pipeline an inline cycle calls ([`ApiServer::write`]), in
//! issue order — so RBAC, schema validation, admission, and webhook
//! observation run per op against the topology the previous op left. The
//! call site picks the mode.
//!
//! **Decision parity.** A controller must make byte-identical decisions
//! whether its writes are batched or issued per-op. Per-op, a write is
//! visible to the controller's next read; batched, it is not committed
//! yet. The batch therefore keeps a *read-through overlay*: each queued
//! op is applied to the overlay with [`WriteOp::apply`], the same edit
//! and `meta.gen` stamp the server will make at commit, and
//! [`WriteBatch::get`] serves overlay entries before consulting the
//! server. The overlay is optimistic: an op denied by admission at commit
//! time was still visible to later same-cycle reads. The dSpace
//! controllers only issue writes that pass the topology webhook (it
//! validates mount-topology changes, which controllers never make), so in
//! practice the overlay and the committed state agree — and the
//! inline-vs-deferred determinism tests assert it.
//!
//! **Deferred effects.** Controller side-effects that were gated on a
//! write's success (a trace entry, a dedup-cache insert) cannot happen
//! at issue time in batched mode. Write methods return a *ticket*; after
//! [`WriteBatch::commit`] the per-ticket results tell the controller
//! which effects to apply. In per-op mode the same tickets resolve to
//! the immediately-known results, so controller code is identical in
//! both modes.

use std::collections::BTreeMap;

use dspace_apiserver::{parse_path, ApiError, ApiServer, ObjectRef, Verb, WriteOp};
use dspace_value::Value;

/// The result of one queued write: the committed resource version on
/// success, mirroring the serial verbs.
pub type WriteResult = Result<u64, ApiError>;

/// How a ticket resolves at commit time.
enum Pending {
    /// Failed at issue time (the failure is deterministic: per-op mode
    /// fails the same way against the same state). Never sent.
    Failed(ApiError),
    /// Queued for the deferred commit; queued tickets resolve in issue
    /// order, one per queued op.
    Queued,
    /// Executed immediately (per-op mode) with this result.
    Done(WriteResult),
}

/// One pump cycle's worth of controller writes (see module docs).
pub struct WriteBatch {
    subject: String,
    batched: bool,
    /// Ops queued for the deferred commit, in issue order.
    ops: Vec<(ObjectRef, WriteOp)>,
    /// Simulated post-write state per object: `(stamped model, rv)`.
    overlay: BTreeMap<ObjectRef, (Value, u64)>,
    /// Store resource version each written object's *first* read-for-write
    /// observed — the state this batch's decisions are based on.
    /// [`commit`](Self::commit) re-validates against it.
    base: BTreeMap<ObjectRef, u64>,
    pending: Vec<Pending>,
}

impl WriteBatch {
    /// Starts an empty batch acting as `subject`. With `batched = false`
    /// every write executes immediately (an inline cycle); tickets still
    /// resolve through [`commit`](Self::commit) so the calling code is
    /// mode-agnostic.
    pub fn new(subject: impl Into<String>, batched: bool) -> Self {
        WriteBatch {
            subject: subject.into(),
            batched,
            ops: Vec::new(),
            overlay: BTreeMap::new(),
            base: BTreeMap::new(),
            pending: Vec::new(),
        }
    }

    /// Number of writes issued so far (failed, queued, or done).
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True if no write has been issued.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Number of ops queued for the deferred commit (excludes issue-time
    /// failures and per-op-mode writes that already executed).
    pub fn queued_ops(&self) -> usize {
        self.ops.len()
    }

    /// Reads an object's `(model, resource_version)` as the controller
    /// must see it mid-cycle: through the overlay when batched, straight
    /// from the server otherwise. RBAC is enforced either way.
    pub fn get(&self, api: &ApiServer, oref: &ObjectRef) -> Result<(Value, u64), ApiError> {
        if self.batched {
            if let Some((model, rv)) = self.overlay.get(oref) {
                if !api.rbac().authorize(&self.subject, Verb::Get, oref) {
                    return Err(ApiError::Forbidden {
                        subject: self.subject.clone(),
                        reason: format!("{:?} on {oref} not permitted", Verb::Get),
                    });
                }
                return Ok((model.clone(), *rv));
            }
        }
        let obj = api.get(&self.subject, oref)?;
        Ok((obj.model, obj.resource_version))
    }

    /// Reads one attribute (see [`get`](Self::get)) like the serial
    /// `get_path` verb: a missing attribute reads as `Null`, a malformed
    /// path is a `BadRequest`.
    pub fn get_path(
        &self,
        api: &ApiServer,
        oref: &ObjectRef,
        path: &str,
    ) -> Result<Value, ApiError> {
        let (model, _) = self.get(api, oref)?;
        let parsed = parse_path(path)?;
        Ok(model.get(&parsed).cloned().unwrap_or(Value::Null))
    }

    /// Deep-merges a patch into an object's model. Returns the ticket to
    /// look up in [`commit`](Self::commit)'s results.
    pub fn patch(&mut self, api: &mut ApiServer, oref: &ObjectRef, patch: Value) -> usize {
        self.write(api, oref, WriteOp::Merge(patch))
    }

    /// Sets one attribute path. Returns the ticket to look up in
    /// [`commit`](Self::commit)'s results.
    pub fn patch_path(
        &mut self,
        api: &mut ApiServer,
        oref: &ObjectRef,
        path: &str,
        value: Value,
    ) -> usize {
        match parse_path(path) {
            Ok(path) => self.write(api, oref, WriteOp::Set(path, value)),
            Err(e) => self.push(Pending::Failed(e)),
        }
    }

    /// Issues one op: through the server at once in per-op mode; queued,
    /// and applied to the overlay, when batched. Returns the ticket to look
    /// up in [`commit`](Self::commit)'s results.
    pub(crate) fn write(&mut self, api: &mut ApiServer, oref: &ObjectRef, op: WriteOp) -> usize {
        if !self.batched {
            let result = api.write(&self.subject, oref, op, None);
            return self.push(Pending::Done(result));
        }
        let (mut model, rv) = match self.read_for_write(api, oref) {
            Ok(read) => read,
            Err(e) => return self.push(Pending::Failed(e)),
        };
        let applied = op.next_rv(oref, rv).and_then(|rv| {
            op.apply(&mut model, rv)?;
            Ok(rv)
        });
        match applied {
            Ok(rv) => {
                self.overlay.insert(oref.clone(), (model, rv));
                self.ops.push((oref.clone(), op));
                self.push(Pending::Queued)
            }
            Err(e) => self.push(Pending::Failed(e)),
        }
    }

    /// Commits the queued ops and resolves every ticket, in issue order.
    /// Every written object is first re-validated against the resource
    /// version its plan-time read observed (the `base` map): when a batch
    /// lands after a delay — a deferred controller cycle whose writes
    /// traveled a link — the store may have moved on; ops against a moved
    /// (or vanished) object resolve `Err(Conflict)` / `Err(NotFound)`
    /// without reaching the server, exactly like a driver's OCC `update`.
    /// Every other op then commits through the server's pipeline, in
    /// issue order. Returns the per-ticket results and the number of
    /// objects whose validation failed. A per-op batch queues nothing, so
    /// this only resolves its tickets.
    ///
    /// Convergence is preserved because a failed validation implies a
    /// newer committed event on that object, which retriggers the watcher
    /// that planned this batch.
    pub fn commit(self, api: &mut ApiServer) -> (Vec<WriteResult>, u64) {
        let mut stale: BTreeMap<ObjectRef, ApiError> = BTreeMap::new();
        for (oref, &expected) in &self.base {
            match api.get(ApiServer::ADMIN, oref) {
                Ok(obj) if obj.resource_version == expected => {}
                Ok(obj) => {
                    stale.insert(
                        oref.clone(),
                        ApiError::Conflict {
                            oref: oref.clone(),
                            expected,
                            actual: obj.resource_version,
                        },
                    );
                }
                Err(_) => {
                    stale.insert(oref.clone(), ApiError::NotFound(oref.clone()));
                }
            }
        }
        let conflicts = stale.len() as u64;
        // Queued ops follow their tickets' issue order, so resolving the
        // tickets in order commits the ops in order.
        let mut ops = self.ops.into_iter();
        let results = self
            .pending
            .into_iter()
            .map(|p| match p {
                Pending::Failed(e) => Err(e),
                Pending::Done(r) => r,
                Pending::Queued => {
                    let (oref, op) = ops.next().expect("one op per queued ticket");
                    match stale.get(&oref) {
                        Some(e) => Err(e.clone()),
                        None => api.write(&self.subject, &oref, op, None),
                    }
                }
            })
            .collect();
        (results, conflicts)
    }

    /// The simulation's read: overlay entry if the object was already
    /// written this cycle, otherwise the committed object. NotFound here
    /// is NotFound at commit: the OCC check turns a vanished object into
    /// `Err(NotFound)` before its ops reach the server.
    fn read_for_write(
        &mut self,
        api: &ApiServer,
        oref: &ObjectRef,
    ) -> Result<(Value, u64), ApiError> {
        if let Some((model, rv)) = self.overlay.get(oref) {
            return Ok((model.clone(), *rv));
        }
        // Unauthenticated raw read: RBAC for the write itself is checked
        // by the server pipeline the op commits through.
        let obj = api
            .get(ApiServer::ADMIN, oref)
            .map_err(|_| ApiError::NotFound(oref.clone()))?;
        let (model, rv) = (obj.model, obj.resource_version);
        // First store read for this object: the OCC base of every write
        // the batch queues against it.
        self.base.insert(oref.clone(), rv);
        Ok((model, rv))
    }

    fn push(&mut self, p: Pending) -> usize {
        self.pending.push(p);
        self.pending.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(kind: &str, name: &str) -> Value {
        dspace_value::json::parse(&format!(
            r#"{{"meta": {{"kind": "{kind}", "name": "{name}", "namespace": "default"}},
                 "control": {{"power": {{"intent": null, "status": null}}}}}}"#
        ))
        .unwrap()
    }

    fn setup() -> (ApiServer, ObjectRef) {
        let mut api = ApiServer::new();
        let oref = ObjectRef::default_ns("Plug", "p1");
        api.create(ApiServer::ADMIN, &oref, model("Plug", "p1"))
            .unwrap();
        (api, oref)
    }

    #[test]
    fn batched_and_immediate_leave_identical_state() {
        for batched in [false, true] {
            let (mut api, oref) = setup();
            let mut b = WriteBatch::new(ApiServer::ADMIN, batched);
            b.patch_path(&mut api, &oref, ".control.power.intent", "on".into());
            b.patch(
                &mut api,
                &oref,
                dspace_value::object([(
                    "control",
                    dspace_value::object([(
                        "power",
                        dspace_value::object([("status", Value::from("on"))]),
                    )]),
                )]),
            );
            let (results, _) = b.commit(&mut api);
            assert_eq!(results.len(), 2);
            assert_eq!(*results[0].as_ref().unwrap(), 2);
            assert_eq!(*results[1].as_ref().unwrap(), 3);
            let obj = api.get(ApiServer::ADMIN, &oref).unwrap();
            assert_eq!(obj.resource_version, 3, "batched={batched}");
            assert_eq!(
                obj.model
                    .get_path(".meta.gen")
                    .and_then(Value::as_exact_u64),
                Some(3),
                "batched={batched}: gen must track rv"
            );
        }
    }

    #[test]
    fn overlay_serves_read_your_writes() {
        let (mut api, oref) = setup();
        let mut b = WriteBatch::new(ApiServer::ADMIN, true);
        b.patch_path(&mut api, &oref, ".control.power.intent", "on".into());
        // Mid-cycle read sees the uncommitted write (like per-op mode
        // would see the committed one)...
        assert_eq!(
            b.get_path(&api, &oref, ".control.power.intent")
                .unwrap()
                .as_str(),
            Some("on")
        );
        let (m, rv) = b.get(&api, &oref).unwrap();
        assert_eq!(rv, 2);
        assert_eq!(
            m.get_path(".meta.gen").and_then(Value::as_exact_u64),
            Some(2),
            "overlay model is stamped like the commit will stamp it"
        );
        assert!(matches!(
            b.get_path(&api, &oref, ".control..power"),
            Err(ApiError::BadRequest(_))
        ));
        // ...but the server does not, until commit.
        assert!(api
            .get_path(ApiServer::ADMIN, &oref, ".control.power.intent")
            .unwrap()
            .is_null());
        b.commit(&mut api);
        assert_eq!(
            api.get_path(ApiServer::ADMIN, &oref, ".control.power.intent")
                .unwrap()
                .as_str(),
            Some("on")
        );
    }

    #[test]
    fn issue_time_failures_resolve_without_reaching_the_server() {
        let (mut api, _) = setup();
        let ghost = ObjectRef::default_ns("Plug", "ghost");
        let mut b = WriteBatch::new(ApiServer::ADMIN, true);
        let t = b.patch_path(&mut api, &ghost, ".control.power.intent", "on".into());
        let rev_before = api.revision();
        let (results, _) = b.commit(&mut api);
        assert!(matches!(results[t], Err(ApiError::NotFound(_))));
        assert_eq!(
            api.revision(),
            rev_before,
            "an all-failed batch commits nothing"
        );
    }
}
