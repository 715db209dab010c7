//! Write batching for controllers.
//!
//! A [`WriteBatch`] is the write surface of one controller cycle. An
//! inline cycle (zero latency) issues each write per-op, as it is
//! decided. A deferred cycle accumulates every write and lands them in a
//! single [`ApiServer::apply_batch`] call after its simulated delays —
//! one RBAC/validation/admission pass per op but one store commit (and
//! one shard fan-out, one compaction pass per shard) for the whole cycle.
//! The call site picks the mode.
//!
//! **Decision parity.** A controller must make byte-identical decisions
//! whether its writes are batched or issued per-op. Per-op, a write is
//! visible to the controller's next read; batched, it is not committed
//! yet. The batch therefore keeps a *read-through overlay*: each queued
//! write is simulated against the overlay exactly the way the server
//! will apply it at commit (same merge/set, same `rv + 1`, same
//! [`stamp_gen`] stamping), and [`WriteBatch::get`] serves overlay
//! entries before consulting the server. The overlay is optimistic: an
//! op denied by admission at commit time was still visible to later
//! same-cycle reads. The dSpace controllers only issue writes that pass
//! the topology webhook (it validates mount-topology changes, which
//! controllers never make), so in practice the overlay and the committed
//! state agree — and the inline-vs-deferred determinism tests assert it.
//!
//! **Deferred effects.** Controller side-effects that were gated on a
//! write's success (a trace entry, a dedup-cache insert) cannot happen
//! at issue time in batched mode. Write methods return a *ticket*; after
//! [`WriteBatch::commit`] the per-ticket results tell the controller
//! which effects to apply. In per-op mode the same tickets resolve to
//! the immediately-known results, so controller code is identical in
//! both modes.

use std::collections::BTreeMap;

use dspace_apiserver::{stamp_gen, ApiError, ApiServer, BatchOp, ObjectRef, Verb};
use dspace_value::{Path, Shared, Value};

/// The result of one queued write: the committed resource version on
/// success, mirroring the serial verbs.
pub type WriteResult = Result<u64, ApiError>;

/// How a ticket resolves at commit time.
enum Pending {
    /// Failed at issue time (the failure is deterministic: per-op mode
    /// fails the same way against the same state). Never sent.
    Failed(ApiError),
    /// Queued as the `.0`-th op of the batch commit.
    Queued(usize),
    /// Executed immediately (per-op mode) with this result.
    Done(WriteResult),
}

/// One pump cycle's worth of controller writes (see module docs).
pub struct WriteBatch {
    subject: String,
    batched: bool,
    ops: Vec<BatchOp>,
    /// Simulated post-write state per object: `(stamped model, rv)`.
    overlay: BTreeMap<ObjectRef, (Shared<Value>, u64)>,
    /// Store resource version each written object's *first* read-for-write
    /// observed — the snapshot this batch's decisions are based on.
    /// [`commit_occ`](Self::commit_occ) re-validates against it.
    base: BTreeMap<ObjectRef, u64>,
    /// Rough serialized size of the queued ops, for sizing the link
    /// transfer that carries a deferred batch to the apiserver.
    wire_bytes: u64,
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
            wire_bytes: 0,
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

    /// Number of ops queued for the batch commit (excludes issue-time
    /// failures and per-op-mode writes that already executed).
    pub fn queued_ops(&self) -> usize {
        self.ops.len()
    }

    /// Approximate wire size of the queued ops — what a deferred commit
    /// puts on the link.
    pub fn wire_bytes(&self) -> usize {
        self.wire_bytes as usize
    }

    /// Reads an object's `(model, resource_version)` as the controller
    /// must see it mid-cycle: through the overlay when batched, straight
    /// from the server otherwise. RBAC is enforced either way.
    pub fn get(&self, api: &ApiServer, oref: &ObjectRef) -> Result<(Shared<Value>, u64), ApiError> {
        if self.batched {
            if let Some((model, rv)) = self.overlay.get(oref) {
                if !api.rbac().authorize(&self.subject, Verb::Get, oref) {
                    return Err(ApiError::Forbidden {
                        subject: self.subject.clone(),
                        reason: format!("{:?} on {oref} not permitted", Verb::Get),
                    });
                }
                return Ok((Shared::clone(model), *rv));
            }
        }
        let obj = api.get(&self.subject, oref)?;
        Ok((obj.model, obj.resource_version))
    }

    /// Reads one attribute (see [`get`](Self::get)); missing paths read
    /// as `Null`, like the serial `get_path` verb.
    pub fn get_path(
        &self,
        api: &ApiServer,
        oref: &ObjectRef,
        path: &str,
    ) -> Result<Value, ApiError> {
        let (model, _) = self.get(api, oref)?;
        Ok(model.get_path(path).cloned().unwrap_or(Value::Null))
    }

    /// Deep-merges a patch into an object's model. Returns the ticket to
    /// look up in [`commit`](Self::commit)'s results.
    pub fn patch(&mut self, api: &mut ApiServer, oref: &ObjectRef, patch: Value) -> usize {
        if !self.batched {
            let result = api.patch(&self.subject, oref, patch);
            return self.push(Pending::Done(result));
        }
        match self.read_for_write(api, oref) {
            Err(e) => self.push(Pending::Failed(e)),
            Ok((mut model, rv)) => {
                let m = Shared::make_mut(&mut model);
                m.merge(&patch);
                stamp_gen(m, rv + 1);
                self.overlay.insert(oref.clone(), (model, rv + 1));
                self.queue(BatchOp::Patch {
                    oref: oref.clone(),
                    patch,
                })
            }
        }
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
        if !self.batched {
            let result = api.patch_path(&self.subject, oref, path, value);
            return self.push(Pending::Done(result));
        }
        let parsed: Path = match path.parse() {
            Ok(p) => p,
            Err(e) => {
                return self.push(Pending::Failed(ApiError::BadRequest(format!(
                    "bad path {path}: {e}"
                ))))
            }
        };
        match self.read_for_write(api, oref) {
            Err(e) => self.push(Pending::Failed(e)),
            Ok((mut model, rv)) => {
                let m = Shared::make_mut(&mut model);
                if let Err(e) = m.set(&parsed, value.clone()) {
                    return self.push(Pending::Failed(ApiError::BadRequest(e.to_string())));
                }
                stamp_gen(m, rv + 1);
                self.overlay.insert(oref.clone(), (model, rv + 1));
                self.queue(BatchOp::PatchPath {
                    oref: oref.clone(),
                    path: path.to_string(),
                    value,
                })
            }
        }
    }

    /// Commits the queued ops as one `apply_batch` call and resolves every
    /// ticket, in issue order. Every written object is first re-validated
    /// against the resource version its plan-time read observed (the
    /// `base` map): when a batch lands after a delay — a deferred
    /// controller cycle whose writes traveled a link — the store may have
    /// moved on; ops against a moved (or vanished) object resolve
    /// `Err(Conflict)` / `Err(NotFound)` without reaching the server,
    /// exactly like a driver's OCC `update`. Returns the per-ticket
    /// results and the number of objects whose validation failed. A
    /// per-op batch queues nothing, so this only resolves its tickets.
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
        // Send only the ops whose base still holds; remember where each
        // queued index landed so tickets resolve in issue order.
        let mut send: Vec<BatchOp> = Vec::new();
        let mut routed: Vec<Result<usize, ApiError>> = Vec::with_capacity(self.ops.len());
        for op in self.ops {
            match stale.get(op.oref()) {
                Some(e) => routed.push(Err(e.clone())),
                None => {
                    routed.push(Ok(send.len()));
                    send.push(op);
                }
            }
        }
        let server = if send.is_empty() {
            Vec::new()
        } else {
            api.apply_batch(&self.subject, send)
        };
        let mut server = server.into_iter().map(Some).collect::<Vec<_>>();
        let results = self
            .pending
            .into_iter()
            .map(|p| match p {
                Pending::Failed(e) => Err(e),
                Pending::Done(r) => r,
                Pending::Queued(i) => match &routed[i] {
                    Err(e) => Err(e.clone()),
                    Ok(j) => server[*j].take().expect("one result per sent op"),
                },
            })
            .collect();
        (results, conflicts)
    }

    /// The simulation's read: overlay entry if the object was already
    /// written this cycle, otherwise the committed object. Mirrors the
    /// `current` input of the server's own batch-overlay preparation —
    /// NotFound here is NotFound at commit.
    fn read_for_write(
        &mut self,
        api: &ApiServer,
        oref: &ObjectRef,
    ) -> Result<(Shared<Value>, u64), ApiError> {
        if let Some((model, rv)) = self.overlay.get(oref) {
            return Ok((Shared::clone(model), *rv));
        }
        // Unauthenticated raw read: RBAC for the write itself is checked
        // by apply_batch at commit, exactly like the serial verb would.
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

    fn queue(&mut self, op: BatchOp) -> usize {
        self.wire_bytes += wire_size(&op);
        self.ops.push(op);
        self.push(Pending::Queued(self.ops.len() - 1))
    }
}

/// Rough serialized size of one batch op: the payload plus per-op header
/// overhead (oref, path, framing).
fn wire_size(op: &BatchOp) -> u64 {
    let payload = match op {
        BatchOp::Patch { patch, .. } => dspace_value::json::encoded_len(patch),
        BatchOp::PatchPath { path, value, .. } => {
            path.len() + dspace_value::json::encoded_len(value)
        }
        BatchOp::Create { model, .. } => dspace_value::json::encoded_len(model),
        BatchOp::Update { model, .. } => dspace_value::json::encoded_len(model),
        BatchOp::Delete { .. } => 0,
    };
    (payload + op.oref().to_string().len() + 16) as u64
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
        let rev_before = api.snapshot().revision();
        let (results, _) = b.commit(&mut api);
        assert!(matches!(results[t], Err(ApiError::NotFound(_))));
        assert_eq!(
            api.snapshot().revision(),
            rev_before,
            "an all-failed batch commits nothing"
        );
    }
}
