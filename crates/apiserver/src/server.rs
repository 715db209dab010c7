//! The apiserver facade: verbs routed through RBAC, schema validation,
//! and the admission chain before hitting the store.

use std::collections::BTreeMap;

use dspace_value::{KindSchema, Path, Value};

use crate::admission::{AdmissionResponse, AdmissionReview, AdmissionWebhook};
use crate::client::{Client, ReadClient};
use crate::error::ApiError;
use crate::object::{Object, ObjectRef};
use crate::query::{Query, QueryError};
use crate::rbac::{Rbac, Role, Rule, Verb};
use crate::store::{
    stamp_gen, CoalescedEvent, Store, StoreOp, StoreSnapshot, WatchEvent, WatchId, WatchSelector,
    WatchStats,
};
use crate::wal::{DurabilityOptions, WalError};

/// A post-commit webhook notification queued by the prepared batch path:
/// `(ticket, verb, oref, old model, new model)`.
type Review = (usize, Verb, ObjectRef, Option<Value>, Option<Value>);

/// The API server.
///
/// Every request names its *subject* (the authenticated caller, §3.6); the
/// request pipeline is: RBAC check → schema validation → admission chain →
/// store commit → webhook `observe` notifications.
pub struct ApiServer {
    store: Store,
    rbac: Rbac,
    schemas: std::collections::BTreeMap<String, KindSchema>,
    webhooks: Vec<Box<dyn AdmissionWebhook>>,
    /// When `false`, schema validation is skipped for unregistered kinds
    /// (used for system objects like `Sync` and `Policy`).
    strict_kinds: bool,
}

impl Default for ApiServer {
    fn default() -> Self {
        Self::new()
    }
}

impl ApiServer {
    /// The built-in administrative subject, bound to an allow-all role.
    pub const ADMIN: &'static str = "system:admin";

    /// Creates a server with the admin subject pre-bound.
    pub fn new() -> Self {
        let mut rbac = Rbac::new();
        rbac.add_role(Role::new("cluster-admin", vec![Rule::allow_all()]));
        rbac.bind(Self::ADMIN, "cluster-admin");
        ApiServer {
            store: Store::new(),
            rbac,
            schemas: Default::default(),
            webhooks: Vec::new(),
            strict_kinds: false,
        }
    }

    /// Creates a durable server backed by the WAL/checkpoint directory in
    /// `opts`, recovering any state a previous incarnation committed
    /// there. Schemas, RBAC bindings, and webhooks are *not* persisted —
    /// re-register them after opening, exactly as on a fresh server.
    pub fn open(opts: DurabilityOptions) -> Result<Self, WalError> {
        let mut api = Self::new();
        api.store = Store::open(opts)?;
        Ok(api)
    }

    /// Forces a checkpoint now (no-op on a non-durable server). Normally
    /// checkpoints happen automatically every `checkpoint_every` commits.
    pub fn checkpoint(&mut self) {
        self.store.checkpoint();
    }

    /// Registers a kind schema (the CRD analogue). Models of registered
    /// kinds are validated on every write.
    pub fn register_schema(&mut self, schema: KindSchema) {
        self.schemas.insert(schema.kind.clone(), schema);
    }

    /// Returns the schema for `kind`, if registered.
    pub fn schema(&self, kind: &str) -> Option<&KindSchema> {
        self.schemas.get(kind)
    }

    /// Iterates over all registered schemas.
    pub fn schemas(&self) -> impl Iterator<Item = &KindSchema> {
        self.schemas.values()
    }

    /// Registers an admission webhook; consulted in registration order.
    pub fn register_webhook(&mut self, hook: Box<dyn AdmissionWebhook>) {
        self.webhooks.push(hook);
    }

    /// Mutable access to the RBAC authorizer (role/binding management).
    pub fn rbac_mut(&mut self) -> &mut Rbac {
        &mut self.rbac
    }

    /// Read access to the RBAC authorizer.
    pub fn rbac(&self) -> &Rbac {
        &self.rbac
    }

    /// Current global store revision.
    pub fn revision(&self) -> u64 {
        self.store.revision()
    }

    fn authorize(&self, subject: &str, verb: Verb, oref: &ObjectRef) -> Result<(), ApiError> {
        if self.rbac.authorize(subject, verb, oref) {
            Ok(())
        } else {
            Err(ApiError::Forbidden {
                subject: subject.to_string(),
                reason: format!("{verb:?} on {oref} not permitted"),
            })
        }
    }

    fn validate(&self, oref: &ObjectRef, model: &Value) -> Result<(), ApiError> {
        match self.schemas.get(&oref.kind) {
            Some(schema) => schema
                .validate(model)
                .map_err(|e| ApiError::Invalid(e.to_string())),
            None if self.strict_kinds => Err(ApiError::UnknownKind(oref.kind.clone())),
            None => Ok(()),
        }
    }

    fn admit(
        &mut self,
        subject: &str,
        verb: Verb,
        oref: &ObjectRef,
        old: Option<&Value>,
        new: Option<&Value>,
    ) -> Result<(), ApiError> {
        let review = AdmissionReview {
            subject,
            verb,
            oref,
            old,
            new,
        };
        for hook in &mut self.webhooks {
            if let AdmissionResponse::Deny(reason) = hook.review(&review) {
                return Err(ApiError::AdmissionDenied {
                    webhook: hook.name().to_string(),
                    reason,
                });
            }
        }
        Ok(())
    }

    fn observe(
        &mut self,
        subject: &str,
        verb: Verb,
        oref: &ObjectRef,
        old: Option<&Value>,
        new: Option<&Value>,
    ) {
        let review = AdmissionReview {
            subject,
            verb,
            oref,
            old,
            new,
        };
        for hook in &mut self.webhooks {
            hook.observe(&review);
        }
    }

    /// Creates an object.
    pub fn create(
        &mut self,
        subject: &str,
        oref: &ObjectRef,
        model: Value,
    ) -> Result<u64, ApiError> {
        self.authorize(subject, Verb::Create, oref)?;
        self.validate(oref, &model)?;
        if self.store.get(oref).is_some() {
            return Err(ApiError::AlreadyExists(oref.clone()));
        }
        self.admit(subject, Verb::Create, oref, None, Some(&model))?;
        let obj = self.store.create(oref.clone(), model)?;
        let committed = obj.model.clone();
        self.observe(subject, Verb::Create, oref, None, Some(&*committed));
        Ok(1)
    }

    /// Applies a batch of mutations in one round trip, committing each
    /// namespace's slice on its shard's worker
    /// (see [`Store::apply_batch`](crate::store::Store::apply_batch)).
    ///
    /// Per-op semantics — RBAC, schema validation, admission, versioning —
    /// match the serial verbs, and results come back in op order. Ops later
    /// in the batch see the writes of earlier ops, like back-to-back serial
    /// calls. The batch is not a transaction: each op commits or fails
    /// independently.
    pub fn apply_batch(&mut self, subject: &str, ops: Vec<BatchOp>) -> Vec<Result<u64, ApiError>> {
        let mut results: Vec<Option<Result<u64, ApiError>>> = ops.iter().map(|_| None).collect();
        let mut admitted: Vec<(usize, BatchOp)> = Vec::with_capacity(ops.len());
        for (i, op) in ops.into_iter().enumerate() {
            match self.authorize(subject, op.verb(), op.oref()) {
                Ok(()) => admitted.push((i, op)),
                Err(e) => results[i] = Some(Err(e)),
            }
        }
        // The fast path ships raw ops to the shard workers. It is only
        // valid when no coordinator-side pipeline stage can fire: webhooks
        // and schema validation need old/new models, so their presence
        // routes through the prepared path, which simulates the batch on
        // the coordinator first.
        let prepared = !self.webhooks.is_empty()
            || self.strict_kinds
            || admitted
                .iter()
                .any(|(_, op)| self.schemas.contains_key(&op.oref().kind));
        if prepared {
            self.apply_batch_prepared(subject, admitted, &mut results);
        } else {
            self.apply_batch_fast(admitted, &mut results);
        }
        results
            .into_iter()
            .map(|r| r.expect("every op resolved"))
            .collect()
    }

    fn apply_batch_fast(
        &mut self,
        ops: Vec<(usize, BatchOp)>,
        results: &mut [Option<Result<u64, ApiError>>],
    ) {
        let mut store_ops: Vec<(usize, StoreOp)> = Vec::with_capacity(ops.len());
        for (i, op) in ops {
            match batch_to_store_op(op) {
                Ok(sop) => store_ops.push((i, sop)),
                Err(e) => results[i] = Some(Err(e)),
            }
        }
        for (i, r) in self.store.apply_ops(store_ops) {
            results[i] = Some(r);
        }
    }

    /// Batch path with coordinator-side pipeline stages: each op is
    /// simulated against an overlay of the batch's earlier writes so
    /// validation and admission see the same old/new models the serial
    /// verbs would, then the surviving ops commit on the shard workers and
    /// webhooks observe the outcomes in op order.
    fn apply_batch_prepared(
        &mut self,
        subject: &str,
        ops: Vec<(usize, BatchOp)>,
        results: &mut [Option<Result<u64, ApiError>>],
    ) {
        // The batch's view of each touched object: `None` = deleted.
        let mut overlay: BTreeMap<ObjectRef, Option<(Value, u64)>> = BTreeMap::new();
        let mut store_ops: Vec<(usize, StoreOp)> = Vec::with_capacity(ops.len());
        let mut reviews: Vec<Review> = Vec::new();
        for (i, op) in ops {
            let verb = op.verb();
            let oref = op.oref().clone();
            let current = match overlay.get(&oref) {
                Some(entry) => entry.clone(),
                None => self
                    .store
                    .get(&oref)
                    .map(|o| ((*o.model).clone(), o.resource_version)),
            };
            match self.prepare_batch_op(subject, op, current) {
                Ok((sop, old, new, entry)) => {
                    overlay.insert(oref.clone(), entry);
                    reviews.push((i, verb, oref, old, new));
                    store_ops.push((i, sop));
                }
                Err(e) => results[i] = Some(Err(e)),
            }
        }
        for (i, r) in self.store.apply_ops(store_ops) {
            results[i] = Some(r);
        }
        for (i, verb, oref, old, new) in reviews {
            if matches!(results[i], Some(Ok(_))) {
                self.observe(subject, verb, &oref, old.as_ref(), new.as_ref());
            }
        }
    }

    /// Runs one batch op through validation and admission against the
    /// batch overlay, returning the store op to commit, the (old, new)
    /// models for the post-commit `observe`, and the overlay entry the op
    /// leaves behind.
    #[allow(clippy::type_complexity)]
    fn prepare_batch_op(
        &mut self,
        subject: &str,
        op: BatchOp,
        current: Option<(Value, u64)>,
    ) -> Result<(StoreOp, Option<Value>, Option<Value>, Option<(Value, u64)>), ApiError> {
        match op {
            BatchOp::Create { oref, model } => {
                self.validate(&oref, &model)?;
                if current.is_some() {
                    return Err(ApiError::AlreadyExists(oref));
                }
                self.admit(subject, Verb::Create, &oref, None, Some(&model))?;
                let mut stamped = model.clone();
                stamp_gen(&mut stamped, 1);
                Ok((
                    StoreOp::Create { oref, model },
                    None,
                    Some(stamped.clone()),
                    Some((stamped, 1)),
                ))
            }
            BatchOp::Update {
                oref,
                model,
                expected_rv,
            } => {
                self.validate(&oref, &model)?;
                let (old, rv) = current.ok_or_else(|| ApiError::NotFound(oref.clone()))?;
                if let Some(expected) = expected_rv {
                    if expected != rv {
                        return Err(ApiError::Conflict {
                            oref,
                            expected,
                            actual: rv,
                        });
                    }
                }
                self.admit(subject, Verb::Update, &oref, Some(&old), Some(&model))?;
                let mut stamped = model.clone();
                stamp_gen(&mut stamped, rv + 1);
                Ok((
                    StoreOp::Put {
                        oref,
                        model,
                        expected_rv,
                    },
                    Some(old),
                    Some(stamped.clone()),
                    Some((stamped, rv + 1)),
                ))
            }
            BatchOp::Patch { oref, patch } => {
                let (old, rv) = current.ok_or_else(|| ApiError::NotFound(oref.clone()))?;
                let mut new = old.clone();
                new.merge(&patch);
                self.validate(&oref, &new)?;
                self.admit(subject, Verb::Patch, &oref, Some(&old), Some(&new))?;
                stamp_gen(&mut new, rv + 1);
                Ok((
                    StoreOp::Merge { oref, patch },
                    Some(old),
                    Some(new.clone()),
                    Some((new, rv + 1)),
                ))
            }
            BatchOp::PatchPath { oref, path, value } => {
                let parsed: Path = path
                    .parse()
                    .map_err(|e| ApiError::BadRequest(format!("bad path {path}: {e}")))?;
                let (old, rv) = current.ok_or_else(|| ApiError::NotFound(oref.clone()))?;
                let mut new = old.clone();
                new.set(&parsed, value.clone())
                    .map_err(|e| ApiError::BadRequest(e.to_string()))?;
                self.validate(&oref, &new)?;
                self.admit(subject, Verb::Patch, &oref, Some(&old), Some(&new))?;
                stamp_gen(&mut new, rv + 1);
                Ok((
                    StoreOp::SetPath {
                        oref,
                        path: parsed,
                        value,
                    },
                    Some(old),
                    Some(new.clone()),
                    Some((new, rv + 1)),
                ))
            }
            BatchOp::Delete { oref } => {
                let (old, _) = current.ok_or_else(|| ApiError::NotFound(oref.clone()))?;
                self.admit(subject, Verb::Delete, &oref, Some(&old), None)?;
                Ok((StoreOp::Delete { oref }, Some(old), None, None))
            }
        }
    }

    /// Reads an object.
    pub fn get(&self, subject: &str, oref: &ObjectRef) -> Result<Object, ApiError> {
        self.authorize(subject, Verb::Get, oref)?;
        self.store
            .get(oref)
            .cloned()
            .ok_or_else(|| ApiError::NotFound(oref.clone()))
    }

    /// Reads a single attribute from an object's model.
    pub fn get_path(&self, subject: &str, oref: &ObjectRef, path: &str) -> Result<Value, ApiError> {
        let obj = self.get(subject, oref)?;
        Ok(obj.model.get_path(path).cloned().unwrap_or(Value::Null))
    }

    /// Authorizes `List` against the narrowest ref a query covers.
    fn authorize_query(&self, subject: &str, q: &Query) -> Result<(), ApiError> {
        let probe = ObjectRef::new(
            q.kind.as_deref().unwrap_or("*"),
            q.namespace.as_deref().unwrap_or("*"),
            q.name.as_deref().unwrap_or("*"),
        );
        self.authorize(subject, Verb::List, &probe)
            .map_err(|_| ApiError::Forbidden {
                subject: subject.to_string(),
                reason: format!("List on {probe} not permitted"),
            })
    }

    /// Runs a [`Query`] — the one read verb behind which `list`/
    /// `list_namespaced`/`dump` shapes collapsed. Filter predicates ride
    /// the store's secondary indexes when plannable; the full predicate
    /// is always re-evaluated, so results match a brute-force scan
    /// exactly. Needs `&mut` because first use of a `(kind, path)` pair
    /// builds its index; hot *read-only* paths should query a
    /// [`StoreSnapshot`](crate::StoreSnapshot) instead.
    pub fn query(&mut self, subject: &str, q: &Query) -> Result<Vec<Object>, ApiError> {
        self.authorize_query(subject, q)?;
        Ok(self.store.query(q))
    }

    /// Replaces an object's model with optimistic concurrency control.
    pub fn update(
        &mut self,
        subject: &str,
        oref: &ObjectRef,
        model: Value,
        expected_rv: Option<u64>,
    ) -> Result<u64, ApiError> {
        self.authorize(subject, Verb::Update, oref)?;
        self.validate(oref, &model)?;
        let old = self
            .store
            .get(oref)
            .map(|o| o.model.clone())
            .ok_or_else(|| ApiError::NotFound(oref.clone()))?;
        self.admit(subject, Verb::Update, oref, Some(&*old), Some(&model))?;
        let rv = self.store.update(oref, model, expected_rv)?;
        let committed = self.store.get(oref).expect("just updated").model.clone();
        self.observe(subject, Verb::Update, oref, Some(&*old), Some(&*committed));
        Ok(rv)
    }

    /// Deletes a namespace: every object in it is deleted through the
    /// admission pipeline (so e.g. the topology webhook unwires each digi),
    /// watch selectors homed in the namespace are cancelled, and the
    /// namespace's shard is dropped once its terminal `Deleted` events
    /// drain. Global watchers see those events ordered and gap-free.
    ///
    /// Requires delete rights over the whole namespace. Returns the number
    /// of objects deleted.
    pub fn delete_namespace(&mut self, subject: &str, namespace: &str) -> Result<u64, ApiError> {
        let probe = ObjectRef::new("*", namespace, "*");
        self.authorize(subject, Verb::Delete, &probe)?;
        let orefs = self.store.begin_delete_namespace(namespace);
        let mut deleted = 0;
        let mut failure: Option<ApiError> = None;
        for oref in &orefs {
            let Some(old) = self.store.get(oref).map(|o| o.model.clone()) else {
                continue;
            };
            if let Err(e) = self.admit(subject, Verb::Delete, oref, Some(&*old), None) {
                failure = Some(e);
                break;
            }
            self.store.delete(oref)?;
            self.observe(subject, Verb::Delete, oref, Some(&*old), None);
            deleted += 1;
        }
        // Finish even on a veto: the shard stays retiring and is dropped
        // only if everything was in fact removed.
        self.store.finish_delete_namespace(namespace);
        match failure {
            Some(e) => Err(e),
            None => Ok(deleted),
        }
    }

    /// `true` when no coordinator-side pipeline stage needs the candidate
    /// model for a patch to `oref`: no webhooks, kinds are not strict, and
    /// no schema covers the kind. The patch verbs then skip materializing
    /// old/new documents entirely, so a patch to a watched object is
    /// O(delta) end to end — the store merges/sets in place, sizes the
    /// event incrementally, and journals only the patch.
    fn patch_pipeline_idle(&self, oref: &ObjectRef) -> bool {
        self.webhooks.is_empty() && !self.strict_kinds && !self.schemas.contains_key(&oref.kind)
    }

    /// Merges `patch` into the current model (strategic-merge semantics of
    /// [`Value::merge`]). Runs as a read–modify–write without OCC — the
    /// merge is applied atomically on the server side.
    pub fn patch(
        &mut self,
        subject: &str,
        oref: &ObjectRef,
        patch: Value,
    ) -> Result<u64, ApiError> {
        self.authorize(subject, Verb::Patch, oref)?;
        if self.patch_pipeline_idle(oref) {
            return self.store.update_via_merge(oref, &patch);
        }
        let old = self
            .store
            .get(oref)
            .map(|o| o.model.clone())
            .ok_or_else(|| ApiError::NotFound(oref.clone()))?;
        let mut new = (*old).clone();
        new.merge(&patch);
        self.validate(oref, &new)?;
        self.admit(subject, Verb::Patch, oref, Some(&*old), Some(&new))?;
        // Journals the patch, not the merged document.
        let rv = self.store.update_via_merge(oref, &patch)?;
        let committed = self.store.get(oref).expect("just patched").model.clone();
        self.observe(subject, Verb::Patch, oref, Some(&*old), Some(&*committed));
        Ok(rv)
    }

    /// Sets one attribute of an object's model.
    pub fn patch_path(
        &mut self,
        subject: &str,
        oref: &ObjectRef,
        path: &str,
        value: Value,
    ) -> Result<u64, ApiError> {
        self.authorize(subject, Verb::Patch, oref)?;
        if self.patch_pipeline_idle(oref) {
            if self.store.get(oref).is_none() {
                return Err(ApiError::NotFound(oref.clone()));
            }
            let parsed: dspace_value::Path = path
                .parse()
                .map_err(|e| ApiError::BadRequest(format!("bad path {path}: {e}")))?;
            return self.store.update_via_set(oref, &parsed, &value);
        }
        let old = self
            .store
            .get(oref)
            .map(|o| o.model.clone())
            .ok_or_else(|| ApiError::NotFound(oref.clone()))?;
        let parsed: dspace_value::Path = path
            .parse()
            .map_err(|e| ApiError::BadRequest(format!("bad path {path}: {e}")))?;
        let mut new = (*old).clone();
        new.set(&parsed, value.clone())
            .map_err(|e| ApiError::BadRequest(e.to_string()))?;
        self.validate(oref, &new)?;
        self.admit(subject, Verb::Patch, oref, Some(&*old), Some(&new))?;
        // Journals path + value — a few dozen bytes for the hottest verb
        // in the system, instead of the whole model.
        let rv = self.store.update_via_set(oref, &parsed, &value)?;
        let committed = self.store.get(oref).expect("just patched").model.clone();
        self.observe(subject, Verb::Patch, oref, Some(&*old), Some(&*committed));
        Ok(rv)
    }

    /// Removes an attribute from an object's model.
    pub fn delete_path(
        &mut self,
        subject: &str,
        oref: &ObjectRef,
        path: &str,
    ) -> Result<u64, ApiError> {
        self.authorize(subject, Verb::Patch, oref)?;
        let old = self
            .store
            .get(oref)
            .map(|o| o.model.clone())
            .ok_or_else(|| ApiError::NotFound(oref.clone()))?;
        let parsed: dspace_value::Path = path
            .parse()
            .map_err(|e| ApiError::BadRequest(format!("bad path {path}: {e}")))?;
        let mut new = (*old).clone();
        new.remove(&parsed);
        self.validate(oref, &new)?;
        self.admit(subject, Verb::Patch, oref, Some(&*old), Some(&new))?;
        let rv = self.store.update(oref, new, None)?;
        let committed = self.store.get(oref).expect("just patched").model.clone();
        self.observe(subject, Verb::Patch, oref, Some(&*old), Some(&*committed));
        Ok(rv)
    }

    /// Deletes an object.
    pub fn delete(&mut self, subject: &str, oref: &ObjectRef) -> Result<Object, ApiError> {
        self.authorize(subject, Verb::Delete, oref)?;
        let old = self
            .store
            .get(oref)
            .map(|o| o.model.clone())
            .ok_or_else(|| ApiError::NotFound(oref.clone()))?;
        self.admit(subject, Verb::Delete, oref, Some(&*old), None)?;
        let gone = self.store.delete(oref)?;
        self.observe(subject, Verb::Delete, oref, Some(&*old), None);
        Ok(gone)
    }

    /// Jumps an object's resource version forward without changing its
    /// model (see [`Store::fast_forward`](crate::store::Store::fast_forward)).
    /// A simulation aid for placing an object deep into its mutation
    /// history; requires update rights.
    pub fn fast_forward(
        &mut self,
        subject: &str,
        oref: &ObjectRef,
        rv: u64,
    ) -> Result<u64, ApiError> {
        self.authorize(subject, Verb::Update, oref)?;
        self.store.fast_forward(oref, rv)
    }

    /// Authorizes a watch by probing the narrowest ref the selector
    /// covers, so a subject allowed to watch only its own object can
    /// still hold an `Object` subscription. Predicate selectors probe
    /// their kind-in-namespace scope: the filter only narrows it.
    fn authorize_watch(&self, subject: &str, selector: &WatchSelector) -> Result<(), ApiError> {
        let probe = match selector {
            WatchSelector::All => ObjectRef::new("*", "*", "*"),
            WatchSelector::Kind(k) => ObjectRef::new(k, "*", "*"),
            WatchSelector::KindInNamespace { kind, namespace } => {
                ObjectRef::new(kind, namespace, "*")
            }
            WatchSelector::Object(r) => r.clone(),
            WatchSelector::Predicate(p) => ObjectRef::new(&p.kind, &p.namespace, "*"),
        };
        if self.rbac.authorize(subject, Verb::Watch, &probe) {
            Ok(())
        } else {
            Err(ApiError::Forbidden {
                subject: subject.to_string(),
                reason: format!("Watch on {probe} not permitted"),
            })
        }
    }

    fn lower_query(q: &Query) -> Result<WatchSelector, ApiError> {
        q.to_selector()
            .map_err(|e: QueryError| ApiError::BadRequest(e.to_string()))
    }

    /// Opens a watch over one [`Query`] — the subscription half of the
    /// composable query surface. Filtered queries become *predicate
    /// watches*: the store matches them at commit time against the index
    /// delta it just computed, so events failing the filter never go
    /// pending for this subscription.
    pub fn watch_query(&mut self, subject: &str, q: &Query) -> Result<WatchId, ApiError> {
        self.watch_queries(subject, std::slice::from_ref(q))
    }

    /// Opens one watch subscription over the union of `queries`. An event
    /// matching several of them is still delivered once. The empty union
    /// is a valid, never-firing subscription that can be widened later
    /// with [`ApiServer::extend_watch`].
    pub fn watch_queries(&mut self, subject: &str, queries: &[Query]) -> Result<WatchId, ApiError> {
        let selectors = queries
            .iter()
            .map(Self::lower_query)
            .collect::<Result<Vec<_>, _>>()?;
        for selector in &selectors {
            self.authorize_watch(subject, selector)?;
        }
        Ok(self.store.open_watch(selectors))
    }

    /// Widens an existing subscription with another query (only future
    /// events of the newly covered scope are delivered).
    pub fn extend_watch(&mut self, subject: &str, id: WatchId, q: &Query) -> Result<(), ApiError> {
        let selector = Self::lower_query(q)?;
        self.authorize_watch(subject, &selector)?;
        if self.store.attach_selector(id, selector) {
            Ok(())
        } else {
            Err(ApiError::UnknownWatch(id))
        }
    }

    /// Removes one occurrence of a query's selector from a subscription,
    /// re-settling its pending accounting (events only the removed
    /// selector matched stop being owed). Narrowing needs no
    /// authorization — it can only shrink what the subject already holds.
    /// Returns `Ok(false)` when the selector was not part of the
    /// subscription.
    pub fn narrow_watch(&mut self, id: WatchId, q: &Query) -> Result<bool, ApiError> {
        let selector = Self::lower_query(q)?;
        if !self.store.watch_exists(id) {
            return Err(ApiError::UnknownWatch(id));
        }
        Ok(self.store.detach_selector(id, &selector))
    }

    /// Drains pending events for a watch subscription.
    pub fn poll(&mut self, id: WatchId) -> Vec<WatchEvent> {
        self.store.poll(id)
    }

    /// Drains pending events, collapsing rapid mutations of the same
    /// object into one delivery carrying the newest snapshot plus the
    /// number of raw events it absorbed (see
    /// [`Store::poll_coalesced`](crate::store::Store::poll_coalesced)).
    pub fn poll_coalesced(&mut self, id: WatchId) -> Vec<CoalescedEvent> {
        self.store.poll_coalesced(id)
    }

    /// Returns `true` if the subscription has undelivered events.
    pub fn has_pending(&self, id: WatchId) -> bool {
        self.store.has_pending(id)
    }

    /// The serialized size of the subscription's undelivered events — what
    /// the next notification would put on the wire.
    pub fn pending_bytes(&self, id: WatchId) -> u64 {
        self.store.pending_bytes(id)
    }

    /// Undelivered `(events, bytes)` in one derivation pass (see
    /// [`Store::pending_totals`](crate::store::Store::pending_totals)).
    pub fn pending_totals(&self, id: WatchId) -> (u64, u64) {
        self.store.pending_totals(id)
    }

    /// Drains the set of watchers that may have gone pending since the
    /// last call (see
    /// [`Store::drain_dirty_watchers`](crate::store::Store::drain_dirty_watchers)).
    pub fn drain_dirty_watchers(&mut self) -> Vec<WatchId> {
        self.store.drain_dirty_watchers()
    }

    /// Cancels a watch subscription, releasing its log-compaction hold.
    pub fn cancel_watch(&mut self, id: WatchId) {
        self.store.cancel_watch(id)
    }

    /// Watch/notification traffic counters (bench + diagnostics).
    pub fn watch_stats(&self) -> WatchStats {
        self.store.watch_stats()
    }

    /// Re-walks every size hint at append time and asserts it (see
    /// [`Store::set_verify_sizes`](crate::store::Store::set_verify_sizes)).
    /// Equivalence-test instrumentation; off by default.
    pub fn set_verify_sizes(&mut self, verify: bool) {
        self.store.set_verify_sizes(verify)
    }

    /// Cross-checks every cached/stamped size and derived pending counter
    /// against freshly computed truth (see
    /// [`Store::audit_sizes`](crate::store::Store::audit_sizes)).
    #[doc(hidden)]
    pub fn audit_sizes(&self) -> Result<(), String> {
        self.store.audit_sizes()
    }

    /// Current in-memory watch log length (bounded by live watcher lag).
    pub fn log_len(&self) -> usize {
        self.store.log_len()
    }

    /// Current in-memory watch log length of one namespace's shard.
    pub fn shard_log_len(&self, namespace: &str) -> usize {
        self.store.shard_log_len(namespace)
    }

    /// Number of live namespace shards.
    pub fn shard_count(&self) -> usize {
        self.store.shard_count()
    }

    /// Lists every stored object (admin/debug use).
    pub fn dump(&self) -> Vec<Object> {
        self.store.scan_all().into_iter().cloned().collect()
    }

    /// Takes a consistent, immutable snapshot of the whole store (see
    /// [`Store::snapshot`](crate::store::Store::snapshot)): O(shards), no
    /// model copies, detached from the server's borrow. This is the read
    /// path for CLIs and scenario readers — a reader chewing on a snapshot
    /// can never stall the write coordinator.
    pub fn snapshot(&self) -> StoreSnapshot {
        self.store.snapshot()
    }

    /// Reads ever served by snapshots of this server's store.
    pub fn snapshot_reads(&self) -> u64 {
        self.store.snapshot_reads()
    }

    /// Reads ever served through the store's own accessors (on the
    /// coordinator's borrow).
    pub fn direct_reads(&self) -> u64 {
        self.store.direct_reads()
    }

    /// Opens a scoped client handle acting as `subject`. Chain with
    /// [`Client::namespace`] to get a
    /// [`NamespacedClient`](crate::client::NamespacedClient) whose verbs
    /// take `(kind, name)` instead of hand-assembled
    /// `(subject, ObjectRef)` tuples.
    pub fn client(&mut self, subject: impl Into<String>) -> Client<'_> {
        Client::new(self, subject.into())
    }

    /// Opens a read-only client handle acting as `subject`. Unlike
    /// [`ApiServer::client`] this borrows the server immutably, so
    /// controllers can hold one while something else drives mutations.
    pub fn reader(&self, subject: impl Into<String>) -> ReadClient<'_> {
        ReadClient::new(self, subject.into())
    }

    /// The shard worker cap (see
    /// [`SHARD_THREADS_ENV`](crate::executor::SHARD_THREADS_ENV)).
    pub fn executor_threads(&self) -> usize {
        self.store.executor_threads()
    }

    /// Sets the shard worker cap. Batch results are bit-identical at any
    /// setting; this only changes how many shards commit concurrently.
    pub fn set_executor_threads(&mut self, threads: usize) {
        self.store.set_executor_threads(threads)
    }

    /// Number of pooled shard-worker threads currently alive.
    pub fn pooled_workers(&self) -> usize {
        self.store.pooled_workers()
    }
}

/// One mutation of an [`ApiServer::apply_batch`] call, phrased in the same
/// vocabulary as the serial verbs.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchOp {
    /// Create an object (see [`ApiServer::create`]).
    Create {
        /// The object to create.
        oref: ObjectRef,
        /// Its initial model.
        model: Value,
    },
    /// Replace a model with optional OCC (see [`ApiServer::update`]).
    Update {
        /// The object to replace.
        oref: ObjectRef,
        /// The replacement model.
        model: Value,
        /// Optimistic-concurrency guard.
        expected_rv: Option<u64>,
    },
    /// Deep-merge a patch (see [`ApiServer::patch`]).
    Patch {
        /// The object to patch.
        oref: ObjectRef,
        /// The patch document.
        patch: Value,
    },
    /// Set one attribute (see [`ApiServer::patch_path`]).
    PatchPath {
        /// The object to mutate.
        oref: ObjectRef,
        /// Dotted attribute path, e.g. `.control.power.intent`.
        path: String,
        /// The new value.
        value: Value,
    },
    /// Delete an object (see [`ApiServer::delete`]).
    Delete {
        /// The object to delete.
        oref: ObjectRef,
    },
}

impl BatchOp {
    /// The object this op addresses.
    pub fn oref(&self) -> &ObjectRef {
        match self {
            BatchOp::Create { oref, .. }
            | BatchOp::Update { oref, .. }
            | BatchOp::Patch { oref, .. }
            | BatchOp::PatchPath { oref, .. }
            | BatchOp::Delete { oref } => oref,
        }
    }

    /// The RBAC verb the op is authorized as (mirrors the serial verbs).
    fn verb(&self) -> Verb {
        match self {
            BatchOp::Create { .. } => Verb::Create,
            BatchOp::Update { .. } => Verb::Update,
            BatchOp::Patch { .. } | BatchOp::PatchPath { .. } => Verb::Patch,
            BatchOp::Delete { .. } => Verb::Delete,
        }
    }
}

/// Lowers a batch op to its store form; only `PatchPath` can fail (path
/// parse), with the same error text as the serial verb.
fn batch_to_store_op(op: BatchOp) -> Result<StoreOp, ApiError> {
    Ok(match op {
        BatchOp::Create { oref, model } => StoreOp::Create { oref, model },
        BatchOp::Update {
            oref,
            model,
            expected_rv,
        } => StoreOp::Put {
            oref,
            model,
            expected_rv,
        },
        BatchOp::Patch { oref, patch } => StoreOp::Merge { oref, patch },
        BatchOp::PatchPath { oref, path, value } => {
            let parsed: Path = path
                .parse()
                .map_err(|e| ApiError::BadRequest(format!("bad path {path}: {e}")))?;
            StoreOp::SetPath {
                oref,
                path: parsed,
                value,
            }
        }
        BatchOp::Delete { oref } => StoreOp::Delete { oref },
    })
}

#[cfg(test)]
mod tests {

    use super::*;
    use crate::admission::testing::RejectForbiddenFlag;
    use dspace_value::{AttrType, KindSchema};

    fn server_with_plug() -> (ApiServer, ObjectRef) {
        let mut api = ApiServer::new();
        api.register_schema(
            KindSchema::digivice("digi.dev", "v1", "Plug").control("power", AttrType::String),
        );
        let oref = ObjectRef::default_ns("Plug", "p1");
        let model = api.schema("Plug").unwrap().new_model("p1", "default");
        api.create(ApiServer::ADMIN, &oref, model).unwrap();
        (api, oref)
    }

    #[test]
    fn create_and_read() {
        let (api, oref) = server_with_plug();
        let obj = api.get(ApiServer::ADMIN, &oref).unwrap();
        assert_eq!(obj.resource_version, 1);
        assert_eq!(
            api.get_path(ApiServer::ADMIN, &oref, ".meta.kind")
                .unwrap()
                .as_str(),
            Some("Plug")
        );
    }

    #[test]
    fn schema_validation_on_write() {
        let (mut api, oref) = server_with_plug();
        // Wrong type for a declared control attribute.
        let err = api
            .patch_path(ApiServer::ADMIN, &oref, ".control.power.intent", 5.0.into())
            .unwrap_err();
        assert!(matches!(err, ApiError::Invalid(_)), "{err}");
        // Correct type passes.
        api.patch_path(
            ApiServer::ADMIN,
            &oref,
            ".control.power.intent",
            "on".into(),
        )
        .unwrap();
    }

    #[test]
    fn rbac_gates_requests() {
        let (mut api, oref) = server_with_plug();
        let err = api.get("intruder", &oref).unwrap_err();
        assert!(matches!(err, ApiError::Forbidden { .. }));
        // Grant read-only and retry.
        api.rbac_mut()
            .add_role(Role::new("viewer", vec![Rule::read_only(["Plug"])]));
        api.rbac_mut().bind("intruder", "viewer");
        assert!(api.get("intruder", &oref).is_ok());
        // Writes still denied.
        assert!(api
            .patch_path("intruder", &oref, ".control.power.intent", "on".into())
            .is_err());
    }

    #[test]
    fn admission_webhook_vetoes() {
        let (mut api, oref) = server_with_plug();
        api.register_webhook(Box::new(RejectForbiddenFlag));
        let err = api
            .patch_path(ApiServer::ADMIN, &oref, ".forbidden", true.into())
            .unwrap_err();
        assert!(matches!(err, ApiError::AdmissionDenied { .. }));
        // The store is untouched.
        assert!(api
            .get_path(ApiServer::ADMIN, &oref, ".forbidden")
            .unwrap()
            .is_null());
    }

    #[test]
    fn update_with_occ() {
        let (mut api, oref) = server_with_plug();
        let obj = api.get(ApiServer::ADMIN, &oref).unwrap();
        let mut m = (*obj.model).clone();
        m.set(&".control.power.intent".parse().unwrap(), "on".into())
            .unwrap();
        api.update(
            ApiServer::ADMIN,
            &oref,
            m.clone(),
            Some(obj.resource_version),
        )
        .unwrap();
        // Same base version again: conflict.
        let err = api
            .update(ApiServer::ADMIN, &oref, m, Some(obj.resource_version))
            .unwrap_err();
        assert!(matches!(err, ApiError::Conflict { .. }));
    }

    #[test]
    fn patch_merges() {
        let (mut api, oref) = server_with_plug();
        let patch =
            dspace_value::json::parse(r#"{"control": {"power": {"intent": "on"}}}"#).unwrap();
        api.patch(ApiServer::ADMIN, &oref, patch).unwrap();
        assert_eq!(
            api.get_path(ApiServer::ADMIN, &oref, ".control.power.intent")
                .unwrap()
                .as_str(),
            Some("on")
        );
        // Untouched attributes survive.
        assert_eq!(
            api.get_path(ApiServer::ADMIN, &oref, ".meta.name")
                .unwrap()
                .as_str(),
            Some("p1")
        );
    }

    #[test]
    fn watch_streams_patches() {
        let (mut api, oref) = server_with_plug();
        let w = api
            .watch_query(ApiServer::ADMIN, &Query::kind("Plug"))
            .unwrap();
        api.patch_path(
            ApiServer::ADMIN,
            &oref,
            ".control.power.intent",
            "on".into(),
        )
        .unwrap();
        api.patch_path(
            ApiServer::ADMIN,
            &oref,
            ".control.power.status",
            "on".into(),
        )
        .unwrap();
        let evs = api.poll(w);
        assert_eq!(evs.len(), 2);
        assert!(evs[0].resource_version < evs[1].resource_version);
    }

    #[test]
    fn delete_path_removes_attribute() {
        let (mut api, oref) = server_with_plug();
        api.patch_path(ApiServer::ADMIN, &oref, ".obs.note", "x".into())
            .unwrap();
        api.delete_path(ApiServer::ADMIN, &oref, ".obs.note")
            .unwrap();
        assert!(api
            .get_path(ApiServer::ADMIN, &oref, ".obs.note")
            .unwrap()
            .is_null());
    }

    #[test]
    fn query_by_kind() {
        let (mut api, _) = server_with_plug();
        let p2 = ObjectRef::default_ns("Plug", "p2");
        let model = api.schema("Plug").unwrap().new_model("p2", "default");
        api.create(ApiServer::ADMIN, &p2, model).unwrap();
        assert_eq!(
            api.query(ApiServer::ADMIN, &Query::kind("Plug"))
                .unwrap()
                .len(),
            2
        );
        assert!(api
            .query(ApiServer::ADMIN, &Query::kind("Room"))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn unknown_object_operations_fail() {
        let (mut api, _) = server_with_plug();
        let ghost = ObjectRef::default_ns("Plug", "ghost");
        assert!(matches!(
            api.get(ApiServer::ADMIN, &ghost),
            Err(ApiError::NotFound(_))
        ));
        assert!(matches!(
            api.patch_path(ApiServer::ADMIN, &ghost, ".x", 1.0.into()),
            Err(ApiError::NotFound(_))
        ));
        assert!(matches!(
            api.delete(ApiServer::ADMIN, &ghost),
            Err(ApiError::NotFound(_))
        ));
    }
}
