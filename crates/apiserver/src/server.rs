//! The apiserver facade: verbs routed through RBAC, schema validation,
//! and the admission chain before hitting the store.

use dspace_value::{KindSchema, Path, Value};

use crate::admission::{AdmissionResponse, AdmissionReview, AdmissionWebhook};
use crate::client::Client;
use crate::error::ApiError;
use crate::object::{Object, ObjectRef};
use crate::query::{Query, QueryError};
use crate::rbac::{Rbac, Role, Rule, Verb};
use crate::store::{CoalescedEvent, Store, WatchEvent, WatchId, WatchSelector, WatchStats};
use crate::wal::{DurabilityOptions, WalError};
use crate::write::WriteOp;

/// The API server.
///
/// Every request names its *subject* (the authenticated caller, §3.6); the
/// request pipeline is: RBAC check → schema validation → admission chain →
/// store commit → webhook `observe` notifications. Every modify verb is
/// one [`WriteOp`] and runs the same pipeline ([`ApiServer::write`]).
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
        self.observe(subject, Verb::Create, oref, None, Some(&committed));
        Ok(1)
    }

    /// Reads an object.
    pub fn get(&self, subject: &str, oref: &ObjectRef) -> Result<Object, ApiError> {
        self.authorize(subject, Verb::Get, oref)?;
        self.store
            .get(oref)
            .cloned()
            .ok_or_else(|| ApiError::NotFound(oref.clone()))
    }

    /// Reads a single attribute from an object's model. A missing
    /// attribute reads as `Null`; a malformed path is a `BadRequest`, as
    /// it is for [`patch_path`](Self::patch_path).
    pub fn get_path(&self, subject: &str, oref: &ObjectRef, path: &str) -> Result<Value, ApiError> {
        let obj = self.get(subject, oref)?;
        let parsed = parse_path(path)?;
        Ok(obj.model.get(&parsed).cloned().unwrap_or(Value::Null))
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
    /// builds its index.
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
        self.write(subject, oref, WriteOp::Put(model), expected_rv)
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
            if let Err(e) = self.admit(subject, Verb::Delete, oref, Some(&old), None) {
                failure = Some(e);
                break;
            }
            self.store.delete(oref)?;
            self.observe(subject, Verb::Delete, oref, Some(&old), None);
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

    /// Merges `patch` into the current model (strategic-merge semantics of
    /// [`Value::merge`]). Runs as a read–modify–write without OCC — the
    /// merge is applied atomically on the server side.
    pub fn patch(
        &mut self,
        subject: &str,
        oref: &ObjectRef,
        patch: Value,
    ) -> Result<u64, ApiError> {
        self.write(subject, oref, WriteOp::Merge(patch), None)
    }

    /// Sets one attribute of an object's model.
    pub fn patch_path(
        &mut self,
        subject: &str,
        oref: &ObjectRef,
        path: &str,
        value: Value,
    ) -> Result<u64, ApiError> {
        let op = parse_path(path).map(|p| WriteOp::Set(p, value));
        self.commit_op(subject, Verb::Patch, oref, op, None)
    }

    /// Removes an attribute from an object's model.
    pub fn delete_path(
        &mut self,
        subject: &str,
        oref: &ObjectRef,
        path: &str,
    ) -> Result<u64, ApiError> {
        let op = parse_path(path).map(WriteOp::Remove);
        self.commit_op(subject, Verb::Patch, oref, op, None)
    }

    /// Commits one [`WriteOp`] to an existing object through the whole
    /// request pipeline, authorized as `Update` for a put or a
    /// fast-forward and as `Patch` for the partial edits. `expected_rv`
    /// implements optimistic concurrency, as for [`update`](Self::update).
    pub fn write(
        &mut self,
        subject: &str,
        oref: &ObjectRef,
        op: WriteOp,
        expected_rv: Option<u64>,
    ) -> Result<u64, ApiError> {
        self.commit_op(subject, op.verb(), oref, Ok(op), expected_rv)
    }

    /// The one pipeline of every modify verb. It applies the op once, to a
    /// copy of the stored model, and the store commits that model as is.
    /// Failures come in one order whatever the verb: `Forbidden`,
    /// `NotFound`, `BadRequest` (a malformed path, which `op` carries, or
    /// a failed set), `Invalid`, `AdmissionDenied`, then `Conflict`.
    fn commit_op(
        &mut self,
        subject: &str,
        verb: Verb,
        oref: &ObjectRef,
        op: Result<WriteOp, ApiError>,
        expected_rv: Option<u64>,
    ) -> Result<u64, ApiError> {
        self.authorize(subject, verb, oref)?;
        let (old, current) = self
            .store
            .get(oref)
            .map(|o| (o.model.clone(), o.resource_version))
            .ok_or_else(|| ApiError::NotFound(oref.clone()))?;
        let op = op?;
        let mut new = old.clone();
        op.apply(&mut new, op.next_rv(oref, current)?)?;
        self.validate(oref, &new)?;
        self.admit(subject, verb, oref, Some(&old), Some(&new))?;
        // The server holds `old` across the commit for `observe`, so the
        // store counts this write as a copy of a held model.
        let rv = self.store.write_built(oref, &op, new, expected_rv)?;
        let committed = self.store.get(oref).expect("just written").model.clone();
        self.observe(subject, verb, oref, Some(&old), Some(&committed));
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
        self.admit(subject, Verb::Delete, oref, Some(&old), None)?;
        let gone = self.store.delete(oref)?;
        self.observe(subject, Verb::Delete, oref, Some(&old), None);
        Ok(gone)
    }

    /// Jumps an object's resource version forward to `rv` without
    /// changing its model, re-stamping `meta.gen` and emitting a `Modified`
    /// event ([`WriteOp::FastForward`]). A simulation aid: a real
    /// deployment reaches generation 2^53 only after years of mutations,
    /// but the version-gate arithmetic must be exact there. Requires
    /// update rights; it skips schema validation and admission.
    pub fn fast_forward(
        &mut self,
        subject: &str,
        oref: &ObjectRef,
        rv: u64,
    ) -> Result<u64, ApiError> {
        self.authorize(subject, Verb::Update, oref)?;
        self.store.write(oref, &WriteOp::FastForward(rv), None)
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

    /// The number of undelivered events for the subscription (see
    /// [`Store::pending_events`](crate::store::Store::pending_events)).
    pub fn pending_events(&self, id: WatchId) -> u64 {
        self.store.pending_events(id)
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

    /// Cross-checks every derived pending counter against a fresh recount
    /// (see [`Store::audit_sizes`](crate::store::Store::audit_sizes)).
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

    /// Lists every stored object, sorted by reference (admin/debug use).
    pub fn dump(&self) -> Vec<Object> {
        self.scan(&Query::all()).into_iter().cloned().collect()
    }

    /// Test and bench support: the brute-force reference for
    /// [`query`](Self::query) (see [`Store::scan`](crate::store::Store::scan)),
    /// borrowed rather than cloned and without an RBAC check.
    #[doc(hidden)]
    pub fn scan(&self, q: &Query) -> Vec<&Object> {
        self.store.scan(q)
    }

    /// Opens a scoped client handle acting as `subject`. Chain with
    /// [`Client::namespace`] to get a
    /// [`NamespacedClient`](crate::client::NamespacedClient) whose verbs
    /// take `(kind, name)` instead of hand-assembled
    /// `(subject, ObjectRef)` tuples.
    pub fn client(&mut self, subject: impl Into<String>) -> Client<'_> {
        Client::new(self, subject.into())
    }
}

/// Parses a model path, rejecting a malformed one as a `BadRequest`.
pub fn parse_path(path: &str) -> Result<Path, ApiError> {
    path.parse()
        .map_err(|e| ApiError::BadRequest(format!("bad path {path}: {e}")))
}

#[cfg(test)]
mod tests {

    use super::*;
    use crate::admission::testing::RejectForbiddenFlag;
    use crate::admission::{AdmissionResponse, AdmissionReview};
    use dspace_value::{AttrType, KindSchema, Map};
    use std::cell::RefCell;
    use std::rc::Rc;

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
    fn malformed_read_path_is_a_bad_request() {
        let (mut api, oref) = server_with_plug();
        for path in [".control..power", ".control.power[x]"] {
            let err = api.get_path(ApiServer::ADMIN, &oref, path).unwrap_err();
            assert!(matches!(err, ApiError::BadRequest(_)), "{path}: {err}");
            let err = api
                .patch_path(ApiServer::ADMIN, &oref, path, "on".into())
                .unwrap_err();
            assert!(matches!(err, ApiError::BadRequest(_)), "{path}: {err}");
        }
        // A well-formed path to a missing attribute still reads as Null.
        assert!(api
            .get_path(ApiServer::ADMIN, &oref, ".control.nope")
            .unwrap()
            .is_null());
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
        let mut m = obj.model.clone();
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
    fn modify_verbs_fail_in_one_order() {
        let (mut api, oref) = server_with_plug();
        api.register_webhook(Box::new(RejectForbiddenFlag));
        let ghost = ObjectRef::default_ns("Plug", "ghost");
        let admin = ApiServer::ADMIN;
        let invalid = |m: &mut Value| {
            m.set(&".control.power.intent".parse().unwrap(), 5.0.into())
                .unwrap();
        };
        let mut bad = api.schema("Plug").unwrap().new_model("ghost", "default");
        invalid(&mut bad);
        // Forbidden before NotFound.
        let err = api
            .update("intruder", &ghost, bad.clone(), None)
            .unwrap_err();
        assert!(matches!(err, ApiError::Forbidden { .. }), "{err}");
        // NotFound before Invalid, and before a malformed path's BadRequest.
        let err = api.update(admin, &ghost, bad, None).unwrap_err();
        assert!(matches!(err, ApiError::NotFound(_)), "{err}");
        let err = api
            .patch_path(admin, &ghost, ".control..power", "on".into())
            .unwrap_err();
        assert!(matches!(err, ApiError::NotFound(_)), "{err}");
        // A set through a scalar is a BadRequest.
        let err = api
            .patch_path(admin, &oref, ".meta.kind.deeper", "on".into())
            .unwrap_err();
        assert!(matches!(err, ApiError::BadRequest(_)), "{err}");
        // Invalid before AdmissionDenied, and AdmissionDenied before
        // Conflict.
        let mut vetoed = api.get(admin, &oref).unwrap().model;
        vetoed
            .set(&".forbidden".parse().unwrap(), true.into())
            .unwrap();
        let mut both = vetoed.clone();
        invalid(&mut both);
        let err = api.update(admin, &oref, both, Some(0)).unwrap_err();
        assert!(matches!(err, ApiError::Invalid(_)), "{err}");
        let err = api.update(admin, &oref, vetoed, Some(0)).unwrap_err();
        assert!(matches!(err, ApiError::AdmissionDenied { .. }), "{err}");
        let model = api.get(admin, &oref).unwrap().model;
        let err = api.update(admin, &oref, model, Some(0)).unwrap_err();
        assert!(matches!(err, ApiError::Conflict { .. }), "{err}");
    }

    /// Records, per committed write, whether the model committed is the
    /// very model admission reviewed (the same root map).
    struct SameModel {
        admitted: Option<Map>,
        seen: Rc<RefCell<Vec<bool>>>,
    }

    fn root(model: Option<&Value>) -> Option<&Map> {
        match model {
            Some(Value::Object(m)) => Some(m),
            _ => None,
        }
    }

    impl crate::admission::AdmissionWebhook for SameModel {
        fn name(&self) -> &str {
            "same-model"
        }

        fn review(&mut self, review: &AdmissionReview<'_>) -> AdmissionResponse {
            self.admitted = root(review.new).cloned();
            AdmissionResponse::Allow
        }

        fn observe(&mut self, review: &AdmissionReview<'_>) {
            let same = match (&self.admitted, root(review.new)) {
                (Some(admitted), Some(committed)) => Map::ptr_eq(admitted, committed),
                _ => false,
            };
            self.seen.borrow_mut().push(same);
        }
    }

    #[test]
    fn the_store_commits_the_model_the_server_built() {
        let (mut api, oref) = server_with_plug();
        let seen = Rc::default();
        api.register_webhook(Box::new(SameModel {
            admitted: None,
            seen: Rc::clone(&seen),
        }));
        let admin = ApiServer::ADMIN;
        let model = api.get(admin, &oref).unwrap().model;
        api.update(admin, &oref, model, None).unwrap();
        let patch = dspace_value::json::parse(r#"{"obs": {"note": "x"}}"#).unwrap();
        api.patch(admin, &oref, patch).unwrap();
        api.patch_path(admin, &oref, ".control.power.intent", "on".into())
            .unwrap();
        api.delete_path(admin, &oref, ".obs.note").unwrap();
        assert_eq!(*seen.borrow(), [true; 4]);
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
