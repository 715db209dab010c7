//! Scoped client handles: `api.client(subject).namespace(ns)`.
//!
//! Callers used to hand-assemble `(subject, ObjectRef)` tuples at every
//! call site. A [`NamespacedClient`] fixes the subject and namespace once,
//! so the verbs take just `(kind, name)` — and the namespace a component
//! operates in is visible at the point the handle is created, not spread
//! across string literals.

use dspace_value::{Name, Value};

use crate::error::ApiError;
use crate::object::{Object, ObjectRef};
use crate::query::Query;
use crate::server::ApiServer;
use crate::store::{CoalescedEvent, WatchEvent, WatchId};

/// A client handle bound to one subject. Borrow the server mutably, pick a
/// namespace, issue verbs, and drop it; the borrow is as short as a direct
/// call would be.
pub struct Client<'a> {
    api: &'a mut ApiServer,
    subject: String,
}

impl<'a> Client<'a> {
    pub(crate) fn new(api: &'a mut ApiServer, subject: String) -> Self {
        Client { api, subject }
    }

    /// The subject this handle acts as.
    pub fn subject(&self) -> &str {
        &self.subject
    }

    /// Scopes the handle to one namespace.
    pub fn namespace(self, namespace: impl Into<Name>) -> NamespacedClient<'a> {
        NamespacedClient {
            api: self.api,
            subject: self.subject,
            namespace: namespace.into(),
        }
    }

    /// Runs a [`Query`] as this subject, across namespaces.
    pub fn query(&mut self, q: &Query) -> Result<Vec<Object>, ApiError> {
        self.api.query(&self.subject, q)
    }

    /// Opens a watch over one [`Query`] as this subject.
    pub fn watch(&mut self, q: &Query) -> Result<WatchId, ApiError> {
        self.api.watch_query(&self.subject, q)
    }
}

/// A client handle bound to one subject *and* one namespace: the typed API
/// surface components are written against.
pub struct NamespacedClient<'a> {
    api: &'a mut ApiServer,
    subject: String,
    namespace: Name,
}

impl NamespacedClient<'_> {
    /// The subject this handle acts as.
    pub fn subject(&self) -> &str {
        &self.subject
    }

    /// The namespace this handle is scoped to.
    pub fn namespace(&self) -> &str {
        &self.namespace
    }

    /// Builds the full reference for `(kind, name)` in this namespace.
    pub fn oref(&self, kind: &str, name: &str) -> ObjectRef {
        ObjectRef::new(kind, self.namespace.clone(), name)
    }

    /// Creates an object.
    pub fn create(&mut self, kind: &str, name: &str, model: Value) -> Result<u64, ApiError> {
        let oref = self.oref(kind, name);
        self.api.create(&self.subject, &oref, model)
    }

    /// Reads an object.
    pub fn get(&self, kind: &str, name: &str) -> Result<Object, ApiError> {
        self.api.get(&self.subject, &self.oref(kind, name))
    }

    /// Reads a single attribute from an object's model.
    pub fn get_path(&self, kind: &str, name: &str, path: &str) -> Result<Value, ApiError> {
        self.api
            .get_path(&self.subject, &self.oref(kind, name), path)
    }

    /// Runs a [`Query`] pinned to this handle's namespace (whatever
    /// namespace the query carried is overridden).
    pub fn query(&mut self, q: &Query) -> Result<Vec<Object>, ApiError> {
        let q = q.clone().in_ns(self.namespace.as_str());
        self.api.query(&self.subject, &q)
    }

    /// Replaces an object's model with optimistic concurrency control.
    pub fn update(
        &mut self,
        kind: &str,
        name: &str,
        model: Value,
        expected_rv: Option<u64>,
    ) -> Result<u64, ApiError> {
        let oref = self.oref(kind, name);
        self.api.update(&self.subject, &oref, model, expected_rv)
    }

    /// Merges `patch` into the current model (strategic-merge semantics).
    pub fn patch(&mut self, kind: &str, name: &str, patch: Value) -> Result<u64, ApiError> {
        let oref = self.oref(kind, name);
        self.api.patch(&self.subject, &oref, patch)
    }

    /// Sets one attribute of an object's model.
    pub fn patch_path(
        &mut self,
        kind: &str,
        name: &str,
        path: &str,
        value: Value,
    ) -> Result<u64, ApiError> {
        let oref = self.oref(kind, name);
        self.api.patch_path(&self.subject, &oref, path, value)
    }

    /// Removes an attribute from an object's model.
    pub fn delete_path(&mut self, kind: &str, name: &str, path: &str) -> Result<u64, ApiError> {
        let oref = self.oref(kind, name);
        self.api.delete_path(&self.subject, &oref, path)
    }

    /// Deletes an object.
    pub fn delete(&mut self, kind: &str, name: &str) -> Result<Object, ApiError> {
        let oref = self.oref(kind, name);
        self.api.delete(&self.subject, &oref)
    }

    /// Opens a watch over one [`Query`] pinned to this handle's namespace.
    /// The subscription registers in exactly this namespace's shard, so
    /// activity elsewhere can never wake it.
    pub fn watch(&mut self, q: &Query) -> Result<WatchId, ApiError> {
        let q = q.clone().in_ns(self.namespace.as_str());
        self.api.watch_query(&self.subject, &q)
    }

    /// Drains pending events for a watch subscription.
    pub fn poll(&mut self, id: WatchId) -> Vec<WatchEvent> {
        self.api.poll(id)
    }

    /// Drains pending events, coalescing bursts per object.
    pub fn poll_coalesced(&mut self, id: WatchId) -> Vec<CoalescedEvent> {
        self.api.poll_coalesced(id)
    }

    /// Returns `true` if the subscription has undelivered events.
    pub fn has_pending(&self, id: WatchId) -> bool {
        self.api.has_pending(id)
    }

    /// Cancels a watch subscription.
    pub fn cancel_watch(&mut self, id: WatchId) {
        self.api.cancel_watch(id)
    }
}

#[cfg(test)]
mod tests {

    use super::*;
    use dspace_value::{AttrType, KindSchema};

    fn api_with_lamp() -> ApiServer {
        let mut api = ApiServer::new();
        api.register_schema(
            KindSchema::digivice("digi.dev", "v1", "Lamp").control("power", AttrType::String),
        );
        api
    }

    #[test]
    fn namespaced_verbs_roundtrip() {
        let mut api = api_with_lamp();
        let model = api.schema("Lamp").unwrap().new_model("l1", "bedroom");
        let mut c = api.client(ApiServer::ADMIN).namespace("bedroom");
        assert_eq!(c.create("Lamp", "l1", model).unwrap(), 1);
        assert_eq!(c.get("Lamp", "l1").unwrap().oref.namespace, "bedroom");
        c.patch_path("Lamp", "l1", ".control.power.intent", "on".into())
            .unwrap();
        assert_eq!(
            c.get_path("Lamp", "l1", ".control.power.intent")
                .unwrap()
                .as_str(),
            Some("on")
        );
        let gone = c.delete("Lamp", "l1").unwrap();
        assert_eq!(gone.oref, ObjectRef::new("Lamp", "bedroom", "l1"));
    }

    #[test]
    fn query_is_namespace_scoped() {
        let mut api = api_with_lamp();
        for ns in ["bedroom", "kitchen"] {
            let model = api.schema("Lamp").unwrap().new_model("l1", ns);
            api.client(ApiServer::ADMIN)
                .namespace(ns)
                .create("Lamp", "l1", model)
                .unwrap();
        }
        let objs = api
            .client(ApiServer::ADMIN)
            .namespace("bedroom")
            .query(&Query::kind("Lamp"))
            .unwrap();
        assert_eq!(objs.len(), 1);
        assert_eq!(objs[0].oref.namespace, "bedroom");
    }

    #[test]
    fn watch_is_shard_scoped() {
        let mut api = api_with_lamp();
        for ns in ["bedroom", "kitchen"] {
            let model = api.schema("Lamp").unwrap().new_model("l1", ns);
            api.client(ApiServer::ADMIN)
                .namespace(ns)
                .create("Lamp", "l1", model)
                .unwrap();
        }
        let w = api
            .client(ApiServer::ADMIN)
            .namespace("bedroom")
            .watch(&Query::kind("Lamp"))
            .unwrap();
        api.client(ApiServer::ADMIN)
            .namespace("kitchen")
            .patch_path("Lamp", "l1", ".control.power.intent", "on".into())
            .unwrap();
        assert!(!api.has_pending(w), "kitchen event leaked into bedroom");
        api.client(ApiServer::ADMIN)
            .namespace("bedroom")
            .patch_path("Lamp", "l1", ".control.power.intent", "on".into())
            .unwrap();
        let evs = api.poll(w);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].oref.namespace, "bedroom");
    }

    #[test]
    fn client_enforces_rbac() {
        let mut api = api_with_lamp();
        let model = api.schema("Lamp").unwrap().new_model("l1", "default");
        api.client(ApiServer::ADMIN)
            .namespace("default")
            .create("Lamp", "l1", model)
            .unwrap();
        let c = api.client("intruder").namespace("default");
        assert!(matches!(
            c.get("Lamp", "l1"),
            Err(ApiError::Forbidden { .. })
        ));
    }
}
