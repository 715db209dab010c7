//! A Kubernetes-style API server for digi models.
//!
//! dSpace reuses the k8s apiserver as the single point of coordination: all
//! digi models live there as API objects, every component communicates only
//! by reading/writing/watching models (§5.1 of the paper). This crate
//! implements the apiserver semantics that dSpace relies on, from scratch:
//!
//! - an object store keyed by `(kind, namespace, name)` with **optimistic
//!   concurrency control** via per-object resource versions,
//! - a **Watch API** with per-subscriber cursors over a totally ordered
//!   event log, providing the §3.5 guarantee: a watcher that has seen
//!   versions `Va < Vb` of an object has also seen every version between
//!   them, in order, with no gaps,
//! - an **admission webhook chain** consulted before any mutating verb
//!   commits (dSpace's topology webhook plugs in here, §5.2),
//! - **RBAC** with roles, rules, and subject bindings (§3.6),
//! - a **schema registry** validating models against their
//!   [`dspace_value::KindSchema`] (the CRD analogue).
//!
//! # Examples
//!
//! ```
//! use dspace_apiserver::{ApiServer, ObjectRef, Query, Verb};
//! use dspace_value::{AttrType, KindSchema, Value};
//!
//! let mut api = ApiServer::new();
//! api.register_schema(KindSchema::digivice("digi.dev", "v1", "Plug")
//!     .control("power", AttrType::String));
//!
//! let plug = ObjectRef::new("Plug", "default", "p1");
//! let model = api.schema("Plug").unwrap().new_model("p1", "default");
//! api.create(ApiServer::ADMIN, &plug, model).unwrap();
//!
//! let w = api.watch_query(ApiServer::ADMIN, &Query::kind("Plug")).unwrap();
//! api.patch_path(ApiServer::ADMIN, &plug, ".control.power.intent", "on".into()).unwrap();
//! let events = api.poll(w);
//! assert_eq!(events.len(), 1);
//!
//! // Filtered reads compile a reflex predicate and ride secondary indexes:
//! let q = Query::kind("Plug").in_ns("default")
//!     .filter(".control.power.intent == \"on\"").unwrap();
//! assert_eq!(api.query(ApiServer::ADMIN, &q).unwrap().len(), 1);
//! ```

pub mod admission;
pub mod client;
pub mod error;
pub mod executor;
pub mod object;
pub mod query;
pub mod rbac;
pub mod server;
pub mod store;
pub mod wal;

pub use admission::{AdmissionResponse, AdmissionReview, AdmissionWebhook};
pub use client::{Client, NamespacedClient, NamespacedReadClient, ReadClient};
pub use error::ApiError;
pub use executor::{ShardExecutor, SHARD_THREADS_ENV};
pub use object::{Object, ObjectRef};
pub use query::{IndexKey, Plan, PredicateSelector, Query, QueryError, QueryPred};
pub use rbac::{Role, RoleBinding, Rule, Verb};
pub use server::{ApiServer, BatchOp};
pub use store::{
    stamp_gen, CoalescedEvent, StoreOp, StoreSnapshot, WatchEvent, WatchEventKind, WatchId,
    WatchSelector, WatchStats,
};
pub use wal::{DurabilityOptions, WalError, WalSync};
