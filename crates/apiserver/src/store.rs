//! Object storage and the Watch event log, sharded by namespace.
//!
//! Every namespace owns a *shard*: its own event log, its own revision
//! counter, its own selector indexes, and its own compaction horizon.
//! Mutations in one namespace never touch another shard's log or wake its
//! watchers, so tenants stay isolated. In the other direction, a watcher's
//! polls visit only the shards where it has undelivered events, so a
//! subscription spanning every namespace pays per delivery what a
//! single-namespace one does.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use dspace_value::{json, Path, Value};

use crate::error::ApiError;
use crate::object::{Object, ObjectRef};
use crate::query::{IndexKey, Plan, PredicateSelector, Query, QueryError, QueryPred};
use crate::wal::{self, Checkpoint, DurabilityOptions, Wal, WalError, WalRecord};
use crate::write::{self, stamp_gen, WriteOp};

/// What happened to an object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchEventKind {
    /// Object created.
    Added,
    /// Object updated.
    Modified,
    /// Object deleted.
    Deleted,
}

/// One entry of a namespace shard's ordered event log, and one delivery
/// of it.
///
/// A commit makes the model snapshot once. The log entry, the stored
/// object (until its next write) and every delivery share its maps (see
/// [`dspace_value::Map`]), so cloning a `WatchEvent` is O(1) in the model
/// size. While an entry is resident, a write to its object therefore
/// copies the written path instead of editing it in place
/// ([`WatchStats::deep_clones`]).
#[derive(Debug, Clone, PartialEq)]
pub struct WatchEvent {
    /// Strictly increasing revision *within the event's namespace shard*.
    /// A single shard's log is totally ordered and gap-free; there is no
    /// revision ordering across namespaces (shards never contend).
    pub revision: u64,
    /// What happened.
    pub kind: WatchEventKind,
    /// The object affected.
    pub oref: ObjectRef,
    /// Model snapshot after the change (for deletes: the last model).
    pub model: Value,
    /// The object's resource version after the change.
    pub resource_version: u64,
}

/// One coalesced delivery: the newest event for an object plus the number
/// of raw log events it absorbed.
///
/// The contract drivers rely on (§3.5 adapted to batch wakes): the carried
/// snapshot is the *newest* committed state of the object at poll time, and
/// `coalesced` counts *every* raw event folded in — so a driver woken after
/// a burst reconciles once, against current state, and its metrics still
/// account for the full mutation volume.
#[derive(Debug, Clone, PartialEq)]
pub struct CoalescedEvent {
    /// The newest pending event for the object.
    pub event: WatchEvent,
    /// Raw events collapsed into this delivery (>= 1).
    pub coalesced: u64,
}

/// Handle to a watch subscription.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WatchId(pub u64);

/// What a watch subscription is interested in.
///
/// Scoped subscriptions are what keep the notification fan-out linear: a
/// digi driver subscribes to exactly its own model instead of receiving
/// (and discarding) every other digi's events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WatchSelector {
    /// Every object in every namespace (debug/CLI views).
    All,
    /// Objects of one kind, in every namespace.
    Kind(String),
    /// One exact object.
    Object(ObjectRef),
    /// Objects of one kind inside one namespace. This is the tenancy
    /// boundary: the subscription registers in exactly one shard, so
    /// activity in other namespaces can never wake it.
    KindInNamespace {
        /// The object kind.
        kind: String,
        /// The namespace shard to register in.
        namespace: String,
    },
    /// Objects of one kind inside one namespace whose *model* satisfies a
    /// compiled predicate. Matching happens at commit time against the
    /// index delta the shard just computed, so events that do not satisfy
    /// the predicate never even go pending. Semantics are stateless: each
    /// event is judged by its own model snapshot (a modification that
    /// leaves the predicate produces no "goodbye" event; deletes are
    /// judged by the final model).
    Predicate(PredicateSelector),
}

impl WatchSelector {
    /// Returns `true` if events about `oref` *can* belong to this
    /// subscription. For predicate selectors this is the scope check only
    /// (kind + namespace) — whether a concrete event matches also depends
    /// on its model snapshot, which [`WatchSelector::event_matches`]
    /// judges.
    pub fn matches(&self, oref: &ObjectRef) -> bool {
        match self {
            WatchSelector::All => true,
            WatchSelector::Kind(k) => *k == oref.kind,
            WatchSelector::Object(r) => r == oref,
            WatchSelector::KindInNamespace { kind, namespace } => {
                *kind == oref.kind && *namespace == oref.namespace
            }
            WatchSelector::Predicate(p) => p.kind == oref.kind && p.namespace == oref.namespace,
        }
    }

    /// Returns `true` if a concrete event (identity + model snapshot)
    /// belongs to this subscription. This is the judgement the append
    /// path charges pending counters by, and the poll path re-applies;
    /// the two agree because predicates are pure functions of the model.
    pub fn event_matches(&self, oref: &ObjectRef, model: &Value) -> bool {
        match self {
            WatchSelector::Predicate(p) => {
                p.kind == oref.kind && p.namespace == oref.namespace && p.pred.matches(model)
            }
            _ => self.matches(oref),
        }
    }

    /// Returns `true` when the selector spans every namespace and must be
    /// registered in every shard, existing and future.
    fn is_global(&self) -> bool {
        matches!(self, WatchSelector::All | WatchSelector::Kind(_))
    }

    /// The single shard a namespace-scoped selector registers in.
    fn home_namespace(&self) -> Option<&str> {
        match self {
            WatchSelector::Object(r) => Some(&r.namespace),
            WatchSelector::KindInNamespace { namespace, .. } => Some(namespace),
            WatchSelector::Predicate(p) => Some(&p.namespace),
            _ => None,
        }
    }
}

/// One selector slot of a shard: its subscriber refcounts plus the shared
/// charge cell that single-slot members ride instead of per-member
/// counters.
#[derive(Debug, Clone, Default)]
struct Slot {
    /// Registration refcounts — a watcher can reach the same slot through
    /// several selectors (e.g. a global `Kind` plus a scoped
    /// `KindInNamespace` of the same kind), and dropping one of them must
    /// not unhook the others.
    subs: BTreeMap<WatchId, usize>,
    /// Monotone charge: how many matching events were ever appended while
    /// the slot existed. Members in cell mode derive their pending counts
    /// as the difference between this and the baseline they captured at
    /// registration (or their last drain) — so an append charges each
    /// matching *slot* once, not each subscribed watcher, and per-write
    /// cost is flat in watcher count.
    charge: u64,
    /// Set when an append charged this slot since the last
    /// [`Store::drain_dirty_watchers`] pass; the slot's key is then listed
    /// once in its shard's `dirty_slots`, so the drain enumerates only
    /// slots that actually took events.
    dirty: bool,
}

/// Identity of a plain (non-predicate) selector slot within one shard.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum SlotKey {
    All,
    Kind(String),
    Object(ObjectRef),
}

impl SlotKey {
    /// Does the slot cover events about `oref`? Only asked of entries of
    /// the slot's own shard, so the namespace always matches.
    fn covers(&self, oref: &ObjectRef) -> bool {
        match self {
            SlotKey::All => true,
            SlotKey::Kind(k) => *k == oref.kind,
            SlotKey::Object(r) => r == oref,
        }
    }
}

/// One plain slot a member occupies.
#[derive(Debug, Clone)]
struct MemberSlot {
    key: SlotKey,
    /// Registration refcount (see [`Slot::subs`]).
    refs: usize,
    /// First shard revision the registration covers. Behind the cursor
    /// unless the slot was added while the member still had events
    /// pending: the cursor must then stay put, and this keeps the new
    /// slot from matching events committed before it.
    since: u64,
}

/// A watcher's registration state within one shard, owned *by the shard*
/// so a mutation can maintain cursors and pending counters without
/// touching store-level state.
#[derive(Debug, Clone)]
struct ShardMember {
    /// Shard revision of the next event this watcher has yet to examine:
    /// all events with `revision < cursor` are delivered or filtered out.
    /// Only a member with pending events needs it current: one that is
    /// caught up matched nothing since its cursor, so polls leave it
    /// alone and [`Shard::register`] fast-forwards it before widening.
    cursor: u64,
    /// Plain selector slots this member occupies.
    slots: Vec<MemberSlot>,
    /// Predicate registrations (each also listed in `pred_watchers`).
    pred_refs: usize,
    /// How this member's pending counts are tracked (see [`Acct`]).
    acct: Acct,
}

impl ShardMember {
    /// `true` while the member may ride its single slot's charge cell:
    /// exactly one plain slot, no predicate registrations.
    fn cell_eligible(&self) -> bool {
        self.slots.len() == 1 && self.pred_refs == 0
    }
}

/// Pending accounting mode of one shard member.
///
/// The overwhelmingly common shape — one selector, or several selectors
/// mapping to the same slot — derives its pending counts from the slot's
/// charge cell, so appends never touch it. Members spanning several
/// distinct slots, or holding any predicate registration, fall back to
/// exact per-member counters (charged per matching event, deduped).
#[derive(Debug, Clone)]
enum Acct {
    /// Derived: pending = slot charge − `base` (captured at registration
    /// or last drain). Valid only while [`ShardMember::cell_eligible`].
    Cell { base: u64 },
    /// An exact per-member counter, maintained by the append path.
    Exact { pending: u64 },
}

#[derive(Debug, Clone, Default)]
struct Watcher {
    /// The union of these selectors defines the subscription; a watcher
    /// matching an event through several selectors still receives it once.
    selectors: Vec<WatchSelector>,
    /// Shards this watcher is a member of; per-shard cursors and pending
    /// accounting live in the shard itself (see [`ShardMember`]).
    shards: BTreeSet<String>,
    /// The pending-shard set: member shards that may hold undelivered
    /// events, sorted by name, each listed once. Filled from the charges
    /// [`Store::drain_dirty_watchers`] drains; together with the shards
    /// still awaiting that drain it covers every shard where the watcher
    /// has pending events, so polls and pending sums visit only these.
    /// A poll empties it (keeping the allocation); an entry whose events
    /// went away otherwise (a narrowed selector) is skipped on the visit.
    pending: Vec<Arc<str>>,
}

/// Inserts `ns` into a sorted, deduplicated list of shard names (a handle
/// clone, no copy of the name).
fn queue_shard(list: &mut Vec<Arc<str>>, ns: &Arc<str>) {
    if let Err(pos) = list.binary_search_by(|n| (**n).cmp(ns)) {
        list.insert(pos, Arc::clone(ns));
    }
}

/// Whether a sorted shard-name list holds `ns`.
fn is_queued(list: &[Arc<str>], ns: &str) -> bool {
    list.binary_search_by(|n| (**n).cmp(ns)).is_ok()
}

/// One namespace's slice of the store: its objects, event log, revision
/// counter, selector indexes, and member cursors.
///
/// A `Shard` owns everything a mutation in its namespace touches, so a
/// mutation borrows only its own shard, in place.
#[derive(Debug, Default)]
struct Shard {
    /// The namespace this shard holds, shared with the pending-shard sets
    /// that list it.
    name: Arc<str>,
    /// The namespace's objects, keyed by full reference.
    objects: BTreeMap<ObjectRef, Object>,
    /// Tail of this namespace's event log still needed by some member. The
    /// first entry's revision is `committed - log.len() + 1`.
    log: VecDeque<WatchEvent>,
    /// Events ever committed in this shard (== the newest revision).
    committed: u64,
    /// Selector slots: which watchers to notify per event, without
    /// touching unrelated subscriptions, plus the charge cell their
    /// single-slot members derive pending counts from.
    all_watchers: Slot,
    kind_watchers: BTreeMap<String, Slot>,
    object_watchers: BTreeMap<ObjectRef, Slot>,
    /// Member watchers with their cursors and pending accounting.
    members: BTreeMap<WatchId, ShardMember>,
    /// Members in exact accounting mode ([`Acct::Exact`]): the append
    /// path resolves these few individually; everyone else rides the
    /// charge cells.
    exact_ids: BTreeSet<WatchId>,
    /// Secondary indexes: kind → (model path → value-keyed posting
    /// lists) over this shard's objects of that kind. Strictly *derived*
    /// state — built lazily by the first query or predicate watch that
    /// probes the pair (a scan of the kind slice), maintained
    /// incrementally by every append from then on, and simply absent
    /// after recovery until something asks again. Never persisted.
    /// Paths are interned behind `Arc` so the append path's key delta
    /// and the query planner's probes clone handles, not allocations.
    indexes: BTreeMap<String, BTreeMap<Arc<Path>, PathIndex>>,
    /// Predicate subscriptions per kind, refcounted like the selector
    /// indexes above. The append path evaluates these against the
    /// committed model (pre-filtered by the index delta it just
    /// computed), so only matching events charge pending counters.
    pred_watchers: BTreeMap<String, Vec<PredWatcher>>,
    /// Set while the namespace is being deleted: once the objects are gone
    /// and the log drains, the shard itself is dropped.
    retiring: bool,
    /// Keys of slots charged since the last dirty drain (each listed once,
    /// guarded by [`Slot::dirty`]). Filled by appends; drained by
    /// [`Store::drain_dirty_watchers`], which also clears the flags.
    dirty_slots: Vec<SlotKey>,
    /// Exact-mode members charged since the last dirty drain.
    dirty_exact: BTreeSet<WatchId>,
}

/// One value-keyed secondary index over a `(kind, path)` pair.
///
/// `by_name` is the inverse mapping; it lets an append replace an
/// object's old posting without knowing the previous model, and makes
/// "rebuild and compare" verification cheap.
#[derive(Debug, Clone, Default, PartialEq)]
struct PathIndex {
    by_key: BTreeMap<IndexKey, BTreeSet<String>>,
    by_name: BTreeMap<String, IndexKey>,
}

impl PathIndex {
    fn insert(&mut self, name: &str, key: IndexKey) {
        if let Some(old) = self.by_name.get(name) {
            if *old == key {
                return;
            }
            let old = old.clone();
            if let Some(set) = self.by_key.get_mut(&old) {
                set.remove(name);
                if set.is_empty() {
                    self.by_key.remove(&old);
                }
            }
        }
        self.by_key
            .entry(key.clone())
            .or_default()
            .insert(name.to_string());
        self.by_name.insert(name.to_string(), key);
    }

    fn remove(&mut self, name: &str) {
        if let Some(key) = self.by_name.remove(name) {
            if let Some(set) = self.by_key.get_mut(&key) {
                set.remove(name);
                if set.is_empty() {
                    self.by_key.remove(&key);
                }
            }
        }
    }
}

/// One predicate subscription's slot in a shard, refcounted per
/// `(watcher, predicate source)` registration.
#[derive(Debug, Clone)]
struct PredWatcher {
    id: WatchId,
    pred: QueryPred,
    refs: usize,
    /// First shard revision the registration covers (see
    /// [`MemberSlot::since`]).
    since: u64,
}

impl Shard {
    /// The plain slot key a non-predicate selector registers under.
    /// `Kind` and `KindInNamespace` share a key deliberately: within one
    /// shard they match the same events, so a member holding both stays
    /// in cell mode.
    fn slot_key(selector: &WatchSelector) -> Option<SlotKey> {
        match selector {
            WatchSelector::All => Some(SlotKey::All),
            WatchSelector::Kind(k) | WatchSelector::KindInNamespace { kind: k, .. } => {
                Some(SlotKey::Kind(k.clone()))
            }
            WatchSelector::Object(r) => Some(SlotKey::Object(r.clone())),
            WatchSelector::Predicate(_) => None,
        }
    }

    /// A plain slot by key.
    fn slot(&self, key: &SlotKey) -> Option<&Slot> {
        match key {
            SlotKey::All => Some(&self.all_watchers),
            SlotKey::Kind(k) => self.kind_watchers.get(k),
            SlotKey::Object(r) => self.object_watchers.get(r),
        }
    }

    /// A plain slot by key, mutably.
    fn slot_mut(&mut self, key: &SlotKey) -> Option<&mut Slot> {
        match key {
            SlotKey::All => Some(&mut self.all_watchers),
            SlotKey::Kind(k) => self.kind_watchers.get_mut(k),
            SlotKey::Object(r) => self.object_watchers.get_mut(r),
        }
    }

    /// The current charge of a plain slot (zero if the slot is absent).
    fn slot_charge(&self, key: &SlotKey) -> u64 {
        self.slot(key).map_or(0, |s| s.charge)
    }

    /// A member's undelivered events in this shard — read from its exact
    /// counter, or derived from its slot's charge cell.
    fn member_pending(&self, m: &ShardMember) -> u64 {
        match &m.acct {
            Acct::Exact { pending } => *pending,
            Acct::Cell { base } => self.slot_charge(&m.slots[0].key) - base,
        }
    }

    /// Undelivered events of watcher `id` here, or 0 if it is no member.
    fn pending_of(&self, id: WatchId) -> u64 {
        self.members.get(&id).map_or(0, |m| self.member_pending(m))
    }

    /// Index of the first resident log entry a member's scan must
    /// examine: its cursor, or the log head when compaction (which never
    /// reclaims past a member with pending events) already passed it.
    fn window_start(&self, cursor: u64) -> usize {
        let first_rev = self.committed - self.log.len() as u64 + 1;
        (cursor.max(first_rev) - first_rev) as usize
    }

    /// Marks everything up to the shard's current tail delivered: zero
    /// the exact counters or rebase the cell baseline, and advance the
    /// cursor past the committed revision.
    fn drain_member(&mut self, id: WatchId) {
        let committed = self.committed;
        let Some(m) = self.members.get(&id) else {
            return;
        };
        let acct = match &m.acct {
            Acct::Exact { .. } => Acct::Exact { pending: 0 },
            Acct::Cell { .. } => Acct::Cell {
                base: self.slot_charge(&m.slots[0].key),
            },
        };
        let m = self.members.get_mut(&id).expect("present above");
        m.acct = acct;
        m.cursor = committed + 1;
    }

    /// Registers a selector for `id`, covering events from the next
    /// commit on. A first registration creates the member at the shard
    /// tail. A caught-up member is fast-forwarded to the tail first: its
    /// cursor may trail events it did not match, which the widened
    /// subscription could otherwise reach. A member with events still
    /// pending keeps its cursor, and the new registration's `since`
    /// excludes what came before it.
    fn register(&mut self, id: WatchId, selector: &WatchSelector) {
        let since = self.committed + 1;
        // Freeze the member's derived pending before its slot set
        // changes: a cell→exact transition must not lose or double
        // events.
        let frozen = self.members.get(&id).map(|m| self.member_pending(m));
        if frozen == Some(0) {
            self.members.get_mut(&id).expect("member exists").cursor = since;
        }
        let key = Self::slot_key(selector);
        let base = match &key {
            Some(SlotKey::All) => {
                *self.all_watchers.subs.entry(id).or_default() += 1;
                self.all_watchers.charge
            }
            Some(SlotKey::Kind(k)) => {
                let slot = self.kind_watchers.entry(k.clone()).or_default();
                *slot.subs.entry(id).or_default() += 1;
                slot.charge
            }
            Some(SlotKey::Object(r)) => {
                let slot = self.object_watchers.entry(r.clone()).or_default();
                *slot.subs.entry(id).or_default() += 1;
                slot.charge
            }
            None => {
                let WatchSelector::Predicate(p) = selector else {
                    unreachable!("keyless selectors are predicates")
                };
                // Warm the indexes the predicate's plan probes, so the
                // append path can refuse non-matching commits from the
                // key delta alone.
                let mut paths = BTreeSet::new();
                p.pred.plan().paths(&mut paths);
                for path in paths {
                    self.ensure_index(&p.kind, &path);
                }
                let slots = self.pred_watchers.entry(p.kind.clone()).or_default();
                match slots.iter_mut().find(|w| w.id == id && w.pred == p.pred) {
                    Some(w) => w.refs += 1,
                    None => slots.push(PredWatcher {
                        id,
                        pred: p.pred.clone(),
                        refs: 1,
                        since,
                    }),
                }
                0
            }
        };
        match self.members.get_mut(&id) {
            None => {
                let acct = match key {
                    // New member, single plain slot: ride its cell.
                    Some(_) => Acct::Cell { base },
                    None => Acct::Exact { pending: 0 },
                };
                let slots = key
                    .map(|key| MemberSlot {
                        key,
                        refs: 1,
                        since,
                    })
                    .into_iter()
                    .collect::<Vec<_>>();
                let pred_refs = usize::from(slots.is_empty());
                if pred_refs > 0 || !matches!(acct, Acct::Cell { .. }) {
                    self.exact_ids.insert(id);
                }
                self.members.insert(
                    id,
                    ShardMember {
                        cursor: since,
                        slots,
                        pred_refs,
                        acct,
                    },
                );
            }
            Some(m) => {
                match key {
                    Some(key) => match m.slots.iter_mut().find(|s| s.key == key) {
                        Some(slot) => slot.refs += 1,
                        None => m.slots.push(MemberSlot {
                            key,
                            refs: 1,
                            since,
                        }),
                    },
                    None => m.pred_refs += 1,
                }
                if !m.cell_eligible() && matches!(m.acct, Acct::Cell { .. }) {
                    // The member now spans several slots (or gained a
                    // predicate): freeze the derived counts into exact
                    // mode. Exact members never convert back on register.
                    let pending = frozen.expect("member existed");
                    m.acct = Acct::Exact { pending };
                    self.exact_ids.insert(id);
                }
            }
        }
    }

    /// Releases one selector registration. Returns `true` when this was
    /// the member's last registration in the shard (the membership is
    /// gone); pending counts are derived, so nothing needs refunding.
    fn deregister(&mut self, id: WatchId, selector: &WatchSelector) -> bool {
        fn unref(slot: &mut Slot, id: WatchId) {
            if let Some(n) = slot.subs.get_mut(&id) {
                *n -= 1;
                if *n == 0 {
                    slot.subs.remove(&id);
                }
            }
        }
        fn prune<K: Ord>(index: &mut BTreeMap<K, Slot>, key: &K, id: WatchId) {
            if let Some(slot) = index.get_mut(key) {
                unref(slot, id);
                if slot.subs.is_empty() {
                    index.remove(key);
                }
            }
        }
        let key = Self::slot_key(selector);
        match (&key, selector) {
            (Some(SlotKey::All), _) => {
                unref(&mut self.all_watchers, id);
            }
            (Some(SlotKey::Kind(k)), _) => {
                prune(&mut self.kind_watchers, k, id);
            }
            (Some(SlotKey::Object(r)), _) => {
                prune(&mut self.object_watchers, r, id);
            }
            (None, WatchSelector::Predicate(p)) => {
                if let Some(slots) = self.pred_watchers.get_mut(&p.kind) {
                    if let Some(pos) = slots.iter().position(|w| w.id == id && w.pred == p.pred) {
                        slots[pos].refs -= 1;
                        if slots[pos].refs == 0 {
                            slots.remove(pos);
                        }
                    }
                    if slots.is_empty() {
                        self.pred_watchers.remove(&p.kind);
                    }
                }
                // The indexes the predicate warmed stay: they are derived
                // state, cheap to keep current and useful to the next
                // query.
            }
            _ => unreachable!("plain selectors have slot keys"),
        }
        let Some(m) = self.members.get_mut(&id) else {
            return false;
        };
        match key {
            Some(k) => {
                if let Some(pos) = m.slots.iter().position(|s| s.key == k) {
                    m.slots[pos].refs -= 1;
                    if m.slots[pos].refs == 0 {
                        m.slots.remove(pos);
                    }
                }
            }
            None => m.pred_refs = m.pred_refs.saturating_sub(1),
        }
        if m.slots.is_empty() && m.pred_refs == 0 {
            self.members.remove(&id);
            self.exact_ids.remove(&id);
            return true;
        }
        // A remaining exact member may now match fewer events than its
        // counters claim; callers re-settle via `recount_pending`. Cell
        // members cannot be affected: their one slot key is unchanged.
        false
    }

    /// Builds the `(kind, path)` index from the object map if it does not
    /// exist yet. One scan of the kind slice; every later append keeps it
    /// current incrementally.
    fn ensure_index(&mut self, kind: &str, path: &Path) {
        if self
            .indexes
            .get(kind)
            .is_some_and(|paths| paths.contains_key(path))
        {
            return;
        }
        let idx = Self::build_index(&self.objects, kind, path);
        self.indexes
            .entry(kind.to_string())
            .or_default()
            .insert(Arc::new(path.clone()), idx);
    }

    /// One full scan of a kind slice into a fresh index — the lazy-build
    /// path, and the oracle `indexes_consistent` compares against.
    fn build_index(objects: &BTreeMap<ObjectRef, Object>, kind: &str, path: &Path) -> PathIndex {
        let mut idx = PathIndex::default();
        for (oref, obj) in objects.iter() {
            if oref.kind == kind {
                idx.insert(&oref.name, IndexKey::of(obj.model.get(path)));
            }
        }
        idx
    }
}

/// Counters describing watch/notification traffic (bench + diagnostics).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WatchStats {
    /// Events ever committed across all shards. Each append materializes
    /// exactly one shared model snapshot, regardless of watcher count.
    pub events_appended: u64,
    /// Raw events consumed by watchers, via `poll` or `poll_coalesced`
    /// (each delivery shares the snapshot; no model deep-clone).
    pub events_delivered: u64,
    /// Log entries reclaimed by compaction, across all shards.
    pub events_compacted: u64,
    /// High-water mark of a *single shard's* in-memory log length. Bounded
    /// by the lag of that shard's slowest member, not by mutation count.
    pub peak_log_len: usize,
    /// Deliveries handed out by `poll_coalesced` (one per object with
    /// pending events at poll time).
    pub coalesced_deliveries: u64,
    /// Raw events absorbed into an earlier delivery of the same object by
    /// coalescing (`raw - deliveries`, summed over polls).
    pub events_coalesced: u64,
    /// Ops that edited a model whose root map something else still shared
    /// — a resident log entry, a delivered event, or the server holding
    /// the pre-write model across its pipeline — each counted once, as is
    /// a delete that stamps such a model. The edit wrote a copy: one map
    /// per level of the written path, not the whole document; every other
    /// subtree stays shared with the old snapshot. An edit of a model
    /// nothing else holds mutates it in place and counts nothing. A put
    /// ([`WriteOp::Put`]) replaces the model, copies nothing and never
    /// counts.
    pub deep_clones: u64,
}

/// The persistent store: objects plus the per-namespace event logs.
///
/// This is the etcd analogue. Each shard's log is its linearization point:
/// every mutation appends exactly one event to its namespace's log, and
/// watchers replay that log from their per-shard cursor — which yields the
/// ordered, gap-free delivery guarantee that §3.5 of the paper requires
/// for intent reconciliation, per shard and per filtered stream.
///
/// Logs are compacted independently: entries below every member's hold
/// point are dropped, so memory is bounded by watcher lag within the
/// shard, and a laggard in one namespace never pins another namespace's
/// log.
#[derive(Debug, Default)]
pub struct Store {
    /// Namespace shards; each owns its slice of the object space.
    shards: BTreeMap<String, Shard>,
    /// Total events ever committed across all shards: the only global
    /// counter a mutation touches.
    committed_total: u64,
    watchers: BTreeMap<WatchId, Watcher>,
    next_watch_id: u64,
    /// Watchers holding at least one namespace-spanning selector: they
    /// join every shard, including shards created after they subscribed.
    global_watchers: BTreeSet<WatchId>,
    stats: WatchStats,
    /// The write-ahead log, when this store is durable ([`Store::open`]).
    /// `None` keeps the store purely in-memory with zero overhead.
    wal: Option<Wal>,
    /// Commit records logged since the last checkpoint; rolling past the
    /// configured interval triggers the next one.
    commits_since_ckpt: u64,
    /// Shards that appended events since the last
    /// [`Store::drain_dirty_watchers`] pass. The runtime's pump derives
    /// its pending-watcher shortlist from this instead of re-deriving
    /// every watcher's pending totals after every simulation event.
    dirty_shards: BTreeSet<String>,
}

impl Store {
    /// Creates an empty store.
    pub fn new() -> Self {
        Store::default()
    }

    /// Opens a durable store rooted at `opts.dir`: loads the newest
    /// checkpoint, replays the log's tail onto it (stopping cleanly at a
    /// torn final record), and keeps journaling there. An empty or
    /// missing directory yields an empty, journaled store.
    ///
    /// Recovery is bit-identical to the committed state at the moment of
    /// the crash, with one deliberate exception: watch subscriptions die
    /// with the process, so recovered shards come up with empty event
    /// logs (compaction floor == committed revision) and a retiring
    /// shard that only a now-dead watcher was holding open is dropped —
    /// exactly the state the live store would reach once its watchers
    /// disconnected.
    pub fn open(opts: DurabilityOptions) -> Result<Store, WalError> {
        let (wal, recovered) = Wal::open(&opts)?;
        let mut store = Store::new();
        store.install_checkpoint(recovered.checkpoint);
        for (ns, record) in recovered.records {
            store.replay_record(&ns, record)?;
        }
        // Nothing can be holding a drained, retiring shard (watchers do
        // not survive a restart): drop them like the live store would,
        // journaling each drop, so that a namespace created again later
        // replays onto a fresh shard.
        store.wal = Some(wal);
        let namespaces: Vec<String> = store.shards.keys().cloned().collect();
        for ns in namespaces {
            store.maybe_drop_shard(&ns);
        }
        Ok(store)
    }

    /// Installs the checkpointed shards; replay continues from here.
    fn install_checkpoint(&mut self, ckpt: Checkpoint) {
        self.committed_total = ckpt.committed_total;
        for cs in ckpt.shards {
            let mut objects = BTreeMap::new();
            for co in cs.objects {
                let oref = ObjectRef::new(co.kind, co.namespace, co.name);
                objects.insert(
                    oref.clone(),
                    Object {
                        oref,
                        model: co.model,
                        resource_version: co.resource_version,
                    },
                );
            }
            let shard = Shard {
                name: Arc::from(cs.namespace.as_str()),
                objects,
                committed: cs.committed,
                retiring: cs.retiring,
                ..Shard::default()
            };
            self.shards.insert(cs.namespace, shard);
        }
    }

    /// Replays one WAL record through the same shard-local mutators the
    /// live path commits through, applying each journaled [`WriteOp`] with
    /// the one [`WriteOp::apply`], so revisions, `meta.gen` stamps, and
    /// event accounting come out identical.
    fn replay_record(&mut self, ns: &str, record: WalRecord) -> Result<(), WalError> {
        match record {
            WalRecord::Retire { .. } => {
                if let Some(shard) = self.shards.get_mut(ns) {
                    shard.retiring = true;
                }
            }
            WalRecord::Drop { .. } => {
                self.shards.remove(ns);
            }
            WalRecord::Commit {
                seq,
                base,
                ensure,
                appended,
                op,
            } => {
                if ensure {
                    self.ensure_shard(ns);
                }
                let Some(shard) = self.shards.get_mut(ns) else {
                    return Err(WalError::corrupt(format!(
                        "commit record for unknown shard '{ns}' (seq {seq})"
                    )));
                };
                if shard.committed != base {
                    return Err(WalError::corrupt(format!(
                        "replay diverged in '{ns}' (seq {seq}): record base {base}, shard at {}",
                        shard.committed
                    )));
                }
                if let Some(op) = op {
                    replay_op(shard, op, &mut self.stats).map_err(|e| {
                        WalError::corrupt(format!("replay failed in '{ns}' (seq {seq}): {e}"))
                    })?;
                }
                let replayed = shard.committed - base;
                if replayed != appended {
                    return Err(WalError::corrupt(format!(
                        "replay diverged in '{ns}' (seq {seq}): record appended {appended}, \
                         replay appended {replayed}"
                    )));
                }
                // No watcher survives a restart, so no shard is marked
                // dirty: nothing can be pending.
                self.committed_total += appended;
            }
        }
        Ok(())
    }

    /// Journals one mutation verb: its shard's base revision, whether the
    /// verb (re)ensured the shard (clearing a pending retirement), the
    /// events it appended, and its op if the op succeeded. Verbs that
    /// neither appended nor ensured leave no record.
    fn wal_commit(&mut self, ns: &str, base: u64, ensure: bool, appended: u64, op: Option<&str>) {
        let Some(w) = self.wal.as_mut() else {
            return;
        };
        if !ensure && appended == 0 {
            return;
        }
        w.commit(ns, base, ensure, appended, op);
        self.commits_since_ckpt += 1;
    }

    /// Ends a journaled mutation verb: flush per the sync policy, and
    /// roll a checkpoint once enough commits accumulated.
    fn wal_seal(&mut self) {
        let Some(w) = self.wal.as_mut() else {
            return;
        };
        w.flush();
        if self.commits_since_ckpt >= w.checkpoint_every() {
            self.checkpoint();
        }
    }

    /// Writes a durable checkpoint of the whole store (objects, per-shard
    /// revisions, the global commit counter) and truncates the log it
    /// supersedes. A no-op for in-memory stores.
    pub fn checkpoint(&mut self) {
        let Some(w) = self.wal.as_mut() else {
            return;
        };
        w.write_checkpoint(self.committed_total, &checkpoint_shards_json(&self.shards));
        self.commits_since_ckpt = 0;
    }

    /// Returns the current global revision (total committed events across
    /// all shards).
    pub fn revision(&self) -> u64 {
        self.committed_total
    }

    /// Returns the stored object, if present.
    pub fn get(&self, oref: &ObjectRef) -> Option<&Object> {
        self.shards.get(&oref.namespace)?.objects.get(oref)
    }

    /// Runs a [`Query`] by brute force: no index, the filter evaluated on
    /// every object of the named namespace (or of all of them). This is
    /// the semantics [`Store::query`]'s indexed path must reproduce, and
    /// tests and benches compare the two. Results are sorted by object
    /// reference.
    pub fn scan(&self, q: &Query) -> Vec<&Object> {
        let mut out: Vec<&Object> = match &q.namespace {
            Some(ns) => self.shards.get(ns).map_or_else(Vec::new, |s| {
                s.objects
                    .values()
                    .filter(|o| q.matches(&o.oref, &o.model))
                    .collect()
            }),
            None => self
                .shards
                .values()
                .flat_map(|s| s.objects.values())
                .filter(|o| q.matches(&o.oref, &o.model))
                .collect(),
        };
        out.sort_by(|a, b| a.oref.cmp(&b.oref));
        out
    }

    /// Runs a [`Query`]: the one read verb behind which `list`/`list_in`/
    /// `list_all` collapsed. Plannable filter predicates probe secondary
    /// indexes (built lazily on first use, maintained at commit) and the
    /// full predicate is re-evaluated on every candidate, so the result is
    /// always identical to [`Store::scan`]'s — only faster.
    ///
    /// Results are sorted by object reference (kind, namespace, name).
    pub fn query(&mut self, q: &Query) -> Vec<Object> {
        let namespaces: Vec<String> = match &q.namespace {
            Some(ns) if self.shards.contains_key(ns) => vec![ns.clone()],
            Some(_) => Vec::new(),
            None => self.shards.keys().cloned().collect(),
        };
        let mut out = Vec::new();
        for ns in namespaces {
            let shard = self.shards.get_mut(&ns).expect("listed above");
            query_shard(shard, &ns, q, &mut out);
        }
        out.sort_by(|a, b| a.oref.cmp(&b.oref));
        out
    }

    /// Test support: rebuilds every live secondary index from the object
    /// maps and compares against the incrementally maintained state.
    #[doc(hidden)]
    pub fn indexes_consistent(&self) -> Result<(), String> {
        for (ns, shard) in &self.shards {
            for (kind, paths) in &shard.indexes {
                for (path, idx) in paths {
                    let fresh = Shard::build_index(&shard.objects, kind, path);
                    if *idx != fresh {
                        return Err(format!(
                            "index ({kind}, {path}) in shard {ns} diverged from rebuild: \
                             incremental {idx:?} vs fresh {fresh:?}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Test support: the `(name, key)` postings of one index, building it
    /// if needed — recovery tests compare these dumps bit-for-bit.
    #[doc(hidden)]
    pub fn index_dump(
        &mut self,
        namespace: &str,
        kind: &str,
        path: &Path,
    ) -> Vec<(String, String)> {
        let Some(shard) = self.shards.get_mut(namespace) else {
            return Vec::new();
        };
        shard.ensure_index(kind, path);
        shard.indexes[kind][path]
            .by_name
            .iter()
            .map(|(name, key)| (name.clone(), key.to_string()))
            .collect()
    }

    /// The one commit step of every mutation verb. Runs `op` on the
    /// object's shard, created (or un-retired) first with `ensure`;
    /// without it a missing shard is a missing object. The events `op`
    /// appended are the shard's revision delta: they advance the global
    /// revision and mark the shard dirty, so
    /// [`Store::drain_dirty_watchers`] surfaces the charged watchers. The
    /// verb is then journaled (see [`Store::wal_commit`]), with the record
    /// `render` makes of the committed shard if `op` succeeded.
    fn commit<R>(
        &mut self,
        oref: &ObjectRef,
        ensure: bool,
        op: impl FnOnce(&mut Shard, &mut WatchStats) -> Result<R, ApiError>,
        render: impl FnOnce(&Shard) -> String,
    ) -> Result<R, ApiError> {
        let ns = oref.namespace.as_str();
        if ensure {
            self.ensure_shard(ns);
        }
        let shard = self
            .shards
            .get_mut(ns)
            .ok_or_else(|| ApiError::NotFound(oref.clone()))?;
        let base = shard.committed;
        let result = op(shard, &mut self.stats);
        let appended = shard.committed - base;
        let record = (result.is_ok() && self.wal.is_some()).then(|| render(shard));
        if appended > 0 && !self.dirty_shards.contains(ns) {
            self.dirty_shards.insert(ns.to_string());
        }
        self.committed_total += appended;
        self.wal_commit(ns, base, ensure, appended, record.as_deref());
        self.wal_seal();
        result
    }

    /// Inserts a new object, assigning resource version 1.
    pub fn create(&mut self, oref: ObjectRef, model: Value) -> Result<&Object, ApiError> {
        // `ensure` is always set: `create` resurrects a retiring namespace
        // even when the op itself fails, and replay must mirror that.
        self.commit(
            &oref,
            true,
            |shard, stats| shard_create(shard, oref.clone(), model, stats),
            |shard| wal_op_create(&oref, &shard.objects[&oref].model),
        )?;
        Ok(self.get(&oref).expect("just inserted"))
    }

    /// Commits one [`WriteOp`] to an existing object, applying it to the
    /// stored model: in place when nothing else shares the model's root
    /// map, on a copy otherwise (see [`WatchStats::deep_clones`]). The
    /// op's own record is journaled — for a set, a few dozen bytes instead
    /// of the whole model.
    ///
    /// `expected_rv` implements optimistic concurrency: when `Some`, the
    /// write only commits if it matches the stored version; on mismatch the
    /// caller gets [`ApiError::Conflict`] and must re-read and retry.
    pub fn write(
        &mut self,
        oref: &ObjectRef,
        op: &WriteOp,
        expected_rv: Option<u64>,
    ) -> Result<u64, ApiError> {
        self.commit(
            oref,
            false,
            |shard, stats| shard_write(shard, oref, op, None, expected_rv, stats),
            |shard| op.record(oref, &shard.objects[oref].model),
        )
    }

    /// [`Store::write`] for a model the caller already built by applying
    /// `op` to the stored model at its next version (the server's write
    /// pipeline, which validates and admits that model first): the store
    /// installs it as is and journals `op`, without applying it again.
    pub(crate) fn write_built(
        &mut self,
        oref: &ObjectRef,
        op: &WriteOp,
        model: Value,
        expected_rv: Option<u64>,
    ) -> Result<u64, ApiError> {
        self.commit(
            oref,
            false,
            |shard, stats| shard_write(shard, oref, op, Some(model), expected_rv, stats),
            |shard| op.record(oref, &shard.objects[oref].model),
        )
    }

    /// Removes an object, returning its final state.
    ///
    /// The deletion is itself a model change: the returned object and the
    /// `Deleted` event carry a *bumped* resource version, so watchers can
    /// order the delete against the modifications that preceded it.
    pub fn delete(&mut self, oref: &ObjectRef) -> Result<Object, ApiError> {
        self.commit(
            oref,
            false,
            |shard, stats| shard_delete(shard, oref, stats),
            |_| wal_op_delete(oref),
        )
    }

    /// Drains the set of watchers that *may* have gone pending since the
    /// last call: every watcher subscribed to a slot an append charged,
    /// plus every exact-mode member charged directly. Conservative — a
    /// returned watcher may have drained in the meantime (the caller
    /// re-checks [`Store::has_pending`]) — but complete: a watcher with
    /// undelivered events is always either returned here or already known
    /// to the caller. Quiescent watchers cost nothing.
    ///
    /// The same pass files each charged shard into the pending-shard set
    /// of every watcher that still has events pending there.
    pub fn drain_dirty_watchers(&mut self) -> Vec<WatchId> {
        if self.dirty_shards.is_empty() {
            return Vec::new();
        }
        let Store {
            shards,
            watchers,
            dirty_shards,
            ..
        } = self;
        let mut out: BTreeSet<WatchId> = BTreeSet::new();
        for ns in std::mem::take(dirty_shards) {
            let Some(shard) = shards.get_mut(&ns) else {
                continue;
            };
            let keys = std::mem::take(&mut shard.dirty_slots);
            let exact = std::mem::take(&mut shard.dirty_exact);
            for key in &keys {
                if let Some(slot) = shard.slot_mut(key) {
                    slot.dirty = false;
                }
            }
            let mut charged = |id: WatchId| {
                out.insert(id);
                if shard.pending_of(id) > 0 {
                    if let Some(w) = watchers.get_mut(&id) {
                        queue_shard(&mut w.pending, &shard.name);
                    }
                }
            };
            // A slot dropped since it was charged simply contributes
            // nothing — its watchers deregistered and owe no wake.
            for key in &keys {
                for &id in shard.slot(key).into_iter().flat_map(|s| s.subs.keys()) {
                    charged(id);
                }
            }
            exact.into_iter().for_each(charged);
        }
        out.into_iter().collect()
    }

    /// Opens a watch over the union of `queries` — the one subscription
    /// verb behind which `watch`/`watch_selector(s)` collapsed. Each
    /// cursor starts at its shard's current tail: only *future* events
    /// are delivered. An empty query list is a valid (never-firing)
    /// subscription that can be widened later with
    /// [`Store::extend_watch`]. Filtered queries become predicate
    /// subscriptions, matched at commit time — non-matching events never
    /// go pending.
    pub fn watch_queries(&mut self, queries: &[Query]) -> Result<WatchId, QueryError> {
        let selectors = queries
            .iter()
            .map(Query::to_selector)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(self.open_watch(selectors))
    }

    /// Opens a watch over one query.
    pub fn watch_query(&mut self, q: &Query) -> Result<WatchId, QueryError> {
        self.watch_queries(std::slice::from_ref(q))
    }

    /// Widens an existing subscription with another query. Only future
    /// events of the newly covered scope are delivered. Returns
    /// `Ok(false)` when the watch id is unknown (e.g. already cancelled).
    pub fn extend_watch(&mut self, id: WatchId, q: &Query) -> Result<bool, QueryError> {
        Ok(self.attach_selector(id, q.to_selector()?))
    }

    /// Removes one occurrence of a query's selector from a subscription,
    /// re-settling pending counters so events only the removed selector
    /// matched stop being owed. Returns `Ok(false)` when the watch id is
    /// unknown or the selector was not part of the subscription.
    pub fn narrow_watch(&mut self, id: WatchId, q: &Query) -> Result<bool, QueryError> {
        Ok(self.detach_selector(id, &q.to_selector()?))
    }

    pub(crate) fn open_watch(&mut self, selectors: Vec<WatchSelector>) -> WatchId {
        let id = WatchId(self.next_watch_id);
        self.next_watch_id += 1;
        self.watchers.insert(id, Watcher::default());
        for selector in selectors {
            let known = self.attach_selector(id, selector);
            debug_assert!(known, "freshly inserted watcher");
        }
        id
    }

    pub(crate) fn attach_selector(&mut self, id: WatchId, selector: WatchSelector) -> bool {
        if !self.watchers.contains_key(&id) {
            return false;
        }
        if selector.is_global() {
            self.global_watchers.insert(id);
            let w = self.watchers.get_mut(&id).expect("checked above");
            for (ns, shard) in self.shards.iter_mut() {
                shard.register(id, &selector);
                w.shards.insert(ns.clone());
            }
            w.selectors.push(selector);
        } else {
            let ns = selector
                .home_namespace()
                .expect("non-global selector has a home namespace")
                .to_string();
            self.ensure_shard(&ns);
            let shard = self.shards.get_mut(&ns).expect("just ensured");
            shard.register(id, &selector);
            let w = self.watchers.get_mut(&id).expect("checked above");
            w.shards.insert(ns);
            w.selectors.push(selector);
        }
        true
    }

    /// Removes one occurrence of `selector` from a subscription. Shards
    /// the watcher only reached through it are released (their pending
    /// counts refunded); shards it still holds through other selectors
    /// re-settle their pending counters against the remaining set, so an
    /// event only the removed selector matched stops being owed.
    pub(crate) fn detach_selector(&mut self, id: WatchId, selector: &WatchSelector) -> bool {
        let Store {
            shards,
            watchers,
            global_watchers,
            ..
        } = self;
        let Some(w) = watchers.get_mut(&id) else {
            return false;
        };
        let Some(pos) = w.selectors.iter().position(|s| s == selector) else {
            return false;
        };
        let selector = w.selectors.remove(pos);
        if selector.is_global() && !w.selectors.iter().any(|s| s.is_global()) {
            global_watchers.remove(&id);
        }
        let affected: Vec<String> = if selector.is_global() {
            w.shards.iter().cloned().collect()
        } else {
            let ns = selector
                .home_namespace()
                .expect("non-global selector has a home namespace");
            if w.shards.contains(ns) {
                vec![ns.to_string()]
            } else {
                Vec::new()
            }
        };
        for ns in &affected {
            let shard = shards.get_mut(ns).expect("membership implies shard");
            if shard.deregister(id, &selector) {
                // Last registration in this shard: the membership (and
                // with it the derived pending counts) is simply gone.
                w.shards.remove(ns);
            } else {
                resettle_exact(shard, id);
            }
        }
        // Entries held only for the removed selector may now be droppable.
        for ns in &affected {
            self.compact_shard(ns);
        }
        true
    }

    /// Drains pending events for a watcher: within each shard in revision
    /// order (the per-shard §3.5 guarantee); shards are visited in
    /// namespace order, with no ordering defined across namespaces.
    ///
    /// Only shards in the watcher's pending-shard set (plus shards whose
    /// charges await [`Store::drain_dirty_watchers`]) are visited, and
    /// each is scanned against what the watcher holds there — the cost
    /// follows the shards with undelivered events, not how many
    /// namespaces the subscription spans. Caught-up members are left
    /// untouched.
    ///
    /// Unknown watch ids return an empty vector (the subscription may have
    /// been cancelled).
    pub fn poll(&mut self, id: WatchId) -> Vec<WatchEvent> {
        let mut out = Vec::new();
        self.drain_watcher(id, |shard, filter, start| {
            let before = out.len();
            out.extend(scan_window(shard, start, filter).cloned());
            (out.len() - before) as u64
        });
        self.stats.events_delivered += out.len() as u64;
        out
    }

    /// Drains pending events like [`Store::poll`], collapsing rapid
    /// mutations of the same object into one delivery carrying the newest
    /// snapshot plus the count of raw events absorbed.
    ///
    /// Deliveries keep the first-occurrence order of the raw stream; a
    /// burst of N writes to one object yields exactly one delivery with
    /// `coalesced == N`. A delete inside the burst is absorbed like any
    /// other event — the final delivery carries the newest state (the
    /// `Deleted` event itself, if the object ended deleted).
    pub fn poll_coalesced(&mut self, id: WatchId) -> Vec<CoalescedEvent> {
        let mut out: Vec<CoalescedEvent> = Vec::new();
        let mut raw_total = 0u64;
        // Objects live in exactly one namespace, so per-shard coalescing
        // equals global coalescing.
        self.drain_watcher(id, |shard, filter, start| {
            let raw = coalesce(shard, start, filter, &mut out);
            raw_total += raw;
            raw
        });
        self.stats.events_delivered += raw_total;
        self.stats.coalesced_deliveries += out.len() as u64;
        self.stats.events_coalesced += raw_total - out.len() as u64;
        out
    }

    /// The drain both polls share. Visits, in namespace order, the shards
    /// where `id` may have pending events: its pending-shard set plus the
    /// dirty shards not yet drained into it. For each member with events
    /// pending, `deliver` reads its window (shard, filter, first index)
    /// and returns how many raw events it took — which must equal the
    /// pending count — and the member is then drained and the shard
    /// compacted. The set is left empty, keeping its allocation.
    fn drain_watcher(
        &mut self,
        id: WatchId,
        mut deliver: impl FnMut(&Shard, &MemberFilter<'_>, usize) -> u64,
    ) {
        let Some(w) = self.watchers.get_mut(&id) else {
            return;
        };
        let mut visits = std::mem::take(&mut w.pending);
        for ns in &self.dirty_shards {
            if let Some(shard) = self.shards.get(ns) {
                if shard.pending_of(id) > 0 {
                    queue_shard(&mut visits, &shard.name);
                }
            }
        }
        for ns in &visits {
            let Some(shard) = self.shards.get_mut(&**ns) else {
                continue;
            };
            let pending = shard.pending_of(id);
            if pending == 0 {
                continue; // caught up: no cursor write
            }
            let m = &shard.members[&id];
            let taken = deliver(
                shard,
                &MemberFilter::new(shard, id, m),
                shard.window_start(m.cursor),
            );
            debug_assert_eq!(taken, pending, "pending counter out of sync in shard {ns}");
            shard.drain_member(id);
            self.compact_shard(ns);
        }
        visits.clear();
        let w = self.watchers.get_mut(&id).expect("a poll cancels no watch");
        debug_assert!(w.pending.is_empty(), "nothing queues during a poll");
        w.pending = visits;
    }

    /// Returns `true` if the subscription exists (opened and not yet
    /// cancelled).
    pub fn watch_exists(&self, id: WatchId) -> bool {
        self.watchers.contains_key(&id)
    }

    /// Returns `true` if the watcher has undelivered events.
    pub fn has_pending(&self, id: WatchId) -> bool {
        self.pending_events(id) > 0
    }

    /// The number of undelivered events for the watcher. O(shards with
    /// pending events), no log scan: each visited shard answers from its
    /// charge cells or exact counters.
    pub fn pending_events(&self, id: WatchId) -> u64 {
        let Some(w) = self.watchers.get(&id) else {
            return 0;
        };
        // The pending-shard set, then the dirty shards not yet drained
        // into it: each shard at most once.
        let undrained = self
            .dirty_shards
            .iter()
            .map(String::as_str)
            .filter(|ns| !is_queued(&w.pending, ns));
        w.pending
            .iter()
            .map(|ns| &**ns)
            .chain(undrained)
            .filter_map(|ns| self.shards.get(ns))
            .map(|shard| shard.pending_of(id))
            .sum()
    }

    /// Cancels a watch subscription, releasing its compaction holds in
    /// every shard it was registered in.
    pub fn cancel_watch(&mut self, id: WatchId) {
        let Some(w) = self.watchers.remove(&id) else {
            return;
        };
        self.global_watchers.remove(&id);
        for ns in &w.shards {
            let shard = self.shards.get_mut(ns).expect("membership implies shard");
            for selector in &w.selectors {
                if selector.is_global() || selector.home_namespace() == Some(ns.as_str()) {
                    shard.deregister(id, selector);
                }
            }
            debug_assert!(
                !shard.members.contains_key(&id),
                "all registrations released"
            );
        }
        for ns in &w.shards {
            self.compact_shard(ns);
        }
    }

    /// Total in-memory log length, summed over shards (each bounded by its
    /// own members' lag).
    pub fn log_len(&self) -> usize {
        self.shards.values().map(|s| s.log.len()).sum()
    }

    /// In-memory log length of one namespace's shard.
    pub fn shard_log_len(&self, namespace: &str) -> usize {
        self.shards.get(namespace).map(|s| s.log.len()).unwrap_or(0)
    }

    /// Number of live namespace shards (a deleted namespace's shard is
    /// dropped once its log drains).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Names of all live shards, in order.
    pub fn shard_names(&self) -> Vec<String> {
        self.shards.keys().cloned().collect()
    }

    /// Committed revision of a single shard (0 if the shard does not exist).
    pub fn shard_revision(&self, namespace: &str) -> u64 {
        self.shards.get(namespace).map(|s| s.committed).unwrap_or(0)
    }

    /// Watch/notification traffic counters.
    pub fn watch_stats(&self) -> WatchStats {
        self.stats
    }

    /// Creates the shard for `ns` if absent, joining every live
    /// namespace-spanning watcher so `All`/`Kind` subscriptions cover
    /// namespaces born after them.
    fn ensure_shard(&mut self, ns: &str) {
        if let Some(shard) = self.shards.get_mut(ns) {
            // New activity while a deletion was draining: the namespace is
            // live again.
            shard.retiring = false;
            return;
        }
        let mut shard = Shard {
            name: Arc::from(ns),
            ..Shard::default()
        };
        for &id in &self.global_watchers {
            let w = self.watchers.get_mut(&id).expect("global watcher is live");
            for selector in &w.selectors {
                if selector.is_global() {
                    // A fresh shard starts at revision 0: cursor 1
                    // delivers everything ever committed here.
                    shard.register(id, selector);
                }
            }
            w.shards.insert(ns.to_string());
        }
        self.shards.insert(ns.to_string(), shard);
    }

    /// Removes a fully drained, retiring shard: the namespace is gone, its
    /// terminal events are delivered, so remaining registrations (global
    /// watchers) release their membership. They re-join at cursor 1 if the
    /// namespace is ever recreated ([`Store::ensure_shard`]).
    fn maybe_drop_shard(&mut self, ns: &str) {
        let done = self
            .shards
            .get(ns)
            .is_some_and(|s| s.retiring && s.objects.is_empty() && s.log.is_empty());
        if !done {
            return;
        }
        let shard = self.shards.remove(ns).expect("checked above");
        // The drop resets the namespace's revision counter: replay must
        // see it, or a recreated namespace's commit records would replay
        // against the dead incarnation's revisions.
        if let Some(w) = self.wal.as_mut() {
            w.drop_shard(ns);
        }
        for (id, member) in &shard.members {
            debug_assert_eq!(
                shard.member_pending(member),
                0,
                "empty log implies nothing pending"
            );
            if let Some(w) = self.watchers.get_mut(id) {
                w.shards.remove(ns);
            }
        }
    }

    /// Test support: exhaustively audits the pending bookkeeping against
    /// ground truth — every member's derived pending count equals a
    /// from-scratch recount of the log window, matched against the
    /// watcher's selector list. Every member with pending events must
    /// also be reachable by the next poll: listed in its watcher's
    /// pending-shard set, or charged in a dirty shard that
    /// [`Store::drain_dirty_watchers`] has yet to drain.
    #[doc(hidden)]
    pub fn audit_sizes(&self) -> Result<(), String> {
        for (id, w) in &self.watchers {
            if !w.pending.windows(2).all(|p| p[0] < p[1]) {
                return Err(format!(
                    "pending-shard set of {id:?} is not sorted and unique"
                ));
            }
        }
        for (ns, shard) in &self.shards {
            for (id, member) in &shard.members {
                let pending = shard.member_pending(member);
                let Some(w) = self.watchers.get(id) else {
                    return Err(format!("member {id:?} in {ns} has no watcher"));
                };
                // The watcher's selectors registered here, each from the
                // revision its registration covers.
                let mut registered = Vec::new();
                for sel in &w.selectors {
                    if !sel.is_global() && sel.home_namespace() != Some(ns.as_str()) {
                        continue;
                    }
                    let since = match (Shard::slot_key(sel), sel) {
                        (Some(key), _) => {
                            member.slots.iter().find(|s| s.key == key).map(|s| s.since)
                        }
                        (None, WatchSelector::Predicate(p)) => shard
                            .pred_watchers
                            .get(&p.kind)
                            .and_then(|ws| ws.iter().find(|pw| pw.id == *id && pw.pred == p.pred))
                            .map(|pw| pw.since),
                        (None, _) => unreachable!("plain selectors have slot keys"),
                    };
                    let Some(since) = since else {
                        return Err(format!("{sel:?} of {id:?} is not registered in {ns}"));
                    };
                    registered.push((sel, since));
                }
                let start = shard.window_start(member.cursor);
                let oracle = SelectorOracle(registered);
                let truth = scan_window(shard, start, &oracle).count() as u64;
                if pending != truth {
                    return Err(format!(
                        "member {id:?} in {ns}: derived {pending} pending, true {truth}"
                    ));
                }
                let reachable = is_queued(&w.pending, ns)
                    || self.dirty_shards.contains(ns)
                        && (shard.dirty_exact.contains(id)
                            || shard
                                .dirty_slots
                                .iter()
                                .any(|k| shard.slot(k).is_some_and(|s| s.subs.contains_key(id))));
                if pending > 0 && !reachable {
                    return Err(format!(
                        "member {id:?} in {ns} has {pending} pending events \
                         outside its pending-shard set"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Appends one committed event to a shard: bump its revision, push the
/// log entry, and charge interested members.
fn shard_append(
    shard: &mut Shard,
    kind: WatchEventKind,
    oref: ObjectRef,
    model: Value,
    rv: u64,
    stats: &mut WatchStats,
) {
    shard.committed += 1;
    stats.events_appended += 1;
    let revision = shard.committed;
    // Maintain the secondary indexes covering this kind, remembering the
    // new keys. Replay performs these identical updates, and the predicate
    // matching below rides the delta instead of re-deriving it.
    let mut new_keys: Vec<(Arc<Path>, IndexKey)> = Vec::new();
    if let Some(paths) = shard.indexes.get_mut(&oref.kind) {
        for (path, idx) in paths.iter_mut() {
            if kind == WatchEventKind::Deleted {
                idx.remove(&oref.name);
            } else {
                let key = IndexKey::of(model.get(path));
                idx.insert(&oref.name, key.clone());
                new_keys.push((Arc::clone(path), key));
            }
        }
    }
    // Resolve interest. Cell-mode members are never enumerated: each
    // matching *slot* is charged once, and every member riding it derives
    // its pending counts from the cell — per-write cost is flat in
    // watcher count. Only the few exact-mode members (multi-slot or
    // predicate subscriptions) are resolved individually, deduped so each
    // is charged exactly once per delivered event.
    let mut exact_hit: BTreeSet<WatchId> = BTreeSet::new();
    if !shard.exact_ids.is_empty() {
        let kind_slot = shard.kind_watchers.get(&oref.kind);
        let obj_slot = shard.object_watchers.get(&oref);
        for &eid in &shard.exact_ids {
            if shard.all_watchers.subs.contains_key(&eid)
                || kind_slot.is_some_and(|s| s.subs.contains_key(&eid))
                || obj_slot.is_some_and(|s| s.subs.contains_key(&eid))
            {
                exact_hit.insert(eid);
            }
        }
    }
    // Predicate subscriptions judge the committed model itself: an index
    // key the plan refuses proves a non-match without evaluating, and
    // only events that truly match go pending anywhere. (Deletes carry no
    // key delta and are judged on their final model.)
    if let Some(slots) = shard.pred_watchers.get(&oref.kind) {
        for w in slots {
            if !exact_hit.contains(&w.id) && w.pred.matches_indexed(&model, &new_keys) {
                exact_hit.insert(w.id);
            }
        }
    }
    let members_empty = shard.members.is_empty();
    if !members_empty {
        if !shard.all_watchers.subs.is_empty() {
            shard.all_watchers.charge += 1;
            if !shard.all_watchers.dirty {
                shard.all_watchers.dirty = true;
                shard.dirty_slots.push(SlotKey::All);
            }
        }
        if let Some(slot) = shard.kind_watchers.get_mut(&oref.kind) {
            slot.charge += 1;
            if !slot.dirty {
                slot.dirty = true;
                shard.dirty_slots.push(SlotKey::Kind(oref.kind.clone()));
            }
        }
        if let Some(slot) = shard.object_watchers.get_mut(&oref) {
            slot.charge += 1;
            if !slot.dirty {
                slot.dirty = true;
                shard.dirty_slots.push(SlotKey::Object(oref.clone()));
            }
        }
        for id in &exact_hit {
            let m = shard.members.get_mut(id).expect("hit watcher is a member");
            if let Acct::Exact { pending } = &mut m.acct {
                *pending += 1;
                shard.dirty_exact.insert(*id);
            }
        }
    }
    shard.log.push_back(WatchEvent {
        revision,
        kind,
        oref,
        model,
        resource_version: rv,
    });
    stats.peak_log_len = stats.peak_log_len.max(shard.log.len());
    if members_empty {
        // No watcher holds this shard: reclaim the tail eagerly.
        stats.events_compacted += shard.log.len() as u64;
        shard.log.clear();
    }
}

/// Appends the coalesced form of one member's window: one delivery per
/// object, at its first accepted occurrence, carrying its newest accepted
/// entry and the count of accepted entries it absorbed. Returns the raw
/// events absorbed.
fn coalesce(
    shard: &Shard,
    start: usize,
    filter: &MemberFilter<'_>,
    out: &mut Vec<CoalescedEvent>,
) -> u64 {
    // Count matches per object and remember each object's newest entry,
    // keeping first-occurrence order.
    let mut slots: BTreeMap<&ObjectRef, usize> = BTreeMap::new();
    let mut found: Vec<(u64, &WatchEvent)> = Vec::new();
    for e in scan_window(shard, start, filter) {
        match slots.get(&e.oref) {
            Some(&slot) => found[slot] = (found[slot].0 + 1, e),
            None => {
                slots.insert(&e.oref, found.len());
                found.push((1, e));
            }
        }
    }
    let mut raw = 0;
    for (coalesced, e) in found {
        raw += coalesced;
        out.push(CoalescedEvent {
            event: e.clone(),
            coalesced,
        });
    }
    raw
}

/// Which log entries a scan delivers.
trait EntryFilter {
    /// Does the entry belong, judged by its identity, revision and model?
    fn accepts(&self, e: &WatchEvent) -> bool;
}

/// One member's subscription as its own shard sees it: the member's plain
/// slot keys plus its predicate registrations homed in the shard. Polls
/// and recounts match through this, so their per-event cost depends on
/// what the member holds in this shard, not on how many namespaces the
/// whole subscription spans.
struct MemberFilter<'a> {
    id: WatchId,
    slots: &'a [MemberSlot],
    /// The shard's predicate registrations, when the member holds any.
    preds: Option<&'a BTreeMap<String, Vec<PredWatcher>>>,
}

impl<'a> MemberFilter<'a> {
    fn new(shard: &'a Shard, id: WatchId, m: &'a ShardMember) -> Self {
        MemberFilter {
            id,
            slots: &m.slots,
            preds: (m.pred_refs > 0).then_some(&shard.pred_watchers),
        }
    }
}

impl EntryFilter for MemberFilter<'_> {
    fn accepts(&self, e: &WatchEvent) -> bool {
        self.slots
            .iter()
            .any(|s| e.revision >= s.since && s.key.covers(&e.oref))
            || self
                .preds
                .and_then(|p| p.get(&e.oref.kind))
                .into_iter()
                .flatten()
                .any(|w| w.id == self.id && e.revision >= w.since && w.pred.matches(&e.model))
    }
}

/// The audit's ground truth: a watcher's selectors, each paired with the
/// first revision its registration covers, judged by the selectors' own
/// matching rules.
struct SelectorOracle<'a>(Vec<(&'a WatchSelector, u64)>);

impl EntryFilter for SelectorOracle<'_> {
    fn accepts(&self, e: &WatchEvent) -> bool {
        self.0
            .iter()
            .any(|(s, since)| e.revision >= *since && s.event_matches(&e.oref, &e.model))
    }
}

/// The log entries from index `start` on that the filter accepts, in
/// revision order.
fn scan_window<'a>(
    shard: &'a Shard,
    start: usize,
    filter: &'a impl EntryFilter,
) -> impl Iterator<Item = &'a WatchEvent> {
    shard.log.iter().skip(start).filter(|e| filter.accepts(e))
}

/// Drops log entries that no member can still need, returning the count. A
/// member with pending events holds everything from its cursor; a fully
/// drained member holds nothing (events it skipped did not match it, or it
/// would have `pending > 0`).
fn compact(shard: &mut Shard) -> u64 {
    let tail = shard.committed + 1;
    let mut min_hold = tail;
    for m in shard.members.values() {
        let pending = shard.member_pending(m);
        min_hold = min_hold.min(if pending == 0 { tail } else { m.cursor });
    }
    let mut first_rev = shard.committed - shard.log.len() as u64 + 1;
    let mut reclaimed = 0u64;
    while first_rev < min_hold && !shard.log.is_empty() {
        shard.log.pop_front();
        reclaimed += 1;
        first_rev += 1;
    }
    reclaimed
}

impl Store {
    fn compact_shard(&mut self, ns: &str) {
        if let Some(shard) = self.shards.get_mut(ns) {
            self.stats.events_compacted += compact(shard);
            self.maybe_drop_shard(ns);
        }
    }
}

impl Store {
    /// Detaches every watcher from namespace `ns` ahead of its deletion
    /// and marks the shard retiring, returning the objects that still need
    /// terminal `Deleted` events.
    ///
    /// Selectors homed in the namespace are *cancelled*: they are removed
    /// from their subscriptions and their undelivered events are refunded
    /// — the subscription's scope is being deleted, so the events can
    /// never be re-matched. Global selectors stay registered: their
    /// watchers still see every already-pending event plus the terminal
    /// `Deleted` events, gap-free, and their membership is released only
    /// when the drained shard is dropped.
    ///
    /// The caller deletes the returned objects (possibly through admission
    /// / audit layers) and then calls [`Store::finish_delete_namespace`].
    pub fn begin_delete_namespace(&mut self, ns: &str) -> Vec<ObjectRef> {
        let Store {
            shards,
            watchers,
            wal,
            ..
        } = self;
        let Some(shard) = shards.get_mut(ns) else {
            return Vec::new();
        };
        let member_ids: Vec<WatchId> = shard.members.keys().copied().collect();
        for id in member_ids {
            let w = watchers.get_mut(&id).expect("member watcher is live");
            let homed: Vec<WatchSelector> = w
                .selectors
                .iter()
                .filter(|s| s.home_namespace() == Some(ns))
                .cloned()
                .collect();
            if homed.is_empty() {
                continue; // a purely global member keeps its cursor
            }
            w.selectors.retain(|s| s.home_namespace() != Some(ns));
            let mut removed = false;
            for selector in &homed {
                if shard.deregister(id, selector) {
                    removed = true;
                }
            }
            if removed {
                // Last registration gone: the member (and its derived or
                // exact charge) went with it.
                w.shards.remove(ns);
            } else {
                // Still a member through global selectors. A cell member
                // kept its sole slot (a homed `KindInNamespace` sharing
                // the slot of a global `Kind` over a strictly wider match
                // set), so its derived counts stay exact.
                resettle_exact(shard, id);
            }
        }
        shard.retiring = true;
        if let Some(w) = wal.as_mut() {
            w.retire(ns);
        }
        shard.objects.keys().cloned().collect()
    }

    /// Completes a namespace deletion: once the terminal events drain, the
    /// shard is dropped (immediately, if nobody is lagging).
    pub fn finish_delete_namespace(&mut self, ns: &str) {
        self.compact_shard(ns);
        self.wal_seal();
    }

    /// Deletes a namespace: every object in it is deleted (emitting
    /// ordered terminal `Deleted` events to global watchers), selectors
    /// homed in it are cancelled, and the shard itself is dropped once its
    /// log drains. Returns the number of objects deleted.
    pub fn delete_namespace(&mut self, ns: &str) -> u64 {
        let orefs = self.begin_delete_namespace(ns);
        let deleted = orefs.len() as u64;
        for oref in &orefs {
            let _ = self.delete(oref);
        }
        self.finish_delete_namespace(ns);
        deleted
    }
}

/// Runs one query against one shard: warm the indexes the plan probes,
/// narrow to candidate names, then confirm every candidate with the full
/// predicate. Falls back to a scan of the kind slice (or the whole shard
/// for kind-less queries) when nothing is plannable.
fn query_shard(shard: &mut Shard, ns: &str, q: &Query, out: &mut Vec<Object>) {
    let planned = match (&q.kind, &q.pred) {
        (Some(kind), Some(pred)) if !pred.plan().is_full() => {
            let mut paths = BTreeSet::new();
            pred.plan().paths(&mut paths);
            for path in &paths {
                shard.ensure_index(kind, path);
            }
            plan_names(pred.plan(), kind, shard).map(|names| (kind.clone(), names))
        }
        _ => None,
    };
    match planned {
        Some((kind, names)) => {
            for name in names {
                let oref = ObjectRef::new(&kind, ns, &name);
                let Some(obj) = shard.objects.get(&oref) else {
                    continue;
                };
                if q.matches(&obj.oref, &obj.model) {
                    out.push(obj.clone());
                }
            }
        }
        None => {
            for obj in shard.objects.values() {
                if q.matches(&obj.oref, &obj.model) {
                    out.push(obj.clone());
                }
            }
        }
    }
}

/// Evaluates a plan to candidate object names through the shard's
/// indexes. `None` means "unconstrained" (a probe whose index is
/// unexpectedly missing degrades to the scan path rather than to a wrong
/// answer).
fn plan_names(plan: &Plan, kind: &str, shard: &Shard) -> Option<BTreeSet<String>> {
    match plan {
        Plan::Full => None,
        Plan::Eq { path, key } => {
            let idx = shard.indexes.get(kind)?.get(path)?;
            Some(idx.by_key.get(key).cloned().unwrap_or_default())
        }
        Plan::Range { path, lo, hi } => {
            let idx = shard.indexes.get(kind)?.get(path)?;
            let mut names = BTreeSet::new();
            for set in idx.by_key.range((lo.clone(), hi.clone())).map(|(_, s)| s) {
                names.extend(set.iter().cloned());
            }
            Some(names)
        }
        Plan::And(ps) => {
            let mut acc: Option<BTreeSet<String>> = None;
            for p in ps {
                let Some(names) = plan_names(p, kind, shard) else {
                    continue;
                };
                acc = Some(match acc {
                    None => names,
                    Some(a) => a.intersection(&names).cloned().collect(),
                });
                if acc.as_ref().is_some_and(|a| a.is_empty()) {
                    break;
                }
            }
            acc
        }
        Plan::Or(ps) => {
            let mut acc = BTreeSet::new();
            for p in ps {
                // An unconstrained disjunct widens the union to everything.
                acc.extend(plan_names(p, kind, shard)?);
            }
            Some(acc)
        }
    }
}

/// Re-settles an exact member's counters after some of its registrations
/// in `shard` were released: they may still include events only the
/// released selectors matched. Cell members cannot be affected (their
/// single slot key is unchanged). The next poll still reaches whatever
/// stays pending: every charge to an exact member lists it in
/// `dirty_exact`, which the dirty drain turns into a pending-shard entry.
fn resettle_exact(shard: &mut Shard, id: WatchId) {
    let m = shard
        .members
        .get(&id)
        .expect("released member is still present");
    if !matches!(m.acct, Acct::Exact { .. }) || shard.member_pending(m) == 0 {
        return;
    }
    let pending = recount_pending(shard, id);
    shard.members.get_mut(&id).expect("still a member").acct = Acct::Exact { pending };
}

/// Counts member `id`'s undelivered events from its cursor. Used to
/// re-settle a member's pending counter when part of its selector set is
/// cancelled.
fn recount_pending(shard: &Shard, id: WatchId) -> u64 {
    let m = shard.members.get(&id).expect("recounting a member");
    let filter = MemberFilter::new(shard, id, m);
    scan_window(shard, shard.window_start(m.cursor), &filter).count() as u64
}

// ----- WAL op records and replay ------------------------------------------
//
// Successful ops are journaled as small JSON documents; replay routes them
// back through the shard-local mutation functions below, so a recovered
// shard is bit-identical to the one that logged them. `expected_rv` guards
// are dropped on serialization: only ops that already committed are
// logged, and replay starts from the identical base state.

/// Renders a `create` record: the committed (post-stamp) model.
fn wal_op_create(oref: &ObjectRef, model: &Value) -> String {
    let mut out = String::with_capacity(96);
    write::record_open(&mut out, "create", oref);
    out.push_str(",\"model\":");
    json::write_to(&mut out, model);
    out.push('}');
    out
}

fn wal_op_delete(oref: &ObjectRef) -> String {
    let mut out = String::with_capacity(64);
    write::record_open(&mut out, "del", oref);
    out.push('}');
    out
}

/// Re-applies one journaled op to a recovering shard. Every logged op
/// committed once, so failure here means the log and the recovered state
/// disagree — surfaced as corruption by the caller.
fn replay_op(shard: &mut Shard, op: Value, stats: &mut WatchStats) -> Result<(), String> {
    let Value::Object(mut map) = op else {
        return Err("op is not an object".to_string());
    };
    let verb = match map.remove("op") {
        Some(Value::Str(s)) => s,
        _ => return Err("op missing verb".to_string()),
    };
    let mut take_str = |k: &str| match map.remove(k) {
        Some(Value::Str(s)) => Ok(s),
        _ => Err(format!("op missing '{k}'")),
    };
    let (kind, ns, name) = (take_str("kind")?, take_str("ns")?, take_str("name")?);
    let oref = ObjectRef::new(kind, ns, name);
    let fail = |e: ApiError| e.to_string();
    match verb.as_str() {
        "create" => {
            let model = map.remove("model").ok_or("op missing 'model'")?;
            shard_create(shard, oref, model, stats)
                .map(|_| ())
                .map_err(fail)
        }
        "del" => shard_delete(shard, &oref, stats).map(|_| ()).map_err(fail),
        other => match WriteOp::from_record(other, &mut map)? {
            Some(op) => shard_write(shard, &oref, &op, None, None, stats)
                .map(|_| ())
                .map_err(fail),
            None => Err(format!("unknown wal op '{other}'")),
        },
    }
}

/// Serializes every shard for a checkpoint document.
fn checkpoint_shards_json(shards: &BTreeMap<String, Shard>) -> String {
    let mut out = Vec::with_capacity(shards.len());
    for (ns, shard) in shards {
        let objects: Vec<String> = shard
            .objects
            .values()
            .map(|o| {
                format!(
                    "{{\"kind\":{},\"namespace\":{},\"name\":{},\"rv\":{},\"model\":{}}}",
                    wal::jstr(&o.oref.kind),
                    wal::jstr(&o.oref.namespace),
                    wal::jstr(&o.oref.name),
                    wal::exact(o.resource_version),
                    json::to_string(&o.model)
                )
            })
            .collect();
        out.push(format!(
            "{{\"ns\":{},\"committed\":{},\"retiring\":{},\"objects\":[{}]}}",
            wal::jstr(ns),
            wal::exact(shard.committed),
            shard.retiring,
            objects.join(",")
        ));
    }
    out.join(",")
}

// ----- Shard-local mutation ops ------------------------------------------
//
// The mutation verbs run these inside `Store::commit`, WAL replay through
// `replay_op`. They may touch only the shard and the watch counters.

fn shard_create(
    shard: &mut Shard,
    oref: ObjectRef,
    mut model: Value,
    stats: &mut WatchStats,
) -> Result<u64, ApiError> {
    if shard.objects.contains_key(&oref) {
        return Err(ApiError::AlreadyExists(oref));
    }
    let rv = 1;
    stamp_gen(&mut model, rv);
    shard.objects.insert(
        oref.clone(),
        Object {
            oref: oref.clone(),
            model: model.clone(),
            resource_version: rv,
        },
    );
    shard_append(shard, WatchEventKind::Added, oref, model, rv, stats);
    Ok(rv)
}

/// Whether something besides the stored object still holds `model` — a
/// resident log entry, a delivered event, or the server's pre-write copy:
/// its root map is shared, so an edit copies it first.
fn held(model: &Value) -> bool {
    matches!(model, Value::Object(map) if map.is_shared())
}

/// Commits one [`WriteOp`] to a stored object: the one mutator behind
/// every modify verb, live and on WAL replay. With `built`, the caller
/// already applied the op to a copy of the stored model at the next
/// version, and that model is installed as is; otherwise the op is
/// applied here, in place when nothing else holds the model and on a copy
/// otherwise. A failed op changes nothing.
///
/// An op that edits a model something else still holds — a resident log
/// entry, a delivered event, or the server holding the pre-write model
/// across its pipeline for webhook `observe` — counts one deep clone. The
/// edit copies one map per level of the path it writes (see
/// [`dspace_value::Map`]). A put replaces the model, copies nothing and
/// never counts.
fn shard_write(
    shard: &mut Shard,
    oref: &ObjectRef,
    op: &WriteOp,
    built: Option<Value>,
    expected_rv: Option<u64>,
    stats: &mut WatchStats,
) -> Result<u64, ApiError> {
    let obj = shard
        .objects
        .get_mut(oref)
        .ok_or_else(|| ApiError::NotFound(oref.clone()))?;
    if let Some(expected) = expected_rv {
        if expected != obj.resource_version {
            return Err(ApiError::Conflict {
                oref: oref.clone(),
                expected,
                actual: obj.resource_version,
            });
        }
    }
    let rv = op.next_rv(oref, obj.resource_version)?;
    let was_held = held(&obj.model);
    match built {
        Some(model) => obj.model = model,
        None => op.apply(&mut obj.model, rv)?,
    }
    if was_held && !matches!(op, WriteOp::Put(_)) {
        stats.deep_clones += 1;
    }
    obj.resource_version = rv;
    let snapshot = obj.model.clone();
    shard_append(
        shard,
        WatchEventKind::Modified,
        oref.clone(),
        snapshot,
        rv,
        stats,
    );
    Ok(rv)
}

/// Removes an object. Its final snapshot is stamped with the bumped
/// version, on a copy (counted as a deep clone) when something else still
/// holds the model.
fn shard_delete(
    shard: &mut Shard,
    oref: &ObjectRef,
    stats: &mut WatchStats,
) -> Result<Object, ApiError> {
    let mut obj = shard
        .objects
        .remove(oref)
        .ok_or_else(|| ApiError::NotFound(oref.clone()))?;
    obj.resource_version += 1;
    let rv = obj.resource_version;
    if held(&obj.model) {
        stats.deep_clones += 1;
    }
    stamp_gen(&mut obj.model, rv);
    shard_append(
        shard,
        WatchEventKind::Deleted,
        oref.clone(),
        obj.model.clone(),
        rv,
        stats,
    );
    Ok(obj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspace_value::json;

    fn model(kind: &str, name: &str) -> Value {
        model_in(kind, "default", name)
    }

    fn model_in(kind: &str, ns: &str, name: &str) -> Value {
        json::parse(&format!(
            r#"{{"meta": {{"kind": "{kind}", "name": "{name}", "namespace": "{ns}"}}, "x": 0}}"#
        ))
        .unwrap()
    }

    /// Replaces a model through the store's put op.
    fn put(s: &mut Store, oref: &ObjectRef, model: Value) -> Result<u64, ApiError> {
        s.write(oref, &WriteOp::Put(model), None)
    }

    fn lamp_ref() -> ObjectRef {
        ObjectRef::default_ns("Lamp", "l1")
    }

    /// The query watching exactly one object.
    fn object_query(r: &ObjectRef) -> Query {
        Query::kind(r.kind.as_str())
            .in_ns(r.namespace.as_str())
            .named(r.name.as_str())
    }

    #[test]
    fn create_get_roundtrip() {
        let mut s = Store::new();
        s.create(lamp_ref(), model("Lamp", "l1")).unwrap();
        let obj = s.get(&lamp_ref()).unwrap();
        assert_eq!(obj.resource_version, 1);
        assert_eq!(obj.model.get_path("meta.gen").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn create_twice_fails() {
        let mut s = Store::new();
        s.create(lamp_ref(), model("Lamp", "l1")).unwrap();
        assert!(matches!(
            s.create(lamp_ref(), model("Lamp", "l1")),
            Err(ApiError::AlreadyExists(_))
        ));
    }

    #[test]
    fn update_bumps_version_and_stamps_gen() {
        let mut s = Store::new();
        s.create(lamp_ref(), model("Lamp", "l1")).unwrap();
        let rv = put(&mut s, &lamp_ref(), model("Lamp", "l1")).unwrap();
        assert_eq!(rv, 2);
        assert_eq!(
            s.get(&lamp_ref())
                .unwrap()
                .model
                .get_path("meta.gen")
                .unwrap()
                .as_f64(),
            Some(2.0)
        );
    }

    #[test]
    fn occ_conflict_detected() {
        let mut s = Store::new();
        s.create(lamp_ref(), model("Lamp", "l1")).unwrap();
        s.write(&lamp_ref(), &WriteOp::Put(model("Lamp", "l1")), Some(1))
            .unwrap();
        // A writer that read version 1 now loses.
        let err = s
            .write(&lamp_ref(), &WriteOp::Put(model("Lamp", "l1")), Some(1))
            .unwrap_err();
        assert!(matches!(
            err,
            ApiError::Conflict {
                expected: 1,
                actual: 2,
                ..
            }
        ));
    }

    #[test]
    fn delete_then_get_fails() {
        let mut s = Store::new();
        s.create(lamp_ref(), model("Lamp", "l1")).unwrap();
        let gone = s.delete(&lamp_ref()).unwrap();
        // The delete is itself a version: 1 (create) -> 2 (delete).
        assert_eq!(gone.resource_version, 2);
        assert!(s.get(&lamp_ref()).is_none());
        assert!(matches!(s.delete(&lamp_ref()), Err(ApiError::NotFound(_))));
    }

    #[test]
    fn delete_event_orders_after_preceding_modify() {
        let mut s = Store::new();
        s.create(lamp_ref(), model("Lamp", "l1")).unwrap();
        let w = s.watch_query(&Query::kind("Lamp")).unwrap();
        put(&mut s, &lamp_ref(), model("Lamp", "l1")).unwrap(); // rv 2
        s.delete(&lamp_ref()).unwrap(); // rv 3
        let evs = s.poll(w);
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].kind, WatchEventKind::Modified);
        assert_eq!(evs[1].kind, WatchEventKind::Deleted);
        assert!(
            evs[1].resource_version > evs[0].resource_version,
            "delete must be orderable after the preceding modify"
        );
        assert_eq!(evs[1].resource_version, 3);
        // The event model's gen mirrors the bumped version.
        assert_eq!(
            evs[1].model.get_path("meta.gen").unwrap().as_f64(),
            Some(3.0)
        );
    }

    #[test]
    fn watch_only_sees_future_events() {
        let mut s = Store::new();
        s.create(lamp_ref(), model("Lamp", "l1")).unwrap();
        let w = s.watch_query(&Query::all()).unwrap();
        assert!(s.poll(w).is_empty());
        put(&mut s, &lamp_ref(), model("Lamp", "l1")).unwrap();
        let evs = s.poll(w);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, WatchEventKind::Modified);
        assert_eq!(evs[0].resource_version, 2);
        // Drained.
        assert!(s.poll(w).is_empty());
    }

    #[test]
    fn watch_kind_filter() {
        let mut s = Store::new();
        let w = s.watch_query(&Query::kind("Room")).unwrap();
        s.create(lamp_ref(), model("Lamp", "l1")).unwrap();
        s.create(ObjectRef::default_ns("Room", "r1"), model("Room", "r1"))
            .unwrap();
        let evs = s.poll(w);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].oref.kind, "Room");
    }

    #[test]
    fn watch_object_selector_filters_exactly() {
        let mut s = Store::new();
        let l1 = lamp_ref();
        let l2 = ObjectRef::default_ns("Lamp", "l2");
        s.create(l1.clone(), model("Lamp", "l1")).unwrap();
        s.create(l2.clone(), model("Lamp", "l2")).unwrap();
        let w = s.watch_query(&object_query(&l1.clone())).unwrap();
        put(&mut s, &l2, model("Lamp", "l2")).unwrap();
        assert!(
            !s.has_pending(w),
            "same-kind sibling must not wake the watcher"
        );
        put(&mut s, &l1, model("Lamp", "l1")).unwrap();
        assert!(s.has_pending(w));
        let evs = s.poll(w);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].oref, l1);
    }

    #[test]
    fn watch_ordering_is_gap_free() {
        // The §3.5 guarantee: a watcher sees every version in order.
        let mut s = Store::new();
        s.create(lamp_ref(), model("Lamp", "l1")).unwrap();
        let w = s.watch_query(&Query::kind("Lamp")).unwrap();
        for _ in 0..50 {
            put(&mut s, &lamp_ref(), model("Lamp", "l1")).unwrap();
        }
        let evs = s.poll(w);
        let versions: Vec<u64> = evs.iter().map(|e| e.resource_version).collect();
        assert_eq!(versions, (2..=51).collect::<Vec<_>>());
    }

    #[test]
    fn multiple_watchers_independent_cursors() {
        let mut s = Store::new();
        s.create(lamp_ref(), model("Lamp", "l1")).unwrap();
        let w1 = s.watch_query(&Query::all()).unwrap();
        put(&mut s, &lamp_ref(), model("Lamp", "l1")).unwrap();
        let w2 = s.watch_query(&Query::all()).unwrap();
        put(&mut s, &lamp_ref(), model("Lamp", "l1")).unwrap();
        assert_eq!(s.poll(w1).len(), 2);
        assert_eq!(s.poll(w2).len(), 1);
    }

    #[test]
    fn cancelled_watch_returns_nothing() {
        let mut s = Store::new();
        let w = s.watch_query(&Query::all()).unwrap();
        s.create(lamp_ref(), model("Lamp", "l1")).unwrap();
        s.cancel_watch(w);
        assert!(s.poll(w).is_empty());
        assert!(!s.has_pending(w));
    }

    #[test]
    fn pending_events_track_appends() {
        let mut s = Store::new();
        let w = s.watch_query(&Query::kind("Lamp")).unwrap();
        assert_eq!(s.pending_events(w), 0);
        s.create(lamp_ref(), model("Lamp", "l1")).unwrap();
        assert_eq!(s.pending_events(w), 1);
        put(&mut s, &lamp_ref(), model("Lamp", "l1")).unwrap();
        assert_eq!(s.pending_events(w), 2, "second event adds one");
        s.poll(w);
        assert_eq!(s.pending_events(w), 0, "poll drains the counter");
        // An uninterested watcher is never charged.
        let other = s.watch_query(&Query::kind("Room")).unwrap();
        put(&mut s, &lamp_ref(), model("Lamp", "l1")).unwrap();
        assert_eq!(s.pending_events(other), 0);
    }

    #[test]
    fn fast_forward_jumps_version_and_stamps_exact_gen() {
        const BIG: u64 = (1 << 53) + 7;
        let mut s = Store::new();
        s.create(lamp_ref(), model("Lamp", "l1")).unwrap();
        let w = s.watch_query(&Query::kind("Lamp")).unwrap();
        assert_eq!(
            s.write(&lamp_ref(), &WriteOp::FastForward(BIG), None)
                .unwrap(),
            BIG
        );
        let obj = s.get(&lamp_ref()).unwrap();
        assert_eq!(obj.resource_version, BIG);
        // Past 2^53 the generation is stored exactly (string-encoded).
        assert_eq!(
            obj.model.get_path("meta.gen").and_then(Value::as_exact_u64),
            Some(BIG)
        );
        let evs = s.poll(w);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].resource_version, BIG);
        // Subsequent normal updates keep counting from the new version.
        assert_eq!(
            put(&mut s, &lamp_ref(), model("Lamp", "l1")).unwrap(),
            BIG + 1
        );
        // Regression can't rewind.
        assert!(s
            .write(&lamp_ref(), &WriteOp::FastForward(5), None)
            .is_err());
    }

    #[test]
    fn has_pending_respects_filter() {
        let mut s = Store::new();
        let w = s.watch_query(&Query::kind("Room")).unwrap();
        s.create(lamp_ref(), model("Lamp", "l1")).unwrap();
        assert!(!s.has_pending(w));
        s.create(ObjectRef::default_ns("Room", "r1"), model("Room", "r1"))
            .unwrap();
        assert!(s.has_pending(w));
    }

    #[test]
    fn log_is_compacted_to_watcher_lag() {
        let mut s = Store::new();
        s.create(lamp_ref(), model("Lamp", "l1")).unwrap();
        let fast = s.watch_query(&Query::kind("Lamp")).unwrap();
        let slow = s.watch_query(&Query::kind("Lamp")).unwrap();
        for i in 0..100 {
            put(&mut s, &lamp_ref(), model("Lamp", "l1")).unwrap();
            // The fast watcher drains every 10 events; the slow one lags.
            if i % 10 == 9 {
                assert_eq!(s.poll(fast).len(), 10);
            }
        }
        // The slow watcher holds the whole stream.
        assert_eq!(s.log_len(), 100);
        assert_eq!(s.poll(slow).len(), 100);
        // Everyone drained: the log is empty however many mutations ran.
        assert_eq!(s.log_len(), 0);
        assert!(s.watch_stats().events_compacted >= 100);
    }

    #[test]
    fn log_reclaimed_with_no_watchers() {
        let mut s = Store::new();
        s.create(lamp_ref(), model("Lamp", "l1")).unwrap();
        for _ in 0..50 {
            put(&mut s, &lamp_ref(), model("Lamp", "l1")).unwrap();
        }
        assert_eq!(s.log_len(), 0, "no watcher, nothing to hold");
        assert_eq!(s.revision(), 51, "revision still counts all commits");
    }

    #[test]
    fn cancel_releases_compaction_hold() {
        let mut s = Store::new();
        s.create(lamp_ref(), model("Lamp", "l1")).unwrap();
        let laggard = s.watch_query(&Query::kind("Lamp")).unwrap();
        for _ in 0..30 {
            put(&mut s, &lamp_ref(), model("Lamp", "l1")).unwrap();
        }
        assert_eq!(s.log_len(), 30);
        s.cancel_watch(laggard);
        assert_eq!(s.log_len(), 0, "cancel must release the hold");
    }

    #[test]
    fn delivery_shares_snapshots_across_watchers() {
        let mut s = Store::new();
        s.create(lamp_ref(), model("Lamp", "l1")).unwrap();
        let w1 = s.watch_query(&Query::kind("Lamp")).unwrap();
        let w2 = s.watch_query(&Query::kind("Lamp")).unwrap();
        put(&mut s, &lamp_ref(), model("Lamp", "l1")).unwrap();
        let e1 = s.poll(w1);
        let e2 = s.poll(w2);
        assert!(
            matches!(
                (&e1[0].model, &e2[0].model),
                (Value::Object(a), Value::Object(b)) if dspace_value::Map::ptr_eq(a, b)
            ),
            "watchers must share one snapshot, not deep copies"
        );
    }

    // ----- Namespace shards ---------------------------------------------

    #[test]
    fn namespace_shards_isolate_watchers() {
        let mut s = Store::new();
        let a = ObjectRef::new("Lamp", "ns-a", "l1");
        let b = ObjectRef::new("Lamp", "ns-b", "l1");
        s.create(a.clone(), model_in("Lamp", "ns-a", "l1")).unwrap();
        s.create(b.clone(), model_in("Lamp", "ns-b", "l1")).unwrap();
        let wa = s.watch_query(&Query::kind("Lamp").in_ns("ns-a")).unwrap();
        // A burst entirely inside ns-b never touches the ns-a watcher.
        for _ in 0..100 {
            put(&mut s, &b, model_in("Lamp", "ns-b", "l1")).unwrap();
        }
        assert!(!s.has_pending(wa), "cross-namespace burst leaked a wake");
        assert!(s.poll(wa).is_empty());
        put(&mut s, &a, model_in("Lamp", "ns-a", "l1")).unwrap();
        let evs = s.poll(wa);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].oref, a);
    }

    #[test]
    fn shard_revisions_are_independent_and_gap_free() {
        let mut s = Store::new();
        let a = ObjectRef::new("Lamp", "ns-a", "l1");
        let b = ObjectRef::new("Lamp", "ns-b", "l1");
        s.create(a.clone(), model_in("Lamp", "ns-a", "l1")).unwrap();
        s.create(b.clone(), model_in("Lamp", "ns-b", "l1")).unwrap();
        let w = s.watch_query(&Query::kind("Lamp")).unwrap(); // global: joined to both shards
        for _ in 0..5 {
            put(&mut s, &a, model_in("Lamp", "ns-a", "l1")).unwrap();
            put(&mut s, &b, model_in("Lamp", "ns-b", "l1")).unwrap();
        }
        let evs = s.poll(w);
        assert_eq!(evs.len(), 10);
        // Each shard's sub-stream is consecutive from revision 2 (the
        // create was revision 1, before the watch).
        for ns in ["ns-a", "ns-b"] {
            let revs: Vec<u64> = evs
                .iter()
                .filter(|e| e.oref.namespace == ns)
                .map(|e| e.revision)
                .collect();
            assert_eq!(revs, (2..=6).collect::<Vec<_>>(), "shard {ns}");
        }
        // Global revision still totals all commits.
        assert_eq!(s.revision(), 12);
    }

    #[test]
    fn global_watcher_joins_future_shards() {
        let mut s = Store::new();
        let w = s.watch_query(&Query::all()).unwrap();
        let late = ObjectRef::new("Lamp", "born-later", "l1");
        s.create(late.clone(), model_in("Lamp", "born-later", "l1"))
            .unwrap();
        assert!(s.has_pending(w));
        let evs = s.poll(w);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].oref, late);
        assert_eq!(evs[0].revision, 1, "fresh shard starts at revision 1");
    }

    #[test]
    fn laggard_in_one_namespace_does_not_pin_other_shards() {
        let mut s = Store::new();
        let a = ObjectRef::new("Lamp", "ns-a", "l1");
        let b = ObjectRef::new("Lamp", "ns-b", "l1");
        s.create(a.clone(), model_in("Lamp", "ns-a", "l1")).unwrap();
        s.create(b.clone(), model_in("Lamp", "ns-b", "l1")).unwrap();
        let _laggard = s.watch_query(&Query::kind("Lamp").in_ns("ns-a")).unwrap();
        for _ in 0..20 {
            put(&mut s, &a, model_in("Lamp", "ns-a", "l1")).unwrap();
            put(&mut s, &b, model_in("Lamp", "ns-b", "l1")).unwrap();
        }
        assert_eq!(s.shard_log_len("ns-a"), 20, "laggard holds its shard");
        assert_eq!(s.shard_log_len("ns-b"), 0, "other shard compacts freely");
    }

    #[test]
    fn multi_selector_watch_delivers_once() {
        let mut s = Store::new();
        let l1 = lamp_ref();
        s.create(l1.clone(), model("Lamp", "l1")).unwrap();
        // Kind and Object selectors both match l1's events.
        let w = s
            .watch_queries(&[Query::kind("Lamp"), object_query(&l1)])
            .unwrap();
        put(&mut s, &l1, model("Lamp", "l1")).unwrap();
        let evs = s.poll(w);
        assert_eq!(evs.len(), 1, "overlapping selectors must not duplicate");
        assert!(!s.has_pending(w));
    }

    #[test]
    fn extend_watch_widens_subscription() {
        let mut s = Store::new();
        let w = s.watch_queries(&[]).unwrap();
        s.create(lamp_ref(), model("Lamp", "l1")).unwrap();
        assert!(!s.has_pending(w), "empty subscription never fires");
        assert!(s
            .extend_watch(w, &Query::kind("Lamp").in_ns("default"))
            .unwrap());
        put(&mut s, &lamp_ref(), model("Lamp", "l1")).unwrap();
        let evs = s.poll(w);
        assert_eq!(evs.len(), 1);
        // Unknown ids are reported, not panicked on.
        assert!(!s.extend_watch(WatchId(999), &Query::all()).unwrap());
    }

    // ----- Coalescing ----------------------------------------------------

    #[test]
    fn coalesced_poll_collapses_burst_to_newest_snapshot() {
        let mut s = Store::new();
        s.create(lamp_ref(), model("Lamp", "l1")).unwrap();
        let w = s.watch_query(&object_query(&lamp_ref())).unwrap();
        for _ in 0..100 {
            put(&mut s, &lamp_ref(), model("Lamp", "l1")).unwrap();
        }
        let evs = s.poll_coalesced(w);
        assert_eq!(evs.len(), 1, "one burst, one delivery");
        assert_eq!(evs[0].coalesced, 100, "every raw event accounted for");
        assert_eq!(evs[0].event.resource_version, 101, "newest snapshot");
        assert_eq!(
            evs[0].event.model.get_path("meta.gen").unwrap().as_f64(),
            Some(101.0)
        );
        let st = s.watch_stats();
        assert_eq!(st.coalesced_deliveries, 1);
        assert_eq!(st.events_coalesced, 99);
        assert_eq!(s.log_len(), 0, "drained and compacted");
    }

    #[test]
    fn coalesced_poll_keeps_first_occurrence_order_across_objects() {
        let mut s = Store::new();
        let l1 = lamp_ref();
        let l2 = ObjectRef::default_ns("Lamp", "l2");
        s.create(l1.clone(), model("Lamp", "l1")).unwrap();
        s.create(l2.clone(), model("Lamp", "l2")).unwrap();
        let w = s.watch_query(&Query::kind("Lamp")).unwrap();
        put(&mut s, &l2, model("Lamp", "l2")).unwrap();
        put(&mut s, &l1, model("Lamp", "l1")).unwrap();
        put(&mut s, &l2, model("Lamp", "l2")).unwrap();
        let evs = s.poll_coalesced(w);
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].event.oref, l2, "l2 changed first");
        assert_eq!(evs[0].coalesced, 2);
        assert_eq!(evs[0].event.resource_version, 3, "newest l2 state");
        assert_eq!(evs[1].event.oref, l1);
        assert_eq!(evs[1].coalesced, 1);
    }

    #[test]
    fn coalesced_poll_absorbs_delete_as_newest_state() {
        let mut s = Store::new();
        s.create(lamp_ref(), model("Lamp", "l1")).unwrap();
        let w = s.watch_query(&Query::kind("Lamp")).unwrap();
        put(&mut s, &lamp_ref(), model("Lamp", "l1")).unwrap();
        s.delete(&lamp_ref()).unwrap();
        let evs = s.poll_coalesced(w);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].coalesced, 2);
        assert_eq!(evs[0].event.kind, WatchEventKind::Deleted);
    }

    /// Regression: a watcher cancelled while a namespace deletion is
    /// draining (i.e. during the compaction window its selectors were
    /// holding open) must leave every pending count at zero, not wrapped.
    #[test]
    fn cancel_during_namespace_drain_keeps_totals_sane() {
        let mut s = Store::new();
        let oref = ObjectRef::new("Lamp", "room", "l1");
        s.create(oref.clone(), model_in("Lamp", "room", "l1"))
            .unwrap();
        // A scoped watcher homed in the retiring namespace plus a global
        // one: cancellation exercises both deregistration paths.
        let scoped = s.watch_query(&Query::kind("Lamp").in_ns("room")).unwrap();
        let global = s.watch_query(&Query::all()).unwrap();
        put(&mut s, &oref, model_in("Lamp", "room", "l1")).unwrap();
        assert!(s.pending_events(scoped) > 0);
        assert!(s.pending_events(global) > 0);
        // Begin the namespace deletion: scoped selectors are cancelled and
        // refunded; the global watcher's counts are re-settled.
        let victims = s.begin_delete_namespace("room");
        assert_eq!(victims, vec![oref.clone()]);
        assert_eq!(
            s.pending_events(scoped),
            0,
            "refund must zero the homed watcher, not wrap it"
        );
        for v in &victims {
            s.delete(v).unwrap();
        }
        // Cancel the lagging global watcher mid-drain: its compaction hold
        // is released and the retiring shard can be reclaimed.
        s.cancel_watch(global);
        assert_eq!(s.pending_events(global), 0);
        s.finish_delete_namespace("room");
        assert_eq!(s.shard_log_len("room"), 0, "hold released, log drained");
        assert_eq!(s.shard_count(), 0, "retiring shard dropped");
        // The survivor still works.
        assert_eq!(s.pending_events(scoped), 0);
        assert!(s.poll(scoped).is_empty());
    }

    /// Regression: re-settling a global watcher when a namespace-homed
    /// selector is cancelled must recount, not subtract blindly.
    #[test]
    fn mixed_selector_watcher_resettles_on_namespace_delete() {
        let mut s = Store::new();
        let room = ObjectRef::new("Lamp", "room", "l1");
        let hall = ObjectRef::new("Lamp", "hall", "l2");
        s.create(room.clone(), model_in("Lamp", "room", "l1"))
            .unwrap();
        s.create(hall.clone(), model_in("Lamp", "hall", "l2"))
            .unwrap();
        // One watcher, two selectors: global Kind plus a scoped duplicate
        // homed in "room" (refcount 2 in that shard).
        let w = s.watch_query(&Query::kind("Lamp")).unwrap();
        s.extend_watch(w, &Query::kind("Lamp").in_ns("room"))
            .unwrap();
        put(&mut s, &room, model_in("Lamp", "room", "l1")).unwrap();
        put(&mut s, &hall, model_in("Lamp", "hall", "l2")).unwrap();
        assert_eq!(s.pending_events(w), 2);
        // Deleting "room" cancels the scoped selector; the watcher stays a
        // member through Kind("Lamp") and its counts are re-settled.
        s.delete_namespace("room");
        let evs = s.poll(w);
        // Pre-deletion updates plus the terminal Deleted event, all exactly
        // once: no gaps, no duplicates.
        let deleted: Vec<_> = evs
            .iter()
            .filter(|e| e.kind == WatchEventKind::Deleted)
            .collect();
        assert_eq!(deleted.len(), 1);
        assert_eq!(deleted[0].oref, room);
        assert_eq!(
            evs.iter().filter(|e| e.oref == hall).count(),
            1,
            "hall update delivered once"
        );
        assert_eq!(s.pending_events(w), 0, "fully drained, nothing wrapped");
    }

    /// The tentpole guarantee for predicate watches: a commit that does not
    /// match the predicate is filtered at commit time against the computed
    /// index delta — it never goes pending, not even transiently. Pending
    /// counters stay at zero.
    #[test]
    fn predicate_watch_never_pends_non_matching_commits() {
        let mut s = Store::new();
        let q = Query::kind("Lamp")
            .in_ns("default")
            .filter(".x > 5")
            .unwrap();
        let w = s.watch_query(&q).unwrap();

        // Non-matching create (x = 0).
        s.create(lamp_ref(), model("Lamp", "l1")).unwrap();
        assert!(!s.has_pending(w), "non-matching commit went pending");
        assert_eq!(s.pending_events(w), 0);

        // Matching update: delivered.
        let mut m = model("Lamp", "l1");
        m.set(&".x".parse().unwrap(), 9.0.into()).unwrap();
        put(&mut s, &lamp_ref(), m).unwrap();
        let evs = s.poll(w);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].oref, lamp_ref());

        // Transition out (9 -> 2): each event is judged by its own model —
        // stateless semantics — so the exit commit is not delivered either.
        let mut m = model("Lamp", "l1");
        m.set(&".x".parse().unwrap(), 2.0.into()).unwrap();
        put(&mut s, &lamp_ref(), m).unwrap();
        assert!(!s.has_pending(w));
        assert_eq!(s.pending_events(w), 0);

        // Deletes are judged by the final model: x = 2 does not match...
        s.delete(&lamp_ref()).unwrap();
        assert!(!s.has_pending(w));
        assert_eq!(s.pending_events(w), 0);

        // ...while a matching final model does.
        let l2 = ObjectRef::default_ns("Lamp", "l2");
        let mut m = model("Lamp", "l2");
        m.set(&".x".parse().unwrap(), 7.0.into()).unwrap();
        s.create(l2.clone(), m).unwrap();
        s.delete(&l2).unwrap();
        let evs = s.poll(w);
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[1].kind, WatchEventKind::Deleted);
        s.indexes_consistent().unwrap();
    }

    /// Predicate watches compose with other selectors on one subscription
    /// and detach cleanly: narrowing releases the shard registration and
    /// re-settles pending counts for the selectors that remain.
    #[test]
    fn predicate_selector_attaches_and_detaches() {
        let mut s = Store::new();
        let all = Query::kind("Lamp").in_ns("default");
        let hot = all.clone().filter(".x > 5").unwrap();
        let w = s.watch_query(&hot).unwrap();
        assert!(s.extend_watch(w, &all).unwrap());

        let mut m = model("Lamp", "l1");
        m.set(&".x".parse().unwrap(), 1.0.into()).unwrap();
        s.create(lamp_ref(), m).unwrap();
        // The kind selector matches even though the predicate does not.
        assert!(s.has_pending(w));

        // Dropping the kind selector re-settles pending to the predicate's
        // view: x = 1 does not match, so nothing remains pending.
        assert!(s.narrow_watch(w, &all).unwrap());
        assert!(!s.has_pending(w), "recount kept a non-matching event");
        assert_eq!(s.pending_events(w), 0);

        // Dropping a selector that is not attached reports false.
        assert!(!s.narrow_watch(w, &all).unwrap());
        // The predicate selector still works.
        let mut m = model("Lamp", "l1");
        m.set(&".x".parse().unwrap(), 8.0.into()).unwrap();
        put(&mut s, &lamp_ref(), m).unwrap();
        assert_eq!(s.poll(w).len(), 1);
    }

    // ----- WAL replay ----------------------------------------------------

    /// Replay refuses a commit record that disagrees with the shard it
    /// lands on: one whose `base` is not the shard's revision, and one
    /// whose `appended` count its op does not reproduce.
    #[test]
    fn replay_rejects_a_record_that_disagrees_with_the_shard() {
        let oref = lamp_ref();
        let create = wal_op_create(&oref, &model("Lamp", "l1"));
        let set = WriteOp::Set(".x".parse().unwrap(), 1.0.into());
        let set = set.record(&oref, &model("Lamp", "l1"));
        // (tag, the set record's base, its appended): the create leaves
        // the shard at revision 1, and a set appends one event.
        for (tag, base, appended, want) in [
            ("base", 0, 1, "record base 0, shard at 1"),
            ("appended", 1, 2, "record appended 2, replay appended 1"),
        ] {
            let dir = std::env::temp_dir()
                .join(format!("dspace-store-diverge-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let opts = DurabilityOptions::new(&dir);
            {
                let (mut wal, _) = Wal::open(&opts).unwrap();
                wal.commit("default", 0, true, 1, Some(&create));
                wal.commit("default", base, false, appended, Some(&set));
            }
            let err = Store::open(opts).expect_err(tag).to_string();
            assert!(err.contains("replay diverged"), "{tag}: {err}");
            assert!(err.contains(want), "{tag}: {err}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
