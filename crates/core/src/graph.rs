//! The digi-graph: mount topology with multitree and single-writer
//! invariants (§3.3–3.4 of the paper).
//!
//! Mount edges point parent → child. The graph must remain a *multitree*
//! (diamond-free poset): between any two digis there is at most one
//! directed path, and there are no cycles. The paper enforces this with
//! the **mount rule** — "a digivice cannot join a hierarchy that it or any
//! of its descendants is already a part of" — which this module checks on
//! every mount.
//!
//! In addition, each digi has at most one *active* parent (single writer,
//! §3.4); other parents hold their mounts in the *yielded* state and
//! retain read access only.

// Graph mutations fail on the cold path only, and rejection messages carry
// both endpoint refs by design; boxing the error is not worth the churn.
#![allow(clippy::result_large_err)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use dspace_apiserver::ObjectRef;

/// Mount mode (§3.2): whether the parent may see the child's own children.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MountMode {
    /// Parent can access the child's children through the replica.
    Expose,
    /// Child's own mounts are hidden from the parent.
    Hide,
}

impl MountMode {
    /// Parses `"expose"`/`"hide"`.
    pub fn parse(s: &str) -> Option<MountMode> {
        match s {
            "expose" => Some(MountMode::Expose),
            "hide" => Some(MountMode::Hide),
            _ => None,
        }
    }

    /// The canonical string form.
    pub fn as_str(&self) -> &'static str {
        match self {
            MountMode::Expose => "expose",
            MountMode::Hide => "hide",
        }
    }
}

/// Write-access state of a mount edge (§3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EdgeState {
    /// The parent holds write access to the child's intent.
    Active,
    /// The parent yielded: read access only.
    Yielded,
}

/// A mount edge parent → child.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MountEdge {
    /// The controlling digivice.
    pub parent: ObjectRef,
    /// The controlled digi.
    pub child: ObjectRef,
    /// Expose/hide.
    pub mode: MountMode,
    /// Active/yielded.
    pub state: EdgeState,
}

/// Errors from graph mutations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The mount would create a cycle.
    Cycle {
        /// Attempted parent.
        parent: ObjectRef,
        /// Attempted child.
        child: ObjectRef,
    },
    /// The mount would create a diamond (two paths between a pair of digis),
    /// violating the mount rule.
    MountRule {
        /// Attempted parent.
        parent: ObjectRef,
        /// Attempted child.
        child: ObjectRef,
        /// A digi reachable by two paths if the mount were allowed.
        witness: ObjectRef,
    },
    /// The edge already exists.
    DuplicateMount(ObjectRef, ObjectRef),
    /// The edge does not exist.
    NoSuchMount(ObjectRef, ObjectRef),
    /// Unyield would give the child two active parents.
    SecondActiveParent {
        /// The child in question.
        child: ObjectRef,
        /// The parent that already holds write access.
        holder: ObjectRef,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Cycle { parent, child } => {
                write!(f, "mount {child} -> {parent} would create a cycle")
            }
            GraphError::MountRule { parent, child, witness } => write!(
                f,
                "mount {child} -> {parent} violates the mount rule: {witness} would be reachable twice"
            ),
            GraphError::DuplicateMount(p, c) => write!(f, "{c} is already mounted to {p}"),
            GraphError::NoSuchMount(p, c) => write!(f, "{c} is not mounted to {p}"),
            GraphError::SecondActiveParent { child, holder } => write!(
                f,
                "{child} already has an active parent ({holder}); yield it first"
            ),
        }
    }
}

impl std::error::Error for GraphError {}

/// The digi-graph.
///
/// Both directions of every edge are indexed with the full `(mode, state)`
/// payload, so "all edges adjacent to this digi" ([`DigiGraph::adjacent_edges`])
/// is O(degree) — no per-neighbor re-lookup through the other index.
#[derive(Debug, Clone, Default)]
pub struct DigiGraph {
    /// parent → children, with the edge payload.
    children: BTreeMap<ObjectRef, BTreeMap<ObjectRef, (MountMode, EdgeState)>>,
    /// child → parents, mirroring the same payload.
    parents: BTreeMap<ObjectRef, BTreeMap<ObjectRef, (MountMode, EdgeState)>>,
}

impl DigiGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        DigiGraph::default()
    }

    /// Returns all mount edges (sorted by parent then child).
    pub fn edges(&self) -> Vec<MountEdge> {
        let mut out = Vec::new();
        for (parent, kids) in &self.children {
            for (child, (mode, state)) in kids {
                out.push(MountEdge {
                    parent: parent.clone(),
                    child: child.clone(),
                    mode: *mode,
                    state: *state,
                });
            }
        }
        out
    }

    /// Returns the children of `parent`.
    pub fn children_of(&self, parent: &ObjectRef) -> Vec<ObjectRef> {
        self.children
            .get(parent)
            .map(|m| m.keys().cloned().collect())
            .unwrap_or_default()
    }

    /// Returns the parents of `child`.
    pub fn parents_of(&self, child: &ObjectRef) -> Vec<ObjectRef> {
        self.parents
            .get(child)
            .map(|s| s.keys().cloned().collect())
            .unwrap_or_default()
    }

    /// Returns every mount edge touching `node`, in a deterministic order:
    /// edges where `node` is the parent first (sorted by child), then edges
    /// where it is the child (sorted by parent). O(degree of `node`).
    pub fn adjacent_edges(&self, node: &ObjectRef) -> Vec<MountEdge> {
        let mut out = Vec::new();
        if let Some(kids) = self.children.get(node) {
            for (child, (mode, state)) in kids {
                out.push(MountEdge {
                    parent: node.clone(),
                    child: child.clone(),
                    mode: *mode,
                    state: *state,
                });
            }
        }
        if let Some(ps) = self.parents.get(node) {
            for (parent, (mode, state)) in ps {
                out.push(MountEdge {
                    parent: parent.clone(),
                    child: node.clone(),
                    mode: *mode,
                    state: *state,
                });
            }
        }
        out
    }

    /// Returns the parent currently holding write access over `child`, if
    /// any (single-writer invariant: there is at most one). O(degree): the
    /// parent index mirrors the edge payload.
    pub fn active_parent(&self, child: &ObjectRef) -> Option<ObjectRef> {
        self.parents
            .get(child)?
            .iter()
            .find(|(_, (_, state))| *state == EdgeState::Active)
            .map(|(p, _)| p.clone())
    }

    /// Looks up one edge.
    pub fn edge(&self, parent: &ObjectRef, child: &ObjectRef) -> Option<MountEdge> {
        let (mode, state) = self.children.get(parent)?.get(child)?;
        Some(MountEdge {
            parent: parent.clone(),
            child: child.clone(),
            mode: *mode,
            state: *state,
        })
    }

    /// All digis reachable downward from `node` (excluding `node`).
    pub fn descendants(&self, node: &ObjectRef) -> BTreeSet<ObjectRef> {
        let mut out = BTreeSet::new();
        let mut stack = self.children_of(node);
        while let Some(n) = stack.pop() {
            if out.insert(n.clone()) {
                stack.extend(self.children_of(&n));
            }
        }
        out
    }

    /// All digis reachable upward from `node` (excluding `node`).
    pub fn ancestors(&self, node: &ObjectRef) -> BTreeSet<ObjectRef> {
        let mut out = BTreeSet::new();
        let mut stack = self.parents_of(node);
        while let Some(n) = stack.pop() {
            if out.insert(n.clone()) {
                stack.extend(self.parents_of(&n));
            }
        }
        out
    }

    /// Checks whether mounting `child` to `parent` is legal without
    /// mutating the graph. This is the **mount rule** check (§3.3): the
    /// resulting graph must stay a diamond-free poset.
    pub fn check_mount(&self, child: &ObjectRef, parent: &ObjectRef) -> Result<(), GraphError> {
        if self.edge(parent, child).is_some() {
            return Err(GraphError::DuplicateMount(parent.clone(), child.clone()));
        }
        if child == parent {
            return Err(GraphError::Cycle {
                parent: parent.clone(),
                child: child.clone(),
            });
        }
        // Cycle: parent reachable downward from child.
        let down_of_child = self.descendants(child);
        if down_of_child.contains(parent) {
            return Err(GraphError::Cycle {
                parent: parent.clone(),
                child: child.clone(),
            });
        }
        // Diamond: adding parent→child creates a second path x→…→y whenever
        // some ancestor-or-self x of parent already reaches some
        // descendant-or-self y of child.
        let mut up_of_parent = self.ancestors(parent);
        up_of_parent.insert(parent.clone());
        let mut down_of_child = down_of_child;
        down_of_child.insert(child.clone());
        for x in &up_of_parent {
            let mut reach = self.descendants(x);
            reach.insert(x.clone());
            if let Some(witness) = down_of_child.intersection(&reach).next() {
                return Err(GraphError::MountRule {
                    parent: parent.clone(),
                    child: child.clone(),
                    witness: witness.clone(),
                });
            }
        }
        Ok(())
    }

    /// Mounts `child` to `parent` after checking the mount rule.
    ///
    /// Single-writer handling (§3.4): if the child already has an active
    /// parent, the new edge is created in the *yielded* state ("the mount
    /// is automatically followed by a yield"); otherwise it starts active.
    /// Returns the state the edge was created in.
    pub fn mount(
        &mut self,
        child: &ObjectRef,
        parent: &ObjectRef,
        mode: MountMode,
    ) -> Result<EdgeState, GraphError> {
        self.check_mount(child, parent)?;
        let state = if self.active_parent(child).is_some() {
            EdgeState::Yielded
        } else {
            EdgeState::Active
        };
        self.children
            .entry(parent.clone())
            .or_default()
            .insert(child.clone(), (mode, state));
        self.parents
            .entry(child.clone())
            .or_default()
            .insert(parent.clone(), (mode, state));
        Ok(state)
    }

    /// Re-installs an edge recovered from durable storage, bypassing the
    /// mount-rule check and the yield-on-second-parent transition: the edge
    /// was legal when it committed, and its `(mode, state)` payload — not a
    /// recomputed one — is the truth being restored.
    pub fn restore(&mut self, edge: MountEdge) {
        self.children
            .entry(edge.parent.clone())
            .or_default()
            .insert(edge.child.clone(), (edge.mode, edge.state));
        self.parents
            .entry(edge.child)
            .or_default()
            .insert(edge.parent, (edge.mode, edge.state));
    }

    /// Removes a mount edge.
    pub fn unmount(&mut self, child: &ObjectRef, parent: &ObjectRef) -> Result<(), GraphError> {
        let kids = self
            .children
            .get_mut(parent)
            .ok_or_else(|| GraphError::NoSuchMount(parent.clone(), child.clone()))?;
        if kids.remove(child).is_none() {
            return Err(GraphError::NoSuchMount(parent.clone(), child.clone()));
        }
        if kids.is_empty() {
            self.children.remove(parent);
        }
        if let Some(ps) = self.parents.get_mut(child) {
            ps.remove(parent);
            if ps.is_empty() {
                self.parents.remove(child);
            }
        }
        Ok(())
    }

    /// Drops every edge with at least one endpoint in `namespace` (used
    /// when a namespace is deleted: its digis are gone, so mounts into or
    /// out of it are dangling). Returns the number of edges removed.
    pub fn remove_namespace(&mut self, namespace: &str) -> usize {
        let doomed: Vec<(ObjectRef, ObjectRef)> = self
            .children
            .iter()
            .flat_map(|(parent, kids)| {
                kids.keys()
                    .filter(|child| parent.namespace == namespace || child.namespace == namespace)
                    .map(|child| (parent.clone(), child.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        for (parent, child) in &doomed {
            self.unmount(child, parent).expect("edge listed above");
        }
        doomed.len()
    }

    /// Yields `parent`'s write access over `child` (edge → yielded).
    pub fn yield_edge(&mut self, child: &ObjectRef, parent: &ObjectRef) -> Result<(), GraphError> {
        match self.children.get_mut(parent).and_then(|k| k.get_mut(child)) {
            Some((_, state)) => {
                *state = EdgeState::Yielded;
                self.mirror_state(child, parent, EdgeState::Yielded);
                Ok(())
            }
            None => Err(GraphError::NoSuchMount(parent.clone(), child.clone())),
        }
    }

    /// Keeps the child→parent payload mirror in sync after a state change.
    fn mirror_state(&mut self, child: &ObjectRef, parent: &ObjectRef, state: EdgeState) {
        let (_, s) = self
            .parents
            .get_mut(child)
            .and_then(|ps| ps.get_mut(parent))
            .expect("parent index mirrors children index");
        *s = state;
    }

    /// Restores `parent`'s write access over `child` (edge → active).
    ///
    /// Fails if another parent currently holds write access — the
    /// single-writer invariant.
    pub fn unyield_edge(
        &mut self,
        child: &ObjectRef,
        parent: &ObjectRef,
    ) -> Result<(), GraphError> {
        if let Some(holder) = self.active_parent(child) {
            if holder != *parent {
                return Err(GraphError::SecondActiveParent {
                    child: child.clone(),
                    holder,
                });
            }
            return Ok(()); // Already active.
        }
        match self.children.get_mut(parent).and_then(|k| k.get_mut(child)) {
            Some((_, state)) => {
                *state = EdgeState::Active;
                self.mirror_state(child, parent, EdgeState::Active);
                Ok(())
            }
            None => Err(GraphError::NoSuchMount(parent.clone(), child.clone())),
        }
    }

    /// Verifies the multitree invariant over the whole graph; returns a
    /// violating pair if any (used by property tests).
    pub fn verify_multitree(&self) -> Result<(), (ObjectRef, ObjectRef)> {
        // Count directed paths between all pairs via DFS from each node;
        // a multitree has at most one path per ordered pair.
        let nodes: BTreeSet<ObjectRef> = self
            .children
            .keys()
            .chain(self.parents.keys())
            .cloned()
            .collect();
        for start in &nodes {
            let mut counts: BTreeMap<ObjectRef, u64> = BTreeMap::new();
            // DFS with memoized path counts would be fine; graphs are small,
            // use simple recursion via explicit stack of paths.
            fn count_paths(g: &DigiGraph, from: &ObjectRef, counts: &mut BTreeMap<ObjectRef, u64>) {
                for c in g.children_of(from) {
                    *counts.entry(c.clone()).or_insert(0) += 1;
                    count_paths(g, &c, counts);
                }
            }
            count_paths(self, start, &mut counts);
            if let Some((n, _)) = counts.iter().find(|(_, c)| **c > 1) {
                return Err((start.clone(), n.clone()));
            }
        }
        Ok(())
    }

    /// Verifies the single-writer invariant; returns a violating child.
    pub fn verify_single_writer(&self) -> Result<(), ObjectRef> {
        for (child, parents) in &self.parents {
            let active = parents
                .values()
                .filter(|(_, state)| *state == EdgeState::Active)
                .count();
            if active > 1 {
                return Err(child.clone());
            }
        }
        Ok(())
    }

    /// Verifies that the child→parent index mirrors the parent→child index
    /// exactly (payload included). Used by tests.
    pub fn verify_mirror(&self) -> Result<(), (ObjectRef, ObjectRef)> {
        let forward: BTreeSet<(ObjectRef, ObjectRef, MountMode, EdgeState)> = self
            .children
            .iter()
            .flat_map(|(p, kids)| {
                kids.iter()
                    .map(|(c, (m, s))| (p.clone(), c.clone(), *m, *s))
                    .collect::<Vec<_>>()
            })
            .collect();
        let backward: BTreeSet<(ObjectRef, ObjectRef, MountMode, EdgeState)> = self
            .parents
            .iter()
            .flat_map(|(c, ps)| {
                ps.iter()
                    .map(|(p, (m, s))| (p.clone(), c.clone(), *m, *s))
                    .collect::<Vec<_>>()
            })
            .collect();
        match forward.symmetric_difference(&backward).next() {
            None => Ok(()),
            Some((p, c, _, _)) => Err((p.clone(), c.clone())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(name: &str) -> ObjectRef {
        ObjectRef::default_ns("Digi", name)
    }

    #[test]
    fn simple_mount_chain() {
        let mut g = DigiGraph::new();
        assert_eq!(
            g.mount(&d("lamp"), &d("room"), MountMode::Expose).unwrap(),
            EdgeState::Active
        );
        assert_eq!(
            g.mount(&d("room"), &d("home"), MountMode::Expose).unwrap(),
            EdgeState::Active
        );
        assert_eq!(g.children_of(&d("room")), vec![d("lamp")]);
        assert_eq!(g.parents_of(&d("room")), vec![d("home")]);
        assert_eq!(g.active_parent(&d("lamp")), Some(d("room")));
        assert_eq!(g.descendants(&d("home")).len(), 2);
        assert_eq!(g.ancestors(&d("lamp")).len(), 2);
    }

    #[test]
    fn cycle_rejected() {
        let mut g = DigiGraph::new();
        g.mount(&d("b"), &d("a"), MountMode::Expose).unwrap();
        g.mount(&d("c"), &d("b"), MountMode::Expose).unwrap();
        // a -> b -> c; mounting a under c closes the loop.
        assert!(matches!(
            g.mount(&d("a"), &d("c"), MountMode::Expose),
            Err(GraphError::Cycle { .. })
        ));
        // Self mount.
        assert!(matches!(
            g.mount(&d("a"), &d("a"), MountMode::Expose),
            Err(GraphError::Cycle { .. })
        ));
    }

    #[test]
    fn fig2a_diamond_rejected() {
        // Fig. 2a of the paper: X -> Z exists; B mounts X, then mounting Z
        // to B would let B write Z both directly and through X.
        let mut g = DigiGraph::new();
        g.mount(&d("z"), &d("x"), MountMode::Expose).unwrap();
        g.mount(&d("x"), &d("b"), MountMode::Expose).unwrap();
        let err = g.mount(&d("z"), &d("b"), MountMode::Expose).unwrap_err();
        assert!(matches!(err, GraphError::MountRule { .. }), "{err}");
    }

    #[test]
    fn deep_diamond_rejected() {
        // a -> b -> c -> z; mounting z under a (via a fresh intermediate)
        // still violates: a already reaches z.
        let mut g = DigiGraph::new();
        g.mount(&d("b"), &d("a"), MountMode::Expose).unwrap();
        g.mount(&d("c"), &d("b"), MountMode::Expose).unwrap();
        g.mount(&d("z"), &d("c"), MountMode::Expose).unwrap();
        assert!(g.mount(&d("z"), &d("a"), MountMode::Expose).is_err());
        // And mounting via an intermediate w mounted to a:
        g.mount(&d("w"), &d("a"), MountMode::Expose).unwrap();
        assert!(g.mount(&d("z"), &d("w"), MountMode::Expose).is_err());
    }

    #[test]
    fn multi_rooted_hierarchy_allowed() {
        // Fig. 2b: a digivice may have two parents in disjoint hierarchies.
        let mut g = DigiGraph::new();
        assert_eq!(
            g.mount(&d("lamp"), &d("room"), MountMode::Expose).unwrap(),
            EdgeState::Active
        );
        // Second parent: allowed, but starts yielded (single writer).
        assert_eq!(
            g.mount(&d("lamp"), &d("power-ctl"), MountMode::Expose)
                .unwrap(),
            EdgeState::Yielded
        );
        assert_eq!(g.parents_of(&d("lamp")).len(), 2);
        assert_eq!(g.active_parent(&d("lamp")), Some(d("room")));
        g.verify_multitree().unwrap();
        g.verify_single_writer().unwrap();
    }

    #[test]
    fn yield_transfers_write_access() {
        let mut g = DigiGraph::new();
        g.mount(&d("lamp"), &d("room"), MountMode::Expose).unwrap();
        g.mount(&d("lamp"), &d("power-ctl"), MountMode::Expose)
            .unwrap();
        // power-ctl cannot unyield while room is active.
        assert!(matches!(
            g.unyield_edge(&d("lamp"), &d("power-ctl")),
            Err(GraphError::SecondActiveParent { .. })
        ));
        // Transfer: yield room, then unyield power-ctl.
        g.yield_edge(&d("lamp"), &d("room")).unwrap();
        assert_eq!(g.active_parent(&d("lamp")), None);
        g.unyield_edge(&d("lamp"), &d("power-ctl")).unwrap();
        assert_eq!(g.active_parent(&d("lamp")), Some(d("power-ctl")));
        g.verify_single_writer().unwrap();
    }

    #[test]
    fn unmount_removes_edge() {
        let mut g = DigiGraph::new();
        g.mount(&d("lamp"), &d("room"), MountMode::Expose).unwrap();
        g.unmount(&d("lamp"), &d("room")).unwrap();
        assert!(g.children_of(&d("room")).is_empty());
        assert!(g.parents_of(&d("lamp")).is_empty());
        assert!(matches!(
            g.unmount(&d("lamp"), &d("room")),
            Err(GraphError::NoSuchMount(..))
        ));
        // After unmounting, remount is legal again.
        g.mount(&d("lamp"), &d("room"), MountMode::Hide).unwrap();
        assert_eq!(
            g.edge(&d("room"), &d("lamp")).unwrap().mode,
            MountMode::Hide
        );
    }

    #[test]
    fn duplicate_mount_rejected() {
        let mut g = DigiGraph::new();
        g.mount(&d("lamp"), &d("room"), MountMode::Expose).unwrap();
        assert!(matches!(
            g.mount(&d("lamp"), &d("room"), MountMode::Expose),
            Err(GraphError::DuplicateMount(..))
        ));
    }

    #[test]
    fn device_mobility_remount() {
        // S8: roomba moves from room-a to room-b.
        let mut g = DigiGraph::new();
        g.mount(&d("roomba"), &d("room-a"), MountMode::Expose)
            .unwrap();
        g.unmount(&d("roomba"), &d("room-a")).unwrap();
        let st = g
            .mount(&d("roomba"), &d("room-b"), MountMode::Expose)
            .unwrap();
        assert_eq!(st, EdgeState::Active);
        assert_eq!(g.active_parent(&d("roomba")), Some(d("room-b")));
    }

    #[test]
    fn adjacent_edges_covers_both_directions() {
        let mut g = DigiGraph::new();
        g.mount(&d("lamp"), &d("room"), MountMode::Expose).unwrap();
        g.mount(&d("room"), &d("home"), MountMode::Hide).unwrap();
        let adj = g.adjacent_edges(&d("room"));
        assert_eq!(adj.len(), 2);
        // Parent-side edge first, then child-side.
        assert_eq!(
            (adj[0].parent.clone(), adj[0].child.clone()),
            (d("room"), d("lamp"))
        );
        assert_eq!(adj[0].mode, MountMode::Expose);
        assert_eq!(
            (adj[1].parent.clone(), adj[1].child.clone()),
            (d("home"), d("room"))
        );
        assert_eq!(adj[1].mode, MountMode::Hide);
        assert!(g.adjacent_edges(&d("nobody")).is_empty());
        g.verify_mirror().unwrap();
    }

    #[test]
    fn mirror_tracks_state_changes() {
        let mut g = DigiGraph::new();
        g.mount(&d("lamp"), &d("room"), MountMode::Expose).unwrap();
        g.mount(&d("lamp"), &d("power-ctl"), MountMode::Expose)
            .unwrap();
        g.verify_mirror().unwrap();
        g.yield_edge(&d("lamp"), &d("room")).unwrap();
        g.unyield_edge(&d("lamp"), &d("power-ctl")).unwrap();
        g.verify_mirror().unwrap();
        // The child-side view reports the new states without edge() calls.
        let adj = g.adjacent_edges(&d("lamp"));
        let state_of = |p: &ObjectRef| {
            adj.iter()
                .find(|e| e.parent == *p)
                .map(|e| e.state)
                .unwrap()
        };
        assert_eq!(state_of(&d("room")), EdgeState::Yielded);
        assert_eq!(state_of(&d("power-ctl")), EdgeState::Active);
    }

    #[test]
    fn remove_namespace_drops_cross_namespace_edges() {
        let mut g = DigiGraph::new();
        let guest_lamp = ObjectRef::new("Digi", "guest", "lamp");
        let guest_hub = ObjectRef::new("Digi", "guest", "hub");
        g.mount(&guest_lamp, &guest_hub, MountMode::Expose).unwrap();
        // Cross-namespace mount: default-ns home controls the guest hub.
        g.mount(&guest_hub, &d("home"), MountMode::Expose).unwrap();
        g.mount(&d("lamp"), &d("home"), MountMode::Expose).unwrap();
        assert_eq!(g.remove_namespace("guest"), 2);
        g.verify_mirror().unwrap();
        assert_eq!(g.edges().len(), 1);
        assert_eq!(g.children_of(&d("home")), vec![d("lamp")]);
        assert!(g.adjacent_edges(&guest_hub).is_empty());
        assert_eq!(g.remove_namespace("guest"), 0);
    }

    #[test]
    fn campus_hierarchy_is_legal() {
        // §2.3's campus example: campus -> buildings -> floors -> rooms.
        let mut g = DigiGraph::new();
        for b in ["b1", "b2"] {
            g.mount(&d(b), &d("campus"), MountMode::Expose).unwrap();
            for f in ["f1", "f2"] {
                let floor = format!("{b}-{f}");
                g.mount(&d(&floor), &d(b), MountMode::Expose).unwrap();
                for r in ["r1", "r2"] {
                    g.mount(&d(&format!("{floor}-{r}")), &d(&floor), MountMode::Expose)
                        .unwrap();
                }
            }
        }
        g.verify_multitree().unwrap();
        assert_eq!(g.descendants(&d("campus")).len(), 2 + 4 + 8);
    }
}
