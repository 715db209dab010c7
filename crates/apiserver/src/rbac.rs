//! Role-based access control (§3.6 of the paper).
//!
//! Each digi driver is associated with a role that constrains its access to
//! its own model — one kind, namespace and name, like a Kubernetes
//! namespaced `Role`; dSpace controllers get space-wide roles granting the
//! access needed to enforce composition (the mounter gets write access to
//! parents and their children), like `ClusterRole`s; users and third-party
//! digis are granted access by the admin following standard k8s RBAC
//! practice.

use std::collections::{BTreeMap, BTreeSet};

use crate::object::ObjectRef;

/// The API verbs RBAC rules can grant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verb {
    /// Read one object.
    Get,
    /// List objects of a kind.
    List,
    /// Subscribe to changes.
    Watch,
    /// Create an object.
    Create,
    /// Replace an object.
    Update,
    /// Merge into an object.
    Patch,
    /// Delete an object.
    Delete,
}

impl Verb {
    /// All verbs, for `verbs: ["*"]`-style rules.
    pub const ALL: [Verb; 7] = [
        Verb::Get,
        Verb::List,
        Verb::Watch,
        Verb::Create,
        Verb::Update,
        Verb::Patch,
        Verb::Delete,
    ];

    /// Returns `true` for verbs that mutate state.
    pub fn is_mutation(&self) -> bool {
        matches!(
            self,
            Verb::Create | Verb::Update | Verb::Patch | Verb::Delete
        )
    }
}

/// One RBAC rule: a set of verbs over kinds, namespaces and names.
///
/// `kinds`/`namespaces`/`names` support the wildcard `"*"`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// Granted verbs.
    pub verbs: BTreeSet<Verb>,
    /// Kinds the rule applies to (`"*"` = all).
    pub kinds: BTreeSet<String>,
    /// Namespaces the rule applies to (`"*"` = all).
    pub namespaces: BTreeSet<String>,
    /// Object names the rule applies to (`"*"` = all).
    pub names: BTreeSet<String>,
}

impl Rule {
    /// Builds a rule over every namespace from iterators; pass `["*"]` for
    /// wildcards.
    pub fn new<V, K, N>(verbs: V, kinds: K, names: N) -> Self
    where
        V: IntoIterator<Item = Verb>,
        K: IntoIterator<Item = &'static str>,
        N: IntoIterator<Item = &'static str>,
    {
        Rule {
            verbs: verbs.into_iter().collect(),
            kinds: kinds.into_iter().map(str::to_string).collect(),
            namespaces: std::iter::once("*".to_string()).collect(),
            names: names.into_iter().map(str::to_string).collect(),
        }
    }

    /// A rule granting every verb on every object.
    pub fn allow_all() -> Self {
        Rule::new(Verb::ALL, ["*"], ["*"])
    }

    /// Read-only access (get/list/watch) to the given kinds.
    pub fn read_only<K: IntoIterator<Item = &'static str>>(kinds: K) -> Self {
        Rule::new([Verb::Get, Verb::List, Verb::Watch], kinds, ["*"])
    }

    /// A rule scoped to one object: its kind, namespace and name.
    pub fn for_object<V: IntoIterator<Item = Verb>>(verbs: V, oref: &ObjectRef) -> Self {
        let one = |s: &str| std::iter::once(s.to_string()).collect();
        Rule {
            verbs: verbs.into_iter().collect(),
            kinds: one(&oref.kind),
            namespaces: one(&oref.namespace),
            names: one(&oref.name),
        }
    }

    /// Returns `true` if this rule permits `verb` on `oref`.
    pub fn permits(&self, verb: Verb, oref: &ObjectRef) -> bool {
        let covers = |set: &BTreeSet<String>, s: &str| set.contains("*") || set.contains(s);
        self.verbs.contains(&verb)
            && covers(&self.kinds, &oref.kind)
            && covers(&self.namespaces, &oref.namespace)
            && covers(&self.names, &oref.name)
    }
}

/// A named collection of rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Role {
    /// Role name, e.g. `digi:room` or `controller:mounter`.
    pub name: String,
    /// The rules this role grants.
    pub rules: Vec<Rule>,
}

impl Role {
    /// Creates a role.
    pub fn new(name: impl Into<String>, rules: Vec<Rule>) -> Self {
        Role {
            name: name.into(),
            rules,
        }
    }
}

/// Binds a subject (user, digi driver, controller) to a role.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoleBinding {
    /// The subject name.
    pub subject: String,
    /// The bound role name.
    pub role: String,
}

/// The RBAC authorizer: roles plus subject→role bindings.
#[derive(Debug, Clone, Default)]
pub struct Rbac {
    roles: BTreeMap<String, Role>,
    bindings: BTreeMap<String, BTreeSet<String>>,
}

impl Rbac {
    /// Creates an empty authorizer.
    pub fn new() -> Self {
        Rbac::default()
    }

    /// Registers (or replaces) a role.
    pub fn add_role(&mut self, role: Role) {
        self.roles.insert(role.name.clone(), role);
    }

    /// Binds `subject` to role `role`.
    pub fn bind(&mut self, subject: impl Into<String>, role: impl Into<String>) {
        self.bindings
            .entry(subject.into())
            .or_default()
            .insert(role.into());
    }

    /// Removes a binding; no-op if absent.
    pub fn unbind(&mut self, subject: &str, role: &str) {
        if let Some(set) = self.bindings.get_mut(subject) {
            set.remove(role);
        }
    }

    /// Returns `true` if `subject` may perform `verb` on `oref`.
    pub fn authorize(&self, subject: &str, verb: Verb, oref: &ObjectRef) -> bool {
        let Some(roles) = self.bindings.get(subject) else {
            return false;
        };
        roles
            .iter()
            .filter_map(|r| self.roles.get(r))
            .flat_map(|r| r.rules.iter())
            .any(|rule| rule.permits(verb, oref))
    }

    /// Lists the roles bound to a subject.
    pub fn roles_of(&self, subject: &str) -> Vec<&str> {
        self.bindings
            .get(subject)
            .map(|s| s.iter().map(String::as_str).collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lamp() -> ObjectRef {
        ObjectRef::default_ns("Lamp", "l1")
    }

    #[test]
    fn unbound_subject_is_denied() {
        let rbac = Rbac::new();
        assert!(!rbac.authorize("nobody", Verb::Get, &lamp()));
    }

    #[test]
    fn allow_all_role_grants_everything() {
        let mut rbac = Rbac::new();
        rbac.add_role(Role::new("admin", vec![Rule::allow_all()]));
        rbac.bind("alice", "admin");
        for v in Verb::ALL {
            assert!(rbac.authorize("alice", v, &lamp()));
        }
    }

    #[test]
    fn read_only_role_denies_writes() {
        let mut rbac = Rbac::new();
        rbac.add_role(Role::new("viewer", vec![Rule::read_only(["Lamp"])]));
        rbac.bind("bob", "viewer");
        assert!(rbac.authorize("bob", Verb::Get, &lamp()));
        assert!(rbac.authorize("bob", Verb::Watch, &lamp()));
        assert!(!rbac.authorize("bob", Verb::Update, &lamp()));
        // Different kind is denied too.
        let room = ObjectRef::default_ns("Room", "r1");
        assert!(!rbac.authorize("bob", Verb::Get, &room));
    }

    #[test]
    fn name_scoped_rule() {
        let mut rbac = Rbac::new();
        rbac.add_role(Role::new(
            "own-model",
            vec![Rule::new([Verb::Get, Verb::Patch], ["Lamp"], ["l1"])],
        ));
        rbac.bind("lamp-driver", "own-model");
        assert!(rbac.authorize("lamp-driver", Verb::Patch, &lamp()));
        let other = ObjectRef::default_ns("Lamp", "l2");
        assert!(!rbac.authorize("lamp-driver", Verb::Patch, &other));
    }

    #[test]
    fn object_rule_is_confined_to_its_namespace() {
        let own = ObjectRef::new("Lamp", "h0", "l1");
        let rule = Rule::for_object([Verb::Get, Verb::Patch], &own);
        assert!(rule.permits(Verb::Patch, &own));
        // The same kind and name in another home is someone else's lamp.
        assert!(!rule.permits(Verb::Patch, &ObjectRef::new("Lamp", "h1", "l1")));
        // A probe spanning every namespace is not covered either.
        assert!(!rule.permits(Verb::Get, &ObjectRef::new("Lamp", "*", "l1")));
        assert!(Rule::allow_all().permits(Verb::Patch, &ObjectRef::new("Lamp", "h1", "l1")));
    }

    #[test]
    fn multiple_roles_union() {
        let mut rbac = Rbac::new();
        rbac.add_role(Role::new("viewer", vec![Rule::read_only(["*"])]));
        rbac.add_role(Role::new(
            "lamp-writer",
            vec![Rule::new([Verb::Patch], ["Lamp"], ["*"])],
        ));
        rbac.bind("carol", "viewer");
        rbac.bind("carol", "lamp-writer");
        assert!(rbac.authorize("carol", Verb::Get, &lamp()));
        assert!(rbac.authorize("carol", Verb::Patch, &lamp()));
        assert!(!rbac.authorize("carol", Verb::Delete, &lamp()));
        rbac.unbind("carol", "lamp-writer");
        assert!(!rbac.authorize("carol", Verb::Patch, &lamp()));
    }

    #[test]
    fn mutation_classification() {
        assert!(Verb::Create.is_mutation());
        assert!(Verb::Delete.is_mutation());
        assert!(!Verb::Get.is_mutation());
        assert!(!Verb::Watch.is_mutation());
    }
}
