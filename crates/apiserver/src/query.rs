//! Composable queries over the store: one builder for list *and* watch,
//! with `reflex` as the predicate language.
//!
//! A [`Query`] names a slice of the object space (`kind` / namespace /
//! object name) plus an optional filter predicate compiled from reflex
//! source. The planner extracts a *restricted subset* of the predicate —
//! comparisons of a literal against a root field path, composed with
//! `and` / `or` — into a [`Plan`] of index probes. The plan is only ever
//! a **superset** approximation: the store narrows candidates through
//! secondary indexes and then re-evaluates the full predicate with
//! reflex on each survivor, so planner and evaluator can never disagree.
//! Anything the planner does not understand (`not`, `!=`, computed
//! indices, pipes, calls, …) degrades to a full scan of the kind slice,
//! never to a wrong answer.
//!
//! The same [`QueryPred`] doubles as a *predicate watch selector*: the
//! commit path evaluates it against the committed model (pre-filtered by
//! the index delta it just computed) so non-matching events never go
//! pending for the watcher.

use std::collections::BTreeSet;
use std::fmt;
use std::ops::Bound;

use dspace_reflex::ast::{BinOp, Expr, PathStep};
use dspace_reflex::{Env, Program};
use dspace_value::{Path, Segment, Value};

use crate::object::ObjectRef;
use crate::store::WatchSelector;

/// A single value's position in an index: the total order every
/// secondary index is keyed by.
///
/// Scalars order within their own type; across types the rank is
/// `Null < Bool < Num < Str < Complex`. Arrays and objects collapse to
/// [`IndexKey::Complex`]: they are indexed (so posting lists stay
/// complete) but the planner never probes for them with anything other
/// than a superset range, and the reflex re-evaluation decides. An
/// absent path is [`IndexKey::Null`], matching reflex path semantics
/// (missing fields evaluate to `null`).
#[derive(Debug, Clone)]
pub enum IndexKey {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Complex,
}

impl IndexKey {
    /// Keys the value at an indexed path. `None` (absent path) and
    /// `null` are deliberately the same key — reflex evaluates both to
    /// `null`.
    pub fn of(v: Option<&Value>) -> IndexKey {
        match v {
            None | Some(Value::Null) => IndexKey::Null,
            Some(Value::Bool(b)) => IndexKey::Bool(*b),
            Some(Value::Num(n)) => IndexKey::num(*n),
            Some(Value::Str(s)) => IndexKey::Str(s.clone()),
            Some(Value::Array(_)) | Some(Value::Object(_)) => IndexKey::Complex,
        }
    }

    /// Normalizes `-0.0` to `0.0` so `IndexKey` equality (via
    /// `total_cmp`) agrees with `Value` equality (via `f64 ==`).
    fn num(n: f64) -> IndexKey {
        IndexKey::Num(if n == 0.0 { 0.0 } else { n })
    }

    fn rank(&self) -> u8 {
        match self {
            IndexKey::Null => 0,
            IndexKey::Bool(_) => 1,
            IndexKey::Num(_) => 2,
            IndexKey::Str(_) => 3,
            IndexKey::Complex => 4,
        }
    }
}

impl Ord for IndexKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        match (self, other) {
            (IndexKey::Bool(a), IndexKey::Bool(b)) => a.cmp(b),
            (IndexKey::Num(a), IndexKey::Num(b)) => a.total_cmp(b),
            (IndexKey::Str(a), IndexKey::Str(b)) => a.cmp(b),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

impl PartialOrd for IndexKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for IndexKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for IndexKey {}

impl fmt::Display for IndexKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexKey::Null => write!(f, "null"),
            IndexKey::Bool(b) => write!(f, "{b}"),
            IndexKey::Num(n) => write!(f, "{n:?}"),
            IndexKey::Str(s) => write!(f, "{s:?}"),
            IndexKey::Complex => write!(f, "<complex>"),
        }
    }
}

/// The index-probe plan extracted from a predicate. Candidate sets are
/// supersets of the true matches; the full predicate is re-evaluated on
/// every candidate.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Nothing extractable: scan the kind slice.
    Full,
    /// `path == literal` (either operand order).
    Eq { path: Path, key: IndexKey },
    /// `path < / <= / > / >= literal`. Bounds are in `IndexKey` order,
    /// which deliberately over-approximates mixed-type comparisons —
    /// reflex errors those out at re-evaluation.
    Range {
        path: Path,
        lo: Bound<IndexKey>,
        hi: Bound<IndexKey>,
    },
    /// Intersection of sub-plans (none of which is `Full`).
    And(Vec<Plan>),
    /// Union of sub-plans (none of which is `Full`).
    Or(Vec<Plan>),
}

impl Plan {
    pub fn is_full(&self) -> bool {
        matches!(self, Plan::Full)
    }

    /// Collects every path the plan probes, i.e. the indexes it wants.
    pub fn paths(&self, out: &mut BTreeSet<Path>) {
        match self {
            Plan::Full => {}
            Plan::Eq { path, .. } | Plan::Range { path, .. } => {
                out.insert(path.clone());
            }
            Plan::And(ps) | Plan::Or(ps) => {
                for p in ps {
                    p.paths(out);
                }
            }
        }
    }

    /// Could a model whose value at `path` keys to `key` possibly match?
    /// `false` is a proof of non-membership in the candidate superset
    /// (and therefore of a non-match); `true` just means "evaluate it".
    /// This is what the commit path uses to skip predicate evaluation
    /// against the index delta it already computed.
    pub fn admits(&self, path: &Path, key: &IndexKey) -> bool {
        match self {
            Plan::Full => true,
            Plan::Eq { path: p, key: k } => p != path || key == k,
            Plan::Range { path: p, lo, hi } => p != path || (above(lo, key) && below(hi, key)),
            Plan::And(ps) => ps.iter().all(|p| p.admits(path, key)),
            Plan::Or(ps) => ps.iter().any(|p| p.admits(path, key)),
        }
    }
}

fn above(lo: &Bound<IndexKey>, k: &IndexKey) -> bool {
    match lo {
        Bound::Unbounded => true,
        Bound::Included(l) => k >= l,
        Bound::Excluded(l) => k > l,
    }
}

fn below(hi: &Bound<IndexKey>, k: &IndexKey) -> bool {
    match hi {
        Bound::Unbounded => true,
        Bound::Included(h) => k <= h,
        Bound::Excluded(h) => k < h,
    }
}

/// Extracts the plannable subset of an expression. Soundness invariant:
/// the returned plan's candidate set is a superset of the models for
/// which `e` evaluates truthy (evaluation errors count as non-matches).
fn plan_expr(e: &Expr) -> Plan {
    match e {
        Expr::And(a, b) => and(plan_expr(a), plan_expr(b)),
        Expr::Or(a, b) => or(plan_expr(a), plan_expr(b)),
        Expr::Binary(op, a, b) => plan_cmp(*op, a, b),
        _ => Plan::Full,
    }
}

fn and(a: Plan, b: Plan) -> Plan {
    match (a, b) {
        (Plan::Full, x) | (x, Plan::Full) => x,
        (Plan::And(mut v), Plan::And(w)) => {
            v.extend(w);
            Plan::And(v)
        }
        (Plan::And(mut v), x) => {
            v.push(x);
            Plan::And(v)
        }
        (x, Plan::And(mut v)) => {
            v.insert(0, x);
            Plan::And(v)
        }
        (x, y) => Plan::And(vec![x, y]),
    }
}

fn or(a: Plan, b: Plan) -> Plan {
    match (a, b) {
        (Plan::Full, _) | (_, Plan::Full) => Plan::Full,
        (Plan::Or(mut v), Plan::Or(w)) => {
            v.extend(w);
            Plan::Or(v)
        }
        (Plan::Or(mut v), x) => {
            v.push(x);
            Plan::Or(v)
        }
        (x, Plan::Or(mut v)) => {
            v.insert(0, x);
            Plan::Or(v)
        }
        (x, y) => Plan::Or(vec![x, y]),
    }
}

fn plan_cmp(op: BinOp, lhs: &Expr, rhs: &Expr) -> Plan {
    // `path OP literal` or, flipped, `literal OP path`.
    let (path, lit, op) = match (root_field_path(lhs), literal(rhs)) {
        (Some(p), Some(l)) => (p, l, op),
        _ => match (literal(lhs), root_field_path(rhs)) {
            (Some(l), Some(p)) => {
                let Some(flipped) = flip(op) else {
                    return Plan::Full;
                };
                (p, l, flipped)
            }
            _ => return Plan::Full,
        },
    };
    let key = IndexKey::of(Some(&lit));
    match op {
        BinOp::Eq => Plan::Eq { path, key },
        // `null` sorts below every other key, so `path < lit` keeps the
        // absent-path models (reflex: `null < anything` is true) and
        // `path > lit` excludes them — exactly mirroring `compare()`.
        BinOp::Lt => Plan::Range {
            path,
            lo: Bound::Unbounded,
            hi: Bound::Excluded(key),
        },
        BinOp::Le => Plan::Range {
            path,
            lo: Bound::Unbounded,
            hi: Bound::Included(key),
        },
        BinOp::Gt => Plan::Range {
            path,
            lo: Bound::Excluded(key),
            hi: Bound::Unbounded,
        },
        BinOp::Ge => Plan::Range {
            path,
            lo: Bound::Included(key),
            hi: Bound::Unbounded,
        },
        // `!=` is a complement — not a contiguous probe; arithmetic
        // never yields a boolean worth planning.
        _ => Plan::Full,
    }
}

/// `literal OP path` ≡ `path flip(OP) literal`.
fn flip(op: BinOp) -> Option<BinOp> {
    match op {
        BinOp::Eq => Some(BinOp::Eq),
        BinOp::Lt => Some(BinOp::Gt),
        BinOp::Le => Some(BinOp::Ge),
        BinOp::Gt => Some(BinOp::Lt),
        BinOp::Ge => Some(BinOp::Le),
        _ => None,
    }
}

/// `.a.b.c` — a path rooted at the document with static field steps
/// only. Computed indices (`.a[.i]`) depend on more than the path and
/// are left to the evaluator.
fn root_field_path(e: &Expr) -> Option<Path> {
    let Expr::Path(base, steps) = e else {
        return None;
    };
    if !matches!(base.as_ref(), Expr::Identity) || steps.is_empty() {
        return None;
    }
    let mut segs = Vec::with_capacity(steps.len());
    for s in steps {
        match s {
            PathStep::Field(name) => segs.push(Segment::Key(name.clone())),
            PathStep::Index(_) => return None,
        }
    }
    Some(Path::new(segs))
}

fn literal(e: &Expr) -> Option<Value> {
    match e {
        Expr::Literal(v) => Some(v.clone()),
        // The lexer parses `-5` as negation of a literal.
        Expr::Neg(inner) => match inner.as_ref() {
            Expr::Literal(Value::Num(n)) => Some(Value::Num(-n)),
            _ => None,
        },
        _ => None,
    }
}

/// A compiled filter predicate: the reflex program (single source of
/// truth for matching) plus the index plan extracted from it.
#[derive(Debug, Clone)]
pub struct QueryPred {
    program: Program,
    plan: Plan,
}

impl QueryPred {
    pub fn compile(src: &str) -> Result<QueryPred, QueryError> {
        let program = Program::compile(src).map_err(|e| QueryError::Compile(e.to_string()))?;
        let plan = plan_expr(program.expr());
        Ok(QueryPred { program, plan })
    }

    pub fn source(&self) -> &str {
        &self.program.source
    }

    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Evaluates the full predicate against a model. Must be a pure
    /// function of the model: it runs with an empty environment, and the
    /// watch path relies on commit-time and poll-time evaluation
    /// agreeing. Evaluation errors (type mismatches on mixed-type
    /// comparisons, …) are non-matches, not failures.
    pub fn matches(&self, model: &Value) -> bool {
        matches!(self.program.eval(model, &Env::new()), Ok(v) if v.truthy())
    }

    /// Commit-path matcher: `keys` is the index delta the caller just
    /// computed (path → new key) for the committed model. Any key the
    /// plan refuses proves a non-match without touching the evaluator.
    /// Paths arrive as the store's interned `Arc<Path>` handles: the
    /// per-candidate probes here are pointer bumps, never fresh `String`
    /// or `Path` allocations.
    pub(crate) fn matches_indexed(
        &self,
        model: &Value,
        keys: &[(std::sync::Arc<Path>, IndexKey)],
    ) -> bool {
        for (p, k) in keys {
            if !self.plan.admits(p, k) {
                return false;
            }
        }
        self.matches(model)
    }
}

impl PartialEq for QueryPred {
    fn eq(&self, other: &Self) -> bool {
        self.program.source == other.program.source
    }
}

impl Eq for QueryPred {}

/// A predicate watch subscription: `kind` in `namespace`, filtered by
/// `pred`. Namespace-homed like `KindInNamespace` (cancelled with its
/// namespace, never auto-joined to new shards).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredicateSelector {
    pub kind: String,
    pub namespace: String,
    pub pred: QueryPred,
}

/// Errors from building or running a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The filter expression failed to compile.
    Compile(String),
    /// The query shape is not expressible (e.g. a filtered watch
    /// without a kind and namespace to scope it).
    Unsupported(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Compile(e) => write!(f, "filter does not compile: {e}"),
            QueryError::Unsupported(e) => write!(f, "unsupported query: {e}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// One composable builder for every read and watch shape:
///
/// ```
/// # use dspace_apiserver::Query;
/// let q = Query::kind("Lamp")
///     .in_ns("home0")
///     .filter(".control.brightness.intent > 0.8")
///     .unwrap();
/// ```
///
/// Omitted dimensions widen the query: no namespace means every
/// namespace, no kind means every kind (then no filter is allowed —
/// predicates index per kind). `named` narrows to a single object.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Query {
    pub kind: Option<String>,
    pub namespace: Option<String>,
    pub name: Option<String>,
    pub pred: Option<QueryPred>,
}

impl Query {
    /// Everything, everywhere.
    pub fn all() -> Query {
        Query::default()
    }

    /// All objects of one kind (across namespaces until [`in_ns`](Query::in_ns)).
    pub fn kind(kind: impl Into<String>) -> Query {
        Query {
            kind: Some(kind.into()),
            ..Query::default()
        }
    }

    /// Scope to one namespace.
    pub fn in_ns(mut self, namespace: impl Into<String>) -> Query {
        self.namespace = Some(namespace.into());
        self
    }

    /// Narrow to a single object name.
    pub fn named(mut self, name: impl Into<String>) -> Query {
        self.name = Some(name.into());
        self
    }

    /// Attach a reflex filter predicate, compiled eagerly.
    pub fn filter(mut self, expr: &str) -> Result<Query, QueryError> {
        if self.kind.is_none() {
            return Err(QueryError::Unsupported(
                "a filter needs a kind to index against".into(),
            ));
        }
        self.pred = Some(QueryPred::compile(expr)?);
        Ok(self)
    }

    /// Does an object (by identity and model) fall inside this query?
    /// This is the brute-force semantics every indexed path must agree
    /// with.
    pub fn matches(&self, oref: &ObjectRef, model: &Value) -> bool {
        if let Some(k) = &self.kind {
            if oref.kind != k.as_str() {
                return false;
            }
        }
        if let Some(ns) = &self.namespace {
            if oref.namespace != ns.as_str() {
                return false;
            }
        }
        if let Some(n) = &self.name {
            if oref.name != n.as_str() {
                return false;
            }
        }
        match &self.pred {
            Some(p) => p.matches(model),
            None => true,
        }
    }

    /// Lowers the query to a watch selector. Filtered watches must be
    /// scoped to a kind and namespace (predicates live in one shard's
    /// commit path) and cannot also name a single object.
    pub fn to_selector(&self) -> Result<WatchSelector, QueryError> {
        if let Some(pred) = &self.pred {
            let (Some(kind), Some(namespace)) = (&self.kind, &self.namespace) else {
                return Err(QueryError::Unsupported(
                    "a filtered watch needs both a kind and a namespace".into(),
                ));
            };
            if self.name.is_some() {
                return Err(QueryError::Unsupported(
                    "a filtered watch cannot also name a single object".into(),
                ));
            }
            return Ok(WatchSelector::Predicate(PredicateSelector {
                kind: kind.clone(),
                namespace: namespace.clone(),
                pred: pred.clone(),
            }));
        }
        match (&self.kind, &self.namespace, &self.name) {
            (Some(k), Some(ns), Some(n)) => Ok(WatchSelector::Object(ObjectRef::new(
                k.as_str(),
                ns.as_str(),
                n.as_str(),
            ))),
            (Some(k), Some(ns), None) => Ok(WatchSelector::KindInNamespace {
                kind: k.clone(),
                namespace: ns.clone(),
            }),
            (Some(k), None, None) => Ok(WatchSelector::Kind(k.clone())),
            (None, None, None) => Ok(WatchSelector::All),
            _ => Err(QueryError::Unsupported(
                "watch selectors narrow kind → namespace → name in order".into(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key_num(n: f64) -> IndexKey {
        IndexKey::of(Some(&Value::Num(n)))
    }

    #[test]
    fn index_key_total_order() {
        let keys = vec![
            IndexKey::Null,
            IndexKey::Bool(false),
            IndexKey::Bool(true),
            key_num(-1.5),
            key_num(0.0),
            key_num(7.0),
            IndexKey::Str("a".into()),
            IndexKey::Str("b".into()),
            IndexKey::Complex,
        ];
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate() {
                assert_eq!(a.cmp(b), i.cmp(&j), "{a} vs {b}");
            }
        }
        // Negative zero keys identically to zero, as Value equality does.
        assert_eq!(key_num(-0.0), key_num(0.0));
    }

    fn plan_of(src: &str) -> Plan {
        QueryPred::compile(src).unwrap().plan().clone()
    }

    #[test]
    fn planner_extracts_eq_and_ranges() {
        assert_eq!(
            plan_of(".state.power == \"on\""),
            Plan::Eq {
                path: "state.power".parse().unwrap(),
                key: IndexKey::Str("on".into()),
            }
        );
        // Flipped operands flip the comparison.
        assert_eq!(
            plan_of("0.8 < .control.brightness.intent"),
            Plan::Range {
                path: "control.brightness.intent".parse().unwrap(),
                lo: Bound::Excluded(key_num(0.8)),
                hi: Bound::Unbounded,
            }
        );
        assert_eq!(
            plan_of(".x <= -2"),
            Plan::Range {
                path: "x".parse().unwrap(),
                lo: Bound::Unbounded,
                hi: Bound::Included(key_num(-2.0)),
            }
        );
    }

    #[test]
    fn planner_composes_and_or_and_degrades_to_full() {
        let p = plan_of(".a == 1 and .b > 2");
        assert!(matches!(p, Plan::And(ref v) if v.len() == 2), "{p:?}");
        let p = plan_of(".a == 1 or .b == 2");
        assert!(matches!(p, Plan::Or(ref v) if v.len() == 2), "{p:?}");
        // A Full disjunct poisons the union; a Full conjunct is dropped.
        assert_eq!(plan_of(".a == 1 or .b != 2"), Plan::Full);
        assert_eq!(
            plan_of(".a == 1 and .b != 2"),
            Plan::Eq {
                path: "a".parse().unwrap(),
                key: key_num(1.0),
            }
        );
        assert_eq!(plan_of(".a != 1"), Plan::Full);
        assert_eq!(plan_of(".a[0] == 1"), Plan::Full);
    }

    #[test]
    fn admits_is_a_sound_prefilter() {
        let pred = QueryPred::compile(".x > 3 and .y == \"hot\"").unwrap();
        let path_x: Path = "x".parse().unwrap();
        let path_y: Path = "y".parse().unwrap();
        assert!(pred.plan().admits(&path_x, &key_num(4.0)));
        assert!(!pred.plan().admits(&path_x, &key_num(3.0)));
        assert!(!pred.plan().admits(&path_x, &IndexKey::Null));
        assert!(!pred.plan().admits(&path_y, &IndexKey::Str("cold".into())));
        // Unknown paths never refuse.
        assert!(pred.plan().admits(&"z".parse().unwrap(), &IndexKey::Null));
    }

    #[test]
    fn query_lowers_to_selectors() {
        assert_eq!(Query::all().to_selector().unwrap(), WatchSelector::All);
        assert_eq!(
            Query::kind("Lamp").to_selector().unwrap(),
            WatchSelector::Kind("Lamp".into())
        );
        assert_eq!(
            Query::kind("Lamp").in_ns("home0").to_selector().unwrap(),
            WatchSelector::KindInNamespace {
                kind: "Lamp".into(),
                namespace: "home0".into(),
            }
        );
        assert_eq!(
            Query::kind("Lamp")
                .in_ns("home0")
                .named("l1")
                .to_selector()
                .unwrap(),
            WatchSelector::Object(ObjectRef::new("Lamp", "home0", "l1"))
        );
        let q = Query::kind("Lamp")
            .in_ns("home0")
            .filter(".x == 1")
            .unwrap();
        assert!(matches!(
            q.to_selector().unwrap(),
            WatchSelector::Predicate(_)
        ));
        // Filtered watches must be fully scoped.
        assert!(Query::kind("Lamp")
            .filter(".x == 1")
            .unwrap()
            .to_selector()
            .is_err());
        assert!(Query::all().filter(".x == 1").is_err());
    }
}
