//! The driver programming library (§4 of the paper).
//!
//! A digi driver is a set of *handlers* invoked in response to model
//! updates. Handlers have **filters** (which attribute subtree must have
//! changed), **priorities** (low runs before high, §4.3), and a body —
//! either native Rust code or a **reflex**: a jq policy executed by the
//! [`dspace_reflex`] interpreter (Fig. 3). Reflexes embedded in the model
//! under `.reflex.<name>` are (re)registered automatically at the start of
//! every reconciliation cycle, so users can add or reconfigure behaviour
//! at runtime by patching the model (§4.2).
//!
//! A reconciliation cycle (Fig. 4): compute the changes between the
//! previous and the new model, run matching handlers from low to high
//! priority over a working copy, and return the resulting model plus any
//! side effects (device commands) for the runtime to execute.

use dspace_reflex::{Env, Program};
use dspace_value::{diff, Change, Path, Value};

use crate::model::DigiModel;

/// A side effect requested by a handler, executed by the runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// Send a command to the actuator attached to this digi (the physical
    /// device or data-processing engine behind a leaf digi).
    Device(Value),
    /// Diagnostic log line.
    Log(String),
}

/// When a handler should run: the handler fires if any changed path and the
/// filter prefix are prefixes of one another.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Filter {
    prefix: Path,
}

impl Filter {
    /// Fires on any model change.
    pub fn any() -> Self {
        Filter {
            prefix: Path::root(),
        }
    }

    /// Fires on changes under `.control` (the `@digi.on.control` decorator).
    pub fn on_control() -> Self {
        Filter {
            prefix: ".control".parse().expect("static"),
        }
    }

    /// Fires on changes under `.control.<attr>`.
    pub fn on_control_attr(attr: &str) -> Self {
        Filter {
            prefix: format!(".control.{attr}").parse().expect("valid attr"),
        }
    }

    /// Fires on changes under `.obs`.
    pub fn on_obs() -> Self {
        Filter {
            prefix: ".obs".parse().expect("static"),
        }
    }

    /// Fires on changes under `.data.input`.
    pub fn on_data_input() -> Self {
        Filter {
            prefix: ".data.input".parse().expect("static"),
        }
    }

    /// Fires on changes under `.data.output`.
    pub fn on_data_output() -> Self {
        Filter {
            prefix: ".data.output".parse().expect("static"),
        }
    }

    /// Fires on changes under `.mount` (children replicas).
    pub fn on_mount() -> Self {
        Filter {
            prefix: ".mount".parse().expect("static"),
        }
    }

    /// Fires on changes under an arbitrary path.
    pub fn on_path(path: &str) -> Self {
        Filter {
            prefix: path.parse().unwrap_or_else(|_| Path::root()),
        }
    }

    /// Returns `true` if this filter matches the change set.
    pub fn matches(&self, changes: &[Change]) -> bool {
        if self.prefix.is_empty() {
            return !changes.is_empty();
        }
        changes
            .iter()
            .any(|c| self.prefix.is_prefix_of(&c.path) || c.path.is_prefix_of(&self.prefix))
    }
}

/// Context passed to native handlers during a reconciliation cycle.
pub struct ReconcileCtx<'a> {
    /// The working copy of the model; mutations here become the new model.
    pub model: &'a mut Value,
    /// Leaf-level changes that triggered this cycle.
    pub changes: &'a [Change],
    /// Current space time, in seconds (drives `$time` in policies).
    pub now_s: f64,
    /// Side effects to be executed by the runtime after the cycle.
    pub effects: &'a mut Vec<Effect>,
}

impl<'a> ReconcileCtx<'a> {
    /// Typed view over the working model.
    pub fn digi(&mut self) -> DigiModel<'_> {
        DigiModel::new(self.model)
    }

    /// Returns `true` if any change touched `path` (prefix match).
    pub fn changed(&self, path: &str) -> bool {
        Filter::on_path(path).matches(self.changes)
    }

    /// Emits a device command effect.
    pub fn device(&mut self, cmd: Value) {
        self.effects.push(Effect::Device(cmd));
    }

    /// Emits a log effect.
    pub fn log(&mut self, msg: impl Into<String>) {
        self.effects.push(Effect::Log(msg.into()));
    }
}

/// A handler body: native Rust or a compiled reflex policy.
enum Body {
    Native(Box<dyn FnMut(&mut ReconcileCtx<'_>)>),
    Reflex(Program),
}

impl std::fmt::Debug for Body {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Body::Native(_) => f.write_str("Native(..)"),
            Body::Reflex(p) => write!(f, "Reflex({:?})", p.source),
        }
    }
}

/// A registered handler.
#[derive(Debug)]
pub struct Handler {
    /// Handler name; reflexes with the same name replace it (§4.2).
    pub name: String,
    /// Execution priority: low runs before high (§4.3). Negative disables.
    pub priority: i64,
    /// The change filter.
    pub filter: Filter,
    body: Body,
}

/// The result of one reconciliation cycle.
#[derive(Debug)]
pub struct ReconcileResult {
    /// The model after all handlers ran.
    pub model: Value,
    /// Side effects requested by handlers.
    pub effects: Vec<Effect>,
    /// Handler errors (reflex evaluation failures); the cycle continues
    /// past them, matching kopf-style resilient operators.
    pub errors: Vec<String>,
    /// Names of the handlers that ran, in order.
    pub ran: Vec<String>,
    /// The changes from `old` to `new` that triggered the cycle: the
    /// first handler pass's diff (empty when the two models are equal).
    pub changes: Vec<Change>,
}

/// A digi driver: an ordered collection of handlers.
///
/// # Examples
///
/// The Plug driver from §4.1 of the paper (native flavour):
///
/// ```
/// use dspace_core::driver::{Driver, Filter};
/// use dspace_value::Value;
///
/// let mut driver = Driver::new();
/// driver.on(Filter::on_control(), 0, "handle-power", |ctx| {
///     let intent = ctx.digi().intent("power");
///     if !intent.is_null() {
///         ctx.device(dspace_value::object([("power", intent)]));
///     }
/// });
/// ```
#[derive(Debug, Default)]
pub struct Driver {
    handlers: Vec<Handler>,
}

impl Driver {
    /// Creates an empty driver.
    pub fn new() -> Self {
        Driver::default()
    }

    /// Registers a native handler (the `@digi.on.*` decorators of §4.2).
    pub fn on(
        &mut self,
        filter: Filter,
        priority: i64,
        name: impl Into<String>,
        f: impl FnMut(&mut ReconcileCtx<'_>) + 'static,
    ) -> &mut Self {
        self.upsert(Handler {
            name: name.into(),
            priority,
            filter,
            body: Body::Native(Box::new(f)),
        });
        self
    }

    /// Registers a reflex handler from policy source (the `reflex` API).
    ///
    /// Returns an error if the policy does not compile.
    pub fn reflex(
        &mut self,
        name: impl Into<String>,
        priority: i64,
        policy: &str,
    ) -> Result<&mut Self, dspace_reflex::CompileError> {
        let program = Program::compile(policy)?;
        self.upsert(Handler {
            name: name.into(),
            priority,
            filter: Filter::any(),
            body: Body::Reflex(program),
        });
        Ok(self)
    }

    /// Inserts or replaces a handler by name (reflexes can reconfigure
    /// handlers in the driver, §4.2).
    fn upsert(&mut self, handler: Handler) {
        if let Some(slot) = self.handlers.iter_mut().find(|h| h.name == handler.name) {
            *slot = handler;
        } else {
            self.handlers.push(handler);
        }
    }

    /// Returns the registered handler names (unsorted).
    pub fn handler_names(&self) -> Vec<&str> {
        self.handlers.iter().map(|h| h.name.as_str()).collect()
    }

    /// Synchronizes reflex handlers from the model's `.reflex` section:
    /// every entry is upserted (name collision replaces, so users can
    /// override built-in handlers); entries removed from the model keep
    /// their last registration (matching the paper's reflex semantics of
    /// reconfiguration-by-update).
    fn sync_reflexes(&mut self, model: &Value) -> Vec<String> {
        let mut errors = Vec::new();
        let Some(reflexes) = model.get_path(".reflex").and_then(Value::as_object) else {
            return errors;
        };
        for (name, spec) in reflexes {
            let Some(policy) = spec.get_path("policy").and_then(Value::as_str) else {
                continue;
            };
            let priority = spec
                .get_path("priority")
                .and_then(Value::as_f64)
                .unwrap_or(0.0) as i64;
            // Skip recompilation when the existing handler is identical.
            if let Some(existing) = self.handlers.iter().find(|h| h.name == name.as_str()) {
                if existing.priority == priority {
                    if let Body::Reflex(p) = &existing.body {
                        if p.source == policy {
                            continue;
                        }
                    }
                }
            }
            match Program::compile(policy) {
                Ok(program) => self.upsert(Handler {
                    name: name.to_string(),
                    priority,
                    filter: Filter::any(),
                    body: Body::Reflex(program),
                }),
                Err(e) => errors.push(format!("reflex {name}: {e}")),
            }
        }
        errors
    }

    /// Runs one reconciliation cycle (Fig. 4 of the paper).
    ///
    /// `old` is the model as of the previous cycle, `new` the model that
    /// triggered this one. Handlers whose filter matches the diff run in
    /// priority order (low first); each sees the working copy produced by
    /// its predecessors. Handlers with negative priority are disabled.
    pub fn reconcile(&mut self, old: &Value, new: &Value, now_s: f64) -> ReconcileResult {
        let mut errors = self.sync_reflexes(new);
        let mut working = new.clone();
        let mut effects = Vec::new();
        let mut ran = Vec::new();

        // Sort indices by priority (stable, so registration order breaks
        // ties), low before high.
        let mut order: Vec<usize> = (0..self.handlers.len()).collect();
        order.sort_by_key(|&i| self.handlers[i].priority);

        // Handler passes run to a (bounded) fixpoint: a handler whose
        // filter matches changes made by *another handler* in this cycle
        // still fires, because a driver's own commit does not retrigger a
        // cycle (Fig. 4: "unless the update is caused by the previous
        // reconciliation").
        let mut prev = old.clone();
        let mut first_changes: Option<Vec<Change>> = None;
        for _pass in 0..4 {
            let changes = diff(&prev, &working);
            if changes.is_empty() {
                break;
            }
            prev = working.clone();
            for &i in &order {
                let handler = &mut self.handlers[i];
                if handler.priority < 0 {
                    continue; // Disabled (§4.2: negative priority disables).
                }
                if !handler.filter.matches(&changes) {
                    continue;
                }
                match &mut handler.body {
                    Body::Native(f) => {
                        let mut ctx = ReconcileCtx {
                            model: &mut working,
                            changes: &changes,
                            now_s,
                            effects: &mut effects,
                        };
                        f(&mut ctx);
                        ran.push(handler.name.clone());
                    }
                    Body::Reflex(program) => {
                        let env = Env::new().with_var("time", now_s.into());
                        match program.eval(&working, &env) {
                            Ok(updated) => {
                                working = updated;
                                ran.push(handler.name.clone());
                            }
                            Err(e) => errors.push(format!("reflex {}: {e}", handler.name)),
                        }
                    }
                }
            }
            first_changes.get_or_insert(changes);
            if working == prev {
                break;
            }
        }
        // Duplicate device commands from repeated passes collapse.
        effects.dedup();
        ReconcileResult {
            model: working,
            effects,
            errors,
            ran,
            changes: first_changes.unwrap_or_default(),
        }
    }
}

/// A model *view* (§4.2): a reversible rearrangement of attributes that
/// makes them easier to access in handlers. Updates to the view are applied
/// back to the source paths.
///
/// # Examples
///
/// ```
/// use dspace_core::driver::View;
/// use dspace_value::json;
///
/// let view = View::new().map(".control.brightness.intent", ".bri");
/// let model = json::parse(r#"{"control": {"brightness": {"intent": 0.5}}}"#).unwrap();
/// let mut v = view.forward(&model);
/// assert_eq!(v.get_path(".bri").unwrap().as_f64(), Some(0.5));
/// v.set(&".bri".parse().unwrap(), 0.9.into()).unwrap();
/// let mut back = model.clone();
/// view.backward(&v, &mut back);
/// assert_eq!(back.get_path(".control.brightness.intent").unwrap().as_f64(), Some(0.9));
/// ```
#[derive(Debug, Clone, Default)]
pub struct View {
    mappings: Vec<(Path, Path)>,
}

impl View {
    /// Creates an empty view.
    pub fn new() -> Self {
        View::default()
    }

    /// Adds a mapping from a source model path to a view path.
    pub fn map(mut self, source: &str, target: &str) -> Self {
        let s: Path = source.parse().expect("valid source path");
        let t: Path = target.parse().expect("valid target path");
        self.mappings.push((s, t));
        self
    }

    /// Chains another view after this one: the second view's sources are
    /// interpreted in the first view's output (§4.2: views can be chained).
    pub fn chain(mut self, next: &View) -> Self {
        let mut composed = Vec::new();
        for (s2, t2) in &next.mappings {
            // Find a first-stage mapping whose target is a prefix of s2.
            let mut source = s2.clone();
            for (s1, t1) in &self.mappings {
                if let Some(rest) = t1.strip_prefix(s2) {
                    source = s1.join(&rest);
                    break;
                }
            }
            composed.push((source, t2.clone()));
        }
        self.mappings = composed;
        self
    }

    /// Builds the view document from a model.
    pub fn forward(&self, model: &Value) -> Value {
        let mut out = dspace_value::obj();
        for (src, dst) in &self.mappings {
            let v = model.get(src).cloned().unwrap_or(Value::Null);
            let _ = out.set(dst, v);
        }
        out
    }

    /// Applies changes made in the view document back to the model.
    pub fn backward(&self, view: &Value, model: &mut Value) {
        for (src, dst) in &self.mappings {
            if let Some(v) = view.get(dst) {
                let _ = model.set(src, v.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspace_value::json::parse;

    fn lamp() -> Value {
        parse(
            r#"{"meta": {"kind": "Lamp", "name": "l1", "gen": 1},
                "control": {"power": {"intent": null, "status": "off"}},
                "obs": {}, "reflex": {}}"#,
        )
        .unwrap()
    }

    #[test]
    fn filter_matching() {
        let old = lamp();
        let mut new = old.clone();
        new.set(&".control.power.intent".parse().unwrap(), "on".into())
            .unwrap();
        let changes = diff(&old, &new);
        assert!(Filter::on_control().matches(&changes));
        assert!(Filter::on_control_attr("power").matches(&changes));
        assert!(!Filter::on_control_attr("brightness").matches(&changes));
        assert!(!Filter::on_obs().matches(&changes));
        assert!(Filter::any().matches(&changes));
        assert!(!Filter::any().matches(&[]));
        // A coarse change (whole subtree replaced) matches a finer filter.
        let coarse = diff(
            &parse(r#"{"control": 1}"#).unwrap(),
            &parse(r#"{"control": 2}"#).unwrap(),
        );
        assert!(Filter::on_control_attr("power").matches(&coarse));
    }

    #[test]
    fn handler_runs_on_matching_change() {
        let mut driver = Driver::new();
        driver.on(Filter::on_control(), 0, "power", |ctx| {
            let intent = ctx.digi().intent("power");
            ctx.digi().set_status("power", intent.clone());
            ctx.device(dspace_value::object([("power", intent)]));
        });
        let old = lamp();
        let mut new = old.clone();
        new.set(&".control.power.intent".parse().unwrap(), "on".into())
            .unwrap();
        let result = driver.reconcile(&old, &new, 0.0);
        assert!(result.ran.contains(&"power".to_string()));
        assert_eq!(
            result
                .model
                .get_path(".control.power.status")
                .unwrap()
                .as_str(),
            Some("on")
        );
        // Duplicate commands from fixpoint passes collapse to one.
        assert_eq!(result.effects.len(), 1);
    }

    #[test]
    fn handler_skipped_on_unrelated_change() {
        let mut driver = Driver::new();
        driver.on(Filter::on_control(), 0, "power", |ctx| {
            ctx.log("should not run");
        });
        let old = lamp();
        let mut new = old.clone();
        new.set(&".obs.reason".parse().unwrap(), "x".into())
            .unwrap();
        let result = driver.reconcile(&old, &new, 0.0);
        assert!(result.ran.is_empty());
        assert!(result.effects.is_empty());
    }

    #[test]
    fn priority_order_low_runs_first() {
        let mut driver = Driver::new();
        driver.on(Filter::any(), 5, "second", |ctx| {
            let v = ctx.model.get_path(".trace").cloned().unwrap_or(Value::Null);
            let s = format!("{}b", v.as_str().unwrap_or(""));
            ctx.model.set(&".trace".parse().unwrap(), s.into()).unwrap();
        });
        driver.on(Filter::any(), 1, "first", |ctx| {
            ctx.model
                .set(&".trace".parse().unwrap(), "a".into())
                .unwrap();
        });
        let old = lamp();
        let mut new = old.clone();
        new.set(&".obs.reason".parse().unwrap(), "x".into())
            .unwrap();
        let result = driver.reconcile(&old, &new, 0.0);
        assert_eq!(
            &result.ran[..2],
            &["first".to_string(), "second".to_string()]
        );
        assert_eq!(
            result.model.get_path(".trace").unwrap().as_str(),
            Some("ab")
        );
    }

    #[test]
    fn negative_priority_disables() {
        let mut driver = Driver::new();
        driver.on(Filter::any(), -1, "disabled", |ctx| ctx.log("no"));
        let old = lamp();
        let mut new = old.clone();
        new.set(&".obs.reason".parse().unwrap(), "x".into())
            .unwrap();
        let result = driver.reconcile(&old, &new, 0.0);
        assert!(result.ran.is_empty());
    }

    #[test]
    fn reflex_handler_executes_policy() {
        let mut driver = Driver::new();
        driver
            .reflex(
                "cap",
                0,
                "if .control.power.intent == \"on\" then .obs.lit = true else . end",
            )
            .unwrap();
        let old = lamp();
        let mut new = old.clone();
        new.set(&".control.power.intent".parse().unwrap(), "on".into())
            .unwrap();
        let result = driver.reconcile(&old, &new, 0.0);
        assert_eq!(
            result.model.get_path(".obs.lit").unwrap().as_bool(),
            Some(true)
        );
    }

    #[test]
    fn model_embedded_reflex_auto_registers() {
        // Fig. 3: the reflex lives in the model, not in driver code.
        let mut driver = Driver::new();
        let old = lamp();
        let mut new = old.clone();
        new.set(
            &".reflex.motion-brightness".parse().unwrap(),
            parse(
                r#"{"policy": "if $time - (.obs.last_motion // 0) <= 600 then .control.power.intent = \"on\" else . end",
                    "priority": 1, "processor": "jq"}"#,
            )
            .unwrap(),
        )
        .unwrap();
        new.set(&".obs.last_motion".parse().unwrap(), 100.0.into())
            .unwrap();
        let result = driver.reconcile(&old, &new, 200.0);
        assert_eq!(
            result.ran.first().map(String::as_str),
            Some("motion-brightness")
        );
        assert_eq!(
            result
                .model
                .get_path(".control.power.intent")
                .unwrap()
                .as_str(),
            Some("on")
        );
        // Outside the window, the policy leaves the model alone.
        let result = driver.reconcile(&old, &new, 2000.0);
        assert!(result
            .model
            .get_path(".control.power.intent")
            .unwrap()
            .is_null());
    }

    #[test]
    fn reflex_with_same_name_reconfigures_handler() {
        let mut driver = Driver::new();
        driver.on(Filter::any(), 0, "behaviour", |ctx| {
            ctx.model
                .set(&".obs.v".parse().unwrap(), 1.0.into())
                .unwrap();
        });
        let old = lamp();
        let mut new = old.clone();
        new.set(
            &".reflex.behaviour".parse().unwrap(),
            parse(r#"{"policy": ".obs.v = 2", "priority": 0}"#).unwrap(),
        )
        .unwrap();
        let result = driver.reconcile(&old, &new, 0.0);
        assert_eq!(result.model.get_path(".obs.v").unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn broken_reflex_reports_error_and_cycle_continues() {
        let mut driver = Driver::new();
        driver.on(Filter::any(), 10, "still-runs", |ctx| {
            ctx.model
                .set(&".obs.ok".parse().unwrap(), true.into())
                .unwrap();
        });
        let old = lamp();
        let mut new = old.clone();
        new.set(
            &".reflex.broken".parse().unwrap(),
            parse(r#"{"policy": "if if", "priority": 0}"#).unwrap(),
        )
        .unwrap();
        let result = driver.reconcile(&old, &new, 0.0);
        assert_eq!(result.errors.len(), 1);
        assert_eq!(
            result.model.get_path(".obs.ok").unwrap().as_bool(),
            Some(true)
        );
    }

    #[test]
    fn view_roundtrip_and_chain() {
        let view = View::new()
            .map(".control.brightness.intent", ".bri")
            .map(".control.power.intent", ".pow");
        let model =
            parse(r#"{"control": {"brightness": {"intent": 0.5}, "power": {"intent": "on"}}}"#)
                .unwrap();
        let v = view.forward(&model);
        assert_eq!(v.get_path(".bri").unwrap().as_f64(), Some(0.5));
        assert_eq!(v.get_path(".pow").unwrap().as_str(), Some("on"));
        // Chain: rename .bri to .b.
        let second = View::new().map(".bri", ".b");
        let chained = view.clone().chain(&second);
        let v2 = chained.forward(&model);
        assert_eq!(v2.get_path(".b").unwrap().as_f64(), Some(0.5));
        // Backward propagates view edits to the source.
        let mut edited = v2.clone();
        edited.set(&".b".parse().unwrap(), 0.7.into()).unwrap();
        let mut back = model.clone();
        chained.backward(&edited, &mut back);
        assert_eq!(
            back.get_path(".control.brightness.intent")
                .unwrap()
                .as_f64(),
            Some(0.7)
        );
    }
}
