//! Composition policies (§3.4): declarative mount/yield automation.
//!
//! A `Policy` API object names a set of digis to watch, a reflex condition
//! evaluated over their models, and actions to run when the condition
//! *rises* (false → true) or *falls* (true → false). The Policer controller
//! (see [`crate::policer`]) evaluates and enforces them — this module is
//! the data model.
//!
//! Example (the S10 delegation policy, in YAML):
//!
//! ```yaml
//! meta: {kind: Policy, name: emergency-yield}
//! spec:
//!   watch: ["Emergency/default/city"]
//!   condition: ".city.obs.alarm == true"
//!   on_rising:
//!     - {action: transfer, child: "Room/default/lvroom",
//!        from: "Home/default/home", to: "Emergency/default/city"}
//!   on_falling:
//!     - {action: transfer, child: "Room/default/lvroom",
//!        from: "Emergency/default/city", to: "Home/default/home"}
//! ```
//!
//! Condition programs see a context object with one key per watched digi
//! (its name), bound to that digi's current model.

use std::fmt;

use dspace_apiserver::ObjectRef;
use dspace_reflex::Program;
use dspace_value::{Name, Value};

use crate::graph::MountMode;

/// An action a policy can perform.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyAction {
    /// Mount `child` to `parent`.
    Mount {
        /// The digi to mount.
        child: ObjectRef,
        /// The digivice to mount it to.
        parent: ObjectRef,
        /// Expose/hide.
        mode: MountMode,
    },
    /// Unmount `child` from `parent`.
    Unmount {
        /// The mounted digi.
        child: ObjectRef,
        /// Its parent.
        parent: ObjectRef,
    },
    /// Yield `parent`'s write access over `child`.
    Yield {
        /// The controlled digi.
        child: ObjectRef,
        /// The parent giving up write access.
        parent: ObjectRef,
    },
    /// Restore `parent`'s write access over `child`.
    Unyield {
        /// The controlled digi.
        child: ObjectRef,
        /// The parent (re)claiming write access.
        parent: ObjectRef,
    },
    /// Atomically move write access over `child` from `from` to `to`
    /// (yield + unyield), mounting `to` (yielded) first if needed.
    Transfer {
        /// The controlled digi.
        child: ObjectRef,
        /// Current writer.
        from: ObjectRef,
        /// New writer.
        to: ObjectRef,
    },
    /// Write an intent on a digi (`.control.<attr>.intent`).
    SetIntent {
        /// Target digi.
        target: ObjectRef,
        /// Control attribute.
        attr: String,
        /// Intent value.
        value: Value,
    },
    /// Create a data-flow pipe (footnote 3 of the paper: "one might extend
    /// adaptive composition to data flow composition with pipe policies").
    Pipe {
        /// Source digidata.
        source: ObjectRef,
        /// Source output attribute.
        source_attr: String,
        /// Target digidata.
        target: ObjectRef,
        /// Target input attribute.
        target_attr: String,
    },
    /// Remove the pipe between the same endpoints.
    Unpipe {
        /// Source digidata.
        source: ObjectRef,
        /// Source output attribute.
        source_attr: String,
        /// Target digidata.
        target: ObjectRef,
        /// Target input attribute.
        target_attr: String,
    },
}

/// Errors from parsing a Policy object.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyError {
    /// A required field is missing or has the wrong type.
    Malformed(String),
    /// The condition program failed to compile.
    BadCondition(String),
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyError::Malformed(m) => write!(f, "malformed policy: {m}"),
            PolicyError::BadCondition(m) => write!(f, "bad policy condition: {m}"),
        }
    }
}

impl std::error::Error for PolicyError {}

/// A compiled composition policy.
#[derive(Debug, Clone)]
pub struct Policy {
    /// Digis whose models feed the condition context.
    pub watch: Vec<ObjectRef>,
    /// The compiled condition.
    pub condition: Program,
    /// Actions on a false→true transition.
    pub on_rising: Vec<PolicyAction>,
    /// Actions on a true→false transition.
    pub on_falling: Vec<PolicyAction>,
}

/// Parses `Kind/namespace/name` (or `Kind/name`, defaulting the namespace).
pub fn parse_ref(s: &str) -> Result<ObjectRef, PolicyError> {
    let parts: Vec<&str> = s.split('/').collect();
    match parts.as_slice() {
        [kind, ns, name] => Ok(ObjectRef::new(*kind, *ns, *name)),
        [kind, name] => Ok(ObjectRef::default_ns(*kind, *name)),
        _ => Err(PolicyError::Malformed(format!("bad object ref '{s}'"))),
    }
}

fn parse_action(v: &Value) -> Result<PolicyAction, PolicyError> {
    let field = |name: &str| -> Result<ObjectRef, PolicyError> {
        let s = v
            .get_path(name)
            .and_then(Value::as_str)
            .ok_or_else(|| PolicyError::Malformed(format!("action missing '{name}'")))?;
        parse_ref(s)
    };
    let kind = v
        .get_path("action")
        .and_then(Value::as_str)
        .ok_or_else(|| PolicyError::Malformed("action missing 'action'".into()))?;
    match kind {
        "mount" => Ok(PolicyAction::Mount {
            child: field("child")?,
            parent: field("parent")?,
            mode: v
                .get_path("mode")
                .and_then(Value::as_str)
                .and_then(MountMode::parse)
                .unwrap_or(MountMode::Expose),
        }),
        "unmount" => Ok(PolicyAction::Unmount {
            child: field("child")?,
            parent: field("parent")?,
        }),
        "yield" => Ok(PolicyAction::Yield {
            child: field("child")?,
            parent: field("parent")?,
        }),
        "unyield" => Ok(PolicyAction::Unyield {
            child: field("child")?,
            parent: field("parent")?,
        }),
        "transfer" => Ok(PolicyAction::Transfer {
            child: field("child")?,
            from: field("from")?,
            to: field("to")?,
        }),
        "pipe" | "unpipe" => {
            let endpoint = |name: &str| -> Result<(ObjectRef, String), PolicyError> {
                let s = v
                    .get_path(name)
                    .and_then(Value::as_str)
                    .ok_or_else(|| PolicyError::Malformed(format!("action missing '{name}'")))?;
                let (obj, attr) = s.rsplit_once('.').ok_or_else(|| {
                    PolicyError::Malformed(format!("endpoint '{s}' must be Kind/name.attr"))
                })?;
                Ok((parse_ref(obj)?, attr.to_string()))
            };
            let (source, source_attr) = endpoint("from")?;
            let (target, target_attr) = endpoint("to")?;
            if kind == "pipe" {
                Ok(PolicyAction::Pipe {
                    source,
                    source_attr,
                    target,
                    target_attr,
                })
            } else {
                Ok(PolicyAction::Unpipe {
                    source,
                    source_attr,
                    target,
                    target_attr,
                })
            }
        }
        "set-intent" => Ok(PolicyAction::SetIntent {
            target: field("target")?,
            attr: v
                .get_path("attr")
                .and_then(Value::as_str)
                .ok_or_else(|| PolicyError::Malformed("set-intent missing 'attr'".into()))?
                .to_string(),
            value: v.get_path("value").cloned().unwrap_or(Value::Null),
        }),
        other => Err(PolicyError::Malformed(format!("unknown action '{other}'"))),
    }
}

impl Policy {
    /// Parses and compiles a Policy object's model document.
    pub fn parse(model: &Value) -> Result<Policy, PolicyError> {
        let watch = model
            .get_path(".spec.watch")
            .and_then(Value::as_array)
            .ok_or_else(|| PolicyError::Malformed("spec.watch missing".into()))?
            .iter()
            .map(|v| {
                v.as_str()
                    .ok_or_else(|| PolicyError::Malformed("watch entries must be strings".into()))
                    .and_then(parse_ref)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let cond_src = model
            .get_path(".spec.condition")
            .and_then(Value::as_str)
            .ok_or_else(|| PolicyError::Malformed("spec.condition missing".into()))?;
        let condition =
            Program::compile(cond_src).map_err(|e| PolicyError::BadCondition(e.to_string()))?;
        let actions = |key: &str| -> Result<Vec<PolicyAction>, PolicyError> {
            match model.get_path(&format!(".spec.{key}")) {
                None | Some(Value::Null) => Ok(Vec::new()),
                Some(Value::Array(items)) => items.iter().map(parse_action).collect(),
                Some(_) => Err(PolicyError::Malformed(format!("spec.{key} must be a list"))),
            }
        };
        Ok(Policy {
            watch,
            condition,
            on_rising: actions("on_rising")?,
            on_falling: actions("on_falling")?,
        })
    }

    /// Builds the condition context: `{<digi name>: <model>}`.
    pub fn context(&self, models: &[(Name, Value)]) -> Value {
        dspace_value::object(models.iter().map(|(n, m)| (n.clone(), m.clone())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspace_value::yaml;

    fn s10_policy_model() -> Value {
        yaml::parse(
            "
meta: {kind: Policy, name: emergency-yield, namespace: default}
spec:
  watch: [\"Emergency/default/city\"]
  condition: .city.obs.alarm == true
  on_rising:
    - {action: transfer, child: Room/default/lvroom, from: Home/default/home, to: Emergency/default/city}
  on_falling:
    - {action: transfer, child: Room/default/lvroom, from: Emergency/default/city, to: Home/default/home}
",
        )
        .unwrap()
    }

    #[test]
    fn parse_s10_policy() {
        let p = Policy::parse(&s10_policy_model()).unwrap();
        assert_eq!(p.watch, vec![ObjectRef::default_ns("Emergency", "city")]);
        assert_eq!(p.on_rising.len(), 1);
        assert!(matches!(p.on_rising[0], PolicyAction::Transfer { .. }));
        assert_eq!(p.on_falling.len(), 1);
    }

    #[test]
    fn condition_evaluates_over_context() {
        let p = Policy::parse(&s10_policy_model()).unwrap();
        let alarm_on = dspace_value::json::parse(r#"{"obs": {"alarm": true}}"#).unwrap();
        let alarm_off = dspace_value::json::parse(r#"{"obs": {"alarm": false}}"#).unwrap();
        let env = dspace_reflex::Env::new().with_var("time", 0.0.into());
        let ctx_on = p.context(&[("city".into(), alarm_on)]);
        let ctx_off = p.context(&[("city".into(), alarm_off)]);
        assert!(p.condition.eval(&ctx_on, &env).unwrap().truthy());
        assert!(!p.condition.eval(&ctx_off, &env).unwrap().truthy());
    }

    #[test]
    fn parse_ref_forms() {
        assert_eq!(
            parse_ref("Room/default/r1").unwrap(),
            ObjectRef::default_ns("Room", "r1")
        );
        assert_eq!(
            parse_ref("Room/r1").unwrap(),
            ObjectRef::default_ns("Room", "r1")
        );
        assert!(parse_ref("justaname").is_err());
        assert!(parse_ref("a/b/c/d").is_err());
    }

    #[test]
    fn parse_all_action_kinds() {
        let actions = yaml::parse(
            "
meta: {kind: Policy, name: p}
spec:
  watch: [\"Room/r\"]
  condition: \"true\"
  on_rising:
    - {action: mount, child: Roomba/rb, parent: Room/r, mode: hide}
    - {action: unmount, child: Roomba/rb, parent: Room/r}
    - {action: yield, child: Lamp/l, parent: Room/r}
    - {action: unyield, child: Lamp/l, parent: Room/r}
    - {action: set-intent, target: Lamp/l, attr: power, value: \"off\"}
    - {action: pipe, from: Camera/cam.url, to: Scene/sc.url}
    - {action: unpipe, from: Camera/cam.url, to: Scene/sc.url}
",
        )
        .unwrap();
        let p = Policy::parse(&actions).unwrap();
        assert_eq!(p.on_rising.len(), 7);
        assert!(matches!(p.on_rising[5], PolicyAction::Pipe { .. }));
        assert!(matches!(p.on_rising[6], PolicyAction::Unpipe { .. }));
        assert!(matches!(
            p.on_rising[0],
            PolicyAction::Mount {
                mode: MountMode::Hide,
                ..
            }
        ));
        assert!(matches!(p.on_rising[4], PolicyAction::SetIntent { .. }));
    }

    #[test]
    fn malformed_policies_rejected() {
        let no_watch = yaml::parse("meta: {kind: Policy}\nspec:\n  condition: \"true\"\n").unwrap();
        assert!(matches!(
            Policy::parse(&no_watch),
            Err(PolicyError::Malformed(_))
        ));
        let bad_cond = yaml::parse(
            "meta: {kind: Policy}\nspec:\n  watch: [\"A/a\"]\n  condition: \"if if\"\n",
        )
        .unwrap();
        assert!(matches!(
            Policy::parse(&bad_cond),
            Err(PolicyError::BadCondition(_))
        ));
        let bad_action = yaml::parse(
            "meta: {kind: Policy}\nspec:\n  watch: [\"A/a\"]\n  condition: \"true\"\n  on_rising:\n    - {action: explode}\n",
        )
        .unwrap();
        assert!(Policy::parse(&bad_action).is_err());
    }
}
