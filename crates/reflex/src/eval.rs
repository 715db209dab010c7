//! Evaluator for reflex expressions.

use std::collections::BTreeMap;
use std::fmt;

use dspace_value::{Name, Path, Segment, Value};

use crate::ast::{AssignOp, BinOp, Expr, PathStep};

/// Evaluation environment: variables available to the policy.
///
/// dSpace injects `$time` (the space's current clock, in seconds) plus any
/// digi-specific bindings before running an embedded policy.
#[derive(Debug, Clone, Default)]
pub struct Env {
    vars: BTreeMap<String, Value>,
}

impl Env {
    /// Creates an empty environment.
    pub fn new() -> Self {
        Env::default()
    }

    /// Binds `$name` to `value`.
    pub fn set_var(&mut self, name: impl Into<String>, value: Value) {
        self.vars.insert(name.into(), value);
    }

    /// Returns the value bound to `$name`, if any.
    pub fn var(&self, name: &str) -> Option<&Value> {
        self.vars.get(name)
    }

    /// Builder-style variable binding.
    pub fn with_var(mut self, name: impl Into<String>, value: Value) -> Self {
        self.set_var(name, value);
        self
    }
}

/// Runtime evaluation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A `$var` had no binding.
    UnboundVariable(String),
    /// Operand types did not fit the operator/builtin.
    TypeError(String),
    /// An unknown builtin was called.
    UnknownFunction(String),
    /// Wrong number of arguments to a builtin.
    Arity(String),
    /// `error(msg)` was evaluated.
    UserError(String),
    /// Division by zero.
    DivisionByZero,
    /// Anything else (e.g. compile failure inside `eval_str`).
    Other(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundVariable(v) => write!(f, "unbound variable ${v}"),
            EvalError::TypeError(m) => write!(f, "type error: {m}"),
            EvalError::UnknownFunction(n) => write!(f, "unknown function {n}"),
            EvalError::Arity(m) => write!(f, "wrong arity: {m}"),
            EvalError::UserError(m) => write!(f, "error: {m}"),
            EvalError::DivisionByZero => write!(f, "division by zero"),
            EvalError::Other(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Evaluates `expr` against `input` under `env`.
pub fn eval(expr: &Expr, input: &Value, env: &Env) -> Result<Value, EvalError> {
    match expr {
        Expr::Identity => Ok(input.clone()),
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Var(name) => env
            .var(name)
            .cloned()
            .ok_or_else(|| EvalError::UnboundVariable(name.clone())),
        Expr::Path(base, steps) => {
            let base_val = eval(base, input, env)?;
            let path = resolve_path(steps, input, env)?;
            Ok(base_val.get(&path).cloned().unwrap_or(Value::Null))
        }
        Expr::Neg(e) => {
            let v = eval(e, input, env)?;
            match v {
                Value::Num(n) => Ok(Value::Num(-n)),
                other => Err(EvalError::TypeError(format!(
                    "cannot negate {}",
                    other.type_name()
                ))),
            }
        }
        Expr::Binary(op, lhs, rhs) => {
            let a = eval(lhs, input, env)?;
            let b = eval(rhs, input, env)?;
            binary(*op, a, b)
        }
        Expr::And(lhs, rhs) => {
            let a = eval(lhs, input, env)?;
            if !a.truthy() {
                return Ok(Value::Bool(false));
            }
            Ok(Value::Bool(eval(rhs, input, env)?.truthy()))
        }
        Expr::Or(lhs, rhs) => {
            let a = eval(lhs, input, env)?;
            if a.truthy() {
                return Ok(Value::Bool(true));
            }
            Ok(Value::Bool(eval(rhs, input, env)?.truthy()))
        }
        Expr::Alt(lhs, rhs) => match eval(lhs, input, env) {
            Ok(v) if v.truthy() => Ok(v),
            _ => eval(rhs, input, env),
        },
        Expr::If { arms, otherwise } => {
            for (cond, body) in arms {
                if eval(cond, input, env)?.truthy() {
                    return eval(body, input, env);
                }
            }
            match otherwise {
                Some(e) => eval(e, input, env),
                None => Ok(input.clone()),
            }
        }
        Expr::Pipe(lhs, rhs) => {
            let mid = eval(lhs, input, env)?;
            eval(rhs, &mid, env)
        }
        Expr::Assign { target, op, rhs } => {
            let steps = match target.as_ref() {
                Expr::Path(_, steps) => steps.as_slice(),
                Expr::Identity => &[],
                _ => {
                    return Err(EvalError::TypeError(
                        "assignment target must be a path".into(),
                    ))
                }
            };
            let path = resolve_path(steps, input, env)?;
            let mut out = input.clone();
            let current = out.get(&path).cloned().unwrap_or(Value::Null);
            let new_value = match op {
                AssignOp::Set => eval(rhs, input, env)?,
                AssignOp::Update => eval(rhs, &current, env)?,
                AssignOp::Add => binary(BinOp::Add, current, eval(rhs, input, env)?)?,
                AssignOp::Sub => binary(BinOp::Sub, current, eval(rhs, input, env)?)?,
            };
            out.set(&path, new_value)
                .map_err(|e| EvalError::TypeError(e.to_string()))?;
            Ok(out)
        }
        Expr::Call(name, args) => call(name, args, input, env),
        Expr::ArrayCons(items) => {
            let mut out = Vec::with_capacity(items.len());
            for e in items {
                out.push(eval(e, input, env)?);
            }
            Ok(Value::Array(out))
        }
        Expr::ObjectCons(fields) => {
            let mut map = BTreeMap::new();
            for (k, e) in fields {
                map.insert(Name::from(k.as_str()), eval(e, input, env)?);
            }
            Ok(Value::Object(map.into()))
        }
    }
}

/// Resolves path steps (whose indices may be expressions) to a concrete
/// [`Path`]. Index expressions are evaluated against the document root.
fn resolve_path(steps: &[PathStep], input: &Value, env: &Env) -> Result<Path, EvalError> {
    let mut segs = Vec::with_capacity(steps.len());
    for step in steps {
        match step {
            PathStep::Field(name) => segs.push(Segment::Key(name.clone())),
            PathStep::Index(e) => match eval(e, input, env)? {
                Value::Num(n) if n >= 0.0 => segs.push(Segment::Index(n as usize)),
                Value::Str(s) => segs.push(Segment::Key(s)),
                other => {
                    return Err(EvalError::TypeError(format!(
                        "cannot index with {}",
                        other.type_name()
                    )))
                }
            },
        }
    }
    Ok(Path::new(segs))
}

fn binary(op: BinOp, a: Value, b: Value) -> Result<Value, EvalError> {
    use BinOp::*;
    match op {
        Eq => return Ok(Value::Bool(a == b)),
        Ne => return Ok(Value::Bool(a != b)),
        _ => {}
    }
    match (op, &a, &b) {
        (Add, Value::Num(x), Value::Num(y)) => Ok(Value::Num(x + y)),
        (Add, Value::Str(x), Value::Str(y)) => Ok(Value::Str(format!("{x}{y}"))),
        (Add, Value::Array(x), Value::Array(y)) => {
            let mut out = x.clone();
            out.extend(y.iter().cloned());
            Ok(Value::Array(out))
        }
        (Add, Value::Object(x), Value::Object(y)) => {
            let mut out = x.clone();
            for (k, v) in y {
                out.insert(k.clone(), v.clone());
            }
            Ok(Value::Object(out))
        }
        (Add, Value::Null, other) => Ok(other.clone()),
        (Add, other, Value::Null) => Ok(other.clone()),
        (Sub, Value::Num(x), Value::Num(y)) => Ok(Value::Num(x - y)),
        (Mul, Value::Num(x), Value::Num(y)) => Ok(Value::Num(x * y)),
        (Div, Value::Num(x), Value::Num(y)) => {
            if *y == 0.0 {
                Err(EvalError::DivisionByZero)
            } else {
                Ok(Value::Num(x / y))
            }
        }
        (Mod, Value::Num(x), Value::Num(y)) => {
            if *y == 0.0 {
                Err(EvalError::DivisionByZero)
            } else {
                Ok(Value::Num(((*x as i64) % (*y as i64)) as f64))
            }
        }
        (Lt, _, _) | (Le, _, _) | (Gt, _, _) | (Ge, _, _) => compare(op, &a, &b),
        _ => Err(EvalError::TypeError(format!(
            "{:?} not defined on {} and {}",
            op,
            a.type_name(),
            b.type_name()
        ))),
    }
}

fn compare(op: BinOp, a: &Value, b: &Value) -> Result<Value, EvalError> {
    let ord = match (a, b) {
        (Value::Num(x), Value::Num(y)) => x.partial_cmp(y),
        (Value::Str(x), Value::Str(y)) => Some(x.cmp(y)),
        (Value::Bool(x), Value::Bool(y)) => Some(x.cmp(y)),
        // jq defines a total order across types: null < bool < num < str.
        (Value::Null, Value::Null) => Some(std::cmp::Ordering::Equal),
        (Value::Null, _) => Some(std::cmp::Ordering::Less),
        (_, Value::Null) => Some(std::cmp::Ordering::Greater),
        _ => None,
    }
    .ok_or_else(|| {
        EvalError::TypeError(format!(
            "cannot compare {} with {}",
            a.type_name(),
            b.type_name()
        ))
    })?;
    use std::cmp::Ordering::*;
    let result = match op {
        BinOp::Lt => ord == Less,
        BinOp::Le => ord != Greater,
        BinOp::Gt => ord == Greater,
        BinOp::Ge => ord != Less,
        _ => unreachable!(),
    };
    Ok(Value::Bool(result))
}

/// jq's total order as a comparator (errors on incomparable kinds).
fn value_cmp(a: &Value, b: &Value) -> Result<std::cmp::Ordering, EvalError> {
    if a == b {
        return Ok(std::cmp::Ordering::Equal);
    }
    if compare(BinOp::Lt, a, b)?.truthy() {
        Ok(std::cmp::Ordering::Less)
    } else {
        Ok(std::cmp::Ordering::Greater)
    }
}

/// Sorts a vector with the jq order, surfacing comparison errors.
fn sort_values(values: &mut [Value]) -> Result<(), EvalError> {
    let mut err = None;
    values.sort_by(|a, b| match value_cmp(a, b) {
        Ok(o) => o,
        Err(e) => {
            err.get_or_insert(e);
            std::cmp::Ordering::Equal
        }
    });
    match err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

fn call(name: &str, args: &[Expr], input: &Value, env: &Env) -> Result<Value, EvalError> {
    let arity = |n: usize| -> Result<(), EvalError> {
        if args.len() == n {
            Ok(())
        } else {
            Err(EvalError::Arity(format!(
                "{name} expects {n} argument(s), got {}",
                args.len()
            )))
        }
    };
    match name {
        "length" => {
            arity(0)?;
            let n = match input {
                Value::Null => 0.0,
                Value::Str(s) => s.chars().count() as f64,
                Value::Array(a) => a.len() as f64,
                Value::Object(o) => o.len() as f64,
                Value::Num(n) => n.abs(),
                Value::Bool(_) => return Err(EvalError::TypeError("boolean has no length".into())),
            };
            Ok(Value::Num(n))
        }
        "keys" => {
            arity(0)?;
            match input {
                Value::Object(o) => Ok(Value::Array(
                    o.keys().map(|k| Value::Str(k.to_string())).collect(),
                )),
                Value::Array(a) => Ok(Value::Array(
                    (0..a.len()).map(|i| Value::Num(i as f64)).collect(),
                )),
                other => Err(EvalError::TypeError(format!(
                    "{} has no keys",
                    other.type_name()
                ))),
            }
        }
        "values" => {
            arity(0)?;
            match input {
                Value::Object(o) => Ok(Value::Array(o.values().cloned().collect())),
                Value::Array(a) => Ok(Value::Array(a.clone())),
                other => Err(EvalError::TypeError(format!(
                    "{} has no values",
                    other.type_name()
                ))),
            }
        }
        "has" => {
            arity(1)?;
            let key = eval(&args[0], input, env)?;
            match (input, key) {
                (Value::Object(o), Value::Str(k)) => Ok(Value::Bool(o.contains_key(k.as_str()))),
                (Value::Array(a), Value::Num(i)) => {
                    Ok(Value::Bool(i >= 0.0 && (i as usize) < a.len()))
                }
                (v, k) => Err(EvalError::TypeError(format!(
                    "has({}) on {}",
                    k.type_name(),
                    v.type_name()
                ))),
            }
        }
        "contains" => {
            arity(1)?;
            let needle = eval(&args[0], input, env)?;
            Ok(Value::Bool(contains(input, &needle)))
        }
        "index" => {
            arity(1)?;
            let needle = eval(&args[0], input, env)?;
            match input {
                Value::Array(a) => Ok(a
                    .iter()
                    .position(|v| v == &needle)
                    .map(|i| Value::Num(i as f64))
                    .unwrap_or(Value::Null)),
                Value::Str(s) => match needle {
                    Value::Str(sub) => Ok(s
                        .find(&sub)
                        .map(|i| Value::Num(i as f64))
                        .unwrap_or(Value::Null)),
                    other => Err(EvalError::TypeError(format!(
                        "index({}) on string",
                        other.type_name()
                    ))),
                },
                other => Err(EvalError::TypeError(format!(
                    "index on {}",
                    other.type_name()
                ))),
            }
        }
        "min" | "max" => {
            arity(0)?;
            let arr = input
                .as_array()
                .ok_or_else(|| EvalError::TypeError(format!("{name} on non-array")))?;
            let mut best: Option<&Value> = None;
            for v in arr {
                best = match best {
                    None => Some(v),
                    Some(b) => {
                        let take =
                            compare(if name == "min" { BinOp::Lt } else { BinOp::Gt }, v, b)?
                                .truthy();
                        Some(if take { v } else { b })
                    }
                };
            }
            Ok(best.cloned().unwrap_or(Value::Null))
        }
        "add" => {
            arity(0)?;
            let arr = input
                .as_array()
                .ok_or_else(|| EvalError::TypeError("add on non-array".into()))?;
            let mut acc = Value::Null;
            for v in arr {
                acc = binary(BinOp::Add, acc, v.clone())?;
            }
            Ok(acc)
        }
        "floor" => num_fn(name, input, f64::floor),
        "ceil" => num_fn(name, input, f64::ceil),
        "round" => num_fn(name, input, f64::round),
        "abs" => num_fn(name, input, f64::abs),
        "sqrt" => num_fn(name, input, f64::sqrt),
        "not" => {
            arity(0)?;
            Ok(Value::Bool(!input.truthy()))
        }
        "any" => {
            arity(0)?;
            let arr = input
                .as_array()
                .ok_or_else(|| EvalError::TypeError("any on non-array".into()))?;
            Ok(Value::Bool(arr.iter().any(Value::truthy)))
        }
        "all" => {
            arity(0)?;
            let arr = input
                .as_array()
                .ok_or_else(|| EvalError::TypeError("all on non-array".into()))?;
            Ok(Value::Bool(arr.iter().all(Value::truthy)))
        }
        "type" => {
            arity(0)?;
            Ok(Value::Str(input.type_name().to_string()))
        }
        "tostring" => {
            arity(0)?;
            match input {
                Value::Str(s) => Ok(Value::Str(s.clone())),
                other => Ok(Value::Str(dspace_value::json::to_string(other))),
            }
        }
        "tonumber" => {
            arity(0)?;
            match input {
                Value::Num(n) => Ok(Value::Num(*n)),
                Value::Str(s) => s
                    .trim()
                    .parse::<f64>()
                    .map(Value::Num)
                    .map_err(|_| EvalError::TypeError(format!("cannot parse '{s}' as number"))),
                other => Err(EvalError::TypeError(format!(
                    "tonumber on {}",
                    other.type_name()
                ))),
            }
        }
        "map" => {
            arity(1)?;
            let arr = input
                .as_array()
                .ok_or_else(|| EvalError::TypeError("map on non-array".into()))?;
            let mut out = Vec::with_capacity(arr.len());
            for v in arr {
                out.push(eval(&args[0], v, env)?);
            }
            Ok(Value::Array(out))
        }
        "select" => {
            arity(1)?;
            if eval(&args[0], input, env)?.truthy() {
                Ok(input.clone())
            } else {
                Ok(Value::Null)
            }
        }
        "first" => {
            arity(0)?;
            match input {
                Value::Array(a) => Ok(a.first().cloned().unwrap_or(Value::Null)),
                other => Err(EvalError::TypeError(format!(
                    "first on {}",
                    other.type_name()
                ))),
            }
        }
        "last" => {
            arity(0)?;
            match input {
                Value::Array(a) => Ok(a.last().cloned().unwrap_or(Value::Null)),
                other => Err(EvalError::TypeError(format!(
                    "last on {}",
                    other.type_name()
                ))),
            }
        }
        "range" => {
            arity(1)?;
            let n = eval(&args[0], input, env)?
                .as_f64()
                .ok_or_else(|| EvalError::TypeError("range expects a number".into()))?;
            Ok(Value::Array(
                (0..n.max(0.0) as usize)
                    .map(|i| Value::Num(i as f64))
                    .collect(),
            ))
        }
        "startswith" | "endswith" => {
            arity(1)?;
            let prefix = eval(&args[0], input, env)?;
            match (input, prefix) {
                (Value::Str(s), Value::Str(p)) => Ok(Value::Bool(if name == "startswith" {
                    s.starts_with(&p)
                } else {
                    s.ends_with(&p)
                })),
                _ => Err(EvalError::TypeError(format!("{name} expects strings"))),
            }
        }
        "split" => {
            arity(1)?;
            let sep = eval(&args[0], input, env)?;
            match (input, sep) {
                (Value::Str(s), Value::Str(p)) if !p.is_empty() => Ok(Value::Array(
                    s.split(&p as &str)
                        .map(|part| Value::Str(part.into()))
                        .collect(),
                )),
                _ => Err(EvalError::TypeError(
                    "split expects non-empty string separator".into(),
                )),
            }
        }
        "join" => {
            arity(1)?;
            let sep = eval(&args[0], input, env)?;
            let (arr, sep) = match (input, sep) {
                (Value::Array(a), Value::Str(s)) => (a, s),
                _ => {
                    return Err(EvalError::TypeError(
                        "join expects array input and string sep".into(),
                    ))
                }
            };
            let parts: Result<Vec<String>, EvalError> = arr
                .iter()
                .map(|v| match v {
                    Value::Str(s) => Ok(s.clone()),
                    Value::Num(n) => Ok(dspace_value::json::to_string(&Value::Num(*n))),
                    other => Err(EvalError::TypeError(format!(
                        "join on array containing {}",
                        other.type_name()
                    ))),
                })
                .collect();
            Ok(Value::Str(parts?.join(&sep)))
        }
        "sort" => {
            arity(0)?;
            let arr = input
                .as_array()
                .ok_or_else(|| EvalError::TypeError("sort on non-array".into()))?;
            let mut out = arr.clone();
            sort_values(&mut out)?;
            Ok(Value::Array(out))
        }
        "sort_by" => {
            arity(1)?;
            let arr = input
                .as_array()
                .ok_or_else(|| EvalError::TypeError("sort_by on non-array".into()))?;
            let mut keyed: Vec<(Value, Value)> = Vec::with_capacity(arr.len());
            for v in arr {
                keyed.push((eval(&args[0], v, env)?, v.clone()));
            }
            // Stable sort by the computed key, using the jq total order.
            let mut err = None;
            keyed.sort_by(|a, b| match value_cmp(&a.0, &b.0) {
                Ok(o) => o,
                Err(e) => {
                    err.get_or_insert(e);
                    std::cmp::Ordering::Equal
                }
            });
            if let Some(e) = err {
                return Err(e);
            }
            Ok(Value::Array(keyed.into_iter().map(|(_, v)| v).collect()))
        }
        "unique" => {
            arity(0)?;
            let arr = input
                .as_array()
                .ok_or_else(|| EvalError::TypeError("unique on non-array".into()))?;
            let mut out = arr.clone();
            sort_values(&mut out)?;
            out.dedup();
            Ok(Value::Array(out))
        }
        "reverse" => {
            arity(0)?;
            match input {
                Value::Array(a) => Ok(Value::Array(a.iter().rev().cloned().collect())),
                Value::Str(s) => Ok(Value::Str(s.chars().rev().collect())),
                other => Err(EvalError::TypeError(format!(
                    "reverse on {}",
                    other.type_name()
                ))),
            }
        }
        "flatten" => {
            arity(0)?;
            let arr = input
                .as_array()
                .ok_or_else(|| EvalError::TypeError("flatten on non-array".into()))?;
            let mut out = Vec::new();
            for v in arr {
                match v {
                    Value::Array(inner) => out.extend(inner.iter().cloned()),
                    other => out.push(other.clone()),
                }
            }
            Ok(Value::Array(out))
        }
        "to_entries" => {
            arity(0)?;
            let obj = input
                .as_object()
                .ok_or_else(|| EvalError::TypeError("to_entries on non-object".into()))?;
            Ok(Value::Array(
                obj.iter()
                    .map(|(k, v)| {
                        dspace_value::object([
                            ("key", Value::from(k.as_str())),
                            ("value", v.clone()),
                        ])
                    })
                    .collect(),
            ))
        }
        "from_entries" => {
            arity(0)?;
            let arr = input
                .as_array()
                .ok_or_else(|| EvalError::TypeError("from_entries on non-array".into()))?;
            let mut map = BTreeMap::new();
            for entry in arr {
                let key = entry
                    .get_path("key")
                    .and_then(Value::as_str)
                    .ok_or_else(|| EvalError::TypeError("entry missing string key".into()))?;
                let value = entry.get_path("value").cloned().unwrap_or(Value::Null);
                map.insert(Name::from(key), value);
            }
            Ok(Value::Object(map.into()))
        }
        "ascii_downcase" => {
            arity(0)?;
            match input {
                Value::Str(s) => Ok(Value::Str(s.to_ascii_lowercase())),
                other => Err(EvalError::TypeError(format!(
                    "ascii_downcase on {}",
                    other.type_name()
                ))),
            }
        }
        "ascii_upcase" => {
            arity(0)?;
            match input {
                Value::Str(s) => Ok(Value::Str(s.to_ascii_uppercase())),
                other => Err(EvalError::TypeError(format!(
                    "ascii_upcase on {}",
                    other.type_name()
                ))),
            }
        }
        "now" => {
            arity(0)?;
            env.var("time")
                .cloned()
                .ok_or_else(|| EvalError::UnboundVariable("time".into()))
        }
        "empty" => {
            arity(0)?;
            Ok(Value::Null)
        }
        "error" => {
            arity(1)?;
            let msg = eval(&args[0], input, env)?;
            Err(EvalError::UserError(
                msg.as_str()
                    .map(str::to_string)
                    .unwrap_or_else(|| msg.to_string()),
            ))
        }
        other => Err(EvalError::UnknownFunction(other.to_string())),
    }
}

fn num_fn(name: &str, input: &Value, f: impl Fn(f64) -> f64) -> Result<Value, EvalError> {
    match input {
        Value::Num(n) => Ok(Value::Num(f(*n))),
        other => Err(EvalError::TypeError(format!(
            "{name} on {}",
            other.type_name()
        ))),
    }
}

/// jq `contains` semantics: strings by substring, arrays item-wise,
/// objects key/value-wise, scalars by equality.
fn contains(haystack: &Value, needle: &Value) -> bool {
    match (haystack, needle) {
        (Value::Str(h), Value::Str(n)) => h.contains(n.as_str()),
        (Value::Array(h), Value::Array(n)) => {
            n.iter().all(|nv| h.iter().any(|hv| contains(hv, nv)))
        }
        (Value::Array(h), n) => h.iter().any(|hv| hv == n),
        (Value::Object(h), Value::Object(n)) => n
            .iter()
            .all(|(k, nv)| h.get(k).map(|hv| contains(hv, nv)).unwrap_or(false)),
        (h, n) => h == n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval_str;
    use dspace_value::json::parse;

    fn run(src: &str, input: &str) -> Value {
        eval_str(src, &parse(input).unwrap(), &Env::new()).unwrap_or_else(|e| panic!("{src}: {e}"))
    }

    #[test]
    fn identity_and_paths() {
        assert_eq!(run(".", "5"), Value::Num(5.0));
        assert_eq!(run(".a.b", r#"{"a": {"b": 7}}"#), Value::Num(7.0));
        assert_eq!(run(".missing.path", "{}"), Value::Null);
        assert_eq!(run(".a[1]", r#"{"a": [1, 2]}"#), Value::Num(2.0));
    }

    #[test]
    fn arithmetic_and_comparison() {
        assert_eq!(run("1 + 2 * 3", "null"), Value::Num(7.0));
        assert_eq!(run("(1 + 2) * 3", "null"), Value::Num(9.0));
        assert_eq!(run("10 % 3", "null"), Value::Num(1.0));
        assert_eq!(run("1 < 2 and 2 <= 2", "null"), Value::Bool(true));
        assert_eq!(run("\"a\" + \"b\"", "null"), Value::Str("ab".into()));
        assert_eq!(run("[1] + [2]", "null"), run("[1, 2]", "null"));
    }

    #[test]
    fn division_by_zero_is_error() {
        let r = eval_str("1 / 0", &Value::Null, &Env::new());
        assert_eq!(r, Err(EvalError::DivisionByZero));
    }

    #[test]
    fn if_then_else() {
        assert_eq!(
            run("if .x > 1 then \"big\" else \"small\" end", r#"{"x": 5}"#),
            Value::Str("big".into())
        );
        assert_eq!(
            run("if .x > 1 then \"big\" else \"small\" end", r#"{"x": 0}"#),
            Value::Str("small".into())
        );
        // Missing else defaults to identity.
        assert_eq!(run("if false then 1 end", "42"), Value::Num(42.0));
        assert_eq!(
            run(
                "if .x == 1 then \"a\" elif .x == 2 then \"b\" else \"c\" end",
                r#"{"x": 2}"#
            ),
            Value::Str("b".into())
        );
    }

    #[test]
    fn assignment_returns_updated_document() {
        let out = run(".control.power.intent = \"on\"", r#"{"control": {}}"#);
        assert_eq!(
            out.get_path(".control.power.intent").unwrap().as_str(),
            Some("on")
        );
    }

    #[test]
    fn update_assignment_sees_current_value() {
        let out = run(".n |= . + 1", r#"{"n": 41}"#);
        assert_eq!(out.get_path(".n").unwrap().as_f64(), Some(42.0));
        let out = run(".n += 2", r#"{"n": 40}"#);
        assert_eq!(out.get_path(".n").unwrap().as_f64(), Some(42.0));
        let out = run(".n -= 2", r#"{"n": 44}"#);
        assert_eq!(out.get_path(".n").unwrap().as_f64(), Some(42.0));
    }

    #[test]
    fn pipelines_chain_assignments() {
        let out = run(".a = 1 | .b = .a + 1", "{}");
        assert_eq!(out.get_path(".b").unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn fig3_policy_triggers_within_window() {
        let model = parse(
            r#"{"motion": {"obs": {"last_triggered_time": 1000}},
                "control": {"brightness": {"intent": 0.2}}}"#,
        )
        .unwrap();
        let env = Env::new().with_var("time", 1300.0.into());
        let src = "if $time - .motion.obs.last_triggered_time <= 600 \
                   then .control.brightness.intent = 1 else . end";
        let out = eval_str(src, &model, &env).unwrap();
        assert_eq!(
            out.get_path(".control.brightness.intent").unwrap().as_f64(),
            Some(1.0)
        );
        // Outside the window the model is unchanged.
        let env = Env::new().with_var("time", 5000.0.into());
        let out = eval_str(src, &model, &env).unwrap();
        assert_eq!(out, model);
    }

    #[test]
    fn builtins() {
        assert_eq!(run("length", r#"[1, 2, 3]"#), Value::Num(3.0));
        assert_eq!(run("length", r#""abc""#), Value::Num(3.0));
        assert_eq!(
            run("keys", r#"{"b": 1, "a": 2}"#),
            run(r#"["a", "b"]"#, "null")
        );
        assert_eq!(run("has(\"a\")", r#"{"a": 1}"#), Value::Bool(true));
        assert_eq!(
            run("contains([\"person\"])", r#"["person", "dog"]"#),
            Value::Bool(true)
        );
        assert_eq!(
            run("contains([\"cat\"])", r#"["person", "dog"]"#),
            Value::Bool(false)
        );
        assert_eq!(run("min", "[3, 1, 2]"), Value::Num(1.0));
        assert_eq!(run("max", "[3, 1, 2]"), Value::Num(3.0));
        assert_eq!(run("add", "[1, 2, 3]"), Value::Num(6.0));
        assert_eq!(run("floor", "1.7"), Value::Num(1.0));
        assert_eq!(run(". | not", "false"), Value::Bool(true));
        assert_eq!(run("map(. * 2)", "[1, 2]"), run("[2, 4]", "null"));
        assert_eq!(run("select(. > 1)", "5"), Value::Num(5.0));
        assert_eq!(run("select(. > 1)", "0"), Value::Null);
        assert_eq!(run("type", r#"{"a": 1}"#), Value::Str("object".into()));
        assert_eq!(run("\"5.5\" | tonumber", "null"), Value::Num(5.5));
        assert_eq!(run("tostring", "[1]"), Value::Str("[1]".into()));
        assert_eq!(run("any", "[false, true]"), Value::Bool(true));
        assert_eq!(run("all", "[false, true]"), Value::Bool(false));
        assert_eq!(run("first", "[7, 8]"), Value::Num(7.0));
        assert_eq!(run("last", "[7, 8]"), Value::Num(8.0));
        assert_eq!(run("range(3)", "null"), run("[0, 1, 2]", "null"));
        assert_eq!(run("index(\"dog\")", r#"["cat", "dog"]"#), Value::Num(1.0));
        assert_eq!(
            run("\"a,b\" | split(\",\")", "null"),
            run(r#"["a","b"]"#, "null")
        );
        assert_eq!(run("join(\"-\")", r#"["a","b"]"#), Value::Str("a-b".into()));
        assert_eq!(
            run("startswith(\"rt\")", r#""rtsp://x""#),
            Value::Bool(true)
        );
    }

    #[test]
    fn collection_builtins() {
        assert_eq!(run("sort", "[3, 1, 2]"), run("[1, 2, 3]", "null"));
        assert_eq!(
            run("sort_by(.n)", r#"[{"n": 2}, {"n": 1}]"#),
            run(r#"[{"n": 1}, {"n": 2}]"#, "null")
        );
        assert_eq!(run("unique", "[2, 1, 2, 3, 1]"), run("[1, 2, 3]", "null"));
        assert_eq!(run("reverse", "[1, 2]"), run("[2, 1]", "null"));
        assert_eq!(run("reverse", r#""ab""#), Value::Str("ba".into()));
        assert_eq!(
            run("flatten", "[[1], [2, 3], 4]"),
            run("[1, 2, 3, 4]", "null")
        );
        assert_eq!(
            run("to_entries", r#"{"a": 1}"#),
            run(r#"[{"key": "a", "value": 1}]"#, "null")
        );
        assert_eq!(
            run("from_entries", r#"[{"key": "a", "value": 1}]"#),
            run(r#"{"a": 1}"#, "null")
        );
        assert_eq!(
            run("to_entries | from_entries", r#"{"x": 5, "y": 6}"#),
            run(r#"{"x": 5, "y": 6}"#, "null")
        );
        assert_eq!(run("ascii_downcase", r#""AbC""#), Value::Str("abc".into()));
        assert_eq!(run("ascii_upcase", r#""AbC""#), Value::Str("ABC".into()));
        // Incomparable elements error rather than panic.
        assert!(eval_str("sort", &parse(r#"[1, [2]]"#).unwrap(), &Env::new()).is_err());
    }

    #[test]
    fn alternative_operator() {
        assert_eq!(run(".a // 9", "{}"), Value::Num(9.0));
        assert_eq!(run(".a // 9", r#"{"a": 3}"#), Value::Num(3.0));
        assert_eq!(run(".a // 9", r#"{"a": false}"#), Value::Num(9.0));
    }

    #[test]
    fn variables() {
        let env = Env::new().with_var("mode", "sleep".into());
        assert_eq!(
            eval_str("$mode == \"sleep\"", &Value::Null, &env).unwrap(),
            Value::Bool(true)
        );
        assert!(matches!(
            eval_str("$nope", &Value::Null, &Env::new()),
            Err(EvalError::UnboundVariable(_))
        ));
    }

    #[test]
    fn computed_index_assignment() {
        let out = run(".arr[1] = 9", r#"{"arr": [1, 2, 3]}"#);
        assert_eq!(out.get_path(".arr[1]").unwrap().as_f64(), Some(9.0));
    }

    #[test]
    fn object_and_array_construction() {
        let out = run("{total: .a + .b, items: [.a, .b]}", r#"{"a": 1, "b": 2}"#);
        assert_eq!(out.get_path(".total").unwrap().as_f64(), Some(3.0));
        assert_eq!(out.get_path(".items[1]").unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn user_error_surfaces() {
        assert_eq!(
            eval_str("error(\"boom\")", &Value::Null, &Env::new()),
            Err(EvalError::UserError("boom".into()))
        );
    }

    #[test]
    fn assignment_to_identity_replaces_document() {
        assert_eq!(run(". = 5", "{}"), Value::Num(5.0));
    }

    #[test]
    fn cross_type_comparison_follows_jq_order() {
        assert_eq!(run("null < 0", "null"), Value::Bool(true));
        assert_eq!(run(".missing < 1", "{}"), Value::Bool(true));
    }
}
