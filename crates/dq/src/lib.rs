//! The `dq` command interpreter (§5.3 of the paper).
//!
//! "All digis, dSpace controllers, and policies can be created and/or
//! composed declaratively via standard Kubernetes configuration (yaml) …
//! or `dq`, which provides complementary commands/shortcuts such as run,
//! mount, yield, pipe …" This crate implements a `dq` that drives a
//! simulated space: commands are parsed and executed against a scenario
//! deployment, with virtual time advanced explicitly via `tick`.
//!
//! The interpreter is a library (so it is testable) wrapped by a tiny
//! REPL/batch binary.

use dspace_apiserver::{ApiServer, ObjectRef, Query, WalError, WatchId};
use dspace_core::graph::MountMode;
use dspace_core::policy::parse_ref;
use dspace_core::{Space, SpaceConfig};
use dspace_value::json;

/// The interpreter: a space plus command dispatch.
pub struct Dq {
    /// The space commands act on.
    pub space: Space,
    aliases: std::collections::BTreeMap<String, String>,
    /// Predicate watches opened with `watch`, keyed by their session token.
    watches: std::collections::BTreeMap<String, WatchId>,
    next_watch: usize,
}

/// Outcome of one command.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Text to print.
    Text(String),
    /// Quit requested.
    Quit,
}

impl Dq {
    /// Wraps a space.
    pub fn new(space: Space) -> Dq {
        Dq {
            space,
            aliases: Default::default(),
            watches: Default::default(),
            next_watch: 1,
        }
    }

    /// Builds an interpreter over a (possibly durable) space config: with
    /// `config.durability` set, the session resumes against whatever state
    /// a previous incarnation journaled — `list`, `graph`, and `get`
    /// answer from the recovered store immediately.
    pub fn open(config: SpaceConfig) -> Result<Dq, WalError> {
        Ok(Dq::new(Space::open(config)?))
    }

    /// Builds the interpreter around scenario S1 (the default playground).
    pub fn with_s1() -> Dq {
        let s1 = dspace_digis::scenarios::s1::S1::build();
        Dq::new(s1.space)
    }

    /// Executes one command line. Errors become printable text so a REPL
    /// session never dies on a typo.
    pub fn exec(&mut self, line: &str) -> Outcome {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Outcome::Text(String::new());
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        let result = match parts[0] {
            "quit" | "exit" => return Outcome::Quit,
            "help" => Ok(HELP.to_string()),
            "get" => self.cmd_get(&parts),
            "set" => self.cmd_set(&parts),
            "mount" => self.cmd_mount(&parts, false),
            "unmount" => self.cmd_mount(&parts, true),
            "yield" => self.cmd_yield(&parts, true),
            "unyield" => self.cmd_yield(&parts, false),
            "pipe" => self.cmd_pipe(&parts),
            "run" => self.cmd_run(&parts),
            "rmns" => self.cmd_rmns(&parts),
            "alias" => self.cmd_alias(&parts),
            "graph" => Ok(self.cmd_graph()),
            "list" => Ok(self.cmd_list()),
            "find" => self.cmd_find(line),
            "watch" => self.cmd_watch(line),
            "drain" => self.cmd_drain(&parts),
            "trace" => Ok(self.cmd_trace(&parts)),
            "tick" => self.cmd_tick(&parts),
            other => Err(format!("unknown command '{other}' (try 'help')")),
        };
        Outcome::Text(result.unwrap_or_else(|e| format!("error: {e}")))
    }

    fn oref(&self, s: &str) -> Result<ObjectRef, String> {
        let s = self.aliases.get(s).map(String::as_str).unwrap_or(s);
        if s.contains('/') {
            parse_ref(s).map_err(|e| e.to_string())
        } else {
            self.space.resolve(s).map_err(|e| e.to_string())
        }
    }

    /// `dq run <Kind> <name>`: creates a digi of a catalogue kind with its
    /// library driver (the paper's `dq run` shortcut, §5.3).
    fn cmd_run(&mut self, parts: &[&str]) -> Result<String, String> {
        let [_, kind, name] = parts else {
            return Err("usage: run <Kind> <name>".into());
        };
        let driver = dspace_digis::driver_for(kind)
            .ok_or_else(|| format!("no catalogue driver for kind {kind}"))?;
        let oref = self
            .space
            .create_digi(kind, name, driver)
            .map_err(|e| e.to_string())?;
        self.space.run_for_ms(100);
        Ok(format!("running {oref}"))
    }

    /// `dq rmns <namespace>`: tears down a whole namespace — every digi in
    /// it is deleted and its shard, drivers, devices, and mounts released.
    fn cmd_rmns(&mut self, parts: &[&str]) -> Result<String, String> {
        let [_, ns] = parts else {
            return Err("usage: rmns <namespace>".into());
        };
        let deleted = self.space.delete_namespace(ns).map_err(|e| e.to_string())?;
        self.space.run_for_ms(100);
        Ok(format!("namespace {ns} deleted ({deleted} digis)"))
    }

    /// `dq alias <short> <digi>`: a local shorthand for later commands.
    fn cmd_alias(&mut self, parts: &[&str]) -> Result<String, String> {
        match parts {
            [_, short, target] => {
                self.aliases.insert(short.to_string(), target.to_string());
                Ok(format!("{short} -> {target}"))
            }
            [_] => Ok(self
                .aliases
                .iter()
                .map(|(k, v)| format!("{k} -> {v}"))
                .collect::<Vec<_>>()
                .join("\n")),
            _ => Err("usage: alias [<short> <digi>]".into()),
        }
    }

    fn cmd_get(&mut self, parts: &[&str]) -> Result<String, String> {
        let [_, target] = parts else {
            return Err("usage: get <digi>[.path]".into());
        };
        let (name, path) = match target.split_once('.') {
            Some((n, p)) => (n, format!(".{p}")),
            None => (*target, ".".to_string()),
        };
        let oref = self.oref(name)?;
        let v = self
            .space
            .world
            .api
            .get_path(ApiServer::ADMIN, &oref, &path)
            .map_err(|e| e.to_string())?;
        // Models render as YAML, matching the paper's presentation (Fig. 1).
        Ok(dspace_value::yaml::to_string(&v).trim_end().to_string())
    }

    fn cmd_set(&mut self, parts: &[&str]) -> Result<String, String> {
        let [_, target, raw] = parts else {
            return Err("usage: set <digi>/<attr> <json-value>".into());
        };
        let value = json::parse(raw)
            .or_else(|_| json::parse(&format!("\"{raw}\"")))
            .map_err(|e| e.to_string())?;
        self.space
            .set_intent_now(target, value)
            .map_err(|e| e.to_string())?;
        self.space.run_for_ms(100);
        Ok(format!("intent set: {target}"))
    }

    fn cmd_mount(&mut self, parts: &[&str], un: bool) -> Result<String, String> {
        let (child, parent, mode) = match parts {
            [_, c, p] => (c, p, MountMode::Expose),
            [_, c, p, m] => (
                c,
                p,
                MountMode::parse(m).ok_or_else(|| "mode must be expose|hide".to_string())?,
            ),
            _ => return Err("usage: [un]mount <child> <parent> [expose|hide]".into()),
        };
        let c = self.oref(child)?;
        let p = self.oref(parent)?;
        if un {
            self.space.unmount(&c, &p).map_err(|e| e.to_string())?;
            Ok(format!("unmounted {c} from {p}"))
        } else {
            let st = self.space.mount(&c, &p, mode).map_err(|e| e.to_string())?;
            Ok(format!("mounted {c} -> {p} ({st:?})"))
        }
    }

    fn cmd_yield(&mut self, parts: &[&str], do_yield: bool) -> Result<String, String> {
        let [_, child, parent] = parts else {
            return Err("usage: [un]yield <child> <parent>".into());
        };
        let c = self.oref(child)?;
        let p = self.oref(parent)?;
        if do_yield {
            self.space.yield_(&c, &p).map_err(|e| e.to_string())?;
            Ok(format!("{p} yielded {c}"))
        } else {
            self.space.unyield(&c, &p).map_err(|e| e.to_string())?;
            Ok(format!("{p} holds write access over {c}"))
        }
    }

    fn cmd_pipe(&mut self, parts: &[&str]) -> Result<String, String> {
        let [_, from, to] = parts else {
            return Err("usage: pipe <digi>.<out-attr> <digi>.<in-attr>".into());
        };
        let split = |s: &str| -> Result<(ObjectRef, String), String> {
            let (n, a) = s.rsplit_once('.').ok_or("endpoint must be digi.attr")?;
            Ok((self.oref(n)?, a.to_string()))
        };
        let (src, src_attr) = split(from)?;
        let (dst, dst_attr) = split(to)?;
        let sref = self
            .space
            .pipe(&src, &src_attr, &dst, &dst_attr)
            .map_err(|e| e.to_string())?;
        Ok(format!("pipe created: {sref}"))
    }

    fn cmd_graph(&mut self) -> String {
        let graph = self.space.world.graph.borrow();
        let edges = graph.edges();
        if edges.is_empty() {
            return "(empty digi-graph)".to_string();
        }
        let mut out = String::new();
        for e in edges {
            out.push_str(&format!(
                "{} -> {}  [{} {}]\n",
                e.parent,
                e.child,
                e.mode.as_str(),
                match e.state {
                    dspace_core::graph::EdgeState::Active => "active",
                    dspace_core::graph::EdgeState::Yielded => "yielded",
                }
            ));
        }
        out
    }

    fn cmd_list(&mut self) -> String {
        let mut out = String::new();
        for obj in self.space.world.api.dump() {
            out.push_str(&format!("{} (gen {})\n", obj.oref, obj.resource_version));
        }
        out
    }

    /// Splits `<kind> [in <ns>] [where <expr>]` off the raw command line.
    /// The expression is everything after the first ` where ` — reflex
    /// programs contain spaces, so it can't ride the whitespace split.
    fn parse_query(&self, line: &str, verb: &str) -> Result<Query, String> {
        let rest = line[verb.len()..].trim();
        let (head, expr) = match rest.split_once(" where ") {
            Some((h, e)) => (h.trim(), Some(e.trim())),
            None => (rest, None),
        };
        let head: Vec<&str> = head.split_whitespace().collect();
        let mut q = match head.as_slice() {
            [kind] => Query::kind(*kind),
            [kind, "in", ns] => Query::kind(*kind).in_ns(*ns),
            _ => return Err(format!("usage: {verb} <kind> [in <ns>] [where <expr>]")),
        };
        if let Some(expr) = expr {
            q = q.filter(expr).map_err(|e| e.to_string())?;
        }
        Ok(q)
    }

    /// `dq find <kind> [in <ns>] [where <expr>]`: a filtered list riding
    /// the indexed query path.
    fn cmd_find(&mut self, line: &str) -> Result<String, String> {
        let q = self.parse_query(line, "find")?;
        let objs = self
            .space
            .world
            .api
            .query(ApiServer::ADMIN, &q)
            .map_err(|e| e.to_string())?;
        if objs.is_empty() {
            return Ok("(no matches)".to_string());
        }
        let mut out = String::new();
        for obj in objs {
            out.push_str(&format!("{} (gen {})\n", obj.oref, obj.resource_version));
        }
        Ok(out.trim_end().to_string())
    }

    /// `dq watch <kind> [in <ns>] where <expr>`: subscribes to commits
    /// matching a predicate (namespace defaults to `default`). Matching is
    /// done at commit time against the index delta, so non-matching events
    /// never go pending for the session. Drain with `drain <token>`.
    fn cmd_watch(&mut self, line: &str) -> Result<String, String> {
        let mut q = self.parse_query(line, "watch")?;
        if q.namespace.is_none() {
            q = q.in_ns("default");
        }
        let id = self
            .space
            .world
            .api
            .watch_query(ApiServer::ADMIN, &q)
            .map_err(|e| e.to_string())?;
        let token = format!("w{}", self.next_watch);
        self.next_watch += 1;
        self.watches.insert(token.clone(), id);
        Ok(format!("{token}: watching {}", describe(&q)))
    }

    /// `dq drain <token>`: prints (and consumes) the pending events of a
    /// watch opened with `watch`.
    fn cmd_drain(&mut self, parts: &[&str]) -> Result<String, String> {
        let [_, token] = parts else {
            return Err("usage: drain <watch-token>".into());
        };
        let id = *self
            .watches
            .get(*token)
            .ok_or_else(|| format!("no watch '{token}' (open one with 'watch')"))?;
        let events = self.space.world.api.poll(id);
        if events.is_empty() {
            return Ok("(no events)".to_string());
        }
        let mut out = String::new();
        for ev in events {
            out.push_str(&format!(
                "{:?} {} (gen {})\n",
                ev.kind, ev.oref, ev.resource_version
            ));
        }
        Ok(out.trim_end().to_string())
    }

    fn cmd_trace(&mut self, parts: &[&str]) -> String {
        let n: usize = parts.get(1).and_then(|s| s.parse().ok()).unwrap_or(10);
        let entries = self.space.world.trace.entries();
        let start = entries.len().saturating_sub(n);
        let mut out = String::new();
        for e in &entries[start..] {
            out.push_str(&format!(
                "{:>10.1}ms {:?} {} {}\n",
                e.t as f64 / 1e6,
                e.kind,
                e.subject,
                e.detail
            ));
        }
        out
    }

    fn cmd_tick(&mut self, parts: &[&str]) -> Result<String, String> {
        let ms: u64 = parts.get(1).and_then(|s| s.parse().ok()).unwrap_or(1000);
        self.space.run_for_ms(ms);
        Ok(format!("t = {:.1}ms", self.space.now_ms()))
    }
}

/// Renders a query for watch/find confirmations.
fn describe(q: &Query) -> String {
    let mut s = q.kind.clone().unwrap_or_else(|| "*".to_string());
    if let Some(ns) = &q.namespace {
        s.push_str(&format!(" in {ns}"));
    }
    if let Some(p) = &q.pred {
        s.push_str(&format!(" where {}", p.source()));
    }
    s
}

/// Help text.
pub const HELP: &str = "\
dq — dSpace command line (simulated space)
  get <digi>[.path]               read a model (or an attribute subtree)
  set <digi>/<attr> <value>       write a control intent
  mount <child> <parent> [mode]   mount a digi (mode: expose|hide)
  unmount <child> <parent>        remove a mount
  yield <child> <parent>          revoke the parent's write access
  unyield <child> <parent>        restore the parent's write access
  pipe <digi>.<out> <digi>.<in>   create a data flow
  run <Kind> <name>               create a digi with its catalogue driver
  rmns <namespace>                delete every digi in a namespace
  alias [<short> <digi>]          define or list name shorthands
  graph                           show the digi-graph
  list                            list all API objects
  find <kind> [in <ns>] [where <expr>]   filtered list (indexed)
  watch <kind> [in <ns>] where <expr>    subscribe to matching commits
  drain <token>                   print a watch's pending events
  trace [n]                       show the last n runtime trace entries
  tick [ms]                       advance virtual time (default 1000 ms)
  help | quit";

#[cfg(test)]
mod tests {
    use super::*;

    fn text(o: Outcome) -> String {
        match o {
            Outcome::Text(s) => s,
            Outcome::Quit => panic!("unexpected quit"),
        }
    }

    #[test]
    fn set_get_roundtrip() {
        let mut dq = Dq::with_s1();
        text(dq.exec("set lvroom/brightness 0.8"));
        text(dq.exec("tick 5000"));
        let out = text(dq.exec("get l1.control.brightness.status"));
        // 0.8 universal = 802 on the Tuya scale.
        assert!(out.contains("802"), "{out}");
        let out = text(dq.exec("get l1.control..brightness"));
        assert!(out.contains("error") && out.contains("bad path"), "{out}");
    }

    #[test]
    fn graph_lists_mounts() {
        let mut dq = Dq::with_s1();
        let out = text(dq.exec("graph"));
        assert!(
            out.contains("Room/default/lvroom -> UniLamp/default/ul1"),
            "{out}"
        );
        assert!(out.contains("active"));
    }

    #[test]
    fn yield_and_unyield() {
        let mut dq = Dq::with_s1();
        let out = text(dq.exec("yield ul1 lvroom"));
        assert!(out.contains("yielded"), "{out}");
        let out = text(dq.exec("graph"));
        assert!(out.contains("yielded"), "{out}");
        text(dq.exec("unyield ul1 lvroom"));
        let out = text(dq.exec("graph"));
        assert!(!out.contains("yielded"), "{out}");
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let mut dq = Dq::with_s1();
        let out = text(dq.exec("mount lvroom ul1"));
        assert!(out.contains("error"), "{out}"); // cycle
        let out = text(dq.exec("get ghost"));
        assert!(out.contains("error"), "{out}");
        let out = text(dq.exec("frobnicate"));
        assert!(out.contains("unknown command"), "{out}");
    }

    #[test]
    fn list_and_trace_and_help() {
        let mut dq = Dq::with_s1();
        assert!(text(dq.exec("list")).contains("Room/default/lvroom"));
        assert!(text(dq.exec("help")).contains("mount"));
        text(dq.exec("set lvroom/brightness 0.4"));
        text(dq.exec("tick 3000"));
        assert!(!text(dq.exec("trace 5")).is_empty());
        assert_eq!(dq.exec("quit"), Outcome::Quit);
    }

    #[test]
    fn find_filters_with_expressions() {
        let mut dq = Dq::with_s1();
        text(dq.exec("run Plug plugA"));
        text(dq.exec("run Plug plugB"));
        text(dq.exec("set plugA/power on"));
        text(dq.exec("tick 3000"));
        let out = text(dq.exec("find Plug where .control.power.intent == \"on\""));
        assert!(out.contains("Plug/default/plugA"), "{out}");
        assert!(!out.contains("plugB"), "{out}");
        let out = text(dq.exec("find Plug in default"));
        assert!(out.contains("plugA") && out.contains("plugB"), "{out}");
        assert!(text(dq.exec("find Plug where .nope ==")).contains("error"));
        assert!(text(dq.exec("find")).contains("error"));
    }

    #[test]
    fn watch_where_delivers_only_matching_commits() {
        let mut dq = Dq::with_s1();
        text(dq.exec("run Plug plugA"));
        text(dq.exec("run Plug plugB"));
        let out = text(dq.exec("watch Plug where .control.power.intent == \"on\""));
        assert!(out.starts_with("w1:"), "{out}");
        let id = dq.watches["w1"];
        // A non-matching commit never goes pending for the session.
        text(dq.exec("set plugB/power off"));
        assert!(!dq.space.world.api.has_pending(id));
        text(dq.exec("set plugA/power on"));
        let out = text(dq.exec("drain w1"));
        assert!(out.contains("Plug/default/plugA"), "{out}");
        assert!(!out.contains("plugB"), "{out}");
        assert_eq!(text(dq.exec("drain w1")), "(no events)");
        assert!(text(dq.exec("drain w9")).contains("error"));
    }

    #[test]
    fn run_creates_catalogue_digi_and_alias_works() {
        let mut dq = Dq::with_s1();
        let out = text(dq.exec("run Plug plug9"));
        assert!(out.contains("running Plug/default/plug9"), "{out}");
        let out = text(dq.exec("run Hovercraft h1"));
        assert!(out.contains("error"), "{out}");
        text(dq.exec("alias p plug9"));
        let out = text(dq.exec("get p.meta.kind"));
        assert!(out.contains("Plug"), "{out}");
        let out = text(dq.exec("alias"));
        assert!(out.contains("p -> plug9"), "{out}");
    }

    #[test]
    fn rmns_tears_down_namespace() {
        let mut dq = Dq::with_s1();
        let out = text(dq.exec("rmns default"));
        assert!(out.contains("namespace default deleted"), "{out}");
        assert!(text(dq.exec("get l1")).contains("error"));
        assert!(!text(dq.exec("list")).contains("Room/default/lvroom"));
        assert_eq!(text(dq.exec("graph")), "(empty digi-graph)");
        assert!(text(dq.exec("rmns")).contains("usage"));
    }

    #[test]
    fn unmount_removes_edge() {
        let mut dq = Dq::with_s1();
        text(dq.exec("unmount ul2 lvroom"));
        let out = text(dq.exec("graph"));
        // The room→ul2 edge is gone; ul2's own child mount remains.
        assert!(
            !out.contains("Room/default/lvroom -> UniLamp/default/ul2"),
            "{out}"
        );
        assert!(
            out.contains("UniLamp/default/ul2 -> LifxLamp/default/l2"),
            "{out}"
        );
    }

    #[test]
    fn durable_session_resumes_after_restart() {
        let dir = std::env::temp_dir().join(format!("dspace-dq-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = || SpaceConfig {
            durability: Some(dspace_apiserver::DurabilityOptions::new(dir.clone())),
            ..SpaceConfig::default()
        };

        // First session: build a small world through the CLI, journal it.
        let mut dq = Dq::open(config()).unwrap();
        dspace_digis::register_all(&mut dq.space);
        text(dq.exec("run Room den"));
        text(dq.exec("run Plug plug1"));
        assert!(!text(dq.exec("mount plug1 den")).contains("error"));
        text(dq.exec("set plug1/power on"));
        text(dq.exec("tick 3000"));
        let list = text(dq.exec("list"));
        let graph = text(dq.exec("graph"));
        assert!(graph.contains("Room/default/den -> Plug/default/plug1"));
        drop(dq); // crash

        // Second session: list/graph/get answer from the recovered store
        // before any new write.
        let mut dq = Dq::open(config()).unwrap();
        dspace_digis::register_all(&mut dq.space);
        assert_eq!(text(dq.exec("list")), list);
        assert_eq!(text(dq.exec("graph")), graph);
        assert!(text(dq.exec("get plug1.control.power.intent")).contains("on"));
        // Indexed finds work against the recovered store too: the indexes
        // are rebuilt on demand from the recovered objects.
        let found = text(dq.exec("find Plug where .control.power.intent == \"on\""));
        assert!(found.contains("Plug/default/plug1"), "{found}");

        // And the session keeps going: catalogue drivers re-attach to the
        // recovered digi, new digis and intents work.
        let plug1 = dq.space.resolve("plug1").unwrap();
        dq.space
            .world
            .add_driver(plug1, dspace_digis::driver_for("Plug").unwrap());
        text(dq.exec("run Plug plug2"));
        assert!(text(dq.exec("list")).contains("Plug/default/plug2"));
        // plug1 is still mounted under den with an active parent, so a
        // direct child write is reverted by the recovered mounter (the
        // parent replica holds the writer slot) — mount semantics survive
        // the restart too.
        dq.space
            .set_intent_now("plug1/power", "off".into())
            .unwrap();
        text(dq.exec("tick 3000"));
        let get_out = text(dq.exec("get plug1.control.power.intent"));
        assert!(get_out.contains("on"), "get: {get_out}");
        // An unmounted digi takes user intents directly.
        text(dq.exec("set plug2/power on"));
        text(dq.exec("tick 3000"));
        let get_out = text(dq.exec("get plug2.control.power.intent"));
        assert!(get_out.contains("on"), "get: {get_out}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
