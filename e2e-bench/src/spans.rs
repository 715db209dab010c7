//! The bench-side span recorder behind `--trace 1`.
//!
//! Spans are taken from outside the program: one per bench call into a
//! public function (`gen.*` actions and their apiserver/space children),
//! one per `Sim::step`, one per `World::pump`, and one per detection pass.
//! A step span's layer is inferred from the public effects the step left
//! behind (see `Runner::classify`). Self time is summed per layer; closed-loop
//! runs additionally sum it inside each intent's window, which gives the
//! exact per-intent split. Spans are kept in memory only when a JSONL file
//! is requested.

use std::io::Write;
use std::time::Instant;

use dspace_simnet::Time;

/// Where a span's wall time is attributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Apiserver,
    Space,
    Controller,
    Driver,
    Device,
    UserCli,
    Pump,
    Bench,
    Other,
}

impl Layer {
    pub const ALL: [Layer; 9] = [
        Layer::Apiserver,
        Layer::Space,
        Layer::Controller,
        Layer::Driver,
        Layer::Device,
        Layer::UserCli,
        Layer::Pump,
        Layer::Bench,
        Layer::Other,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Apiserver => "apiserver",
            Layer::Space => "space",
            Layer::Controller => "controller",
            Layer::Driver => "driver",
            Layer::Device => "device",
            Layer::UserCli => "user_cli",
            Layer::Pump => "pump",
            Layer::Bench => "bench",
            Layer::Other => "other",
        }
    }
}

struct Span {
    name: &'static str,
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
    vt: Time,
    intent: Option<u64>,
    parent: Option<usize>,
}

/// A child call inside a generator action: name, layer, wall start/end.
pub type Call = (&'static str, Layer, Instant, Instant);

pub struct Spans {
    origin: Instant,
    /// Recording; off outside the measured epochs.
    pub active: bool,
    keep: Option<Vec<Span>>,
    layer_ns: [u64; 9],
    intent_ns: [u64; 9],
    intent_wall_ns: u64,
    /// The closed-loop intent in flight: id and commit-call start.
    open: Option<(u64, Instant)>,
    /// Wall time spent on tracing itself: recording spans and reading the
    /// markers that classify them. Untraced runs do none of it.
    cost_ns: u64,
}

impl Spans {
    pub fn new(keep: bool) -> Spans {
        Spans {
            origin: Instant::now(),
            active: false,
            keep: keep.then(Vec::new),
            layer_ns: [0; 9],
            intent_ns: [0; 9],
            intent_wall_ns: 0,
            open: None,
            cost_ns: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Adds `self_ns` of a span over `[start, end]` to its layer, and the
    /// part of it inside the open intent window to the per-intent split.
    fn account(&mut self, layer: Layer, start: Instant, end: Instant, self_ns: u64) {
        self.layer_ns[layer as usize] += self_ns;
        if let Some((_, ws)) = self.open {
            if end > ws {
                let total = end.duration_since(start).as_nanos().max(1) as u64;
                let inside = end.duration_since(start.max(ws)).as_nanos() as u64;
                self.intent_ns[layer as usize] += self_ns * inside / total;
            }
        }
    }

    fn push(&mut self, span: Span) -> Option<usize> {
        let keep = self.keep.as_mut()?;
        keep.push(span);
        Some(keep.len() - 1)
    }

    /// Records a leaf span.
    pub fn record(
        &mut self,
        name: &'static str,
        layer: Layer,
        start: Instant,
        end: Instant,
        vt: Time,
    ) {
        if !self.active {
            return;
        }
        let c0 = Instant::now();
        let dur = end.duration_since(start).as_nanos() as u64;
        self.account(layer, start, end, dur);
        let span = Span {
            name,
            layer,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            vt,
            intent: self.open.map(|(id, _)| id),
            parent: None,
        };
        self.push(span);
        self.charge(c0.elapsed());
    }

    /// Adds tracing work done outside this recorder.
    pub fn charge(&mut self, d: std::time::Duration) {
        self.cost_ns += d.as_nanos() as u64;
    }

    /// Tracing cost as a share of `wall_ns`, in percent.
    pub fn overhead_pct(&self, wall_ns: u64) -> f64 {
        100.0 * self.cost_ns as f64 / wall_ns.max(1) as f64
    }

    /// Records a generator action (bench layer, self time only) with the
    /// program calls it made as children.
    pub fn action(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        vt: Time,
        intent: Option<u64>,
        calls: &[Call],
    ) {
        if !self.active {
            return;
        }
        let c0 = Instant::now();
        let total = end.duration_since(start).as_nanos() as u64;
        let mut child_ns = 0;
        for &(_, layer, s, e) in calls {
            let d = e.duration_since(s).as_nanos() as u64;
            child_ns += d;
            self.account(layer, s, e, d);
        }
        self.account(Layer::Bench, start, end, total.saturating_sub(child_ns));
        let parent = self.push(Span {
            name,
            layer: Layer::Bench,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            vt,
            intent,
            parent: None,
        });
        for &(cname, layer, s, e) in calls {
            let span = Span {
                name: cname,
                layer,
                start_ns: self.ns(s),
                end_ns: self.ns(e),
                vt,
                intent,
                parent,
            };
            self.push(span);
        }
        self.charge(c0.elapsed());
    }

    /// Opens a closed-loop intent window at its commit call.
    pub fn intent_open(&mut self, id: u64, at: Instant) {
        if self.active {
            self.open = Some((id, at));
        }
    }

    /// Closes the window at the detection instant; `detect_start` is the
    /// start of the detection pass still in progress, whose elapsed part
    /// belongs to this intent.
    pub fn intent_close(&mut self, at: Instant, detect_start: Instant) {
        if let Some((_, ws)) = self.open.take() {
            self.intent_wall_ns += at.duration_since(ws).as_nanos() as u64;
            self.intent_ns[Layer::Bench as usize] +=
                at.duration_since(detect_start.max(ws)).as_nanos() as u64;
        }
    }

    /// Drops an intent window that ended without fulfilment.
    pub fn intent_abort(&mut self) {
        self.open = None;
    }

    /// Per-layer shares in percent: of the summed intent windows when any
    /// were recorded (closed loop), else of `wall_ns`.
    pub fn shares(&self, wall_ns: u64) -> Vec<(Layer, f64)> {
        let (sums, denom) = if self.intent_wall_ns > 0 {
            (&self.intent_ns, self.intent_wall_ns)
        } else {
            (&self.layer_ns, wall_ns)
        };
        Layer::ALL
            .iter()
            .map(|&l| (l, 100.0 * sums[l as usize] as f64 / denom.max(1) as f64))
            .collect()
    }

    /// Writes the recorded spans as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<usize> {
        let Some(spans) = &self.keep else {
            return Ok(0);
        };
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        for (id, s) in spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"layer\":\"{}\",\"wall_start_ns\":{},\"wall_end_ns\":{},\"virtual_ns\":{},\"intent\":{},\"parent\":{}}}",
                s.name,
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                s.vt,
                opt(s.intent),
                opt(s.parent.map(|p| p as u64)),
            )?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}
