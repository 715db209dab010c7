//! The Imitate engine: behaviour cloning of user preferences (Ray RLlib
//! MARWIL stand-in).
//!
//! Scenario S6: "we implemented an Imitate digidata that uses Ray's RLlib
//! and implements a behavior cloning algorithm that learns and applies a
//! simple policy of updating the home's mode based on the rooms'
//! occupancy." The cloner learns the mapping *occupancy signature → mode*
//! from demonstrations (the user's own mode changes) and, once confident,
//! predicts the mode for the current occupancy.

use std::collections::BTreeMap;

use dspace_core::actuator::{Actuation, Actuator};
use dspace_simnet::{millis, Rng, Time};
use dspace_value::Value;

/// A frequency-based behaviour cloner.
///
/// Features are occupancy *signatures* (a canonical string like
/// `"bedroom:0|living:2"`); labels are home modes. Prediction returns the
/// majority label for the signature once at least `min_samples`
/// demonstrations for it were seen.
#[derive(Debug, Clone)]
pub struct BehaviorCloner {
    counts: BTreeMap<String, BTreeMap<String, u64>>,
    /// Demonstrations required per signature before predicting.
    pub min_samples: u64,
}

impl BehaviorCloner {
    /// Creates a cloner requiring 3 demonstrations per signature.
    pub fn new() -> Self {
        BehaviorCloner {
            counts: BTreeMap::new(),
            min_samples: 3,
        }
    }

    /// Canonical occupancy signature: room names with their person counts.
    pub fn signature(occupancy: &BTreeMap<String, u64>) -> String {
        occupancy
            .iter()
            .map(|(room, n)| format!("{room}:{n}"))
            .collect::<Vec<_>>()
            .join("|")
    }

    /// Records one demonstration `(signature, mode)`.
    pub fn observe(&mut self, signature: &str, mode: &str) {
        *self
            .counts
            .entry(signature.to_string())
            .or_default()
            .entry(mode.to_string())
            .or_insert(0) += 1;
    }

    /// Predicts the mode for a signature, or `None` when unconfident.
    pub fn predict(&self, signature: &str) -> Option<&str> {
        let modes = self.counts.get(signature)?;
        let total: u64 = modes.values().sum();
        if total < self.min_samples {
            return None;
        }
        modes
            .iter()
            .max_by_key(|(_, n)| **n)
            .map(|(mode, _)| mode.as_str())
    }

    /// Number of distinct signatures seen.
    pub fn signatures(&self) -> usize {
        self.counts.len()
    }
}

impl Default for BehaviorCloner {
    fn default() -> Self {
        Self::new()
    }
}

/// The Imitate digidata engine.
///
/// Inputs (written by the Home digivice through its mount):
/// - `data.input.occupancy`: `{room: person_count}` (continuously synced;
///   drives prediction),
/// - `data.input.demo`: `{occupancy, mode}` — one atomic demonstration,
///   written when the user picks a mode.
///
/// Output: `data.output.mode` — the learned recommendation for the
/// current occupancy, once confident.
pub struct ImitateEngine {
    cloner: BehaviorCloner,
    last_demo: Option<(String, String)>,
    last_output: Option<String>,
    /// Per-inference latency (policy evaluation).
    pub infer_latency: Time,
}

impl ImitateEngine {
    /// Creates an engine with default confidence settings.
    pub fn new() -> Self {
        ImitateEngine {
            cloner: BehaviorCloner::new(),
            last_demo: None,
            last_output: None,
            infer_latency: millis(90),
        }
    }

    /// Access to the underlying cloner (tests/inspection).
    pub fn cloner(&self) -> &BehaviorCloner {
        &self.cloner
    }

    fn signature_of(occ: &Value) -> Option<String> {
        let map = occ.as_object()?;
        let occupancy: BTreeMap<String, u64> = map
            .iter()
            .filter_map(|(k, v)| v.as_f64().map(|n| (k.to_string(), n as u64)))
            .collect();
        Some(BehaviorCloner::signature(&occupancy))
    }
}

impl Default for ImitateEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl Actuator for ImitateEngine {
    fn name(&self) -> &str {
        "Imitate (Ray RLlib)"
    }

    fn actuate(&mut self, _now: Time, _cmd: &Value, _rng: &mut Rng) -> Vec<Actuation> {
        Vec::new()
    }

    fn step(&mut self, _now: Time, model: &Value, _rng: &mut Rng) -> Vec<Actuation> {
        // Learn from atomic demonstrations.
        if let Some(demo) = model.get_path(".data.input.demo") {
            let sig = demo.get_path("occupancy").and_then(Self::signature_of);
            let mode = demo.get_path("mode").and_then(Value::as_str);
            if let (Some(sig), Some(mode)) = (sig, mode) {
                let pair = (sig.clone(), mode.to_string());
                if self.last_demo.as_ref() != Some(&pair) {
                    self.cloner.observe(&sig, mode);
                    self.last_demo = Some(pair);
                }
            }
        }
        // Predict for the current occupancy.
        let Some(signature) = model
            .get_path(".data.input.occupancy")
            .and_then(Self::signature_of)
        else {
            return Vec::new();
        };
        let Some(predicted) = self.cloner.predict(&signature) else {
            return Vec::new();
        };
        if self.last_output.as_deref() == Some(predicted) {
            return Vec::new();
        }
        self.last_output = Some(predicted.to_string());
        let mut patch = dspace_value::obj();
        patch
            .set(
                &".data.output.mode".parse().unwrap(),
                Value::from(predicted),
            )
            .unwrap();
        vec![Actuation::new(self.infer_latency, patch)]
    }

    fn poll_interval(&self) -> Option<Time> {
        Some(millis(500))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cloner_learns_majority_policy() {
        let mut c = BehaviorCloner::new();
        for _ in 0..3 {
            c.observe("living:0", "sleep");
        }
        c.observe("living:2", "active");
        assert_eq!(c.predict("living:0"), Some("sleep"));
        // Unconfident signature: one sample < min 3.
        assert_eq!(c.predict("living:2"), None);
        // Unknown signature.
        assert_eq!(c.predict("kitchen:1"), None);
        assert_eq!(c.signatures(), 2);
    }

    #[test]
    fn majority_wins_on_conflicting_demos() {
        let mut c = BehaviorCloner::new();
        c.observe("s", "a");
        c.observe("s", "b");
        c.observe("s", "b");
        assert_eq!(c.predict("s"), Some("b"));
    }

    #[test]
    fn signature_is_canonical() {
        let mut occ = BTreeMap::new();
        occ.insert("living".to_string(), 2);
        occ.insert("bedroom".to_string(), 0);
        assert_eq!(BehaviorCloner::signature(&occ), "bedroom:0|living:2");
    }

    #[test]
    fn engine_learns_then_recommends() {
        let mut eng = ImitateEngine::new();
        let mut rng = Rng::new(1);
        let mk = |people: u64, mode: &str| {
            dspace_value::json::parse(&format!(
                r#"{{"data": {{"input": {{"occupancy": {{"living": {people}}},
                     "demo": {{"occupancy": {{"living": {people}}}, "mode": "{mode}"}}}}}}}}"#
            ))
            .unwrap()
        };
        // Demonstrations: empty room -> sleep, three separate times
        // (interleaved with occupied -> active so the demo changes).
        for _ in 0..3 {
            eng.step(0, &mk(0, "sleep"), &mut rng);
            eng.step(0, &mk(2, "active"), &mut rng);
        }
        // Now an empty room: the engine recommends "sleep".
        let acts = eng.step(0, &mk(0, "sleep"), &mut rng);
        // (The last call may both demo and recommend; look for the patch.)
        let patch = acts
            .iter()
            .find_map(|a| a.patch.get_path(".data.output.mode"))
            .expect("recommendation produced");
        assert_eq!(patch.as_str(), Some("sleep"));
    }

    #[test]
    fn engine_silent_without_confidence() {
        let mut eng = ImitateEngine::new();
        let mut rng = Rng::new(2);
        let model = dspace_value::json::parse(
            r#"{"data": {"input": {"occupancy": {"living": 1},
                 "demo": {"occupancy": {"living": 1}, "mode": "active"}}}}"#,
        )
        .unwrap();
        assert!(eng.step(0, &model, &mut rng).is_empty());
    }
}
