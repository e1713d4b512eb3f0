//! Campaign specifications: the JSON job description a client submits to
//! the service, and its mapping onto [`CampaignConfig`].
//!
//! A spec is the *identity* of a campaign — everything that changes the
//! result lives here (seed, matrix, cycles, app, tenant), plus the two
//! service knobs that don't (`threads`, `shard_jobs`). `to_config()` is
//! the only bridge to the engine, so a spec submitted today and re-read
//! from `spec.json` after a crash builds the identical campaign.

use crate::json::Json;
use mavr_fleet::{CampaignConfig, JobChaos, Scenario};

/// Check that `name` can be a campaign's directory name: non-empty, only
/// `[A-Za-z0-9._-]`, and neither `.` nor `..`, so joining it onto the
/// service root always names a directory inside the root.
pub fn check_name(name: &str) -> Result<(), String> {
    let plain = name
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'));
    if !plain || matches!(name, "" | "." | "..") {
        return Err(format!(
            "campaign name `{name}` must be non-empty [A-Za-z0-9._-] other \
             than `.` and `..` (it becomes a directory name)"
        ));
    }
    Ok(())
}

/// A parsed campaign specification.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name; doubles as its directory name under the service
    /// root, so it must pass [`check_name`].
    pub name: String,
    /// Master seed (exact u64; quote it in JSON if your tooling floats).
    pub seed: u64,
    /// Boards per matrix cell.
    pub boards: usize,
    /// Attack scenarios.
    pub scenarios: Vec<Scenario>,
    /// Link impairment sweep.
    pub loss_levels: Vec<f64>,
    /// Fault-injection sweep.
    pub fault_levels: Vec<f64>,
    /// Pre-attack flight cycles.
    pub warmup_cycles: u64,
    /// Post-attack flight cycles.
    pub attack_cycles: u64,
    /// Firmware app name ([`synth_firmware::apps::by_name`]).
    pub app: String,
    /// Tenant namespace (0 = single-tenant, byte-compatible).
    pub tenant: u64,
    /// Fly inside the physics arena.
    pub physics: bool,
    /// Worker threads (0 = one per core). Never affects results.
    pub threads: usize,
    /// Jobs per shard checkpoint. Never affects results — re-sharding a
    /// campaign merges to the same bytes.
    pub shard_jobs: u64,
    /// Seeded job-sabotage plan (chaos harnesses only). Excluded from the
    /// config fingerprint, so a sabotaged campaign checkpoints as the
    /// *same* campaign its clean twin does.
    pub sabotage: JobChaos,
}

impl CampaignSpec {
    /// A spec with the engine's defaults and the given name.
    pub fn named(name: &str) -> Self {
        let d = CampaignConfig::default();
        CampaignSpec {
            name: name.to_string(),
            seed: d.seed,
            boards: d.boards,
            scenarios: d.scenarios,
            loss_levels: d.loss_levels,
            fault_levels: d.fault_levels,
            warmup_cycles: d.warmup_cycles,
            attack_cycles: d.attack_cycles,
            app: "tiny".to_string(),
            tenant: 0,
            physics: false,
            threads: 0,
            shard_jobs: 1024,
            sabotage: JobChaos::none(),
        }
    }

    /// Parse a spec from JSON text. Unknown keys are rejected (a typoed
    /// `"scenarois"` must not silently run the default matrix).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = Json::parse(text).map_err(|e| format!("bad spec JSON: {e}"))?;
        let Json::Obj(fields) = &v else {
            return Err("spec must be a JSON object".into());
        };
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .ok_or("spec needs a string `name`")?;
        check_name(name)?;
        let mut spec = CampaignSpec::named(name);

        let u64_field = |key: &str, default: u64| -> Result<u64, String> {
            match v.get(key) {
                None => Ok(default),
                Some(j) => j.as_u64().ok_or(format!("`{key}` must be a u64")),
            }
        };
        let num_list = |key: &str, default: &[f64]| -> Result<Vec<f64>, String> {
            let Some(j) = v.get(key) else {
                return Ok(default.to_vec());
            };
            let items = j.as_arr().ok_or(format!("`{key}` must be an array"))?;
            items
                .iter()
                .map(|p| p.as_f64().ok_or(format!("`{key}` entries must be numbers")))
                .collect()
        };

        spec.seed = u64_field("seed", spec.seed)?;
        spec.boards = u64_field("boards", spec.boards as u64)? as usize;
        if let Some(j) = v.get("scenarios") {
            let items = j.as_arr().ok_or("`scenarios` must be an array of names")?;
            spec.scenarios = items
                .iter()
                .map(|s| {
                    s.as_str()
                        .ok_or("`scenarios` entries must be strings".to_string())
                        .and_then(|name| name.parse::<Scenario>())
                })
                .collect::<Result<_, _>>()?;
        }
        spec.loss_levels = num_list("loss_levels", &spec.loss_levels)?;
        spec.fault_levels = num_list("fault_levels", &spec.fault_levels)?;
        spec.warmup_cycles = u64_field("warmup_cycles", spec.warmup_cycles)?;
        spec.attack_cycles = u64_field("attack_cycles", spec.attack_cycles)?;
        if let Some(j) = v.get("app") {
            spec.app = j.as_str().ok_or("`app` must be a string")?.to_string();
        }
        spec.tenant = u64_field("tenant", spec.tenant)?;
        if let Some(j) = v.get("physics") {
            spec.physics = j.as_bool().ok_or("`physics` must be a boolean")?;
        }
        spec.threads = u64_field("threads", spec.threads as u64)? as usize;
        spec.shard_jobs = u64_field("shard_jobs", spec.shard_jobs)?.max(1);

        let num_field = |key: &str| -> Result<f64, String> {
            match v.get(key) {
                None => Ok(0.0),
                Some(j) => j.as_f64().ok_or(format!("`{key}` must be a number")),
            }
        };
        spec.sabotage.panic_rate = num_field("sabotage_panic")?;
        spec.sabotage.hang_rate = num_field("sabotage_hang")?;
        spec.sabotage.flaky_rate = num_field("sabotage_flaky")?;
        spec.sabotage.seed = u64_field("sabotage_seed", 0)?;

        const KNOWN: &[&str] = &[
            "name",
            "seed",
            "boards",
            "scenarios",
            "loss_levels",
            "fault_levels",
            "warmup_cycles",
            "attack_cycles",
            "app",
            "tenant",
            "physics",
            "threads",
            "shard_jobs",
            "sabotage_panic",
            "sabotage_hang",
            "sabotage_flaky",
            "sabotage_seed",
        ];
        for (key, _) in fields {
            if !KNOWN.contains(&key.as_str()) {
                return Err(format!(
                    "unknown spec key `{key}` (known: {})",
                    KNOWN.join(", ")
                ));
            }
        }
        // Validate the app and the matrix at submit time, not first-run time.
        spec.to_config()?;
        Ok(spec)
    }

    /// Canonical single-line JSON (every field explicit, fixed order) —
    /// what the service persists as `spec.json`.
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            ("name".into(), Json::str(&self.name)),
            ("seed".into(), Json::num(self.seed)),
            ("boards".into(), Json::num(self.boards as u64)),
            (
                "scenarios".into(),
                Json::Arr(self.scenarios.iter().map(|s| Json::str(s.name())).collect()),
            ),
            (
                "loss_levels".into(),
                Json::Arr(self.loss_levels.iter().map(|p| Json::float(*p)).collect()),
            ),
            (
                "fault_levels".into(),
                Json::Arr(self.fault_levels.iter().map(|p| Json::float(*p)).collect()),
            ),
            ("warmup_cycles".into(), Json::num(self.warmup_cycles)),
            ("attack_cycles".into(), Json::num(self.attack_cycles)),
            ("app".into(), Json::str(&self.app)),
            ("tenant".into(), Json::num(self.tenant)),
            ("physics".into(), Json::Bool(self.physics)),
            ("threads".into(), Json::num(self.threads as u64)),
            ("shard_jobs".into(), Json::num(self.shard_jobs)),
        ];
        // Sabotage keys appear only when armed, so fault-free specs render
        // byte-identically to specs written before job supervision existed.
        if !self.sabotage.is_none() {
            fields.push((
                "sabotage_panic".into(),
                Json::float(self.sabotage.panic_rate),
            ));
            fields.push(("sabotage_hang".into(), Json::float(self.sabotage.hang_rate)));
            fields.push((
                "sabotage_flaky".into(),
                Json::float(self.sabotage.flaky_rate),
            ));
            fields.push(("sabotage_seed".into(), Json::num(self.sabotage.seed)));
        }
        Json::Obj(fields).to_text()
    }

    /// The engine config this spec describes, checked by
    /// [`CampaignConfig::validate`]. Telemetry and the interrupt flag are
    /// left at their defaults — the runner wires those.
    pub fn to_config(&self) -> Result<CampaignConfig, String> {
        let app = synth_firmware::apps::by_name(&self.app).ok_or(format!(
            "unknown app `{}` ({})",
            self.app,
            synth_firmware::apps::APP_NAMES
        ))?;
        let cfg = CampaignConfig {
            seed: self.seed,
            boards: self.boards,
            scenarios: self.scenarios.clone(),
            loss_levels: self.loss_levels.clone(),
            fault_levels: self.fault_levels.clone(),
            warmup_cycles: self.warmup_cycles,
            attack_cycles: self.attack_cycles,
            threads: self.threads,
            app,
            physics: self.physics,
            tenant: self.tenant,
            sabotage: self.sabotage,
            ..CampaignConfig::default()
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Total jobs in this spec's matrix.
    pub fn total_jobs(&self) -> u64 {
        (self.scenarios.len() * self.loss_levels.len() * self.fault_levels.len() * self.boards)
            as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_canonical_json() {
        let text = r#"{
            "name": "night-sweep.v2",
            "seed": 9007199254740993,
            "boards": 100,
            "scenarios": ["benign", "v2"],
            "loss_levels": [0.0, 0.01],
            "fault_levels": [0.0005],
            "attack_cycles": 100000,
            "tenant": 7,
            "shard_jobs": 64
        }"#;
        let spec = CampaignSpec::from_json(text).unwrap();
        assert_eq!(spec.name, "night-sweep.v2");
        assert_eq!(spec.seed, 9_007_199_254_740_993, "seed survives above 2^53");
        assert_eq!(spec.scenarios, vec![Scenario::Benign, Scenario::V2Stealthy]);
        assert_eq!(spec.tenant, 7);
        let rt = CampaignSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(rt, spec);
        assert_eq!(rt.to_json(), spec.to_json());

        let cfg = spec.to_config().unwrap();
        assert_eq!(cfg.seed, spec.seed);
        assert_eq!(cfg.tenant, 7);
        assert_eq!(spec.total_jobs(), 400);
    }

    #[test]
    fn sabotage_keys_round_trip_and_stay_out_of_clean_specs() {
        let clean = CampaignSpec::named("clean");
        assert!(
            !clean.to_json().contains("sabotage"),
            "the inert plan renders no keys — clean specs stay byte-stable"
        );

        let text = r#"{"name": "chaos", "sabotage_panic": 0.25,
                       "sabotage_flaky": 0.5, "sabotage_seed": 99}"#;
        let spec = CampaignSpec::from_json(text).unwrap();
        assert_eq!(spec.sabotage.panic_rate, 0.25);
        assert_eq!(spec.sabotage.hang_rate, 0.0);
        assert_eq!(spec.sabotage.flaky_rate, 0.5);
        assert_eq!(spec.sabotage.seed, 99);
        let rt = CampaignSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(rt, spec);
        assert_eq!(spec.to_config().unwrap().sabotage, spec.sabotage);
    }

    #[test]
    fn spec_rejects_typos_and_bad_values() {
        for (bad, why) in [
            (r#"{"seed": 1}"#, "missing name"),
            (r#"{"name": "a/b"}"#, "slash in name"),
            (r#"{"name": "../x"}"#, "parent path in name"),
            (r#"{"name": ".."}"#, "name `..`"),
            (r#"{"name": "."}"#, "name `.`"),
            (r#"{"name": ""}"#, "empty name"),
            (r#"{"name": "ok", "scenarois": ["v2"]}"#, "typoed key"),
            (r#"{"name": "ok", "boards": 0}"#, "zero boards"),
            (r#"{"name": "ok", "loss_levels": [1.5]}"#, "loss > 1"),
            (r#"{"name": "ok", "loss_levels": []}"#, "empty sweep"),
            (r#"{"name": "ok", "scenarios": []}"#, "no scenarios"),
            (
                r#"{"name": "ok", "loss_levels": [0.01, 0.01]}"#,
                "repeated loss level",
            ),
            (
                r#"{"name": "ok", "loss_levels": [0.00001, 0.00002]}"#,
                "loss levels that print alike",
            ),
            (
                r#"{"name": "ok", "fault_levels": [0, 0]}"#,
                "repeated fault level",
            ),
            (
                r#"{"name": "ok", "fault_levels": [-0.0, 0]}"#,
                "-0 repeats 0",
            ),
            (
                r#"{"name": "ok", "scenarios": ["benign", "baseline"]}"#,
                "a scenario and its alias",
            ),
            (r#"{"name": "ok", "scenarios": ["v9"]}"#, "unknown scenario"),
            (r#"{"name": "ok", "app": "helicopter"}"#, "unknown app"),
            (r#"{"name": "ok", "seed": -1}"#, "negative seed"),
            (
                r#"{"name": "ok", "sabotage_panic": 1.5}"#,
                "sabotage rate > 1",
            ),
            (
                r#"{"name": "ok", "sabotage_hang": -0.1}"#,
                "negative sabotage rate",
            ),
        ] {
            assert!(CampaignSpec::from_json(bad).is_err(), "accepted {why}");
        }
    }
}
