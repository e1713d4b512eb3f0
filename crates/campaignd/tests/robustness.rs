//! Fault-domain laws of the supervised campaign service: poison jobs end
//! up quarantined exactly once, disk faults degrade to skipped
//! checkpoints (never aborts, never byte drift), and a shard's outcome
//! stream is rebuilt from its checkpoint on resume, whatever state a kill
//! or a skipped checkpoint left it in.

use mavr_campaignd::{merge_store, CampaignSession, CampaignSpec, CampaignStore, FaultFs};
use mavr_fleet::run_campaign;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use telemetry::Telemetry;

fn tmp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("mavr-campaignd-tests")
        .join(format!("robust-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn session(store: CampaignStore) -> CampaignSession {
    CampaignSession::new(store, Telemetry::off(), Arc::new(AtomicBool::new(false))).unwrap()
}

const POISON_SPEC: &str = r#"{
    "name": "poison",
    "boards": 2,
    "scenarios": ["benign", "v2"],
    "loss_levels": [0.01],
    "fault_levels": [0.0],
    "warmup_cycles": 50000,
    "attack_cycles": 100000,
    "shard_jobs": 3,
    "sabotage_panic": 1.0,
    "sabotage_seed": 7
}"#;

#[test]
fn quarantine_ledger_accounts_for_every_poison_job_exactly_once() {
    let root = tmp_root("quarantine");
    let spec = CampaignSpec::from_json(POISON_SPEC).unwrap();
    assert_eq!(spec.total_jobs(), 4);
    let store = CampaignStore::create(&root, spec.clone()).unwrap();

    // Every job panics on every attempt, yet the campaign completes.
    let outcome = session(store.clone()).run(None, None).unwrap();
    assert!(outcome.complete, "poison jobs never abort a shard");
    assert_eq!(outcome.checkpoints_skipped, 0);

    // Status and merge expose the degradation explicitly.
    let status = store.status().unwrap();
    assert_eq!(status.jobs_quarantined, 4);
    let (report_path, metrics) = merge_store(&store).unwrap();
    let report = std::fs::read_to_string(&report_path).unwrap();
    assert!(
        report.contains(r#""jobs_quarantined":2"#),
        "per-cell counts"
    );
    assert!(metrics
        .to_prometheus()
        .contains("campaign_jobs_quarantined_total"));

    // The ledger holds one line per quarantined job — and re-merging does
    // not duplicate entries.
    merge_store(&store).unwrap();
    let ledger = std::fs::read_to_string(store.quarantine_path()).unwrap();
    let lines: Vec<&str> = ledger.lines().collect();
    assert_eq!(lines.len(), 4, "{ledger}");
    for (job, line) in lines.iter().enumerate() {
        assert!(line.starts_with(&format!("{{\"job\":{job},")), "{line}");
        assert!(line.contains(r#""failure":"panic""#), "{line}");
        assert!(line.contains(r#""attempts":3"#), "{line}");
    }

    // Sabotage is a chaos-harness knob, not campaign identity: the
    // checkpoints fingerprint the same campaign a clean spec would.
    let mut clean = spec.clone();
    clean.sabotage = mavr_fleet::JobChaos::none();
    assert_eq!(
        mavr_fleet::config_fingerprint(&spec.to_config().unwrap()),
        mavr_fleet::config_fingerprint(&clean.to_config().unwrap()),
    );
}

#[test]
fn store_faults_degrade_to_skipped_checkpoints_never_aborts_or_drift() {
    let mut spec = CampaignSpec::named("soak");
    spec.boards = 2;
    spec.scenarios = vec![
        mavr_fleet::Scenario::Benign,
        mavr_fleet::Scenario::V2Stealthy,
    ];
    spec.loss_levels = vec![0.01];
    spec.fault_levels = vec![0.0];
    spec.warmup_cycles = 50_000;
    spec.attack_cycles = 100_000;
    spec.shard_jobs = 1;

    // The oracle: one clean, unsharded engine run.
    let expected = run_campaign(&spec.to_config().unwrap());
    let expected_metrics = expected.metrics();

    // Soak every fault schedule of seeds 1-8: three in four durable writes
    // fail (EIO/ENOSPC/short write) even after the store's in-write
    // retries have been burned through.
    let mut skipped = 0;
    for seed in 1..=8 {
        let root = tmp_root(&format!("faultfs-{seed}"));
        let store = CampaignStore::create(&root, spec.clone()).unwrap();
        let faulty = store.clone().with_faults(FaultFs::seeded(seed, 0.75));
        let sess = session(faulty);
        let mut slices = 0;
        loop {
            let outcome = sess.run(None, None).unwrap();
            slices += 1;
            if outcome.complete {
                break;
            }
            assert!(
                slices < 100,
                "seed {seed}: degradation ladder must converge"
            );
        }
        skipped += sess.checkpoints_skipped();

        // Merge through a clean store handle: byte-identical to the oracle
        // — disk faults cost retries and re-runs, never result drift.
        let (report_path, metrics) = merge_store(&store).unwrap();
        assert_eq!(
            std::fs::read_to_string(&report_path).unwrap(),
            expected.to_json(),
            "seed {seed}"
        );
        assert_eq!(metrics.to_prometheus(), expected_metrics.to_prometheus());
        assert!(
            !store.quarantine_path().exists(),
            "no quarantined jobs here"
        );
    }
    assert!(
        skipped > 0,
        "the soak is only a soak if some checkpoints were actually skipped"
    );
}

#[test]
fn outcome_stream_is_rebuilt_from_the_checkpoint_on_resume() {
    let mut spec = CampaignSpec::named("stream");
    spec.boards = 4;
    spec.scenarios = vec![mavr_fleet::Scenario::Benign];
    spec.loss_levels = vec![0.01];
    spec.fault_levels = vec![0.0];
    spec.warmup_cycles = 50_000;
    spec.attack_cycles = 100_000;
    spec.shard_jobs = 4;
    let expected = run_campaign(&spec.to_config().unwrap()).to_jsonl();

    type Damage = fn(&CampaignStore, &std::path::Path);
    let cases: [(&str, Damage); 3] = [
        // A SIGKILL mid-write tears the stream's last line.
        ("torn", |_, stream| {
            let intact = std::fs::read_to_string(stream).unwrap();
            std::fs::write(stream, format!("{intact}{{\"scenario\":\"ben")).unwrap();
        }),
        // A slice whose checkpoint the disk refused streamed lines the
        // checkpoint does not claim.
        ("skipped", |store, stream| {
            let faulty = store.clone().with_faults(FaultFs::seeded(1, 1.0));
            let outcome = session(faulty).run(None, None).unwrap();
            assert_eq!((outcome.jobs_run, outcome.checkpoints_skipped), (2, 1));
            assert_eq!(store.status().unwrap().done_jobs, 2);
            let streamed = std::fs::read_to_string(stream).unwrap();
            assert_eq!(streamed.lines().count(), 4);
        }),
        ("deleted", |_, stream| std::fs::remove_file(stream).unwrap()),
    ];
    for (case, damage) in cases {
        let root = tmp_root(&format!("stream-{case}"));
        let store = CampaignStore::create(&root, spec.clone()).unwrap();
        let outcome = session(store.clone()).run(Some(2), None).unwrap();
        assert_eq!(outcome.jobs_run, 2);
        let stream = store.outcomes_path(0);
        assert_eq!(std::fs::read_to_string(&stream).unwrap().lines().count(), 2);
        damage(&store, &stream);

        // Resume: the stream is rewritten from the checkpoint's two jobs,
        // then the other two append — exactly the oracle's lines.
        let outcome = session(store.clone()).run(None, None).unwrap();
        assert!(outcome.complete, "{case}");
        assert_eq!(
            std::fs::read_to_string(&stream).unwrap(),
            expected,
            "{case}"
        );
    }
}
