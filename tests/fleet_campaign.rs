//! Campaign-engine acceptance: determinism across runs and worker-thread
//! counts, and the headline fleet results (randomization defeats the
//! canned exploit; the master recovers crashed boards; lossy links are
//! visible in the sequence-gap accounting but never fabricate recoveries).

use mavr_repro::mavr_fleet::{run_campaign, CampaignConfig, Scenario};

/// A campaign small enough to run three times in one test.
fn small_cfg() -> CampaignConfig {
    CampaignConfig {
        boards: 2,
        scenarios: vec![Scenario::Benign, Scenario::V2Stealthy],
        loss_levels: vec![0.0, 0.02],
        attack_cycles: 2_000_000,
        ..CampaignConfig::default()
    }
}

#[test]
fn report_json_is_byte_identical_across_runs_and_thread_counts() {
    let one_thread = run_campaign(&CampaignConfig {
        threads: 1,
        ..small_cfg()
    });
    let four_threads = run_campaign(&CampaignConfig {
        threads: 4,
        ..small_cfg()
    });
    let (metrics_one, metrics_four) = (one_thread.metrics(), four_threads.metrics());
    let one_thread_again = run_campaign(&CampaignConfig {
        threads: 1,
        ..small_cfg()
    });
    assert_eq!(
        one_thread.to_json(),
        four_threads.to_json(),
        "worker-thread count leaked into the report"
    );
    assert_eq!(
        one_thread.to_json(),
        one_thread_again.to_json(),
        "identical configs must replay byte-identically"
    );
    assert_eq!(one_thread.to_jsonl(), four_threads.to_jsonl());
    // The metrics registry obeys the same contract: worker count must not
    // leak into either exposition.
    assert_eq!(metrics_one.to_prometheus(), metrics_four.to_prometheus());
    assert_eq!(metrics_one.to_jsonl(), metrics_four.to_jsonl());
    assert_eq!(
        metrics_one.to_jsonl(),
        one_thread_again.metrics().to_jsonl()
    );
    // Sanity on shape: scenario-major cell order, every board reported.
    assert_eq!(one_thread.cells.len(), 4);
    assert_eq!(one_thread.outcomes.len(), 8);
    assert_eq!(one_thread.fleet.links, 8);
}

#[test]
fn stealthy_cell_recovers_boards_without_a_single_success() {
    // The paper's core claim at fleet scale: over a perfect link the
    // canned V2 exploit reaches every board, never lands (each board flies
    // its own permutation), and the master detects and reflashes a good
    // fraction of the crashed ones.
    let report = run_campaign(&CampaignConfig {
        boards: 8,
        scenarios: vec![Scenario::V2Stealthy],
        loss_levels: vec![0.0],
        ..CampaignConfig::default()
    });
    let cell = &report.cells[0];
    assert_eq!(
        cell.attack_successes, 0,
        "an attack landed on a randomized board"
    );
    assert!(
        cell.boards_recovered >= 1,
        "no board recovered out of {}",
        cell.boards
    );
    assert_eq!(cell.latency_sketch.count() as usize, cell.boards_recovered);
    assert!(cell.mean_time_to_recovery().unwrap() > 0.0);
    let (lo, p50, hi) = cell.latency_spread().unwrap();
    assert!(lo <= p50 && p50 <= hi, "sketch quantiles must be ordered");
    // Detection is the heartbeat watchdog: latency is at least the
    // master's timeout window away from injection only when the crash was
    // silent — but it can never exceed the post-injection flight.
    assert!(hi < CampaignConfig::default().attack_cycles);
}

#[test]
fn benign_fleet_is_quiet_and_loss_shows_up_in_seq_gaps() {
    let report = run_campaign(&CampaignConfig {
        boards: 4,
        scenarios: vec![Scenario::Benign],
        loss_levels: vec![0.0, 0.05],
        attack_cycles: 2_000_000,
        ..CampaignConfig::default()
    });
    let clean = &report.cells[0];
    let lossy = &report.cells[1];
    assert_eq!(clean.loss, 0.0);
    assert_eq!(lossy.loss, 0.05);
    for cell in [clean, lossy] {
        assert_eq!(cell.recoveries_total, 0, "benign boards must never recover");
        assert_eq!(cell.attack_successes, 0);
    }
    // The perfect link delivers every frame in order; the lossy one leaves
    // checksum failures and sequence gaps on the ground station.
    assert_eq!(clean.seq_gaps, 0);
    assert_eq!(clean.bad_checksums, 0);
    assert!(lossy.seq_gaps > 0, "5% loss left no sequence gaps");
    assert!(lossy.packets_lost > 0);
    assert!(lossy.bytes_dropped > 0 && lossy.bytes_corrupted > 0);
    assert!(
        lossy.heartbeats < clean.heartbeats,
        "loss cannot increase decoded heartbeats"
    );
}
