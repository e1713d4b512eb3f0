//! Shard-merge laws: cutting a campaign's job space into contiguous
//! shards, running them in any order (with mid-shard kills, serialize/
//! deserialize cycles, and varying thread counts along the way), and
//! merging the shard checkpoints must reproduce the unsharded campaign —
//! report JSON, Prometheus exposition, and JSONL metrics, byte for byte.
//!
//! These laws are what let the campaign service scale a campaign across
//! checkpointed segments without ever holding the whole job space: the
//! merged artifact is provably the one a single uninterrupted run would
//! have written.

use mavr_fleet::{
    config_fingerprint, json_prelude, merge_shard_checkpoints, run_campaign, run_shard_resume,
    summarize, BoardOutcome, CampaignAggregate, CampaignConfig, JobFailure, JobFailureKind,
    PreparedCampaign, Scenario, ShardCheckpoint, ShardPlan, WorldMetrics, JSON_EPILOGUE,
};
use mavr_snapshot::{Kind, SnapshotError, Writer};
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// The fixed campaign the laws are tested against: 2 scenarios × 2 fault
/// levels × 2 boards = 8 jobs, small enough to rerun per case.
fn cfg() -> CampaignConfig {
    CampaignConfig {
        boards: 2,
        scenarios: vec![Scenario::Benign, Scenario::V2Stealthy],
        loss_levels: vec![0.01],
        fault_levels: vec![0.0, 0.0005],
        attack_cycles: 2_500_000,
        ..CampaignConfig::default()
    }
}

/// The unsharded oracle, computed once: report JSON, Prometheus text,
/// metrics JSONL.
fn oracle() -> &'static (String, String, String) {
    static ORACLE: OnceLock<(String, String, String)> = OnceLock::new();
    ORACLE.get_or_init(|| {
        let report = run_campaign(&cfg());
        let metrics = report.metrics();
        (
            report.to_json(),
            metrics.to_prometheus(),
            metrics.to_jsonl(),
        )
    })
}

/// Turn arbitrary cut points into a contiguous partition of `[0, total)`.
fn partition(cuts: &[usize], total: u64) -> Vec<(u64, u64)> {
    let mut bounds: Vec<u64> = cuts.iter().map(|c| (*c as u64) % (total + 1)).collect();
    bounds.push(0);
    bounds.push(total);
    bounds.sort_unstable();
    bounds
        .windows(2)
        .filter(|w| w[0] < w[1])
        .map(|w| (w[0], w[1]))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any partition, any execution order, any merge order, any thread
    /// count, with every shard killed mid-run and resumed from its wire
    /// bytes: the merged report and metrics equal the unsharded run's.
    #[test]
    fn shard_merge_is_byte_identical_to_unsharded_run(
        cuts in pvec(0usize..9, 0..4),
        order_seed in any::<u64>(),
        threads in 1usize..4,
        budget in 1usize..3,
    ) {
        let cfg = CampaignConfig { threads, ..cfg() };
        let total = cfg.total_jobs() as u64;
        let ranges = partition(&cuts, total);

        // Build one checkpoint per range. Ranges need not come from a
        // uniform ShardPlan — merge only demands a partition.
        let mut shards: Vec<ShardCheckpoint> = ranges
            .iter()
            .enumerate()
            .map(|(i, &(lo, hi))| ShardCheckpoint {
                fingerprint: config_fingerprint(&cfg),
                shard_index: i as u64,
                job_lo: lo,
                job_hi: hi,
                outcomes: BTreeMap::new(),
            })
            .collect();
        // The proptest case, not wall-clock entropy, picks the order.
        shards.shuffle(&mut StdRng::seed_from_u64(order_seed));

        // Run each shard: first a budgeted slice (a mid-shard kill), then a
        // serialize/deserialize round trip (the on-disk checkpoint), then
        // resume to completion. Streamed outcomes must arrive in job order.
        let prepared = PreparedCampaign::new(&cfg);
        let mut done_campaign_wide = 0usize;
        for shard in &mut shards {
            let first = run_shard_resume(
                &cfg, &prepared, shard, Some(budget), done_campaign_wide, |_, _| {},
            ).unwrap();
            prop_assert!(!cfg.interrupted());
            prop_assert_eq!(first, budget.min(shard.jobs() as usize));

            *shard = ShardCheckpoint::from_bytes(&shard.to_bytes()).unwrap();

            let mut streamed: Vec<u64> = Vec::new();
            run_shard_resume(
                &cfg, &prepared, shard, None, done_campaign_wide + first,
                |job, _| streamed.push(job),
            ).unwrap();
            prop_assert!(shard.complete());
            let expected: Vec<u64> = (shard.job_lo..shard.job_hi).skip(first).collect();
            prop_assert_eq!(&streamed, &expected, "outcomes stream in job order");
            done_campaign_wide += shard.jobs() as usize;
        }

        // Merge in a different arbitrary order.
        shards.shuffle(&mut StdRng::seed_from_u64(
            order_seed.wrapping_mul(0x5851_f42d_4c95_7f2d),
        ));
        let (report, metrics) = merge_shard_checkpoints(&cfg, shards.clone()).unwrap();
        let (json, prom, jsonl) = oracle();
        prop_assert_eq!(&report.to_json(), json);
        prop_assert_eq!(&metrics.to_prometheus(), prom);
        prop_assert_eq!(&metrics.to_jsonl(), jsonl);

        // The streaming merge the campaign service uses — the same
        // CampaignAggregate fold, shard by shard, plus prelude/lines/epilogue
        // concatenation, never holding a CampaignReport — writes the same
        // bytes.
        shards.sort_by_key(|s| s.job_lo);
        let mut agg = CampaignAggregate::new(&cfg);
        let mut lines: Vec<String> = Vec::new();
        for shard in &shards {
            agg.fold_shard(shard).unwrap();
            lines.extend(shard.outcomes.values().map(BoardOutcome::to_json_line));
        }
        let (cells, fleet, agg_metrics) = agg.finish().unwrap();
        let mut streamed_json = json_prelude(&summarize(&cfg), &cells, &fleet);
        for (i, line) in lines.iter().enumerate() {
            if i > 0 {
                streamed_json.push_str(",\n");
            }
            streamed_json.push_str("    ");
            streamed_json.push_str(line);
        }
        streamed_json.push_str(JSON_EPILOGUE);
        prop_assert_eq!(&streamed_json, json);
        prop_assert_eq!(&agg_metrics.to_prometheus(), prom);
        prop_assert_eq!(&agg_metrics.to_jsonl(), jsonl);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any sequence of budgets at any thread count: after every slice the
    /// shard's outcomes are exactly the prefix `job_lo..job_lo + n`.
    #[test]
    fn every_slice_leaves_a_prefix_of_the_range(
        budgets in pvec(0usize..4, 1..5),
        threads in 1usize..5,
        index in 0u64..3,
    ) {
        let cfg = CampaignConfig { threads, ..cfg() };
        let mut shard = ShardCheckpoint::new(&cfg, &ShardPlan::new(&cfg, 3), index);
        let prepared = PreparedCampaign::new(&cfg);
        for budget in budgets {
            let before = shard.outcomes.len();
            let ran = run_shard_resume(&cfg, &prepared, &mut shard, Some(budget), 0, |_, _| {})
                .unwrap();
            prop_assert_eq!(ran, budget.min(shard.jobs() as usize - before));
            let n = shard.outcomes.len() as u64;
            let keys: Vec<u64> = shard.outcomes.keys().copied().collect();
            prop_assert_eq!(keys, (shard.job_lo..shard.job_lo + n).collect::<Vec<_>>());
        }
    }
}

/// A shard whose outcomes skip a job is refused at every boundary: it
/// cannot be written (the wire has no index to relabel its outcomes by),
/// and `check` refuses one in memory, so no run resumes it.
#[test]
fn a_shard_with_a_gap_is_refused() {
    let cfg = cfg();
    let mut gapped = ShardCheckpoint::new(&cfg, &ShardPlan::new(&cfg, 4), 1);
    for job in [4, 6] {
        gapped.outcomes.insert(job, sample());
    }
    let written = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| gapped.to_bytes()));
    assert!(written.is_err(), "a gapped shard is not written");
    let err = gapped.check(&cfg).unwrap_err();
    assert!(err.contains("not a prefix"), "{err}");
    let prepared = PreparedCampaign::new(&cfg);
    assert!(run_shard_resume(&cfg, &prepared, &mut gapped, None, 0, |_, _| {}).is_err());
    // The prefix it should have been passes.
    gapped.outcomes.remove(&6);
    gapped.check(&cfg).unwrap();
}

/// The aggregate refuses a shard holding an outcome from outside the
/// campaign matrix instead of silently misfiling it.
#[test]
fn aggregate_rejects_foreign_outcomes() {
    let cfg = cfg();
    let plan = ShardPlan::new(&cfg, 1);
    let foreign = BoardOutcome {
        scenario: Scenario::V3Trampoline,
        loss: 0.01,
        fault: 0.0,
        ..sample()
    };
    let wrong_loss = BoardOutcome {
        scenario: Scenario::Benign,
        loss: 0.5,
        fault: 0.0,
        ..sample()
    };
    for outcome in [foreign, wrong_loss] {
        let mut shard = ShardCheckpoint::new(&cfg, &plan, 0);
        shard.insert_outcome(0, outcome);
        let err = CampaignAggregate::new(&cfg).fold_shard(&shard).unwrap_err();
        assert!(err.contains("campaign matrix"), "{err}");
    }
    // Job 0's own cell (benign, loss 0.01, fault 0) folds.
    let mut shard = ShardCheckpoint::new(&cfg, &plan, 0);
    shard.insert_outcome(0, sample());
    CampaignAggregate::new(&cfg).fold_shard(&shard).unwrap();
}

/// A CRC-valid checkpoint can claim counts no run reaches. The merge
/// refuses a sum past `u64::MAX` and names the job, in debug and release
/// builds alike: a cell and fleet total (`heartbeats`), and a counter
/// only the metrics fold adds (`sim_block_count`).
#[test]
fn aggregate_refuses_sums_past_u64() {
    let cfg = cfg();
    let plan = ShardPlan::new(&cfg, 2);
    let heartbeats = BoardOutcome {
        heartbeats: u64::MAX,
        ..sample()
    };
    let blocks = BoardOutcome {
        sim_block_count: u64::MAX,
        ..sample()
    };
    for huge in [heartbeats, blocks] {
        let mut shard = ShardCheckpoint::new(&cfg, &plan, 0);
        shard.insert_outcome(0, huge.clone());
        shard.insert_outcome(1, huge);
        let shard = ShardCheckpoint::from_bytes(&shard.to_bytes()).unwrap();
        let err = CampaignAggregate::new(&cfg).fold_shard(&shard).unwrap_err();
        assert!(err.contains("job 1") && err.contains("u64::MAX"), "{err}");
    }
}

fn sample() -> BoardOutcome {
    BoardOutcome {
        scenario: Scenario::Benign,
        loss: 0.01,
        fault: 0.0,
        board_index: 0,
        board_seed: 1,
        attack_packets: 0,
        attack_succeeded: false,
        recoveries: 0,
        reflash_retries: 0,
        degraded_boots: 0,
        bricked: false,
        time_to_recovery: None,
        final_cycle: 1,
        heartbeats: 1,
        packets: 1,
        seq_gaps: 0,
        packets_lost: 0,
        bad_checksums: 0,
        uav_bad_crc: 0,
        sim_block_hits: 0,
        sim_block_invalidations: 0,
        sim_block_count: 0,
        up_stats: Default::default(),
        down_stats: Default::default(),
        world: None,
        failure: None,
    }
}

/// Two checkpoints to mutate: an empty shard, and one holding outcomes
/// with every optional field absent, and present.
fn checkpoints() -> [ShardCheckpoint; 2] {
    let cfg = cfg();
    let plan = ShardPlan::new(&cfg, 4);
    let empty = ShardCheckpoint::new(&cfg, &plan, 1);
    let mut full = ShardCheckpoint::new(&cfg, &plan, 0);
    full.insert_outcome(0, sample());
    full.insert_outcome(
        1,
        BoardOutcome {
            time_to_recovery: Some(40_000),
            world: Some(WorldMetrics {
                peak_alt_err_m: 1.5,
                ground_impacts: 1,
                alt_lost_m: 0.25,
                recoveries_caught: 2,
            }),
            ..sample()
        },
    );
    full.insert_outcome(
        2,
        BoardOutcome {
            failure: Some(JobFailure {
                kind: JobFailureKind::Timeout,
                attempts: 3,
            }),
            ..sample()
        },
    );
    [empty, full]
}

/// `payload` in a valid checkpoint frame, so only the payload decoder can
/// refuse it.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    for &b in payload {
        w.put_u8(b);
    }
    w.finish(Kind::ShardCheckpoint)
}

/// The payload of a framed blob (19-byte header, 4-byte CRC trailer).
fn payload(blob: &[u8]) -> &[u8] {
    &blob[19..blob.len() - 4]
}

/// The totality contract for one blob: it decodes to a checkpoint that
/// re-encodes to the same bytes, or it is refused — never a panic.
fn decodes_exactly_or_refuses(blob: &[u8]) {
    if let Ok(shard) = ShardCheckpoint::from_bytes(blob) {
        assert_eq!(
            shard.to_bytes(),
            blob,
            "a decoded blob must re-encode to itself"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// Every proper prefix of a payload, framed validly, is a truncation.
    #[test]
    fn truncated_checkpoints_are_truncations(pick in any::<bool>(), cut in any::<usize>()) {
        let blob = checkpoints()[usize::from(pick)].to_bytes();
        let whole = payload(&blob);
        let short = frame(&whole[..cut % whole.len()]);
        prop_assert!(
            matches!(ShardCheckpoint::from_bytes(&short), Err(SnapshotError::Truncated { .. })),
            "cut at {}", cut % whole.len()
        );
        prop_assert!(ShardCheckpoint::from_bytes(&blob[..cut % blob.len()]).is_err());
    }

    /// Flipped bits under a recomputed CRC decode exactly or are refused.
    #[test]
    fn bit_flipped_checkpoints_decode_exactly_or_are_refused(
        pick in any::<bool>(),
        flips in pvec((any::<usize>(), 0u8..8), 1..4),
    ) {
        let blob = checkpoints()[usize::from(pick)].to_bytes();
        let mut bytes = payload(&blob).to_vec();
        for (at, bit) in flips {
            let at = at % bytes.len();
            bytes[at] ^= 1 << bit;
        }
        decodes_exactly_or_refuses(&frame(&bytes));
    }

    /// Arbitrary payloads, rich in the bytes 0 and 1 so that flags, tags
    /// and counts often parse, decode exactly or are refused.
    #[test]
    fn arbitrary_checkpoints_decode_exactly_or_are_refused(
        bytes in pvec(prop_oneof![Just(0u8), Just(1u8), any::<u8>()], 0..600),
    ) {
        decodes_exactly_or_refuses(&frame(&bytes));
    }
}
