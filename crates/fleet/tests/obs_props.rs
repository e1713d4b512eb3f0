//! Partition invariance of the campaign observability fold.
//!
//! The engine's guarantee is that `--metrics-out` bytes depend only on the
//! outcome list — never on how its jobs were partitioned into registry
//! shards. That holds because [`fold_outcome_metrics`] is the
//! single aggregation function and registry merge is associative and
//! commutative; this test drives the *fleet-specific* fold (every counter,
//! the latency sketch, the packets histogram — including the engine's
//! `sim_block_*` counters) over synthetic outcomes and arbitrary shard
//! partitions.

use mavlink_lite::channel::ChannelStats;
use mavr_fleet::{fold_outcome_metrics, registry_from_outcomes, BoardOutcome, Scenario};
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use telemetry::metrics::MetricsRegistry;

fn scenario(tag: u8) -> Scenario {
    match tag % 4 {
        0 => Scenario::Benign,
        1 => Scenario::V1Crash,
        2 => Scenario::V2Stealthy,
        _ => Scenario::V3Trampoline,
    }
}

/// A synthetic outcome exercising every labelled series the fold emits.
fn outcome_strategy() -> impl Strategy<Value = BoardOutcome> {
    (
        any::<u8>(),
        0usize..3,
        any::<u64>(),
        (0u64..1_000_000, 0u64..100, 0u64..5_000),
        (0u64..10_000, 0u64..50, 0u64..1 << 40),
        0u64..2_000_000,
    )
        .prop_map(|(tag, loss_idx, seed, a, b, latency)| {
            let latency = (latency > 0).then_some(latency);
            let (hits, invalidations, blocks) = a;
            let (packets, recoveries, final_cycle) = b;
            BoardOutcome {
                scenario: scenario(tag),
                loss: [0.0, 0.01, 0.05][loss_idx],
                fault: if tag & 1 == 0 { 0.0 } else { 0.0001 },
                board_index: usize::from(tag) % 8,
                board_seed: seed,
                attack_packets: usize::from(tag & 3),
                attack_succeeded: tag & 4 != 0,
                recoveries: recoveries as usize,
                reflash_retries: u64::from(tag) * 3,
                degraded_boots: u64::from(tag & 7),
                bricked: tag & 8 != 0,
                time_to_recovery: latency,
                final_cycle,
                heartbeats: seed % 1000,
                packets,
                seq_gaps: seed % 7,
                packets_lost: seed % 13,
                bad_checksums: seed % 5,
                uav_bad_crc: tag,
                sim_block_hits: hits,
                sim_block_invalidations: invalidations,
                sim_block_count: blocks,
                up_stats: ChannelStats::default(),
                down_stats: ChannelStats::default(),
                world: (tag & 16 != 0).then_some(mavr_fleet::WorldMetrics {
                    peak_alt_err_m: f64::from(tag) * 0.25,
                    ground_impacts: u32::from(tag & 1),
                    alt_lost_m: f64::from(tag & 7),
                    recoveries_caught: u32::from(tag & 3),
                }),
                failure: (tag & 32 != 0).then_some(mavr_fleet::JobFailure {
                    kind: if tag & 64 != 0 {
                        mavr_fleet::JobFailureKind::Panic
                    } else {
                        mavr_fleet::JobFailureKind::Timeout
                    },
                    attempts: 3,
                }),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One worker folding every outcome must expose byte-identically to
    /// any partition of the same outcomes across shards, merged in any
    /// order — the thread-count invariance `--metrics-out` promises.
    #[test]
    fn outcome_fold_is_partition_invariant(
        outcomes in pvec(outcome_strategy(), 0..40),
        cuts in pvec(0usize..40, 0..5),
    ) {
        let whole = registry_from_outcomes(&outcomes);

        let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (outcomes.len() + 1)).collect();
        bounds.push(0);
        bounds.push(outcomes.len());
        bounds.sort_unstable();
        let shards: Vec<MetricsRegistry> = bounds
            .windows(2)
            .map(|w| {
                let mut shard = MetricsRegistry::new();
                for o in &outcomes[w[0]..w[1]] {
                    fold_outcome_metrics(&mut shard, o).unwrap();
                }
                shard
            })
            .collect();
        let mut forward = MetricsRegistry::new();
        for s in &shards {
            forward.merge(s);
        }
        let mut reverse = MetricsRegistry::new();
        for s in shards.iter().rev() {
            reverse.merge(s);
        }
        forward.set_gauge("campaign_jobs_total", &[], outcomes.len() as f64);
        reverse.set_gauge("campaign_jobs_total", &[], outcomes.len() as f64);
        prop_assert_eq!(whole.to_prometheus(), forward.to_prometheus());
        prop_assert_eq!(whole.to_jsonl(), forward.to_jsonl());
        prop_assert_eq!(forward.to_prometheus(), reverse.to_prometheus());
        prop_assert_eq!(forward.to_jsonl(), reverse.to_jsonl());

        // The engine counters really are in the exposition (when nonzero),
        // even though they are deliberately absent from the report JSON.
        if outcomes.iter().any(|o| o.sim_block_hits > 0) {
            prop_assert!(whole.to_prometheus().contains("campaign_sim_block_hits_total"));
        }
    }
}
