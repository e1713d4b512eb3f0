//! Property tests for the mergeable metrics plane: sharded merges must be
//! associative, commutative and partition-invariant (so a registry's
//! expositions never depend on how its observations were split), and
//! quantile answers must stay inside the documented relative-error bound.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use telemetry::metrics::{MetricsRegistry, QuantileSketch};

/// Fold one shard's worth of observations the way a fleet worker does:
/// a counter, a labeled sketch and a labeled histogram per value.
fn shard_registry(values: &[u64]) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    for &v in values {
        let labels = [("scenario", "prop"), ("loss", "0.0000")];
        reg.add_counter("campaign_boards_total", &labels, 1)
            .unwrap();
        reg.observe_sketch("campaign_detection_latency_cycles", &labels, v);
        reg.observe_histogram("campaign_packets_per_board", &labels, v % 4096);
    }
    reg
}

fn sketch_of(values: &[u64]) -> QuantileSketch {
    let mut s = QuantileSketch::new();
    for &v in values {
        s.record(v);
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sketch_merge_is_commutative(a in pvec(0u64..4_000_000, 0..200),
                                   b in pvec(0u64..4_000_000, 0..200)) {
        let (sa, sb) = (sketch_of(&a), sketch_of(&b));
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(&ab, &ba);
    }

    #[test]
    fn sketch_merge_is_associative(a in pvec(0u64..4_000_000, 0..100),
                                   b in pvec(0u64..4_000_000, 0..100),
                                   c in pvec(0u64..4_000_000, 0..100)) {
        let (sa, sb, sc) = (sketch_of(&a), sketch_of(&b), sketch_of(&c));
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn quantiles_stay_inside_the_error_bound(mut values in pvec(0u64..4_000_000, 1..400)) {
        let s = sketch_of(&values);
        values.sort_unstable();
        for q in [0.0f64, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let exact = values[(q * (values.len() - 1) as f64).floor() as usize];
            let got = s.quantile(q).expect("non-empty sketch");
            // The answer is the floor of the bucket holding the exact
            // rank: never above it, and the bucket spans at most
            // 1/32 of its floor (values below 64 are exact).
            prop_assert!(got <= exact, "quantile({}) = {} > exact {}", q, got, exact);
            prop_assert!(
                exact - got <= got / 32,
                "quantile({}) = {} misses exact {} by more than 1/32",
                q, got, exact
            );
        }
        prop_assert_eq!(s.quantile(1.0), values.last().copied());
        prop_assert_eq!(s.quantile(0.0).unwrap() <= values[0], true);
    }

    #[test]
    fn sharded_merge_is_partition_invariant(values in pvec(0u64..4_000_000, 0..300),
                                            cuts in pvec(0usize..300, 0..6)) {
        // One worker folding every job...
        let whole = shard_registry(&values);
        // ...must expose byte-identically to any partition of the same
        // jobs across shards, merged in any order (reverse included).
        let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (values.len() + 1)).collect();
        bounds.push(0);
        bounds.push(values.len());
        bounds.sort_unstable();
        let shards: Vec<MetricsRegistry> = bounds
            .windows(2)
            .map(|w| shard_registry(&values[w[0]..w[1]]))
            .collect();
        let mut forward = MetricsRegistry::new();
        for s in &shards {
            forward.merge(s);
        }
        let mut reverse = MetricsRegistry::new();
        for s in shards.iter().rev() {
            reverse.merge(s);
        }
        prop_assert_eq!(whole.to_prometheus(), forward.to_prometheus());
        prop_assert_eq!(whole.to_jsonl(), forward.to_jsonl());
        prop_assert_eq!(forward.to_prometheus(), reverse.to_prometheus());
        prop_assert_eq!(forward.to_jsonl(), reverse.to_jsonl());
    }
}
