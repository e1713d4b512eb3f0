//! The campaign checkpoint wire: the config fingerprint that keeps a
//! checkpoint from ever resuming a *different* campaign, and the
//! `BoardOutcome` codec [`crate::ShardCheckpoint`] serializes through the
//! `mavr-snapshot` wire format (CRC-guarded, versioned).
//!
//! A campaign is a pure function of its [`CampaignConfig`], and every job
//! (one board's full flight) is independent of every other, so the only
//! state worth persisting is *which jobs already finished and what they
//! observed*. Cells, fleet totals and metrics are *not* stored: they are a
//! pure fold over the per-board outcomes ([`crate::CampaignAggregate`]),
//! which is what makes resumed reports bit-identical to uninterrupted ones.

use crate::report::{BoardOutcome, JobFailure, JobFailureKind, WorldMetrics};
use crate::scenario::Scenario;
use crate::CampaignConfig;
use mavlink_lite::channel::ChannelStats;
use mavr_snapshot::{optional, Reader, SnapshotError, Writer};

/// FNV-1a over the campaign identity: exactly the fields that change a
/// result. `threads`, `block_fusion`, `gcs_capacity` (scroll-back depth;
/// every total stays exact), telemetry, the progress cadence, the
/// interrupt flag and job sabotage change none, so none is named.
pub fn config_fingerprint(cfg: &CampaignConfig) -> u64 {
    let losses: Vec<u64> = cfg.loss_levels.iter().map(|l| l.to_bits()).collect();
    let faults: Vec<u64> = cfg.fault_levels.iter().map(|f| f.to_bits()).collect();
    let scenarios: Vec<&str> = cfg.scenarios.iter().map(Scenario::name).collect();
    let canonical = format!(
        "seed={};boards={};scenarios={scenarios:?};loss_bits={losses:?};\
         fault_bits={faults:?};warmup={};attack={};gap={};app={};physics={};tenant={}",
        cfg.seed,
        cfg.boards,
        cfg.warmup_cycles,
        cfg.attack_cycles,
        cfg.packet_gap_cycles,
        cfg.app.name,
        cfg.physics,
        cfg.tenant,
    );
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in canonical.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn scenario_tag(s: Scenario) -> u8 {
    match s {
        Scenario::Benign => 0,
        Scenario::V1Crash => 1,
        Scenario::V2Stealthy => 2,
        Scenario::V3Trampoline => 3,
    }
}

fn scenario_from_tag(t: u8) -> Result<Scenario, SnapshotError> {
    Ok(match t {
        0 => Scenario::Benign,
        1 => Scenario::V1Crash,
        2 => Scenario::V2Stealthy,
        3 => Scenario::V3Trampoline,
        _ => return Err(SnapshotError::Malformed(format!("scenario tag {t}"))),
    })
}

fn put_stats(w: &mut Writer, s: &ChannelStats) {
    w.put_u64(s.bytes_in);
    w.put_u64(s.bytes_out);
    w.put_u64(s.dropped);
    w.put_u64(s.corrupted);
    w.put_u64(s.duplicated);
    w.put_u64(s.delayed);
}

fn get_stats(r: &mut Reader<'_>) -> Result<ChannelStats, SnapshotError> {
    Ok(ChannelStats {
        bytes_in: r.u64()?,
        bytes_out: r.u64()?,
        dropped: r.u64()?,
        corrupted: r.u64()?,
        duplicated: r.u64()?,
        delayed: r.u64()?,
    })
}

pub(crate) fn put_outcome(w: &mut Writer, o: &BoardOutcome) {
    w.put_u8(scenario_tag(o.scenario));
    w.put_u64(o.loss.to_bits());
    w.put_u64(o.fault.to_bits());
    w.put_u64(o.board_index as u64);
    w.put_u64(o.board_seed);
    w.put_u64(o.attack_packets as u64);
    w.put_bool(o.attack_succeeded);
    w.put_u64(o.recoveries as u64);
    w.put_u64(o.reflash_retries);
    w.put_u64(o.degraded_boots);
    w.put_bool(o.bricked);
    w.put_bool(o.time_to_recovery.is_some());
    w.put_u64(o.time_to_recovery.unwrap_or(0));
    w.put_u64(o.final_cycle);
    w.put_u64(o.heartbeats);
    w.put_u64(o.packets);
    w.put_u64(o.seq_gaps);
    w.put_u64(o.packets_lost);
    w.put_u64(o.bad_checksums);
    w.put_u8(o.uav_bad_crc);
    w.put_u64(o.sim_block_hits);
    w.put_u64(o.sim_block_invalidations);
    w.put_u64(o.sim_block_count);
    put_stats(w, &o.up_stats);
    put_stats(w, &o.down_stats);
    w.put_bool(o.world.is_some());
    let wm = o.world.unwrap_or_default();
    w.put_u64(wm.peak_alt_err_m.to_bits());
    w.put_u32(wm.ground_impacts);
    w.put_u64(wm.alt_lost_m.to_bits());
    w.put_u32(wm.recoveries_caught);
    w.put_bool(o.failure.is_some());
    let f = o.failure.unwrap_or(JobFailure {
        kind: JobFailureKind::Panic,
        attempts: 0,
    });
    w.put_u8(failure_tag(f.kind));
    w.put_u32(f.attempts);
}

fn failure_tag(kind: JobFailureKind) -> u8 {
    match kind {
        JobFailureKind::Panic => 1,
        JobFailureKind::Timeout => 2,
    }
}

fn failure_from_tag(tag: u8) -> Result<JobFailureKind, SnapshotError> {
    match tag {
        1 => Ok(JobFailureKind::Panic),
        2 => Ok(JobFailureKind::Timeout),
        _ => Err(SnapshotError::Malformed(format!("job-failure tag {tag}"))),
    }
}

pub(crate) fn get_outcome(r: &mut Reader<'_>) -> Result<BoardOutcome, SnapshotError> {
    Ok(BoardOutcome {
        scenario: scenario_from_tag(r.u8()?)?,
        loss: f64::from_bits(r.u64()?),
        fault: f64::from_bits(r.u64()?),
        board_index: r.u64()? as usize,
        board_seed: r.u64()?,
        attack_packets: r.u64()? as usize,
        attack_succeeded: r.bool()?,
        recoveries: r.u64()? as usize,
        reflash_retries: r.u64()?,
        degraded_boots: r.u64()?,
        bricked: r.bool()?,
        time_to_recovery: optional(r.bool()?, r.u64()?, 0)?,
        final_cycle: r.u64()?,
        heartbeats: r.u64()?,
        packets: r.u64()?,
        seq_gaps: r.u64()?,
        packets_lost: r.u64()?,
        bad_checksums: r.u64()?,
        uav_bad_crc: r.u8()?,
        sim_block_hits: r.u64()?,
        sim_block_invalidations: r.u64()?,
        sim_block_count: r.u64()?,
        up_stats: get_stats(r)?,
        down_stats: get_stats(r)?,
        // An absent world is written as all-zero bits, compared as bits:
        // `-0.0 == 0.0` would let a non-canonical one through.
        world: optional(
            r.bool()?,
            (r.u64()?, r.u32()?, r.u64()?, r.u32()?),
            (0, 0, 0, 0),
        )?
        .map(|(peak, impacts, lost, caught)| WorldMetrics {
            peak_alt_err_m: f64::from_bits(peak),
            ground_impacts: impacts,
            alt_lost_m: f64::from_bits(lost),
            recoveries_caught: caught,
        }),
        failure: match optional(
            r.bool()?,
            (r.u8()?, r.u32()?),
            (failure_tag(JobFailureKind::Panic), 0),
        )? {
            Some((tag, attempts)) => Some(JobFailure {
                kind: failure_from_tag(tag)?,
                attempts,
            }),
            None => None,
        },
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A fully-populated outcome, shared with the shard checkpoint tests.
    /// Even jobs carry world metrics, job 4 a failure record.
    pub(crate) fn sample_outcome(job: usize) -> BoardOutcome {
        BoardOutcome {
            scenario: Scenario::V2Stealthy,
            loss: 0.02,
            fault: 0.0001,
            board_index: job % 4,
            board_seed: 0xfeed_0000 + job as u64,
            attack_packets: 1,
            attack_succeeded: false,
            recoveries: 1,
            reflash_retries: job as u64,
            degraded_boots: (job % 2) as u64,
            bricked: job == 3,
            time_to_recovery: job.is_multiple_of(2).then_some(123_456),
            final_cycle: 6_300_000,
            heartbeats: 42,
            packets: 50,
            seq_gaps: 1,
            packets_lost: 2,
            bad_checksums: 3,
            uav_bad_crc: 4,
            sim_block_hits: 1000 + job as u64,
            sim_block_invalidations: job as u64,
            sim_block_count: 17,
            up_stats: ChannelStats {
                bytes_in: 100,
                bytes_out: 98,
                dropped: 2,
                corrupted: 1,
                duplicated: 0,
                delayed: 0,
            },
            down_stats: ChannelStats::default(),
            world: job
                .is_multiple_of(2)
                .then_some(crate::report::WorldMetrics {
                    peak_alt_err_m: 3.25 + job as f64,
                    ground_impacts: job as u32,
                    alt_lost_m: 0.5 * job as f64,
                    recoveries_caught: 1,
                }),
            failure: (job == 4).then_some(JobFailure {
                kind: JobFailureKind::Timeout,
                attempts: 3,
            }),
        }
    }

    #[test]
    fn checkpoint_round_trips() {
        let cfg = CampaignConfig {
            boards: 5,
            scenarios: vec![Scenario::V2Stealthy],
            ..CampaignConfig::default()
        };
        let mut ckpt = crate::ShardCheckpoint::whole_campaign(&cfg);
        // World metrics and failure records, each both set and unset.
        for job in 0..5u64 {
            ckpt.insert_outcome(job, sample_outcome(job as usize));
        }
        let blob = ckpt.to_bytes();
        assert_eq!(crate::ShardCheckpoint::from_bytes(&blob).unwrap(), ckpt);
    }

    #[test]
    fn fingerprint_tracks_result_relevant_config_only() {
        let cfg = CampaignConfig::default();
        let base = config_fingerprint(&cfg);
        // Thread count never changes the result, so it must not change
        // the fingerprint.
        let mut threads = cfg.clone();
        threads.threads = 7;
        assert_eq!(config_fingerprint(&threads), base);
        // Block fusion is an engine knob with differentially verified
        // identical results — a fusion-off resume of a fusion-on
        // checkpoint is legal, so it must not change the fingerprint.
        let mut fusion = cfg.clone();
        fusion.block_fusion = false;
        assert_eq!(config_fingerprint(&fusion), base);
        // Job sabotage is a chaos harness aimed at the *service*, not a
        // different experiment: a sabotaged campaign must checkpoint and
        // resume under the same fingerprint as the clean one.
        let mut sabotaged = cfg.clone();
        sabotaged.sabotage = crate::JobChaos {
            panic_rate: 0.5,
            hang_rate: 0.25,
            flaky_rate: 0.1,
            seed: 99,
        };
        assert_eq!(config_fingerprint(&sabotaged), base);
        // The ground station's scroll-back depth bounds what it retains,
        // not what it counts: every total stays exact, so a campaign
        // resumes whatever the capacity.
        let mut capacity = cfg.clone();
        capacity.gcs_capacity = 1;
        assert_eq!(config_fingerprint(&capacity), base);
        // Anything that alters the outcome must alter the fingerprint.
        for mutate in [
            |c: &mut CampaignConfig| c.seed += 1,
            |c: &mut CampaignConfig| c.boards += 1,
            |c: &mut CampaignConfig| c.loss_levels.push(0.5),
            |c: &mut CampaignConfig| c.fault_levels.push(0.0001),
            |c: &mut CampaignConfig| c.scenarios.push(Scenario::V1Crash),
            |c: &mut CampaignConfig| c.warmup_cycles += 1,
            |c: &mut CampaignConfig| c.attack_cycles += 1,
            |c: &mut CampaignConfig| c.packet_gap_cycles += 1,
            |c: &mut CampaignConfig| c.app = synth_firmware::apps::synth_quad_flight(),
            // Physics snaps the flight to world-step boundaries and couples
            // the loop — a physics resume of a bare checkpoint (or vice
            // versa) would silently mix result families.
            |c: &mut CampaignConfig| c.physics = true,
            // A tenant re-seeds every stream, so a tenant checkpoint can
            // never resume another tenant's campaign.
            |c: &mut CampaignConfig| c.tenant = 7,
        ] {
            let mut c = cfg.clone();
            mutate(&mut c);
            assert_ne!(config_fingerprint(&c), base);
            assert!(crate::ShardCheckpoint::whole_campaign(&cfg)
                .check(&c)
                .is_err());
        }
    }
}
