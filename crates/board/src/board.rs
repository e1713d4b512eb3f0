//! The complete MAVR board: application + master + external flash, wired
//! together with failed-attack detection and automatic recovery (Fig. 7).

use avr_core::image::FirmwareImage;
use avr_sim::{CrashReport, Fault, MachineState};
use mavr::policy::RandomizationPolicy;
use telemetry::{Telemetry, Value};

use crate::app::AppProcessor;
use crate::ext_flash::ExternalFlash;
use crate::master::{MasterError, MasterProcessor, StartupReport};

/// Why the master recovered the application processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryCause {
    /// The simulator reported a hard fault (the omniscient view; the real
    /// master cannot see this directly).
    Fault(Fault),
    /// The heartbeat stopped — the signal the real master watches (§V-A2).
    HeartbeatLost,
}

/// Log entries produced by the board.
#[derive(Debug, Clone, PartialEq)]
pub enum BoardEvent {
    /// A (re)boot completed.
    Boot {
        /// Boot ordinal (1-based).
        boot: u32,
        /// Timing report.
        report: StartupReport,
    },
    /// A failed attack was detected and the board recovered.
    Recovery {
        /// What tripped the watchdog.
        cause: RecoveryCause,
        /// Boot ordinal of the recovery boot.
        boot: u32,
        /// Application-processor cycle count at the moment of detection
        /// (before the reflash) — campaign reports derive time-to-recovery
        /// from this.
        at_cycle: u64,
    },
}

/// The assembled MAVR platform.
#[derive(Debug, Clone)]
pub struct MavrBoard {
    /// The master processor.
    pub master: MasterProcessor,
    /// The application processor (its `machine.uart0` is the telemetry
    /// port facing the ground station).
    pub app: AppProcessor,
    /// The external flash holding the unrandomized container.
    pub ext_flash: ExternalFlash,
    /// Event log.
    pub events: Vec<BoardEvent>,
    /// Heartbeat-silence threshold in CPU cycles before the master declares
    /// a failed attack.
    pub heartbeat_timeout: u64,
    /// Post-mortem of the most recent recovery, captured *before* the
    /// reflash wiped the dead machine. `None` until the first recovery.
    pub last_crash: Option<CrashReport>,
    /// Known-attacker address ranges (`(byte_addr, len, label)`) used to
    /// annotate crash reports — e.g. `AttackContext::annotations()`.
    pub forensic_annotations: Vec<(u32, u32, String)>,
    /// Flight-recorder handle for detection/recovery events (the master and
    /// application machine carry clones of the same handle).
    pub telemetry: Telemetry,
    watch_since: u64,
}

impl MavrBoard {
    /// Provision a board: preprocess `image`, upload it to the external
    /// flash, and perform the first randomized boot.
    pub fn provision(
        image: &FirmwareImage,
        seed: u64,
        policy: RandomizationPolicy,
    ) -> Result<Self, MasterError> {
        Self::provision_with(image, seed, policy, Telemetry::off())
    }

    /// Like [`MavrBoard::provision`], wiring `telemetry` through the master
    /// and the application machine so the whole boot lifecycle — container
    /// read, randomize, program, watchdog arm — lands on one stream.
    pub fn provision_with(
        image: &FirmwareImage,
        seed: u64,
        policy: RandomizationPolicy,
        telemetry: Telemetry,
    ) -> Result<Self, MasterError> {
        Self::provision_chaos(
            image,
            seed,
            policy,
            telemetry,
            crate::chaos::FaultPlan::none(),
        )
    }

    /// Like [`MavrBoard::provision_with`], with a fault plan installed on
    /// the master *before* the first boot — so chaos campaigns stress the
    /// provisioning reflash too, not just recoveries.
    pub fn provision_chaos(
        image: &FirmwareImage,
        seed: u64,
        policy: RandomizationPolicy,
        telemetry: Telemetry,
        chaos: crate::chaos::FaultPlan,
    ) -> Result<Self, MasterError> {
        let container = mavr::preprocess(image).map_err(|e| {
            MasterError::Flash(crate::ext_flash::FlashError::Corrupt(e.to_string()))
        })?;
        let mut ext_flash = ExternalFlash::new();
        ext_flash.upload(&container)?;
        Self::from_uploaded(ext_flash, seed, policy, telemetry, chaos)
    }

    /// Assemble a board around an external flash chip that already holds
    /// the container, and perform the first randomized boot. Clones of one
    /// uploaded chip share its cells, so a campaign uploads once and
    /// builds every board from that chip; each board's boots read it
    /// exactly as [`MavrBoard::provision_chaos`]'s private upload would be
    /// read.
    pub fn from_uploaded(
        ext_flash: ExternalFlash,
        seed: u64,
        policy: RandomizationPolicy,
        telemetry: Telemetry,
        chaos: crate::chaos::FaultPlan,
    ) -> Result<Self, MasterError> {
        let mut master = MasterProcessor::new(seed, policy);
        master.telemetry = telemetry.clone();
        master.chaos = chaos;
        let mut app = AppProcessor::new();
        app.machine.telemetry = telemetry.clone();
        if telemetry.is_active() {
            // Flight recorder on => keep an execution trail for forensics.
            app.machine.enable_trace(64);
        }
        let report = master.boot(&ext_flash, &mut app, false)?;
        let mut board = MavrBoard {
            master,
            app,
            ext_flash,
            events: Vec::new(),
            heartbeat_timeout: 1_000_000,
            last_crash: None,
            forensic_annotations: Vec::new(),
            telemetry,
            watch_since: 0,
        };
        board.watch_since = board.app.machine.cycles();
        board.arm_watch();
        board.events.push(BoardEvent::Boot {
            boot: board.master.boot_count(),
            report,
        });
        Ok(board)
    }

    /// Emit the "watchdog armed" event for the current watch window.
    fn arm_watch(&self) {
        let (since, timeout) = (self.watch_since, self.heartbeat_timeout);
        self.telemetry.emit("board.watch_armed", Some(since), || {
            vec![("heartbeat_timeout", Value::U64(timeout))]
        });
    }

    /// What the master's timing analysis sees right now.
    fn detect(&self) -> Option<RecoveryCause> {
        if let Some(f) = self.app.machine.fault() {
            return Some(RecoveryCause::Fault(f));
        }
        let now = self.app.machine.cycles();
        match self
            .app
            .machine
            .heartbeat
            .last_toggle()
            .filter(|&t| t >= self.watch_since)
        {
            Some(last) if now.saturating_sub(last) <= self.heartbeat_timeout => None,
            Some(_) => Some(RecoveryCause::HeartbeatLost),
            None if now.saturating_sub(self.watch_since) > self.heartbeat_timeout => {
                Some(RecoveryCause::HeartbeatLost)
            }
            None => None,
        }
    }

    /// Advance the application processor by `cycles`, with the master
    /// watching; on a detected failed attack the board resets,
    /// re-randomizes and reflashes, then keeps running.
    pub fn run(&mut self, cycles: u64) -> Result<(), MasterError> {
        let target = self.app.machine.cycles().saturating_add(cycles);
        while self.app.machine.cycles() < target {
            let chunk = (self.heartbeat_timeout / 4)
                .min(target - self.app.machine.cycles())
                .max(1);
            let _ = self.app.machine.run(chunk);
            if let Some(cause) = self.detect() {
                self.recover(cause)?;
            }
        }
        Ok(())
    }

    /// Recovery path (§V-C): reset the application processor, re-randomize,
    /// reflash. The dead machine's post-mortem is captured into
    /// [`MavrBoard::last_crash`] *before* the reflash destroys the evidence.
    pub fn recover(&mut self, cause: RecoveryCause) -> Result<StartupReport, MasterError> {
        // The real master only ever sees heartbeat silence (§V-A2); the
        // simulator's fault, when there is one, is the omniscient view and
        // arrives separately as a `sim.fault` event from the machine itself.
        let now = self.app.machine.cycles();
        self.telemetry.emit("board.heartbeat_miss", Some(now), || {
            vec![("cause", Value::Str(format!("{cause:?}")))]
        });
        self.last_crash = Some(CrashReport::capture(
            &self.app.machine,
            self.master.last_image.as_ref(),
            &self.forensic_annotations,
        ));
        let report = self.master.boot(&self.ext_flash, &mut self.app, true)?;
        self.watch_since = self.app.machine.cycles();
        self.arm_watch();
        let boot = self.master.boot_count();
        self.telemetry.emit("board.recovery", Some(now), || {
            vec![
                ("boot", Value::U64(u64::from(boot))),
                ("cause", Value::Str(format!("{cause:?}"))),
                ("rerandomized", Value::Bool(report.randomized)),
            ]
        });
        self.events.push(BoardEvent::Recovery {
            cause,
            boot,
            at_cycle: now,
        });
        self.events.push(BoardEvent::Boot { boot, report });
        Ok(report)
    }

    /// A normal power-cycle: the master runs its boot path, re-randomizing
    /// if the policy's period has elapsed.
    pub fn reboot(&mut self) -> Result<StartupReport, MasterError> {
        let report = self.master.boot(&self.ext_flash, &mut self.app, false)?;
        self.watch_since = self.app.machine.cycles();
        self.arm_watch();
        self.events.push(BoardEvent::Boot {
            boot: self.master.boot_count(),
            report,
        });
        Ok(report)
    }

    /// Number of recoveries so far.
    pub fn recoveries(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, BoardEvent::Recovery { .. }))
            .count()
    }

    /// Detection cycle of every recovery, in event order.
    pub fn recovery_cycles(&self) -> Vec<u64> {
        self.events
            .iter()
            .filter_map(|e| match e {
                BoardEvent::Recovery { at_cycle, .. } => Some(*at_cycle),
                _ => None,
            })
            .collect()
    }

    /// Ground-station side: send bytes to the UAV.
    pub fn uplink(&mut self, bytes: &[u8]) {
        self.app.machine.uart0.inject(bytes);
    }

    /// Ground-station side: drain telemetry from the UAV.
    pub fn downlink(&mut self) -> Vec<u8> {
        self.app.machine.uart0.take_tx()
    }

    /// The attacker's view of the application processor's flash — all
    /// `0xff` thanks to the readout-protection fuse.
    pub fn attacker_flash_view(&self) -> Vec<u8> {
        self.app.external_flash_read()
    }

    /// Capture everything that determines the board's future: the complete
    /// application machine, the lock fuse, the master's entropy stream and
    /// wear ledger, and the heartbeat watch window.
    ///
    /// Diagnostics — the event log, `last_crash`, `last_permutation`,
    /// `last_image` — are deliberately *not* captured: they describe the
    /// past, not the future, and restoring them onto a board that has its
    /// own history would lie about that history. A board restored from this
    /// state executes identically to the saved one forever (including the
    /// permutations drawn by later recoveries), but its diagnostic log
    /// starts from the restore point.
    pub fn capture_state(&self) -> BoardState {
        BoardState {
            app: self.app.machine.capture_state(),
            app_locked: self.app.locked(),
            master_rng: self.master.rng_state(),
            boot_count: self.master.boot_count(),
            wear_cycles: self.master.wear.cycles_used,
            watch_since: self.watch_since,
            heartbeat_timeout: self.heartbeat_timeout,
            chaos: self.master.chaos.state(),
            reflash_retries: self.master.resilience.reflash_retries,
            degraded_boots: self.master.resilience.degraded_boots,
        }
    }

    /// Restore a state captured by [`MavrBoard::capture_state`] onto a
    /// board provisioned from the *same container image* (the external
    /// flash is immutable, so it is not part of the snapshot).
    pub fn restore_state(&mut self, s: &BoardState) {
        self.app.machine.restore_state(&s.app);
        self.app.restore_lock_fuse(s.app_locked);
        self.master.restore_entropy(s.master_rng, s.boot_count);
        self.master.wear.cycles_used = s.wear_cycles;
        self.watch_since = s.watch_since;
        self.heartbeat_timeout = s.heartbeat_timeout;
        self.master.chaos.restore_state(&s.chaos);
        self.master.resilience.reflash_retries = s.reflash_retries;
        self.master.resilience.degraded_boots = s.degraded_boots;
    }
}

/// Serializable snapshot of a [`MavrBoard`]'s execution-determining state.
///
/// See [`MavrBoard::capture_state`] for the exact contract (diagnostics
/// excluded; restore requires a board provisioned from the same container).
#[derive(Debug, Clone, PartialEq)]
pub struct BoardState {
    /// The application processor's machine state.
    pub app: MachineState,
    /// Whether the readout-protection fuse is set.
    pub app_locked: bool,
    /// The master's RNG stream position.
    pub master_rng: [u64; 4],
    /// The master's boot counter.
    pub boot_count: u32,
    /// Application-flash program cycles consumed.
    pub wear_cycles: u32,
    /// Start of the current heartbeat watch window (app cycles).
    pub watch_since: u64,
    /// Heartbeat-silence threshold in cycles.
    pub heartbeat_timeout: u64,
    /// The fault plan's RNG position and injection counter. Restore
    /// requires a board built with the same [`crate::chaos::ChaosConfig`]
    /// (configuration, like the container, is construction-time input).
    pub chaos: crate::chaos::ChaosState,
    /// The master's lifetime reflash-retry counter.
    pub reflash_retries: u64,
    /// The master's lifetime degraded-boot counter.
    pub degraded_boots: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mavlink_lite::GroundStation;
    use rop::attack::AttackContext;
    use synth_firmware::{apps, build, layout as l, BuildOptions};

    fn vulnerable_board() -> (MavrBoard, FirmwareImage) {
        let fw = build(&apps::tiny_test_app(), &BuildOptions::vulnerable_mavr()).unwrap();
        let board =
            MavrBoard::provision(&fw.image, 0xda7a, RandomizationPolicy::default()).unwrap();
        (board, fw.image)
    }

    #[test]
    fn healthy_board_runs_without_recoveries() {
        let (mut board, _) = vulnerable_board();
        board.run(3_000_000).unwrap();
        assert_eq!(board.recoveries(), 0);
        let mut gcs = GroundStation::new();
        gcs.ingest(&board.downlink());
        assert!(gcs.heartbeats.len() > 10);
        assert_eq!(gcs.bad_checksums(), 0);
    }

    #[test]
    fn readout_protection_blocks_attacker() {
        let (board, image) = vulnerable_board();
        let view = board.attacker_flash_view();
        assert!(view.iter().all(|&b| b == 0xff));
        assert_ne!(
            &board.app.machine.flash()[..image.bytes.len()],
            &image.bytes[..]
        );
    }

    #[test]
    fn attack_against_randomized_board_fails_and_recovers() {
        // The paper's §VII-A effectiveness experiment, end to end: the
        // attacker crafts the stealthy attack against the *unprotected*
        // binary. Against a randomized board the chain lands in the wrong
        // code: the attack NEVER succeeds, and in a majority of layouts the
        // board visibly executes garbage, which the master detects before
        // resetting, re-randomizing and reflashing.
        let fw = build(&apps::tiny_test_app(), &BuildOptions::vulnerable_mavr()).unwrap();
        let ctx = AttackContext::discover(&fw.image).unwrap();
        let payload = ctx
            .v2_payload(&[(l::GYRO + 3, [0xde, 0xad, 0x42])])
            .unwrap();
        let mut detections = 0;
        let mut recovered_board = None;
        for seed in 0..6u64 {
            let mut board =
                MavrBoard::provision(&fw.image, seed, RandomizationPolicy::default()).unwrap();
            board.run(300_000).unwrap();
            let mut gcs = GroundStation::new();
            board.uplink(&gcs.exploit_packet(&payload).unwrap());
            board.run(6_000_000).unwrap();
            // The sensor is NEVER set to the attacker's values.
            assert_ne!(
                board.app.machine.peek_range(l::GYRO + 3, 3),
                vec![0xde, 0xad, 0x42],
                "seed {seed}: attack must not succeed against randomized code"
            );
            if board.recoveries() >= 1 {
                detections += 1;
                recovered_board = Some(board);
            }
        }
        assert!(
            detections >= 2,
            "the master should catch failed attacks often (got {detections}/6)"
        );
        // A recovered board is healthy again: fresh telemetry, no further
        // recoveries.
        let mut board = recovered_board.unwrap();
        let before = board.recoveries();
        let _ = board.downlink();
        board.run(2_000_000).unwrap();
        assert_eq!(board.recoveries(), before);
        let mut gcs = GroundStation::new();
        gcs.ingest(&board.downlink());
        assert!(gcs.heartbeats.len() > 5, "telemetry resumed after reflash");
    }

    #[test]
    fn sustained_attack_campaign_never_succeeds() {
        // §V-D: "to defeat MAVR an attacker would need to dynamically
        // construct a new exploit for not only every instance of every
        // application but also for every attack." Fire the payload
        // repeatedly; every failure that crashes gets a *fresh* permutation,
        // the attack never lands, and the wear ledger records each reflash.
        let fw = build(&apps::tiny_test_app(), &BuildOptions::vulnerable_mavr()).unwrap();
        let ctx = AttackContext::discover(&fw.image).unwrap();
        let payload = ctx
            .v2_payload(&[(l::GYRO + 3, [0xde, 0xad, 0x42])])
            .unwrap();
        // Every-boot randomization: each power cycle rotates the layout,
        // so the attacker faces a fresh permutation every round even when
        // the previous failure soft-landed without a crash.
        let policy = RandomizationPolicy {
            every_n_boots: 1,
            on_attack: true,
        };
        let mut board = MavrBoard::provision(&fw.image, 0xc4a9, policy).unwrap();
        let mut gcs = GroundStation::new();
        let mut permutations = vec![board.master.last_permutation.clone().unwrap()];
        let rounds = 8;
        for round in 0..rounds {
            board.run(300_000).unwrap();
            board.uplink(&gcs.exploit_packet(&payload).unwrap());
            board.run(5_000_000).unwrap();
            assert_ne!(
                board.app.machine.peek_range(l::GYRO + 3, 3),
                vec![0xde, 0xad, 0x42],
                "round {round}: attack must never land"
            );
            let perm = board.master.last_permutation.clone().unwrap();
            if perm != *permutations.last().unwrap() {
                permutations.push(perm);
            }
            board.reboot().unwrap();
        }
        let recoveries = board.recoveries();
        assert!(recoveries >= 1, "campaign should trip the watchdog");
        // Wear ledger: initial boot + reboots + one program per recovery.
        assert_eq!(
            board.master.wear.cycles_used as usize,
            1 + rounds + recoveries
        );
        // The board is still flying after the whole campaign.
        let _ = board.downlink();
        board.run(1_500_000).unwrap();
        let mut gcs2 = GroundStation::new();
        gcs2.ingest(&board.downlink());
        assert!(gcs2.heartbeats.len() > 5);
    }

    #[test]
    fn recovery_uses_fresh_permutation() {
        let (mut board, _) = vulnerable_board();
        let perm1 = board.master.last_permutation.clone().unwrap();
        board.recover(RecoveryCause::HeartbeatLost).unwrap();
        let perm2 = board.master.last_permutation.clone().unwrap();
        assert_ne!(perm1, perm2, "every recovery draws a new permutation");
        board.run(1_500_000).unwrap();
        assert_eq!(board.recoveries(), 1, "board healthy after recovery");
    }

    #[test]
    fn telemetry_stream_and_crash_capture_on_recovery() {
        use telemetry::RingRecorder;
        let fw = build(&apps::tiny_test_app(), &BuildOptions::vulnerable_mavr()).unwrap();
        let t = Telemetry::new(RingRecorder::new(256));
        let mut board =
            MavrBoard::provision_with(&fw.image, 0xda7a, RandomizationPolicy::default(), t.clone())
                .unwrap();
        board.run(300_000).unwrap();
        assert!(board.last_crash.is_none());
        board.recover(RecoveryCause::HeartbeatLost).unwrap();
        let crash = board.last_crash.as_ref().expect("post-mortem captured");
        assert!(
            !crash.trail.is_empty(),
            "provision_with enables tracing, so the trail is populated"
        );
        assert!(
            crash.trail.iter().any(|a| a.symbol.is_some()),
            "randomized symbol map attributes the trail"
        );
        let kinds: Vec<&'static str> = t
            .with_recorder::<RingRecorder, _>(|r| r.events().map(|e| e.kind).collect())
            .unwrap();
        for expected in [
            "master.boot",
            "master.container_read",
            "master.randomize",
            "master.programmed",
            "board.watch_armed",
            "board.heartbeat_miss",
            "board.recovery",
        ] {
            assert!(kinds.contains(&expected), "missing {expected} in {kinds:?}");
        }
    }

    #[test]
    fn restored_board_continues_identically() {
        // Snapshot a board mid-attack (payload injected, crash brewing),
        // restore onto a freshly provisioned board with a *different* seed,
        // and run both through the crash and the master's recovery: every
        // future — including the re-randomization permutations drawn by the
        // restored entropy stream — must match the original exactly.
        let fw = build(&apps::tiny_test_app(), &BuildOptions::vulnerable_mavr()).unwrap();
        let ctx = AttackContext::discover(&fw.image).unwrap();
        let payload = ctx
            .v2_payload(&[(l::GYRO + 3, [0xde, 0xad, 0x42])])
            .unwrap();
        let mut original =
            MavrBoard::provision(&fw.image, 0x5eed, RandomizationPolicy::default()).unwrap();
        original.run(300_000).unwrap();
        let mut gcs = GroundStation::new();
        original.uplink(&gcs.exploit_packet(&payload).unwrap());
        original.run(500_000).unwrap();
        let state = original.capture_state();

        let mut restored =
            MavrBoard::provision(&fw.image, 0xffff, RandomizationPolicy::default()).unwrap();
        restored.restore_state(&state);
        assert_eq!(restored.app.machine.capture_state(), state.app);

        original.run(6_000_000).unwrap();
        restored.run(6_000_000).unwrap();
        assert_eq!(
            original.app.machine.capture_state(),
            restored.app.machine.capture_state(),
            "restored board must continue lockstep with the original"
        );
        assert_eq!(original.master.rng_state(), restored.master.rng_state());
        assert_eq!(original.master.boot_count(), restored.master.boot_count());
        assert_eq!(
            original.master.wear.cycles_used,
            restored.master.wear.cycles_used
        );
    }

    #[test]
    fn restored_chaos_board_replays_the_same_faults() {
        // The fault plan's RNG rides in the board snapshot: a board
        // restored mid-campaign must draw the exact fault sequence the
        // original would, so checkpointed chaos campaigns stay
        // byte-identical.
        use crate::chaos::{ChaosConfig, FaultPlan};
        let fw = build(&apps::tiny_test_app(), &BuildOptions::vulnerable_mavr()).unwrap();
        let cfg = ChaosConfig::uniform(0.0002);
        // Provision clean (a bricked first boot would end the test before
        // it starts), then turn the faults on for the recovery rounds.
        let mk = || {
            let mut board =
                MavrBoard::provision(&fw.image, 0xda7a, RandomizationPolicy::default()).unwrap();
            board.master.chaos = FaultPlan::new(5, cfg);
            board
        };
        let mut original = mk();
        original.run(300_000).unwrap();
        let _ = original.recover(RecoveryCause::HeartbeatLost);
        let state = original.capture_state();

        let mut restored = mk();
        restored.restore_state(&state);
        assert_eq!(restored.capture_state(), state);

        for round in 0..4 {
            let a = original.recover(RecoveryCause::HeartbeatLost);
            let b = restored.recover(RecoveryCause::HeartbeatLost);
            assert_eq!(a, b, "round {round}: outcomes diverged");
            assert_eq!(
                original.capture_state(),
                restored.capture_state(),
                "round {round}: states diverged"
            );
        }
        assert_eq!(
            original.master.resilience, restored.master.resilience,
            "retry/degrade counters ride in the snapshot"
        );
    }

    #[test]
    fn event_log_records_boots_and_recoveries() {
        let (mut board, _) = vulnerable_board();
        assert!(matches!(board.events[0], BoardEvent::Boot { boot: 1, .. }));
        board.recover(RecoveryCause::HeartbeatLost).unwrap();
        assert!(board
            .events
            .iter()
            .any(|e| matches!(e, BoardEvent::Recovery { boot: 2, .. })));
    }
}
