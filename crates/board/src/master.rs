//! The master processor (§V-A2, §VI-A): reads the container from the
//! external flash, randomizes, programs the application processor, and then
//! plays watchdog.

use avr_core::image::FirmwareImage;
use mavr::policy::{FlashWear, RandomizationPolicy};
use mavr::{randomize, RandomizeError, RandomizeOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use telemetry::{kinds, Telemetry, Value};

use crate::app::AppProcessor;
use crate::bootloader::ProtocolError;
use crate::chaos::{FaultPlan, ResilienceStats};
use crate::ext_flash::{ExternalFlash, FlashError};
use crate::link::SerialLink;

/// Bounded retries for the container read from external flash.
const MAX_CONTAINER_READS: u32 = 4;
/// Bounded full-image transfer attempts per image (fresh or degraded).
const MAX_STREAM_ATTEMPTS: u32 = 3;
/// Bounded page-repair rounds after each full transfer.
const MAX_REPAIR_ROUNDS: u32 = 2;
/// Base of the exponential retry backoff, in link-time milliseconds.
const RETRY_BACKOFF_MS: f64 = 25.0;

/// Timing breakdown of one boot (the quantity in the paper's Table II).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StartupReport {
    /// Whether this boot re-randomized and reprogrammed the application
    /// processor (if not, the overhead is zero — §VII-B1: "this overhead is
    /// incurred only when the application needs to be randomized").
    pub randomized: bool,
    /// Image size shipped, in bytes.
    pub image_bytes: u32,
    /// Bytes on the wire including protocol framing (a few percent above
    /// `image_bytes`).
    pub wire_bytes: u32,
    /// Wall time of the randomize + stream + program pipeline, in ms. At
    /// 115200 baud this is serial-transfer dominated. Retries add their
    /// backoff and retransmission time here.
    pub total_ms: f64,
    /// The serial transfer component alone, in ms.
    pub transfer_ms: f64,
    /// Reflash retries this boot: failed transfers, page-repair rounds,
    /// and container re-reads.
    pub retries: u32,
    /// True when the boot fell back to degraded safe mode: the last-known-
    /// good image was re-streamed without fresh randomization.
    pub degraded: bool,
}

/// Errors from the master's boot sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MasterError {
    /// External flash problems.
    Flash(FlashError),
    /// Randomization failed (bad toolchain, unmappable target, …).
    Randomize(RandomizeError),
    /// The application flash is past its rated endurance.
    FlashWornOut,
    /// The programming stream failed to apply after every bounded retry.
    Programming {
        /// Boot ordinal (1-based) on which the failure happened.
        boot: u32,
        /// The decoder error from the final attempt.
        error: ProtocolError,
    },
    /// Programmed flash failed verification against the intended image
    /// even after retries and the degraded fallback: the board is bricked
    /// pending manual service.
    Bricked {
        /// Boot ordinal (1-based) on which the failure happened.
        boot: u32,
        /// Pages still mismatching after the final attempt.
        bad_pages: usize,
    },
}

impl std::fmt::Display for MasterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MasterError::Flash(e) => write!(f, "external flash: {e}"),
            MasterError::Randomize(e) => write!(f, "randomization: {e}"),
            MasterError::FlashWornOut => write!(f, "application flash endurance exhausted"),
            MasterError::Programming { boot, error } => match error.sequence() {
                Some(seq) => write!(
                    f,
                    "boot {boot}: programming stream failed at frame sequence {seq}: {error}"
                ),
                None => write!(f, "boot {boot}: programming stream failed: {error}"),
            },
            MasterError::Bricked { boot, bad_pages } => write!(
                f,
                "boot {boot}: flash verification failed after all retries and the degraded \
                 fallback ({bad_pages} bad pages) — board requires manual service"
            ),
        }
    }
}

impl std::error::Error for MasterError {}

impl From<FlashError> for MasterError {
    fn from(e: FlashError) -> Self {
        MasterError::Flash(e)
    }
}

impl From<RandomizeError> for MasterError {
    fn from(e: RandomizeError) -> Self {
        MasterError::Randomize(e)
    }
}

/// The ATmega1284P-role master.
#[derive(Debug, Clone)]
pub struct MasterProcessor {
    rng: StdRng,
    /// Randomization schedule.
    pub policy: RandomizationPolicy,
    /// Application-flash wear accounting.
    pub wear: FlashWear,
    /// The programming link to the application processor.
    pub link: SerialLink,
    /// Randomizer options.
    pub options: RandomizeOptions,
    boot_count: u32,
    /// Permutation used by the most recent randomization (diagnostics; the
    /// real master never persists it).
    pub last_permutation: Option<Vec<usize>>,
    /// The randomized image most recently programmed into the application
    /// processor, with its post-permutation symbol map — what crash
    /// forensics needs to attribute a dead PC to a function.
    pub last_image: Option<FirmwareImage>,
    /// Flight-recorder handle for boot-lifecycle events.
    pub telemetry: Telemetry,
    /// Fault injection for the recovery pipeline (inert by default).
    pub chaos: FaultPlan,
    /// Lifetime counters of retries and degraded boots survived.
    pub resilience: ResilienceStats,
}

impl MasterProcessor {
    /// New master with an entropy seed and the prototype serial link.
    pub fn new(seed: u64, policy: RandomizationPolicy) -> Self {
        MasterProcessor {
            rng: StdRng::seed_from_u64(seed),
            policy,
            wear: FlashWear::default(),
            link: SerialLink::prototype(),
            options: RandomizeOptions::default(),
            boot_count: 0,
            last_permutation: None,
            last_image: None,
            telemetry: Telemetry::off(),
            chaos: FaultPlan::none(),
            resilience: ResilienceStats::default(),
        }
    }

    /// Boots completed so far.
    pub fn boot_count(&self) -> u32 {
        self.boot_count
    }

    /// Set the RNG stream position and boot counter: a master given
    /// another's position draws the exact permutation sequence that one
    /// would have.
    pub fn restore_entropy(&mut self, rng: [u64; 4], boot_count: u32) {
        self.rng = StdRng::from_state(rng);
        self.boot_count = boot_count;
    }

    /// One boot: read the container, randomize if the policy says so (or if
    /// `attack_detected`), program the application processor, set its lock
    /// fuse, and release it into the new binary.
    pub fn boot(
        &mut self,
        ext_flash: &ExternalFlash,
        app: &mut AppProcessor,
        attack_detected: bool,
    ) -> Result<StartupReport, MasterError> {
        self.boot_count += 1;
        let boot_count = self.boot_count;
        let must_randomize = self.policy.should_randomize(self.boot_count, attack_detected)
            // A blank application processor must be programmed regardless.
            || !app.locked();
        self.telemetry.emit("master.boot", None, || {
            vec![
                ("boot", Value::U64(u64::from(boot_count))),
                ("attack_detected", Value::Bool(attack_detected)),
                ("randomize", Value::Bool(must_randomize)),
            ]
        });
        if !must_randomize {
            // Normal start: just release reset.
            app.machine.reset();
            return Ok(StartupReport {
                randomized: false,
                image_bytes: 0,
                wire_bytes: 0,
                total_ms: 0.0,
                transfer_ms: 0.0,
                retries: 0,
                degraded: false,
            });
        }
        let endurance = app.machine.device().flash_endurance_cycles;
        if self.wear.exhausted(endurance) {
            return Err(MasterError::FlashWornOut);
        }
        let page_bytes = app.machine.device().flash_page_bytes as usize;
        let mut retries = 0u32;
        let mut extra_ms = 0.0f64;

        // Stage 1: read + integrity-check the container. Bit rot is
        // transient per read, so bounded re-reads can clear it.
        let fresh = match self.read_container(ext_flash, boot_count, &mut retries, &mut extra_ms) {
            Ok(container) => {
                let randomized = randomize(&container.image, &mut self.rng, &self.options)?;
                self.telemetry.emit("master.randomize", None, || {
                    vec![(
                        "functions_permuted",
                        Value::U64(randomized.permutation.len() as u64),
                    )]
                });
                Ok(randomized)
            }
            Err(e) => Err(MasterError::Flash(e)),
        };

        // Stage 2: stream to the bootloader over the wire protocol and
        // verify the written pages against the intended image; reads from
        // the SPI chip, the patch pass, and the page writes are pipelined
        // behind the serial link (§VI-B3 processes the image "in a
        // streaming fashion"). Table II's timing model uses the payload
        // bytes, which is what the paper's measurements track.
        let cause: MasterError = match fresh {
            Ok(randomized) => {
                match self.program_verified(
                    app,
                    &randomized.image.bytes,
                    page_bytes,
                    boot_count,
                    &mut retries,
                    &mut extra_ms,
                ) {
                    Ok(wire_bytes) => {
                        self.last_permutation = Some(randomized.permutation);
                        self.wear.program();
                        let bytes = randomized.image.code_size();
                        self.last_image = Some(randomized.image);
                        return Ok(self.finish_report(
                            bytes, wire_bytes, extra_ms, retries, false, boot_count,
                        ));
                    }
                    Err(e) => e,
                }
            }
            Err(e) => e,
        };

        // Stage 3: degraded safe mode — re-stream the last-known-good
        // image without fresh randomization. Staying on a known layout
        // beats not flying at all; the next healthy boot re-randomizes.
        self.telemetry.emit(kinds::DEGRADED_BOOT, None, || {
            vec![
                ("boot", Value::U64(u64::from(boot_count))),
                ("cause", Value::Str(cause.to_string())),
            ]
        });
        let Some(last) = self.last_image.clone() else {
            self.emit_boot_failed(boot_count, &cause);
            return Err(cause);
        };
        match self.program_verified(
            app,
            &last.bytes,
            page_bytes,
            boot_count,
            &mut retries,
            &mut extra_ms,
        ) {
            Ok(wire_bytes) => {
                self.resilience.degraded_boots += 1;
                self.wear.program();
                let bytes = last.code_size();
                Ok(self.finish_report(bytes, wire_bytes, extra_ms, retries, true, boot_count))
            }
            Err(final_err) => {
                self.emit_boot_failed(boot_count, &final_err);
                Err(final_err)
            }
        }
    }

    /// Read the container from external flash with bounded retries; each
    /// retry charges exponential backoff and re-rolls any transient rot.
    fn read_container(
        &mut self,
        ext_flash: &ExternalFlash,
        boot: u32,
        retries: &mut u32,
        extra_ms: &mut f64,
    ) -> Result<hexfile::MavrContainer, FlashError> {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match ext_flash.read_chaos(&mut self.chaos) {
                Ok(container) => {
                    self.telemetry.emit("master.container_read", None, || {
                        vec![(
                            "image_bytes",
                            Value::U64(u64::from(container.image.code_size())),
                        )]
                    });
                    return Ok(container);
                }
                Err(e) if attempt < MAX_CONTAINER_READS => {
                    *retries += 1;
                    self.resilience.reflash_retries += 1;
                    let backoff = backoff_ms(*retries);
                    *extra_ms += backoff;
                    self.telemetry.emit(kinds::REFLASH_RETRY, None, || {
                        vec![
                            ("boot", Value::U64(u64::from(boot))),
                            ("stage", Value::Str("container_read".into())),
                            ("attempt", Value::U64(u64::from(attempt))),
                            ("backoff_ms", Value::F64(backoff)),
                            ("error", Value::Str(e.to_string())),
                        ]
                    });
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Program `image` into the app processor and verify it page by page,
    /// with bounded per-page repair rounds and bounded whole-stream
    /// retries. Returns the wire size of one full transfer.
    fn program_verified(
        &mut self,
        app: &mut AppProcessor,
        image: &[u8],
        page_bytes: usize,
        boot: u32,
        retries: &mut u32,
        extra_ms: &mut f64,
    ) -> Result<u32, MasterError> {
        let stream = crate::bootloader::programming_stream(image, page_bytes);
        let wire_bytes = stream.len() as u32;
        let mut last_err = MasterError::Programming {
            boot,
            error: ProtocolError::Truncated,
        };
        for attempt in 1..=MAX_STREAM_ATTEMPTS {
            if attempt > 1 {
                *retries += 1;
                self.resilience.reflash_retries += 1;
                let backoff = backoff_ms(*retries);
                *extra_ms += backoff + self.link.programming_ms(image.len() as u32);
                let err_text = last_err.to_string();
                self.telemetry.emit(kinds::REFLASH_RETRY, None, || {
                    vec![
                        ("boot", Value::U64(u64::from(boot))),
                        ("stage", Value::Str("full_stream".into())),
                        ("attempt", Value::U64(u64::from(attempt))),
                        ("backoff_ms", Value::F64(backoff)),
                        ("error", Value::Str(err_text.clone())),
                    ]
                });
            }
            let delivered = self.chaos.mangle_stream(&stream);
            if let Err(error) =
                crate::bootloader::apply_stream_chaos(app, &delivered, &mut self.chaos)
            {
                last_err = MasterError::Programming { boot, error };
                continue;
            }
            match self.verify_and_repair(app, image, page_bytes, boot, retries, extra_ms) {
                Ok(()) => return Ok(wire_bytes),
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    /// Verify written flash against `image`; re-send only the mismatching
    /// pages (plus the lock fuse + release tail) for a bounded number of
    /// rounds.
    fn verify_and_repair(
        &mut self,
        app: &mut AppProcessor,
        image: &[u8],
        page_bytes: usize,
        boot: u32,
        retries: &mut u32,
        extra_ms: &mut f64,
    ) -> Result<(), MasterError> {
        for round in 0..=MAX_REPAIR_ROUNDS {
            let bad = app.mismatched_pages(image, page_bytes);
            if bad.is_empty() && app.locked() {
                return Ok(());
            }
            if round == MAX_REPAIR_ROUNDS {
                return Err(MasterError::Bricked {
                    boot,
                    bad_pages: bad.len(),
                });
            }
            *retries += 1;
            self.resilience.reflash_retries += 1;
            let backoff = backoff_ms(*retries);
            let payload: usize = bad
                .iter()
                .map(|&a| page_bytes.min(image.len() - a as usize))
                .sum();
            *extra_ms += backoff + self.link.programming_ms(payload as u32);
            let bad_pages = bad.len();
            self.telemetry.emit(kinds::REFLASH_RETRY, None, || {
                vec![
                    ("boot", Value::U64(u64::from(boot))),
                    ("stage", Value::Str("page_repair".into())),
                    ("pages", Value::U64(bad_pages as u64)),
                    ("backoff_ms", Value::F64(backoff)),
                ]
            });
            let pages: Vec<(u32, &[u8])> = bad
                .iter()
                .map(|&a| {
                    let start = a as usize;
                    let end = (start + page_bytes).min(image.len());
                    (a, &image[start..end])
                })
                .collect();
            let stream = crate::bootloader::repair_stream(&pages);
            let delivered = self.chaos.mangle_stream(&stream);
            // A decode failure here just means the round repaired nothing;
            // the next iteration re-verifies and either retries or gives up.
            let _ = crate::bootloader::apply_stream_chaos(app, &delivered, &mut self.chaos);
        }
        unreachable!("repair loop returns within MAX_REPAIR_ROUNDS + 1 rounds")
    }

    /// Assemble the final report for a programming boot and emit the
    /// `master.programmed` event.
    fn finish_report(
        &mut self,
        image_bytes: u32,
        wire_bytes: u32,
        extra_ms: f64,
        retries: u32,
        degraded: bool,
        boot: u32,
    ) -> StartupReport {
        let report = StartupReport {
            randomized: true,
            image_bytes,
            wire_bytes,
            total_ms: self.link.programming_ms(image_bytes) + extra_ms,
            transfer_ms: self.link.transfer_ms(image_bytes),
            retries,
            degraded,
        };
        self.telemetry.emit("master.programmed", None, || {
            vec![
                ("boot", Value::U64(u64::from(boot))),
                ("image_bytes", Value::U64(u64::from(report.image_bytes))),
                ("wire_bytes", Value::U64(u64::from(report.wire_bytes))),
                ("total_ms", Value::F64(report.total_ms)),
                ("transfer_ms", Value::F64(report.transfer_ms)),
                ("retries", Value::U64(u64::from(report.retries))),
                ("degraded", Value::Bool(report.degraded)),
            ]
        });
        report
    }

    fn emit_boot_failed(&mut self, boot: u32, error: &MasterError) {
        let text = error.to_string();
        self.telemetry.emit(kinds::BOOT_FAILED, None, || {
            vec![
                ("boot", Value::U64(u64::from(boot))),
                ("error", Value::Str(text.clone())),
            ]
        });
    }
}

/// Exponential backoff for the `n`-th retry of a boot (1-based), in
/// link-time milliseconds, capped at 16x the base.
fn backoff_ms(n: u32) -> f64 {
    RETRY_BACKOFF_MS * f64::from(1u32 << (n - 1).min(4))
}

#[cfg(test)]
mod tests {
    use super::*;
    use avr_sim::RunExit;
    use synth_firmware::{apps, build, BuildOptions};

    fn provisioned() -> (MasterProcessor, ExternalFlash, AppProcessor) {
        let fw = build(&apps::tiny_test_app(), &BuildOptions::safe_mavr()).unwrap();
        let mut chip = ExternalFlash::new();
        chip.upload(&mavr::preprocess(&fw.image).unwrap()).unwrap();
        let master = MasterProcessor::new(0xb0a7d, RandomizationPolicy::default());
        (master, chip, AppProcessor::new())
    }

    #[test]
    fn first_boot_randomizes_and_app_runs() {
        let (mut master, chip, mut app) = provisioned();
        let report = master.boot(&chip, &mut app, false).unwrap();
        assert!(report.randomized);
        assert!(app.locked(), "lock fuse set after programming");
        assert!(report.total_ms > 0.0);
        assert_eq!(master.wear.cycles_used, 1);
        let exit = app.machine.run(1_200_000);
        assert_eq!(exit, RunExit::CyclesExhausted, "{:?}", app.machine.fault());
        assert!(app.machine.heartbeat.toggles().len() > 10);
    }

    #[test]
    fn periodic_policy_skips_reprogramming() {
        let (mut master, chip, mut app) = provisioned();
        master.policy = RandomizationPolicy {
            every_n_boots: 10,
            on_attack: true,
        };
        master.boot(&chip, &mut app, false).unwrap();
        let flash_after_first: Vec<u8> = app.machine.flash().to_vec();
        for _ in 0..9 {
            let r = master.boot(&chip, &mut app, false).unwrap();
            assert!(!r.randomized, "boots 2..10 reuse the layout");
        }
        assert_eq!(app.machine.flash(), &flash_after_first[..]);
        assert_eq!(master.wear.cycles_used, 1);
        // Boot 11 re-randomizes.
        let r = master.boot(&chip, &mut app, false).unwrap();
        assert!(r.randomized);
        assert_ne!(app.machine.flash(), &flash_after_first[..]);
    }

    #[test]
    fn attack_forces_rerandomization() {
        let (mut master, chip, mut app) = provisioned();
        master.policy = RandomizationPolicy {
            every_n_boots: 1000,
            on_attack: true,
        };
        master.boot(&chip, &mut app, false).unwrap();
        let perm1 = master.last_permutation.clone().unwrap();
        let r = master.boot(&chip, &mut app, true).unwrap();
        assert!(
            r.randomized,
            "failed attack triggers immediate re-randomization"
        );
        assert_ne!(master.last_permutation.unwrap(), perm1);
    }

    #[test]
    fn worn_out_flash_refuses() {
        let (mut master, chip, mut app) = provisioned();
        master.wear.cycles_used = app.machine.device().flash_endurance_cycles;
        assert_eq!(
            master.boot(&chip, &mut app, false).unwrap_err(),
            MasterError::FlashWornOut
        );
    }

    #[test]
    fn wire_protocol_overhead_is_bounded() {
        let (mut master, chip, mut app) = provisioned();
        let r = master.boot(&chip, &mut app, false).unwrap();
        assert!(r.wire_bytes > r.image_bytes);
        assert!(f64::from(r.wire_bytes) < f64::from(r.image_bytes) * 1.08);
    }

    #[test]
    fn startup_time_is_transfer_dominated() {
        let (mut master, chip, mut app) = provisioned();
        let r = master.boot(&chip, &mut app, false).unwrap();
        assert!(r.total_ms >= r.transfer_ms);
        assert!(r.total_ms < r.transfer_ms * 1.1 + 10.0);
        assert_eq!(r.retries, 0);
        assert!(!r.degraded);
    }

    #[test]
    fn noisy_link_is_survived_by_retries() {
        use crate::chaos::{ChaosConfig, FaultPlan};
        // Moderate stream noise: most boots need a retry or repair round,
        // but the bounded budget clears it.
        let cfg = ChaosConfig {
            stream_bit_flip: 0.0002,
            ..ChaosConfig::off()
        };
        let mut survived = 0u32;
        let mut retried = 0u32;
        for seed in 0..6u64 {
            let (mut master, chip, mut app) = provisioned();
            master.chaos = FaultPlan::new(seed, cfg);
            if let Ok(r) = master.boot(&chip, &mut app, false) {
                survived += 1;
                retried += r.retries;
                // Success must mean a verified image and a locked part.
                let intended = &master.last_image.as_ref().unwrap().bytes;
                assert!(app.mismatched_pages(intended, 256).is_empty());
                assert!(app.locked());
                assert!(
                    !r.degraded || r.total_ms > r.transfer_ms,
                    "retries and degradation must charge time"
                );
            }
        }
        assert!(survived >= 4, "only {survived}/6 noisy boots survived");
        assert!(retried > 0, "expected at least one retry across seeds");
        let (mut quiet_master, chip, mut app) = provisioned();
        let quiet = quiet_master.boot(&chip, &mut app, false).unwrap();
        assert_eq!(quiet.retries, 0);
        assert_eq!(
            quiet_master.resilience,
            crate::chaos::ResilienceStats::default()
        );
    }

    #[test]
    fn hopeless_link_degrades_then_fails_stop_with_typed_error() {
        use crate::chaos::{ChaosConfig, FaultPlan};
        // First boot is clean, so a last-known-good image exists.
        let (mut master, chip, mut app) = provisioned();
        master.boot(&chip, &mut app, false).unwrap();
        let good = master.last_image.clone().unwrap();

        // Then the link turns to static: every frame takes flips.
        master.chaos = FaultPlan::new(
            1,
            ChaosConfig {
                stream_bit_flip: 0.2,
                ..ChaosConfig::off()
            },
        );
        let err = master.boot(&chip, &mut app, true).unwrap_err();
        assert!(
            matches!(
                err,
                MasterError::Programming { .. } | MasterError::Bricked { .. }
            ),
            "expected a typed programming failure, got {err:?}"
        );
        // The Display impl names the boot ordinal.
        assert!(err.to_string().contains("boot 2"), "{err}");
        // The failed boot never released a half-programmed image as good.
        assert_eq!(master.last_image.unwrap().bytes, good.bytes);
    }

    #[test]
    fn unreadable_container_falls_back_to_last_known_good() {
        use crate::chaos::{ChaosConfig, FaultPlan};
        let (mut master, chip, mut app) = provisioned();
        master.boot(&chip, &mut app, false).unwrap();
        let perm_before = master.last_permutation.clone().unwrap();

        // Saturating rot: every container read fails its CRC check, but
        // the serial link stays clean, so degraded mode can re-stream the
        // last-known-good image.
        master.chaos = FaultPlan::new(
            2,
            ChaosConfig {
                flash_bit_rot: 0.01,
                ..ChaosConfig::off()
            },
        );
        let r = master.boot(&chip, &mut app, true).unwrap();
        assert!(r.degraded, "expected the degraded safe-mode path");
        assert!(r.retries > 0, "container re-reads must be counted");
        assert_eq!(master.resilience.degraded_boots, 1);
        // No fresh randomization happened: the layout is unchanged.
        assert_eq!(master.last_permutation.clone().unwrap(), perm_before);
        let intended = &master.last_image.as_ref().unwrap().bytes;
        assert!(app.mismatched_pages(intended, 256).is_empty());
        assert!(app.locked());
    }

    #[test]
    fn first_boot_with_no_fallback_image_fails_stop() {
        use crate::chaos::{ChaosConfig, FaultPlan};
        let (mut master, chip, mut app) = provisioned();
        master.chaos = FaultPlan::new(
            3,
            ChaosConfig {
                flash_bit_rot: 0.01,
                ..ChaosConfig::off()
            },
        );
        let err = master.boot(&chip, &mut app, false).unwrap_err();
        assert!(
            matches!(
                err,
                MasterError::Flash(FlashError::IntegrityFailure { .. })
                    | MasterError::Flash(FlashError::Corrupt(_))
            ),
            "got {err:?}"
        );
        assert!(!app.locked(), "no image was ever released");
    }
}
