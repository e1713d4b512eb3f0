//! The §VIII-A strawman: a **software-only** MAVR. The binary is
//! randomized once at flash time on the host; there is no master processor,
//! no external flash, no watchdog and no re-randomization.
//!
//! The paper rejects this design for two reasons, both reproducible here:
//!
//! 1. **One permutation forever** — "when the hardware is deployed, it
//!    contains only a single permutation of the randomization. Successive
//!    failed ROP attempts could then be utilized to leak information";
//!    quantified by [`rop::brute::simulate_incremental_leak`]: with crash
//!    feedback the layout falls in ~n²/4 probes instead of n!/2.
//! 2. **Not fault tolerant** — "a failed attempt will result in the
//!    application processor executing garbage bytes and becoming
//!    inoperable. The only way to recover … is to reset the application
//!    processor by cycling its power source which is extremely difficult
//!    when a UAV is in flight."

use avr_core::image::FirmwareImage;
use avr_sim::Machine;
use mavr::{randomize, RandomizeError, RandomizeOptions};
use rand::{rngs::StdRng, SeedableRng};

/// A board flashed once with a host-randomized binary.
#[derive(Debug, Clone)]
pub struct SoftwareOnlyBoard {
    /// The single randomized image burned at flash time.
    pub image: FirmwareImage,
    /// The application processor.
    pub machine: Machine,
    power_cycles: u32,
}

impl SoftwareOnlyBoard {
    /// Flash-time randomization on the host, then deploy.
    pub fn flash(image: &FirmwareImage, seed: u64) -> Result<Self, RandomizeError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let r = randomize(image, &mut rng, &RandomizeOptions::default())?;
        let mut machine = Machine::new_atmega2560();
        machine.load_flash(0, &r.image.bytes);
        Ok(SoftwareOnlyBoard {
            image: r.image,
            machine,
            power_cycles: 0,
        })
    }

    /// Run; with no master watching, a fault just leaves the board dead.
    pub fn run(&mut self, cycles: u64) {
        let _ = self.machine.run(cycles);
    }

    /// Whether the board is inoperable (crashed, nothing to recover it).
    pub fn dead(&self) -> bool {
        self.machine.fault().is_some()
    }

    /// A manual power cycle — the in-flight-impossible recovery. Note what
    /// it does **not** do: the flash still holds the *same* permutation.
    pub fn power_cycle(&mut self) {
        self.machine.reset();
        self.machine.uart0.clear();
        self.machine.heartbeat.clear();
        self.power_cycles += 1;
    }

    /// How many manual interventions this board has needed.
    pub fn power_cycles(&self) -> u32 {
        self.power_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mavlink_lite::GroundStation;
    use rop::attack::AttackContext;
    use synth_firmware::{apps, build, layout as l, BuildOptions};

    fn target() -> FirmwareImage {
        build(&apps::tiny_test_app(), &BuildOptions::vulnerable_mavr())
            .unwrap()
            .image
    }

    #[test]
    fn software_only_board_flies_until_attacked() {
        let image = target();
        let mut board = SoftwareOnlyBoard::flash(&image, 77).unwrap();
        board.run(1_500_000);
        assert!(!board.dead());
        assert!(board.machine.heartbeat.toggles.len() > 10);
    }

    #[test]
    fn crashed_board_stays_dead_without_manual_power_cycle() {
        // Find a seed whose layout crashes on the stock-targeted payload,
        // then show the §VIII-A failure: no recovery, and the power cycle
        // that would fix it keeps the SAME vulnerable-to-leak permutation.
        let image = target();
        let ctx = AttackContext::discover(&image).unwrap();
        let payload = ctx.v2_payload(&[(l::GYRO + 3, [9, 9, 9])]).unwrap();
        let mut crashed = None;
        for seed in 0..20u64 {
            let mut board = SoftwareOnlyBoard::flash(&image, seed).unwrap();
            board.run(300_000);
            let mut gcs = GroundStation::new();
            board
                .machine
                .uart0
                .inject(&gcs.exploit_packet(&payload).unwrap());
            board.run(6_000_000);
            assert_ne!(
                board.machine.peek_range(l::GYRO + 3, 3),
                vec![9, 9, 9],
                "randomization still defeats the stock-layout payload"
            );
            if board.dead() {
                crashed = Some(board);
                break;
            }
        }
        let mut board = crashed.expect("some layout crashes on the failed attack");
        let flash_before = board.machine.flash().to_vec();

        // Dead is dead: more cycles change nothing.
        let toggles = board.machine.heartbeat.toggles.len();
        board.run(5_000_000);
        assert!(board.dead());
        assert_eq!(board.machine.heartbeat.toggles.len(), toggles);

        // Manual power cycle brings it back — with the identical layout.
        board.power_cycle();
        board.run(1_500_000);
        assert!(!board.dead());
        assert_eq!(board.power_cycles(), 1);
        assert_eq!(
            board.machine.flash(),
            &flash_before[..],
            "§VIII-A: the permutation never changes, enabling incremental leak"
        );
    }

    #[test]
    fn leak_math_backs_the_papers_argument() {
        // For SynthRover's 800 functions: whole-permutation brute force is
        // ~800!/2 (≈ 2^6566); the incremental leak against a fixed layout is
        // ~800·803/4 ≈ 160k probes — feasible. Re-randomization (the
        // hardware design) is what closes the gap.
        let leak = rop::brute::expected_incremental_leak(800.0);
        assert!(leak < 200_000.0);
        assert!(mavr::math::entropy_bits(800) > 6000.0);
    }
}
