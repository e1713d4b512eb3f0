//! Property-based tests over the randomizer and the attack machinery:
//! invariants that must hold for *every* seed and parameter draw.

use mavr_repro::avr_core::image::{FirmwareImage, SymbolKind};
use mavr_repro::avr_sim::{Fault, Machine, Pwm, SimCounters};
use mavr_repro::mavr::policy::RandomizationPolicy;
use mavr_repro::mavr::{randomize, RandomizeOptions};
use mavr_repro::mavr_board::MavrBoard;
use mavr_repro::mavr_snapshot::{bisect_divergence, Timeline};
use mavr_repro::synth_firmware::{apps, build, AppSpec, BuildOptions};
use mavr_world::{FlightHarness, Scenario, World, WorldState, CYCLES_PER_STEP};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn app(functions: usize, seed: u64) -> AppSpec {
    AppSpec {
        name: "PropApp",
        functions,
        stock_size: None,
        mavr_size: None,
        seed,
        vehicle_type: 1,
        flight: false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For any app shape and any randomization seed: the shuffled image is
    /// structurally sound, size-preserving, a permutation of the same
    /// symbols — and still *boots and heartbeats*.
    #[test]
    fn randomization_preserves_behaviour(
        functions in 40usize..120,
        app_seed in 0u64..1000,
        rand_seed in 0u64..1000,
    ) {
        let fw = build(&app(functions, app_seed), &BuildOptions::safe_mavr()).unwrap();
        let mut rng = StdRng::seed_from_u64(rand_seed);
        let r = randomize(&fw.image, &mut rng, &RandomizeOptions::default()).unwrap();

        // Structural invariants.
        r.image.validate().unwrap();
        prop_assert_eq!(r.image.code_size(), fw.image.code_size());
        prop_assert_eq!(r.image.text_end, fw.image.text_end);
        prop_assert_eq!(r.image.function_count(), fw.image.function_count());
        let mut old_names: Vec<&str> =
            fw.image.symbols.iter().map(|s| s.name.as_str()).collect();
        let mut new_names: Vec<&str> =
            r.image.symbols.iter().map(|s| s.name.as_str()).collect();
        old_names.sort_unstable();
        new_names.sort_unstable();
        prop_assert_eq!(old_names, new_names);
        // Sizes travel with their symbols.
        for s in &fw.image.symbols {
            let moved = r.image.symbol(&s.name).unwrap();
            prop_assert_eq!(moved.size, s.size);
            prop_assert_eq!(moved.kind, s.kind);
            if s.kind != SymbolKind::Function {
                prop_assert_eq!(moved.addr, s.addr, "non-functions must not move");
            }
        }
        // The permutation is a bijection.
        let mut seen = vec![false; r.permutation.len()];
        for &p in &r.permutation {
            prop_assert!(!seen[p]);
            seen[p] = true;
        }

        // Behavioural invariant: it flies.
        let mut m = Machine::new_atmega2560();
        m.load_flash(0, &r.image.bytes);
        m.run(1_200_000);
        prop_assert!(m.fault().is_none(), "fault: {:?}", m.fault());
        prop_assert!(m.heartbeat.toggles.len() >= 10);
    }

    /// Randomizing a randomized image works too (the master re-randomizes
    /// from the pristine container in practice, but the engine itself is
    /// idempotent in structure).
    #[test]
    fn double_randomization_is_sound(rand_seed in 0u64..500) {
        let fw = build(&app(50, 7), &BuildOptions::safe_mavr()).unwrap();
        let mut rng = StdRng::seed_from_u64(rand_seed);
        let once = randomize(&fw.image, &mut rng, &RandomizeOptions::default()).unwrap();
        let twice = randomize(&once.image, &mut rng, &RandomizeOptions::default()).unwrap();
        twice.image.validate().unwrap();
        let mut m = Machine::new_atmega2560();
        m.load_flash(0, &twice.image.bytes);
        m.run(1_200_000);
        prop_assert!(m.fault().is_none());
        prop_assert!(m.heartbeat.toggles.len() >= 10);
    }

    /// The attack context is a pure function of the image: any two
    /// discoveries agree, for any app shape.
    #[test]
    fn attack_discovery_is_deterministic(functions in 40usize..100, app_seed in 0u64..500) {
        let fw = build(&app(functions, app_seed), &BuildOptions::vulnerable_mavr()).unwrap();
        let a = mavr_repro::rop::attack::AttackContext::discover(&fw.image).unwrap();
        let b = mavr_repro::rop::attack::AttackContext::discover(&fw.image).unwrap();
        prop_assert_eq!(a.sp_entry, b.sp_entry);
        prop_assert_eq!(a.orig_ret, b.orig_ret);
        prop_assert_eq!(a.gadgets.stk_move, b.gadgets.stk_move);
        prop_assert_eq!(a.gadgets.write_mem_std, b.gadgets.write_mem_std);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The stealthy attack works against the unprotected image for any
    /// 3-byte value written anywhere in the scratch region.
    #[test]
    fn v2_attack_writes_arbitrary_values(
        v0 in any::<u8>(), v1 in any::<u8>(), v2 in any::<u8>(),
        slot in 0u16..100,
    ) {
        let fw = build(&app(60, 0x7e57), &BuildOptions::vulnerable_mavr()).unwrap();
        let ctx = mavr_repro::rop::attack::AttackContext::discover(&fw.image).unwrap();
        let target = 0x1e00 + slot * 4;
        let payload = ctx.v2_payload(&[(target, [v0, v1, v2])]).unwrap();
        let mut m = Machine::new_atmega2560();
        m.load_flash(0, &fw.image.bytes);
        m.run(200_000);
        let mut gcs = mavr_repro::mavlink_lite::GroundStation::new();
        m.uart0.inject(&gcs.exploit_packet(&payload).unwrap());
        m.run(3_000_000);
        prop_assert!(m.fault().is_none(), "fault: {:?}", m.fault());
        prop_assert_eq!(m.peek_range(target, 3), vec![v0, v1, v2]);
        prop_assert!(m.heartbeat.toggles.len() > 20, "still flying");
    }
}

/// Cycle budget of each run in `randomization_changes_layout_not_behaviour`,
/// sampled at `RUN_CHUNKS` boundaries; sized for the debug profile.
const RUN_CYCLES: u64 = 1_500_000;
const RUN_CHUNKS: u64 = 6;

/// What one run shows the outside world.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Activity counters (cycles, instructions retired, interrupts, UART
    /// bytes, EEPROM writes) and PWM latches at every chunk boundary.
    samples: Vec<(SimCounters, Pwm)>,
    heartbeat_toggles: Vec<u64>,
    uart_tx: Vec<u8>,
    fault: Option<Fault>,
}

/// Run `image` on a fresh machine for [`RUN_CYCLES`], keeping a keyframe
/// timeline for divergence bisection.
fn observe(image: &FirmwareImage) -> (Observed, Machine, Timeline) {
    let mut m = Machine::new_atmega2560();
    m.load_flash(0, &image.bytes);
    let mut timeline = Timeline::new(RUN_CYCLES / RUN_CHUNKS);
    let samples = (0..RUN_CHUNKS)
        .map(|_| {
            timeline.record(&mut m, RUN_CYCLES / RUN_CHUNKS);
            (m.counters(), m.pwm)
        })
        .collect();
    let observed = Observed {
        samples,
        heartbeat_toggles: m.heartbeat.toggles.to_vec(),
        uart_tx: m.uart0.take_tx(),
        fault: m.fault(),
    };
    (observed, m, timeline)
}

/// MAVR changes layout, not behaviour: for every app, the unrandomized
/// build and its randomized images retire the same execution — the same
/// cycles, instructions, interrupts, UART bytes, heartbeat timestamps and
/// PWM latches. A mismatch names the first cycle the two runs split.
#[test]
fn randomization_changes_layout_not_behaviour() {
    for name in apps::APP_NAMES.split(", ") {
        let fw = build(
            &apps::by_name(name).unwrap(),
            &BuildOptions::vulnerable_mavr(),
        )
        .unwrap();
        let (stock, mut stock_m, mut stock_tl) = observe(&fw.image);
        assert!(stock.heartbeat_toggles.len() >= 2, "{name}: no heartbeat");
        for seed in 1..=4 {
            let mut rng = StdRng::seed_from_u64(seed);
            let r = randomize(&fw.image, &mut rng, &RandomizeOptions::default()).unwrap();
            assert_ne!(
                r.image.bytes, fw.image.bytes,
                "{name} seed {seed}: layout unchanged"
            );
            let (got, mut rand_m, mut rand_tl) = observe(&r.image);
            if got != stock {
                let split = bisect_divergence(
                    &mut stock_tl,
                    &mut stock_m,
                    &fw.image,
                    &mut rand_tl,
                    &mut rand_m,
                    &r.image,
                );
                panic!(
                    "{name} seed {seed}: the randomized run differs from the stock run; \
                     first divergence: {split:?}\nstock: {stock:?}\nrandomized: {got:?}"
                );
            }
        }
    }
}

/// World steps each flight of `randomized_quads_fly_bit_identically` takes.
const FLIGHT_STEPS: u64 = 300;

/// A world state's exact bits (floats by representation, not by value).
fn world_bits(s: &WorldState) -> Vec<u64> {
    let floats = s.pos.iter().chain(&s.vel).chain(&s.att).chain(&s.omega);
    floats
        .chain([&s.peak_alt_err])
        .map(|f| f.to_bits())
        .chain(s.rng)
        .chain([
            s.steps,
            u64::from(s.scenario),
            u64::from(s.ground_impacts),
            u64::from(s.grounded),
        ])
        .collect()
}

/// The physical half: quad boards provisioned with different seeds (so
/// different layouts) fly each scenario in lockstep to bit-identical
/// world states, step by step.
#[test]
fn randomized_quads_fly_bit_identically() {
    let fw = build(&apps::synth_quad_flight(), &BuildOptions::safe_mavr()).unwrap();
    for scenario in Scenario::all() {
        let mut flights: Vec<FlightHarness> = (1..=3)
            .map(|seed| {
                let policy = RandomizationPolicy::default();
                let board = MavrBoard::provision(&fw.image, seed, policy).unwrap();
                FlightHarness::new(board, World::new(scenario, 0x5eed))
            })
            .collect();
        let layouts: Vec<_> = flights
            .iter()
            .map(|h| h.board.master.last_permutation.clone())
            .collect();
        assert!(layouts[0] != layouts[1] && layouts[1] != layouts[2]);
        for step in 1..=FLIGHT_STEPS {
            let mut states = flights.iter_mut().map(|h| {
                h.step_once().unwrap();
                let m = &h.board.app.machine;
                (h.world.state(), m.counters(), m.pwm)
            });
            let first = states.next().unwrap();
            for (seed, other) in (2..).zip(states) {
                assert!(
                    world_bits(&other.0) == world_bits(&first.0)
                        && other.1 == first.1
                        && other.2 == first.2,
                    "{}: seed {seed} split from seed 1 at world step {step} \
                     (by machine cycle {}): {other:?} vs {first:?}",
                    scenario.name(),
                    step * CYCLES_PER_STEP,
                );
            }
        }
    }
}
