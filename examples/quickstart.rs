//! Quickstart: build a synthetic autopilot, randomize it with MAVR, and
//! watch it fly on the simulator.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use mavr_repro::avr_sim::Machine;
use mavr_repro::mavlink_lite::channel::LossyChannel;
use mavr_repro::mavlink_lite::GroundStation;
use mavr_repro::mavr::{randomize, RandomizeOptions};
use mavr_repro::synth_firmware::{apps, build, BuildOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 1. "Compile" an autopilot application with the MAVR custom toolchain
    //    (--no-relax, -mno-call-prologues).
    let fw = build(&apps::tiny_test_app(), &BuildOptions::safe_mavr()).unwrap();
    println!(
        "built {}: {} bytes, {} functions",
        fw.spec.name,
        fw.image.code_size(),
        fw.image.function_count()
    );

    // 2. Host-side preprocessing: symbol table prepended to the HEX file.
    let container = mavr_repro::mavr::preprocess(&fw.image).unwrap();
    println!(
        "preprocessed container: {} bytes of HEX+symbols",
        container.to_text().len()
    );

    // 3. The MAVR master randomizes the function layout.
    let mut rng = StdRng::seed_from_u64(2015);
    let r = randomize(&fw.image, &mut rng, &RandomizeOptions::default()).unwrap();
    let moved = fw
        .image
        .functions()
        .filter(|s| r.image.symbol(&s.name).unwrap().addr != s.addr)
        .count();
    println!(
        "randomized: {} of {} functions moved, image size unchanged ({} bytes)",
        moved,
        fw.image.function_count(),
        r.image.code_size()
    );

    // 4. Run the randomized binary on the ATmega2560 simulator.
    let mut m = Machine::new_atmega2560();
    m.load_flash(0, &r.image.bytes);
    m.run(2_000_000); // 0.125 s of flight at 16 MHz
    println!(
        "ran 2M cycles: {} heartbeat toggles, fault: {:?}",
        m.heartbeat.toggles.len(),
        m.fault()
    );

    // 5. The ground station decodes its telemetry over an explicit radio
    //    link (zero loss here; `mavr-cli fleet --loss` turns the dials up)
    //    — randomization is invisible to correct execution.
    let mut gcs = GroundStation::new();
    let mut downlink = LossyChannel::perfect();
    gcs.ingest(&downlink.transmit(&m.uart0.take_tx()));
    println!(
        "ground station: {} heartbeats, {} packets, {} checksum errors",
        gcs.heartbeats.len(),
        gcs.received.len(),
        gcs.bad_checksums()
    );
    assert_eq!(gcs.bad_checksums(), 0);
    assert!(gcs.heartbeats.len() > 10);
    // A perfect channel is transparent: every byte in, every byte out.
    assert_eq!(downlink.stats.bytes_in, downlink.stats.bytes_out);
    println!("ok: randomized firmware flies");
}
