//! Ground-station session model: the benign operator console and the
//! malicious ground station of the paper's threat model (Fig. 3).

use crate::msg::{self, Attitude, Heartbeat, ParamSet, SysStatus};
use crate::packet::{Packet, Parser, HEADER_LEN, MAGIC};
use crate::ProtocolError;
use std::collections::BTreeMap;
use telemetry::{History, Telemetry, Value};

/// MAVLink system id conventionally used by ground stations.
pub const GCS_SYSID: u8 = 255;

/// Fleet-wide aggregate counters, summed over many ground-station
/// sessions (one per link): the `fleet` block of a campaign report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterTotals {
    /// Links with a session.
    pub links: usize,
    /// Checksum-valid packets across all links.
    pub packets: u64,
    /// Decoded heartbeats across all links.
    pub heartbeats: u64,
    /// Checksum failures across all links.
    pub bad_checksums: u64,
    /// Sequence-gap events across all links.
    pub seq_gaps: u64,
    /// Estimated packets lost (from sequence deltas) across all links.
    pub packets_lost: u64,
}

/// A ground-station endpoint.
///
/// One instance models either the legitimate operator console or the
/// attacker's ground station — the paper's threat model assumes the attacker
/// "has access to a malicious ground station or has compromised a legitimate
/// ground station" (§IV-A). The only difference is which encode helpers are
/// used: the malicious encoders deliberately violate the length invariant
/// the (vulnerable) UAV fails to check.
///
/// Received traffic lands in bounded [`History`] rings (long campaigns
/// would otherwise grow memory without limit); lifetime totals survive in
/// each ring's counter ([`History::total`]) and the parser's
/// ([`GroundStation::packets_parsed`]). Sequence-number discontinuities
/// per sender sysid are tracked as a packet-loss estimate — the number
/// the fleet campaign report calls `seq_gap_bytes`.
#[derive(Debug, Clone)]
pub struct GroundStation {
    /// Our system id on the link.
    pub sysid: u8,
    /// Our component id.
    pub compid: u8,
    seq: u8,
    parser: Parser,
    /// The most recent checksum-valid packets received from the UAV.
    pub received: History<Packet>,
    /// Decoded HEARTBEATs, in arrival order (bounded ring).
    pub heartbeats: History<Heartbeat>,
    /// Decoded ATTITUDE telemetry, in arrival order (bounded ring).
    pub attitudes: History<Attitude>,
    /// Decoded SYS_STATUS telemetry, in arrival order (bounded ring).
    pub sys_status: History<SysStatus>,
    /// Count of packets this station has framed for transmission
    /// (well-formed and malicious alike).
    pub packets_framed: u64,
    /// Last sequence number seen per sender sysid.
    last_seq: BTreeMap<u8, u8>,
    /// Sequence-gap events per sender sysid (count of discontinuities).
    seq_gaps: BTreeMap<u8, u64>,
    /// Sum of missing packets implied by the gaps (mod-256 deltas).
    packets_lost: u64,
    /// Optional flight-recorder handle; when attached, each detected
    /// sequence gap emits a `gcs.seq_gap` event.
    pub telemetry: Telemetry,
}

impl Default for GroundStation {
    fn default() -> Self {
        GroundStation::new()
    }
}

impl GroundStation {
    /// A ground station with the conventional GCS system id and the
    /// default scroll-back depth.
    pub fn new() -> Self {
        GroundStation::with_capacity(telemetry::history::DEFAULT_CAPACITY)
    }

    /// A ground station retaining at most `capacity` packets (and decoded
    /// messages) per ring — fleet campaigns run many stations with small
    /// rings.
    pub fn with_capacity(capacity: usize) -> Self {
        GroundStation {
            sysid: GCS_SYSID,
            compid: 0,
            seq: 0,
            parser: Parser::new(),
            received: History::with_capacity(capacity),
            heartbeats: History::with_capacity(capacity),
            attitudes: History::with_capacity(capacity),
            sys_status: History::with_capacity(capacity),
            packets_framed: 0,
            last_seq: BTreeMap::new(),
            seq_gaps: BTreeMap::new(),
            packets_lost: 0,
            telemetry: Telemetry::off(),
        }
    }

    fn next_seq(&mut self) -> u8 {
        let s = self.seq;
        self.seq = self.seq.wrapping_add(1);
        self.packets_framed += 1;
        s
    }

    /// Encode a HEARTBEAT from this ground station.
    pub fn heartbeat(&mut self) -> Vec<u8> {
        let h = Heartbeat {
            vehicle_type: 6, // GCS
            autopilot: 8,    // invalid/none
            base_mode: 0,
            custom_mode: 0,
            system_status: 4,
            mavlink_version: 3,
        };
        let seq = self.next_seq();
        Packet::new(
            seq,
            self.sysid,
            self.compid,
            msg::HEARTBEAT_ID,
            h.to_payload(),
        )
        .expect("heartbeat payload is fixed-size")
        .encode()
    }

    /// Encode a well-formed PARAM_SET.
    pub fn param_set(&mut self, name: &[u8], value: f32) -> Vec<u8> {
        let p = ParamSet {
            param_value: value,
            target_system: 1,
            target_component: 1,
            param_id: name.to_vec(),
            param_type: 9,
        };
        let seq = self.next_seq();
        Packet::new(
            seq,
            self.sysid,
            self.compid,
            msg::PARAM_SET_ID,
            p.to_payload(),
        )
        .expect("param_set payload is fixed-size")
        .encode()
    }

    /// Encode a COMMAND_LONG (e.g. arm/disarm, mode changes).
    pub fn command_long(&mut self, command: u16, params: [f32; 7]) -> Vec<u8> {
        let c = crate::msg::CommandLong {
            params,
            command,
            target_system: 1,
            target_component: 1,
            confirmation: 0,
        };
        let seq = self.next_seq();
        Packet::new(
            seq,
            self.sysid,
            self.compid,
            msg::COMMAND_LONG_ID,
            c.to_payload(),
        )
        .expect("command payload is fixed-size")
        .encode()
    }

    /// **Malicious**: a PARAM_SET-id packet with an arbitrary, oversized
    /// payload. A correct receiver rejects it for its length; the paper's
    /// vulnerable firmware (length check disabled, §IV-B) copies all of it
    /// into a fixed stack buffer.
    pub fn exploit_packet(&mut self, payload: &[u8]) -> Result<Vec<u8>, ProtocolError> {
        let seq = self.next_seq();
        Ok(Packet::new(
            seq,
            self.sysid,
            self.compid,
            msg::PARAM_SET_ID,
            payload.to_vec(),
        )?
        .encode())
    }

    /// **Malicious**: like [`GroundStation::exploit_packet`] but with a lying
    /// length field — the header claims `claimed_len` while carrying
    /// `payload.len()` bytes. Useful for probing parser robustness.
    pub fn malformed_packet(&mut self, payload: &[u8], claimed_len: u8) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + 2);
        out.push(MAGIC);
        out.push(claimed_len);
        out.push(self.next_seq());
        out.push(self.sysid);
        out.push(self.compid);
        out.push(msg::PARAM_SET_ID);
        out.extend_from_slice(payload);
        let mut crc = crate::packet::crc_x25(&out[1..]);
        crc = crate::packet::crc_accumulate(crc, msg::crc_extra(msg::PARAM_SET_ID));
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Ingest bytes received from the UAV, decoding telemetry.
    pub fn ingest(&mut self, bytes: &[u8]) {
        for pkt in self.parser.push_all(bytes) {
            self.ingest_packet(pkt);
        }
    }

    /// Decode one framed packet into the session's telemetry and
    /// sequence-gap accounting.
    fn ingest_packet(&mut self, pkt: Packet) {
        self.track_seq(pkt.sysid, pkt.seq);
        match pkt.msgid {
            msg::HEARTBEAT_ID => {
                if let Ok(h) = Heartbeat::from_payload(pkt.msgid, &pkt.payload) {
                    self.heartbeats.push(h);
                }
            }
            msg::ATTITUDE_ID => {
                if let Ok(a) = Attitude::from_payload(pkt.msgid, &pkt.payload) {
                    self.attitudes.push(a);
                }
            }
            msg::SYS_STATUS_ID => {
                if let Ok(s) = SysStatus::from_payload(pkt.msgid, &pkt.payload) {
                    self.sys_status.push(s);
                }
            }
            _ => {}
        }
        self.received.push(pkt);
    }

    /// Record `seq` for `sysid`, counting discontinuities. MAVLink
    /// sequence numbers increment mod 256 per sender, so any other delta
    /// means the link lost (or reordered) `delta - 1` packets.
    fn track_seq(&mut self, sysid: u8, seq: u8) {
        if let Some(&last) = self.last_seq.get(&sysid) {
            let delta = seq.wrapping_sub(last);
            if delta != 1 {
                let missing = u64::from(delta.wrapping_sub(1));
                *self.seq_gaps.entry(sysid).or_insert(0) += 1;
                self.packets_lost += missing;
                self.telemetry.emit("gcs.seq_gap", None, || {
                    vec![
                        ("sysid", Value::U64(u64::from(sysid))),
                        ("expected", Value::U64(u64::from(last.wrapping_add(1)))),
                        ("got", Value::U64(u64::from(seq))),
                        ("missing", Value::U64(missing)),
                    ]
                });
            }
        }
        self.last_seq.insert(sysid, seq);
    }

    /// Sequence-discontinuity events seen from `sysid` so far.
    pub fn seq_gaps(&self, sysid: u8) -> u64 {
        self.seq_gaps.get(&sysid).copied().unwrap_or(0)
    }

    /// Total sequence-gap events across all sender sysids.
    pub fn seq_gaps_total(&self) -> u64 {
        self.seq_gaps.values().sum()
    }

    /// Estimated packets lost on the downlink, summed over all senders
    /// (mod-256 sequence deltas; reordering inflates this slightly).
    pub fn packets_lost(&self) -> u64 {
        self.packets_lost
    }

    /// Count of bytes that failed checksum so far — a rough "link garbage"
    /// indicator the operator console would surface.
    pub fn bad_checksums(&self) -> u64 {
        self.parser.bad_checksums
    }

    /// Count of checksum-valid packets decoded from the UAV so far.
    pub fn packets_parsed(&self) -> u64 {
        self.parser.packets_parsed
    }

    /// The operator's liveness view: does the most recent window of traffic
    /// contain at least `min_heartbeats` heartbeats? The stealthy attack's
    /// whole point (§IV-D) is to keep this true while the attack runs.
    pub fn link_alive(&self, window: usize, min_heartbeats: usize) -> bool {
        self.received
            .iter()
            .rev()
            .take(window)
            .filter(|p| p.msgid == msg::HEARTBEAT_ID)
            .count()
            >= min_heartbeats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_decoding() {
        let mut uav_side = GroundStation::new(); // reuse encoder side
        uav_side.sysid = 1;
        let hb = uav_side.heartbeat();
        let att = Packet::new(
            0,
            1,
            1,
            msg::ATTITUDE_ID,
            Attitude {
                time_boot_ms: 1,
                roll: 0.5,
                pitch: 0.0,
                yaw: 0.0,
                rollspeed: 0.0,
                pitchspeed: 0.0,
                yawspeed: 0.0,
            }
            .to_payload(),
        )
        .unwrap()
        .encode();

        let mut gcs = GroundStation::new();
        gcs.ingest(&hb);
        gcs.ingest(&att);
        assert_eq!(gcs.heartbeats.len(), 1);
        assert_eq!(gcs.attitudes.len(), 1);
        assert!((gcs.attitudes[0].roll - 0.5).abs() < 1e-6);
        assert_eq!(gcs.received.len(), 2);
    }

    #[test]
    fn sequence_numbers_increment() {
        let mut gcs = GroundStation::new();
        let a = gcs.heartbeat();
        let b = gcs.heartbeat();
        assert_eq!(a[2], 0);
        assert_eq!(b[2], 1);
    }

    #[test]
    fn exploit_packet_carries_oversized_payload() {
        let mut gcs = GroundStation::new();
        let payload = vec![0x41; 200];
        let wire = gcs.exploit_packet(&payload).unwrap();
        assert_eq!(wire[1], 200, "length field reflects real payload");
        assert_eq!(wire.len(), 6 + 200 + 2);
        // It still checks out as a valid packet to a spec parser.
        let mut p = Parser::new();
        let got = p.push_all(&wire);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload.len(), 200);
    }

    #[test]
    fn seq_gaps_counted_per_sysid() {
        let mut uav = GroundStation::new();
        uav.sysid = 1;
        let frames: Vec<Vec<u8>> = (0..6).map(|_| uav.heartbeat()).collect();
        let mut gcs = GroundStation::new();
        // Deliver seq 0, 1, then drop 2 and 3, then 4, 5: one gap of 2.
        for f in [&frames[0], &frames[1], &frames[4], &frames[5]] {
            gcs.ingest(f);
        }
        assert_eq!(gcs.seq_gaps(1), 1);
        assert_eq!(gcs.packets_lost(), 2);
        assert_eq!(gcs.seq_gaps(99), 0);
        assert_eq!(gcs.seq_gaps_total(), 1);
        assert_eq!(gcs.packets_parsed(), 4);
        // Wrap-around without a gap: 255 -> 0 is consecutive.
        let mut gcs2 = GroundStation::new();
        let mut a = Packet::new(255, 7, 1, 0, vec![0; 9]).unwrap().encode();
        a.extend(Packet::new(0, 7, 1, 0, vec![0; 9]).unwrap().encode());
        gcs2.ingest(&a);
        assert_eq!(gcs2.seq_gaps(7), 0);
        assert_eq!(gcs2.seq_gaps_total(), 0);
    }

    #[test]
    fn histories_are_bounded_with_exact_totals() {
        let mut uav = GroundStation::new();
        uav.sysid = 1;
        let mut gcs = GroundStation::with_capacity(4);
        for _ in 0..10 {
            let hb = uav.heartbeat();
            gcs.ingest(&hb);
        }
        assert_eq!(gcs.received.len(), 4, "ring bounded");
        assert_eq!(gcs.received.total(), 10, "lifetime total exact");
        assert_eq!(gcs.heartbeats.total(), 10);
        assert_eq!(gcs.packets_parsed(), 10);
        assert!(gcs.link_alive(4, 4));
    }

    #[test]
    fn seq_gap_emits_telemetry_event() {
        use telemetry::{RingRecorder, Telemetry};
        let mut uav = GroundStation::new();
        uav.sysid = 1;
        let frames: Vec<Vec<u8>> = (0..3).map(|_| uav.heartbeat()).collect();
        let mut gcs = GroundStation::new();
        gcs.telemetry = Telemetry::new(RingRecorder::new(8));
        gcs.ingest(&frames[0]);
        gcs.ingest(&frames[2]);
        let missing = gcs
            .telemetry
            .with_recorder::<RingRecorder, _>(|r| {
                let ev = r.events().find(|e| e.kind == "gcs.seq_gap").cloned();
                ev.and_then(|e| match e.field("missing") {
                    Some(telemetry::Value::U64(m)) => Some(*m),
                    _ => None,
                })
            })
            .unwrap();
        assert_eq!(missing, Some(1));
    }

    #[test]
    fn link_alive_window() {
        let mut gcs = GroundStation::new();
        let mut uav = GroundStation::new();
        uav.sysid = 1;
        for _ in 0..3 {
            let hb = uav.heartbeat();
            gcs.ingest(&hb);
        }
        assert!(gcs.link_alive(10, 3));
        assert!(!gcs.link_alive(10, 4));
        assert!(gcs.link_alive(1, 1));
    }
}
