//! End-to-end service laws: a campaign submitted to the service, run in
//! interrupted slices across "process restarts", then merged, produces a
//! report byte-identical to one uninterrupted, unsharded engine run — and
//! the control protocol survives malformed input.

use mavr_campaignd::{merge_store, CampaignSpec, CampaignStore, Service};
use mavr_fleet::run_campaign;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

fn tmp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("mavr-campaignd-tests")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const SPEC: &str = r#"{
    "name": "e2e",
    "boards": 2,
    "scenarios": ["benign", "v2"],
    "loss_levels": [0.01],
    "fault_levels": [0.0, 0.0005],
    "attack_cycles": 2500000,
    "shard_jobs": 3
}"#;

#[test]
fn sliced_interrupted_service_run_merges_byte_identical_to_direct_run() {
    let root = tmp_root("e2e");
    let spec = CampaignSpec::from_json(SPEC).unwrap();
    assert_eq!(spec.total_jobs(), 8, "2 scenarios x 2 faults x 2 boards");

    // The oracle: one uninterrupted, unsharded engine run.
    let expected = run_campaign(&spec.to_config().unwrap());
    let expected_metrics = expected.metrics();

    // Session 1: submit, then run a 2-job slice — that stops *mid-shard*
    // (shards hold 3 jobs).
    let service = Service::new(root.clone(), Arc::new(AtomicBool::new(false)));
    let (resp, _) = service.handle_line(&format!(r#"{{"op":"submit","spec":{}}}"#, spec.to_json()));
    assert!(resp.contains(r#""ok":true"#), "{resp}");
    assert!(resp.contains(r#""shards":3"#), "{resp}");
    let outcome = service.run_slice("e2e", Some(2), None).unwrap();
    assert_eq!(outcome.jobs_run, 2);
    assert!(!outcome.complete);

    // Merging an incomplete campaign is refused, loudly.
    let store = CampaignStore::open(&root.join("e2e")).unwrap();
    let err = merge_store(&store).unwrap_err();
    assert!(err.contains("incomplete"), "{err}");

    // "Process restart": a fresh Service with no cached sessions resumes
    // from the shard checkpoints alone.
    let service = Service::new(root.clone(), Arc::new(AtomicBool::new(false)));
    let status = store.status().unwrap();
    assert_eq!(status.done_jobs, 2, "the slice's jobs survived the restart");
    let outcome = service.run_slice("e2e", None, None).unwrap();
    assert!(outcome.complete);
    assert_eq!(outcome.done_jobs, 8);

    // Merge: byte-identical report and metrics exposition.
    let (report_path, metrics) = merge_store(&store).unwrap();
    let merged = std::fs::read_to_string(&report_path).unwrap();
    assert_eq!(merged, expected.to_json());
    assert_eq!(metrics.to_prometheus(), expected_metrics.to_prometheus());
    assert_eq!(metrics.to_jsonl(), expected_metrics.to_jsonl());

    // The streamed outcome files hold exactly the campaign's boards, in
    // job order, one JSON line each — and agree with the report's rows.
    let mut lines = Vec::new();
    for index in 0..3 {
        let text = std::fs::read_to_string(store.outcomes_path(index)).unwrap();
        lines.extend(text.lines().map(str::to_string));
    }
    assert_eq!(lines.len(), 8);
    for (line, outcome) in lines.iter().zip(&expected.outcomes) {
        assert_eq!(line, &outcome.to_json_line());
    }
    // No in-flight residue after completion.
    assert!(!store.outcomes_part_path(0).exists());
}

#[test]
fn protocol_guardrails_answer_typed_errors_and_keep_the_connection_open() {
    use std::sync::atomic::Ordering;
    let root = tmp_root("guardrails");
    let service = Service::new(root, Arc::new(AtomicBool::new(false)));

    // Malformed JSON, unknown op, and an oversized request each get a
    // typed error on the same connection — which then keeps serving.
    let oversized = format!(r#"{{"op":"status","pad":"{}"}}"#, "x".repeat(2 << 20));
    let input = format!(
        "not json\n{{\"op\":\"frobnicate\"}}\n{oversized}\n{}\n{}\n{}\n",
        r#"{"op":"status"}"#, r#"{"op":"stats"}"#, r#"{"op":"shutdown"}"#,
    );
    let mut output = Vec::new();
    mavr_campaignd::server::serve_lines(&service, input.as_bytes(), &mut output).unwrap();
    let output = String::from_utf8(output).unwrap();
    let lines: Vec<&str> = output.lines().collect();
    assert_eq!(lines.len(), 6, "{output}");
    assert!(lines[0].contains(r#""ok":false"#), "{}", lines[0]);
    assert!(lines[1].contains("unknown op"), "{}", lines[1]);
    assert!(
        lines[2].contains(r#""ok":false"#) && lines[2].contains("exceeds"),
        "{}",
        lines[2]
    );
    assert!(
        lines[3].contains(r#""ok":true"#),
        "the connection still serves after garbage: {}",
        lines[3]
    );
    assert!(
        lines[4].contains(r#""campaignd_oversized":1"#)
            && lines[4].contains(r#""campaignd_errors":2"#),
        "{}",
        lines[4]
    );
    assert!(lines[5].contains(r#""shutdown":true"#));
    assert_eq!(service.stats().oversized.load(Ordering::Relaxed), 1);
}

#[cfg(unix)]
#[test]
fn socket_server_sheds_overload_with_a_typed_busy_response() {
    use mavr_campaignd::server::{request, serve_socket, ServeOptions};
    use std::sync::atomic::Ordering;

    let root = tmp_root("busy");
    let interrupt = Arc::new(AtomicBool::new(false));
    let service = Service::new(root, Arc::clone(&interrupt));
    let sock = std::env::temp_dir().join(format!("mavr-busy-{}.sock", std::process::id()));
    // Queue depth 0: every connection overflows the in-flight queue.
    let opts = ServeOptions {
        workers: 1,
        queue_depth: 0,
        ..ServeOptions::default()
    };
    std::thread::scope(|scope| {
        let server = scope.spawn(|| serve_socket(&service, &sock, std::io::sink(), &opts));
        for _ in 0..400 {
            if sock.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let resp = request(&sock, r#"{"op":"status"}"#).unwrap();
        assert!(resp.contains(r#""error":"busy""#), "{resp}");
        interrupt.store(true, Ordering::Relaxed);
        server.join().unwrap().unwrap();
    });
    assert!(service.stats().busy_rejected.load(Ordering::Relaxed) >= 1);
}

#[test]
fn protocol_answers_status_and_survives_garbage() {
    let root = tmp_root("proto");
    let service = Service::new(root, Arc::new(AtomicBool::new(false)));

    // Garbage never kills the service.
    for bad in [
        "not json",
        "{}",
        r#"{"op":"frobnicate"}"#,
        r#"{"op":"run"}"#,
    ] {
        let (resp, control) = service.handle_line(bad);
        assert!(resp.contains(r#""ok":false"#), "{bad} -> {resp}");
        assert_eq!(control, mavr_campaignd::Control::Continue);
    }

    // A full stdio session: submit, status, shutdown.
    let mut spec = CampaignSpec::named("tiny-proto");
    spec.boards = 1;
    spec.scenarios = vec![mavr_fleet::Scenario::Benign];
    let input = format!(
        "{}\n{}\n{}\n",
        format_args!(r#"{{"op":"submit","spec":{}}}"#, spec.to_json()),
        r#"{"op":"status"}"#,
        r#"{"op":"shutdown"}"#,
    );
    let mut output = Vec::new();
    mavr_campaignd::server::serve_lines(&service, input.as_bytes(), &mut output).unwrap();
    let output = String::from_utf8(output).unwrap();
    let lines: Vec<&str> = output.lines().collect();
    assert_eq!(lines.len(), 3, "{output}");
    assert!(lines[0].contains(r#""campaign":"tiny-proto""#));
    assert!(lines[1].contains(r#""done_jobs":0"#) && lines[1].contains(r#""total_jobs":1"#));
    assert!(lines[2].contains(r#""shutdown":true"#));
}
