//! End-to-end service laws: a campaign submitted to the service, run in
//! interrupted slices across "process restarts", then merged, produces a
//! report byte-identical to one uninterrupted, unsharded engine run — and
//! the control protocol survives malformed input.

use mavr_campaignd::{merge_store, CampaignSpec, CampaignStore, Service};
use mavr_fleet::run_campaign;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

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

/// A campaign deleted and resubmitted under the same name with another
/// spec must not run on the session cached for its predecessor: that ran
/// the old plan, wrote old-fingerprint shards into the new directory and
/// left a campaign that never merges.
#[test]
fn a_resubmitted_campaign_runs_its_own_spec_not_a_cached_session() {
    let root = tmp_root("resubmit");
    let service = Service::new(root.clone(), Arc::new(AtomicBool::new(false)));
    let submit = |spec: &CampaignSpec| {
        let (resp, _) =
            service.handle_line(&format!(r#"{{"op":"submit","spec":{}}}"#, spec.to_json()));
        assert!(resp.contains(r#""ok":true"#), "{resp}");
    };

    let mut old = CampaignSpec::named("same");
    old.boards = 1;
    old.attack_cycles = 300_000;
    submit(&old);
    let outcome = service.run_slice("same", None, None).unwrap();
    assert!(outcome.complete);
    assert_eq!(outcome.total_jobs, 2);
    std::fs::remove_dir_all(root.join("same")).unwrap();

    let mut new = old.clone();
    new.seed += 1;
    new.boards = 2;
    submit(&new);
    let outcome = service.run_slice("same", None, None).unwrap();
    assert!(outcome.complete);
    assert_eq!(outcome.total_jobs, 4, "the new spec's plan ran");

    let (resp, _) = service.handle_line(r#"{"op":"merge","campaign":"same"}"#);
    assert!(resp.contains(r#""ok":true"#), "{resp}");
    let merged = std::fs::read_to_string(root.join("same").join("report.json")).unwrap();
    assert_eq!(merged, run_campaign(&new.to_config().unwrap()).to_json());
}

#[test]
fn protocol_guardrails_answer_typed_errors_and_keep_the_connection_open() {
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

/// A socket server running on its own thread, and the channel that
/// yields `serve_socket`'s result when it returns (so a server that fails
/// to stop fails its test instead of hanging it).
#[cfg(unix)]
struct Server {
    service: Arc<Service>,
    interrupt: Arc<AtomicBool>,
    sock: PathBuf,
    done: std::sync::mpsc::Receiver<Result<(), String>>,
}

#[cfg(unix)]
fn start_server(tag: &str, opts: mavr_campaignd::ServeOptions) -> Server {
    let root = tmp_root(tag);
    let interrupt = Arc::new(AtomicBool::new(false));
    let service = Arc::new(Service::new(root.clone(), Arc::clone(&interrupt)));
    let sock = root.join("campaignd.sock");
    let (tx, done) = std::sync::mpsc::channel();
    let (svc, path) = (Arc::clone(&service), sock.clone());
    std::thread::spawn(move || {
        let served = mavr_campaignd::server::serve_socket(&svc, &path, std::io::sink(), &opts);
        let _ = tx.send(served);
    });
    for _ in 0..400 {
        if sock.exists() {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    Server {
        service,
        interrupt,
        sock,
        done,
    }
}

#[cfg(unix)]
impl Server {
    fn request(&self, line: &str) -> String {
        mavr_campaignd::server::request(&self.sock, line).unwrap()
    }

    /// Trip the interrupt flag and require `serve_socket` to return.
    fn interrupt_and_join(self) {
        self.interrupt.store(true, Ordering::Relaxed);
        self.join();
    }

    /// Require `serve_socket` to return cleanly within 2 s.
    fn join(self) {
        self.done
            .recv_timeout(Duration::from_secs(2))
            .expect("serve_socket returns within 2 s")
            .unwrap();
        assert!(!self.sock.exists(), "the socket file is removed on exit");
    }
}

#[cfg(unix)]
#[test]
fn socket_server_stops_within_2s_on_shutdown_and_on_interrupt() {
    let server = start_server("stop-shutdown", Default::default());
    let resp = server.request(r#"{"op":"status"}"#);
    assert!(resp.contains(r#""ok":true"#), "{resp}");
    let resp = server.request(r#"{"op":"shutdown"}"#);
    assert!(resp.contains(r#""shutdown":true"#), "{resp}");
    server.join();

    // Nothing is pending, so the executor sits in its idle wait when the
    // flag trips; it must still wake the blocked accept loop.
    let server = start_server("stop-interrupt", Default::default());
    server.interrupt_and_join();
}

/// `shutdown` stops the executor's in-flight campaign at a job boundary,
/// not after the campaign, and leaves checkpoints a fresh service resumes
/// to the uninterrupted report.
#[cfg(unix)]
#[test]
fn shutdown_mid_campaign_returns_promptly_and_a_fresh_service_resumes_it() {
    let server = start_server("shutdown-mid", Default::default());
    let mut spec = CampaignSpec::named("long");
    spec.boards = 64;
    spec.scenarios = vec![mavr_fleet::Scenario::Benign];
    spec.attack_cycles = 300_000;
    spec.shard_jobs = 4;
    let resp = server.request(&format!(r#"{{"op":"submit","spec":{}}}"#, spec.to_json()));
    assert!(resp.contains(r#""shards":16"#), "{resp}");

    // Wait for the executor's first checkpoint, then stop it mid-campaign.
    let root = server.sock.parent().unwrap().to_path_buf();
    let store = CampaignStore::open(&root.join("long")).unwrap();
    let started = (0..2000).any(|_| {
        let done = store.status().unwrap().done_jobs;
        std::thread::sleep(Duration::from_millis(5));
        done > 0
    });
    assert!(started, "the executor picked up the campaign");
    let resp = server.request(r#"{"op":"shutdown"}"#);
    assert!(resp.contains(r#""shutdown":true"#), "{resp}");
    server.join();
    assert!(
        !store.status().unwrap().complete(),
        "shutdown stopped the campaign before it finished"
    );

    let service = Service::new(root, Arc::new(AtomicBool::new(false)));
    assert!(service.run_slice("long", None, None).unwrap().complete);
    let (report_path, _) = merge_store(&store).unwrap();
    let merged = std::fs::read_to_string(report_path).unwrap();
    assert_eq!(merged, run_campaign(&spec.to_config().unwrap()).to_json());
}

#[cfg(unix)]
#[test]
fn socket_server_cuts_off_a_silent_client_at_its_deadline() {
    use std::io::BufRead;
    let server = start_server(
        "deadline",
        mavr_campaignd::ServeOptions {
            conn_deadline: Duration::from_millis(300),
            ..Default::default()
        },
    );
    let silent = std::os::unix::net::UnixStream::connect(&server.sock).unwrap();
    silent
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut reader = std::io::BufReader::new(silent);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("connection deadline exceeded"), "{line}");
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "then it hangs up");
    // The server itself is unharmed.
    let resp = server.request(r#"{"op":"status"}"#);
    assert!(resp.contains(r#""ok":true"#), "{resp}");
    server.interrupt_and_join();
}

#[cfg(unix)]
#[test]
fn socket_server_sheds_overload_with_a_typed_busy_response() {
    let server = start_server(
        "busy",
        mavr_campaignd::ServeOptions {
            max_connections: 1,
            ..Default::default()
        },
    );
    // One idle connection holds the only slot, so the next one is turned
    // away with a typed error rather than left waiting.
    let idle = std::os::unix::net::UnixStream::connect(&server.sock).unwrap();
    let resp = server.request(r#"{"op":"status"}"#);
    assert!(resp.contains(r#""error":"busy""#), "{resp}");
    assert_eq!(
        server.service.stats().busy_rejected.load(Ordering::Relaxed),
        1
    );
    // Hanging up frees the slot (once its thread sees the EOF).
    drop(idle);
    let served = (0..400).any(|_| {
        let resp = server.request(r#"{"op":"status"}"#);
        if resp.contains(r#""error":"busy""#) {
            std::thread::sleep(Duration::from_millis(5));
            return false;
        }
        assert!(resp.contains(r#""ok":true"#), "{resp}");
        true
    });
    assert!(served, "the freed slot serves the next connection");
    server.interrupt_and_join();
}

#[test]
fn protocol_answers_status_and_survives_garbage() {
    // The root sits one level down, so anything a request writes outside
    // it shows up next to it.
    let base = tmp_root("proto");
    let root = base.join("root");
    std::fs::create_dir(&root).unwrap();
    let service = Service::new(root.clone(), Arc::new(AtomicBool::new(false)));

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
    // A campaign name that is not one plain directory name gets a typed
    // error from every op that turns it into a path.
    for name in ["..", ".", "a/b", "../x", ""] {
        let mut spec = CampaignSpec::named("ok");
        spec.name = name.to_string();
        let submit = format!(r#"{{"op":"submit","spec":{}}}"#, spec.to_json());
        let ops =
            ["status", "run", "merge"].map(|op| format!(r#"{{"op":"{op}","campaign":"{name}"}}"#));
        for line in std::iter::once(submit).chain(ops) {
            let (resp, _) = service.handle_line(&line);
            assert!(
                resp.contains(r#""ok":false"#) && resp.contains("campaign name"),
                "{line} -> {resp}"
            );
        }
    }
    let outside: Vec<_> = std::fs::read_dir(&base)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(outside, ["root"], "nothing is created outside the root");
    assert_eq!(std::fs::read_dir(&root).unwrap().count(), 0);

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
