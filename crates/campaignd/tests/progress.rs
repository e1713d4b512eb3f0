//! A campaign's progress comes from the checkpoints it has. `status`
//! equals a walk over every shard of the plan (the scan the store used to
//! make, kept here as the oracle) on partial, torn, stray, holed and
//! quarantined roots, and a plan far too long to walk hangs neither
//! `status`, the work queue, a bounded slice nor a socket service's stop.
//! A checkpoint that is not its file's shard is refused, never counted or
//! flown again.

use mavr_campaignd::{CampaignSession, CampaignSpec, CampaignStatus, CampaignStore, Service};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;
use telemetry::Telemetry;

fn tmp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("mavr-campaignd-tests")
        .join(format!("progress-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn session(store: &CampaignStore) -> CampaignSession {
    CampaignSession::new(
        store.clone(),
        Telemetry::off(),
        Arc::new(AtomicBool::new(false)),
    )
    .unwrap()
}

/// The oracle: every shard of the plan, loaded from its checkpoint or
/// fresh when it has none, counted in index order.
fn plan_walk(store: &CampaignStore) -> CampaignStatus {
    let cfg = store.spec.to_config().unwrap();
    let plan = store.plan();
    let mut status = CampaignStatus {
        name: store.spec.name.clone(),
        total_jobs: plan.total_jobs,
        done_jobs: 0,
        shards_total: plan.shard_count(),
        shards_complete: 0,
        jobs_quarantined: 0,
        report_written: store.report_path().is_file(),
    };
    for index in 0..plan.shard_count() {
        let shard = store.load_shard(&cfg, index).unwrap();
        status.done_jobs += shard.outcomes.len() as u64;
        status.jobs_quarantined += shard
            .outcomes
            .values()
            .filter(|o| o.failure.is_some())
            .count() as u64;
        if shard.jobs() > 0 && shard.complete() {
            status.shards_complete += 1;
        }
    }
    status
}

/// `status`, the `status` op and a slice's `done_jobs` all agree with
/// the plan walk.
fn assert_status_is_the_plan_walk(service: &Service, store: &CampaignStore, when: &str) {
    let expected = plan_walk(store);
    assert_eq!(store.status().unwrap(), expected, "{when}");
    let (resp, _) = service.handle_line(&format!(
        r#"{{"op":"status","campaign":"{}"}}"#,
        store.spec.name
    ));
    let row = expected.to_json().to_text();
    assert_eq!(
        resp,
        format!(r#"{{"ok":true,"campaigns":[{row}]}}"#),
        "{when}"
    );
    let outcome = session(store).run(Some(0), None).unwrap();
    assert_eq!(outcome.jobs_run, 0, "{when}");
    assert_eq!(outcome.done_jobs, expected.done_jobs, "{when}");
}

#[test]
fn status_counts_the_saved_checkpoints_exactly_as_a_walk_over_the_plan() {
    let root = tmp_root("oracle");
    let service = Service::new(root.clone(), Arc::new(AtomicBool::new(false)));
    let spec = CampaignSpec::from_json(
        r#"{"name":"walk","boards":7,"scenarios":["benign"],"warmup_cycles":20000,
            "attack_cycles":40000,"shard_jobs":2}"#,
    )
    .unwrap();
    let store = CampaignStore::create(&root, spec).unwrap();
    assert_status_is_the_plan_walk(&service, &store, "fresh");

    // Shard 0 complete, shard 1 half done.
    assert_eq!(session(&store).run(Some(3), None).unwrap().jobs_run, 3);
    assert_status_is_the_plan_walk(&service, &store, "partial");

    // Files that are not the plan's checkpoints: a torn write, names that
    // are not `shard_path`'s, and a shard past the plan.
    let first = std::fs::read(store.shard_path(0)).unwrap();
    std::fs::write(
        store.dir.join("shard-0001.ckpt.tmp"),
        &first[..first.len() / 2],
    )
    .unwrap();
    for stray in [
        "shard-1.ckpt",
        "shard-00002.ckpt",
        "shard-+003.ckpt",
        "shard-0099.ckpt",
    ] {
        std::fs::write(store.dir.join(stray), &first).unwrap();
    }
    assert_status_is_the_plan_walk(&service, &store, "torn and stray files");

    // Shard 2 done by a `max_shards` slice; then the rest.
    let outcome = session(&store).run(None, Some(2)).unwrap();
    assert_eq!(outcome.jobs_run, 3, "shard 1's last job and shard 2");
    assert_status_is_the_plan_walk(&service, &store, "max_shards slice");
    assert!(session(&store).run(None, None).unwrap().complete);
    assert_status_is_the_plan_walk(&service, &store, "complete");

    // A hole in the middle: the deleted shard has no outcomes.
    std::fs::remove_file(store.shard_path(1)).unwrap();
    assert_status_is_the_plan_walk(&service, &store, "holed");
    assert_eq!(store.status().unwrap().done_jobs, 5);

    // Quarantined jobs count from their checkpoints too.
    let poison = CampaignSpec::from_json(
        r#"{"name":"poison","boards":3,"scenarios":["benign"],"warmup_cycles":20000,
            "attack_cycles":40000,"shard_jobs":2,"sabotage_panic":1.0,"sabotage_seed":7}"#,
    )
    .unwrap();
    let poison = CampaignStore::create(&root, poison).unwrap();
    session(&poison).run(Some(2), None).unwrap();
    assert_status_is_the_plan_walk(&service, &poison, "quarantined");
    assert_eq!(poison.status().unwrap().jobs_quarantined, 2);

    // Every campaign of the root, in name order.
    let (resp, _) = service.handle_line(r#"{"op":"status"}"#);
    let rows = [&poison, &store].map(|s| plan_walk(s).to_json().to_text());
    assert_eq!(
        resp,
        format!(r#"{{"ok":true,"campaigns":[{}]}}"#, rows.join(","))
    );
}

/// A `shard-0001.ckpt` holding shard 0's checkpoint, or another
/// campaign's shard 1, is refused with an error naming the file by
/// `status`, the work queue, the `status` op and a slice, which flies
/// nothing for it and writes no stream for it.
#[test]
fn a_checkpoint_that_is_not_its_files_shard_is_refused() {
    let root = tmp_root("misplaced");
    let service = Service::new(root.clone(), Arc::new(AtomicBool::new(false)));
    let spec = |name: &str, seed: u64| {
        CampaignSpec::from_json(&format!(
            r#"{{"name":"{name}","seed":{seed},"boards":4,"scenarios":["benign"],
                "warmup_cycles":20000,"attack_cycles":40000,"shard_jobs":2}}"#
        ))
        .unwrap()
    };
    let store = CampaignStore::create(&root, spec("mine", 1)).unwrap();
    let other = CampaignStore::create(&root, spec("other", 2)).unwrap();
    assert!(session(&other).run(None, None).unwrap().complete);
    assert_eq!(session(&store).run(Some(1), None).unwrap().jobs_run, 1);
    let misplaced = store.shard_path(1);
    for (source, why) in [
        (
            store.shard_path(0),
            "holds shard 0 (jobs 0..2), not shard 1 (jobs 2..4)",
        ),
        (other.shard_path(1), "does not match this campaign"),
    ] {
        std::fs::copy(source, &misplaced).unwrap();
        let refused = |err: String| {
            assert!(err.contains(&*misplaced.to_string_lossy()), "{err}");
            assert!(err.contains(why), "{err}");
        };
        refused(store.status().unwrap_err());
        refused(service.pending_campaign().unwrap_err());
        let (resp, _) = service.handle_line(r#"{"op":"status","campaign":"mine"}"#);
        assert!(resp.starts_with(r#"{"ok":false"#), "{resp}");
        refused(session(&store).run(None, None).unwrap_err());
        assert!(!store.outcomes_path(1).exists(), "no stream for shard 1");
    }
    // The slices ran shard 0 alone; without the stray file the campaign
    // resumes at shard 1.
    std::fs::remove_file(&misplaced).unwrap();
    assert_eq!(store.status().unwrap().done_jobs, 2);
    let outcome = session(&store).run(None, None).unwrap();
    assert_eq!((outcome.jobs_run, outcome.complete), (2, true));
}

/// 10^12 one-job shards: one `submit` line away for any client.
const HUGE: &str = r#"{"name":"huge","boards":1000000000000,"scenarios":["benign"],
    "loss_levels":[0.0],"fault_levels":[0.0],"warmup_cycles":1000,"attack_cycles":1000,
    "shard_jobs":1}"#;

fn huge_root(tag: &str) -> (PathBuf, CampaignStore) {
    let root = tmp_root(tag);
    let store = CampaignStore::create(&root, CampaignSpec::from_json(HUGE).unwrap()).unwrap();
    assert_eq!(store.plan().shard_count(), 1_000_000_000_000);
    (root, store)
}

/// Run `f` on its own thread and require its result within `secs`, so a
/// call that walks the plan fails the test instead of hanging it.
fn within<T: Send + 'static>(secs: u64, what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(secs))
        .unwrap_or_else(|e| panic!("{what} did not return within {secs} s ({e})"))
}

#[test]
fn a_plan_too_long_to_walk_costs_only_its_saved_checkpoints() {
    let (root, store) = huge_root("huge");
    let status = within(10, "status", {
        let store = store.clone();
        move || store.status().unwrap()
    });
    assert_eq!(
        (status.done_jobs, status.total_jobs),
        (0, 1_000_000_000_000)
    );
    let pending = within(10, "pending_campaign", move || {
        Service::new(root, Arc::new(AtomicBool::new(false)))
            .pending_campaign()
            .unwrap()
    });
    assert_eq!(pending.as_deref(), Some("huge"));
    for (budget, done) in [(0, 0), (3, 3)] {
        let s = store.clone();
        let outcome = within(10, &format!("run(Some({budget}), None)"), move || {
            session(&s).run(Some(budget), None).unwrap()
        });
        assert_eq!((outcome.jobs_run, outcome.done_jobs), (budget, done));
        assert!(!outcome.complete && !outcome.interrupted);
    }
    let status = within(10, "status", {
        let store = store.clone();
        move || store.status().unwrap()
    });
    assert_eq!((status.done_jobs, status.shards_complete), (3, 3));
    let _ = std::fs::remove_dir_all(&store.dir);
}

/// A socket service running the 10^12-job campaign answers `status` and
/// stops within 5 s of an interrupt.
#[cfg(unix)]
#[test]
fn a_socket_service_over_a_plan_too_long_to_walk_answers_and_stops() {
    use mavr_campaignd::server::{request, serve_socket};

    let (root, store) = huge_root("huge-socket");
    let interrupt = Arc::new(AtomicBool::new(false));
    let service = Service::new(root.clone(), Arc::clone(&interrupt));
    let sock = root.join("campaignd.sock");
    let (tx, served) = mpsc::channel();
    let path = sock.clone();
    std::thread::spawn(move || {
        let _ = tx.send(serve_socket(
            &service,
            &path,
            std::io::sink(),
            &Default::default(),
        ));
    });
    let bound = (0..2000).any(|_| {
        std::thread::sleep(Duration::from_millis(5));
        sock.exists()
    });
    assert!(bound, "the service binds its socket");

    // Poll until the executor has saved some shards, so `status` folds
    // checkpoints while the campaign runs.
    let ask = || {
        let sock = sock.clone();
        within(10, "status over the socket", move || {
            request(&sock, r#"{"op":"status"}"#).unwrap()
        })
    };
    let running = (0..200).any(|_| {
        let resp = ask();
        assert!(resp.contains(r#""ok":true"#), "{resp}");
        std::thread::sleep(Duration::from_millis(10));
        !resp.contains(r#""done_jobs":0,"#)
    });
    assert!(running, "the executor saves shards of the huge campaign");

    interrupt.store(true, Ordering::Relaxed);
    served
        .recv_timeout(Duration::from_secs(5))
        .expect("serve_socket returns within 5 s of an interrupt")
        .unwrap();
    assert!(!store.status().unwrap().complete());
    let _ = std::fs::remove_dir_all(&root);
}
