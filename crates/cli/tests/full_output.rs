//! A stdout or stderr that cannot take the output is an error with exit
//! status 1, never a panic (status 101). Drives the real binary
//! (`CARGO_BIN_EXE_mavr-cli`) with `/dev/full`, where every write fails
//! with ENOSPC.

use std::fs::File;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_mavr-cli");

fn dev_full() -> Option<File> {
    File::options().write(true).open("/dev/full").ok()
}

#[test]
fn a_full_stdout_or_stderr_exits_1_without_a_panic() {
    if dev_full().is_none() {
        eprintln!("skipped: this system has no /dev/full");
        return;
    }
    let dir = std::env::temp_dir().join(format!("mavr-cli-full-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let hex = dir.join("tiny.mavrhex");
    let built = Command::new(BIN)
        .args(["build", "tiny", "-o"])
        .arg(&hex)
        .output()
        .unwrap();
    assert!(built.status.success(), "{built:?}");

    // The result goes to a full stdout; the error must reach stderr.
    let info = Command::new(BIN)
        .arg("info")
        .arg(&hex)
        .stdout(dev_full().unwrap())
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&info.stderr);
    assert_eq!(info.status.code(), Some(1), "stderr: {err}");
    assert!(!err.contains("panicked"), "stderr: {err}");
    assert!(err.contains("No space left"), "stderr: {err}");

    // A usage error goes to a full stderr.
    let usage = Command::new(BIN)
        .args(["fleet", "tiny", "--bords", "1"])
        .stderr(dev_full().unwrap())
        .output()
        .unwrap();
    assert_eq!(usage.status.code(), Some(1), "{usage:?}");
    assert!(usage.stdout.is_empty(), "{usage:?}");

    let _ = std::fs::remove_dir_all(&dir);
}
