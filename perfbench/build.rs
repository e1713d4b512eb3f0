//! Records the compiler version, so every result names the toolchain that
//! built the measured code.

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .unwrap_or_default();
    println!("cargo:rustc-env=PERFBENCH_RUSTC={}", version.trim());
    println!("cargo:rerun-if-env-changed=RUSTC");
}
