//! The `mavr-cli` command-line tool. All logic lives in the `mavr_tools`
//! library; this wrapper handles process I/O and exit codes.

use std::io::{self, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (written, status) = match mavr_tools::run(&args) {
        Ok(out) => (emit(io::stdout().lock(), &out), ExitCode::SUCCESS),
        Err(e) => {
            let mut text = format!("mavr: {e}\n");
            if matches!(e, mavr_tools::CliError::Usage(_)) {
                text.push_str(&format!("\n{}\n", mavr_tools::HELP));
            }
            (emit(io::stderr().lock(), &text), ExitCode::FAILURE)
        }
    };
    match written {
        // A reader that stopped early (`| head`) leaves the command's own
        // status; any other lost output is a failure.
        Err(e) if e.kind() != io::ErrorKind::BrokenPipe => {
            let _ = writeln!(io::stderr(), "mavr: writing output: {e}");
            ExitCode::FAILURE
        }
        _ => status,
    }
}

/// Write all of `text` and flush it, so a full or closed stream is an
/// error here instead of a panic or a silent loss at exit.
fn emit(mut w: impl Write, text: &str) -> io::Result<()> {
    w.write_all(text.as_bytes())?;
    w.flush()
}
