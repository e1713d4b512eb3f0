//! Transports for the control protocol: stdio (pipes, tests, CI) and a
//! Unix domain socket server (long-running service).
//!
//! Both speak the same line protocol ([`crate::proto`]) with the same
//! guardrails: a request line longer than [`ServeOptions::max_line`] gets
//! a typed error (and the connection stays open), and a malformed line
//! never kills the service. The socket server adds supervision: it blocks
//! in `accept` and serves each connection on its own thread, at most
//! [`ServeOptions::max_connections`] at once (one more gets a typed `busy`
//! response instead of a growing backlog); every connection carries a
//! wall-clock deadline, so an idle client holds its slot no longer than
//! that; and a dedicated executor thread runs each pending campaign to
//! completion the whole time — `status` answers mid-shard.
//!
//! Stopping has one path: trip the service's interrupt flag, then connect
//! once to the socket so the blocked `accept` returns and sees it. The
//! connection that served `shutdown` does both; a signal
//! (SIGINT/SIGTERM via [`crate::signal::install`]) or a deadline trips the
//! flag alone, and the executor, which checks it at every job boundary and
//! in its idle wait, then connects. Either way the in-flight campaign
//! stops at its next job boundary with its checkpoint flushed, and every
//! thread exits cleanly. The wake-up connection goes to the socket
//! *path*: if another process unlinks or rebinds that path, Ctrl-C waits
//! for the next connection this listener accepts — and in that state no
//! client can reach the service either.

use crate::proto::{Control, Service};
use std::io::{BufRead, Write};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Default cap on one request line; far above any legitimate spec, far
/// below anything that could pressure memory.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Socket-server tuning knobs. The defaults suit a local workstation
/// service; tests shrink them to force the guardrails to fire.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Connections served at once; past this, a new connection gets the
    /// typed `busy` response and is closed.
    pub max_connections: usize,
    /// Wall-clock budget per connection.
    pub conn_deadline: Duration,
    /// Request-line size cap in bytes.
    pub max_line: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            max_connections: 16,
            conn_deadline: Duration::from_secs(10),
            max_line: MAX_REQUEST_BYTES,
        }
    }
}

/// Serve the protocol over arbitrary line streams (stdio in production,
/// strings in tests). Returns when the input ends or a `shutdown` request
/// arrives. No background work runs in this mode — drive execution with
/// explicit `run` requests.
pub fn serve_lines(
    service: &Service,
    input: impl BufRead,
    mut output: impl Write,
) -> Result<(), String> {
    serve_stream(service, input, &mut output, MAX_REQUEST_BYTES, None).map(|_| ())
}

/// One typed error line, matching [`Service::handle_line`]'s shape.
fn error_line(error: &str) -> String {
    use crate::json::Json;
    Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        ("error".into(), Json::str(error)),
    ])
    .to_text()
}

/// Drive one request/response stream to completion: bounded line reads,
/// optional wall deadline, timeouts treated as polls. The shared engine
/// behind both `serve_lines` and each socket connection.
fn serve_stream(
    service: &Service,
    mut reader: impl BufRead,
    writer: &mut impl Write,
    max_line: usize,
    deadline: Option<Instant>,
) -> Result<Control, String> {
    let wfail = |e: std::io::Error| format!("write response: {e}");
    let mut buf: Vec<u8> = Vec::new();
    // Once a line overflows the cap we answer immediately and discard the
    // rest of it, so the *next* line parses cleanly.
    let mut skipping = false;
    loop {
        if deadline.is_some_and(|d| Instant::now() > d) {
            writeln!(writer, "{}", error_line("connection deadline exceeded")).map_err(wfail)?;
            return Ok(Control::Continue);
        }
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue; // poll: re-check the deadline, then read again
            }
            Err(e) => return Err(format!("read request: {e}")),
        };
        if chunk.is_empty() {
            return Ok(Control::Continue); // EOF
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if !skipping {
                    buf.extend_from_slice(&chunk[..pos]);
                }
                reader.consume(pos + 1);
                let oversized = !skipping && buf.len() > max_line;
                let done = std::mem::take(&mut buf);
                let was_skipping = std::mem::take(&mut skipping);
                if was_skipping {
                    continue; // tail of an already-reported oversized line
                }
                if oversized {
                    service.stats().oversized.fetch_add(1, Ordering::Relaxed);
                    writeln!(
                        writer,
                        "{}",
                        error_line(&format!("request exceeds {max_line} bytes"))
                    )
                    .map_err(wfail)?;
                    continue;
                }
                let line = String::from_utf8_lossy(&done);
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                let (mut response, control) = service.handle_line(line);
                response.push('\n');
                let sent = writer
                    .write_all(response.as_bytes())
                    .and_then(|()| writer.flush());
                // A client that sent `shutdown` and hung up without reading
                // the reply still stops the service.
                if control == Control::Shutdown {
                    return Ok(Control::Shutdown);
                }
                sent.map_err(wfail)?;
            }
            None => {
                let n = chunk.len();
                if !skipping {
                    buf.extend_from_slice(chunk);
                    if buf.len() > max_line {
                        skipping = true;
                        buf.clear();
                        service.stats().oversized.fetch_add(1, Ordering::Relaxed);
                        writeln!(
                            writer,
                            "{}",
                            error_line(&format!("request exceeds {max_line} bytes"))
                        )
                        .map_err(wfail)?;
                    }
                }
                reader.consume(n);
            }
        }
    }
}

/// Serve the protocol on a Unix domain socket at `path`: each connection
/// on its own thread while a dedicated executor thread runs pending
/// campaigns, one whole campaign per pass. Returns on `shutdown` or when
/// the service's interrupt flag trips; either leaves the flag tripped.
#[cfg(unix)]
pub fn serve_socket(
    service: &Service,
    path: &Path,
    log: impl Write + Send,
    opts: &ServeOptions,
) -> Result<(), String> {
    use std::os::unix::net::UnixListener;

    // A previous unclean exit leaves a stale socket file; binding over it
    // needs the unlink first.
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path).map_err(|e| format!("bind {}: {e}", path.display()))?;
    let log = Mutex::new(log);
    logln(
        &log,
        format_args!("campaignd: serving on {}", path.display()),
    );

    let active = AtomicUsize::new(0);
    let mut accept_err = None;

    std::thread::scope(|scope| {
        scope.spawn(|| executor_loop(service, path, &log));
        loop {
            let accepted = listener.accept();
            if service.interrupted() {
                break; // woken by `halt`
            }
            let mut stream = match accepted {
                Ok((stream, _addr)) => stream,
                Err(e) => {
                    accept_err = Some(format!("accept: {e}"));
                    service.interrupt();
                    break;
                }
            };
            if active.load(Ordering::Relaxed) >= opts.max_connections {
                // Typed rejection, then hang up: better a loud `busy` now
                // than an unbounded backlog wedging every client later.
                service
                    .stats()
                    .busy_rejected
                    .fetch_add(1, Ordering::Relaxed);
                let _ = writeln!(stream, "{}", error_line("busy"));
                continue;
            }
            active.fetch_add(1, Ordering::Relaxed);
            let active = &active;
            scope.spawn(move || {
                if serve_connection(service, stream, opts) == Control::Shutdown {
                    halt(service, path);
                }
                active.fetch_sub(1, Ordering::Relaxed);
            });
        }
    });

    let _ = std::fs::remove_file(path);
    logln(
        &log,
        format_args!("campaignd: stopped; checkpoints flushed"),
    );
    accept_err.map_or(Ok(()), Err)
}

/// Stop the socket server: trip the service's interrupt flag, then
/// connect to `path` so the accept loop, blocked in `accept`, wakes and
/// sees it. A second call's connection is never accepted; it is dropped
/// with the listener.
#[cfg(unix)]
fn halt(service: &Service, path: &Path) {
    service.interrupt();
    let _ = std::os::unix::net::UnixStream::connect(path);
}

#[cfg(unix)]
fn logln(log: &Mutex<impl Write>, args: std::fmt::Arguments<'_>) {
    let mut log = log.lock().unwrap_or_else(PoisonError::into_inner);
    let _ = writeln!(log, "{args}");
}

/// Serve one connection under the per-connection deadline. Client-side
/// failures (hangup, dead socket) end the connection, never the server.
#[cfg(unix)]
fn serve_connection(
    service: &Service,
    stream: std::os::unix::net::UnixStream,
    opts: &ServeOptions,
) -> Control {
    // Short read timeouts turn a silent client into deadline polls.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let Ok(mut writer) = stream.try_clone() else {
        return Control::Continue;
    };
    let reader = std::io::BufReader::new(stream);
    let deadline = Instant::now() + opts.conn_deadline;
    serve_stream(service, reader, &mut writer, opts.max_line, Some(deadline))
        .unwrap_or(Control::Continue)
}

/// The background executor: run the first unfinished campaign to
/// completion, independent of protocol traffic, until the interrupt flag
/// trips; the campaign stops at its next job boundary when it does. The
/// executor then turns the flag into a `halt`: a signal handler can set a
/// flag but wake nothing, so the idle wait below bounds how late Ctrl-C is
/// noticed when no campaign is running.
///
/// Scanning the queue decodes every campaign's checkpoints, so an idle
/// executor scans only after the service's work hint is set (at start, by
/// a submit, and after each slice or error of its own). A campaign written
/// into the root behind the service's back is picked up at the next
/// submit or restart.
#[cfg(unix)]
fn executor_loop(service: &Service, path: &Path, log: &Mutex<impl Write>) {
    while !service.interrupted() {
        if !service.take_work_hint() {
            std::thread::sleep(Duration::from_millis(25));
            continue;
        }
        match service.pending_campaign() {
            Ok(Some(name)) => match service.run_slice(&name, None, None) {
                Ok(outcome) => logln(
                    log,
                    format_args!(
                        "campaignd: {name} {}/{} jobs{}{}",
                        outcome.done_jobs,
                        outcome.total_jobs,
                        if outcome.complete { " (complete)" } else { "" },
                        if outcome.checkpoints_skipped > 0 {
                            " (checkpoint skipped; will re-run)"
                        } else {
                            ""
                        },
                    ),
                ),
                Err(e) => {
                    logln(log, format_args!("campaignd: {name}: {e}"));
                    std::thread::sleep(Duration::from_millis(250));
                }
            },
            Ok(None) => continue,
            Err(e) => {
                logln(log, format_args!("campaignd: scan: {e}"));
                std::thread::sleep(Duration::from_millis(250));
            }
        }
        service.hint_work();
    }
    halt(service, path);
}

/// Send one request line to a campaign service socket and return its
/// response line — the client half of the protocol.
#[cfg(unix)]
pub fn request(path: &Path, line: &str) -> Result<String, String> {
    use std::os::unix::net::UnixStream;

    let stream =
        UnixStream::connect(path).map_err(|e| format!("connect {}: {e}", path.display()))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(600)))
        .map_err(|e| format!("read timeout: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    // A server at its connection cap answers `busy` and hangs up without
    // reading, so the send can fail with that answer already waiting.
    let sent = writeln!(writer, "{line}");
    let mut response = String::new();
    let received = std::io::BufReader::new(stream).read_line(&mut response);
    if response.is_empty() {
        sent.map_err(|e| format!("send: {e}"))?;
        received.map_err(|e| format!("receive: {e}"))?;
        return Err("service closed the connection without responding".into());
    }
    Ok(response.trim_end().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    /// A client that hung up: every write fails.
    struct HungUp;

    impl Write for HungUp {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Err(std::io::ErrorKind::BrokenPipe.into())
        }
    }

    #[test]
    fn shutdown_stops_the_stream_even_when_its_reply_cannot_be_written() {
        let root = std::env::temp_dir().join("mavr-campaignd-tests");
        let service = Service::new(root, Arc::new(AtomicBool::new(false)));
        let input = &b"{\"op\":\"shutdown\"}\n"[..];
        let control = serve_stream(&service, input, &mut HungUp, MAX_REQUEST_BYTES, None);
        assert_eq!(control, Ok(Control::Shutdown));
    }
}
