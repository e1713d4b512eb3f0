//! The service's boundary readers are total over arbitrary lines. Each
//! case mutates a valid spec or request line (truncated, bit-flipped, a
//! span substituted with a JSON-significant token, or one spec field
//! replaced or dropped) or draws an arbitrary one, and holds three readers
//! to their contract:
//!
//! * `Json::parse` errors or round-trips through `to_text`;
//! * `CampaignSpec::from_json` errors or round-trips through `to_json`;
//! * `Service::handle_line` on an empty root answers one JSON object with
//!   a boolean `ok` (`run` lines are skipped: they execute campaigns).
//!
//! A panic in any reader fails the case with its input line. Cases are
//! drawn from `derive_seed` streams, so every run checks the same lines.

use mavr_campaignd::json::Json;
use mavr_campaignd::{CampaignSpec, Service};
use mavr_fleet::derive_seed;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

const CASES: u64 = 40_000;

const SPEC_FULL: &str = r#"{"name":"props","seed":18446744073709551615,"boards":2,"scenarios":["benign","v2"],"loss_levels":[0.0,0.01],"fault_levels":[0.0,0.0005],"warmup_cycles":1000,"attack_cycles":2000,"app":"tiny","tenant":3,"physics":false,"threads":2,"shard_jobs":3,"sabotage_panic":0.25,"sabotage_hang":0.125,"sabotage_flaky":0.5,"sabotage_seed":9}"#;
const SPEC_MIN: &str = r#"{"name":"m","boards":1,"scenarios":["crash"]}"#;
/// A sabotage seed without a rate: the plan is inert.
const SPEC_SEED_ONLY: &str = r#"{"name":"s","sabotage_seed":5}"#;

/// Valid lines every mutation starts from: specs, one request per op and
/// a value exercising every escape and number form.
fn corpus() -> Vec<String> {
    vec![
        SPEC_FULL.to_string(),
        SPEC_MIN.to_string(),
        format!(r#"{{"op":"submit","spec":{SPEC_FULL}}}"#),
        format!(r#"{{"op":"submit","spec":{SPEC_MIN}}}"#),
        SPEC_SEED_ONLY.to_string(),
        r#"{"op":"status"}"#.to_string(),
        r#"{"op":"status","campaign":"props"}"#.to_string(),
        r#"{"op":"merge","campaign":"props"}"#.to_string(),
        r#"{"op":"run","campaign":"props","max_jobs":1,"max_shards":1}"#.to_string(),
        r#"{"op":"stats"}"#.to_string(),
        r#"{"op":"shutdown"}"#.to_string(),
        r#"{"s":"a\"b\\c\/d\b\f\n\r\t\u00e9\ud83d\ude00é😀","n":[-0.5e-3,1E+2,0,null,true,false],"o":{}}"#
            .to_string(),
    ]
}

/// Tokens a substitution splices in, whitespace-separated: structure,
/// literals, edge numbers, escapes (lone surrogates among them) and spec
/// keys.
const TOKENS: &str = r#"" \ { } [ ] : , - 0 null true 1e999 -1 1e-400 18446744073709551616 0.5
    \u0000 \ud800 \udc00 \ud800\u0041 "x" ".." "name" "boards" "shard_jobs" "sabotage_seed"
    "app" "plane" "op" "submit" "status" [[[[ {"a":"#;

/// Values a field substitution puts in place of one field of a spec (the
/// spec inside a submit line, or a spec line itself), whitespace-separated.
const VALUES: &str = r#"0 1 -1 0.5 -0.0 1e999 1e-400 18446744073709551615 18446744073709551616
    4294967297 "x" ".." "plane" "v2" [] [0.0,0.0] ["benign","benign"] ["crash",1] {} null true"#;

/// Bytes an arbitrary line is drawn from, mostly JSON-significant.
const ALPHABET: &[u8] = b"{}[]:,\"\\/ -+.eE0123456789abcfnrtuxlsn\x00\x1f\x7f\xc3\xa9\xff";

/// A deterministic draw stream.
struct Draws {
    seed: u64,
    n: u64,
}

impl Draws {
    fn below(&mut self, bound: usize) -> usize {
        self.n += 1;
        (derive_seed(self.seed, self.n) % bound as u64) as usize
    }
}

fn mutate(base: &str, kind: u64, d: &mut Draws) -> String {
    let mut bytes = base.as_bytes().to_vec();
    match kind {
        0 => bytes.truncate(d.below(bytes.len() + 1)),
        1 => {
            for _ in 0..1 + d.below(3) {
                let i = d.below(bytes.len());
                bytes[i] ^= 1 << d.below(8);
            }
        }
        2 => {
            let at = d.below(bytes.len() + 1);
            let end = (at + d.below(7)).min(bytes.len());
            let tokens: Vec<&str> = TOKENS.split_whitespace().collect();
            let token = tokens[d.below(tokens.len())].as_bytes();
            bytes.splice(at..end, token.iter().copied());
        }
        3 => return substitute_field(base, d),
        _ => {
            let len = d.below(48);
            bytes = (0..len)
                .map(|_| ALPHABET[d.below(ALPHABET.len())])
                .collect();
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Replace one field's value of the spec in `base` with one of
/// `VALUES`, or drop the field: shape-valid lines that reach the spec
/// reader's checks instead of the parser's.
fn substitute_field(base: &str, d: &mut Draws) -> String {
    let mut line = Json::parse(base).expect("corpus lines are JSON");
    let Json::Obj(fields) = &mut line else {
        return base.to_string();
    };
    let spec = match fields.iter_mut().find(|(k, _)| k == "spec") {
        Some((_, Json::Obj(spec))) => spec,
        _ => fields,
    };
    if spec.is_empty() {
        return base.to_string();
    }
    let values: Vec<&str> = VALUES.split_whitespace().collect();
    let i = d.below(spec.len());
    match d.below(values.len() + 1) {
        0 => drop(spec.remove(i)),
        v => spec[i].1 = Json::parse(values[v - 1]).expect("values are JSON"),
    }
    line.to_text()
}

/// Run one reader, turning a panic into a failure that names the input.
fn total<T>(reader: &str, line: &str, f: impl FnOnce() -> T) -> T {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| panic!("{reader} panicked on {line:?}"))
}

fn check_json(line: &str) -> bool {
    let Ok(v) = total("Json::parse", line, || Json::parse(line)) else {
        return false;
    };
    let text = v.to_text();
    assert_eq!(Json::parse(&text), Ok(v), "{line:?} re-read from {text:?}");
    true
}

fn check_spec(line: &str) -> bool {
    let Ok(spec) = total("CampaignSpec::from_json", line, || {
        CampaignSpec::from_json(line)
    }) else {
        return false;
    };
    let text = spec.to_json();
    assert_eq!(
        CampaignSpec::from_json(&text),
        Ok(spec),
        "{line:?} re-read from {text:?}"
    );
    true
}

fn check_service(service: &Service, root: &Path, line: &str) -> bool {
    let op = Json::parse(line)
        .ok()
        .and_then(|v| v.get("op").and_then(Json::as_str).map(str::to_string));
    if op.as_deref() == Some("run") {
        return false;
    }
    let (response, _) = total("Service::handle_line", line, || service.handle_line(line));
    let v = Json::parse(&response)
        .unwrap_or_else(|e| panic!("{line:?} answered non-JSON {response:?}: {e}"));
    let ok = v.get("ok").and_then(Json::as_bool);
    assert!(
        matches!(v, Json::Obj(_)) && ok.is_some(),
        "{line:?} answered {response:?}"
    );
    // Every line meets an empty root: drop what a valid submit created.
    if std::fs::read_dir(root).unwrap().next().is_some() {
        std::fs::remove_dir_all(root).unwrap();
        std::fs::create_dir_all(root).unwrap();
    }
    ok == Some(true)
}

fn tmp_root() -> PathBuf {
    let dir = std::env::temp_dir()
        .join("mavr-campaignd-tests")
        .join(format!("reader-props-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn spec_and_protocol_readers_are_total() {
    let root = tmp_root();
    let service = Service::new(root.clone(), Arc::new(AtomicBool::new(false)));
    let corpus = corpus();
    for line in &corpus {
        check_json(line);
        check_spec(line);
        check_service(&service, &root, line);
    }
    // Accepted lines per reader: a mutation that never reaches the accept
    // path tests only the error path.
    let mut accepted = [0u64; 3];
    let mut d = Draws { seed: 27, n: 0 };
    for case in 0..CASES {
        let base = &corpus[d.below(corpus.len())];
        let line = mutate(base, case % 5, &mut d);
        accepted[0] += u64::from(check_json(&line));
        accepted[1] += u64::from(check_spec(&line));
        accepted[2] += u64::from(check_service(&service, &root, &line));
    }
    assert!(
        accepted.iter().all(|&n| n >= 100),
        "accepted lines per reader {accepted:?}: the mutations no longer reach the accept paths"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_lone_high_surrogate_before_another_escape_is_one_replacement_char() {
    for (text, want) in [
        (r#""\ud800\u0041""#, "\u{fffd}A"),
        (r#""\ud800\ue000""#, "\u{fffd}\u{e000}"),
        (r#""\ud800\ud800\udc00""#, "\u{fffd}\u{10000}"),
        (r#""\u0041\udc00""#, "A\u{fffd}"),
        (r#""\ud83d\ude00""#, "\u{1f600}"),
    ] {
        assert_eq!(Json::parse(text), Ok(Json::str(want)), "{text}");
    }
}
