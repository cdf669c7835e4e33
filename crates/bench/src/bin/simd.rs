//! `simd` — the simulation daemon: a flow-completion prediction service.
//!
//! A thin JSONL front end over [`netsim::StreamSession`], shaped like a
//! `flowd` component: it loads a checkpoint (or builds a fresh topology),
//! consumes arrival events from stdin one JSON object per line, and emits
//! predicted completion times on stdout as they fall out of the simulation.
//! Point a unix socket at it with `socat` (or pipe a tailed trace file) and
//! it becomes a long-running predictor that can be stopped and restarted —
//! via its own `checkpoint` command — without perturbing a single timestamp.
//!
//! ```text
//! usage: simd [--checkpoint FILE | --topology cluster|lan|daisy --hosts N]
//!             [--sharing maxmin|bottleneck] [--seed N]
//!
//! stdin commands (one JSON object per line):
//!   {"cmd":"arrive","src":0,"dst":5,"bytes":125000,"token":7[,"at_ns":N]}
//!       inject a flow arrival (at_ns defaults to the current clock)
//!   {"cmd":"advance","to_ns":N}   run the clock forward, emitting deliveries
//!   {"cmd":"quiesce"}             drain every queued event
//!   {"cmd":"checkpoint","path":"sim.ckpt"}   pause the session to disk
//!   {"cmd":"stats"}               report clock / queue / in-flight counters
//!   {"cmd":"quit"}                exit (EOF works too)
//!
//! stdout responses (one JSON object per line):
//!   {"event":"delivery","token":7,"src":0,"dst":5,"bytes":125064,
//!    "completed_at_ns":N}         a predicted completion time
//!   {"ok":true,...}               command acknowledgements
//!   {"error":"..."}               malformed or rejected commands
//! ```
//!
//! Times are exchanged in integer nanoseconds — the simulator's native tick —
//! so the protocol round-trips timestamps exactly.

use netsim::{cluster_bordeplage, daisy_xdsl, lan, HostSpec, SharingMode, StreamSession};
use p2p_common::{DataSize, HostId, SimTime};
use serde::Value;
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::process::ExitCode;

/// The most end nodes the Daisy xDSL structure holds (`daisy_xdsl`).
const DAISY_MAX_HOSTS: usize = 1024;

struct Options {
    checkpoint: Option<PathBuf>,
    topology: String,
    hosts: usize,
    sharing: SharingMode,
    seed: u64,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("simd: {msg}");
    eprintln!(
        "usage: simd [--checkpoint FILE | --topology cluster|lan|daisy --hosts N] \
         [--sharing maxmin|bottleneck] [--seed N]"
    );
    ExitCode::from(2)
}

/// Parse the command-line flags (without the program name).
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        checkpoint: None,
        topology: "cluster".to_owned(),
        hosts: 16,
        sharing: SharingMode::MaxMinFair,
        seed: 42,
    };
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--checkpoint" => opts.checkpoint = Some(PathBuf::from(value("--checkpoint")?)),
            "--topology" => opts.topology = value("--topology")?,
            "--hosts" => {
                opts.hosts = value("--hosts")?
                    .parse()
                    .map_err(|_| "--hosts needs an integer".to_owned())?
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs an integer".to_owned())?
            }
            "--sharing" => {
                opts.sharing = match value("--sharing")?.as_str() {
                    "maxmin" => SharingMode::MaxMinFair,
                    "bottleneck" => SharingMode::Bottleneck,
                    other => return Err(format!("unknown sharing mode {other:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(opts)
}

fn build_session(opts: &Options) -> Result<StreamSession, String> {
    if let Some(path) = &opts.checkpoint {
        return StreamSession::load(path).map_err(|e| e.to_string());
    }
    // Host counts the topology builders assert on are rejected here, so a
    // bad flag ends in a message, not a panic.
    if opts.hosts == 0 {
        return Err("--hosts must be at least 1".to_owned());
    }
    let host = HostSpec::default();
    let topo = match opts.topology.as_str() {
        "cluster" => cluster_bordeplage(opts.hosts, host),
        "lan" => lan(opts.hosts, host),
        "daisy" if opts.hosts > DAISY_MAX_HOSTS => {
            return Err(format!(
                "--topology daisy holds at most {DAISY_MAX_HOSTS} hosts, not {}",
                opts.hosts
            ))
        }
        "daisy" => daisy_xdsl(opts.hosts, host, opts.seed),
        other => return Err(format!("unknown topology {other:?}")),
    };
    Ok(StreamSession::new(topo.platform, opts.sharing))
}

/// Look up a field in a parsed command object.
fn get<'a>(fields: &'a [(String, Value)], name: &str) -> Option<&'a Value> {
    fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

fn get_u64(fields: &[(String, Value)], name: &str) -> Result<u64, String> {
    get(fields, name)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("`{name}` must be a non-negative integer"))
}

/// A host id field: a non-negative integer that fits in 32 bits. Larger
/// values are rejected rather than truncated onto some other host.
fn get_host(fields: &[(String, Value)], name: &str) -> Result<HostId, String> {
    let raw = get_u64(fields, name)?;
    u32::try_from(raw)
        .map(HostId::new)
        .map_err(|_| format!("`{name}` = {raw} is not a host id (at most {})", u32::MAX))
}

fn emit(out: &mut impl Write, line: &str) {
    // A broken pipe means the consumer went away; exit quietly like cat.
    if writeln!(out, "{line}").is_err() {
        std::process::exit(0);
    }
}

fn emit_deliveries(out: &mut impl Write, batch: &[netsim::DeliveryRecord]) {
    for d in batch {
        emit(
            out,
            &format!(
                "{{\"event\":\"delivery\",\"token\":{},\"src\":{},\"dst\":{},\"bytes\":{},\
                 \"completed_at_ns\":{}}}",
                d.token,
                d.src.raw(),
                d.dst.raw(),
                d.size.bytes(),
                d.completed_at.as_nanos()
            ),
        );
    }
}

/// Execute one command line; `Ok(false)` means quit.
fn step(session: &mut StreamSession, line: &str, out: &mut impl Write) -> Result<bool, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| format!("bad JSON: {e}"))?;
    let fields = v.as_object().ok_or("command must be a JSON object")?;
    let cmd = get(fields, "cmd")
        .and_then(Value::as_str)
        .ok_or("missing `cmd`")?;
    match cmd {
        "arrive" => {
            let src = get_host(fields, "src")?;
            let dst = get_host(fields, "dst")?;
            let bytes = get_u64(fields, "bytes")?;
            let token = get_u64(fields, "token")?;
            let at = match get(fields, "at_ns") {
                Some(v) => SimTime::from_nanos(v.as_u64().ok_or("`at_ns` must be an integer")?),
                None => session.now(),
            };
            session
                .inject(at, src, dst, DataSize::from_bytes(bytes), token)
                .map_err(|e| e.to_string())?;
            emit(
                out,
                &format!("{{\"ok\":true,\"queued\":{}}}", session.pending()),
            );
        }
        "advance" => {
            let to = SimTime::from_nanos(get_u64(fields, "to_ns")?);
            let batch = session.advance_to(to);
            emit_deliveries(out, &batch);
            emit(
                out,
                &format!(
                    "{{\"ok\":true,\"now_ns\":{},\"delivered\":{}}}",
                    session.now().as_nanos(),
                    batch.len()
                ),
            );
        }
        "quiesce" => {
            let batch = session.quiesce();
            emit_deliveries(out, &batch);
            emit(
                out,
                &format!(
                    "{{\"ok\":true,\"now_ns\":{},\"delivered\":{}}}",
                    session.now().as_nanos(),
                    batch.len()
                ),
            );
        }
        "checkpoint" => {
            let path = get(fields, "path")
                .and_then(Value::as_str)
                .ok_or("missing `path`")?;
            session
                .save(std::path::Path::new(path))
                .map_err(|e| e.to_string())?;
            emit(out, &format!("{{\"ok\":true,\"path\":{path:?}}}"));
        }
        "stats" => {
            emit(
                out,
                &format!(
                    "{{\"ok\":true,\"now_ns\":{},\"pending\":{},\"in_flight\":{},\
                     \"delivered\":{}}}",
                    session.now().as_nanos(),
                    session.pending(),
                    session.flows_in_flight(),
                    session.deliveries().len()
                ),
            );
        }
        "quit" => {
            emit(out, "{\"ok\":true,\"bye\":true}");
            return Ok(false);
        }
        other => return Err(format!("unknown command {other:?}")),
    }
    Ok(true)
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => return usage(&e),
    };
    let mut session = match build_session(&opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("simd: {e}");
            return ExitCode::from(1);
        }
    };
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    emit(
        &mut out,
        &format!(
            "{{\"ok\":true,\"ready\":true,\"now_ns\":{},\"hosts\":{},\"pending\":{}}}",
            session.now().as_nanos(),
            session.network().platform().host_count(),
            session.pending()
        ),
    );
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        match step(&mut session, line.trim(), &mut out) {
            Ok(true) => {}
            Ok(false) => break,
            Err(e) => emit(&mut out, &format!("{{\"error\":{:?}}}", e.to_string())),
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A four-host cluster session with two flows queued.
    fn session(sharing: SharingMode) -> StreamSession {
        let topo = cluster_bordeplage(4, HostSpec::default());
        let mut s = StreamSession::new(topo.platform, sharing);
        let mut out = Vec::new();
        for line in [
            r#"{"cmd":"arrive","src":0,"dst":1,"bytes":200000,"token":1}"#,
            r#"{"cmd":"arrive","src":2,"dst":1,"bytes":90000,"token":2,"at_ns":3000000}"#,
        ] {
            assert_eq!(step(&mut s, line, &mut out), Ok(true));
        }
        s
    }

    #[test]
    fn host_ids_above_u32_max_are_rejected_not_truncated() {
        let mut s = session(SharingMode::MaxMinFair);
        let pending = s.pending();
        let mut out = Vec::new();
        for line in [
            r#"{"cmd":"arrive","src":4294967297,"dst":1,"bytes":10,"token":9}"#,
            r#"{"cmd":"arrive","src":0,"dst":4294967297,"bytes":10,"token":9}"#,
        ] {
            let err = step(&mut s, line, &mut out).unwrap_err();
            assert!(err.contains("4294967297"), "{err}");
        }
        // u32::MAX is a well-formed id; the session refuses it as unknown.
        let line = r#"{"cmd":"arrive","src":4294967295,"dst":1,"bytes":10,"token":9}"#;
        assert!(step(&mut s, line, &mut out).is_err());
        assert_eq!(s.pending(), pending, "no rejected arrival was queued");
        assert!(out.is_empty(), "rejections print nothing themselves");
    }

    fn args<'a>(line: &'a [&str]) -> impl Iterator<Item = String> + 'a {
        line.iter().map(|a| a.to_string())
    }

    #[test]
    fn flags_parse_into_options() {
        let opts = parse_args(args(&[
            "--topology",
            "daisy",
            "--hosts",
            "8",
            "--sharing",
            "bottleneck",
            "--seed",
            "3",
        ]))
        .expect("valid flags");
        assert_eq!(opts.topology, "daisy");
        assert_eq!(opts.hosts, 8);
        assert_eq!(opts.sharing, SharingMode::Bottleneck);
        assert_eq!(opts.seed, 3);
        assert!(opts.checkpoint.is_none());
    }

    /// The engine has no threading options: the flags that once set them
    /// are unknown, which `main` reports with the usage text and exit
    /// status 2.
    #[test]
    fn removed_engine_flags_are_unknown() {
        for flag in ["--workers", "--parallel-threshold", "--split-min"] {
            let err = parse_args(args(&[flag, "2"])).err().expect("rejected");
            assert!(err.starts_with("unknown flag"), "{flag}: {err}");
        }
        let err = parse_args(args(&["--hosts"])).err().expect("rejected");
        assert!(err.contains("needs a value"), "{err}");
    }

    /// The rejection `main` prints as `simd: …` with exit status 1.
    fn build_error(line: &[&str]) -> String {
        let opts = parse_args(args(line)).expect("flags parse");
        build_session(&opts).err().expect("rejected")
    }

    #[test]
    fn cluster_needs_a_host() {
        let err = build_error(&["--topology", "cluster", "--hosts", "0"]);
        assert!(err.contains("at least 1"), "{err}");
    }

    #[test]
    fn lan_needs_a_host() {
        let err = build_error(&["--topology", "lan", "--hosts", "0"]);
        assert!(err.contains("at least 1"), "{err}");
    }

    #[test]
    fn daisy_holds_1_to_1024_hosts() {
        let err = build_error(&["--topology", "daisy", "--hosts", "0"]);
        assert!(err.contains("at least 1"), "{err}");
        let err = build_error(&["--topology", "daisy", "--hosts", "2000"]);
        assert!(err.contains("at most 1024"), "{err}");
        let opts = parse_args(args(&["--topology", "daisy", "--hosts", "1024"])).unwrap();
        assert!(build_session(&opts).is_ok());
    }

    /// `quiesce` reports the clock at the last delivery. Both flows share
    /// host 1's access link, so the first departure speeds up the second
    /// flow and supersedes its later completion, which must not move the
    /// clock.
    #[test]
    fn quiesce_reports_the_last_delivery_time() {
        let topo = cluster_bordeplage(4, HostSpec::default());
        let mut s = StreamSession::new(topo.platform, SharingMode::MaxMinFair);
        let mut out = Vec::new();
        for line in [
            r#"{"cmd":"arrive","src":0,"dst":1,"bytes":1250000,"token":1}"#,
            r#"{"cmd":"arrive","src":2,"dst":1,"bytes":2500000,"token":2}"#,
            r#"{"cmd":"quiesce"}"#,
        ] {
            assert_eq!(step(&mut s, line, &mut out), Ok(true));
        }
        let lines: Vec<Value> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        let last = lines
            .iter()
            .filter_map(|v| v.get("completed_at_ns").and_then(Value::as_u64))
            .max()
            .unwrap();
        let ack = lines.last().unwrap();
        assert_eq!(ack.get("delivered").and_then(Value::as_u64), Some(2));
        assert_eq!(ack.get("now_ns").and_then(Value::as_u64), Some(last));
    }

    /// Valid lines of every command the property below mutates.
    const VALID: &[&str] = &[
        r#"{"cmd":"arrive","src":0,"dst":3,"bytes":125000,"token":7,"at_ns":4000000}"#,
        r#"{"cmd":"advance","to_ns":5000000}"#,
        r#"{"cmd":"quiesce"}"#,
        r#"{"cmd":"stats"}"#,
        r#"{"cmd":"quit"}"#,
        r#"{"cmd":"arrive","src":1,"dst":2,"bytes":18446744073709551615,"token":8}"#,
        r#"{"cmd":"arrive","src":1,"dst":2,"bytes":1,"token":9,"at_ns":18446744073709551615}"#,
        r#"{"cmd":"advance","to_ns":18446744073709551615}"#,
    ];

    /// Replacement bytes: JSON structure, digits, signs, exponents and
    /// letters that turn keywords into garbage.
    const MUTANTS: &[u8] = b"0123456789-+.eE\"{}[],: nulftrx";

    /// Every truncated prefix and every one-byte mutation of a valid line
    /// (extreme integers included) either runs or is rejected with an
    /// `Err`; none panics. The session carries state from case to case, so
    /// mutants also meet a clock that has moved and flows in flight.
    #[test]
    fn malformed_lines_are_rejected_without_panicking() {
        for (line, sharing) in VALID
            .iter()
            .flat_map(|line| [SharingMode::MaxMinFair, SharingMode::Bottleneck].map(|m| (line, m)))
        {
            let mut s = session(sharing);
            let mut out = Vec::new();
            for cut in 0..line.len() {
                let _ = step(&mut s, &line[..cut], &mut out);
            }
            for i in 0..line.len() {
                for &m in MUTANTS {
                    let mut bytes = line.as_bytes().to_vec();
                    bytes[i] = m;
                    let text = std::str::from_utf8(&bytes).expect("ASCII stays UTF-8");
                    let _ = step(&mut s, text, &mut out);
                    out.clear();
                }
            }
            // Drain whatever the mutants queued, extreme values included.
            assert_eq!(step(&mut s, r#"{"cmd":"quiesce"}"#, &mut out), Ok(true));
        }
    }
}
