//! `caai` — command-line front end for the CAAI reproduction.
//!
//! Every flag of every command is declared once, as one row of
//! `COMMANDS` below: its name, value placeholder, default, help line and
//! the one flag it needs or excludes. Parsing, defaults, the refusals
//! and `caai help` all read that table.
//!
//! Every command that draws random numbers takes `--seed N` (default 1)
//! and is fully deterministic: a census report depends only on
//! `(--servers, --seed)` — never on `--workers`, batching, sharding, or
//! how often the run was interrupted and resumed from a checkpoint. In
//! particular, N `--shard k/N` runs merged with `census-merge` print the
//! byte-identical report of one unsharded run.

use caai::capture::{CaptureRenderer, SessionReport};
use caai::congestion::AlgorithmId;
use caai::core::census::{verdict_for_outcome, Census, CensusReport, Verdict};
use caai::core::classify::{CaaiClassifier, Identification};
use caai::core::features::{extract_pair, FeatureVector};
use caai::core::prober::{GatherOutcome, Prober, ProberConfig};
use caai::core::server_under_test::ServerUnderTest;
use caai::core::training::{build_training_set, TrainingConfig};
use caai::core::InvalidReason::NeverExceededThreshold;
use caai::engine::{
    merge_pieces, run_transport_obs, Budget, CensusEngine, Checkpoint, EngineConfig, EngineOutcome,
    JsonlMeta, JsonlSink, ResultSink, ShardSpec,
};
use caai::net::{read_targets, Behavior, EmulatedServer, NetConfig, NetTransport};
use caai::netem::rng::seeded;
use caai::netem::{ConditionDb, PathConfig};
use caai::obs::{
    Event, MetricsSnapshot, MetricsSubscriber, StderrSubscriber, Subscriber, TraceAnalysis,
    TraceSubscriber, VerdictKind,
};
use caai::stream::{open_path, CaptureSource, FollowConfig, StreamConfig};
use caai::webmodel::PopulationConfig;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One subcommand: its name, its summary line, its entry point, and its
/// flags. A flag no row names is refused.
struct Subcommand(&'static str, &'static str, Command, &'static [Flag]);

/// One flag: its name, its value placeholder (empty for a switch, which
/// parses as `true`), its default (empty for none), its help line, and
/// what it asks of the other flags given with it.
struct Flag(&'static str, &'static str, &'static str, &'static str, Rule);

/// The one flag a flag needs or excludes.
#[derive(Clone, Copy)]
enum Rule {
    Free,
    /// Refused unless this flag is given too.
    Needs(&'static str),
    /// Refused beside this flag; the text after it says what to do instead.
    Excludes(&'static str, &'static str),
    /// Refused beside this flag, with the reason the two cannot meet.
    Conflicts(&'static str, &'static str),
}

use Rule::{Conflicts, Excludes, Free, Needs};

// Why a live census refuses the simulator's flags: it runs no worker
// threads, and `--targets` and `--servers` each name the population.
const LIVE: &str = ": set --max-sessions instead";
const EITHER: &str = "a census probes either a live target list or a synthetic population";

#[rustfmt::skip]
const COMMANDS: [Subcommand; 9] = [
    Subcommand("algorithms", "list the implemented congestion avoidance algorithms", cmd_algorithms, &[]),
    Subcommand("train", "collect a training set and save the classifier as JSON", cmd_train, &[
        Flag("conditions", "10", "10", "network conditions per (algorithm, w_max) pair", Free),
        Flag("out", "model.json", "model.json", "where to write the classifier", Free),
        Flag("seed", "1", "1", "random seed", Free),
    ]),
    Subcommand("identify", "trace and identify one simulated server, or every probe flow of a capture", cmd_identify, &[
        Flag("algo", "NAME", "", "simulate a server running NAME", Excludes("pcap", "")),
        Flag("model", "model.json", "", "classify with a saved classifier", Free),
        Flag("conditions", "6", "6", "else train one on this many conditions", Excludes("model", "")),
        Flag("loss", "0.0", "0.0", "path loss of the simulated probe", Excludes("pcap", "")),
        Flag("seed", "1", "1", "random seed", Free),
        Flag("pcap", "FILE|-", "", "classify recorded flows (pcap or pcapng; `-` is stdin)", Free),
        Flag("follow", "", "", "stream a growing file, FIFO or pipe as it is written", Needs("pcap")),
        Flag("flow-timeout", "SECS", "60", "idle seconds before a flow is evicted", Needs("follow")),
        Flag("session-timeout", "S", "1800", "idle seconds before a session's verdict", Needs("follow")),
        Flag("poll-ms", "MS", "50", "poll interval at EOF", Needs("follow")),
        Flag("idle-timeout", "SECS", "30", "quit after SECS without bytes; 0 = never", Needs("follow")),
        Flag("out", "records.jsonl", "", "stream one census record per flow", Needs("pcap")),
        Flag("json", "", "", "machine-readable per-flow verdicts", Needs("pcap")),
        Flag("metrics", "FILE", "", "write caai-metrics-v1 lines: final, and per granule", Needs("pcap")),
        Flag("progress", "N", "0", "progress line every N granules; 0 is quiet", Needs("follow")),
        Flag("trace", "FILE", "", "write a Chrome trace-event JSON timeline", Needs("pcap")),
        Flag("trace-sample", "N", "1", "keep only every Nth server's gather subtree", Needs("trace")),
    ]),
    Subcommand("render-pcap", "render simulated probe sessions into a byte-valid capture", cmd_render_pcap, &[
        Flag("out", "capture.pcap", "", "the capture to write (required)", Free),
        Flag("algo", "NAME", "", "add one probed server running NAME (repeatable)", Free),
        Flag("short", "N", "0", "add N servers whose pages are too short for a trace", Free),
        Flag("loss", "0.0", "0.0", "path loss rate, in [0, 1)", Free),
        Flag("seed", "1", "1", "random seed", Free),
    ]),
    Subcommand("census", "probe simulated servers or live targets, print the Table IV report", cmd_census, &[
        Flag("servers", "1000", "1000", "simulated servers to probe", Conflicts("targets", EITHER)),
        Flag("model", "model.json", "", "classify with a saved classifier", Free),
        Flag("conditions", "6", "6", "else train one on this many conditions", Excludes("model", "")),
        Flag("json", "", "", "print the report as JSON", Free),
        Flag("seed", "1", "1", "random seed", Free),
        Flag("shard", "k/N", "0/1", "probe only servers with id % N == k", Free),
        Flag("out", "report.jsonl", "", "stream records to a JSONL file", Free),
        Flag("checkpoint", "ck.json", "", "snapshot completed work periodically", Free),
        Flag("checkpoint-every", "N", "256", "records between snapshots", Needs("checkpoint")),
        Flag("resume", "ck.json", "", "continue from a snapshot", Free),
        Flag("budget", "N", "", "stop cleanly after N probes", Free),
        Flag("deadline", "SECS", "", "stop cleanly after SECS wall-clock", Free),
        Flag("progress", "N", "0", "progress + stage-timing line every N records; 0 is quiet", Free),
        Flag("metrics", "FILE", "", "write a final caai-metrics-v1 snapshot line", Free),
        Flag("trace", "FILE", "", "write a Chrome trace-event JSON timeline", Free),
        Flag("trace-sample", "N", "1", "keep only every Nth server's gather subtree", Needs("trace")),
        Flag("workers", "4", "4", "simulator worker threads", Excludes("targets", LIVE)),
        Flag("batch", "N", "16", "servers per scheduler batch", Excludes("targets", LIVE)),
        Flag("targets", "FILE", "", "probe a `host:port` list over TCP; bad lines are skipped", Free),
        Flag("connect-timeout-ms", "N", "10000", "nonblocking connect deadline", Needs("targets")),
        Flag("io-timeout-ms", "N", "10000", "per-frame peer response deadline", Needs("targets")),
        Flag("retries", "N", "1", "ladder restarts per target after a failure", Needs("targets")),
        Flag("backoff-ms", "N", "100", "base retry backoff, doubled per retry", Needs("targets")),
        Flag("probe-rate", "R", "0", "global admissions/s; 0 is unlimited", Needs("targets")),
        Flag("net-rate", "R", "0", "per-/24 admissions/s; 0 is unlimited", Needs("targets")),
        Flag("max-sessions", "N", "1024", "probes in flight, all reactors", Needs("targets")),
    ]),
    Subcommand("emulate", "park loopback servers replaying simulated TCP, for census --targets", cmd_emulate, &[
        Flag("targets-out", "FILE", "", "write the `host:port` list here (required)", Free),
        Flag("algos", "A,B,C", "RENO,CUBIC,HTCP", "cycle these algorithms", Free),
        Flag("count", "N", "50", "number of listeners", Free),
        Flag("pace", "F", "0", "hold a reply F s per virtual s of its round", Free),
    ]),
    Subcommand("census-merge", "join per-shard checkpoints/JSONL into one report", cmd_census_merge, &[
        Flag("in", "FILE", "", "a shard's --checkpoint or --out file (repeatable)", Free),
        Flag("json", "", "", "print the merged report as JSON", Free),
        Flag("allow-partial", "", "", "tolerate missing/incomplete shards", Free),
    ]),
    Subcommand("metrics-check", "validate --metrics files and print their final counters", cmd_metrics_check, &[
        Flag("in", "FILE", "", "a caai-metrics-v1 JSONL file (repeatable)", Free),
        Flag("expect", "NAME=N", "", "fail unless final counter NAME == N (repeatable)", Free),
        Flag("expect-min", "NAME=N", "", "fail unless final counter NAME >= N (repeatable)", Free),
        Flag("expect-p99", "NAME<=N", "", "fail unless histogram NAME's p99 bound is <= N (repeatable)", Free),
        Flag("expect-count", "NAME>=N", "", "fail unless histogram NAME holds >= N values (repeatable)", Free),
    ]),
    Subcommand("trace-report", "analyze --trace files: self-time per stage, rung and round", cmd_trace_report, &[
        Flag("in", "FILE", "", "a Chrome trace-event JSON file (repeatable)", Free),
        Flag("top", "N", "8", "slow-outlier table length", Free),
        Flag("min-gather-share", "F", "", "fail unless gather self time is at least F of all", Free),
    ]),
];

const HELP_HEAD: &str = "caai — TCP Congestion Avoidance Algorithm Identification (Yang et al.)

USAGE:
    caai <command> [--key value ...]

COMMANDS:
";

const HELP_TAIL: &str = "
    The census is driven by the caai-engine probe scheduler: per-server
    RNG keyed on (seed, server id) makes the report identical for every
    worker count, a run killed mid-flight resumes from its checkpoint to
    the byte-identical report, and N sharded runs merge into the
    byte-identical report of one unsharded run.
";

/// `caai help`, rendered from `COMMANDS`: a line per command, then a
/// line per flag with its default and the flag it needs or excludes.
fn help() -> String {
    let mut text = HELP_HEAD.to_owned();
    for Subcommand(name, about, _, flags) in &COMMANDS {
        text += &format!("    {name:<13} {about}\n");
        for Flag(flag, arg, default, help, rule) in *flags {
            let mut notes = Vec::new();
            if !default.is_empty() {
                notes.push(format!("default {default}"));
            }
            match rule {
                Needs(other) => notes.push(format!("with --{other}")),
                Excludes(other, _) | Conflicts(other, _) => {
                    notes.push(format!("not with --{other}"))
                }
                Free => {}
            }
            let usage = format!("--{flag} {arg}");
            text += &format!("      {:<23} {help}", usage.trim_end());
            if !notes.is_empty() {
                text += &format!(" ({})", notes.join("; "));
            }
            text.push('\n');
        }
    }
    text + HELP_TAIL
}

/// The flags given to one subcommand, read against its table.
struct Args {
    table: &'static [Flag],
    /// Each flag given, in order, with its value (`true` for a switch).
    given: Vec<(&'static str, String)>,
}

impl Args {
    /// Parses what follows `command`: `--key value` or `--key=value` for
    /// each flag of its `table`, a bare `--key` for a switch. A flag is
    /// refused when the flag its rule needs is absent or the flag it
    /// excludes is present.
    fn parse(command: &str, table: &'static [Flag], raw: &[String]) -> Result<Args, String> {
        let mut given = Vec::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            let Some(flag) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument `{a}`"));
            };
            let (key, inline) = match flag.split_once('=') {
                Some((k, v)) => (k, Some(v)),
                None => (flag, None),
            };
            let Some(Flag(name, arg, ..)) = table.iter().find(|f| f.0 == key) else {
                return Err(format!("unknown flag --{key} for {command}"));
            };
            let value = match inline {
                Some(_) if arg.is_empty() => return Err(format!("--{key} takes no value")),
                Some(v) => v.to_owned(),
                None if arg.is_empty() => "true".to_owned(),
                None => it
                    .next()
                    .ok_or_else(|| format!("--{key} expects a value"))?
                    .clone(),
            };
            given.push((*name, value));
        }
        let is_given = |flag: &str| given.iter().any(|(k, _)| *k == flag);
        for Flag(flag, .., rule) in table.iter().filter(|f| is_given(f.0)) {
            let refusal = match *rule {
                Needs(other) if !is_given(other) => format!("--{flag} applies only with --{other}"),
                Excludes(other, then) if is_given(other) => {
                    format!("--{flag} does not apply with --{other}{then}")
                }
                Conflicts(other, why) if is_given(other) => {
                    format!("--{other} and --{flag} are mutually exclusive: {why}")
                }
                _ => continue,
            };
            return Err(refusal);
        }
        Ok(Args { table, given })
    }

    /// The last value given for `key`, else its default.
    fn get(&self, key: &str) -> Option<&str> {
        let given = self.given.iter().rev().find(|(k, _)| *k == key);
        match given {
            Some((_, v)) => Some(v),
            None => self
                .table
                .iter()
                .find(|f| f.0 == key)
                .map(|f| f.2)
                .filter(|d| !d.is_empty()),
        }
    }

    /// Every value given for a repeatable flag, in order (`--in a --in b`).
    fn get_all(&self, key: &str) -> Vec<&str> {
        self.given
            .iter()
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// The parsed value of `--key`, if it was given or has a default.
    fn optional<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        self.get(key)
            .map(|v| v.parse().map_err(|e| format!("--{key} {v}: {e}")))
            .transpose()
    }

    /// The parsed value of `--key`, or of its default.
    fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        self.optional(key)?
            .ok_or_else(|| format!("--{key} is required"))
    }

    /// A count that must be at least 1.
    fn count(&self, key: &str) -> Result<usize, String> {
        match self.parsed(key)? {
            0 => Err(format!("--{key} must be at least 1")),
            n => Ok(n),
        }
    }

    /// `--key SECS` as a duration; a negative, NaN or too large value is
    /// refused.
    fn secs(&self, key: &str) -> Result<Option<Duration>, String> {
        self.get(key)
            .map(|v| {
                let secs: f64 = v.parse().map_err(|e| format!("--{key} {v}: {e}"))?;
                Duration::try_from_secs_f64(secs).map_err(|e| format!("--{key} {v}: {e}"))
            })
            .transpose()
    }

    /// The number `--key` gives, if it was given or has a default,
    /// refused outside `range` (spelled `shown`); NaN is outside any.
    fn within(
        &self,
        key: &str,
        range: impl std::ops::RangeBounds<f64>,
        shown: &str,
    ) -> Result<Option<f64>, String> {
        match self.optional::<f64>(key)? {
            Some(v) if !range.contains(&v) => Err(format!("--{key} {v} out of {shown}")),
            v => Ok(v),
        }
    }

    fn algo(&self) -> Result<AlgorithmId, String> {
        let name = self
            .get("algo")
            .ok_or("--algo <name> is required (try `caai algorithms`)")?;
        name.parse().map_err(|e| format!("{e}"))
    }

    fn path_config(&self) -> Result<PathConfig, String> {
        Ok(match self.within("loss", 0.0..1.0, "[0, 1)")? {
            Some(loss) if loss > 0.0 => PathConfig::lossy(loss),
            _ => PathConfig::clean(),
        })
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first() else {
        eprint!("{}", help());
        return ExitCode::FAILURE;
    };
    match dispatch(command, &argv[1..]) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type Command = fn(&Args) -> Result<(), String>;
type FileSink = JsonlSink<std::io::BufWriter<std::fs::File>>;

fn dispatch(command: &str, raw: &[String]) -> Result<(), String> {
    if matches!(command, "help" | "--help" | "-h") {
        print!("{}", help());
        return Ok(());
    }
    let Some(Subcommand(_, _, run, table)) = COMMANDS.iter().find(|c| c.0 == command) else {
        return Err(format!("unknown command `{command}`\n\n{}", help()));
    };
    run(&Args::parse(command, table, raw)?)
}

fn cmd_algorithms(_args: &Args) -> Result<(), String> {
    println!(
        "{:<12} {:<10} {:<28} identified",
        "name", "family", "OS families"
    );
    for algo in caai::congestion::ALL_WITH_EXTENSIONS {
        let families: Vec<String> = algo.os_families().iter().map(ToString::to_string).collect();
        println!(
            "{:<12} {:<10} {:<28} {}",
            algo.name(),
            algo.family_name(),
            families.join(", "),
            if algo.is_identified() {
                "yes"
            } else {
                "no (excluded, §III-A)"
            }
        );
    }
    Ok(())
}

fn train_classifier(conditions: usize, seed: u64) -> CaaiClassifier {
    let db = ConditionDb::paper_2011();
    let mut rng = seeded(seed);
    eprintln!("training on {conditions} conditions per (algorithm, w_max) pair ...");
    let data = build_training_set(&TrainingConfig::quick(conditions), &db, &mut rng);
    eprintln!("collected {} vectors", data.len());
    CaaiClassifier::train(&data, &mut rng)
}

fn load_or_train(args: &Args) -> Result<CaaiClassifier, String> {
    if let Some(path) = args.get("model") {
        let json = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        return serde_json::from_str(&json).map_err(|e| format!("parse {path}: {e}"));
    }
    let conditions = args.count("conditions")?;
    let seed: u64 = args.parsed("seed")?;
    Ok(train_classifier(conditions, seed ^ 0x7121))
}

fn cmd_train(args: &Args) -> Result<(), String> {
    let conditions = args.count("conditions")?;
    let seed: u64 = args.parsed("seed")?;
    let out: String = args.parsed("out")?;
    let classifier = train_classifier(conditions, seed);
    let json = serde_json::to_string(&classifier).map_err(|e| format!("serialize: {e}"))?;
    std::fs::write(&out, &json).map_err(|e| format!("write {out}: {e}"))?;
    println!("wrote {} ({} bytes)", out, json.len());
    Ok(())
}

fn cmd_identify(args: &Args) -> Result<(), String> {
    if let Some(pcap) = args.get("pcap") {
        return cmd_identify_pcap(args, pcap);
    }
    let algo = args.algo()?;
    let seed: u64 = args.parsed("seed")?;
    let path = args.path_config()?;
    let classifier = load_or_train(args)?;
    let prober = Prober::new(ProberConfig::default());
    let outcome = prober.gather(&ServerUnderTest::ideal(algo), &path, &mut seeded(seed));
    print_gather(&outcome);
    let (verdict, identification) = verdict_for_outcome(&outcome, &classifier);
    println!("{}", verdict_line(verdict, identification));
    if let Some(
        Identification::Identified { class, confidence }
        | Identification::Unsure {
            best_guess: class,
            confidence,
        },
    ) = identification
    {
        println!(
            "forest: top class {class}, {:.0}% of votes",
            100.0 * confidence
        );
    }
    println!("ground truth: {algo}");
    Ok(())
}

/// What `identify --algo` shows of one gather: a line per attempt of the
/// ladder walk, in the order they ran, then the pair's windows and its
/// feature vector.
fn print_gather(outcome: &GatherOutcome) {
    let legs = outcome.pair.as_ref().map(|p| [&p.env_a, &p.env_b]);
    let attempts = outcome
        .failed_attempts
        .iter()
        .chain(legs.into_iter().flatten());
    for (i, trace) in attempts.enumerate() {
        println!(
            "attempt {}  environment {:?}  w_max {}  {}",
            i + 1,
            trace.env,
            trace.wmax_threshold,
            trace
                .invalid
                .map_or("valid".to_owned(), |reason| format!("invalid: {reason:?}")),
        );
    }
    let Some(pair) = &outcome.pair else {
        return;
    };
    for trace in [&pair.env_a, &pair.env_b] {
        println!(
            "\nenvironment: {:?}   w_max: {}",
            trace.env, trace.wmax_threshold
        );
        for (phase, windows) in [("pre", &trace.pre), ("post", &trace.post)] {
            println!("\nround  window   ({phase}-timeout)");
            for (i, w) in windows.iter().enumerate() {
                println!("{:>5}  {w}", i + 1);
            }
        }
    }
    println!("\nfeature vector at w_max rung {}:", pair.wmax_threshold());
    let vector = extract_pair(pair);
    for (name, value) in FeatureVector::element_names().iter().zip(vector.values) {
        println!("{name:>10} = {value:.3}");
    }
    println!();
}

fn ip(addr: [u8; 4]) -> String {
    format!("{}.{}.{}.{}", addr[0], addr[1], addr[2], addr[3])
}

/// One deterministic human-readable verdict line per probe flow.
fn describe_session(s: &SessionReport) -> String {
    let head = format!(
        "flow {:>3}  server {:<15}  {} connection{}",
        s.record.server_id,
        ip(s.server_ip),
        s.flows,
        if s.flows == 1 { " " } else { "s" },
    );
    format!(
        "{head}  {}",
        verdict_line(s.record.verdict, s.identification)
    )
}

/// A verdict as `identify` prints it, for a capture's flow and for a
/// simulated server alike; `identification` is the forest's output,
/// when it ran.
fn verdict_line(verdict: Verdict, identification: Option<Identification>) -> String {
    let votes = 100.0 * identification.map_or(0.0, |i| i.confidence());
    match verdict {
        Verdict::Identified(class, wmax) => {
            format!("identified: {class} ({votes:.0}% of forest votes) at w_max {wmax}")
        }
        Verdict::Unsure(wmax) => format!("Unsure TCP ({votes:.0}%) at w_max {wmax}"),
        Verdict::Special(case, wmax) => format!("[special] {case} at w_max {wmax}"),
        Verdict::Invalid(reason) => format!("invalid: {reason:?}"),
    }
}

/// The per-session JSON object shared by `--json` offline documents and
/// follow-mode JSONL verdict lines.
fn session_json(s: &SessionReport) -> serde::Value {
    use serde::Value;
    Value::Map(vec![
        (
            "flow".to_owned(),
            serde::Serialize::to_value(&s.record.server_id),
        ),
        ("client".to_owned(), Value::Str(ip(s.client_ip))),
        ("server".to_owned(), Value::Str(ip(s.server_ip))),
        (
            "connections".to_owned(),
            serde::Serialize::to_value(&s.flows),
        ),
        ("record".to_owned(), serde::Serialize::to_value(&s.record)),
        (
            "identification".to_owned(),
            serde::Serialize::to_value(&s.identification),
        ),
    ])
}

/// Incremental `--metrics FILE` writer: each call appends one cumulative
/// `caai-metrics-v1` snapshot line, `seq` counting up from 0, the last
/// line marked final — exactly the shape `metrics-check` validates.
struct MetricsFile {
    writer: std::io::BufWriter<std::fs::File>,
    path: String,
    seq: u64,
    started: Instant,
}

impl MetricsFile {
    fn create(path: &str) -> Result<MetricsFile, String> {
        let file = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
        Ok(MetricsFile {
            writer: std::io::BufWriter::new(file),
            path: path.to_owned(),
            seq: 0,
            started: Instant::now(),
        })
    }

    fn write(
        &mut self,
        snapshot: &MetricsSnapshot,
        source: &str,
        is_final: bool,
    ) -> Result<(), String> {
        use std::io::Write;
        let line = snapshot.to_line(
            source,
            self.seq,
            is_final,
            self.started.elapsed().as_secs_f64(),
        );
        self.seq += 1;
        writeln!(self.writer, "{line}")
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("write {}: {e}", self.path))
    }
}

/// Opens `--metrics FILE` if given; created before the run so a bad path
/// fails fast and `elapsed_secs` covers the whole command.
fn open_metrics(args: &Args) -> Result<Option<MetricsFile>, String> {
    args.get("metrics").map(MetricsFile::create).transpose()
}

/// Opens `--trace FILE` if given: a Chrome trace-event JSON stream
/// (load it in Perfetto or chrome://tracing, analyze it with
/// `caai trace-report`). `--trace-sample N` keeps only every Nth
/// server's gather subtree, bounding file size on large runs.
fn open_trace(args: &Args) -> Result<Option<TraceSubscriber>, String> {
    let Some(path) = args.get("trace") else {
        return Ok(None);
    };
    let sample: u64 = args.parsed("trace-sample")?;
    TraceSubscriber::create(std::path::Path::new(path), sample)
        .map(Some)
        .map_err(|e| format!("create {path}: {e}"))
}

/// The `--progress N` stderr lines and follow mode's per-granule
/// `--metrics` lines, all rendered from the run's [`MetricsSubscriber`].
/// Composed *after* it in the subscriber tuple, so every read already
/// includes the event that fired it: follow mode appends a metrics line
/// per granule and prints a progress line every N granules; a census,
/// simulated or `--targets`, prints its `census:` line every N records,
/// followed by a `census: stages` line once probes have been timed.
struct ProgressHook<'a> {
    metrics: &'a MetricsSubscriber,
    every: u64,
    /// The servers a census's shard owns, what its `done/owned` counts to.
    owned: u64,
    started: Instant,
    state: std::sync::Mutex<HookState>,
}

struct HookState {
    file: Option<MetricsFile>,
    // A subscriber cannot return an error, so write failures are parked
    // here and surfaced by `finish`.
    err: Option<String>,
    granules: u64,
    last_bytes: u64,
    last_at: Instant,
}

impl<'a> ProgressHook<'a> {
    /// Reads `--progress` and opens `--metrics`.
    fn new(args: &Args, metrics: &'a MetricsSubscriber, owned: u64) -> Result<Self, String> {
        Ok(ProgressHook {
            metrics,
            every: args.parsed("progress")?,
            owned,
            started: Instant::now(),
            state: std::sync::Mutex::new(HookState {
                file: open_metrics(args)?,
                err: None,
                granules: 0,
                last_bytes: 0,
                last_at: Instant::now(),
            }),
        })
    }

    /// Writes the final snapshot line and surfaces any parked write error.
    fn finish(self, source: &str) -> Result<(), String> {
        let mut state = self.state.into_inner().unwrap_or_else(|e| e.into_inner());
        if let Some(e) = state.err.take() {
            return Err(e);
        }
        match state.file.as_mut() {
            Some(file) => file.write(&self.metrics.snapshot(), source, true),
            None => Ok(()),
        }
    }

    /// A census's progress, from the `census.*` counters of `snapshot`.
    fn census_line(&self, snapshot: &MetricsSnapshot) -> String {
        let count = |name: &str| snapshot.counters[name];
        let (done, resumed) = (count("census.records"), count("census.resumed"));
        let probed = done - resumed;
        let (identified, special) = (count("census.identified"), count("census.special"));
        let (unsure, invalid) = (count("census.unsure"), count("census.invalid"));
        let elapsed = self.started.elapsed().as_secs_f64();
        format!(
            "{done}/{} servers ({probed} probed, {resumed} resumed) | {:.1} probes/s | \
             valid {:.1}% | id {identified} special {special} unsure {unsure} invalid {invalid}",
            self.owned,
            probed as f64 / elapsed.max(1e-9),
            100.0 * (identified + special + unsure) as f64 / done.max(1) as f64,
        )
    }
}

/// The gather/verdict latency split of the census probes timed so far
/// (none are over `--targets`).
fn stage_line(snapshot: &MetricsSnapshot) -> Option<String> {
    let gather = &snapshot.histograms["census.probe_gather_us"];
    let verdict = &snapshot.histograms["census.probe_verdict_us"];
    (gather.count > 0).then(|| {
        format!(
            "stages | gather p50 {}µs p90 {}µs | verdict p50 {}µs p90 {}µs | \
             gather share {:.1}%",
            gather.quantile(0.5),
            gather.quantile(0.9),
            verdict.quantile(0.5),
            verdict.quantile(0.9),
            100.0 * gather.sum as f64 / (gather.sum + verdict.sum).max(1) as f64,
        )
    })
}

impl Subscriber for ProgressHook<'_> {
    fn on_event(&self, event: &Event<'_>) {
        match *event {
            Event::CensusRecordObserved(_)
                if self.every > 0 && self.metrics.census_records().is_multiple_of(self.every) =>
            {
                let snapshot = self.metrics.snapshot();
                eprintln!("census: {}", self.census_line(&snapshot));
                if let Some(line) = stage_line(&snapshot) {
                    eprintln!("census: {line}");
                }
            }
            Event::GranuleCompleted(granule) => {
                let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
                state.granules += 1;
                let due = self.every > 0 && state.granules.is_multiple_of(self.every);
                if state.file.is_none() && !due {
                    return;
                }
                // One snapshot feeds both lines, so they agree on every count.
                let snapshot = self.metrics.snapshot();
                if let Some(file) = state.file.as_mut() {
                    if let Err(e) = file.write(&snapshot, "identify-follow", false) {
                        state.err.get_or_insert(e);
                    }
                }
                if due {
                    let count = |name: &str| snapshot.counters[name];
                    let evicted = count("capture.flows_evicted_idle")
                        + count("capture.flows_evicted_overflow")
                        + count("capture.flows_evicted_drain");
                    let bytes = count("capture.bytes");
                    let elapsed = state.last_at.elapsed().as_secs_f64();
                    let rate =
                        bytes.saturating_sub(state.last_bytes) as f64 / elapsed.max(1e-9) / 1024.0;
                    eprintln!(
                        "follow: granule {} at {:.1}s | {} frames, {} live flows, {evicted} evicted, \
                         {} skipped, {} sessions | {rate:.0} KiB/s",
                        granule.granule,
                        granule.watermark_secs,
                        count("capture.frames_decoded"),
                        count("capture.flows_opened").saturating_sub(evicted),
                        count("capture.packets_skipped"),
                        count("identify.sessions"),
                    );
                    state.last_bytes = bytes;
                    state.last_at = Instant::now();
                }
            }
            _ => {}
        }
    }
}

/// `identify --pcap FILE|-`: stream the capture through the pipeline.
///
/// Offline (the default) runs it to the end of the input under the
/// whole-capture rule and prints once the capture is read; `--follow`
/// runs it with finite timeouts over a file that may still grow, and
/// prints each session's verdict the moment it times out. The source,
/// subscribers, sinks and pipeline call are the same; `--out` is created
/// only once the input has shown a capture header.
fn cmd_identify_pcap(args: &Args, pcap_path: &str) -> Result<(), String> {
    let follow = args.get("follow").is_some();
    let (config, follow_config) = if follow {
        let flow_timeout: f64 = args.parsed("flow-timeout")?;
        let session_timeout: f64 = args.parsed("session-timeout")?;
        let poll_ms: u64 = args.parsed("poll-ms")?;
        let positive = |t: f64| t.is_finite() && t > 0.0;
        if !positive(flow_timeout) || !positive(session_timeout) {
            return Err("--flow-timeout and --session-timeout must be positive".to_owned());
        }
        let config = StreamConfig {
            flow_timeout,
            session_timeout,
            ..StreamConfig::default()
        };
        let follow_config = FollowConfig {
            follow: true,
            poll_interval: Duration::from_millis(poll_ms.max(1)),
            idle_timeout: args.secs("idle-timeout")?.filter(|t| !t.is_zero()),
        };
        (config, follow_config)
    } else {
        (StreamConfig::whole_capture(), FollowConfig::default())
    };
    let classifier = load_or_train(args)?;
    let mut source =
        open_path(pcap_path, &follow_config).map_err(|e| format!("read {pcap_path}: {e}"))?;
    let metrics = MetricsSubscriber::new();
    let trace = open_trace(args)?;
    let hook = ProgressHook::new(args, &metrics, 0)?;
    source
        .read_header()
        .map_err(|e| format!("{pcap_path}: {e}"))?;

    let json = args.get("json").is_some();
    let mut totals = CensusReport::default();
    let mut jsonl = open_out(args)?;
    // Offline output opens with the capture's totals, so its verdicts
    // wait for the end of the capture; follow mode prints each at once.
    let mut held = Vec::new();
    // The pipeline calls the verdict callback between reads of the source;
    // sink failures are carried out by value because the callback cannot
    // return an error.
    let mut sink_err: Option<String> = None;
    let stats = {
        let on_verdict = |s: &SessionReport| {
            if !follow {
                held.push(s.clone());
            } else if json {
                match serde_json::to_string(&session_json(s)) {
                    Ok(line) => println!("{line}"),
                    Err(e) => eprintln!("verdict serialization: {e}"),
                }
            } else {
                println!("{}", describe_session(s));
            }
            totals.observe(&s.record);
            if let (None, Some(sink)) = (&sink_err, jsonl.as_mut()) {
                if let Err(e) = sink.emit(&s.record).and_then(|()| sink.flush()) {
                    sink_err = Some(format!("sink: {e}"));
                }
            }
        };
        // Diagnostics render live as the pipeline fires them; the hook
        // last so its snapshots include the granule that fired it.
        let obs = (
            trace.as_ref(),
            (StderrSubscriber::new(pcap_path), (&metrics, &hook)),
        );
        caai::stream::run_obs(&mut source, &classifier, &config, on_verdict, &obs)
            .map_err(|e| format!("{pcap_path}: {e}"))?
    };
    if let Some(t) = &trace {
        t.finish();
    }
    if let Some(e) = sink_err {
        return Err(e);
    }
    hook.finish(if follow {
        "identify-follow"
    } else {
        "identify"
    })?;

    if json && !follow {
        use serde::Value;
        let doc = Value::Map(vec![
            (
                "packets".to_owned(),
                serde::Serialize::to_value(&stats.packets),
            ),
            (
                "skipped_packets".to_owned(),
                serde::Serialize::to_value(&stats.skipped.len()),
            ),
            (
                "flows".to_owned(),
                Value::Seq(held.iter().map(session_json).collect()),
            ),
        ]);
        let json = serde_json::to_string_pretty(&doc).map_err(|e| format!("{e}"))?;
        println!("{json}");
    } else if !follow {
        println!(
            "capture: {} packets, {} skipped, {} probe flow{}",
            stats.packets,
            stats.skipped.len(),
            held.len(),
            if held.len() == 1 { "" } else { "s" },
        );
        for s in &held {
            println!("{}", describe_session(s));
        }
        print_verdict_totals(&totals);
    } else if !json {
        println!(
            "stream: {} packets, {} skipped, {} flows ({} peak live), \
             {} session{}, {} dataless",
            stats.packets,
            stats.skipped.len(),
            stats.flows,
            stats.peak_live_flows,
            stats.sessions,
            if stats.sessions == 1 { "" } else { "s" },
            stats.dataless_sessions,
        );
        print_verdict_totals(&totals);
    }
    Ok(())
}

/// Opens `--out FILE` as a fresh JSONL record sink, if given.
fn open_out(args: &Args) -> Result<Option<FileSink>, String> {
    args.get("out")
        .map(|out| JsonlSink::create(out).map_err(|e| format!("create {out}: {e}")))
        .transpose()
}

/// The `verdicts: ...` line closing an `identify --pcap` run.
fn print_verdict_totals(report: &CensusReport) {
    // Count identifications from the columns: `identified_total` scores
    // only truth-bearing records, and capture records carry no truth.
    println!(
        "verdicts: {} identified, {} special, {} unsure, {} invalid",
        report.kind_total(VerdictKind::Identified),
        report.kind_total(VerdictKind::Special),
        report.kind_total(VerdictKind::Unsure),
        report.kind_total(VerdictKind::Invalid),
    );
}

/// The address of the `host`-th server `render-pcap` renders (from 1):
/// 198.51.100.1–254, then 203.0.113.1–254 — two documentation ranges.
fn render_address(host: u16) -> [u8; 4] {
    if host <= 254 {
        [198, 51, 100, host as u8]
    } else {
        [203, 0, 113, (host - 254) as u8]
    }
}

/// What one rendered gather came to: the pair's rung, or the bare name
/// of the reason a census would file it under.
fn gather_result(outcome: &GatherOutcome) -> String {
    match &outcome.pair {
        Some(pair) => format!("usable pair at w_max {}", pair.wmax_threshold()),
        None => {
            let reason = outcome.failure_reason();
            format!(
                "no usable pair ({:?})",
                reason.unwrap_or(NeverExceededThreshold)
            )
        }
    }
}

fn cmd_render_pcap(args: &Args) -> Result<(), String> {
    let out = args
        .get("out")
        .ok_or("render-pcap needs --out capture.pcap")?
        .to_owned();
    let seed: u64 = args.parsed("seed")?;
    let short: u32 = args.parsed("short")?;
    let path = args.path_config()?;
    let algos: Vec<AlgorithmId> = args
        .get_all("algo")
        .into_iter()
        .map(|name| name.parse().map_err(|e| format!("{e}")))
        .collect::<Result<_, String>>()?;
    if algos.is_empty() && short == 0 {
        return Err("render-pcap needs at least one --algo NAME or --short N".to_owned());
    }
    // Each server gets a distinct address (`render_address`).
    let sessions_wanted = algos.len() as u64 + u64::from(short);
    if sessions_wanted > 508 {
        return Err(format!(
            "render-pcap caps at 508 servers per capture (one 198.51.100.x \
             or 203.0.113.x address each); asked for {sessions_wanted}"
        ));
    }

    let prober = Prober::new(ProberConfig::default());
    // Frames stream straight to the file as sessions render: memory
    // stays O(connection state) however many servers the capture holds.
    let file = std::fs::File::create(&out).map_err(|e| format!("create {out}: {e}"))?;
    let mut renderer = CaptureRenderer::with_writer(std::io::BufWriter::new(file))
        .map_err(|e| format!("write {out}: {e}"))?;
    let mut rng = seeded(seed);
    let client = [192, 0, 2, 1];
    let mut host = 0u16;
    let mut render = |host: u16, server: &ServerUnderTest, rng: &mut _| {
        renderer
            .render_session(client, render_address(host), server, &prober, &path, rng)
            .map_err(|e| format!("write {out}: {e}"))
    };
    for algo in &algos {
        host += 1;
        let outcome = render(host, &ServerUnderTest::ideal(*algo), &mut rng)?;
        eprintln!(
            "rendered {algo} as {}: {}",
            ip(render_address(host)),
            gather_result(&outcome),
        );
    }
    for _ in 0..short {
        host += 1;
        // A server whose longest page cannot sustain even the smallest
        // rung: the §VII-B "no long enough Web pages" failure mode.
        let mut web = PopulationConfig::small(1)
            .generate(&mut rng)
            .pop()
            .expect("one server");
        web.pages = caai::webmodel::PageModel {
            default_bytes: 2_000,
            longest_bytes: 2_000,
        };
        web.requests = caai::webmodel::RequestAcceptanceModel { max_requests: 1 };
        web.quirk = caai::tcpsim::SenderQuirk::None;
        let outcome = render(host, &ServerUnderTest::from_web_server(&web), &mut rng)?;
        eprintln!(
            "rendered short-page server as {}: {}",
            ip(render_address(host)),
            gather_result(&outcome),
        );
    }

    let frames = renderer.frames();
    let buf = renderer.finish().map_err(|e| format!("write {out}: {e}"))?;
    buf.into_inner()
        .map_err(|e| format!("write {out}: {}", e.error()))?;
    println!(
        "wrote {out}: {frames} frames, {host} probe session{}",
        if host == 1 { "" } else { "s" },
    );
    Ok(())
}

/// The engine configuration `census` reads from its flags, whether it
/// probes the simulator or live targets.
fn engine_config(args: &Args) -> Result<EngineConfig, String> {
    Ok(EngineConfig {
        seed: args.parsed("seed")?,
        workers: args.count("workers")?,
        batch_size: args.count("batch")?,
        shard: args.parsed("shard")?,
        checkpoint_path: args.get("checkpoint").map(PathBuf::from),
        checkpoint_every: args.parsed("checkpoint-every")?,
        budget: Budget {
            max_probes: args.optional("budget")?,
            deadline: args.secs("deadline")?,
        },
    })
}

/// What else `census` opens from its flags the same way whether it
/// probes the simulator or live targets: the checkpoint to resume from,
/// and the `--out` sink.
fn census_setup(
    args: &Args,
    config: &EngineConfig,
    population: u64,
) -> Result<(Option<Checkpoint>, Option<FileSink>), String> {
    let (seed, shard) = (config.seed, config.shard);
    let resume = match args.get("resume") {
        None => None,
        Some(path) => {
            let ck = Checkpoint::load(path).map_err(|e| format!("resume {path}: {e}"))?;
            // Validate before any sink is opened: a mismatched resume must
            // not truncate an existing --out report.
            ck.ensure_matches(seed, population, shard)
                .map_err(|e| format!("resume {path}: {e}"))?;
            Some(ck)
        }
    };
    let jsonl = match args.get("out") {
        None => None,
        Some(out) => {
            // A v2 resume cannot replay already-completed records, so on
            // resume the existing file is kept and extended.
            let mut sink = if resume.is_some() {
                JsonlSink::append(out).map_err(|e| format!("append {out}: {e}"))?
            } else {
                JsonlSink::create(out).map_err(|e| format!("create {out}: {e}"))?
            };
            sink.write_meta(&JsonlMeta {
                seed,
                population,
                shard,
            })
            .map_err(|e| format!("write {out}: {e}"))?;
            Some(sink)
        }
    };
    Ok((resume, jsonl))
}

/// What `census` does once the engine returns, whatever it probed: the
/// final metrics line, the closing `census:` line, budget and shard
/// notes on stderr, the report on stdout. `noun` is what the population
/// is made of.
fn census_epilogue(
    args: &Args,
    outcome: &EngineOutcome,
    hook: ProgressHook,
    shard: ShardSpec,
    noun: &str,
) -> Result<(), String> {
    let snapshot = hook.metrics.snapshot();
    let (summary, owned) = (hook.census_line(&snapshot), hook.owned);
    hook.finish("census")?;
    eprintln!("census: {summary}");
    if !outcome.completed {
        eprintln!(
            "budget exhausted after {} probes; the report below is partial{}",
            snapshot.counters["census.records"] - snapshot.counters["census.resumed"],
            match args.get("checkpoint") {
                Some(ck) => format!(" — resume with `--resume {ck}`"),
                None => String::new(),
            }
        );
    }
    if !shard.is_full() {
        eprintln!(
            "shard {shard} report below covers {owned} {noun}; join all {} shards \
             with `caai census-merge`",
            shard.count
        );
    }
    print_report(&outcome.report, args.get("json").is_some())
}

fn cmd_census(args: &Args) -> Result<(), String> {
    if let Some(path) = args.get("targets") {
        return cmd_census_net(args, path);
    }
    let servers: u32 = args.parsed("servers")?;
    let config = engine_config(args)?;
    let (seed, shard) = (config.seed, config.shard);
    let classifier = load_or_train(args)?;
    let db = ConditionDb::paper_2011();
    let census = Census::new(classifier, db, ProberConfig::default());
    let mut rng = seeded(seed);
    let population = PopulationConfig::small(servers).generate(&mut rng);
    let (resume, mut jsonl) = census_setup(args, &config, u64::from(servers))?;

    let owned = shard.owned_count(u64::from(servers));
    let workers = config.workers;
    eprintln!("probing {owned} of {servers} servers (shard {shard}) on {workers} workers ...");
    let engine = CensusEngine::new(census, config);
    // Metrics are collected whether or not --metrics is given (the cost
    // is an atomic add per record against a full probe simulation):
    // quiet runs still measure, and --progress renders what they hold.
    let metrics = MetricsSubscriber::new();
    let hook = ProgressHook::new(args, &metrics, owned)?;
    let trace = open_trace(args)?;
    let obs = (trace.as_ref(), (&metrics, &hook));
    let mut sinks: Vec<_> = jsonl.iter_mut().map(|s| s as &mut dyn ResultSink).collect();
    let outcome = engine
        .run_obs(&population, &mut sinks, resume, &obs)
        .map_err(|e| e.to_string())?;
    if let Some(t) = &trace {
        t.finish();
    }
    census_epilogue(args, &outcome, hook, shard, "servers")
}

/// `caai census --targets FILE`: the same census pipeline — engine,
/// shards, checkpoints, sinks, report — fed by [`NetTransport`] probing
/// real sockets instead of the simulator. Malformed target lines,
/// duplicates, and unresolvable hosts are skipped and reported, never
/// fatal: a live census finishes with whatever answered.
fn cmd_census_net(args: &Args, targets_path: &str) -> Result<(), String> {
    let max_sessions = args.count("max-sessions")?;
    let config = engine_config(args)?;
    let shard = config.shard;
    // 0 is unlimited; a negative or NaN rate is refused, not read as 0.
    let rate = |key| {
        args.within(key, 0.0..f64::INFINITY, "[0, inf)")
            .map(Option::unwrap_or_default)
    };
    let net_config = NetConfig {
        prober: ProberConfig::default(),
        connect_timeout: Duration::from_millis(args.parsed("connect-timeout-ms")?),
        io_timeout: Duration::from_millis(args.parsed("io-timeout-ms")?),
        retries: args.parsed("retries")?,
        backoff: Duration::from_millis(args.parsed("backoff-ms")?),
        rate: rate("probe-rate")?,
        rate_per_net: rate("net-rate")?,
        max_sessions,
    };
    let list = read_targets(std::path::Path::new(targets_path))
        .map_err(|e| format!("read {targets_path}: {e}"))?;
    for skipped in &list.skipped {
        eprintln!(
            "{targets_path}: line {}: skipped ({})",
            skipped.line, skipped.reason
        );
    }
    if list.duplicates > 0 {
        eprintln!(
            "{targets_path}: {} duplicate target(s) dropped (first occurrence kept)",
            list.duplicates
        );
    }
    if list.targets.is_empty() {
        return Err(format!("{targets_path}: no usable targets"));
    }
    let population = list.targets.len() as u64;

    let classifier = load_or_train(args)?;
    // The transport and the engine share one subscriber stack: reactor
    // ticks, rate-limiter stalls, and reactor-side spans land next to
    // probe and census counters in the same --metrics / --trace outputs.
    let obs = Arc::new((open_trace(args)?, MetricsSubscriber::new()));
    let transport = NetTransport::new(list.targets, classifier, net_config, Arc::clone(&obs))
        .map_err(|e| format!("start reactor: {e}"))?;
    for (id, target, why) in transport.resolution_failures() {
        eprintln!("{targets_path}: target {id} ({target}): skipped ({why}); recorded as invalid");
    }
    let (resume, mut jsonl) = census_setup(args, &config, population)?;

    let owned = shard.owned_count(population);
    eprintln!(
        "probing {owned} of {population} live targets (shard {shard}), up to {max_sessions} in flight ..."
    );
    let hook = ProgressHook::new(args, &obs.1, owned)?;
    let mut sinks: Vec<_> = jsonl.iter_mut().map(|s| s as &mut dyn ResultSink).collect();
    let outcome = run_transport_obs(&transport, &config, &mut sinks, resume, &(&*obs, &hook))
        .map_err(|e| e.to_string())?;
    // Every session has concluded. Joining the reactor threads (one per
    // CPU this process may use) lets each report what the scheduler did
    // to it (`net.reactors`, `net.reactor_migrations`,
    // `net.reactor_switches`) in time for the final metrics line; then
    // close the trace, so the file is valid JSON the moment the command
    // prints its report.
    drop(transport);
    if let Some(t) = &obs.0 {
        t.finish();
    }
    census_epilogue(args, &outcome, hook, shard, "targets")
}

/// `caai emulate`: a parked fleet of loopback [`EmulatedServer`]s for
/// exercising `census --targets` without touching the real network (CI
/// runs this in the background, probes it, then kills it).
fn cmd_emulate(args: &Args) -> Result<(), String> {
    let count = args.count("count")?;
    let algos: Vec<AlgorithmId> = args
        .parsed::<String>("algos")?
        .split(',')
        .map(|name| name.parse().map_err(|e| format!("--algos: {e}")))
        .collect::<Result<_, _>>()?;
    let out = args
        .get("targets-out")
        .ok_or("emulate needs --targets-out FILE")?;
    let pace = args.secs("pace")?.unwrap_or_default();
    // Bind everything before writing the list: once the file exists,
    // every line in it accepts connections.
    let mut servers = Vec::with_capacity(count);
    let mut lines = String::new();
    for i in 0..count {
        let algo = algos[i % algos.len()];
        let server = EmulatedServer::spawn(ServerUnderTest::ideal(algo), Behavior::Paced(pace))
            .map_err(|e| format!("spawn server {i}: {e}"))?;
        lines.push_str(&format!("{} # {algo:?}\n", server.target_line()));
        servers.push(server);
    }
    std::fs::write(out, lines).map_err(|e| format!("write {out}: {e}"))?;
    eprintln!(
        "emulating {count} loopback servers over {} algorithm(s); targets in {out}; \
         kill this process to stop",
        algos.len()
    );
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

fn cmd_census_merge(args: &Args) -> Result<(), String> {
    let inputs = args.get_all("in");
    if inputs.is_empty() {
        return Err("census-merge needs at least one --in FILE".to_owned());
    }
    let mut shards = Vec::new();
    for path in inputs {
        // Accept either artifact of a shard run: a checkpoint file or a
        // JSONL record stream. Sniffed by content (first line), not
        // extension, so a multi-GB JSONL is never parsed as one JSON doc.
        let is_jsonl =
            caai::engine::sink::sniff_jsonl(path).map_err(|e| format!("read {path}: {e}"))?;
        let shard = if is_jsonl {
            let file = caai::engine::sink::read_jsonl_tagged(path)
                .map_err(|e| format!("read {path}: {e}"))?;
            for (lineno, err) in &file.corrupt {
                eprintln!(
                    "{path}:{lineno}: skipping corrupt line (interrupted \
                     write?): {err}"
                );
            }
            Checkpoint::from_jsonl(&file).map_err(|e| format!("{path}: {e}"))?
        } else {
            Checkpoint::load(path).map_err(|e| {
                format!(
                    "{path}: not census JSONL, and not a \
                     checkpoint: {e}"
                )
            })?
        };
        let (done, owned) = shard.progress();
        eprintln!(
            "{path}: shard {} of seed {}, {done}/{owned} servers",
            shard.shard, shard.seed
        );
        shards.push(shard);
    }
    let merged =
        merge_pieces(shards, args.get("allow-partial").is_some()).map_err(|e| e.to_string())?;
    eprintln!(
        "merged {} shards: {} of {} servers (seed {})",
        merged.shards, merged.report.total, merged.population, merged.seed
    );
    if !merged.complete {
        eprintln!("WARNING: partial merge — the report does not cover the population");
    }
    print_report(&merged.report, args.get("json").is_some())
}

/// One `--expect NAME=N` (exact), `--expect-min NAME=N` (lower bound),
/// `--expect-p99 NAME<=N` (ceiling on the p99 bucket bound) or
/// `--expect-count NAME>=N` (floor on recorded values) assertion against
/// the final snapshot's counters or histograms.
struct Expectation {
    flag: &'static str,
    name: String,
    value: u64,
}

/// The histogram flags first: a file is checked in this order.
const EXPECTATIONS: [(&str, &str); 4] = [
    ("expect-p99", "<="),
    ("expect-count", ">="),
    ("expect", "="),
    ("expect-min", "="),
];

fn parse_expectations(args: &Args) -> Result<Vec<Expectation>, String> {
    let mut out = Vec::new();
    for (flag, sep) in EXPECTATIONS {
        for spec in args.get_all(flag) {
            let (name, value) = spec
                .split_once(sep)
                .ok_or_else(|| format!("--{flag} {spec}: expected NAME{sep}N"))?;
            let value = value.parse().map_err(|e| format!("--{flag} {spec}: {e}"))?;
            out.push(Expectation {
                flag,
                name: name.to_owned(),
                value,
            });
        }
    }
    Ok(out)
}

impl Expectation {
    /// Why `snapshot` fails this expectation, if it does.
    fn failure(&self, snapshot: &MetricsSnapshot) -> Option<String> {
        let (name, want) = (&self.name, self.value);
        let got = snapshot.counters.get(name).copied().unwrap_or(0);
        let histogram = snapshot.histograms.get(name);
        match (self.flag, histogram) {
            ("expect", _) => {
                (got != want).then(|| format!("counter `{name}` is {got}, expected {want}"))
            }
            ("expect-min", _) => {
                (got < want).then(|| format!("counter `{name}` is {got}, expected at least {want}"))
            }
            (flag, None) => Some(format!(
                "--{flag}: no histogram named `{name}` in the final snapshot"
            )),
            ("expect-p99", Some(h)) => {
                let p99 = h.quantile(0.99);
                (p99 > want).then(|| format!("histogram `{name}` p99 is {p99}, expected <= {want}"))
            }
            (_, Some(h)) => (h.count < want).then(|| {
                format!(
                    "histogram `{name}` recorded {} values, expected >= {want}",
                    h.count
                )
            }),
        }
    }
}

/// Analyzes `--trace` files offline: per-stage self-time attribution
/// with p50/p95/p99, the gather breakdown by rung and round, queue-wait
/// vs work time in the streaming pipeline, reactor tick vs session time
/// on the live path, and the slowest gathers by server id.
/// `--min-gather-share F` turns it into CI's "the probe path is
/// gather-dominated" assertion.
fn cmd_trace_report(args: &Args) -> Result<(), String> {
    let inputs = args.get_all("in");
    if inputs.is_empty() {
        return Err("trace-report needs at least one --in FILE".to_owned());
    }
    let top: usize = args.parsed("top")?;
    let min_gather_share = args.within("min-gather-share", 0.0..=1.0, "[0, 1]")?;
    for path in inputs {
        let read = caai::obs::report::read_file(std::path::Path::new(path))
            .map_err(|e| format!("read {path}: {e}"))?;
        let analysis = TraceAnalysis::from_spans(&read.spans, top);
        println!("{path}:");
        print!("{}", analysis.render(&read));
        if let Some(min) = min_gather_share.filter(|min| analysis.gather_share < *min) {
            return Err(format!(
                "{path}: gather self-time share {:.1}% is below the required {:.1}%",
                100.0 * analysis.gather_share,
                100.0 * min,
            ));
        }
    }
    Ok(())
}

/// Validates `--metrics` output files (schema, seq, monotonicity) and
/// prints each file's final counters; `--expect`/`--expect-min` turn it
/// into the assertion tool CI runs after a smoke capture.
fn cmd_metrics_check(args: &Args) -> Result<(), String> {
    let inputs = args.get_all("in");
    if inputs.is_empty() {
        return Err("metrics-check needs at least one --in FILE".to_owned());
    }
    let expectations = parse_expectations(args)?;
    for path in inputs {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let lines = caai::obs::validate_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
        let last = lines.last().expect("validated files have a final line");
        println!(
            "{path}: {} OK — source {}, {} snapshot{}, {:.2}s",
            caai::obs::SCHEMA,
            last.source,
            lines.len(),
            if lines.len() == 1 { "" } else { "s" },
            last.elapsed_secs,
        );
        for (name, n) in &last.snapshot.counters {
            if *n > 0 {
                println!("    {name:<36} {n}");
            }
        }
        for (name, h) in &last.snapshot.histograms {
            if h.count > 0 {
                println!(
                    "    {name:<36} n={} p50={} p99={} max={}",
                    h.count,
                    h.quantile(0.50),
                    h.quantile(0.99),
                    h.max,
                );
            }
        }
        if let Some(why) = expectations.iter().find_map(|e| e.failure(&last.snapshot)) {
            return Err(format!("{path}: {why}"));
        }
    }
    Ok(())
}

/// Prints a census report to stdout — the single formatter shared by
/// `census` and `census-merge`, so a merged report is byte-identical to
/// the unsharded run's.
fn print_report(report: &CensusReport, json: bool) -> Result<(), String> {
    if json {
        let json = serde_json::to_string_pretty(report).map_err(|e| format!("{e}"))?;
        println!("{json}");
        return Ok(());
    }

    println!("total servers:       {}", report.total);
    let invalid: usize = report.invalid.values().sum();
    println!(
        "invalid traces:      {} ({:.1}%)",
        invalid,
        100.0 * invalid as f64 / report.total.max(1) as f64
    );
    for (reason, n) in &report.invalid {
        println!("    {reason:<28} {n}");
    }
    println!("valid traces:        {}", report.valid_total());
    for (wmax, col) in report.columns.iter().rev() {
        println!("  w_max = {wmax} ({} servers)", col.total());
        for (class, n) in &col.identified {
            println!("    {class:<28} {n}");
        }
        for (case, n) in &col.special {
            println!("    [special] {case:<18} {n}");
        }
        if col.unsure > 0 {
            println!("    [unsure]                     {}", col.unsure);
        }
    }
    println!("\nfamily shares of valid traces:");
    for family in ["BIC/CUBIC", "CTCP", "RENO", "RC-small", "HTCP"] {
        println!("    {family:<12} {:.2}%", report.family_percent(family));
    }
    println!(
        "\nground-truth accuracy over confident verdicts: {:.1}%",
        100.0 * report.ground_truth_accuracy()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `raw` as the flags of `command`, against its `COMMANDS` row.
    fn parse(command: &str, raw: &[&str]) -> Result<Args, String> {
        let Subcommand(.., table) = COMMANDS
            .iter()
            .find(|c| c.0 == command)
            .expect("a command from the table");
        let raw: Vec<String> = raw.iter().map(|s| (*s).to_owned()).collect();
        Args::parse(command, table, &raw)
    }

    fn args(command: &str, raw: &[&str]) -> Args {
        parse(command, raw).expect("parse")
    }

    /// Every row parses with its declared default and `caai help` names
    /// it with its placeholder and default; every flag `Args::parse`
    /// accepts has a row, so a flag of another command is refused.
    #[test]
    fn every_row_parses_with_its_default_and_is_in_help() {
        let help = help();
        let all: Vec<&str> = COMMANDS
            .iter()
            .flat_map(|c| c.3.iter().map(|f| f.0))
            .collect();
        for Subcommand(command, about, _, flags) in &COMMANDS {
            assert!(help.contains(&format!("    {command:<13} {about}\n")));
            for Flag(flag, arg, default, _, rule) in *flags {
                let mut raw = vec![format!("--{flag}")];
                if !arg.is_empty() {
                    raw.push(default.to_string());
                }
                // The flag it needs, and whatever that one needs.
                let mut rule = *rule;
                while let Needs(other) = rule {
                    let row = flags.iter().find(|f| f.0 == other).expect("a row");
                    raw.push(format!("--{other}"));
                    if !row.1.is_empty() {
                        raw.push("x".to_owned());
                    }
                    rule = row.4;
                }
                let raw: Vec<&str> = raw.iter().map(String::as_str).collect();
                let a = parse(command, &raw).unwrap_or_else(|e| panic!("{command} {raw:?}: {e}"));
                let want = if arg.is_empty() { "true" } else { default };
                assert_eq!(a.given[0], (*flag, want.to_owned()), "{command} --{flag}");
                let line = format!("      {:<23} ", format!("--{flag} {arg}").trim_end());
                assert!(help.contains(&line), "help lacks `{line}` under {command}");
                if !default.is_empty() {
                    assert!(help.contains(&format!("(default {default}")), "--{flag}");
                }
            }
            for flag in all.iter().filter(|f| !flags.iter().any(|row| row.0 == **f)) {
                let err = parse(command, &[&format!("--{flag}=1")]).err();
                assert_eq!(err, Some(format!("unknown flag --{flag} for {command}")));
            }
        }
    }

    /// A default must parse as the type the command reads it as.
    #[test]
    fn every_default_parses_as_its_command_reads_it() {
        let census = args("census", &[]);
        let config = engine_config(&census).expect("census defaults");
        assert_eq!(
            (config.workers, config.batch_size, config.checkpoint_every),
            (4, 16, 256)
        );
        assert!(config.shard.is_full() && config.seed == 1 && config.budget.deadline.is_none());
        assert_eq!(census.parsed::<u32>("servers"), Ok(1000));
        assert_eq!(census.count("max-sessions"), Ok(1024));
        assert_eq!(census.count("conditions"), Ok(6));
        for flag in [
            "connect-timeout-ms",
            "io-timeout-ms",
            "backoff-ms",
            "progress",
            "trace-sample",
        ] {
            assert!(census.parsed::<u64>(flag).is_ok(), "{flag}");
        }
        assert_eq!(census.parsed::<u32>("retries"), Ok(1));
        assert_eq!(census.parsed::<f64>("probe-rate"), Ok(0.0));
        assert_eq!(census.parsed::<f64>("net-rate"), Ok(0.0));
        let identify = args("identify", &[]);
        for flag in ["flow-timeout", "session-timeout"] {
            assert!(
                identify.parsed::<f64>(flag).is_ok_and(|t| t > 0.0),
                "{flag}"
            );
        }
        for flag in ["poll-ms", "progress", "trace-sample"] {
            assert!(identify.parsed::<u64>(flag).is_ok(), "{flag}");
        }
        assert_eq!(
            identify.secs("idle-timeout"),
            Ok(Some(Duration::from_secs(30)))
        );
        assert_eq!(identify.count("conditions"), Ok(6));
        for command in ["identify", "render-pcap"] {
            let a = args(command, &[]);
            assert!(a.path_config().is_ok() && a.parsed::<u64>("seed") == Ok(1));
        }
        assert_eq!(args("render-pcap", &[]).parsed::<u32>("short"), Ok(0));
        let train = args("train", &[]);
        assert_eq!(train.count("conditions"), Ok(10));
        assert_eq!(train.parsed::<String>("out").as_deref(), Ok("model.json"));
        let emulate = args("emulate", &[]);
        assert_eq!(emulate.count("count"), Ok(50));
        assert_eq!(emulate.secs("pace"), Ok(Some(Duration::ZERO)));
        assert_eq!(
            emulate.parsed::<String>("algos").as_deref(),
            Ok("RENO,CUBIC,HTCP")
        );
        let report = args("trace-report", &[]);
        assert_eq!(report.parsed::<usize>("top"), Ok(8));
        assert_eq!(report.optional::<f64>("min-gather-share"), Ok(None));
    }

    #[test]
    fn parses_key_value_pairs_in_both_forms() {
        let a = args("identify", &["--algo", "CUBIC", "--seed=42"]);
        assert_eq!(a.get("algo"), Some("CUBIC"));
        assert_eq!(a.parsed::<u64>("seed").unwrap(), 42);
    }

    #[test]
    fn later_flags_win() {
        let a = args("identify", &["--seed", "1", "--seed", "2"]);
        assert_eq!(a.parsed::<u64>("seed").unwrap(), 2);
    }

    #[test]
    fn missing_flags_fall_back_to_defaults() {
        let a = args("identify", &[]);
        assert_eq!(a.parsed::<u64>("seed").unwrap(), 1);
        assert!(a.algo().is_err());
    }

    #[test]
    fn algo_parsing_uses_the_registry_aliases() {
        let a = args("identify", &["--algo", "cubic"]);
        assert_eq!(a.algo().unwrap(), AlgorithmId::CubicV2);
        let a = args("identify", &["--algo", "westwood"]);
        assert_eq!(a.algo().unwrap(), AlgorithmId::WestwoodPlus);
    }

    #[test]
    fn dangling_flag_is_rejected() {
        assert!(parse("identify", &["--seed"]).is_err());
    }

    #[test]
    fn a_switch_takes_no_value() {
        let err = parse("census", &["--json=false"]).err();
        assert_eq!(err.as_deref(), Some("--json takes no value"));
        assert_eq!(args("census", &["--json"]).get("json"), Some("true"));
    }

    #[test]
    fn positional_arguments_are_rejected() {
        assert!(parse("render-pcap", &["oops"]).is_err());
    }

    #[test]
    fn expectations_parse_both_forms_and_reject_malformed_specs() {
        let a = args(
            "metrics-check",
            &[
                "--expect",
                "capture.truncations=0",
                "--expect-min",
                "capture.frames_decoded=1",
            ],
        );
        let exps = parse_expectations(&a).expect("well-formed");
        assert_eq!(exps.len(), 2);
        assert!(exps[0].flag == "expect" && exps[0].name == "capture.truncations");
        assert!(exps[1].flag == "expect-min" && exps[1].value == 1);

        assert!(parse_expectations(&args("metrics-check", &["--expect", "no-equals"])).is_err());
        assert!(
            parse_expectations(&args("metrics-check", &["--expect-min", "x=notanumber"])).is_err()
        );
    }

    #[test]
    fn histogram_expectations_parse_their_comparison_spellings() {
        let a = args(
            "metrics-check",
            &[
                "--expect-p99",
                "stream.tick_latency_us<=128",
                "--expect-count",
                "gather.rounds>=1",
            ],
        );
        let exps = parse_expectations(&a).expect("well-formed");
        assert_eq!(exps.len(), 2);
        assert!(exps[0].flag == "expect-p99" && exps[0].name == "stream.tick_latency_us");
        assert_eq!(exps[0].value, 128);
        assert!(exps[1].flag == "expect-count" && exps[1].name == "gather.rounds");
        assert_eq!(exps[1].value, 1);

        // The comparison spelling is part of the flag's contract: `=` or
        // the wrong direction is malformed, not silently reinterpreted.
        for (flag, spec) in [
            ("--expect-p99", "x=5"),
            ("--expect-p99", "x>=5"),
            ("--expect-count", "x<=5"),
            ("--expect-count", "x>=bad"),
        ] {
            assert!(parse_expectations(&args("metrics-check", &[flag, spec])).is_err());
        }
    }

    #[test]
    fn expectations_name_what_the_snapshot_fails() {
        let metrics = MetricsSubscriber::new();
        metrics.on_event(&Event::ProbeTimed(caai::obs::ProbeTimed {
            gather_us: 300,
            verdict_us: 100,
        }));
        let snapshot = metrics.snapshot();
        let failure = |flag: &str, spec: &str| {
            let exps = parse_expectations(&args("metrics-check", &[flag, spec])).expect("parse");
            exps[0].failure(&snapshot)
        };
        assert_eq!(failure("--expect", "census.records=0"), None);
        assert_eq!(
            failure("--expect", "census.records=2").as_deref(),
            Some("counter `census.records` is 0, expected 2")
        );
        assert_eq!(
            failure("--expect-min", "census.records=1").as_deref(),
            Some("counter `census.records` is 0, expected at least 1")
        );
        assert_eq!(failure("--expect-count", "census.probe_gather_us>=1"), None);
        assert_eq!(
            failure("--expect-count", "census.probe_gather_us>=2").as_deref(),
            Some("histogram `census.probe_gather_us` recorded 1 values, expected >= 2")
        );
        assert!(failure("--expect-p99", "census.probe_gather_us<=1")
            .is_some_and(|why| why.starts_with("histogram `census.probe_gather_us` p99 is ")));
        assert_eq!(
            failure("--expect-p99", "no.such<=1").as_deref(),
            Some("--expect-p99: no histogram named `no.such` in the final snapshot")
        );
    }

    #[test]
    fn the_census_progress_line_renders_the_metrics_counters() {
        use caai::obs::{CensusRecordObserved, CensusResumed, ProbeTimed, VerdictKind};
        let metrics = MetricsSubscriber::new();
        let hook = ProgressHook::new(&args("census", &[]), &metrics, 10).expect("no --metrics");
        metrics.on_event(&Event::CensusResumed(CensusResumed {
            records: 1,
            identified: 1,
            special: 0,
            unsure: 0,
            invalid: 0,
        }));
        for verdict in [
            VerdictKind::Invalid,
            VerdictKind::Unsure,
            VerdictKind::Identified,
        ] {
            metrics.on_event(&Event::CensusRecordObserved(CensusRecordObserved {
                verdict,
                wmax: None,
            }));
        }
        let snapshot = metrics.snapshot();
        let line = hook.census_line(&snapshot);
        assert!(
            line.starts_with("4/10 servers (3 probed, 1 resumed) | "),
            "{line}"
        );
        assert!(
            line.ends_with("| valid 75.0% | id 2 special 0 unsure 1 invalid 1"),
            "{line}"
        );
        assert_eq!(stage_line(&snapshot), None, "no probe was timed");
        metrics.on_event(&Event::ProbeTimed(ProbeTimed {
            gather_us: 300,
            verdict_us: 100,
        }));
        let stages = stage_line(&metrics.snapshot()).expect("one probe timed");
        assert!(stages.ends_with("| gather share 75.0%"), "{stages}");
    }

    #[test]
    fn loss_out_of_range_is_rejected() {
        let a = args("render-pcap", &["--loss", "1.5"]);
        assert!(a.path_config().is_err());
        let a = args("render-pcap", &["--loss", "0.02"]);
        assert!(a.path_config().is_ok());
    }

    #[test]
    fn a_flag_the_subcommand_does_not_take_is_an_error() {
        let err = |command, raw: &[&str]| parse(command, raw).err().expect("refused");
        // A typo no longer probes the default population in silence.
        assert_eq!(
            err("census", &["--sevrers", "10"]),
            "unknown flag --sevrers for census"
        );
        assert_eq!(
            err("census", &["--sevrers=10"]),
            "unknown flag --sevrers for census"
        );
        // Follow mode has no worker pool to size.
        assert_eq!(
            err(
                "identify",
                &["--pcap", "x.pcap", "--follow", "--workers", "4"]
            ),
            "unknown flag --workers for identify"
        );
        // Known flags still parse, repeated ones in order.
        let a = args(
            "render-pcap",
            &["--out", "c.pcap", "--algo", "RENO", "--algo", "CUBIC"],
        );
        assert_eq!(a.get_all("algo"), ["RENO", "CUBIC"]);
        assert!(parse("census", &["--servers", "10", "--workers", "4"]).is_ok());
    }
}
