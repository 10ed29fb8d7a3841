//! `caai-benchmark` — the whole-system benchmark.
//!
//! ```text
//! caai-benchmark [--seed N] [--seconds S] [--smoke] [--out FILE]
//!     every workload end to end (each in a child process of its own,
//!     so allocator state and VmHWM never leak between workloads), then
//!     the traced pass; prints every metric by name and, with --out,
//!     writes the result file `compare` reads
//! caai-benchmark --workload NAME [--trace 0|1] [--seed N] [--seconds S] [--smoke]
//!     one run: the named workload end to end (--trace 0, the default)
//!     or the traced pass (--trace 1; the same whatever NAME is); the
//!     last line of standard output is the result object
//!     BENCHMARK.json's driver reads, the line before it the same run
//!     with sample counts and quartiles
//! caai-benchmark compare FIRST.json SECOND.json
//!     two result files of one seed; per workload and end-to-end metric:
//!     how much worse SECOND's median is than FIRST's, against the
//!     metric's bound (none at all for identified_accuracy and
//!     failed_share, which repeat exactly for a seed); exit code 1 if
//!     any is worse by more than its bound
//! ```

use caai_benchmark::inputs::Scale;
use caai_benchmark::report::{self, END_TO_END, PER_LAYER, RUN_SECONDS};
use caai_benchmark::stats::Host;
use caai_benchmark::workloads::{self, NAMES};
use caai_benchmark::{layers, scratch::Scratch};
use serde::Value;
use std::process::{Command, ExitCode, Stdio};

struct Options {
    workload: Option<String>,
    trace: bool,
    seed: u64,
    seconds: f64,
    smoke: bool,
    out: Option<String>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut options = Options {
            workload: None,
            trace: false,
            seed: 1,
            seconds: RUN_SECONDS,
            smoke: false,
            out: None,
        };
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            if flag == "--smoke" {
                options.smoke = true;
                continue;
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" if NAMES.contains(&value.as_str()) => {
                    options.workload = Some(value.clone());
                }
                "--workload" => return Err(bad(&format!("not one of {NAMES:?}"))),
                "--trace" => match value.as_str() {
                    "0" => options.trace = false,
                    "1" => options.trace = true,
                    _ => return Err(bad(&"expected 0 or 1")),
                },
                "--seed" => options.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => {
                    options.seconds = value.parse().map_err(|e| bad(&e))?;
                    if !(options.seconds.is_finite() && options.seconds > 0.0) {
                        return Err(bad(&"must be positive"));
                    }
                }
                "--out" => options.out = Some(value.clone()),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(options)
    }

    fn scale(&self) -> (&'static str, Scale) {
        if self.smoke {
            ("smoke", Scale::SMOKE)
        } else {
            ("full", Scale::FULL)
        }
    }
}

/// One run of one workload; prints the table, the detailed record and
/// the driver's result line.
fn run_one(options: &Options, workload: &str) -> Result<(), String> {
    let (_, scale) = options.scale();
    let scratch = Scratch::create(workload).map_err(|e| format!("scratch directory: {e}"))?;
    let fail = |e: std::io::Error| format!("{workload}: {e}");
    if options.trace {
        let profile = layers::profile(options.seed, &scale, scratch.path()).map_err(fail)?;
        let detail = report::per_layer_detail(&profile);
        let rows = report::field(&detail, "per_layer").expect("just built");
        print!(
            "{}",
            report::render_metrics("per-layer (traced pass)", rows)
        );
        println!(
            "congestion.ack_ns_max is {}; gather + verdict differ from the probe time by {:+.2} % \
             (tolerance {:.0} %)",
            profile.slowest_ack.name(),
            profile.core_sum_gap * 100.0,
            layers::CORE_SUM_TOLERANCE * 100.0,
        );
        println!("{}", serde_json::to_string(&detail).expect("serializes"));
        let values = report::per_layer_values(&profile);
        println!(
            "{}",
            report::contract_line(
                profile.score.failed == 0,
                profile.score.attempted,
                profile.score.failed,
                PER_LAYER.into_iter().zip(values),
            )
        );
        return Ok(());
    }

    let run = workloads::measure_named(
        workload,
        options.seed,
        &scale,
        options.seconds,
        scratch.path(),
    )
    .map_err(fail)?;
    let detail = report::end_to_end_detail(&run);
    let shape = report::field(&detail, "shape").expect("just built");
    println!(
        "{workload}: seed {}, input {}",
        options.seed,
        serde_json::to_string(shape).expect("serializes")
    );
    print!(
        "{}",
        report::render_metrics(
            &format!("{workload} end to end"),
            report::field(&detail, "end_to_end").expect("just built"),
        )
    );
    println!(
        "{workload}: {} of {} operations failed; peak resident set {:.1} MB",
        run.score.failed, run.score.attempted, run.peak_rss_mb
    );
    println!("{}", serde_json::to_string(&detail).expect("serializes"));
    let medians = report::end_to_end_values(&run).map(|summary| summary.median);
    println!(
        "{}",
        report::contract_line(
            run.correct(),
            run.score.attempted,
            run.score.failed,
            END_TO_END.into_iter().zip(medians),
        )
    );
    Ok(())
}

/// Runs `--workload name --trace t` in a child process; forwards its
/// table and returns its detailed record.
fn run_child(options: &Options, workload: &str, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if options.smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let _contract = lines.pop();
    let detail = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    if !output.status.success() {
        return Err(format!("{workload} ended with {}", output.status));
    }
    serde_json::from_str(detail).map_err(|e| format!("{workload}: unreadable record: {e}"))
}

fn run_all(options: &Options) -> Result<bool, String> {
    let host = Host::read();
    let (scale_name, _) = options.scale();
    println!(
        "caai-benchmark: {} CPUs ({}), {}{}, {}, {} build, seed {}, {} s per workload, {} scale",
        host.nproc,
        host.cpu_model,
        host.git_rev,
        if host.git_dirty { " (dirty)" } else { "" },
        host.rustc,
        host.profile,
        options.seed,
        options.seconds,
        scale_name,
    );
    let mut all_correct = true;
    let mut records = Vec::new();
    for workload in NAMES {
        let record = run_child(options, workload, false)?;
        records.push(record);
        println!();
    }
    // The traced pass takes every per-layer row whatever the workload.
    let traced = run_child(options, NAMES[0], true)?;
    for record in records.iter().chain([&traced]) {
        all_correct &= report::field(record, "correct") == Some(&Value::Bool(true));
    }
    let file = report::result_file(
        &host,
        options.seed,
        options.seconds,
        scale_name,
        records,
        traced,
    );
    if let Some(path) = &options.out {
        let json = serde_json::to_string_pretty(&file).expect("serializes");
        std::fs::write(path, json + "\n").map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(all_correct)
}

fn compare(first: &str, second: &str) -> Result<bool, String> {
    let read = |path: &str| -> Result<Value, String> {
        let json = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        serde_json::from_str(&json).map_err(|e| format!("parse {path}: {e}"))
    };
    let rows = report::compare(&read(first)?, &read(second)?)?;
    print!("{}", report::render_comparison(&rows));
    Ok(!rows.iter().any(report::Comparison::regressed))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.as_slice() {
        [command, first, second] if command == "compare" => compare(first, second),
        [command, ..] if command == "compare" => {
            Err("usage: caai-benchmark compare FIRST.json SECOND.json".to_owned())
        }
        _ => Options::parse(&args).and_then(|options| match options.workload.clone() {
            // A run that printed its result line succeeded as a run,
            // whatever the line says about the program.
            Some(workload) => run_one(&options, &workload).map(|()| true),
            None => run_all(&options),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("caai-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
