//! `caai-fuzz` — the fuzzing campaign driver.
//!
//! ```text
//! caai-fuzz run [--iters N] [--seed S] [--pipeline-every N] [--crashes DIR]
//! caai-fuzz replay --corpus DIR
//! caai-fuzz emit-fixtures --out DIR
//! ```
//!
//! `run` executes a campaign and exits nonzero if any input panicked a
//! parser, writing each crashing input to `--crashes` (default
//! `fuzz-crashes/`) so it can be committed to `tests/corpus/` as a
//! regression fixture. `replay` runs every file in a directory through
//! every target once — the manual version of the corpus regression
//! test. `emit-fixtures` writes the pinned pcapng diagnostic fixtures
//! and the flow-lookup collision capture (used to [re]generate
//! `tests/corpus/`).

use caai_fuzz::seeds::{diagnostic_fixtures, flow_slot_collisions};
use caai_fuzz::targets::{Target, Targets};
use caai_fuzz::{fuzz, FuzzConfig};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str);
    match mode {
        Some("run") => cmd_run(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("emit-fixtures") => cmd_emit_fixtures(&args[1..]),
        _ => {
            eprintln!(
                "usage: caai-fuzz run [--iters N] [--seed S] [--pipeline-every N] [--crashes DIR]\n\
                 \x20      caai-fuzz replay --corpus DIR\n\
                 \x20      caai-fuzz emit-fixtures --out DIR"
            );
            ExitCode::from(2)
        }
    }
}

/// `--flag value` parsing; every flag takes exactly one value.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_u64(args: &[String], name: &str, default: u64) -> u64 {
    match flag(args, name) {
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("caai-fuzz: {name} wants an integer, got {v:?}");
            std::process::exit(2);
        }),
        None => default,
    }
}

fn cmd_run(args: &[String]) -> ExitCode {
    let config = FuzzConfig {
        iters: parse_u64(args, "--iters", 10_000),
        seed: parse_u64(args, "--seed", 1),
        pipeline_every: parse_u64(args, "--pipeline-every", 97),
        ..FuzzConfig::default()
    };
    let crash_dir = flag(args, "--crashes").unwrap_or("fuzz-crashes");
    println!(
        "fuzzing: {} iterations, seed {}, pipeline every {}",
        config.iters, config.seed, config.pipeline_every
    );
    let outcome = fuzz(&config, |done, execs, crashes| {
        println!("  {done} iterations, {execs} executions, {crashes} crashes");
    });
    if outcome.crashes.is_empty() {
        println!(
            "done: {} iterations, {} executions, zero crashes",
            outcome.iters, outcome.executions
        );
        return ExitCode::SUCCESS;
    }
    std::fs::create_dir_all(crash_dir).ok();
    for crash in &outcome.crashes {
        let file = format!(
            "{crash_dir}/crash-{}-seed{}-iter{}.bin",
            crash.target.name(),
            config.seed,
            crash.iter
        );
        match std::fs::write(&file, &crash.input) {
            Ok(()) => eprintln!(
                "CRASH {} at iteration {}: {}\n  input saved to {file}",
                crash.target.name(),
                crash.iter,
                crash.message
            ),
            Err(e) => eprintln!(
                "CRASH {} at iteration {}: {} (could not save input: {e})",
                crash.target.name(),
                crash.iter,
                crash.message
            ),
        }
    }
    eprintln!(
        "done: {} iterations, {} crashes — commit the inputs under tests/corpus/",
        outcome.iters,
        outcome.crashes.len()
    );
    ExitCode::FAILURE
}

fn cmd_replay(args: &[String]) -> ExitCode {
    let Some(dir) = flag(args, "--corpus") else {
        eprintln!("caai-fuzz replay: --corpus DIR is required");
        return ExitCode::from(2);
    };
    let mut entries: Vec<_> = match std::fs::read_dir(dir) {
        Ok(rd) => rd.filter_map(Result::ok).map(|e| e.path()).collect(),
        Err(e) => {
            eprintln!("caai-fuzz replay: cannot read {dir}: {e}");
            return ExitCode::from(2);
        }
    };
    entries.sort();
    entries.retain(|p| p.is_file());
    let targets = Targets::new();
    let mut failed = 0usize;
    for path in &entries {
        match replay_one(&targets, path) {
            Ok(()) => println!("ok   {}", path.display()),
            Err(msg) => {
                eprintln!("FAIL {}: {msg}", path.display());
                failed += 1;
            }
        }
    }
    println!("{} inputs replayed, {failed} failures", entries.len());
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn replay_one(targets: &Targets, path: &Path) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
    for target in [
        Target::Offline,
        Target::Stream,
        Target::Pipeline,
        Target::NetTargets,
        Target::NetFrames,
        Target::Ladder,
        Target::TraceReport,
    ] {
        targets
            .run(target, &bytes)
            .map_err(|m| format!("panicked {}: {m}", target.name()))?;
    }
    Ok(())
}

fn cmd_emit_fixtures(args: &[String]) -> ExitCode {
    let out = flag(args, "--out").unwrap_or("tests/corpus");
    if let Err(e) = std::fs::create_dir_all(out) {
        eprintln!("caai-fuzz emit-fixtures: cannot create {out}: {e}");
        return ExitCode::from(2);
    }
    for fx in diagnostic_fixtures() {
        let file = format!("{out}/diag-{}.pcapng", fx.name);
        if let Err(e) = std::fs::write(&file, &fx.bytes) {
            eprintln!("caai-fuzz emit-fixtures: cannot write {file}: {e}");
            return ExitCode::from(2);
        }
        println!(
            "wrote {file} ({} bytes): {}",
            fx.bytes.len(),
            fx.expected_reason
        );
    }
    let file = format!("{out}/flow-slot-collisions.pcap");
    let bytes = flow_slot_collisions();
    if let Err(e) = std::fs::write(&file, &bytes) {
        eprintln!("caai-fuzz emit-fixtures: cannot write {file}: {e}");
        return ExitCode::from(2);
    }
    println!("wrote {file} ({} bytes)", bytes.len());
    ExitCode::SUCCESS
}
