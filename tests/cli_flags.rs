//! Integration: the `caai` command line as a user meets it — `caai help`
//! pinned byte for byte, and every flag that cannot act where it is
//! given refused with a usage error (exit 1), never ignored in silence
//! and never a panic (exit 101).
//!
//! `tests/golden/help.txt` is `caai help`'s stdout. A deliberate change
//! to a command, flag or help line rewrites it:
//! `cargo run --release --bin caai -- help > tests/golden/help.txt`.

use std::path::PathBuf;
use std::process::{Command, Output};

fn caai(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_caai"))
        .args(args)
        .output()
        .expect("spawn caai")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("caai-cli-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(name)
}

/// Runs `caai args`, which must end in a usage error; returns its one
/// stderr line without the `error: ` prefix.
fn refused(args: &[&str]) -> String {
    let out = caai(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    let line = stderr
        .strip_prefix("error: ")
        .and_then(|rest| rest.strip_suffix('\n'))
        .unwrap_or_else(|| panic!("{args:?}: not one error line: {stderr}"));
    line.to_owned()
}

#[test]
fn help_prints_the_golden_text() {
    let out = caai(&["help"]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        include_str!("golden/help.txt"),
        "`caai help` changed; rewrite tests/golden/help.txt if that was meant"
    );
}

#[test]
fn a_simulated_identify_refuses_the_capture_flags_and_writes_nothing() {
    let out = tmp("simulated.jsonl");
    let out = out.to_str().expect("utf-8 path");
    assert_eq!(
        refused(&[
            "identify",
            "--algo",
            "RENO",
            "--out",
            out,
            "--follow",
            "--poll-ms",
            "5"
        ]),
        "--follow applies only with --pcap"
    );
    assert_eq!(
        refused(&["identify", "--algo", "RENO", "--out", out]),
        "--out applies only with --pcap"
    );
    assert!(!std::path::Path::new(out).exists(), "{out} was written");
    for flag in ["--json", "--metrics=m.jsonl", "--trace=t.json"] {
        let name = flag.split('=').next().expect("a name");
        assert_eq!(
            refused(&["identify", "--algo", "RENO", flag]),
            format!("{name} applies only with --pcap")
        );
    }
}

#[test]
fn an_offline_identify_refuses_the_follow_and_simulation_flags() {
    let pcap = tmp("never-read.pcap");
    let pcap = pcap.to_str().expect("utf-8 path");
    for (flag, value) in [
        ("--flow-timeout", "5"),
        ("--session-timeout", "5"),
        ("--poll-ms", "5"),
        ("--idle-timeout", "5"),
        ("--progress", "3"),
    ] {
        assert_eq!(
            refused(&["identify", "--pcap", pcap, flag, value]),
            format!("{flag} applies only with --follow")
        );
    }
    for (flag, value) in [("--algo", "CUBIC"), ("--loss", "0.1")] {
        assert_eq!(
            refused(&["identify", "--pcap", pcap, flag, value]),
            format!("{flag} does not apply with --pcap")
        );
    }
    assert_eq!(
        refused(&["identify", "--pcap", pcap, "--trace-sample", "5"]),
        "--trace-sample applies only with --trace"
    );
}

#[test]
fn a_flag_is_refused_without_its_partner_or_beside_its_rival() {
    assert_eq!(
        refused(&["census", "--servers", "20", "--trace-sample", "5"]),
        "--trace-sample applies only with --trace"
    );
    assert_eq!(
        refused(&["census", "--servers", "20", "--checkpoint-every", "5"]),
        "--checkpoint-every applies only with --checkpoint"
    );
    for command in ["census", "identify"] {
        assert_eq!(
            refused(&[command, "--model", "m.json", "--conditions", "2"]),
            "--conditions does not apply with --model"
        );
    }
    assert_eq!(
        refused(&["census", "--targets", "t.txt", "--servers", "20"]),
        "--targets and --servers are mutually exclusive: a census probes either a live \
         target list or a synthetic population"
    );
}

#[test]
fn out_of_range_values_are_usage_errors_not_panics() {
    for (value, why) in [
        ("-1", "value is negative"),
        ("NaN", "value is either too big or NaN"),
        ("inf", "value is either too big or NaN"),
    ] {
        assert_eq!(
            refused(&["census", "--servers", "10", "--deadline", value]),
            format!("--deadline {value}: cannot convert float seconds to Duration: {why}")
        );
    }
    let pcap = tmp("never-opened.pcap");
    let pcap = pcap.to_str().expect("utf-8 path");
    for (value, why) in [
        ("1e300", "value is either too big or NaN"),
        ("NaN", "value is either too big or NaN"),
        ("-1", "value is negative"),
    ] {
        assert_eq!(
            refused(&[
                "identify",
                "--pcap",
                pcap,
                "--follow",
                "--idle-timeout",
                value
            ]),
            format!("--idle-timeout {value}: cannot convert float seconds to Duration: {why}")
        );
    }
    for args in [
        &["train", "--conditions", "0"][..],
        &["identify", "--algo", "RENO", "--conditions", "0"],
        &["census", "--servers", "10", "--conditions", "0"],
    ] {
        assert_eq!(refused(args), "--conditions must be at least 1");
    }
    assert_eq!(
        refused(&["census", "--servers", "10", "--workers", "0"]),
        "--workers must be at least 1"
    );
    assert_eq!(
        refused(&["census", "--servers", "10", "--batch", "0"]),
        "--batch must be at least 1"
    );
    // Refused before a file is read: the trace need not exist.
    for value in ["NaN", "-1", "1.5"] {
        assert_eq!(
            refused(&[
                "trace-report",
                "--in",
                "never-read.json",
                "--min-gather-share",
                value
            ]),
            format!("--min-gather-share {value} out of [0, 1]")
        );
    }
    // Refused before the target list is read or a model is trained.
    for flag in ["--probe-rate", "--net-rate"] {
        for value in ["NaN", "-1", "inf"] {
            assert_eq!(
                refused(&["census", "--targets", "never-read.txt", flag, value]),
                format!("{flag} {value} out of [0, inf)")
            );
        }
    }
}

#[test]
fn the_folded_commands_are_unknown() {
    for command in ["trace", "fingerprint"] {
        let out = caai(&[command, "--algo", "RENO"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: unknown command `{command}`\n")),
            "{command}: {stderr}"
        );
    }
}
