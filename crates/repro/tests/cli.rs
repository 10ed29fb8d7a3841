//! The `repro` command line: usage errors exit 2 and name the valid
//! choices, and a reader that closes stdout early ends the run cleanly.

use std::process::{Command, Stdio};

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
}

#[test]
fn a_bad_scale_is_a_usage_error() {
    let out = repro(&["table02_mss", "--scale", "papr"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "a usage error prints no numbers");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("valid scales: quick, paper"), "{err}");
    assert_eq!(repro(&["table02_mss", "--scale"]).status.code(), Some(2));
}

#[test]
fn an_unknown_experiment_or_flag_is_a_usage_error() {
    let out = repro(&["table02"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("table02_mss") && err.contains("fig13_18_special_traces"),
        "{err}"
    );
    for args in [
        &[][..],
        &["table02_mss", "--scale=paper"],
        &["check", "--scale", "quick"],
    ] {
        assert_eq!(repro(args).status.code(), Some(2), "{args:?}");
    }
}

#[test]
fn list_names_every_experiment_once() {
    let out = repro(&["list"]);
    assert!(out.status.success());
    let names = String::from_utf8(out.stdout).expect("utf-8");
    assert_eq!(names.lines().count(), 21);
    assert!(names.lines().any(|n| n == "table04_census"));
}

#[test]
fn a_closed_stdout_ends_the_run_as_done() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("fig03_traces")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn repro");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for repro");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        out.stderr.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
