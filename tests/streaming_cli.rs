//! CLI-level coverage of the streaming ingestion surface: `--pcap -`
//! (stdin), and `--follow` over a capture file that is still being
//! written while `caai` reads it.

use std::io::Write;
use std::process::{Command, Stdio};

fn caai(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_caai"))
        .args(args)
        .output()
        .expect("spawn caai")
}

fn tmp(name: &str) -> String {
    std::env::temp_dir()
        .join(format!("caai-stream-cli-{}-{name}", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

/// One rendered single-server capture shared by both tests (rendered
/// once; tests run on parallel threads of one process).
fn fixture_path() -> String {
    static PATH: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    PATH.get_or_init(|| {
        let path = tmp("fixture.pcap");
        let render = caai(&[
            "render-pcap",
            "--out",
            &path,
            "--algo",
            "RENO",
            "--seed",
            "5",
        ]);
        assert!(render.status.success(), "{render:?}");
        path
    })
    .clone()
}

/// Just the deterministic per-flow verdict lines of an identify run.
fn verdict_lines(stdout: &[u8]) -> Vec<String> {
    String::from_utf8_lossy(stdout)
        .lines()
        .filter(|l| l.starts_with("flow ") || l.starts_with("verdicts:"))
        .map(str::to_owned)
        .collect()
}

#[test]
fn identify_pcap_dash_reads_the_capture_from_stdin() {
    let path = fixture_path();
    let from_file = caai(&["identify", "--pcap", &path, "--conditions", "1"]);
    assert!(from_file.status.success(), "{from_file:?}");

    let mut child = Command::new(env!("CARGO_BIN_EXE_caai"))
        .args(["identify", "--pcap", "-", "--conditions", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn caai");
    let bytes = std::fs::read(&path).expect("fixture exists");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(&bytes)
        .expect("write capture to stdin");
    let from_stdin = child.wait_with_output().expect("caai exits");
    assert!(from_stdin.status.success(), "{from_stdin:?}");

    assert_eq!(
        String::from_utf8_lossy(&from_stdin.stdout),
        String::from_utf8_lossy(&from_file.stdout),
        "stdin ingestion must match file ingestion byte-for-byte"
    );
}

#[test]
fn follow_mode_identifies_a_capture_that_grows_under_it() {
    let fixture = fixture_path();
    let offline = caai(&["identify", "--pcap", &fixture, "--conditions", "1"]);
    assert!(offline.status.success(), "{offline:?}");

    // Start the reader on a file holding only the first half of the
    // capture; append the rest while it follows.
    let bytes = std::fs::read(&fixture).expect("fixture exists");
    let growing = tmp("growing.pcap");
    let split = bytes.len() / 2;
    std::fs::write(&growing, &bytes[..split]).expect("write head");

    let child = Command::new(env!("CARGO_BIN_EXE_caai"))
        .args([
            "identify",
            "--pcap",
            &growing,
            "--follow",
            "--conditions",
            "1",
            "--idle-timeout",
            "3",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn caai");

    // Let the reader hit the half-capture EOF and start polling, then
    // grow the file under it.
    std::thread::sleep(std::time::Duration::from_millis(700));
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&growing)
        .expect("reopen growing capture");
    file.write_all(&bytes[split..]).expect("append tail");
    file.flush().expect("flush tail");
    drop(file);

    let out = child
        .wait_with_output()
        .expect("caai exits via idle timeout");
    assert!(out.status.success(), "{out:?}");
    assert_eq!(
        verdict_lines(&out.stdout),
        verdict_lines(&offline.stdout),
        "follow-mode verdicts must match the offline run\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_file(&growing).ok();
}

/// An input that is not a capture ends the run at its header, in either
/// mode, before `--out` is created: an existing report keeps its bytes.
#[test]
fn an_input_that_is_not_a_capture_leaves_out_untouched() {
    let bogus = tmp("not-a-capture.txt");
    std::fs::write(
        &bogus,
        "this is text, not a capture, and longer than a header\n",
    )
    .expect("write bogus input");
    for mode in [&[][..], &["--follow", "--idle-timeout", "1"]] {
        let report = tmp("kept.jsonl");
        std::fs::write(&report, "{\"keep\":1}\n").expect("write report");
        let args = [
            &[
                "identify",
                "--pcap",
                &bogus,
                "--conditions",
                "1",
                "--out",
                &report,
            ][..],
            mode,
        ]
        .concat();
        let out = caai(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("error: {bogus}: pcap framing error at byte 0")),
            "{args:?}: {stderr}"
        );
        assert_eq!(
            std::fs::read_to_string(&report).expect("report still there"),
            "{\"keep\":1}\n",
            "{args:?} touched --out"
        );
        std::fs::remove_file(&report).ok();
    }
    std::fs::remove_file(&bogus).ok();
}

/// `caai identify --pcap path` in both modes: exit 1, and stderr ending
/// in `want`.
fn refused_in_either_mode(path: &str, want: &str) {
    for mode in [&[][..], &["--follow"]] {
        let args = [&["identify", "--pcap", path, "--conditions", "1"][..], mode].concat();
        let out = caai(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.ends_with(want), "{args:?}: {stderr}");
    }
}

/// A capture that cannot be opened is reported as a failed read, offline
/// and in follow mode alike.
#[test]
fn a_missing_capture_is_a_failed_read_in_either_mode() {
    let missing = tmp("missing.pcap");
    let want = format!("error: read {missing}: No such file or directory (os error 2)\n");
    refused_in_either_mode(&missing, &want);
}

/// A directory is a path that names no capture: refused at open, in the
/// words of a failed read, not as damage found in its first bytes.
#[test]
fn a_directory_is_a_failed_read_in_either_mode() {
    let dir = tmp("dir");
    std::fs::create_dir_all(&dir).expect("a scratch directory");
    refused_in_either_mode(&dir, &format!("error: read {dir}: Is a directory\n"));
    std::fs::remove_dir(&dir).ok();
}
