//! Offline identification (`identify_bytes`, the streaming pipeline run
//! to EOF under the whole-capture rule) against the whole-capture
//! reference (`reassemble` + `identify_reassembly`): the same sessions,
//! packets, skips and truncation on every capture the project pins —
//! the committed fixtures, the clean, lossy and 302-flow renders, a cut
//! and a torn copy, and a pcapng re-framing.

use caai::capture::{
    identify_reassembly, reassemble, reassemble_source, CaptureError, SessionReport, DEFAULT_LADDER,
};
use caai::core::classify::CaaiClassifier;
use caai::core::training::{build_training_set, TrainingConfig};
use caai::netem::rng::seeded;
use caai::netem::ConditionDb;
use caai::stream::pcapng::SHB_MAGIC;
use caai::stream::{classic_to_pcapng, identify_bytes, PcapStream, StallPolicy};
use std::path::Path;
use std::process::Command;
use std::sync::OnceLock;

fn classifier() -> &'static CaaiClassifier {
    static MODEL: OnceLock<CaaiClassifier> = OnceLock::new();
    MODEL.get_or_init(|| {
        let mut rng = seeded(4);
        let data = build_training_set(
            &TrainingConfig::quick(1),
            &ConditionDb::paper_2011(),
            &mut rng,
        );
        CaaiClassifier::train(&data, &mut rng)
    })
}

/// Everything one identification of a capture amounts to.
type Identified = (
    Vec<SessionReport>,
    usize,
    Vec<(usize, String)>,
    Option<CaptureError>,
);

fn offline(bytes: &[u8]) -> Result<Identified, CaptureError> {
    identify_bytes(bytes, classifier(), None)
        .map(|v| (v.sessions, v.packets, v.skipped, v.truncated))
}

/// The whole-capture fold: the zero-copy reader for classic bytes, the
/// incremental source for pcapng.
fn reference(bytes: &[u8]) -> Result<Identified, CaptureError> {
    let reassembly = if bytes.starts_with(&SHB_MAGIC) {
        let mut source = PcapStream::new(std::io::Cursor::new(bytes), StallPolicy::Eof);
        reassemble_source(&mut source)
    } else {
        reassemble(bytes)
    }?;
    let sessions = identify_reassembly(&reassembly, classifier(), &DEFAULT_LADDER);
    Ok((
        sessions,
        reassembly.packets,
        reassembly.skipped,
        reassembly.truncated,
    ))
}

/// Asserts offline identification equals the reference on `bytes`, and
/// returns what both read.
fn pinned(name: &str, bytes: &[u8]) -> Result<Identified, CaptureError> {
    let got = offline(bytes);
    assert_eq!(
        got,
        reference(bytes),
        "{name}: offline vs whole-capture reference"
    );
    got
}

/// `caai render-pcap ARGS` into a temporary file, returned as bytes.
fn render(name: &str, args: &[&str]) -> Vec<u8> {
    let path = std::env::temp_dir().join(format!(
        "caai-offline-reference-{}-{name}.pcap",
        std::process::id()
    ));
    let path = path.to_str().expect("utf-8 temp path");
    let out = Command::new(env!("CARGO_BIN_EXE_caai"))
        .args(["render-pcap", "--out", path])
        .args(args)
        .output()
        .expect("spawn caai");
    assert!(out.status.success(), "{out:?}");
    let bytes = std::fs::read(path).expect("rendered capture");
    std::fs::remove_file(path).expect("remove rendered capture");
    bytes
}

#[test]
fn offline_identification_equals_the_whole_capture_reference_on_the_renders() {
    let clean = render("clean", &["--algo", "CUBIC", "--algo", "RENO"]);
    let (sessions, ..) = pinned("clean", &clean).expect("clean parses");
    assert_eq!(sessions.len(), 2);

    let lossy = render(
        "lossy",
        &[
            "--algo", "CUBIC", "--algo", "RENO", "--algo", "HTCP", "--short", "2", "--loss",
            "0.02", "--seed", "3",
        ],
    );
    let (lossy_sessions, _, skipped, truncated) = pinned("lossy", &lossy).expect("lossy parses");
    assert_eq!(lossy_sessions.len(), 5);
    assert!(skipped.is_empty() && truncated.is_none());

    let many = render(
        "many",
        &["--algo", "CUBIC", "--algo", "RENO", "--short", "300"],
    );
    let (sessions, ..) = pinned("302 flows", &many).expect("302-flow capture parses");
    assert_eq!(sessions.len(), 302);

    assert!(clean.len() > 2_000_000, "the cut falls inside the capture");
    let (_, packets, _, truncated) = pinned("cut", &clean[..2_000_000]).expect("cut parses");
    assert!(packets > 0 && truncated.is_some());
    let (_, packets, _, truncated) = pinned("torn", &clean[..60]).expect("torn parses");
    assert!(packets == 0 && truncated.is_some());

    // pcapng re-framings: the reference reads them through the
    // incremental source, and their verdicts are the classic bytes'.
    for (name, classic, sessions) in [("clean", &clean, 2), ("lossy", &lossy, 5)] {
        let classic_sessions = reference(classic).expect("classic parses").0;
        for (big, resol) in [(false, 6), (true, 9)] {
            let ng = classic_to_pcapng(classic, big, resol);
            let name = format!("{name} pcapng (big={big}, resol={resol})");
            let (ng_sessions, ..) = pinned(&name, &ng).expect("pcapng parses");
            assert_eq!(ng_sessions.len(), sessions, "{name}");
            assert_eq!(ng_sessions, classic_sessions, "{name}");
        }
    }
}

#[test]
fn offline_identification_equals_the_whole_capture_reference_on_the_committed_fixtures() {
    let corpus = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/fuzz/tests/corpus");
    let mut captures = 0;
    for entry in std::fs::read_dir(&corpus).expect("corpus directory") {
        let path = entry.expect("corpus entry").path();
        let name = path.file_name().expect("file name").to_string_lossy();
        if !(name.ends_with(".pcap") || name.ends_with(".pcapng")) {
            continue;
        }
        let _ = pinned(&name, &std::fs::read(&path).expect("fixture readable"));
        captures += 1;
    }
    assert!(captures >= 8, "only {captures} committed capture fixtures");
}
