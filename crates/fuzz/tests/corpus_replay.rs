//! Regression corpus replay.
//!
//! Every file under `tests/corpus/` is an input that once mattered —
//! a pinned diagnostic fixture or a crash the fuzzer found. This test
//! replays all of them through every target on every `cargo test`, and
//! additionally pins the pcapng skip diagnostics character-for-
//! character: each must name its enclosing block type, so a diagnostic
//! alone identifies the block walker that produced it.

use caai_core::frame::{ClientFrame, ServerFrame};
use caai_fuzz::seeds::{diagnostic_fixtures, flow_slot_collisions};
use caai_fuzz::targets::{Target, Targets};
use caai_net::frame::{FrameDecoder, Wire};
use caai_stream::{CaptureSource, PcapStream, SourceItem, StallPolicy};
use std::io::Cursor;
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

#[test]
fn every_corpus_input_replays_without_panicking() {
    let dir = corpus_dir();
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("corpus directory {} missing: {e}", dir.display()))
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_file())
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 6,
        "corpus at {} holds only {} files; the diagnostic fixtures alone are six",
        dir.display(),
        paths.len()
    );
    let targets = Targets::new();
    for path in &paths {
        let bytes = std::fs::read(path).expect("corpus file readable");
        for target in [
            Target::Offline,
            Target::Stream,
            Target::Pipeline,
            Target::NetFrames,
            Target::Ladder,
            Target::TraceReport,
        ] {
            targets
                .run(target, &bytes)
                .unwrap_or_else(|m| panic!("{} panicked {}: {m}", path.display(), target.name()));
        }
    }
}

#[test]
fn net_frame_fixtures_stop_where_they_were_built_to() {
    // Each holds one good frame, then one hostile one; the decoder of
    // the side that would receive them must take the first and name the
    // cap (or wait for bytes that never come) at the second.
    fn verdict<F: Wire>(file: &str) -> Result<Option<F>, String> {
        let bytes = std::fs::read(corpus_dir().join(file)).expect("fixture committed");
        let mut decoder = FrameDecoder::new();
        decoder.push(&bytes);
        assert!(
            matches!(decoder.next::<F>(), Ok(Some(_))),
            "{file}: frame 1"
        );
        decoder.next::<F>().map_err(|e| e.reason)
    }
    assert_eq!(
        verdict::<ClientFrame>("net-frame-acks-past-cap.bin"),
        Err("acks of 65537 sequences at run 1 exceeds the cap of 65536".to_owned())
    );
    assert_eq!(
        verdict::<ServerFrame>("net-frame-burst-run-past-cap.bin"),
        Err("burst of 65537 sequences at run 1 exceeds the cap of 65536".to_owned())
    );
    assert_eq!(
        verdict::<ServerFrame>("net-frame-burst-overflow.bin"),
        Err("burst run count 2147483648 exceeds the cap of 65536".to_owned())
    );
    assert_eq!(
        verdict::<ServerFrame>("net-frame-truncated.bin"),
        Ok(None),
        "a frame cut short by the stream is waited for, not refused"
    );
}

#[test]
fn trace_fixtures_salvage_as_their_shapes_demand() {
    // The clean fixture is a finished `--trace` file: everything parses,
    // nothing dangles. Its truncated twin was cut mid-line (the SIGKILL
    // shape): the reader must salvage every whole line, skip at most the
    // torn one, and still never fail hard.
    let clean = std::fs::read_to_string(corpus_dir().join("trace-roundtrip.trace.json"))
        .expect("clean trace fixture committed");
    let read = caai_obs::report::read_str(&clean);
    assert!(read.spans.len() > 10, "clean fixture holds a real census");
    assert_eq!(read.skipped, 0);
    assert_eq!(read.unmatched_begins, 0);

    let cut = std::fs::read_to_string(corpus_dir().join("trace-sigkill-cut.trace.json"))
        .expect("truncated trace fixture committed");
    let read = caai_obs::report::read_str(&cut);
    assert!(!read.spans.is_empty(), "whole lines before the cut salvage");
    assert!(
        read.skipped <= 1,
        "only the torn line may be skipped, got {}",
        read.skipped
    );
}

#[test]
fn committed_diagnostic_fixtures_match_their_generator() {
    // The committed bytes must be exactly what `caai-fuzz emit-fixtures`
    // produces today — catching both corpus drift and generator drift.
    for fx in diagnostic_fixtures() {
        let path = corpus_dir().join(format!("diag-{}.pcapng", fx.name));
        let committed = std::fs::read(&path).unwrap_or_else(|e| {
            panic!(
                "{} missing ({e}); regenerate with `caai-fuzz emit-fixtures --out tests/corpus`",
                path.display()
            )
        });
        assert_eq!(
            committed,
            fx.bytes,
            "{} drifted from its generator; regenerate with `caai-fuzz emit-fixtures`",
            path.display()
        );
    }
}

#[test]
fn committed_flow_slot_capture_matches_its_generator() {
    let path = corpus_dir().join("flow-slot-collisions.pcap");
    let committed = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "{} missing ({e}); regenerate with `caai-fuzz emit-fixtures --out tests/corpus`",
            path.display()
        )
    });
    assert_eq!(
        committed,
        flow_slot_collisions(),
        "{} drifted from its generator; regenerate with `caai-fuzz emit-fixtures`",
        path.display()
    );
    // Every 4-tuple reassembles whole: nothing skipped, and the reused
    // one is one flow offline (its second life follows its FIN).
    let reassembly = caai_capture::reassemble(&committed).expect("valid capture");
    assert!(reassembly.skipped.is_empty(), "{:?}", reassembly.skipped);
    assert_eq!(reassembly.flows.len(), 22);
}

#[test]
fn pcapng_skip_diagnostics_are_pinned_verbatim() {
    for fx in diagnostic_fixtures() {
        let path = corpus_dir().join(format!("diag-{}.pcapng", fx.name));
        let bytes = std::fs::read(&path).expect("fixture committed");
        let mut src = PcapStream::new(Cursor::new(bytes), StallPolicy::Eof);
        let mut skips: Vec<String> = Vec::new();
        loop {
            match src.next() {
                Ok(Some(SourceItem::Skipped { reason, .. })) => skips.push(reason),
                Ok(Some(SourceItem::Frame(f))) => {
                    panic!(
                        "fixture {} unexpectedly yielded frame at ts {}",
                        fx.name, f.ts
                    )
                }
                Ok(None) => break,
                Err(e) => panic!("fixture {} went fatal: {}", fx.name, e.reason),
            }
        }
        assert_eq!(
            skips,
            vec![fx.expected_reason.to_owned()],
            "fixture {}: skip diagnostic drifted from its pinned wording",
            fx.name
        );
        // The contract satellite: the enclosing block type is in the text.
        assert!(
            skips[0].contains("(type 0x0000000") || skips[0].contains("block type 0x"),
            "fixture {}: diagnostic does not name its block type: {}",
            fx.name,
            skips[0]
        );
    }
}
