//! Fuzz targets: each one drives a mutated capture through a parser
//! stack and reports any panic as a finding.
//!
//! Parse errors, skip reports and truncation diagnostics are the
//! parsers' *contract* for hostile bytes — they are explicitly not
//! findings. A finding is a panic (or, under a fuzz-specific debug
//! build, an arithmetic overflow surfacing as one) anywhere between the
//! container walker and the verdict.

use caai_capture::reconstruct::{observe_connection, session_outcome, sessions};
use caai_capture::{reassemble, reassemble_source, PcapReader, DEFAULT_LADDER};
use caai_congestion::AlgorithmId;
use caai_core::classes::label_names;
use caai_core::features::FEATURE_DIM;
use caai_core::frame::{ClientFrame, ServerFrame};
use caai_core::ladder::{AttemptPhase, LadderWalk, Next, Run, RungAttempt};
use caai_core::prober::ProberConfig;
use caai_core::sansio::{LadderCore, ServerCore, Step};
use caai_core::{CaaiClassifier, ServerUnderTest};
use caai_ml::{Dataset, RandomForestConfig};
use caai_net::frame::FrameDecoder;
use caai_net::parse_targets;
use caai_netem::rng::seeded;
use caai_obs::NullSubscriber;
use caai_stream::pcapng::SHB_MAGIC;
use caai_stream::{CaptureError, CaptureSource, PcapStream, SourceItem, StallPolicy, StreamConfig};
use std::io::Cursor;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The parser stacks a mutated input is driven through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Zero-copy classic reader → flow reassembly → ladder
    /// reconstruction → outcome (no classifier); a classic input must
    /// reassemble identically through the incremental source.
    Offline,
    /// Incremental source (classic *and* pcapng framing) drained item
    /// by item; a classic input must yield the zero-copy reader's frames
    /// and final error exactly.
    Stream,
    /// The full streaming pipeline with a live classifier.
    Pipeline,
    /// `host:port` target-list ingestion (mutated text: every line must
    /// parse or skip with an in-range 1-based diagnostic, never panic).
    NetTargets,
    /// The virtual-time wire protocol: mutated bytes decoded as server
    /// frames (run-length `Burst`s) into a [`LadderCore`] ladder walk,
    /// and as client frames into a tcpsim-backed [`ServerCore`] and a
    /// twin that hears each `AckRun` as its single `Ack`s.
    NetFrames,
    /// The sans-IO ladder itself: mutated bytes decoded straight into
    /// [`RungAttempt`] events and [`LadderWalk`] records, past the frame
    /// decoder that rejects most mutations before `net-frames` gets
    /// that far.
    Ladder,
    /// Chrome trace-event JSON (mutated `--trace` output) through the
    /// `trace-report` salvage reader, stage analyzer, and renderer.
    TraceReport,
}

impl Target {
    pub fn name(self) -> &'static str {
        match self {
            Target::Offline => "offline",
            Target::Stream => "stream",
            Target::Pipeline => "pipeline",
            Target::NetTargets => "net-targets",
            Target::NetFrames => "net-frames",
            Target::Ladder => "ladder",
            Target::TraceReport => "trace-report",
        }
    }
}

/// Shared state for all targets: one classifier, trained once.
pub struct Targets {
    classifier: CaaiClassifier,
}

impl Targets {
    pub fn new() -> Targets {
        Targets {
            classifier: tiny_classifier(),
        }
    }

    /// Runs `bytes` through `target`, converting any panic into
    /// `Err(message)`.
    pub fn run(&self, target: Target, bytes: &[u8]) -> Result<(), String> {
        let job = AssertUnwindSafe(|| match target {
            Target::Offline => drive_offline(bytes),
            Target::Stream => drive_stream(bytes),
            Target::Pipeline => self.drive_pipeline(bytes),
            Target::NetTargets => drive_net_targets(bytes),
            Target::NetFrames => drive_net_frames(bytes),
            Target::Ladder => drive_ladder(bytes),
            Target::TraceReport => drive_trace_report(bytes),
        });
        catch_unwind(job).map_err(|payload| {
            if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_owned()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "panic payload of unknown type".to_owned()
            }
        })
    }

    fn drive_pipeline(&self, bytes: &[u8]) {
        let mut source = PcapStream::new(Cursor::new(bytes.to_vec()), StallPolicy::Eof);
        let mut verdicts = 0usize;
        let _ = caai_stream::run(
            &mut source,
            &self.classifier,
            &StreamConfig::default(),
            |_report| verdicts += 1,
        );
    }
}

impl Default for Targets {
    fn default() -> Self {
        Targets::new()
    }
}

/// The offline capture stack, classifier excluded: reassemble, observe
/// every flow against the ladder, group sessions, replay each outcome.
/// A classic input must reassemble to the same flows, skips, truncation
/// and packet count (or fail with the same error) through the
/// incremental source: both readers feed the one drain.
fn drive_offline(bytes: &[u8]) {
    let offline = reassemble(bytes);
    if !bytes.starts_with(&SHB_MAGIC) {
        let mut stream = PcapStream::new(Cursor::new(bytes), StallPolicy::Eof);
        let streamed = reassemble_source(&mut stream, &NullSubscriber);
        assert!(
            offline == streamed,
            "reassemble and the stream disagree: {:?} vs {:?}",
            offline
                .as_ref()
                .map(|r| (r.flows.len(), r.packets, &r.truncated)),
            streamed
                .as_ref()
                .map(|r| (r.flows.len(), r.packets, &r.truncated)),
        );
    }
    let Ok(reassembly) = offline else {
        return; // rejected at the container: the contract, not a finding
    };
    for flow in &reassembly.flows {
        let _ = observe_connection(flow, &DEFAULT_LADDER);
    }
    for session in sessions(&reassembly, &DEFAULT_LADDER) {
        let _ = session_outcome(&session, &DEFAULT_LADDER);
    }
}

/// Everything a source yields, in order, and the error that ended it.
fn items(source: &mut dyn CaptureSource) -> (Vec<SourceItem>, Option<CaptureError>) {
    let mut items = Vec::new();
    let mut next = || {
        source.read_header()?;
        while let Some(item) = source.next()? {
            items.push(item);
            // A mutated length field must never turn the reader into an
            // infinite item generator.
            assert!(
                items.len() < 1 << 22,
                "source yielded {} items without ending",
                items.len()
            );
        }
        Ok(())
    };
    let end = next().err();
    (items, end)
}

/// The incremental source drained to exhaustion (both container
/// formats, per-item skip reports, fatal framing errors). Over a classic
/// input the zero-copy reader must agree with it on every frame's
/// index, timestamp and bytes and on the final error's offset and
/// reason: the two share their framing helpers, not their buffering.
fn drive_stream(bytes: &[u8]) {
    let streamed = items(&mut PcapStream::new(Cursor::new(bytes), StallPolicy::Eof));
    if bytes.starts_with(&SHB_MAGIC) {
        return;
    }
    let read = match PcapReader::new(bytes) {
        Ok(mut reader) => items(&mut reader),
        Err(e) => (Vec::new(), Some(e)),
    };
    if read != streamed {
        let first = read.0.iter().zip(&streamed.0).position(|(a, b)| a != b);
        panic!(
            "classic readers disagree: reader {} items, stream {}, first difference at {first:?}; \
             reader ended {:?}, stream {:?}",
            read.0.len(),
            streamed.0.len(),
            read.1,
            streamed.1
        );
    }
}

/// Target-list ingestion over mutated text: skip-and-report is the
/// contract; a panic, or a diagnostic pointing outside the input, is a
/// finding.
fn drive_net_targets(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    let list = parse_targets(&text);
    let lines = text.lines().count();
    for skipped in &list.skipped {
        assert!(
            (1..=lines.max(1)).contains(&skipped.line),
            "skip diagnostic names line {} of a {lines}-line input",
            skipped.line
        );
    }
    for target in &list.targets {
        assert!((1..=65535).contains(&target.port));
    }
}

/// The wire protocol under mutation. Both endpoints must reduce hostile
/// frame streams to decode errors or protocol violations — the ladder
/// walk and the tcpsim replay must never panic, whatever arrives.
fn drive_net_frames(bytes: &[u8]) {
    // Client side: mutated bytes as the server's half of the dialogue.
    let mut client = LadderCore::new(ProberConfig::default());
    if matches!(client.start(), Step::Connect) {
        let _ = client.on_connected();
    }
    let mut decoder = FrameDecoder::new();
    decoder.push(bytes);
    'client: while let Ok(Some(frame)) = decoder.next::<ServerFrame>() {
        match client.on_frame(&frame) {
            Err(_) => break 'client,
            Ok(next) => {
                let mut step = next;
                // Walk non-blocking transitions so later frames land in
                // deeper ladder states.
                loop {
                    match step {
                        Step::Connect => step = client.on_connected(),
                        Step::Send {
                            close_after: true, ..
                        } => step = client.on_closed(),
                        Step::Send { .. } => break,
                        Step::Done(_) => break 'client,
                    }
                }
            }
        }
    }

    // Server side: mutated bytes as the client's half. A twin hears
    // every `AckRun` the per-packet way, as its single `Ack`s; run or
    // singles, the two must refuse alike and answer alike.
    let mut server = ServerCore::new(ServerUnderTest::ideal(AlgorithmId::Reno));
    let mut twin = ServerCore::new(ServerUnderTest::ideal(AlgorithmId::Reno));
    let mut decoder = FrameDecoder::new();
    decoder.push(bytes);
    while let Ok(Some(frame)) = decoder.next::<ClientFrame>() {
        let heard = server.on_frame(&frame).map(|r| r.frames);
        let twin_heard = match frame {
            ClientFrame::AckRun {
                now,
                first,
                count,
                rtt,
            } => (first..=first + u64::from(count - 1))
                .map(|cum_ack| twin.on_frame(&ClientFrame::Ack { now, cum_ack, rtt }))
                .find(Result::is_err)
                .unwrap_or(Ok(Default::default())),
            other => twin.on_frame(&other),
        }
        .map(|r| r.frames);
        assert_eq!(
            heard.as_ref().ok(),
            twin_heard.as_ref().ok(),
            "{frame:?} heard as a run and as single ACKs"
        );
        if heard.is_err() {
            break;
        }
    }
}

/// The ladder state machines under an arbitrary event stream. Every byte
/// string decodes to one: two header bytes pick the round bounds, then
/// each attempt takes an `(environment, w_max)` byte and opcodes until
/// it closes — silent round (server done or not), RTO answered or not,
/// or a round of up to seven runs of arrivals whose first sequence
/// numbers step, repeat, run backwards or come raw off the input (up to
/// `u64::MAX`) and whose lengths are one, zero, overlapping or past the
/// end of the sequence space. Closed attempts are recorded into a walk
/// in whatever order they come. Out-of-phase events must be refused,
/// never panic; round counts must stay inside the configured bounds;
/// cumulative ACKs must only go up, and no ACK train may run past
/// `u64::MAX`.
fn drive_ladder(bytes: &[u8]) {
    let mut input = bytes.iter().copied();
    let mut byte = || input.next();
    let (Some(b0), Some(b1)) = (byte(), byte()) else {
        return;
    };
    let config = ProberConfig {
        max_pre_rounds: 1 + usize::from(b0 & 0x0f),
        post_timeout_rounds: 1 + usize::from(b0 >> 4),
        stall_rounds: u32::from(b1 & 0x03),
        frto_countermeasure: b1 & 0x04 != 0,
        ..ProberConfig::default()
    };
    let ladder = &[64u32, 8, 3][..usize::from(b1 >> 6)];
    let mut walk = LadderWalk::new();
    'attempts: while let Some(pick) = byte() {
        let env =
            [caai_netem::EnvironmentId::A, caai_netem::EnvironmentId::B][usize::from(pick & 1)];
        // Follow the walk when it has an opinion, else the input: replay
        // drivers record traces the walk never asked for.
        let (env, wmax) = match walk.next(ladder).filter(|_| pick & 2 == 0) {
            Some(asked) => asked,
            None => (env, [0, 3, 8, u32::MAX][usize::from(pick >> 6)]),
        };
        let mut attempt = RungAttempt::new(env, wmax);
        let (mut last_cum, mut base) = (0u64, 0u64);
        while attempt.phase() != AttemptPhase::Closed {
            let Some(op) = byte() else {
                attempt.abort();
                walk.abort(Some(attempt.into_trace()), None);
                break 'attempts;
            };
            let flag = op & 0x80 != 0;
            let end = match op & 3 {
                0 => attempt.on_silent_round(&config, flag),
                1 => attempt.on_rto(flag),
                _ => {
                    let mut arrivals = Vec::new();
                    for _ in 0..(op >> 2) & 7 {
                        let c = byte().unwrap_or(0);
                        let step = u64::from(c >> 4);
                        let seq = match c & 3 {
                            0 => {
                                base = base.saturating_add(1 + step);
                                base
                            }
                            1 => {
                                let raw: Vec<u8> = (0..8).map(|_| byte().unwrap_or(0xff)).collect();
                                u64::from_le_bytes(raw.try_into().expect("eight bytes"))
                            }
                            2 => u64::MAX - step,
                            _ => base.saturating_sub(step),
                        };
                        let len = match c & 8 {
                            0 => 1,
                            _ => [0, 2 + step, 1 << 20, u64::MAX][usize::from(c >> 6)],
                        };
                        arrivals.push(Run {
                            first: seq,
                            len,
                            duplicate: c & 4 != 0,
                        });
                    }
                    attempt.on_round(&config, &arrivals)
                }
            };
            let Some(end) = end else {
                continue; // refused: not this phase's event
            };
            assert!(end.elapsed.is_finite() && end.elapsed >= 0.0);
            for acks in attempt.acks().iter().filter(|a| !a.duplicate) {
                assert!(
                    acks.len > 0 && acks.first > last_cum,
                    "{acks:?} after {last_cum}"
                );
                last_cum = (acks.first.checked_add(acks.len - 1)).expect("a train within u64");
            }
            assert!(end.next != Next::AwaitRto || attempt.acks().is_empty());
        }
        assert!(attempt.trace().pre.len() <= config.max_pre_rounds);
        assert!(attempt.trace().post.len() <= config.post_timeout_rounds);
        let _ = attempt.ended();
        if pick & 4 != 0 {
            walk.seek(usize::from(pick >> 3 & 7));
        }
        let _ = walk.rung_wmax(ladder);
        walk.record(attempt.into_trace());
    }
    let outcome = walk.finish();
    let _ = outcome.failure_reason();
}

/// Trace-event JSON through the offline `trace-report` stack: salvage
/// reader, stage analyzer, report renderer. Skipped lines and unmatched
/// async begins are the reader's contract for mangled traces (a
/// SIGKILLed run leaves exactly that); a panic anywhere — line parsing,
/// quantile math over hostile durations, rendering — is a finding. The
/// sanity asserts mirror the salvage promise: whatever was skipped must
/// be counted, and every reconstructed span must carry a finite,
/// non-negative duration.
fn drive_trace_report(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    let read = caai_obs::report::read_str(&text);
    if read.skipped > 0 {
        assert!(
            read.first_error.is_some(),
            "{} lines skipped but no diagnostic recorded",
            read.skipped
        );
    }
    for span in &read.spans {
        assert!(
            span.dur_us.is_finite() && span.dur_us >= 0.0,
            "span `{}` reconstructed with duration {}",
            span.name,
            span.dur_us
        );
    }
    let analysis = caai_obs::TraceAnalysis::from_spans(&read.spans, 8);
    let _ = analysis.render(&read);
}

/// The cheapest forest that satisfies the classifier's 15-class
/// contract: one synthetic feature vector per class, three trees. The
/// fuzzer only needs *a* classifier on the pipeline's hot path — its
/// accuracy is irrelevant.
pub fn tiny_classifier() -> CaaiClassifier {
    let names = label_names();
    let n_classes = names.len();
    let mut data = Dataset::new(names, FEATURE_DIM);
    for class in 0..n_classes {
        for rep in 0..2 {
            let v: Vec<f64> = (0..FEATURE_DIM)
                .map(|f| (class * FEATURE_DIM + f) as f64 * 0.01 + rep as f64 * 0.001)
                .collect();
            data.push(v, class);
        }
    }
    CaaiClassifier::train_with(
        &data,
        RandomForestConfig {
            n_trees: 3,
            mtry: 4,
        },
        &mut seeded(42),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeds::build_seeds;

    #[test]
    fn all_targets_accept_all_seeds() {
        let targets = Targets::new();
        for seed in build_seeds() {
            for t in [
                Target::Offline,
                Target::Stream,
                Target::Pipeline,
                Target::NetTargets,
                Target::NetFrames,
                Target::Ladder,
                Target::TraceReport,
            ] {
                targets
                    .run(t, &seed.bytes)
                    .unwrap_or_else(|m| panic!("seed {} panicked {}: {m}", seed.name, t.name()));
            }
        }
    }

    #[test]
    fn garbage_is_rejected_without_panicking() {
        let targets = Targets::new();
        let garbage: Vec<u8> = (0..4096u32).map(|i| (i * 31 % 251) as u8).collect();
        for t in [
            Target::Offline,
            Target::Stream,
            Target::Pipeline,
            Target::NetTargets,
            Target::NetFrames,
            Target::Ladder,
            Target::TraceReport,
        ] {
            targets.run(t, &garbage).expect("garbage must not panic");
        }
    }
}
