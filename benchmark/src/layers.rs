//! The traced pass: the per-layer table.
//!
//! A run separate from the end-to-end ones (nothing here feeds an
//! end-to-end metric). It builds all three inputs once and then
//!
//! 1. times isolated calls into each crate's public functions;
//! 2. runs each workload with bench-local wrappers on the public seams
//!    ([`TimedTransport`], [`TimedSink`], [`NullTransport`]);
//! 3. runs each workload once more with the program's own
//!    [`TraceSubscriber`] attached through the same `*_obs` entry points,
//!    writing to memory, and folds `report::read_str` →
//!    [`TraceAnalysis`] into the `span.*` rows. The wall-time difference
//!    to the untraced twin is `obs.trace_overhead_share.<workload>`,
//!    which says how far those rows can be trusted.
//!
//! Every row is taken in every traced run, whatever `--workload` names:
//! the layer costs do not depend on it.

use crate::inputs::{Scale, TRAINING_CONDITIONS};
use crate::seams::{CountingWriter, NullTransport, SharedBuf, TimedSink, TimedTransport};
use crate::stats::{self, percentile, Summary};
use crate::workloads::{
    CaptureFile, IdentifyFollow, IdentifyOffline, LiveCensus, LiveObs, Score, SimCensus, Workload,
};
use caai_capture::{
    decode, identify_reassembly, reassemble, CaptureRenderer, PcapReader, DEFAULT_LADDER,
};
use caai_congestion::{Ack, AlgorithmId, Transport, ALL_IDENTIFIED};
use caai_core::census::{verdict_for_outcome, CensusRecord, Verdict};
use caai_core::classify::CaaiClassifier;
use caai_core::features::extract_pair;
use caai_core::prober::{GatherOutcome, Prober, ProberConfig};
use caai_core::server_under_test::ServerUnderTest;
use caai_core::training::{build_training_set, TrainingConfig};
use caai_core::transport::{ProbeTransport, SimTransport};
use caai_core::InvalidReason;
use caai_engine::{
    run_transport, run_transport_obs, CensusEngine, Checkpoint, EngineConfig, JsonlMeta, JsonlSink,
    ResultSink, ShardSpec,
};
use caai_net::frame::{encode, ClientFrame, FrameDecoder, ServerFrame, Wire};
use caai_net::{LadderCore, NetTransport, Reply, ServerCore, ServerProfile, Step};
use caai_netem::rng::{child, seeded};
use caai_netem::{ConditionDb, PathConfig};
use caai_obs::report::read_str;
use caai_obs::{MetricsSubscriber, SpanKind, Subscriber, TraceAnalysis, TraceSubscriber};
use caai_stream::{classic_to_pcapng, CaptureSource, FollowConfig};
use caai_tcpsim::AckPacket;
use caai_webmodel::PopulationConfig;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Repetitions behind each speed-up and trace-overhead row (per side).
const PASSES: usize = 3;
/// The traced pass makes a dozen passes over each input, so it takes
/// each at most this large: enough for stable means, small enough that
/// the whole pass takes about as long as an end-to-end run.
const LARGEST: Scale = Scale {
    servers: 3_000,
    targets: 140,
    bulk_bytes: 64_000_000,
    mice: 1_500,
    lanes: 32,
};
/// Servers of the traced simulated census. A gather emits a span per
/// rung and per round, so a full population would be gigabytes of trace.
const TRACED_SERVERS: usize = 1_000;
/// Largest gap between `core.gather_us_mean + core.verdict_us_mean` and
/// `core.probe_us_mean`, as a share of the latter, for the outside view
/// of a probe to count as complete.
pub const CORE_SUM_TOLERANCE: f64 = 0.05;

/// The per-layer table of one traced run.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Every per-layer row, by name.
    pub rows: BTreeMap<&'static str, f64>,
    /// Which of the 14 algorithms `congestion.ack_ns_max` belongs to.
    pub slowest_ack: AlgorithmId,
    /// `(gather + verdict − probe) ÷ probe` over the same servers.
    pub core_sum_gap: f64,
    /// Outputs checked along the way, summed over every pass.
    pub score: Score,
}

impl Profile {
    /// Whether gather + verdict account for a probe within tolerance.
    pub fn core_sum_holds(&self) -> bool {
        self.core_sum_gap.abs() <= CORE_SUM_TOLERANCE
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.rows.insert(name, value);
    }

    fn check(&mut self, score: Score) {
        self.score += score;
    }
}

fn other(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// Median seconds of one call of `f`, over `reps` calls after a warm-up.
fn median_secs<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            black_box(f());
            started.elapsed().as_secs_f64()
        })
        .collect();
    Summary::of(&samples).median
}

/// Wall seconds of `run`, and what it returned.
fn timed<T>(run: impl FnOnce() -> io::Result<T>) -> io::Result<(f64, T)> {
    let started = Instant::now();
    let value = run()?;
    Ok((started.elapsed().as_secs_f64(), value))
}

/// `VmHWM` in MB over one `pass`: what is live when it starts plus what
/// it adds.
fn peak_rss_during(pass: Pass<'_>, table: &mut Profile) -> io::Result<f64> {
    stats::reset_peak_rss();
    let (_, score) = pass()?;
    table.check(score);
    Ok(stats::peak_rss_mb())
}

/// One timed pass of a workload: its wall seconds, and what checking
/// its outputs found.
type Pass<'a> = &'a mut dyn FnMut() -> io::Result<(f64, Score)>;

/// Median wall seconds of each kind of pass. The kinds take turns
/// (a, b, a, b, ...) for [`PASSES`] rounds, so that a drift in the
/// host's speed hits every kind alike and cancels out of their ratios.
fn medians_in_turn<const N: usize>(
    table: &mut Profile,
    mut passes: [Pass<'_>; N],
) -> io::Result<[f64; N]> {
    let mut walls = [(); N].map(|()| Vec::with_capacity(PASSES));
    for _ in 0..PASSES {
        for (pass, walls) in passes.iter_mut().zip(&mut walls) {
            let (wall, score) = pass()?;
            walls.push(wall);
            table.check(score);
        }
    }
    Ok(walls.map(|walls| Summary::of(&walls).median))
}

/// A trace subscriber writing to memory, and the memory.
fn memory_trace() -> (TraceSubscriber, SharedBuf) {
    let buf = SharedBuf::default();
    (TraceSubscriber::to_writer(Box::new(buf.clone()), 1), buf)
}

fn analyze(buf: &SharedBuf) -> TraceAnalysis {
    TraceAnalysis::from_spans(&read_str(&buf.text()).spans, 0)
}

fn stage_count(analysis: &TraceAnalysis, kind: SpanKind) -> f64 {
    analysis
        .stages
        .iter()
        .find(|stage| stage.name == kind.name())
        .map_or(0.0, |stage| stage.count as f64)
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Runs the traced pass.
pub fn profile(seed: u64, scale: &Scale, scratch: &Path) -> io::Result<Profile> {
    let scale = &Scale {
        servers: scale.servers.min(LARGEST.servers),
        targets: scale.targets.min(LARGEST.targets),
        bulk_bytes: scale.bulk_bytes.min(LARGEST.bulk_bytes),
        mice: scale.mice.min(LARGEST.mice),
        lanes: scale.lanes.min(LARGEST.lanes),
    };
    let mut table = Profile {
        rows: BTreeMap::new(),
        slowest_ack: AlgorithmId::Reno,
        core_sum_gap: 0.0,
        score: Score::default(),
    };
    // The capture section first: its resident-size reading wants a heap
    // that earlier sections have not yet grown and emptied.
    capture_section(&mut table, seed, scale, scratch)?;
    let classifier = isolated_layers(&mut table, seed, scale);
    sim_section(&mut table, seed, scale, scratch, &classifier)?;
    live_section(&mut table, seed, scale, scratch)?;
    Ok(table)
}

// ---------------------------------------------------------------------
// Isolated calls: congestion, tcpsim, webmodel, netem, core, ml, net
// ---------------------------------------------------------------------

/// ACKs per timed call, crossing from slow start into congestion
/// avoidance (as `crates/bench/benches/algorithms.rs` drives it).
const ACKS: u64 = 4_096;

fn drive_acks(algorithm: AlgorithmId) -> u32 {
    let mut cc = algorithm.build();
    let mut tp = Transport::new(1460);
    cc.init(&mut tp);
    tp.ssthresh = 64;
    let mut now = 0.0;
    for i in 0..ACKS {
        now += 0.001;
        let ack = Ack {
            now,
            acked: 1,
            rtt: 0.1 + (i % 7) as f64 * 0.001,
        };
        tp.snd_una += 1;
        tp.snd_nxt = tp.snd_una + u64::from(tp.cwnd);
        cc.pkts_acked(&mut tp, &ack);
        cc.cong_avoid(&mut tp, &ack);
    }
    tp.cwnd
}

/// Rounds of the `tcpsim` drive.
const TCPSIM_ROUNDS: usize = 200;

/// An ideal RENO connection through [`TCPSIM_ROUNDS`] rounds of
/// `transmit` + one `on_ack` per segment, timing out whenever the window
/// reaches 512 packets — the shape of a probe's rounds. Returns the
/// segments sent.
fn drive_tcpsim() -> u64 {
    let server = ServerUnderTest::ideal(AlgorithmId::Reno);
    let mut connection = server.connect(100, 0.0);
    let mut segments = 0u64;
    let mut now = 0.0;
    for _ in 0..TCPSIM_ROUNDS {
        let burst = connection.transmit(now);
        segments += burst.len() as u64;
        now += 1.0;
        for segment in &burst {
            connection.on_ack(
                now,
                AckPacket {
                    cum_ack: segment.seq + 1,
                    rtt: 1.0,
                },
            );
        }
        if connection.cwnd() >= 512 {
            connection.fire_rto(now);
        }
    }
    segments
}

/// Drives a [`LadderCore`] against a fresh [`ServerCore`] per
/// connection, every frame through its wire encoding both ways: a live
/// probe minus the sockets (as `crates/net/tests/equivalence.rs` does).
fn drive_cores(profile: &ServerProfile) -> GatherOutcome {
    fn over_the_wire<F: Wire>(frame: &F) -> F {
        let mut decoder = FrameDecoder::new();
        decoder.push(&encode(frame));
        decoder
            .next::<F>()
            .expect("own encoding decodes")
            .expect("one frame in, one frame out")
    }
    let mut client = LadderCore::new(ProberConfig::default());
    let mut server: Option<ServerCore> = None;
    let mut step = client.start();
    loop {
        step = match step {
            Step::Connect => {
                server = Some(ServerCore::new(profile.clone()));
                client.on_connected()
            }
            Step::Send {
                frames,
                close_after,
                ..
            } => {
                let core = server.as_mut().expect("send follows connect");
                let mut replies: Vec<ServerFrame> = Vec::new();
                for frame in &frames {
                    let Reply { frames, .. } = core
                        .on_frame(&over_the_wire::<ClientFrame>(frame))
                        .expect("an honest client keeps the protocol");
                    replies.extend(frames);
                }
                if close_after {
                    server = None;
                    client.on_closed()
                } else {
                    client
                        .on_frame(&over_the_wire(&replies[0]))
                        .expect("an honest server keeps the protocol")
                }
            }
            Step::Done(outcome) => return *outcome,
        };
    }
}

/// Times the layers that need no workload input. Returns the classifier
/// it trained along the way.
fn isolated_layers(table: &mut Profile, seed: u64, scale: &Scale) -> CaaiClassifier {
    // congestion: per-ACK controller cost.
    let mut slowest = (AlgorithmId::Reno, 0.0);
    for algorithm in ALL_IDENTIFIED {
        let ns = median_secs(9, || drive_acks(algorithm)) * 1e9 / ACKS as f64;
        match algorithm {
            AlgorithmId::Reno => table.set("congestion.ack_ns.RENO", ns),
            AlgorithmId::CubicV2 => table.set("congestion.ack_ns.CUBIC_v2", ns),
            _ => {}
        }
        if ns > slowest.1 {
            slowest = (algorithm, ns);
        }
    }
    table.set("congestion.ack_ns_max", slowest.1);
    table.slowest_ack = slowest.0;

    // tcpsim: one server connection, round by round.
    let segments = drive_tcpsim();
    let secs = median_secs(9, drive_tcpsim);
    table.set("tcpsim.round_us", secs * 1e6 / TCPSIM_ROUNDS as f64);
    table.set("tcpsim.segments_per_s", segments as f64 / secs);

    // webmodel: population generation.
    let secs = median_secs(5, || {
        PopulationConfig::small(scale.servers).generate(&mut seeded(seed))
    });
    table.set(
        "webmodel.generate_us_per_server",
        secs * 1e6 / f64::from(scale.servers),
    );

    // netem: sampling a real-path condition.
    const SAMPLES: u32 = 100_000;
    let db = ConditionDb::paper_2011();
    let mut rng = seeded(seed);
    let secs = median_secs(5, || {
        for _ in 0..SAMPLES {
            black_box(db.sample(&mut rng));
        }
    });
    table.set("netem.condition_sample_ns", secs * 1e9 / f64::from(SAMPLES));

    // core + ml: what every workload's set-up pays before its first
    // probe — the training set, then the forest.
    let training = TrainingConfig::quick(TRAINING_CONDITIONS);
    let secs = median_secs(PASSES, || {
        build_training_set(&training, &db, &mut seeded(seed ^ 0x7121))
    });
    table.set("core.training_set_s", secs);
    let mut rng = seeded(seed ^ 0x7121);
    let data = build_training_set(&training, &db, &mut rng);
    let secs = median_secs(PASSES, || CaaiClassifier::train(&data, &mut rng.clone()));
    table.set("ml.forest_fit_s", secs);
    let classifier = CaaiClassifier::train(&data, &mut rng);

    // core: gather on ideal servers over a clean path, then features
    // and the forest on one gathered pair.
    let prober = Prober::new(ProberConfig::default());
    for (algorithm, row) in [
        (AlgorithmId::Reno, "core.gather_us.RENO"),
        (AlgorithmId::CubicV2, "core.gather_us.CUBIC_v2"),
    ] {
        let server = ServerUnderTest::ideal(algorithm);
        let mut rng = seeded(17);
        let secs = median_secs(15, || {
            prober.gather(&server, &PathConfig::clean(), &mut rng)
        });
        table.set(row, secs * 1e6);
    }
    const CALLS: u32 = 10_000;
    let pair = prober
        .gather(
            &ServerUnderTest::ideal(AlgorithmId::Htcp),
            &PathConfig::clean(),
            &mut seeded(19),
        )
        .pair
        .expect("an ideal HTCP server gathers");
    let secs = median_secs(5, || {
        for _ in 0..CALLS {
            black_box(extract_pair(black_box(&pair)));
        }
    });
    table.set("core.extract_ns", secs * 1e9 / f64::from(CALLS));
    let vector = extract_pair(&pair);
    let secs = median_secs(5, || {
        for _ in 0..CALLS {
            black_box(classifier.classify(black_box(&vector)));
        }
    });
    table.set("ml.classify_ns", secs * 1e9 / f64::from(CALLS));

    // net, without sockets: the frame codec (the per-packet ACK frame),
    // and whole probes between the two sans-IO cores.
    let ack = ClientFrame::Ack {
        now: 12.5,
        cum_ack: 321,
        rtt: 1.0,
    };
    let secs = median_secs(5, || {
        for _ in 0..CALLS {
            let mut decoder = FrameDecoder::new();
            decoder.push(&encode(black_box(&ack)));
            black_box(decoder.next::<ClientFrame>().expect("own encoding"));
        }
    });
    table.set("net.frame_codec_ns", secs * 1e9 / f64::from(CALLS));
    let profiles: Vec<ServerProfile> = ALL_IDENTIFIED
        .iter()
        .map(|&algorithm| ServerProfile::ideal(algorithm))
        .collect();
    let secs = median_secs(5, || {
        for profile in &profiles {
            black_box(drive_cores(profile));
        }
    });
    table.set("net.core_probe_us", secs * 1e6 / profiles.len() as f64);

    classifier
}

// ---------------------------------------------------------------------
// census_sim: core, engine, obs
// ---------------------------------------------------------------------

/// A transport that probes every server twice, back to back on the same
/// worker of the same engine run: whole, through the simulator
/// transport, and as the public parts `Census::probe_obs` is made of,
/// gather and verdict timed apart. Same server, same thread,
/// same moment — so the three times can be compared to the percent even
/// on a host whose speed drifts from one second to the next.
struct ProbeParts<'a> {
    whole: &'a SimTransport<'a>,
    servers: &'a [caai_webmodel::WebServer],
    classifier: &'a CaaiClassifier,
    prober: Prober,
    conditions: ConditionDb,
    /// Per probe: whole, gather, verdict.
    nanos: Mutex<Vec<[u64; 3]>>,
    /// Probes whose parts gave another verdict than the whole.
    mismatches: AtomicU64,
}

impl ProbeTransport for ProbeParts<'_> {
    fn population(&self) -> u64 {
        self.whole.population()
    }

    fn probe<S: Subscriber>(&self, id: u32, seed: u64, obs: &S) -> CensusRecord {
        let whole = || {
            let started = Instant::now();
            let record = self.whole.probe(id, seed, obs);
            (record, started.elapsed())
        };
        let parts = || {
            let server = &self.servers[id as usize];
            let mut rng = child(seed, u64::from(id));
            let path = PathConfig::from_condition(&self.conditions.sample(&mut rng));
            let target = ServerUnderTest::from_web_server(server);
            let started = Instant::now();
            let outcome = self.prober.gather(&target, &path, &mut rng);
            let gathered = Instant::now();
            let (verdict, _) = verdict_for_outcome(&outcome, self.classifier);
            (server.id, verdict, gathered - started, gathered.elapsed())
        };
        // Whichever goes second finds the caches warm; taking turns
        // keeps that out of the comparison.
        let ((record, whole_took), (server_id, verdict, gather_took, verdict_took)) =
            if id.is_multiple_of(2) {
                let first = whole();
                (first, parts())
            } else {
                let first = parts();
                (whole(), first)
            };

        if server_id != id || verdict != record.verdict {
            // A statistic: it publishes no other data.
            self.mismatches.fetch_add(1, Ordering::Relaxed);
        }
        let nanos = [whole_took, gather_took, verdict_took].map(|d| d.as_nanos() as u64);
        self.nanos.lock().expect("no probe panicked").push(nanos);
        record
    }
}

fn sim_section(
    table: &mut Profile,
    seed: u64,
    scale: &Scale,
    scratch: &Path,
    classifier: &CaaiClassifier,
) -> io::Result<()> {
    let mut sim = SimCensus::setup(seed, scale, scratch)?;
    sim.reference()?;
    let servers = sim.population.len() as f64;
    let census = |engine: &CensusEngine| {
        let (wall, outcome) = timed(|| sim.run(engine, &sim.population, None))?;
        Ok((wall, sim.score(&outcome)?))
    };

    let peak = peak_rss_during(&mut || census(sim.engine()), table)?;
    table.set("mem.peak_rss_mb.census_sim", peak);

    // engine.speedup_w2: whole censuses at one and at two workers.
    let two_workers = sim.engine_with_workers(2);
    let [one, two] = medians_in_turn(
        table,
        [&mut || census(sim.engine()), &mut || census(&two_workers)],
    )?;
    table.set("engine.speedup_w2", one / two);

    // The same census with the transport and the sink wrapped: what the
    // engine adds around the probes.
    let transport = SimTransport::new(&sim.census, &sim.population).map_err(other)?;
    let timed_transport = TimedTransport::new(&transport);
    let file = std::io::BufWriter::new(std::fs::File::create(&sim.report_path)?);
    let (writer, written) = CountingWriter::new(file);
    let mut sink = TimedSink::new(JsonlSink::new(writer));
    sink.inner.write_meta(&JsonlMeta {
        seed,
        population: sim.population.len() as u64,
        shard: ShardSpec::full(),
    })?;
    let meta_bytes = written.get();
    let metrics = MetricsSubscriber::new();
    let obs = (None::<&TraceSubscriber>, &metrics);
    let (wall, outcome) = timed(|| {
        let sinks = &mut [&mut sink as &mut dyn ResultSink];
        run_transport_obs(&timed_transport, &sim.config, sinks, None, &obs).map_err(other)
    })?;
    table.check(sim.score(&outcome)?);
    let probe_seconds = timed_transport.into_nanos().iter().sum::<u64>() as f64 / 1e9;
    table.set(
        "engine.overhead_share",
        1.0 - probe_seconds / (sim.config.workers as f64 * wall),
    );
    let emits = sink.emits.max(1) as f64;
    table.set("engine.sink_emit_us", sink.emit_nanos as f64 / 1e3 / emits);
    table.set(
        "engine.sink_bytes_per_record",
        (written.get() - meta_bytes) as f64 / emits,
    );
    table.set(
        "core.valid_share",
        outcome.report.valid_total() as f64 / outcome.report.total.max(1) as f64,
    );

    // The final checkpoint that census left behind, saved again.
    let checkpoint_path = sim.config.checkpoint_path.as_ref().expect("set in setup");
    let checkpoint = Checkpoint::load(checkpoint_path)?;
    let copy = scratch.join("checkpoint_copy.json");
    let secs = median_secs(9, || checkpoint.save(&copy));
    table.set("engine.checkpoint_save_ms", secs * 1e3);

    // What a probe is made of: the same census once more, each server
    // probed whole and then again as its public parts.
    let parts = ProbeParts {
        whole: &transport,
        servers: &sim.population,
        classifier,
        prober: Prober::new(ProberConfig::default()),
        conditions: ConditionDb::paper_2011(),
        nanos: Mutex::new(Vec::with_capacity(sim.population.len())),
        mismatches: AtomicU64::new(0),
    };
    let mut sink = JsonlSink::create(&sim.report_path)?;
    let sinks = &mut [&mut sink as &mut dyn ResultSink];
    let outcome = run_transport_obs(&parts, &sim.config, sinks, None, &obs).map_err(other)?;
    let mut score = sim.score(&outcome)?;
    score.failed += parts.mismatches.load(Ordering::Relaxed);
    table.check(score);
    let nanos = parts.nanos.into_inner().expect("no probe panicked");
    let mean_us = |part: usize| nanos.iter().map(|n| n[part]).sum::<u64>() as f64 / 1e3 / servers;
    let (whole_us, gather_us, verdict_us) = (mean_us(0), mean_us(1), mean_us(2));
    let whole_nanos: Vec<u64> = nanos.iter().map(|n| n[0]).collect();
    table.set("core.probe_us_mean", whole_us);
    table.set("core.probe_us_p50", percentile(&whole_nanos, 0.50) / 1e3);
    table.set("core.probe_us_p99", percentile(&whole_nanos, 0.99) / 1e3);
    table.set("core.gather_us_mean", gather_us);
    table.set("core.verdict_us_mean", verdict_us);
    table.core_sum_gap = (gather_us + verdict_us - whole_us) / whole_us;

    // The engine with nothing to wait for: scheduler, coordinator,
    // checkpoints and sink at the census's own configuration.
    let null = NullTransport {
        population: u64::from(scale.servers) * 10,
        canned: CensusRecord {
            server_id: 0,
            truth: Some(AlgorithmId::Reno),
            verdict: Verdict::Invalid(InvalidReason::PageTooShort),
        },
    };
    let null_path = scratch.join("null_transport.jsonl");
    let null_config = EngineConfig {
        checkpoint_path: Some(scratch.join("null_transport.checkpoint.json")),
        ..sim.config.clone()
    };
    let [secs] = medians_in_turn(
        table,
        [&mut || {
            let mut sink = JsonlSink::create(&null_path)?;
            let sinks = &mut [&mut sink as &mut dyn ResultSink];
            let (wall, outcome) =
                timed(|| run_transport(&null, &null_config, sinks, None).map_err(other))?;
            let failed = if outcome.completed {
                0
            } else {
                null.population
            };
            Ok((
                wall,
                Score {
                    attempted: null.population,
                    failed,
                    ..Score::default()
                },
            ))
        }],
    )?;
    table.set(
        "engine.null_transport_records_per_s",
        null.population as f64 / secs,
    );

    // Traced against untraced, on a population small enough to keep the
    // trace in memory.
    let few = &sim.population[..sim.population.len().min(TRACED_SERVERS)];
    let mut last_trace = None;
    let [untraced, traced] = medians_in_turn(
        table,
        [
            &mut || {
                let (wall, _) = timed(|| sim.run(sim.engine(), few, None))?;
                Ok((wall, Score::default()))
            },
            &mut || {
                let (trace, buf) = memory_trace();
                let (wall, _) = timed(|| sim.run(sim.engine(), few, Some(&trace)))?;
                last_trace = Some(buf);
                Ok((wall, Score::default()))
            },
        ],
    )?;
    table.set(
        "obs.trace_overhead_share.census_sim",
        (traced - untraced) / untraced,
    );
    let analysis = analyze(&last_trace.expect("PASSES is at least one"));
    table.set("span.gather_share", analysis.gather_share);
    table.set(
        "core.rungs_per_probe",
        share(
            stage_count(&analysis, SpanKind::RungAttempt),
            stage_count(&analysis, SpanKind::Gather),
        ),
    );
    Ok(())
}

// ---------------------------------------------------------------------
// census_live: net
// ---------------------------------------------------------------------

fn live_section(table: &mut Profile, seed: u64, scale: &Scale, scratch: &Path) -> io::Result<()> {
    let live = LiveCensus::setup(seed, scale, scratch)?;
    let targets = live.targets.len() as f64;
    let census = |transport: &NetTransport<LiveObs>, obs: &LiveObs, in_flight: usize| {
        let (wall, outcome) = timed(|| live.run(transport, obs, in_flight))?;
        Ok((wall, live.score(&outcome)?))
    };

    // net.speedup_s2 and the trace overhead: one probe in flight, two
    // (the end-to-end configuration), and two with a trace. A trace
    // subscriber is built into its reactor and closed by the run, so
    // each traced pass gets a reactor of its own.
    let (one_transport, one_obs) = live.transport(1, None)?;
    let (two_transport, two_obs) = live.transport(LiveCensus::MAX_SESSIONS, None)?;
    let peak = peak_rss_during(
        &mut || census(&two_transport, &two_obs, LiveCensus::WORKERS),
        table,
    )?;
    table.set("mem.peak_rss_mb.census_live", peak);
    let mut last_trace = None;
    let [one, two, traced] = medians_in_turn(
        table,
        [
            &mut || census(&one_transport, &one_obs, 1),
            &mut || census(&two_transport, &two_obs, LiveCensus::WORKERS),
            &mut || {
                let (trace, buf) = memory_trace();
                let (transport, obs) = live.transport(LiveCensus::MAX_SESSIONS, Some(trace))?;
                last_trace = Some(buf);
                census(&transport, &obs, LiveCensus::WORKERS)
            },
        ],
    )?;
    table.set("net.speedup_s2", one / two);
    table.set("obs.trace_overhead_share.census_live", (traced - two) / two);
    let analysis = analyze(&last_trace.expect("PASSES is at least one"));
    table.set(
        "span.reactor_tick_share",
        share(analysis.reactor_tick_us, analysis.net_session_us),
    );

    // The end-to-end configuration with the transport wrapped, on a
    // fresh reactor so that its counters cover this census alone.
    let (transport, obs) = live.transport(LiveCensus::MAX_SESSIONS, None)?;
    let timed_transport = TimedTransport::new(&transport);
    let outcome = live.run(&timed_transport, &obs, LiveCensus::WORKERS)?;
    table.check(live.score(&outcome)?);
    let probe_nanos = timed_transport.into_nanos();
    let probe_us_mean = probe_nanos.iter().sum::<u64>() as f64 / 1e3 / targets;
    table.set("net.probe_ms_p50", percentile(&probe_nanos, 0.50) / 1e6);
    table.set("net.probe_ms_p99", percentile(&probe_nanos, 0.99) / 1e6);
    table.set(
        "net.io_share",
        1.0 - table.rows["net.core_probe_us"] / probe_us_mean,
    );
    let counters = obs.1.snapshot().counters;
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    table.set(
        "net.connections_per_probe",
        share(counter("net.connections"), counter("net.sessions")),
    );
    table.set("net.retries", counter("net.retries"));
    table.set("net.timeouts", counter("net.timeouts"));
    Ok(())
}

// ---------------------------------------------------------------------
// identify_offline and identify_follow: capture, stream
// ---------------------------------------------------------------------

/// Drains a capture source alone; seconds per frame.
fn drain(mut source: impl CaptureSource) -> io::Result<f64> {
    let started = Instant::now();
    let mut frames = 0u64;
    while let Some(item) = source.next().map_err(other)? {
        black_box(&item);
        frames += 1;
    }
    Ok(started.elapsed().as_secs_f64() / frames.max(1) as f64)
}

fn capture_section(
    table: &mut Profile,
    seed: u64,
    scale: &Scale,
    scratch: &Path,
) -> io::Result<()> {
    let file = CaptureFile::build(seed, scale, scratch, "profile")?;
    let megabytes = file.bytes as f64 / 1e6;
    let packets = file.packets as f64;
    let sessions = file.rendered.len() as f64;

    // The capture layer's stages, one at a time, on the file's bytes.
    {
        let bytes = std::fs::read(&file.path)?;
        // First of all, while no earlier pass has left the allocator
        // freed memory to reuse: what holding a reassembly costs.
        let before = stats::rss_mb();
        let reassembly = reassemble(&bytes).expect("own capture");
        table.set(
            "capture.reassembly_rss_mb",
            (stats::rss_mb() - before).max(0.0),
        );
        // Reading walks the whole file, so it is bound by memory, and a
        // decode of bytes the reader just touched adds little to it: the
        // decode row is the read-and-decode pass, not a difference.
        let read_all = |with_decode: bool| {
            let mut reader = PcapReader::new(&bytes).expect("own capture");
            while let Some(Ok(record)) = reader.next() {
                if with_decode {
                    black_box(decode(record.data).is_ok());
                }
                black_box(record.ts);
            }
        };
        let secs = median_secs(PASSES, || read_all(false));
        table.set("capture.reader_ns_per_packet", secs * 1e9 / packets);
        let secs = median_secs(PASSES, || read_all(true));
        table.set("capture.decode_ns_per_packet", secs * 1e9 / packets);
        let secs = median_secs(PASSES, || reassemble(&bytes).expect("own capture"));
        table.set("capture.reassemble_ns_per_packet", secs * 1e9 / packets);
        let secs = median_secs(PASSES, || {
            identify_reassembly(&reassembly, &file.classifier, &DEFAULT_LADDER)
        });
        table.set("capture.identify_us_per_session", secs * 1e6 / sessions);

        // stream: the source alone, over the file and over its pcapng
        // re-framing — the dispatcher's serial fraction.
        let pcapng = scratch.join("profile.pcapng");
        std::fs::write(&pcapng, classic_to_pcapng(&bytes, false, 6))?;
        let drain_file = |path: &Path| {
            let path = path.to_str().expect("scratch paths are UTF-8");
            let per_frame = drain(caai_stream::open_path(path, &FollowConfig::default())?)?;
            Ok((per_frame, Score::default()))
        };
        let [classic, reframed] = medians_in_turn(
            table,
            [&mut || drain_file(&file.path), &mut || drain_file(&pcapng)],
        )?;
        table.set("stream.source_ns_per_frame", classic * 1e9);
        table.set("stream.pcapng_source_ns_per_frame", reframed * 1e9);
        std::fs::remove_file(&pcapng)?;
    }

    // capture.render_mb_per_s: one ideal server per identified algorithm
    // through `render_session`, as `caai render-pcap --algo ...` does.
    let prober = Prober::new(ProberConfig::default());
    let render = || {
        let mut renderer = CaptureRenderer::new();
        let mut rng = seeded(seed);
        for (host, algorithm) in ALL_IDENTIFIED.into_iter().enumerate() {
            renderer
                .render_session(
                    [192, 0, 2, 1],
                    [198, 51, 100, host as u8 + 1],
                    &ServerUnderTest::ideal(algorithm),
                    &prober,
                    &PathConfig::clean(),
                    &mut rng,
                )
                .expect("in-memory render cannot fail");
        }
        renderer.to_bytes()
    };
    let rendered_megabytes = render().len() as f64 / 1e6;
    let secs = median_secs(PASSES, render);
    table.set("capture.render_mb_per_s", rendered_megabytes / secs);

    // Whole passes in turn: offline, follow at one worker (the
    // end-to-end configuration) and at two, and the two traced twins.
    let reference = IdentifyFollow::offline_reference(&file)?;
    let offline = |trace: Option<&TraceSubscriber>| {
        let (wall, sessions) = timed(|| file.identify_offline(trace))?;
        Ok((wall, IdentifyOffline::score(&file, &sessions)))
    };
    let peak_live_flows = Cell::new(0);
    let follow = |workers: usize, trace: Option<&TraceSubscriber>| {
        let (wall, (verdicts, stream)) =
            timed(|| file.identify_follow(&mut file.open()?, workers, trace))?;
        peak_live_flows.set(stream.peak_live_flows);
        Ok((wall, IdentifyFollow::score(&file, &reference, verdicts)))
    };
    let peak = peak_rss_during(&mut || offline(None), table)?;
    table.set("mem.peak_rss_mb.identify_offline", peak);
    let peak = peak_rss_during(&mut || follow(IdentifyFollow::WORKERS, None), table)?;
    table.set("mem.peak_rss_mb.identify_follow", peak);
    let mut last_trace = None;
    let [offline_secs, offline_traced] = medians_in_turn(
        table,
        [&mut || offline(None), &mut || {
            offline(Some(&memory_trace().0))
        }],
    )?;
    let [one, two, traced] = medians_in_turn(
        table,
        [
            &mut || follow(IdentifyFollow::WORKERS, None),
            &mut || follow(2, None),
            &mut || {
                let (trace, buf) = memory_trace();
                last_trace = Some(buf);
                follow(IdentifyFollow::WORKERS, Some(&trace))
            },
        ],
    )?;
    table.set("capture.offline_mb_per_s", megabytes / offline_secs);
    table.set("stream.follow_mb_per_s", megabytes / one);
    table.set("stream.offline_ratio", one / offline_secs);
    table.set("stream.speedup_w2", one / two);
    table.set("stream.peak_live_flows", peak_live_flows.get() as f64);
    table.set(
        "obs.trace_overhead_share.identify_offline",
        (offline_traced - offline_secs) / offline_secs,
    );
    table.set(
        "obs.trace_overhead_share.identify_follow",
        (traced - one) / one,
    );
    let analysis = analyze(&last_trace.expect("PASSES is at least one"));
    table.set(
        "span.queue_wait_share",
        share(
            analysis.queue_wait_us,
            analysis.queue_wait_us + analysis.work_us,
        ),
    );
    Ok(())
}
