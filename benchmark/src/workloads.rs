//! The four workloads. Each is a closed-loop batch job: one repetition
//! is one whole job, run through the same library entry points, with the
//! same subscriber stack and sinks, that the `caai` CLI uses for it.
//!
//! | workload | CLI twin | what does the work |
//! |---|---|---|
//! | `census_sim` | `caai census --servers N --workers 1 --out F --checkpoint C` | `core::prober`, `tcpsim`, `congestion` |
//! | `census_live` | `caai census --targets F --workers 2 --max-sessions 2 --out F` | `net` reactor and codec, sockets, `engine` |
//! | `identify_offline` | `caai identify --pcap F --out F` | `capture` reader, decode, flow table, ladder replay |
//! | `identify_follow` | `caai identify --pcap F --follow --workers 1 --out F` (file complete, so it ends at EOF) | `stream` dispatcher, workers, timeout wheel, collector |
//!
//! A repetition takes an optional [`TraceSubscriber`]: `None` for the
//! end-to-end passes (the CLI without `--trace`), `Some` for the traced
//! pass of the per-layer table.

use crate::inputs::{self, Fleet, Scale};
use crate::stats::{self, Summary};
use caai_capture::SessionReport;
use caai_congestion::{AlgorithmId, ALL_IDENTIFIED};
use caai_core::census::{Census, CensusRecord, Verdict};
use caai_core::classify::CaaiClassifier;
use caai_core::prober::ProberConfig;
use caai_engine::sink::read_jsonl;
use caai_engine::{
    run_transport_obs, AggregatingSink, CensusEngine, EngineConfig, EngineOutcome, JsonlMeta,
    JsonlSink, ResultSink, ShardSpec,
};
use caai_net::{NetConfig, NetTransport};
use caai_netem::ConditionDb;
use caai_obs::{MetricsSubscriber, StderrSubscriber, TraceSubscriber};
use caai_stream::{identify_bytes_obs, open_path, FollowConfig, StreamConfig, StreamStats};
use caai_webmodel::WebServer;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The workload names, in the order they are run and reported.
pub const NAMES: [&str; 4] = [
    "census_sim",
    "census_live",
    "identify_offline",
    "identify_follow",
];

/// Set-ups a run makes at least; `setup_s` is the median of them all.
pub const SETUPS: usize = 3;
/// Seconds a run keeps setting up, at least. A census set-up takes a
/// tenth of a second, and the median of three such readings differed by
/// 23 % between two runs of one seed; twenty of them give a steadier one.
pub const SETUP_SECONDS: f64 = 2.0;
/// Untimed repetitions before the timed ones, at least.
pub const WARMUPS: usize = 2;
/// Seconds of untimed repetitions before the timed ones, at least: a
/// process's first seconds can run in a faster mode than the rest of
/// its life (seen on `identify_follow`: the first five repetitions twice
/// as fast as the next twenty).
pub const WARMUP_SECONDS: f64 = 3.0;
/// Timed repetitions a run makes at least, however short `--seconds` is.
pub const MIN_REPETITIONS: usize = 3;

fn other(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// What checking one repetition's outputs found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Score {
    /// Operations (servers, targets, sessions) the repetition attempted.
    pub attempted: u64,
    /// Operations with no record, an aborted transport, or a verdict
    /// that differs from the reference.
    pub failed: u64,
    /// Confident identifications scored against ground truth.
    pub identified_total: u64,
    /// Those that named the right class.
    pub identified_correct: u64,
}

impl std::ops::AddAssign for Score {
    fn add_assign(&mut self, other: Score) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.identified_total += other.identified_total;
        self.identified_correct += other.identified_correct;
    }
}

/// One of the four workloads.
pub trait Workload: Sized {
    /// Name in `BENCHMARK.json`.
    const NAME: &'static str;

    /// Builds every input from the seed. Timed: this is `setup_s`.
    fn setup(seed: u64, scale: &Scale, scratch: &Path) -> io::Result<Self>;

    /// Builds the references the check compares against, where that
    /// takes running the program. Untimed, and not part of `setup_s`.
    fn reference(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// Input shape, for the result file.
    fn shape(&self) -> Vec<(&'static str, u64)>;

    /// Servers (targets, sessions) one repetition gives a verdict.
    fn operations(&self) -> u64;

    /// One whole job, then the check of its outputs. Returns the job's
    /// wall time — call to return, the check not included — and what the
    /// check found.
    fn repetition(&mut self) -> io::Result<(f64, Score)>;
}

/// What one end-to-end run of a workload measured.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Workload name.
    pub workload: &'static str,
    /// Input shape.
    pub shape: Vec<(&'static str, u64)>,
    /// Seconds per set-up.
    pub setup_s: Summary,
    /// Wall seconds of each timed repetition, in order.
    pub walls: Vec<f64>,
    /// Operations one repetition completes.
    pub operations: u64,
    /// Process CPU seconds (all threads) of each timed repetition.
    pub cpu_s_per_rep: Summary,
    /// `VmHWM` over the timed section (over the whole process if the
    /// kernel refused the reset). Reported beside the metrics, not as one:
    /// see `mem.peak_rss_mb.*` in the per-layer table.
    pub peak_rss_mb: f64,
    /// Summed over the timed repetitions.
    pub score: Score,
}

impl EndToEnd {
    /// Operations per second, from each repetition's wall time.
    pub fn servers_per_s(&self) -> Summary {
        Summary::of(&self.walls).map(|wall| self.operations as f64 / wall)
    }

    /// Share of scored identifications that were right.
    pub fn identified_accuracy(&self) -> f64 {
        self.score.identified_correct as f64 / self.score.identified_total.max(1) as f64
    }

    /// Whether every output of every repetition matched its reference.
    pub fn correct(&self) -> bool {
        self.score.failed == 0
    }
}

/// Runs one workload end to end: set-ups (at least [`SETUPS`], for at
/// least [`SETUP_SECONDS`]), warm-ups (at least [`WARMUPS`], for at least
/// [`WARMUP_SECONDS`]), then timed repetitions of the fixed input for
/// `seconds`. A run shorter than those floors (a smoke run) cuts them to
/// its own length.
pub fn measure<W: Workload>(
    seed: u64,
    scale: &Scale,
    seconds: f64,
    scratch: &Path,
) -> io::Result<EndToEnd> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut workload = None;
    let setting_up = Instant::now();
    while setups.len() < SETUPS || setting_up.elapsed().as_secs_f64() < SETUP_SECONDS.min(seconds) {
        // Free the previous set-up first (for the fleet: its ports).
        drop(workload.take());
        let started = Instant::now();
        workload = Some(W::setup(seed, scale, scratch)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("SETUPS is at least one");
    workload.reference()?;

    let started = Instant::now();
    let mut warmups = 0;
    while warmups < WARMUPS || started.elapsed().as_secs_f64() < WARMUP_SECONDS.min(seconds) {
        workload.repetition()?;
        warmups += 1;
    }

    stats::reset_peak_rss();
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut score = Score::default();
    let started = Instant::now();
    while walls.len() < MIN_REPETITIONS || started.elapsed().as_secs_f64() < seconds {
        let cpu_before = stats::cpu_seconds();
        let (wall, rep) = workload.repetition()?;
        cpus.push(stats::cpu_seconds() - cpu_before);
        walls.push(wall);
        score += rep;
    }
    let peak_rss_mb = stats::peak_rss_mb();

    Ok(EndToEnd {
        workload: W::NAME,
        shape: workload.shape(),
        setup_s: Summary::of(&setups),
        operations: workload.operations(),
        cpu_s_per_rep: Summary::of(&cpus),
        walls,
        peak_rss_mb,
        score,
    })
}

/// Scores verdicts against expected ones, key by key. `expected` maps a
/// key to the verdict it must get and the server's true algorithm.
fn score_verdicts<K: Ord>(
    expected: &BTreeMap<K, (Verdict, AlgorithmId)>,
    got: impl IntoIterator<Item = (K, Verdict)>,
) -> Score {
    let mut score = Score {
        attempted: expected.len() as u64,
        ..Score::default()
    };
    let mut matched = 0u64;
    let mut seen = std::collections::BTreeSet::new();
    for (key, verdict) in got {
        let Some((want, algorithm)) = expected.get(&key) else {
            score.failed += 1; // a verdict for a session nobody rendered
            continue;
        };
        if !seen.insert(key) {
            score.failed += 1; // the same operation reported twice
            continue;
        }
        if verdict == *want {
            matched += 1;
        }
        if let Verdict::Identified(class, wmax) = verdict {
            score.identified_total += 1;
            score.identified_correct += u64::from(class.matches(*algorithm, wmax));
        }
    }
    // Missing and differing verdicts both leave `matched` short.
    score.failed += score.attempted - matched;
    score
}

// ---------------------------------------------------------------------
// census_sim
// ---------------------------------------------------------------------

/// `census_sim`: the paper's own workload, a census of a synthetic
/// population through the simulator transport.
pub struct SimCensus {
    /// The census seed (also the population's).
    pub seed: u64,
    /// The population.
    pub population: Vec<WebServer>,
    /// The trained census driver (the engine holds a clone).
    pub census: Census,
    engine: CensusEngine,
    /// The engine configuration of the end-to-end passes.
    pub config: EngineConfig,
    /// Where the JSONL report goes.
    pub report_path: PathBuf,
    /// Records every repetition must reproduce, in id order.
    reference: Vec<CensusRecord>,
}

impl SimCensus {
    /// One whole census of `servers` (the population or a prefix of
    /// it), as `cmd_census` runs it.
    pub fn run(
        &self,
        engine: &CensusEngine,
        servers: &[WebServer],
        trace: Option<&TraceSubscriber>,
    ) -> io::Result<EngineOutcome> {
        let mut sink = JsonlSink::create(&self.report_path)?;
        sink.write_meta(&JsonlMeta {
            seed: self.seed,
            population: servers.len() as u64,
            shard: ShardSpec::full(),
        })?;
        let metrics = MetricsSubscriber::new();
        let outcome = engine
            .run_obs(
                servers,
                &mut [&mut sink as &mut dyn ResultSink],
                None,
                &(trace, &metrics),
            )
            .map_err(other)?;
        if let Some(trace) = trace {
            trace.finish();
        }
        Ok(outcome)
    }

    /// An engine over this census with another worker count.
    pub fn engine_with_workers(&self, workers: usize) -> CensusEngine {
        CensusEngine::new(
            self.census.clone(),
            EngineConfig {
                workers,
                ..self.config.clone()
            },
        )
    }

    /// The engine of the end-to-end passes (one worker).
    pub fn engine(&self) -> &CensusEngine {
        &self.engine
    }

    /// Checks the last run's report file against the reference records.
    pub fn score(&self, outcome: &EngineOutcome) -> io::Result<Score> {
        let records = read_jsonl(&self.report_path)?;
        let attempted = self.population.len() as u64;
        let matching = self
            .reference
            .iter()
            .filter(|want| {
                records
                    .binary_search_by_key(&want.server_id, |r| r.server_id)
                    .is_ok_and(|i| records[i] == **want)
            })
            .count() as u64;
        let failed = if outcome.completed {
            attempted - matching
        } else {
            attempted
        };
        Ok(Score {
            attempted,
            failed,
            identified_total: outcome.report.identified_total as u64,
            identified_correct: outcome.report.identified_correct as u64,
        })
    }
}

impl Workload for SimCensus {
    const NAME: &'static str = "census_sim";

    fn setup(seed: u64, scale: &Scale, scratch: &Path) -> io::Result<Self> {
        let classifier = inputs::classifier(seed);
        let population = inputs::population(seed, scale.servers);
        let census = Census::new(
            classifier,
            ConditionDb::paper_2011(),
            ProberConfig::default(),
        );
        // The CLI's defaults for a long census, at one worker: 2-worker
        // runs on a 2-vCPU host spread too widely to be an end-to-end
        // metric, so worker scaling is a per-layer row instead.
        let config = EngineConfig {
            seed,
            workers: 1,
            batch_size: 16,
            checkpoint_path: Some(scratch.join("census_sim.checkpoint.json")),
            checkpoint_every: 256,
            ..EngineConfig::default()
        };
        Ok(SimCensus {
            seed,
            engine: CensusEngine::new(census.clone(), config.clone()),
            census,
            population,
            config,
            report_path: scratch.join("census_sim.jsonl"),
            reference: Vec::new(),
        })
    }

    /// Worker-count invariance is part of the reference: it comes from a
    /// 2-worker run, while the timed runs use one worker.
    fn reference(&mut self) -> io::Result<()> {
        let outcome = self.run(&self.engine_with_workers(2), &self.population, None)?;
        if !outcome.completed {
            return Err(other("the reference census did not complete"));
        }
        self.reference = read_jsonl(&self.report_path)?;
        Ok(())
    }

    fn shape(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("servers", self.population.len() as u64),
            ("workers", self.config.workers as u64),
        ]
    }

    fn operations(&self) -> u64 {
        self.population.len() as u64
    }

    fn repetition(&mut self) -> io::Result<(f64, Score)> {
        let started = Instant::now();
        let outcome = self.run(&self.engine, &self.population, None)?;
        let wall = started.elapsed().as_secs_f64();
        Ok((wall, self.score(&outcome)?))
    }
}

// ---------------------------------------------------------------------
// census_live
// ---------------------------------------------------------------------

/// The subscriber stack `cmd_census_net` shares between the reactor and
/// the engine.
pub type LiveObs = (Option<TraceSubscriber>, MetricsSubscriber);

/// `census_live`: a census of a loopback fleet over real sockets. The
/// traffic crosses the host's loopback interface, never a real link.
pub struct LiveCensus {
    seed: u64,
    /// Kept alive for the listeners' sake.
    _fleet: Fleet,
    /// The target list, and the algorithm behind each entry.
    pub targets: Vec<caai_net::Target>,
    /// The trained classifier.
    pub classifier: CaaiClassifier,
    /// The transport of the end-to-end passes and its subscriber stack.
    transport: NetTransport<LiveObs>,
    obs: Arc<LiveObs>,
    /// The engine configuration (two workers: two probes in flight).
    pub config: EngineConfig,
    report_path: PathBuf,
    expected: BTreeMap<u32, (Verdict, AlgorithmId)>,
}

/// A reactor over `targets` (`NetConfig::default()` except for the
/// session cap; no rate limit), optionally traced.
fn live_transport(
    targets: &[caai_net::Target],
    classifier: &CaaiClassifier,
    max_sessions: usize,
    trace: Option<TraceSubscriber>,
) -> io::Result<(NetTransport<LiveObs>, Arc<LiveObs>)> {
    let obs = Arc::new((trace, MetricsSubscriber::new()));
    let config = NetConfig {
        max_sessions,
        ..NetConfig::default()
    };
    let transport = NetTransport::new(
        targets.to_vec(),
        classifier.clone(),
        config,
        Arc::clone(&obs),
    )?;
    Ok((transport, obs))
}

impl LiveCensus {
    /// A fresh reactor over the same targets, optionally traced.
    pub fn transport(
        &self,
        max_sessions: usize,
        trace: Option<TraceSubscriber>,
    ) -> io::Result<(NetTransport<LiveObs>, Arc<LiveObs>)> {
        live_transport(&self.targets, &self.classifier, max_sessions, trace)
    }

    /// One whole live census over `transport`, as `cmd_census_net` runs
    /// it.
    pub fn run<T: caai_core::ProbeTransport>(
        &self,
        transport: &T,
        obs: &LiveObs,
        workers: usize,
    ) -> io::Result<EngineOutcome> {
        let mut sink = JsonlSink::create(&self.report_path)?;
        sink.write_meta(&JsonlMeta {
            seed: self.seed,
            population: self.targets.len() as u64,
            shard: ShardSpec::full(),
        })?;
        let config = EngineConfig {
            workers,
            ..self.config.clone()
        };
        let outcome = run_transport_obs(
            transport,
            &config,
            &mut [&mut sink as &mut dyn ResultSink],
            None,
            obs,
        )
        .map_err(other)?;
        if let Some(trace) = &obs.0 {
            trace.finish();
        }
        Ok(outcome)
    }

    /// Checks the last run's report file: every target's verdict must be
    /// the one the simulator gives an ideal server of its algorithm.
    pub fn score(&self, outcome: &EngineOutcome) -> io::Result<Score> {
        let records = read_jsonl(&self.report_path)?;
        let mut score = score_verdicts(
            &self.expected,
            records.iter().map(|r| (r.server_id, r.verdict)),
        );
        if !outcome.completed {
            score.failed = score.attempted;
        }
        Ok(score)
    }

    /// Sessions the end-to-end reactor may run at once.
    pub const MAX_SESSIONS: usize = 2;
    /// Engine workers, i.e. probes in flight (closed loop, two callers).
    pub const WORKERS: usize = 2;
}

impl Workload for LiveCensus {
    const NAME: &'static str = "census_live";

    fn setup(seed: u64, scale: &Scale, scratch: &Path) -> io::Result<Self> {
        let classifier = inputs::classifier(seed);
        let fleet = Fleet::spawn()?;
        let (targets, truth) = fleet.targets(seed, scale.targets);
        let (transport, obs) = live_transport(&targets, &classifier, Self::MAX_SESSIONS, None)?;
        let ideal = inputs::ideal_verdicts(&classifier);
        let expected = truth
            .iter()
            .enumerate()
            .map(|(id, algo)| (id as u32, (ideal[algo], *algo)))
            .collect();
        Ok(LiveCensus {
            seed,
            _fleet: fleet,
            targets,
            classifier,
            transport,
            obs,
            config: EngineConfig {
                seed,
                workers: Self::WORKERS,
                batch_size: 16,
                ..EngineConfig::default()
            },
            report_path: scratch.join("census_live.jsonl"),
            expected,
        })
    }

    fn shape(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("targets", self.targets.len() as u64),
            ("listeners", ALL_IDENTIFIED.len() as u64),
            ("workers", Self::WORKERS as u64),
            ("max_sessions", Self::MAX_SESSIONS as u64),
        ]
    }

    fn operations(&self) -> u64 {
        self.targets.len() as u64
    }

    fn repetition(&mut self) -> io::Result<(f64, Score)> {
        let started = Instant::now();
        let outcome = self.run(&self.transport, &self.obs, Self::WORKERS)?;
        let wall = started.elapsed().as_secs_f64();
        Ok((wall, self.score(&outcome)?))
    }
}

// ---------------------------------------------------------------------
// identify_offline and identify_follow
// ---------------------------------------------------------------------

/// A session's addresses: what ties a verdict to its reference.
pub type SessionKey = ([u8; 4], [u8; 4]);

fn keyed(sessions: &[SessionReport]) -> impl Iterator<Item = (SessionKey, Verdict)> + '_ {
    sessions
        .iter()
        .map(|s| ((s.client_ip, s.server_ip), s.record.verdict))
}

/// The capture file both ingestion workloads read, with its references.
pub struct CaptureFile {
    /// Where the classic-pcap file is.
    pub path: PathBuf,
    /// Its size.
    pub bytes: u64,
    /// Frames in it.
    pub packets: u64,
    /// Timelines merged into it.
    pub lanes: usize,
    /// The trained classifier.
    pub classifier: CaaiClassifier,
    /// Verdict each session must get — that of the `GatherOutcome` the
    /// renderer measured for it — and the session's true algorithm.
    pub rendered: BTreeMap<SessionKey, (Verdict, AlgorithmId)>,
    report_path: PathBuf,
}

impl CaptureFile {
    /// Renders the capture, writes it out, and drops the in-memory copy:
    /// from here on the file is the input.
    pub fn build(seed: u64, scale: &Scale, scratch: &Path, name: &str) -> io::Result<Self> {
        let classifier = inputs::classifier(seed);
        let capture = inputs::capture(seed, scale.bulk_bytes, scale.mice, scale.lanes);
        let path = scratch.join(format!("{name}.pcap"));
        std::fs::write(&path, &capture.bytes)?;
        Ok(CaptureFile {
            path,
            bytes: capture.bytes.len() as u64,
            packets: capture.packets,
            lanes: capture.lanes,
            rendered: inputs::reference_verdicts(&capture.sessions, &classifier),
            classifier,
            report_path: scratch.join(format!("{name}.jsonl")),
        })
    }

    fn path_str(&self) -> &str {
        self.path.to_str().expect("scratch paths are UTF-8")
    }

    fn shape(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("bytes", self.bytes),
            ("packets", self.packets),
            ("sessions", self.rendered.len() as u64),
            ("lanes", self.lanes as u64),
        ]
    }

    /// `caai identify --pcap FILE --out REPORT`: read the file, identify
    /// every session, stream every record through the sinks.
    pub fn identify_offline(
        &self,
        trace: Option<&TraceSubscriber>,
    ) -> io::Result<Vec<SessionReport>> {
        let bytes = std::fs::read(&self.path)?;
        let metrics = MetricsSubscriber::new();
        let obs = (trace, (StderrSubscriber::new(self.path_str()), &metrics));
        let verdicts = identify_bytes_obs(&bytes, &self.classifier, None, &obs).map_err(other)?;
        if let Some(trace) = trace {
            trace.finish();
        }
        let mut aggregate = AggregatingSink::new();
        let mut jsonl = JsonlSink::create(&self.report_path)?;
        for session in &verdicts.sessions {
            aggregate.emit(&session.record)?;
            jsonl.emit(&session.record)?;
        }
        jsonl.flush()?;
        if !verdicts.skipped.is_empty() || verdicts.truncated.is_some() {
            return Err(other("the generated capture did not ingest cleanly"));
        }
        Ok(verdicts.sessions)
    }

    /// `caai identify --pcap FILE --follow --out REPORT` on a complete
    /// file: the streaming pipeline from open to EOF, each verdict
    /// through the sinks (and flushed) the moment it is final.
    pub fn identify_follow<S: caai_stream::CaptureSource>(
        &self,
        source: &mut S,
        workers: usize,
        trace: Option<&TraceSubscriber>,
    ) -> io::Result<(Vec<(SessionKey, Verdict)>, StreamStats)> {
        let config = StreamConfig {
            workers,
            ..StreamConfig::default()
        };
        let mut aggregate = AggregatingSink::new();
        let mut jsonl = JsonlSink::create(&self.report_path)?;
        let mut verdicts = Vec::with_capacity(self.rendered.len());
        let mut sink_error = None;
        let metrics = MetricsSubscriber::new();
        let obs = (trace, (StderrSubscriber::new(self.path_str()), &metrics));
        let on_verdict = |s: &SessionReport| {
            verdicts.push(((s.client_ip, s.server_ip), s.record.verdict));
            let emitted = aggregate
                .emit(&s.record)
                .and_then(|()| jsonl.emit(&s.record))
                .and_then(|()| jsonl.flush());
            if let Err(e) = emitted {
                sink_error.get_or_insert(e);
            }
        };
        let stats = caai_stream::run_obs(source, &self.classifier, &config, on_verdict, &obs)
            .map_err(other)?;
        if let Some(trace) = trace {
            trace.finish();
        }
        if let Some(e) = sink_error {
            return Err(e);
        }
        if !stats.skipped.is_empty() || stats.truncated.is_some() {
            return Err(other("the generated capture did not stream cleanly"));
        }
        Ok((verdicts, stats))
    }

    /// Opens the capture file the way the CLI does for a path argument.
    pub fn open(&self) -> io::Result<caai_stream::OpenedSource> {
        open_path(self.path_str(), &FollowConfig::default())
    }
}

/// `identify_offline`: the whole-file ingestion path.
pub struct IdentifyOffline {
    /// The capture and its references.
    pub file: CaptureFile,
}

impl IdentifyOffline {
    /// Checks one pass's sessions against what the renderer measured.
    pub fn score(file: &CaptureFile, sessions: &[SessionReport]) -> Score {
        score_verdicts(&file.rendered, keyed(sessions))
    }
}

impl Workload for IdentifyOffline {
    const NAME: &'static str = "identify_offline";

    fn setup(seed: u64, scale: &Scale, scratch: &Path) -> io::Result<Self> {
        Ok(IdentifyOffline {
            file: CaptureFile::build(seed, scale, scratch, Self::NAME)?,
        })
    }

    fn shape(&self) -> Vec<(&'static str, u64)> {
        self.file.shape()
    }

    fn operations(&self) -> u64 {
        self.file.rendered.len() as u64
    }

    fn repetition(&mut self) -> io::Result<(f64, Score)> {
        let started = Instant::now();
        let sessions = self.file.identify_offline(None)?;
        let wall = started.elapsed().as_secs_f64();
        Ok((wall, Self::score(&self.file, &sessions)))
    }
}

/// `identify_follow`: the same bytes through the streaming pipeline.
pub struct IdentifyFollow {
    /// The capture and its references.
    pub file: CaptureFile,
    /// What `identify_offline` concludes from the same bytes — the
    /// verdict stream this workload must reproduce.
    pub offline: BTreeMap<SessionKey, (Verdict, AlgorithmId)>,
}

impl IdentifyFollow {
    /// Workers of the end-to-end passes.
    pub const WORKERS: usize = 1;

    /// Pairs each rendered session's true algorithm with the verdict the
    /// offline path gives it.
    pub fn offline_reference(
        file: &CaptureFile,
    ) -> io::Result<BTreeMap<SessionKey, (Verdict, AlgorithmId)>> {
        let sessions = file.identify_offline(None)?;
        Ok(keyed(&sessions)
            .filter_map(|(key, verdict)| {
                let (_, algorithm) = file.rendered.get(&key)?;
                Some((key, (verdict, *algorithm)))
            })
            .collect())
    }

    /// Checks one pass's verdict stream against the offline path's.
    pub fn score(
        file: &CaptureFile,
        offline: &BTreeMap<SessionKey, (Verdict, AlgorithmId)>,
        verdicts: Vec<(SessionKey, Verdict)>,
    ) -> Score {
        let mut score = score_verdicts(offline, verdicts);
        // A session the offline path lost is lost here too.
        let missing = (file.rendered.len() - offline.len()) as u64;
        score.attempted += missing;
        score.failed += missing;
        score
    }
}

impl Workload for IdentifyFollow {
    const NAME: &'static str = "identify_follow";

    fn setup(seed: u64, scale: &Scale, scratch: &Path) -> io::Result<Self> {
        Ok(IdentifyFollow {
            file: CaptureFile::build(seed, scale, scratch, Self::NAME)?,
            offline: BTreeMap::new(),
        })
    }

    fn reference(&mut self) -> io::Result<()> {
        self.offline = Self::offline_reference(&self.file)?;
        Ok(())
    }

    fn shape(&self) -> Vec<(&'static str, u64)> {
        let mut shape = self.file.shape();
        shape.push(("workers", Self::WORKERS as u64));
        shape
    }

    fn operations(&self) -> u64 {
        self.file.rendered.len() as u64
    }

    fn repetition(&mut self) -> io::Result<(f64, Score)> {
        let started = Instant::now();
        let mut source = self.file.open()?;
        let (verdicts, _) = self
            .file
            .identify_follow(&mut source, Self::WORKERS, None)?;
        let wall = started.elapsed().as_secs_f64();
        Ok((wall, Self::score(&self.file, &self.offline, verdicts)))
    }
}

/// Runs the named workload end to end.
pub fn measure_named(
    name: &str,
    seed: u64,
    scale: &Scale,
    seconds: f64,
    scratch: &Path,
) -> io::Result<EndToEnd> {
    match name {
        SimCensus::NAME => measure::<SimCensus>(seed, scale, seconds, scratch),
        LiveCensus::NAME => measure::<LiveCensus>(seed, scale, seconds, scratch),
        IdentifyOffline::NAME => measure::<IdentifyOffline>(seed, scale, seconds, scratch),
        IdentifyFollow::NAME => measure::<IdentifyFollow>(seed, scale, seconds, scratch),
        other_name => Err(other(format!("unknown workload {other_name:?}"))),
    }
}
