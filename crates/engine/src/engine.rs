//! The census engine proper: worker pool, record streaming, checkpoint
//! cadence, budget enforcement.
//!
//! ## Transport seam
//!
//! The engine schedules *ids*, not servers: [`run_transport`] drives any
//! [`ProbeTransport`] — the simulator ([`caai_core::transport::SimTransport`],
//! what [`CensusEngine::run`] wraps) or `caai-net`'s real-socket
//! `NetTransport` — through the same checkpoints, shards, and sinks. The
//! transport owns record production; the engine owns everything after.
//!
//! How the probes run follows from the transport, never from a setting.
//! One that holds probes itself (a nonzero
//! [`capacity`](ProbeTransport::capacity): `caai-net`'s reactors) gets
//! them submitted from the caller's thread, up to that many in flight:
//! each time one finishes the next is submitted, and then the finished
//! record folds. No worker thread runs. Any other transport (the
//! simulator) gets the worker pool below. Before returning, on any path,
//! the engine collects every probe it submitted, so a transport can
//! serve one run after another.
//!
//! ## Determinism contract
//!
//! Every probe is keyed on `(seed, server_id)` and all aggregation is
//! order-independent (commutative counter folds keyed by verdict and
//! `server_id`). Consequently the report is a pure function of
//! `(transport, seed, shard)` — independent of worker count, batch size,
//! scheduling interleavings, and of how many times the run was
//! interrupted and resumed. For the simulator transport the probes
//! themselves are pure too, so the whole report reduces to
//! `(population, seed, shard)`; a real network answers however it
//! pleases, and the engine stays deterministic *given the records*. A
//! probe budget cuts the work list before any worker starts, so a
//! budgeted partial report adds only the budget and the resume
//! checkpoint to those inputs; a deadline is the one stop that depends
//! on timing.
//!
//! ## Memory contract
//!
//! The engine retains O(aggregates + bitmap + work list) state, never
//! O(records): a [`caai_core::census::CensusReport`] fold plus one
//! bit per server id, both inside the live [`Checkpoint`], and the
//! pending work list (4 bytes per not-yet-probed owned server, shrinking
//! as the run proceeds — 125 KB of bitmap plus up to 4 MB of work list
//! at 10⁶ servers). Records stream through to the sinks and are dropped;
//! nothing grows with the number of *completed* records. Attach an
//! [`crate::sink::AggregatingSink`] to opt back into record retention.
//!
//! ## One queue
//!
//! On the worker path, workers hand records to one bounded queue; the
//! caller's thread drains it, and for each record folds the aggregates,
//! emits the census event, writes every sink and, when a checkpoint falls
//! due, flushes the sinks, then the subscriber, then saves; then it
//! checks the deadline (the submit path folds with the same step). The write
//! barrier that keeps a checkpoint from claiming a record the sinks have
//! not durably written is program order. The sinks in the tree (a
//! buffered JSONL file, an in-memory record list, a report) cost a
//! microsecond or two a record against probes of tens of microseconds or
//! more, so a sink rarely stalls the queue; when one does, workers block
//! in `send` instead of growing a backlog. A sink or checkpoint error ends
//! the loop and drops the queue's receiver, so every worker's next
//! hand-over fails and it exits.
//!
//! ## Hand-overs
//!
//! Records change threads a hand-over at a time, not one by one: a worker
//! keeps what it finishes until it holds a claimed batch's worth or 2 ms
//! (`HANDOVER_INTERVAL`) have passed since it last handed over, and the
//! coordinator folds each hand-over whole. A record that crosses alone
//! wakes a parked thread, which at simulator speed costs a sizeable share
//! of the probe that made it; a transport whose probes outlast the
//! interval (live sockets: milliseconds to minutes) still delivers every
//! record as it completes. Which of the two happens follows from the
//! probe times observed, not from a setting.

use crate::budget::Budget;
use crate::checkpoint::Checkpoint;
use crate::scheduler::BatchScheduler;
use crate::shard::ShardSpec;
use crate::sink::ResultSink;
use caai_core::census::{Census, CensusRecord, CensusReport};
use caai_core::transport::{ProbeTransport, SimTransport};
use caai_obs::{
    span_begin, span_begin_with_parent, CensusRecordObserved, CensusResumed, CheckpointWritten,
    Event, NullSubscriber, SpanKind, Subscriber, VerdictKind,
};
use caai_webmodel::WebServer;
use std::fmt;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Tuning and policy knobs for one engine run.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Census seed; with the population it fully determines the report.
    pub seed: u64,
    /// Worker threads probing servers.
    pub workers: usize,
    /// Servers claimed per scheduler batch.
    pub batch_size: usize,
    /// Which shard of the population this run probes (`0/1` = all).
    pub shard: ShardSpec,
    /// Where to write checkpoints (`None` disables checkpointing).
    pub checkpoint_path: Option<PathBuf>,
    /// Checkpoint after every this many newly completed records.
    pub checkpoint_every: u64,
    /// Probe/deadline budget for this run.
    pub budget: Budget,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            seed: 1,
            workers: 4,
            batch_size: 16,
            shard: ShardSpec::full(),
            checkpoint_path: None,
            checkpoint_every: 256,
            budget: Budget::unlimited(),
        }
    }
}

/// The result of one engine run.
#[derive(Debug, Clone)]
pub struct EngineOutcome {
    /// The (possibly partial) census report over this run's shard.
    /// Attach an [`crate::sink::AggregatingSink`] for records.
    pub report: CensusReport,
    /// Whether every owned server was probed; `false` when the probe or
    /// wall-clock budget ran out first.
    pub completed: bool,
    /// How many checkpoint files this run wrote. A final write that
    /// would duplicate a write made earlier in the same run (no new
    /// records since) is skipped. A run that resumed and probed nothing
    /// still writes once: its `checkpoint_path` may differ from wherever
    /// the resume checkpoint was loaded from, and must end up current.
    pub checkpoints_written: u64,
}

/// Errors an engine run can hit.
#[derive(Debug)]
pub enum EngineError {
    /// A sink or checkpoint I/O failure.
    Io(io::Error),
    /// The resume checkpoint does not match this run's parameters.
    CheckpointMismatch(String),
    /// The configuration or population is invalid (e.g. a bad shard
    /// spec, or a server id outside `0..population`).
    Config(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Io(e) => write!(f, "census I/O error: {e}"),
            EngineError::CheckpointMismatch(msg) => {
                write!(f, "checkpoint mismatch: {msg}")
            }
            EngineError::Config(msg) => write!(f, "invalid engine config: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<io::Error> for EngineError {
    fn from(e: io::Error) -> Self {
        EngineError::Io(e)
    }
}

/// How long a worker may keep finished records to itself.
const HANDOVER_INTERVAL: Duration = Duration::from_millis(2);

/// Whether a worker that holds `held` finished records, of a claimed batch
/// of `batch`, gives them to the coordinator now, `since` its last
/// hand-over.
fn hands_over(held: usize, batch: usize, since: Duration) -> bool {
    held >= batch || since >= HANDOVER_INTERVAL
}

/// How many hand-overs the workers' queue holds before a worker blocks.
const QUEUE_DEPTH: usize = 1024;

/// The streaming census engine over the simulator transport. See the
/// crate docs for an example, and [`run_transport`] for driving other
/// transports through the same machinery.
#[derive(Debug)]
pub struct CensusEngine {
    census: Census,
    config: EngineConfig,
}

impl CensusEngine {
    /// Creates an engine around a trained census driver.
    pub fn new(census: Census, config: EngineConfig) -> Self {
        CensusEngine { census, config }
    }

    /// The configuration this engine runs with.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Runs the census over this run's shard of `servers`, streaming
    /// records to `sinks` and optionally resuming from a checkpoint.
    ///
    /// Servers already completed in `resume` are not re-probed and not
    /// counted against the budget; their aggregates seed the report.
    /// Resumed records are *not* replayed into the sinks — a checkpoint
    /// holds aggregates, not records. Keep the original JSONL file and
    /// open the sink in append mode
    /// ([`crate::sink::JsonlSink::append`]) instead. Returns once the
    /// owned population is exhausted, the budget runs out, or an I/O
    /// error occurs.
    pub fn run(
        &self,
        servers: &[WebServer],
        sinks: &mut [&mut dyn ResultSink],
        resume: Option<Checkpoint>,
    ) -> Result<EngineOutcome, EngineError> {
        self.run_obs(servers, sinks, resume, &NullSubscriber)
    }

    /// [`run`](Self::run) with a structured-event subscriber.
    ///
    /// The engine emits [`CensusRecordObserved`] from the (single-threaded)
    /// coordinator as each fresh record folds in, [`CensusResumed`] once
    /// when a checkpoint seeds the run, and [`CheckpointWritten`] after
    /// every durable checkpoint; workers forward the prober's rung events
    /// and [`caai_obs::ProbeTimed`] stage splits. The outcome is identical
    /// to the unobserved call — events never influence scheduling or
    /// verdicts. With a [`NullSubscriber`] the whole observation path
    /// compiles out.
    pub fn run_obs<S: Subscriber>(
        &self,
        servers: &[WebServer],
        sinks: &mut [&mut dyn ResultSink],
        resume: Option<Checkpoint>,
        obs: &S,
    ) -> Result<EngineOutcome, EngineError> {
        let transport = SimTransport::new(&self.census, servers).map_err(EngineError::Config)?;
        run_transport_obs(&transport, &self.config, sinks, resume, obs)
    }
}

/// Runs a census over `config`'s shard of whatever population
/// `transport` fronts, streaming records to `sinks` and optionally
/// resuming from a checkpoint. Scheduling, checkpoint cadence, budget
/// enforcement, and the sink write barrier are identical to
/// [`CensusEngine::run`] — only record production is delegated.
pub fn run_transport<T: ProbeTransport>(
    transport: &T,
    config: &EngineConfig,
    sinks: &mut [&mut dyn ResultSink],
    resume: Option<Checkpoint>,
) -> Result<EngineOutcome, EngineError> {
    run_transport_obs(transport, config, sinks, resume, &NullSubscriber)
}

/// [`run_transport`] with a structured-event subscriber (see
/// [`CensusEngine::run_obs`] for what the engine itself emits; the
/// transport adds its own events — e.g. `caai-net`'s session lifecycle).
pub fn run_transport_obs<T: ProbeTransport, S: Subscriber>(
    transport: &T,
    config: &EngineConfig,
    sinks: &mut [&mut dyn ResultSink],
    resume: Option<Checkpoint>,
    obs: &S,
) -> Result<EngineOutcome, EngineError> {
    let seed = config.seed;
    let shard = config.shard;
    shard.validate().map_err(EngineError::Config)?;
    let population = transport.population();
    if population > u64::from(u32::MAX) {
        return Err(EngineError::Config(format!(
            "population {population} exceeds the u32 id space"
        )));
    }
    let owned_total = shard.owned_count(population);
    let started = Instant::now();

    // The live snapshot IS the engine state: constant-size aggregates
    // plus the completed-id bitmap. No record is retained here.
    let mut live = match resume {
        Some(ck) => {
            ck.ensure_matches(seed, population, shard)
                .map_err(EngineError::CheckpointMismatch)?;
            obs.on_event(&Event::CensusResumed(resumed_counts(&ck.aggregates)));
            ck
        }
        None => Checkpoint::new(seed, population, shard),
    };
    let mut done = live.completed_count();

    // Work list: ids of owned servers without a record yet (u32 — this
    // is the largest engine-owned allocation), cut to the probe budget.
    // Resumed records are not charged to it, and the run probes exactly
    // the first `max_probes` of the rest, whatever the worker count.
    let max_probes = config
        .budget
        .max_probes
        .map_or(usize::MAX, |n| usize::try_from(n).unwrap_or(usize::MAX));
    let pending: Vec<u32> = (0..population as u32)
        .filter(|&id| shard.owns(id) && !live.completed.contains(id))
        .take(max_probes)
        .collect();

    let (mut since_checkpoint, mut last_written, mut checkpoints_written) = (0, None, 0);
    // Coordinator, record by record: fold the aggregates, mark the
    // bitmap, write the sinks, checkpoint, and tell whether the deadline
    // has passed.
    let mut fold = |record: &CensusRecord| -> Result<bool, EngineError> {
        live.observe(record);
        obs.on_event(&Event::CensusRecordObserved(CensusRecordObserved {
            verdict: record.verdict.kind(),
            wmax: record.verdict.wmax(),
        }));
        done += 1;
        since_checkpoint += 1;
        for sink in sinks.iter_mut() {
            sink.emit(record)?;
        }
        if config.checkpoint_path.is_some() && since_checkpoint >= config.checkpoint_every {
            since_checkpoint = 0;
            // Write barrier: every record in this checkpoint is already
            // flushed through the sinks, and whatever the subscriber
            // buffered about it (trace spans) with it — resume skips
            // these servers, nothing recreates either.
            flush_sinks(sinks)?;
            obs.flush();
            save_checkpoint(config, &live)?;
            last_written = Some(done);
            checkpoints_written += 1;
            obs.on_event(&Event::CheckpointWritten(CheckpointWritten {
                records: done,
            }));
        }
        Ok(config.budget.expired(started))
    };

    // A transport that holds probes itself has them submitted from this
    // thread; any other gets a pool of workers, each blocking in `probe`.
    let capacity = transport.capacity();
    let workers = config.workers.max(1).min(pending.len().max(1));
    let slots = if capacity > 0 { capacity } else { workers };
    let run_span = span_begin(obs, SpanKind::CensusRun, owned_total as i64, slots as i64);
    let run_id = run_span.id();
    let result = if capacity > 0 {
        let mut ids = pending.iter();
        let mut submit = |in_flight: &mut usize| {
            for &id in ids.by_ref().take(capacity - *in_flight) {
                transport.submit(id, seed);
                *in_flight += 1;
            }
        };
        let (mut in_flight, mut stopped, mut folded) = (0, false, Ok(()));
        submit(&mut in_flight);
        while in_flight > 0 && folded.is_ok() {
            let record = transport.next_finished(obs);
            in_flight -= 1;
            // The next probe is under way while the sinks write.
            if !stopped {
                submit(&mut in_flight);
            }
            folded = fold(&record).map(|expired| stopped |= expired);
        }
        // A sink or checkpoint error leaves probes in flight: collect them,
        // so that none reaches a later run over the same transport.
        for _ in 0..in_flight {
            transport.next_finished(&NullSubscriber);
        }
        folded
    } else {
        let scheduler = BatchScheduler::new(pending.len(), config.batch_size);
        let stop = AtomicBool::new(false);
        // Bounded: when the coordinator stalls (a slow sink, a checkpoint
        // write), workers block in send instead of growing a backlog.
        let (tx, rx) = mpsc::sync_channel::<Vec<CensusRecord>>(QUEUE_DEPTH);
        std::thread::scope(|scope| -> Result<(), EngineError> {
            for _ in 0..workers {
                let tx = tx.clone();
                let pending = &pending;
                let scheduler = &scheduler;
                let stop = &stop;
                scope.spawn(move || {
                    let mut held = Vec::new();
                    let mut handed = Instant::now();
                    'claim: while let Some(batch) = scheduler.next_batch() {
                        // Explicit parent: the run span lives on the
                        // coordinator thread, this batch on a worker.
                        let batch_span = span_begin_with_parent(
                            obs,
                            SpanKind::Batch,
                            run_id,
                            batch.start as i64,
                            batch.len() as i64,
                        );
                        let claimed = batch.len();
                        for i in batch {
                            if stop.load(Ordering::Relaxed) {
                                batch_span.end(obs);
                                break 'claim;
                            }
                            let id = pending[i];
                            let record = transport.probe(id, seed, obs);
                            debug_assert_eq!(
                                record.server_id, id,
                                "transport contract: probe(id) returns that id's record"
                            );
                            held.push(record);
                            if hands_over(held.len(), claimed, handed.elapsed()) {
                                if tx.send(std::mem::take(&mut held)).is_err() {
                                    batch_span.end(obs);
                                    break 'claim;
                                }
                                handed = Instant::now();
                            }
                        }
                        batch_span.end(obs);
                    }
                    // Stopped, or out of work between two hand-overs.
                    if !held.is_empty() {
                        let _ = tx.send(held);
                    }
                });
            }
            drop(tx);

            // Returning early drops `rx`, so no worker blocks on a queue
            // nobody drains.
            for record in rx.into_iter().flatten() {
                if fold(&record)? {
                    stop.store(true, Ordering::Relaxed);
                }
            }
            Ok(())
        })
    };
    run_span.end(obs);
    result?;
    flush_sinks(sinks)?;

    // Final checkpoint — skipped when it would be byte-identical to
    // the last one written (no new records completed since).
    if config.checkpoint_path.is_some() && last_written != Some(done) {
        obs.flush();
        save_checkpoint(config, &live)?;
        checkpoints_written += 1;
        obs.on_event(&Event::CheckpointWritten(CheckpointWritten {
            records: done,
        }));
    }

    Ok(EngineOutcome {
        report: live.aggregates,
        completed: done == owned_total,
        checkpoints_written,
    })
}

fn flush_sinks(sinks: &mut [&mut dyn ResultSink]) -> Result<(), EngineError> {
    for sink in sinks.iter_mut() {
        sink.flush()?;
    }
    Ok(())
}

fn save_checkpoint(config: &EngineConfig, live: &Checkpoint) -> Result<(), EngineError> {
    let path = config
        .checkpoint_path
        .as_ref()
        .expect("save_checkpoint called without a checkpoint path");
    live.save(path)?;
    Ok(())
}

/// A resume checkpoint's aggregates as the one [`CensusResumed`] event
/// that seeds a subscriber's census counts.
fn resumed_counts(report: &CensusReport) -> CensusResumed {
    let count = |kind| report.kind_total(kind) as u64;
    CensusResumed {
        records: report.total as u64,
        identified: count(VerdictKind::Identified),
        special: count(VerdictKind::Special),
        unsure: count(VerdictKind::Unsure),
        invalid: count(VerdictKind::Invalid),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::AggregatingSink;
    use caai_core::census::Verdict;
    use caai_core::classes::ClassLabel;
    use caai_core::special::SpecialCase;
    use caai_core::trace::InvalidReason;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Mutex;

    #[test]
    fn resumed_aggregates_seed_the_counters() {
        let mut agg = CensusReport::default();
        for verdict in [
            Verdict::Invalid(InvalidReason::PageTooShort),
            Verdict::Identified(ClassLabel::Bic, 512),
            Verdict::Identified(ClassLabel::Bic, 256),
            Verdict::Special(SpecialCase::BoundedWindow, 64),
            Verdict::Unsure(128),
        ] {
            agg.observe(&CensusRecord {
                server_id: 0,
                truth: None,
                verdict,
            });
        }
        let counts = resumed_counts(&agg);
        assert_eq!(
            counts,
            CensusResumed {
                records: 5,
                identified: 2,
                special: 1,
                unsure: 1,
                invalid: 1,
            }
        );
    }

    #[test]
    fn a_worker_hands_over_a_full_batch_or_what_it_has_after_the_interval() {
        let (quick, slow) = (Duration::from_micros(60), HANDOVER_INTERVAL);
        // Simulator speed: a batch of 16 takes a millisecond and crosses whole.
        assert!((1..16).all(|held| !hands_over(held, 16, quick * held as u32)));
        assert!(hands_over(16, 16, quick * 16));
        // A probe that outlasts the interval crosses as it completes,
        // and so does everything finished since the last hand-over.
        assert!(hands_over(1, 16, slow));
        assert!(hands_over(3, 16, slow + quick * 2));
        assert!(!hands_over(3, 16, slow - quick));
        // The run's last batch may be short, and a batch of one is a hand-over
        // per record however quick the probes.
        assert!(hands_over(5, 5, quick * 5));
        assert!(hands_over(1, 1, Duration::ZERO));
    }

    /// Sends the id of every record that reaches it.
    struct Announcing(mpsc::Sender<u32>);

    impl ResultSink for Announcing {
        fn emit(&mut self, record: &CensusRecord) -> io::Result<()> {
            self.0.send(record.server_id).map_err(io::Error::other)
        }
    }

    /// Every fourth probe outlasts the hand-over interval; the probe after
    /// it does not return until the sink has announced the slow record.
    struct EveryFourthSlow {
        announced: Mutex<mpsc::Receiver<u32>>,
    }

    impl ProbeTransport for EveryFourthSlow {
        fn population(&self) -> u64 {
            40
        }

        fn probe<S: Subscriber>(&self, id: u32, _: u64, _: &S) -> CensusRecord {
            if id % 4 == 3 {
                std::thread::sleep(HANDOVER_INTERVAL * 2);
            } else if id.is_multiple_of(4) && id > 0 {
                let announced = self.announced.lock().expect("one worker");
                let patience = Duration::from_secs(20);
                while announced
                    .recv_timeout(patience)
                    .expect("the slow record crosses before the batch is done")
                    != id - 1
                {}
            }
            CensusRecord {
                server_id: id,
                truth: None,
                verdict: Verdict::Invalid(InvalidReason::PageTooShort),
            }
        }
    }

    #[test]
    fn a_record_that_took_longer_than_the_interval_reaches_the_sinks_at_once() {
        let (announce, announced) = mpsc::channel();
        let transport = EveryFourthSlow {
            announced: Mutex::new(announced),
        };
        let config = EngineConfig {
            workers: 1,
            batch_size: 16,
            ..EngineConfig::default()
        };
        let mut sink = Announcing(announce);
        let outcome = run_transport(&transport, &config, &mut [&mut sink], None)
            .expect("neither sink nor checkpoint can fail");
        assert!(outcome.completed);
        assert_eq!(outcome.report.total, 40);
    }

    /// Answers every probe at once.
    struct Instantly(u64);

    impl ProbeTransport for Instantly {
        fn population(&self) -> u64 {
            self.0
        }

        fn probe<S: Subscriber>(&self, id: u32, _: u64, _: &S) -> CensusRecord {
            CensusRecord {
                server_id: id,
                truth: None,
                verdict: Verdict::Invalid(InvalidReason::PageTooShort),
            }
        }
    }

    /// Takes `.0` records, then fails every emit — the first failure only
    /// after the workers have had time to fill the queue.
    struct FailsAfter(usize, Vec<u32>);

    impl ResultSink for FailsAfter {
        fn emit(&mut self, record: &CensusRecord) -> io::Result<()> {
            if self.1.len() == self.0 {
                std::thread::sleep(Duration::from_millis(100));
                return Err(io::Error::other("disk full"));
            }
            self.1.push(record.server_id);
            Ok(())
        }
    }

    #[test]
    fn a_failing_sink_ends_the_run_and_the_checkpoint_holds_only_what_it_took() {
        // Failing on the 10th emit follows the checkpoint at 9; failing on
        // the 9th falls on a record due in the checkpoint it must not reach.
        for (taken, checkpointed) in [(9, 9), (8, 6)] {
            let path = std::env::temp_dir().join(format!(
                "caai-engine-failing-sink-{}-{taken}.json",
                std::process::id()
            ));
            let config = EngineConfig {
                workers: 4,
                batch_size: 1,
                checkpoint_path: Some(path.clone()),
                checkpoint_every: 3,
                ..EngineConfig::default()
            };
            // More records than the queue holds hand-overs, so workers are
            // blocked in send when the sink fails.
            let transport = Instantly(QUEUE_DEPTH as u64 * 8);
            let (done, result) = mpsc::channel();
            std::thread::spawn(move || {
                let mut sink = FailsAfter(taken, Vec::new());
                let outcome = run_transport(&transport, &config, &mut [&mut sink], None);
                let _ = done.send((outcome, sink));
            });
            let (outcome, sink) = result
                .recv_timeout(Duration::from_secs(60))
                .expect("a failed sink ends the run instead of hanging it");
            assert!(matches!(outcome, Err(EngineError::Io(_))), "{outcome:?}");
            let ck = Checkpoint::load(&path).expect("a checkpoint every 3 records");
            std::fs::remove_file(&path).ok();
            assert_eq!(ck.completed_count(), checkpointed);
            assert!(ck.completed.iter().all(|id| sink.1.contains(&id)));
        }
    }

    /// What the fake transports below give server `id`: several verdict
    /// kinds and windows, so that two reports can differ.
    fn record_of(id: u32) -> CensusRecord {
        let verdict = match id % 4 {
            0 => Verdict::Identified(ClassLabel::Bic, 256 << (id % 3)),
            1 => Verdict::Special(SpecialCase::BoundedWindow, 64),
            2 => Verdict::Unsure(128),
            _ => Verdict::Invalid(InvalidReason::PageTooShort),
        };
        CensusRecord {
            server_id: id,
            truth: None,
            verdict,
        }
    }

    /// Holds up to `capacity` submitted probes, sockets-free, and finishes
    /// the newest first. Its `probe` panics: no worker ever runs over it.
    struct Holding {
        population: u64,
        capacity: usize,
        held: Mutex<Vec<u32>>,
        submitted: AtomicUsize,
        peak: AtomicUsize,
    }

    impl Holding {
        fn new(population: u64, capacity: usize) -> Self {
            Holding {
                population,
                capacity,
                held: Mutex::new(Vec::new()),
                submitted: AtomicUsize::new(0),
                peak: AtomicUsize::new(0),
            }
        }

        fn in_flight(&self) -> usize {
            self.held.lock().unwrap().len()
        }
    }

    impl ProbeTransport for Holding {
        fn population(&self) -> u64 {
            self.population
        }

        fn probe<S: Subscriber>(&self, _: u32, _: u64, _: &S) -> CensusRecord {
            panic!("a transport that holds its probes is never probed by a worker");
        }

        fn capacity(&self) -> usize {
            self.capacity
        }

        fn submit(&self, id: u32, _: u64) {
            let mut held = self.held.lock().unwrap();
            held.push(id);
            assert!(held.len() <= self.capacity, "{} in flight", held.len());
            self.submitted.fetch_add(1, Ordering::Relaxed);
            self.peak.fetch_max(held.len(), Ordering::Relaxed);
        }

        fn next_finished<S: Subscriber>(&self, _: &S) -> CensusRecord {
            record_of(self.held.lock().unwrap().pop().expect("a probe in flight"))
        }
    }

    /// [`Holding`]'s records, probed by workers.
    struct Worked(u64);

    impl ProbeTransport for Worked {
        fn population(&self) -> u64 {
            self.0
        }

        fn probe<S: Subscriber>(&self, id: u32, _: u64, _: &S) -> CensusRecord {
            record_of(id)
        }
    }

    #[test]
    fn submitted_probes_reach_the_capacity_and_never_exceed_it() {
        let transport = Holding::new(100, 7);
        let outcome = run_transport(&transport, &EngineConfig::default(), &mut [], None).unwrap();
        assert!(outcome.completed);
        assert_eq!(transport.peak.load(Ordering::Relaxed), 7);
        assert_eq!(transport.in_flight(), 0);
    }

    #[test]
    fn the_submit_path_reports_what_the_worker_path_does() {
        let config = EngineConfig::default();
        let mut sink = AggregatingSink::new();
        let held = run_transport(&Holding::new(100, 7), &config, &mut [&mut sink], None).unwrap();
        let worked = run_transport(&Worked(100), &config, &mut [], None).unwrap();
        assert_eq!(held.report, worked.report);
        assert_eq!(held.report.total, 100);
        // The sinks see records as they finish, not in id order.
        let ids: Vec<u32> = sink.records().iter().map(|r| r.server_id).collect();
        assert_ne!(ids, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn a_probe_budget_submits_exactly_that_many_probes() {
        let transport = Holding::new(100, 7);
        let config = EngineConfig {
            budget: Budget::probes(30),
            ..EngineConfig::default()
        };
        let outcome = run_transport(&transport, &config, &mut [], None).unwrap();
        assert!(!outcome.completed);
        assert_eq!(outcome.report.total, 30);
        assert_eq!(transport.submitted.load(Ordering::Relaxed), 30);
    }

    #[test]
    fn a_deadline_stops_submission_and_drains_what_is_in_flight() {
        let transport = Holding::new(100, 7);
        let config = EngineConfig {
            budget: Budget::deadline(Duration::ZERO),
            ..EngineConfig::default()
        };
        let outcome = run_transport(&transport, &config, &mut [], None).unwrap();
        // The first record to fold trips the deadline. The probe submitted
        // in its place and the six before it still fold.
        assert!(!outcome.completed);
        assert_eq!(transport.submitted.load(Ordering::Relaxed), 8);
        assert_eq!(outcome.report.total, 8);
        assert_eq!(transport.in_flight(), 0);
    }

    #[test]
    fn a_failing_sink_leaves_nothing_in_flight_for_the_next_run() {
        let transport = Holding::new(100, 7);
        let config = EngineConfig::default();
        let mut failing = FailsAfter(10, Vec::new());
        let failed = run_transport(&transport, &config, &mut [&mut failing], None);
        assert!(matches!(failed, Err(EngineError::Io(_))), "{failed:?}");
        assert_eq!(transport.in_flight(), 0);
        // A second run over the same transport folds its own records, each
        // once: `submit` would have seen more than 7 in flight otherwise.
        let mut sink = AggregatingSink::new();
        let outcome = run_transport(&transport, &config, &mut [&mut sink], None).unwrap();
        let mut ids: Vec<u32> = sink.records().iter().map(|r| r.server_id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..100).collect::<Vec<_>>());
        assert_eq!(
            outcome.report,
            run_transport(&Worked(100), &config, &mut [], None)
                .unwrap()
                .report
        );
    }
}
