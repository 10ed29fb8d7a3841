//! The census engine proper: worker pool, sink thread, record streaming,
//! checkpoint cadence, budget enforcement.
//!
//! ## Transport seam
//!
//! The engine schedules *ids*, not servers: [`run_transport`] drives any
//! [`ProbeTransport`] — the simulator ([`caai_core::transport::SimTransport`],
//! what [`CensusEngine::run`] wraps) or `caai-net`'s real-socket
//! `NetTransport` — through the same workers, checkpoints, shards, and
//! sinks. The transport owns record production; the engine owns
//! everything after.
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
//! pleases, and the engine stays deterministic *given the records*.
//!
//! ## Memory contract
//!
//! The engine retains O(aggregates + bitmap + work list) state, never
//! O(records): a [`caai_core::census::CensusAggregates`] fold plus one
//! bit per server id, both inside the live [`Checkpoint`], and the
//! pending work list (4 bytes per not-yet-probed owned server, shrinking
//! as the run proceeds — 125 KB of bitmap plus up to 4 MB of work list
//! at 10⁶ servers). Records stream through to the sinks and are dropped;
//! nothing grows with the number of *completed* records. Attach an
//! [`crate::sink::AggregatingSink`] to opt back into record retention.
//!
//! ## Sink thread
//!
//! Sinks run on a dedicated thread fed through a bounded queue
//! ([`EngineConfig::sink_queue`]), so a slow sink (compressing writer,
//! network upload) does not stall the coordinator — which keeps draining
//! workers, folding aggregates, and writing checkpoints — until the
//! queue itself fills, which bounds memory instead of growing a backlog.
//!
//! ## Hand-overs
//!
//! Records change threads a hand-over at a time, not one by one: a worker
//! keeps what it finishes until it holds a claimed batch's worth or 2 ms
//! (`HANDOVER_INTERVAL`) have passed since it last handed over, and the
//! coordinator passes each hand-over on to the sink thread whole. A
//! record that crosses alone wakes two parked threads, which at
//! simulator speed cost a quarter of the probe that made it; a transport
//! whose probes outlast the interval (live sockets: milliseconds to
//! minutes) still delivers every record as it completes. Which of the two
//! happens follows from the probe times observed, not from a setting.

use crate::budget::Budget;
use crate::checkpoint::Checkpoint;
use crate::scheduler::BatchScheduler;
use crate::shard::ShardSpec;
use crate::sink::ResultSink;
use caai_core::census::{Census, CensusAggregates, CensusColumn, CensusRecord, CensusReport};
use caai_core::transport::{ProbeTransport, SimTransport};
use caai_obs::{
    span_begin, span_begin_with_parent, CensusRecordObserved, CensusResumed, CheckpointWritten,
    Event, NullSubscriber, SpanKind, Subscriber,
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
    /// Bounded capacity of the engine's two internal queues (workers →
    /// coordinator, coordinator → sink thread), in hand-overs: each holds
    /// at most a claimed batch of records.
    pub sink_queue: usize,
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
            sink_queue: 1024,
            budget: Budget::unlimited(),
        }
    }
}

/// Why the run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCause {
    /// Every server this run's shard owns has a record.
    Completed,
    /// The probe or wall-clock budget ran out first.
    BudgetExhausted,
}

/// The result of one engine run.
#[derive(Debug, Clone)]
pub struct EngineOutcome {
    /// The (possibly partial) record-free census report over this run's
    /// shard. Attach an [`crate::sink::AggregatingSink`] for records.
    pub report: CensusReport,
    /// Whether every owned server was probed.
    pub completed: bool,
    /// Why the run stopped.
    pub stop: StopCause,
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

/// What the coordinator feeds the sink thread through the bounded queue.
enum SinkMsg {
    /// Completed records to emit, in this order.
    Records(Vec<CensusRecord>),
    /// Flush every sink, then ack — the coordinator's write barrier
    /// before a checkpoint, so a checkpoint never claims a record the
    /// sinks have not durably written (kill-safe with buffered writers).
    Flush(mpsc::Sender<()>),
}

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
    // Fresh probes only: resumed records are not charged to the budget.
    let mut probed: u64 = 0;

    // Work list: ids of owned servers without a record yet (u32 — this
    // is the largest engine-owned allocation).
    let pending: Vec<u32> = (0..population as u32)
        .filter(|&id| shard.owns(id) && !live.completed.contains(id))
        .collect();

    let scheduler = BatchScheduler::new(pending.len(), config.batch_size);
    let stop = AtomicBool::new(false);
    let workers = config.workers.max(1).min(pending.len().max(1));
    // Both queues are bounded: when the coordinator stalls (e.g.
    // blocked on a full sink queue), workers block in send instead of
    // growing an O(records) backlog.
    let queue = config.sink_queue.max(1);
    let (tx, rx) = mpsc::sync_channel::<Vec<CensusRecord>>(queue);
    let (sink_tx, sink_rx) = mpsc::sync_channel::<SinkMsg>(queue);

    let mut run_error: Option<EngineError> = None;
    let mut since_checkpoint: u64 = 0;
    let mut last_written: Option<u64> = None;
    let mut checkpoints_written: u64 = 0;
    let mut budget_hit = false;

    let run_span = span_begin(obs, SpanKind::CensusRun, owned_total as i64, workers as i64);
    let run_id = run_span.id();

    let sink_result = std::thread::scope(|scope| {
        // Dedicated sink thread: drains the bounded queue so slow
        // sinks never stall the coordinator below.
        let sink_thread = scope.spawn(move || -> io::Result<()> {
            for msg in &sink_rx {
                match msg {
                    SinkMsg::Records(records) => {
                        for record in &records {
                            for sink in sinks.iter_mut() {
                                sink.emit(record)?;
                            }
                        }
                    }
                    SinkMsg::Flush(ack) => {
                        for sink in sinks.iter_mut() {
                            sink.flush()?;
                        }
                        // The coordinator may have given up waiting.
                        let _ = ack.send(());
                    }
                }
            }
            for sink in sinks.iter_mut() {
                sink.flush()?;
            }
            Ok(())
        });

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

        // Coordinator: fold aggregates, mark the bitmap, forward to
        // the sink thread, checkpoint, and enforce the budget — record by
        // record; what is folded goes on to the sink thread when its
        // hand-over ends, or ahead of a checkpoint.
        let mut folded = Vec::new();
        let arrivals = rx.iter().flat_map(|records| {
            let held = records.len();
            let numbered = records.into_iter().enumerate();
            numbered.map(move |(i, record)| (record, i + 1 == held))
        });
        for (record, ends_handover) in arrivals {
            if run_error.is_some() {
                // Drain remaining in-flight records without folding.
                continue;
            }
            live.observe(&record);
            obs.on_event(&Event::CensusRecordObserved(CensusRecordObserved {
                verdict: record.verdict.kind(),
                wmax: record.verdict.wmax(),
            }));
            done += 1;
            probed += 1;
            since_checkpoint += 1;

            folded.push(record);
            let checkpoint_due =
                config.checkpoint_path.is_some() && since_checkpoint >= config.checkpoint_every;
            let mut sink_dead = (ends_handover || checkpoint_due)
                && sink_tx
                    .send(SinkMsg::Records(std::mem::take(&mut folded)))
                    .is_err();
            if sink_dead {
                // The sink thread bailed; its error surfaces at join.
                stop.store(true, Ordering::Relaxed);
            }
            if !sink_dead && checkpoint_due {
                since_checkpoint = 0;
                // Write barrier: every record in this checkpoint must
                // already be flushed through the sinks, and whatever the
                // subscriber buffered about it (trace spans) with it —
                // resume skips these servers, nothing recreates either.
                sink_dead = !sync_sinks(&sink_tx);
                obs.flush();
                if sink_dead {
                    stop.store(true, Ordering::Relaxed);
                } else {
                    match save_checkpoint(config, &live) {
                        Ok(()) => {
                            last_written = Some(done);
                            checkpoints_written += 1;
                            obs.on_event(&Event::CheckpointWritten(CheckpointWritten {
                                records: done,
                            }));
                        }
                        Err(e) => {
                            run_error = Some(e);
                            stop.store(true, Ordering::Relaxed);
                        }
                    }
                }
            }
            if !budget_hit && config.budget.exhausted(probed, started) {
                budget_hit = true;
                stop.store(true, Ordering::Relaxed);
            }
        }

        drop(sink_tx);
        sink_thread.join().expect("sink thread panicked")
    });
    run_span.end(obs);

    if let Some(e) = run_error {
        return Err(e);
    }
    sink_result?;
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

    let completed = done == owned_total;
    Ok(EngineOutcome {
        report: live.aggregates.report(),
        completed,
        stop: if completed {
            StopCause::Completed
        } else {
            StopCause::BudgetExhausted
        },
        checkpoints_written,
    })
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
fn resumed_counts(agg: &CensusAggregates) -> CensusResumed {
    let in_columns =
        |count: fn(&CensusColumn) -> usize| agg.columns.values().map(count).sum::<usize>() as u64;
    CensusResumed {
        records: agg.total as u64,
        identified: in_columns(|c| c.identified.values().sum()),
        special: in_columns(|c| c.special.values().sum()),
        unsure: in_columns(|c| c.unsure),
        invalid: agg.invalid.values().sum::<usize>() as u64,
    }
}

/// Asks the sink thread to flush everything and waits for the ack.
/// Returns `false` if the sink thread has died (its error surfaces when
/// the coordinator joins it).
fn sync_sinks(sink_tx: &mpsc::SyncSender<SinkMsg>) -> bool {
    let (ack_tx, ack_rx) = mpsc::channel();
    if sink_tx.send(SinkMsg::Flush(ack_tx)).is_err() {
        return false;
    }
    ack_rx.recv().is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use caai_core::census::Verdict;
    use caai_core::classes::ClassLabel;
    use caai_core::special::SpecialCase;
    use caai_core::trace::InvalidReason;
    use std::sync::Mutex;

    #[test]
    fn resumed_aggregates_seed_the_counters() {
        let mut agg = CensusAggregates::default();
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
}
