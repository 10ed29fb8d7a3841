//! The §IV ACK-withholding ladder, once, as sans-IO state.
//!
//! CAAI's Step 1 is two nested decisions, and every transport that
//! gathers traces has to make both the same way:
//!
//! * [`LadderWalk`] — *which* `(environment, w_max)` attempt comes next
//!   and what a finished [`WindowTrace`] does to the walk (§IV-B: gather
//!   A then B at a rung, descend only when the window *never exceeded
//!   the threshold*, stop at the first usable pair or any other failure).
//! * [`RungAttempt`] — one probing connection, round by round (§IV-C..E):
//!   measure the window, ACK "as if no loss", withhold the ACKs once the
//!   window passes `w_max`, answer the timeout with the F-RTO duplicate
//!   ACK, gather 18 recovery rounds, give up early on a Fig. 13 plateau.
//!
//! The paper never looks at a packet — §IV-D takes the highest sequence
//! number of a round, §IV-C acknowledges "as if there is no packet loss"
//! — so a round comes in as [`Run`]s of consecutive sequence numbers (one
//! on a clean path, one more per loss, late arrival or duplicate), its
//! ACKs go out as runs too, and both directions cost O(runs).
//!
//! Neither holds a clock, a socket, an RNG, a tap or a subscriber. Two
//! drivers feed them and execute what they return:
//!
//! ```text
//!   LadderCore ◀─frames─▶ ServerCore (sansio.rs)    session_outcome (caai-capture)
//!   virtual clock          tcpsim + path fates       reconstructed connections
//!        │  arrival runs, RTO answered?                       │ finished traces
//!        ▼           ▲ ACK runs                               │
//!   ┌─────────── RungAttempt ───────────┐                     │
//!   │ Pre ──w>w_max──▶ AwaitRto ──▶ Post │──WindowTrace──┐     │
//!   └───────────────────────────────────┘               ▼     ▼
//!                                         ┌──────── LadderWalk ────────┐
//!                                         │ next() / record() / abort() │──▶ GatherOutcome
//!                                         └────────────────────────────┘
//! ```
//!
//! The frame pair is one driver wherever it runs: the simulator passes
//! the frames between the two cores in memory, `caai-net` over sockets.
//!
//! Sequence numbers may come straight off a wire, so all arithmetic on
//! them saturates; on honest inputs nothing ever does.

use caai_netem::{EnvironmentId, Phase, RttSchedule};
use caai_obs::{Environment, RungAttemptEnded, RungAttemptStarted};

use crate::prober::{CloseInitiator, GatherOutcome, ProberConfig};
use crate::trace::{InvalidReason, TracePair, WindowTrace};

/// The `w_max` thresholds tried in decreasing order (§IV-B).
pub const DEFAULT_LADDER: [u32; 4] = [512, 256, 128, 64];

/// The rung a walk stands on once `ladder` has run out: its last one
/// (the default ladder's for an empty ladder).
pub fn floor_rung(ladder: &[u32]) -> u32 {
    *ladder
        .last()
        .unwrap_or(&DEFAULT_LADDER[DEFAULT_LADDER.len() - 1])
}

/// The `w_max` ladder walk of one probe session.
///
/// A driver that gathers asks [`next`](Self::next) what to attempt and
/// [`record`](Self::record)s the trace it got; a driver that replays
/// somebody else's walk only records. `record` accepts traces in any
/// order — a second A before any B, a B with no A — because a capture
/// can hold anything.
#[derive(Debug, Default)]
pub struct LadderWalk {
    /// Index of the rung the walk stands on.
    rung: usize,
    /// A valid environment-A trace waiting for its B partner.
    pending_a: Option<WindowTrace>,
    failed: Vec<WindowTrace>,
    pair: Option<TracePair>,
    /// A pair was found, or a failure no lower rung can cure ended it.
    over: bool,
}

impl LadderWalk {
    /// A walk standing on the first rung.
    pub fn new() -> Self {
        LadderWalk::default()
    }

    /// The attempt to make next: environment A at the current rung, or B
    /// once a valid A is waiting. `None` when the walk is over or the
    /// ladder has run out.
    pub fn next(&self, ladder: &[u32]) -> Option<(EnvironmentId, u32)> {
        let wmax = *ladder.get(self.rung).filter(|_| !self.over)?;
        let env = match self.pending_a {
            Some(_) => EnvironmentId::B,
            None => EnvironmentId::A,
        };
        Some((env, wmax))
    }

    /// The threshold of the rung the walk stands on; past the end of the
    /// ladder, its [`floor_rung`].
    pub fn rung_wmax(&self, ladder: &[u32]) -> u32 {
        ladder
            .get(self.rung)
            .copied()
            .unwrap_or_else(|| floor_rung(ladder))
    }

    /// Moves the walk to rung `index` (a replaying driver saw the wire
    /// pin the rung).
    pub fn seek(&mut self, index: usize) {
        self.rung = index;
    }

    /// Files one finished attempt. Traces recorded after the walk is
    /// over are dropped.
    pub fn record(&mut self, trace: WindowTrace) {
        if self.over {
            return;
        }
        match (trace.env, self.pending_a.take()) {
            (EnvironmentId::A, earlier) => {
                self.failed.extend(earlier); // A followed by A: its B leg is missing
                if trace.is_valid() {
                    self.pending_a = Some(trace);
                } else {
                    self.fail(trace);
                }
            }
            (EnvironmentId::B, Some(env_a)) => {
                if trace.usable_for_classification() {
                    self.pair = Some(TracePair {
                        env_a,
                        env_b: trace,
                    });
                    self.over = true;
                } else {
                    self.failed.push(env_a);
                    self.fail(trace);
                }
            }
            // B without a preceding A: nothing to pair it with, and it
            // says nothing about the rung.
            (EnvironmentId::B, None) => self.failed.push(trace),
        }
    }

    /// §IV-B: the ladder exists to find the threshold the server's window
    /// can *exceed*, so only [`InvalidReason::NeverExceededThreshold`]
    /// descends. A page too short, a server deaf to the timeout, a
    /// truncated recovery would fail the same way at any rung (Table IV
    /// counts such servers invalid), so the walk ends.
    fn fail(&mut self, trace: WindowTrace) {
        if trace.invalid == Some(InvalidReason::NeverExceededThreshold) {
            self.rung += 1;
        } else {
            self.over = true;
        }
        self.failed.push(trace);
    }

    /// The transport died under the walk: everything gathered so far
    /// becomes a failure, led by the attempt that was `in_flight` (the
    /// caller marks it [`InvalidReason::TransportAborted`], see
    /// [`RungAttempt::abort`]), then one that had finished but whose
    /// close was still `unconfirmed`, then a waiting A.
    pub fn abort(&mut self, in_flight: Option<WindowTrace>, unconfirmed: Option<WindowTrace>) {
        self.failed.extend(in_flight);
        self.failed.extend(unconfirmed);
        self.failed.extend(self.pending_a.take());
        self.over = true;
    }

    /// The walk's result. An A still waiting for its B (the input ended
    /// first) joins the failures.
    pub fn finish(mut self) -> GatherOutcome {
        self.failed.extend(self.pending_a.take());
        GatherOutcome {
            pair: self.pair,
            failed_attempts: self.failed,
        }
    }
}

/// Where a [`RungAttempt`] stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptPhase {
    /// Growing the window towards the threshold.
    Pre,
    /// ACKs withheld; waiting to hear whether the server's RTO fired.
    AwaitRto,
    /// Gathering the recovery after the timeout.
    Post,
    /// The attempt is over; its trace is final.
    Closed,
}

/// Consecutive numbers `first .. first + len`, clamped at `u64::MAX`. On
/// the way in, the sequence numbers (in packets) of data the prober
/// received; on the way out, the cumulative ACKs it owes the server, in
/// sending order — there `len` is at least 1 and nothing is clamped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// The run's first number.
    pub first: u64,
    /// Numbers in the run; an empty run of arrivals is skipped.
    pub len: u64,
    /// Arrivals: spurious path-duplicated copies, measured but never
    /// acknowledged (CAAI recognizes duplicates by sequence number).
    /// ACKs: the F-RTO counter-measure duplicate, which carries no RTT
    /// sample (a run of one).
    pub duplicate: bool,
}

impl Run {
    /// The run's highest number (`None` for an empty run).
    fn last(&self) -> Option<u64> {
        Some(self.first.saturating_add(self.len.checked_sub(1)?))
    }

    /// Appends the numbers `first .. first + len` to `runs`, extending the
    /// last run when they continue it and share its `duplicate`; appends
    /// nothing for `len` 0.
    pub fn push(runs: &mut Vec<Run>, first: u64, len: u64, duplicate: bool) {
        match runs.last_mut() {
            _ if len == 0 => {}
            Some(run)
                if run.duplicate == duplicate && run.first.checked_add(run.len) == Some(first) =>
            {
                run.len += len
            }
            _ => runs.push(Run {
                first,
                len,
                duplicate,
            }),
        }
    }
}

/// What the driver does once a round's [`acks`](RungAttempt::acks) are out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Next {
    /// Have the server transmit the next round, which lasts
    /// [`round_rtt`](RungAttempt::round_rtt).
    Transmit,
    /// Send nothing and wait out the server's retransmission timeout
    /// (up to `max_rto_waits` re-arms), then call
    /// [`on_rto`](RungAttempt::on_rto).
    AwaitRto,
    /// Close the connection; the trace is final.
    Close(CloseInitiator),
}

/// The machine's answer to one event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundEnd {
    /// Emulated seconds the round took: the driver advances its clock by
    /// this *before* sending the ACKs (that deferral is what makes the
    /// server measure the scheduled RTT). Zero when the clock freezes —
    /// ACKs withheld, or the server had already finished.
    pub elapsed: f64,
    /// What to do after the ACKs.
    pub next: Next,
}

/// One probing connection of the ladder: `(environment, w_max)`.
///
/// Feed it each round's arrivals as runs ([`on_round`](Self::on_round)), rounds
/// in which the server had nothing to send
/// ([`on_silent_round`](Self::on_silent_round)) and the answer to the
/// emulated timeout ([`on_rto`](Self::on_rto)). Every event returns
/// `None`, changing nothing, when the attempt's phase does not expect
/// it. Both round bounds of the configuration count as at least 1: a
/// round the server was already asked for is always measured.
#[derive(Debug)]
pub struct RungAttempt {
    schedule: RttSchedule,
    trace: WindowTrace,
    phase: AttemptPhase,
    /// One past the highest sequence measured so far. `None` right after
    /// the timeout, until the first retransmission re-anchors it.
    high: Option<u64>,
    /// Highest cumulative ACK sent.
    prober_cum: u64,
    /// Largest per-round window so far, and rounds since it last grew.
    best_w: u32,
    stalled: u32,
    stall_exited: bool,
    /// The F-RTO duplicate ACK has not gone out yet.
    frto_pending: bool,
    acks: Vec<Run>,
}

impl RungAttempt {
    /// A fresh attempt; the granted MSS is filled in by
    /// [`set_mss`](Self::set_mss) once the server has answered.
    pub fn new(env: EnvironmentId, wmax: u32) -> Self {
        RungAttempt {
            schedule: RttSchedule::new(env),
            trace: WindowTrace {
                env,
                wmax_threshold: wmax,
                mss: 0,
                pre: Vec::new(),
                post: Vec::new(),
                invalid: None,
            },
            phase: AttemptPhase::Pre,
            high: Some(0),
            prober_cum: 0,
            best_w: 0,
            stalled: 0,
            stall_exited: false,
            frto_pending: true,
            acks: Vec::new(),
        }
    }

    /// Records the MSS the server granted.
    pub fn set_mss(&mut self, granted: u32) {
        self.trace.mss = granted;
    }

    /// The current phase.
    pub fn phase(&self) -> AttemptPhase {
        self.phase
    }

    /// The trace gathered so far.
    pub fn trace(&self) -> &WindowTrace {
        &self.trace
    }

    /// The finished (or abandoned) trace.
    pub fn into_trace(self) -> WindowTrace {
        self.trace
    }

    /// 1-based index, within its phase, of the round now outstanding.
    pub fn round_number(&self) -> u32 {
        let gathered = match self.phase {
            AttemptPhase::Post => self.trace.post.len(),
            _ => self.trace.pre.len(),
        };
        gathered as u32 + 1
    }

    /// Emulated RTT of the round now outstanding (zero outside the two
    /// measuring phases).
    pub fn round_rtt(&self) -> f64 {
        match self.phase {
            AttemptPhase::Pre => self.schedule.rtt(Phase::BeforeTimeout, self.round_number()),
            AttemptPhase::Post => self.schedule.rtt(Phase::AfterTimeout, self.round_number()),
            AttemptPhase::AwaitRto | AttemptPhase::Closed => 0.0,
        }
    }

    /// The ACKs the last event produced, in sending order, as maximal
    /// trains. The buffer is reused from round to round.
    pub fn acks(&self) -> &[Run] {
        &self.acks
    }

    /// The attempt-started event.
    pub fn started(&self) -> RungAttemptStarted {
        RungAttemptStarted {
            environment: obs_environment(self.trace.env),
            wmax: self.trace.wmax_threshold,
        }
    }

    /// The attempt-ended event (meaningful once [`AttemptPhase::Closed`]).
    pub fn ended(&self) -> RungAttemptEnded {
        RungAttemptEnded {
            environment: obs_environment(self.trace.env),
            wmax: self.trace.wmax_threshold,
            rounds: (self.trace.pre.len() + self.trace.post.len()) as u32,
            valid: self.trace.is_valid(),
            stalled: self.stall_exited,
            invalid_reason: self.trace.invalid.map(InvalidReason::name),
        }
    }

    /// One round in which data arrived — or was sent and all lost.
    /// `arrivals` are the round's packets in the order received; a
    /// driver hands them over sorted, but nothing here depends on it.
    pub fn on_round(&mut self, config: &ProberConfig, arrivals: &[Run]) -> Option<RoundEnd> {
        let rtt = self.round_rtt();
        match self.phase {
            AttemptPhase::Pre => {
                self.acks.clear();
                let w = self.measure(arrivals);
                self.trace.pre.push(w);
                if w > self.trace.wmax_threshold {
                    // Withhold this round's ACKs: emulate the timeout.
                    self.phase = AttemptPhase::AwaitRto;
                    return Some(RoundEnd {
                        elapsed: 0.0,
                        next: Next::AwaitRto,
                    });
                }
                self.build_acks(arrivals);
                // Fig. 13 early exit: the window has visibly stopped
                // growing below the threshold — a ceiling (or a
                // VEGAS-style plateau) it will never cross. Waiting out
                // `max_pre_rounds` would only burn the page budget the
                // next rung needs.
                if w > self.best_w {
                    self.best_w = w;
                    self.stalled = 0;
                } else {
                    self.stalled += 1;
                    self.stall_exited =
                        config.stall_rounds > 0 && self.stalled >= config.stall_rounds;
                }
            }
            AttemptPhase::Post => {
                self.acks.clear();
                let w = self.measure(arrivals);
                self.trace.post.push(w);
                if self.frto_pending && arrivals.iter().any(|r| r.len > 0) {
                    // §IV-C: one duplicate ACK aborts F-RTO and forces
                    // conventional timeout recovery. Harmless otherwise.
                    self.frto_pending = false;
                    if config.frto_countermeasure {
                        self.acks.push(Run {
                            first: self.prober_cum,
                            len: 1,
                            duplicate: true,
                        });
                    }
                }
                self.build_acks(arrivals);
            }
            AttemptPhase::AwaitRto | AttemptPhase::Closed => return None,
        }
        Some(self.round_done(config, rtt))
    }

    /// One round in which the server transmitted nothing and nothing was
    /// in flight towards the prober. `done`: the server has sent its
    /// whole page and closed.
    pub fn on_silent_round(&mut self, config: &ProberConfig, done: bool) -> Option<RoundEnd> {
        let rtt = self.round_rtt();
        let (windows, out_of_page) = match self.phase {
            AttemptPhase::Pre => (&mut self.trace.pre, InvalidReason::PageTooShort),
            AttemptPhase::Post => (&mut self.trace.post, InvalidReason::RecoveryTooShort),
            AttemptPhase::AwaitRto | AttemptPhase::Closed => return None,
        };
        self.acks.clear();
        if done {
            return Some(self.close(CloseInitiator::Server, 0.0, Some(out_of_page)));
        }
        // Every ACK of the previous round was lost: the server sits out
        // its own (unplanned) RTO and the prober keeps counting rounds.
        windows.push(0);
        Some(self.round_done(config, rtt))
    }

    /// The emulated timeout played out: did the server retransmit?
    pub fn on_rto(&mut self, answered: bool) -> Option<RoundEnd> {
        if self.phase != AttemptPhase::AwaitRto {
            return None;
        }
        if !answered {
            let deaf = InvalidReason::NoTimeoutResponse;
            return Some(self.close(CloseInitiator::Prober, 0.0, Some(deaf)));
        }
        self.phase = AttemptPhase::Post;
        self.high = None;
        Some(RoundEnd {
            elapsed: 0.0,
            next: Next::Transmit,
        })
    }

    /// The transport failed under the attempt: whatever was gathered is
    /// final and invalid.
    pub fn abort(&mut self) {
        self.trace.invalid = Some(InvalidReason::TransportAborted);
        self.phase = AttemptPhase::Closed;
    }

    /// A measured round ended `rtt` later: go on, or has the phase run
    /// its course?
    fn round_done(&mut self, config: &ProberConfig, rtt: f64) -> RoundEnd {
        let (over, verdict) = match self.phase {
            AttemptPhase::Pre => (
                self.stall_exited || self.trace.pre.len() >= config.max_pre_rounds,
                Some(InvalidReason::NeverExceededThreshold),
            ),
            _ => (self.trace.post.len() >= config.post_timeout_rounds, None),
        };
        if over {
            return self.close(CloseInitiator::Prober, rtt, verdict);
        }
        RoundEnd {
            elapsed: rtt,
            next: Next::Transmit,
        }
    }

    fn close(
        &mut self,
        by: CloseInitiator,
        elapsed: f64,
        invalid: Option<InvalidReason>,
    ) -> RoundEnd {
        self.trace.invalid = invalid;
        self.phase = AttemptPhase::Closed;
        RoundEnd {
            elapsed,
            next: Next::Close(by),
        }
    }

    /// §IV-D: the window at round m is the highest sequence number
    /// received in the round minus the previous round's highest. After
    /// the timeout the baseline re-anchors at the first retransmission:
    /// the window restarts from the lowest outstanding sequence.
    fn measure(&mut self, arrivals: &[Run]) -> u32 {
        let Some(seqmax) = arrivals.iter().filter_map(Run::last).max() else {
            return 0;
        };
        let high = self.high.unwrap_or_else(|| {
            let live = arrivals.iter().filter(|r| r.len > 0);
            live.map(|r| r.first).min().unwrap_or(seqmax)
        });
        let end = seqmax.saturating_add(1);
        self.high = Some(high.max(end));
        end.saturating_sub(high).min(u64::from(u32::MAX)) as u32
    }

    /// §IV-C: one ACK per received (non-duplicate) data packet, cumulative
    /// "as if there is no packet loss" — holes are covered by the next
    /// packet's cumulative number, so the server never sees duplicate
    /// ACKs from data loss. A run of arrivals above everything
    /// acknowledged so far is one train; a train that continues the
    /// previous one extends it.
    fn build_acks(&mut self, arrivals: &[Run]) {
        for run in arrivals.iter().filter(|r| !r.duplicate) {
            let Some(last) = run.last() else { continue };
            // Packets below `prober_cum` are acknowledged already.
            let first = run.first.max(self.prober_cum).saturating_add(1);
            let end = last.saturating_add(1);
            if first <= self.prober_cum || first > end {
                continue;
            }
            self.prober_cum = end;
            Run::push(&mut self.acks, first, end - first + 1, false);
        }
    }
}

/// The obs-event environment tag for a netem environment id.
fn obs_environment(env: EnvironmentId) -> Environment {
    match env {
        EnvironmentId::A => Environment::A,
        EnvironmentId::B => Environment::B,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::POST_TIMEOUT_ROUNDS;
    use EnvironmentId::{A, B};
    use InvalidReason::{NeverExceededThreshold as Never, PageTooShort, RecoveryTooShort};

    /// A finished trace tagged by `mss` so the tables below can name it.
    fn trace(env: EnvironmentId, invalid: Option<InvalidReason>, tag: u32) -> WindowTrace {
        WindowTrace {
            env,
            wmax_threshold: 0,
            mss: tag,
            pre: vec![2, 4, 8, 600],
            post: vec![1; POST_TIMEOUT_ROUNDS],
            invalid,
        }
    }

    /// The failed attempts' tags in order, and the pair's.
    type Filed = (Vec<u32>, Option<(u32, u32)>);

    /// Records `traces` like a replaying driver.
    fn replay(traces: Vec<WindowTrace>) -> Filed {
        let mut walk = LadderWalk::new();
        for t in traces {
            walk.record(t);
        }
        tags(walk.finish())
    }

    fn tags(outcome: GatherOutcome) -> Filed {
        (
            outcome.failed_attempts.iter().map(|t| t.mss).collect(),
            outcome.pair.map(|p| (p.env_a.mss, p.env_b.mss)),
        )
    }

    #[test]
    fn record_is_total_over_env_orderings() {
        // Expected orders are what the simulator, `LadderCore` and
        // `session_outcome` each produced before they shared this walk.
        let ok = None;
        let check = |name: &str, traces: Vec<WindowTrace>, failed: Vec<u32>, pair| {
            assert_eq!(replay(traces), (failed, pair), "{name}");
        };
        check(
            "A,B",
            vec![trace(A, ok, 1), trace(B, ok, 2)],
            vec![],
            Some((1, 2)),
        );
        check(
            "descend, then pair",
            vec![trace(A, Some(Never), 1), trace(A, ok, 2), trace(B, ok, 3)],
            vec![1],
            Some((2, 3)),
        );
        check(
            "A,A: the first A's B leg is missing",
            vec![trace(A, ok, 1), trace(A, ok, 2), trace(B, ok, 3)],
            vec![1],
            Some((2, 3)),
        );
        check(
            "B first",
            vec![trace(B, ok, 1), trace(A, ok, 2), trace(B, ok, 3)],
            vec![1],
            Some((2, 3)),
        );
        check(
            "B,B: the second has no A left",
            vec![trace(A, ok, 1), trace(B, Some(Never), 2), trace(B, ok, 3)],
            vec![1, 2, 3],
            None,
        );
        check(
            "a failure no rung cures ends the walk",
            vec![
                trace(A, Some(PageTooShort), 1),
                trace(A, ok, 2),
                trace(B, ok, 3),
            ],
            vec![1],
            None,
        );
        check(
            "so does one in B",
            vec![
                trace(A, ok, 1),
                trace(B, Some(RecoveryTooShort), 2),
                trace(A, ok, 3),
                trace(B, ok, 4),
            ],
            vec![1, 2],
            None,
        );
        check(
            "input ends before the B leg",
            vec![trace(A, ok, 1)],
            vec![1],
            None,
        );
    }

    #[test]
    fn a_low_plateau_in_b_is_a_usable_pair() {
        let mut plateau = trace(B, Some(Never), 2);
        plateau.pre = vec![2, 4, 8, 16, 20, 21];
        plateau.post.clear();
        assert_eq!(
            replay(vec![trace(A, None, 1), plateau]),
            (vec![], Some((1, 2)))
        );
    }

    #[test]
    fn abort_orders_in_flight_then_unconfirmed_then_waiting_a() {
        let aborted = |env, tag| {
            let mut attempt = RungAttempt::new(env, 512);
            attempt.set_mss(tag);
            attempt.abort();
            attempt.into_trace()
        };
        // Abort mid-A on the first rung.
        let mut walk = LadderWalk::new();
        walk.abort(Some(aborted(A, 1)), None);
        assert_eq!(walk.next(&DEFAULT_LADDER), None);
        let outcome = walk.finish();
        assert_eq!(
            outcome.failure_reason(),
            Some(InvalidReason::TransportAborted)
        );
        assert_eq!(tags(outcome), (vec![1], None));
        // Abort mid-B: the waiting A goes last.
        let mut walk = LadderWalk::new();
        walk.record(trace(A, None, 1));
        walk.abort(Some(aborted(B, 2)), None);
        assert_eq!(tags(walk.finish()), (vec![2, 1], None));
        // A finished B whose close never completed, A waiting.
        let mut walk = LadderWalk::new();
        walk.record(trace(A, None, 1));
        walk.abort(None, Some(trace(B, None, 2)));
        assert_eq!(tags(walk.finish()), (vec![2, 1], None));
        // Earlier failures keep their place.
        let mut walk = LadderWalk::new();
        walk.record(trace(A, Some(Never), 1));
        walk.abort(None, Some(trace(A, None, 2)));
        assert_eq!(tags(walk.finish()), (vec![1, 2], None));
    }

    #[test]
    fn next_walks_a_then_b_down_the_ladder_and_replay_may_outrun_it() {
        let ladder = [8, 4];
        let mut walk = LadderWalk::new();
        assert_eq!(walk.next(&ladder), Some((A, 8)));
        walk.record(trace(A, None, 1));
        assert_eq!(walk.next(&ladder), Some((B, 8)));
        walk.record(trace(B, Some(Never), 2));
        assert_eq!(walk.next(&ladder), Some((A, 4)));
        walk.record(trace(A, Some(Never), 3));
        assert_eq!(walk.next(&ladder), None, "ladder exhausted");
        // A capture can hold more attempts than the ladder has rungs:
        // they stand on the floor rung and are still recorded.
        assert_eq!(walk.rung_wmax(&ladder), 4);
        walk.record(trace(A, Some(Never), 4));
        walk.seek(0);
        assert_eq!(walk.rung_wmax(&ladder), 8);
        assert_eq!(tags(walk.finish()), (vec![1, 2, 3, 4], None));
        assert_eq!(LadderWalk::new().next(&[]), None);
        assert_eq!(LadderWalk::new().rung_wmax(&[]), 64);
    }

    /// The maximal runs of consecutive numbers in `seqs`.
    fn arrivals(seqs: &[u64]) -> Vec<Run> {
        let runs = seqs.chunk_by(|a, b| a + 1 == *b);
        runs.map(|r| run(r[0], r.len() as u64)).collect()
    }

    fn run(first: u64, len: u64) -> Run {
        Run {
            first,
            len,
            duplicate: false,
        }
    }

    /// The attempt's ACKs, train by train: (first, len, duplicate).
    fn cum_acks(attempt: &RungAttempt) -> Vec<(u64, u64, bool)> {
        let acks = attempt.acks().iter();
        acks.map(|a| (a.first, a.len, a.duplicate)).collect()
    }

    #[test]
    fn one_attempt_round_by_round() {
        let config = ProberConfig::default();
        let mut attempt = RungAttempt::new(A, 10);
        // A hole (seq 1 lost) is covered by the next cumulative ACK; a
        // path duplicate is measured but never acknowledged.
        let dup = Run {
            first: 9,
            len: 1,
            duplicate: true,
        };
        let round = [run(0, 1), run(2, 1), dup];
        let end = attempt.on_round(&config, &round).unwrap();
        assert_eq!((end.elapsed, end.next), (1.0, Next::Transmit));
        assert_eq!(cum_acks(&attempt), vec![(1, 1, false), (3, 1, false)]);
        assert_eq!(attempt.trace().pre, vec![10]);
        assert!(attempt.on_rto(true).is_none(), "no timeout is pending");
        // Nothing new above the highest sequence seen: a zero window.
        attempt.on_round(&config, &arrivals(&[3, 4])).unwrap();
        assert_eq!(attempt.trace().pre, vec![10, 0]);
        assert_eq!(cum_acks(&attempt), vec![(4, 2, false)]);
        // Crossing: ACKs withheld, clock frozen.
        let end = attempt.on_round(&config, &arrivals(&[10, 25])).unwrap();
        assert_eq!((end.elapsed, end.next), (0.0, Next::AwaitRto));
        assert!(attempt.acks().is_empty());
        assert!(attempt.on_round(&config, &arrivals(&[26])).is_none());
        assert_eq!(attempt.on_rto(true).unwrap().next, Next::Transmit);
        // Recovery re-anchors at the first retransmission and leads with
        // the F-RTO duplicate of the last ACK sent — once.
        attempt.on_silent_round(&config, false).unwrap();
        attempt.on_round(&config, &arrivals(&[5])).unwrap();
        assert_eq!(cum_acks(&attempt), vec![(5, 1, true), (6, 1, false)]);
        attempt.on_round(&config, &arrivals(&[6, 7])).unwrap();
        assert_eq!(cum_acks(&attempt), vec![(7, 2, false)]);
        assert_eq!(attempt.trace().post, vec![0, 1, 2]);
        // The page runs out mid-recovery: the server closes.
        let end = attempt.on_silent_round(&config, true).unwrap();
        assert_eq!(end.next, Next::Close(CloseInitiator::Server));
        assert_eq!(attempt.trace().invalid, Some(RecoveryTooShort));
        assert!(attempt.on_silent_round(&config, false).is_none());
        assert_eq!(attempt.ended().rounds, 6);
    }

    #[test]
    fn runs_are_acknowledged_as_their_packets_would_be() {
        let config = ProberConfig::default();
        let mut attempt = RungAttempt::new(A, u32::MAX);
        // Overlapping and unordered runs: only what lies above the last
        // ACK is acknowledged, and a train that continues the previous
        // one extends it. An empty run says nothing.
        let round = [run(0, 5), run(3, 5), run(20, 0), run(1, 2), run(10, 2)];
        attempt.on_round(&config, &round).unwrap();
        assert_eq!(cum_acks(&attempt), vec![(1, 8, false), (11, 2, false)]);
        assert_eq!(attempt.trace().pre, vec![12]);
        // A run past the end of the sequence space is clamped to it; the
        // last packet's ACK would repeat `u64::MAX` and is not sent.
        let round = [run(u64::MAX - 2, 9)];
        attempt.on_round(&config, &round).unwrap();
        assert_eq!(cum_acks(&attempt), vec![(u64::MAX - 1, 2, false)]);
        attempt.on_round(&config, &[run(u64::MAX, 1)]).unwrap();
        assert!(attempt.acks().is_empty(), "nothing above u64::MAX to say");
        // Only empty runs: a round in which everything sent was lost.
        attempt.on_round(&config, &[run(7, 0)]).unwrap();
        assert_eq!(attempt.trace().pre.last(), Some(&0));
    }

    #[test]
    fn a_plateau_stall_exits_and_a_deaf_server_is_given_up_on() {
        let config = ProberConfig {
            stall_rounds: 2,
            ..ProberConfig::default()
        };
        let mut attempt = RungAttempt::new(B, 512);
        let mut next_seq = 0;
        let mut burst = |n: u64| {
            next_seq += n;
            [run(next_seq - n, n)]
        };
        for n in [2, 4, 4] {
            let end = attempt.on_round(&config, &burst(n)).unwrap();
            assert_eq!(end.next, Next::Transmit);
        }
        let end = attempt.on_round(&config, &burst(3)).unwrap();
        assert_eq!(end.next, Next::Close(CloseInitiator::Prober));
        assert_eq!(
            (end.elapsed, cum_acks(&attempt)),
            (1.0, vec![(11, 3, false)]),
            "ACKs still go out"
        );
        assert!(attempt.ended().stalled);
        assert_eq!(attempt.trace().invalid, Some(Never));

        let mut attempt = RungAttempt::new(A, 1);
        attempt.on_round(&config, &arrivals(&[0, 1])).unwrap();
        let end = attempt.on_rto(false).unwrap();
        assert_eq!(end.next, Next::Close(CloseInitiator::Prober));
        assert_eq!(attempt.ended().invalid_reason, Some("NoTimeoutResponse"));
    }
}
