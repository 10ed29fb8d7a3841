//! CAAI Step 1: trace gathering (§IV).
//!
//! The prober emulates network environments A and B purely through its own
//! ACK behaviour: it acknowledges every data packet (non-delayed ACKs),
//! defers each ACK so the server experiences the scheduled RTT, withholds
//! ACKs once the measured window exceeds the `w_max` threshold to force a
//! genuine retransmission timeout, sends a duplicate ACK after the timeout
//! to defeat F-RTO (§IV-C), waits between connections to defeat ssthresh
//! caching (§IV-C), ACKs "as if no loss" on the data path (§IV-C), and
//! measures the per-round window from the highest sequence number received
//! in each emulated round (§IV-D). It walks the `w_max` ladder
//! 512 → 256 → 128 → 64 until both environments yield usable traces
//! (§IV-B).
//!
//! Those decisions live in [`crate::ladder`], shared with the live-socket
//! and capture-replay drivers; this module is the *simulator's* driver:
//! it runs the server's TCP stack, draws the path's packet fates and
//! reports to the tap and the subscriber.

use caai_netem::path::DataFate;
use caai_netem::{EnvironmentId, PathConfig};
use caai_obs::{span_begin_at, Event, GatherFinished, NullSubscriber, SpanKind, Subscriber};
use caai_tcpsim::TcpServer;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::ladder::{AttemptPhase, LadderWalk, Next, Run, RungAttempt, DEFAULT_LADDER};
use crate::server_under_test::ServerUnderTest;
use crate::trace::{InvalidReason, TracePair, WindowTrace, POST_TIMEOUT_ROUNDS};

/// Prober configuration (§IV-B defaults).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProberConfig {
    /// `w_max` thresholds tried in decreasing order.
    pub wmax_ladder: Vec<u32>,
    /// MSS proposed in the SYN (the smallest rung of the MSS ladder; the
    /// server may round it up to its minimum, Table II).
    pub proposed_mss: u32,
    /// Post-timeout rounds to gather (18 per §IV-E).
    pub post_timeout_rounds: usize,
    /// Safety cap on pre-timeout rounds per attempt.
    pub max_pre_rounds: usize,
    /// Consecutive rounds without a new per-round window maximum before
    /// the attempt concludes the threshold is unreachable (the Fig. 13
    /// stalled-window case: a ceiling below `w_max`). Giving up at the
    /// first visible plateau instead of burning the full
    /// [`max_pre_rounds`](Self::max_pre_rounds) keeps the data a wasted
    /// high-rung attempt consumes proportional to the ceiling, which is
    /// what lets window-limited servers with ordinary pages still reach
    /// their usable rung. `0` disables the early exit. The default (8)
    /// clears every identified algorithm's transient plateaus (CUBIC's
    /// origin flat spot spans ~3 rounds, BIC's binary-search convergence
    /// keeps probing new maxima) while VEGAS-style and ceiling plateaus
    /// stall for good.
    pub stall_rounds: u32,
    /// Send the duplicate ACK that defeats F-RTO (§IV-C). On by default;
    /// disabling it reproduces the F-RTO failure mode.
    pub frto_countermeasure: bool,
    /// Idle time between connections, defeating ssthresh caching (§IV-C
    /// waits "some time (like 10 min)"). Must strictly exceed the metric
    /// cache lifetime (`caai_tcpsim::cache::DEFAULT_TTL`, 600 s): a wait of
    /// exactly the TTL still hits an inclusive cache.
    pub inter_connection_wait: f64,
    /// How many re-armed RTOs to wait out before declaring the server deaf
    /// to timeouts.
    pub max_rto_waits: u32,
}

impl Default for ProberConfig {
    fn default() -> Self {
        ProberConfig {
            wmax_ladder: DEFAULT_LADDER.to_vec(),
            proposed_mss: 100,
            post_timeout_rounds: POST_TIMEOUT_ROUNDS,
            max_pre_rounds: 50,
            stall_rounds: 8,
            frto_countermeasure: true,
            inter_connection_wait: 630.0,
            max_rto_waits: 2,
        }
    }
}

impl ProberConfig {
    /// A configuration pinned to a single `w_max` rung (used when
    /// collecting training vectors for a specific rung, §VII-A).
    pub fn fixed_wmax(wmax: u32) -> Self {
        ProberConfig {
            wmax_ladder: vec![wmax],
            ..ProberConfig::default()
        }
    }
}

/// Result of a full gathering run against one server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GatherOutcome {
    /// The usable environment-A/B trace pair, when gathering succeeded.
    pub pair: Option<TracePair>,
    /// All failed attempts (for diagnostics and the census's invalid-trace
    /// accounting).
    pub failed_attempts: Vec<WindowTrace>,
}

impl GatherOutcome {
    /// The [`GatherFinished`] event that reports this outcome, however
    /// the ladder was walked (simulated or over sockets).
    pub fn finished_event(&self) -> Event<'static> {
        Event::GatherFinished(GatherFinished {
            usable: self.pair.is_some(),
            failed_attempts: self.failed_attempts.len() as u32,
            wmax: self.pair.as_ref().map(|p| p.wmax_threshold()),
        })
    }

    /// The dominant reason gathering failed, if it did.
    pub fn failure_reason(&self) -> Option<InvalidReason> {
        if self.pair.is_some() {
            return None;
        }
        let reasons: Vec<InvalidReason> = self
            .failed_attempts
            .iter()
            .filter_map(|t| t.invalid)
            .collect();
        for preferred in [
            InvalidReason::TransportAborted,
            InvalidReason::PageTooShort,
            InvalidReason::NoTimeoutResponse,
            InvalidReason::RecoveryTooShort,
            InvalidReason::NeverExceededThreshold,
        ] {
            if reasons.contains(&preferred) {
                return Some(preferred);
            }
        }
        Some(InvalidReason::NeverExceededThreshold)
    }
}

/// Which endpoint tore a probing connection down.
///
/// The prober abandons connections itself (threshold never crossed, server
/// deaf to the timeout, trace complete); the server side closes when its
/// data budget runs dry mid-probe. A wire observer can tell the two apart
/// by who sends the FIN, which is exactly what `caai-capture`'s ingestion
/// uses to reconstruct [`InvalidReason`]s from a capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CloseInitiator {
    /// The prober closed (abandoned the attempt or finished the trace).
    Prober,
    /// The server finished its data and closed first.
    Server,
}

/// Observer of the packet exchange a probe attempt produces.
///
/// [`Prober::gather_observed`] reports every wire-visible event from the
/// prober's vantage point: data packets as they *arrive* (after path loss,
/// duplication and reordering — lost packets are never reported), and ACKs
/// as they are *sent* (before any ACK loss downstream). Sequence numbers
/// are in packets (MSS units), times in emulated seconds. Events stay
/// per packet although the prober moves runs: the pcap writer in
/// `caai-capture` implements this to render a byte-valid capture of a
/// simulated probe session, and a capture has a record per packet. The
/// default methods do nothing, so taps implement only what they need,
/// and for [`NoopTap`] the per-packet loops compile away.
pub trait ProbeTap {
    /// A new probing connection opened at `now` for `(env, wmax)`.
    fn connection_opened(
        &mut self,
        now: f64,
        env: EnvironmentId,
        wmax: u32,
        proposed_mss: u32,
        granted_mss: u32,
    ) {
        let _ = (now, env, wmax, proposed_mss, granted_mss);
    }

    /// One data packet (packet-unit sequence `seq`) arrived at `now`.
    /// `duplicate` marks a spurious path-duplicated copy.
    fn data_received(&mut self, now: f64, seq: u64, duplicate: bool) {
        let _ = (now, seq, duplicate);
    }

    /// The prober sent a cumulative ACK for everything below `cum_ack` at
    /// `now`. `duplicate` marks the F-RTO counter-measure duplicate ACK.
    fn ack_sent(&mut self, now: f64, cum_ack: u64, duplicate: bool) {
        let _ = (now, cum_ack, duplicate);
    }

    /// The connection closed at `now`.
    fn connection_closed(&mut self, now: f64, initiator: CloseInitiator) {
        let _ = (now, initiator);
    }
}

/// A tap that ignores every event (the default for untapped gathering).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopTap;

impl ProbeTap for NoopTap {}

/// The CAAI prober: the simulator's driver of [`crate::ladder`]. The
/// ladder decides what to attempt, what to ACK and when to withhold; the
/// prober owns everything simulated — the server's TCP stack, the path's
/// loss/duplication/reordering, the tap and the spans.
#[derive(Debug, Clone, Default)]
pub struct Prober {
    config: ProberConfig,
}

impl Prober {
    /// Creates a prober.
    pub fn new(config: ProberConfig) -> Self {
        Prober { config }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ProberConfig {
        &self.config
    }

    /// Runs the full §IV protocol: walk the `w_max` ladder
    /// ([`LadderWalk`]), gather environment A then B at each rung, stop
    /// at the first usable pair.
    pub fn gather(
        &self,
        server: &ServerUnderTest,
        path: &PathConfig,
        rng: &mut impl Rng,
    ) -> GatherOutcome {
        self.gather_observed(server, path, rng, &mut NoopTap, &NullSubscriber)
    }

    /// [`gather`](Self::gather) with a wire observer and a
    /// structured-event subscriber. The two are orthogonal: the tap sees
    /// every packet of every connection of the walk (see [`ProbeTap`]),
    /// the subscriber sees each rung attempt and the walk's outcome as
    /// they happen (see [`caai_obs::Subscriber`]). Neither changes the
    /// outcome, and both are type parameters so that the do-nothing
    /// [`NoopTap`] and `NullSubscriber` cost nothing per packet.
    pub fn gather_observed<T: ProbeTap + ?Sized, S: Subscriber>(
        &self,
        server: &ServerUnderTest,
        path: &PathConfig,
        rng: &mut impl Rng,
        tap: &mut T,
        obs: &S,
    ) -> GatherOutcome {
        let mut walk = LadderWalk::new();
        let mut now = 0.0;
        let mut inbox = Inbox::default();
        while let Some((env, wmax)) = walk.next(&self.config.wmax_ladder) {
            let (trace, end) =
                self.attempt(server, env, wmax, now, path, rng, tap, obs, &mut inbox);
            now = end + self.config.inter_connection_wait;
            walk.record(trace);
        }
        let outcome = walk.finish();
        obs.on_event(&outcome.finished_event());
        outcome
    }

    /// Gathers one window trace in one environment at one `w_max` rung.
    /// Returns the trace and the simulation time when the connection ended.
    pub fn gather_trace(
        &self,
        server: &ServerUnderTest,
        env: EnvironmentId,
        wmax: u32,
        start: f64,
        path: &PathConfig,
        rng: &mut impl Rng,
    ) -> (WindowTrace, f64) {
        let inbox = &mut Inbox::default();
        self.attempt(
            server,
            env,
            wmax,
            start,
            path,
            rng,
            &mut NoopTap,
            &NullSubscriber,
            inbox,
        )
    }

    /// One probing connection, reported to the tap and the subscriber:
    /// one [`caai_obs::RungAttemptStarted`] / [`caai_obs::RungAttemptEnded`]
    /// pair brackets the attempt, with the round count, validity, and
    /// whether the Fig. 13 stall early-exit fired. Returns the trace and
    /// the simulation time when the connection ended. `inbox` lends its
    /// buffers: what they hold on entry is discarded, their capacity is
    /// kept for the next rung.
    #[allow(clippy::too_many_arguments)]
    fn attempt<T: ProbeTap + ?Sized, S: Subscriber>(
        &self,
        server: &ServerUnderTest,
        env: EnvironmentId,
        wmax: u32,
        start: f64,
        path: &PathConfig,
        rng: &mut impl Rng,
        tap: &mut T,
        obs: &S,
        inbox: &mut Inbox,
    ) -> (WindowTrace, f64) {
        let config = &self.config;
        let mut attempt = RungAttempt::new(env, wmax);
        obs.on_event(&Event::RungAttemptStarted(attempt.started()));
        let span = span_begin_at(
            obs,
            SpanKind::RungAttempt,
            i64::from(wmax),
            matches!(env, EnvironmentId::B) as i64,
            start,
        );
        let granted_mss = server.granted_mss(config.proposed_mss);
        attempt.set_mss(granted_mss);
        let mut conn = server.connect(config.proposed_mss, start);
        let mut now = start;
        tap.connection_opened(now, env, wmax, config.proposed_mss, granted_mss);
        let mut server_cum: u64 = 0; // highest cum-ack delivered
        inbox.carry.clear();

        let closed_by = loop {
            let post = attempt.phase() == AttemptPhase::Post;
            let round = i64::from(attempt.round_number());
            let round_span = span_begin_at(obs, SpanKind::Round, round, post as i64, now);
            let rtt = attempt.round_rtt();
            let burst = conn.transmit(now);
            let end = if burst.is_empty() && inbox.carry.is_empty() {
                let done = conn.finished();
                if !done {
                    fire_rto_within(&mut conn, now, now + rtt);
                }
                attempt.on_silent_round(config, done)
            } else {
                inbox.deliver(burst.seqs().start, burst.len() as u64, path, rng);
                for run in &inbox.received {
                    for seq in run.first..run.first + run.len {
                        tap.data_received(now, seq, run.duplicate);
                    }
                }
                attempt.on_round(config, &inbox.received)
            }
            .expect("rounds are driven only while the attempt measures");
            now += end.elapsed;
            for acks in attempt.acks() {
                let rtt = if acks.duplicate { 0.0 } else { rtt };
                // One fate per ACK, in sending order; the ACKs between two
                // losses reach the server as the train they form.
                let (mut first, mut left) = (acks.first, acks.len);
                while left > 0 {
                    let delivered = path.ack_run(left, rng);
                    // The lost ACK that ended the train was sent as well.
                    let sent = left.min(delivered + 1);
                    for cum_ack in first..first + sent {
                        tap.ack_sent(now, cum_ack, acks.duplicate);
                    }
                    deliver_ack_run(&mut conn, &mut server_cum, now, first, delivered, rtt);
                    (first, left) = (first + sent, left - sent);
                }
            }
            round_span.end_at(obs, now);
            match end.next {
                Next::Transmit => {}
                Next::Close(by) => break by,
                Next::AwaitRto => {
                    inbox.carry.clear();
                    let (answered, at) = await_rto(&mut conn, now, config.max_rto_waits);
                    now = at;
                    let end = attempt
                        .on_rto(answered)
                        .expect("the attempt awaits the RTO");
                    if let Next::Close(by) = end.next {
                        break by;
                    }
                }
            }
        };

        server.disconnect(&conn, now);
        tap.connection_closed(now, closed_by);
        span.end_at(obs, now);
        obs.on_event(&Event::RungAttemptEnded(attempt.ended()));
        (attempt.into_trace(), now)
    }
}

/// The prober's end of the path. The buffers live as long as the walk,
/// so a round allocates nothing once they hold the (few) runs of one.
#[derive(Debug, Default)]
struct Inbox {
    /// What arrived this round, in sequence order.
    received: Vec<Run>,
    /// Late packets and the spurious copies of duplicated ones, in the
    /// order sent: they surface next round.
    carry: Vec<Run>,
}

impl Inbox {
    /// Applies path fates to the burst `first .. first + len` — one draw a
    /// packet, in wire order — behind the arrivals carried over from the
    /// previous round. Leaves this round's arrivals in `received`, in
    /// sequence order with carried packets ahead of equal sequence
    /// numbers, and the next round's carry in `carry`. Deliveries between
    /// two exceptions are one run, whatever their number; a loss or a
    /// late packet ends it.
    fn deliver(&mut self, mut first: u64, mut left: u64, path: &PathConfig, rng: &mut impl Rng) {
        self.received.clear();
        self.received.append(&mut self.carry);
        while left > 0 {
            let (delivered, fate) = path.data_run(left, rng);
            let arrived = delivered + u64::from(fate == Some(DataFate::Duplicated));
            push_run(&mut self.received, first, arrived, false);
            let Some(fate) = fate else { break };
            let seq = first + delivered;
            if fate != DataFate::Lost {
                push_run(&mut self.carry, seq, 1, fate == DataFate::Duplicated);
            }
            (first, left) = (seq + 1, left - delivered - 1);
        }
        // Stragglers lie below this round's burst and a burst ascends, so
        // arrival order is sequence order — unless the sender went back
        // with packets in flight. That rare round is sorted packet by
        // packet, earlier arrivals ahead of equal ones.
        let ends = |run: &Run| run.first + (run.len - 1);
        if !self.received.windows(2).all(|w| ends(&w[0]) <= w[1].first) {
            let mut packets = Vec::new();
            for r in &self.received {
                packets.extend((r.first..=ends(r)).map(|seq| (seq, r.duplicate)));
            }
            packets.sort_by_key(|&(seq, _)| seq);
            self.received.clear();
            for (seq, duplicate) in packets {
                push_run(&mut self.received, seq, 1, duplicate);
            }
        }
    }
}

/// Appends the packets `first .. first + len`, extending the last run
/// when they continue it.
fn push_run(runs: &mut Vec<Run>, first: u64, len: u64, duplicate: bool) {
    if len == 0 {
        return;
    }
    match runs.last_mut() {
        Some(run) if run.duplicate == duplicate && run.first + run.len == first => run.len += len,
        _ => runs.push(Run {
            first,
            len,
            duplicate,
        }),
    }
}

// ---------------------------------------------------------------------
// The server end of a probing connection. `caai-net`'s emulated server
// answers the wire protocol with these same three, so a simulated and an
// emulated server react identically to the ladder.
// ---------------------------------------------------------------------

/// Delivers the prober's ACK train `first, first + 1, …, first + count - 1`
/// (all at `now` with the same `rtt`; a zero `rtt` marks the F-RTO
/// counter-measure duplicate) to the server's TCP stack.
///
/// A cumulative ACK that does not advance `server_cum`, the highest one
/// delivered so far, is dropped, which leaves a shorter train: TCP would
/// read it as a duplicate ACK and fast-retransmit. The simulated prober
/// never sends one, but `caai-net`'s emulated server feeds the `Ack` and
/// `AckRun` frames a peer wrote on its socket through here, and a peer's
/// stale ACKs must not steer the server's TCP stack. The F-RTO duplicate
/// is intentionally a non-advancing ACK and always goes through.
pub fn deliver_ack_run(
    conn: &mut TcpServer,
    server_cum: &mut u64,
    now: f64,
    first: u64,
    count: u64,
    rtt: f64,
) {
    if rtt == 0.0 {
        return conn.on_ack_run(now, first, count, rtt);
    }
    let advancing = first.max(server_cum.saturating_add(1));
    let end = first.saturating_add(count);
    if advancing < end {
        *server_cum = end - 1;
        conn.on_ack_run(now, advancing, end - advancing, rtt);
    }
}

/// A round in which the server had nothing to send: every ACK of the
/// previous round was lost, so its own (unplanned) RTO fires if the
/// deadline falls before `horizon`, the end of the round.
pub fn fire_rto_within(conn: &mut TcpServer, now: f64, horizon: f64) {
    if let Some(deadline) = conn.rto_deadline() {
        if deadline <= horizon {
            conn.fire_rto(deadline.max(now));
        }
    }
}

/// The emulated timeout: with every ACK withheld since `now`, waits out
/// the server's RTO, re-armed up to `max_waits` times. Returns whether
/// the server retransmitted, and when the waiting ended.
pub fn await_rto(conn: &mut TcpServer, mut now: f64, max_waits: u32) -> (bool, f64) {
    for _ in 0..=max_waits {
        let Some(deadline) = conn.rto_deadline() else {
            break;
        };
        now = now.max(deadline);
        if conn.fire_rto(now) {
            return (true, now);
        }
    }
    (false, now)
}

#[cfg(test)]
mod tests {
    use super::*;
    use caai_congestion::AlgorithmId;
    use caai_netem::rng::seeded;
    use caai_tcpsim::{SenderQuirk, ServerConfig};

    fn gather_ideal(algo: AlgorithmId, env: EnvironmentId, wmax: u32) -> WindowTrace {
        let server = ServerUnderTest::ideal(algo);
        let prober = Prober::new(ProberConfig::default());
        let mut rng = seeded(1);
        let (trace, _) =
            prober.gather_trace(&server, env, wmax, 0.0, &PathConfig::clean(), &mut rng);
        trace
    }

    #[test]
    fn reno_env_a_trace_shape() {
        let t = gather_ideal(AlgorithmId::Reno, EnvironmentId::A, 512);
        assert!(t.is_valid(), "trace: {t:?}");
        // Slow start doubles from the initial window of 2 to past 512.
        assert_eq!(&t.pre[..5], &[2, 4, 8, 16, 32]);
        let w_b = *t.pre.last().unwrap();
        assert!(w_b > 512, "w^B = {w_b}");
        // Post-timeout recovery: 1, 2, 4, ... then +1/RTT past ssthresh.
        assert_eq!(&t.post[..4], &[1, 2, 4, 8]);
        assert_eq!(t.post.len(), POST_TIMEOUT_ROUNDS);
        // Find slow start exit ≈ w^B/2 and linear growth after it.
        let max_post = *t.post.iter().max().unwrap();
        assert!(
            (max_post as f64) < 0.56 * w_b as f64,
            "RENO recovery stays near w^B/2: {max_post} vs {w_b}"
        );
    }

    #[test]
    fn measured_windows_match_cwnd_on_clean_path() {
        // On a clean path the measured trace is exactly the server's cwnd
        // sequence — the paper's Fig. 3 setting.
        let t = gather_ideal(AlgorithmId::Scalable, EnvironmentId::A, 512);
        assert!(t.is_valid());
        // STCP post-timeout: ssthresh = 0.875·w^B.
        let w_b = *t.pre.last().unwrap();
        let max_post = *t.post.iter().max().unwrap();
        assert!(
            max_post as f64 >= 0.8 * w_b as f64,
            "STCP recovers close to w^B: {max_post} vs {w_b}"
        );
    }

    #[test]
    fn vegas_env_b_plateaus_below_64() {
        let t = gather_ideal(AlgorithmId::Vegas, EnvironmentId::B, 512);
        assert!(!t.is_valid());
        assert_eq!(t.invalid, Some(InvalidReason::NeverExceededThreshold));
        assert!(t.max_window() < 64, "max {}", t.max_window());
        assert!(t.usable_for_classification());
    }

    #[test]
    fn vegas_env_a_is_reno_like_and_valid() {
        let t = gather_ideal(AlgorithmId::Vegas, EnvironmentId::A, 512);
        assert!(t.is_valid(), "VEGAS reaches the threshold in env A: {t:?}");
    }

    #[test]
    fn full_gather_returns_a_pair_for_every_identified_algorithm() {
        for algo in caai_congestion::ALL_IDENTIFIED {
            let server = ServerUnderTest::ideal(algo);
            let prober = Prober::new(ProberConfig::default());
            let mut rng = seeded(7);
            let outcome = prober.gather(&server, &PathConfig::clean(), &mut rng);
            assert!(outcome.pair.is_some(), "{algo:?} must gather a pair");
            let pair = outcome.pair.unwrap();
            // YEAH cannot cross 512 in environment B: its precautionary
            // decongestion caps the window near 410 once the queue estimate
            // (0.2·w after the RTT step) exceeds α = 80 packets. The ladder
            // resolves it one rung down, where YEAH remains identifiable.
            let expected = if algo == AlgorithmId::Yeah { 256 } else { 512 };
            assert_eq!(pair.wmax_threshold(), expected, "{algo:?} ladder rung");
        }
    }

    #[test]
    fn gather_obs_reports_attempts_and_outcome() {
        use caai_obs::MetricsSubscriber;
        let server = ServerUnderTest::ideal(AlgorithmId::Reno);
        let prober = Prober::new(ProberConfig::default());

        let metrics = MetricsSubscriber::new();
        let observed = prober.gather_observed(
            &server,
            &PathConfig::clean(),
            &mut seeded(7),
            &mut NoopTap,
            &metrics,
        );
        let plain = prober.gather(&server, &PathConfig::clean(), &mut seeded(7));
        assert_eq!(observed, plain, "subscriber must not change the outcome");

        let snap = metrics.snapshot();
        // RENO succeeds at the first rung: env A + env B = 2 attempts.
        assert_eq!(snap.counters["gather.attempts"], 2);
        assert_eq!(snap.counters["gather.attempts_valid"], 2);
        assert_eq!(snap.counters["gather.attempts_stalled"], 0);
        assert_eq!(snap.counters["gather.runs"], 1);
        assert_eq!(snap.counters["gather.usable"], 1);
        assert!(snap.counters["gather.rounds"] > 20, "{snap:?}");
    }

    #[test]
    fn gather_obs_counts_stall_exits_down_the_ladder() {
        use caai_obs::MetricsSubscriber;
        let cfg = ServerConfig::ideal().with_quirk(SenderQuirk::BoundedBuffer { clamp: 200 });
        let server = ServerUnderTest::ideal_with_config(AlgorithmId::Reno, cfg);
        let prober = Prober::new(ProberConfig::default());
        let metrics = MetricsSubscriber::new();
        let outcome = prober.gather_observed(
            &server,
            &PathConfig::clean(),
            &mut seeded(8),
            &mut NoopTap,
            &metrics,
        );
        assert_eq!(outcome.pair.expect("rung 128 works").wmax_threshold(), 128);

        let snap = metrics.snapshot();
        // Rungs 512 and 256 fail in env A (window ceiling → stall exit),
        // rung 128 gathers both environments.
        assert_eq!(snap.counters["gather.attempts"], 4);
        assert_eq!(snap.counters["gather.attempts_valid"], 2);
        assert_eq!(snap.counters["gather.attempts_stalled"], 2);
        assert_eq!(snap.counters["gather.usable"], 1);
    }

    #[test]
    fn window_ceiling_falls_down_the_ladder() {
        let cfg = ServerConfig::ideal().with_quirk(SenderQuirk::BoundedBuffer { clamp: 200 });
        let server = ServerUnderTest::ideal_with_config(AlgorithmId::Reno, cfg);
        let prober = Prober::new(ProberConfig::default());
        let mut rng = seeded(8);
        let outcome = prober.gather(&server, &PathConfig::clean(), &mut rng);
        let pair = outcome.pair.expect("rung 128 must work");
        assert_eq!(pair.wmax_threshold(), 128);
        assert_eq!(
            outcome.failed_attempts.len(),
            2,
            "512 and 256 attempts failed"
        );
    }

    #[test]
    fn deaf_server_yields_no_timeout_response() {
        let cfg = ServerConfig::ideal().with_quirk(SenderQuirk::IgnoresTimeout);
        let server = ServerUnderTest::ideal_with_config(AlgorithmId::Reno, cfg);
        let prober = Prober::new(ProberConfig::default());
        let mut rng = seeded(9);
        let outcome = prober.gather(&server, &PathConfig::clean(), &mut rng);
        assert!(outcome.pair.is_none());
        assert_eq!(
            outcome.failure_reason(),
            Some(InvalidReason::NoTimeoutResponse)
        );
    }

    #[test]
    fn short_page_yields_page_too_short() {
        // `ServerUnderTest::ideal` has no budget setter on purpose; use a
        // synthetic web server with a tiny page instead.
        use caai_webmodel::{PageModel, PopulationConfig};
        let mut rng = seeded(10);
        let mut web = PopulationConfig::small(1).generate(&mut rng).pop().unwrap();
        web.pages = PageModel {
            default_bytes: 2_000,
            longest_bytes: 2_000,
        };
        web.requests = caai_webmodel::RequestAcceptanceModel { max_requests: 1 };
        web.quirk = caai_tcpsim::SenderQuirk::None;
        let sut = ServerUnderTest::from_web_server(&web);
        let prober = Prober::new(ProberConfig::default());
        let outcome = prober.gather(&sut, &PathConfig::clean(), &mut rng);
        assert!(outcome.pair.is_none());
        assert_eq!(outcome.failure_reason(), Some(InvalidReason::PageTooShort));
    }

    #[test]
    fn frto_countermeasure_preserves_slow_start() {
        let cfg = ServerConfig::ideal().with_frto(true);
        let server = ServerUnderTest::ideal_with_config(AlgorithmId::Reno, cfg);
        let prober = Prober::new(ProberConfig::default());
        let mut rng = seeded(11);
        let (t, _) = prober.gather_trace(
            &server,
            EnvironmentId::A,
            512,
            0.0,
            &PathConfig::clean(),
            &mut rng,
        );
        assert!(t.is_valid());
        assert_eq!(&t.post[..4], &[1, 2, 4, 8], "conventional recovery forced");
    }

    #[test]
    fn without_countermeasure_frto_skips_slow_start() {
        let cfg = ServerConfig::ideal().with_frto(true);
        let server = ServerUnderTest::ideal_with_config(AlgorithmId::Reno, cfg);
        let pc = ProberConfig {
            frto_countermeasure: false,
            ..ProberConfig::default()
        };
        let prober = Prober::new(pc);
        let mut rng = seeded(12);
        let (t, _) = prober.gather_trace(
            &server,
            EnvironmentId::A,
            512,
            0.0,
            &PathConfig::clean(),
            &mut rng,
        );
        // The spurious-timeout path restores the window: no 1,2,4,8 ramp.
        let ramp = t.post.len() >= 4 && t.post[..4] == [1, 2, 4, 8];
        assert!(!ramp, "F-RTO must defeat the naive prober: {:?}", &t.post);
    }

    #[test]
    fn lossy_path_still_yields_valid_traces_mostly() {
        let server = ServerUnderTest::ideal(AlgorithmId::Reno);
        let prober = Prober::new(ProberConfig::default());
        let mut rng = seeded(13);
        let path = PathConfig::lossy(0.02);
        let mut valid = 0;
        for _ in 0..10 {
            let outcome = prober.gather(&server, &path, &mut rng);
            if outcome.pair.is_some() {
                valid += 1;
            }
        }
        assert!(
            valid >= 8,
            "2% loss should rarely break gathering: {valid}/10"
        );
    }

    /// One packet as the prober received it, as rounds were before they
    /// were runs.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Carried {
        seq: u64,
        duplicate: bool,
    }

    /// The packets `runs` stand for, in order.
    fn packets(runs: &[Run]) -> Vec<Carried> {
        let unrolled = runs.iter().flat_map(|r| {
            let duplicate = r.duplicate;
            (r.first..r.first + r.len).map(move |seq| Carried { seq, duplicate })
        });
        unrolled.collect()
    }

    /// The per-packet `deliver` that the run form replaced, kept as its
    /// oracle: one arrival per packet, a stable sort over all of them.
    fn deliver_per_packet(
        wire: &[u64],
        carry: &mut Vec<Carried>,
        path: &PathConfig,
        rng: &mut impl Rng,
    ) -> Vec<Carried> {
        let mut received = std::mem::take(carry);
        for &seq in wire {
            let arrival = Carried {
                seq,
                duplicate: false,
            };
            match path.data_fate(rng) {
                DataFate::Delivered => received.push(arrival),
                DataFate::Lost => {}
                DataFate::Duplicated => {
                    received.push(arrival);
                    carry.push(Carried {
                        duplicate: true,
                        ..arrival
                    });
                }
                DataFate::Late => carry.push(arrival),
            }
        }
        received.sort_by_key(|p| p.seq);
        received
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(3000))]

        #[test]
        fn run_deliver_is_the_per_packet_deliver(seed in 0u64..u64::MAX) {
            use rand::RngCore;
            let mut draw = seeded(seed);
            let mut below = move |n: u64| draw.next_u64() % n;
            let path = PathConfig {
                data_loss: [0.0, 0.02, 0.3][below(3) as usize],
                ack_loss: 0.0,
                data_dup: [0.0, 0.01, 0.2][below(3) as usize],
                late_prob: [0.0, 0.05, 0.25][below(3) as usize],
            };
            // Any carry, not only one a previous round could have left.
            let mut carry: Vec<Carried> = (0..below(6))
                .map(|_| Carried { seq: below(60), duplicate: below(2) == 0 })
                .collect();
            let mut inbox = Inbox::default();
            for late in &carry {
                push_run(&mut inbox.carry, late.seq, 1, late.duplicate);
            }
            let (mut rng, mut oracle_rng) = (seeded(seed ^ 1), seeded(seed ^ 1));
            for round in 0..4 {
                // A sender's burst is one run, and may start below the
                // carry when the sender went back.
                let (first, len) = (below(60), below(80));
                inbox.deliver(first, len, &path, &mut rng);
                let wire: Vec<u64> = (first..first + len).collect();
                let expected = deliver_per_packet(&wire, &mut carry, &path, &mut oracle_rng);
                let (received, carried) = (packets(&inbox.received), packets(&inbox.carry));
                proptest::prop_assert!(
                    received == expected,
                    "round {round}: {received:?} is not {expected:?}"
                );
                proptest::prop_assert!(
                    carried == carry,
                    "round {round}: carry {carried:?} is not {carry:?}"
                );
                proptest::prop_assert!(inbox.received.iter().all(|r| r.len > 0));
                proptest::prop_assert!(rng.next_u64() == oracle_rng.next_u64(), "RNG streams diverged");
            }
        }
    }

    #[test]
    fn trace_is_deterministic_per_seed() {
        let server = ServerUnderTest::ideal(AlgorithmId::CubicV2);
        let prober = Prober::new(ProberConfig::default());
        let path = PathConfig::lossy(0.05);
        let (a, _) =
            prober.gather_trace(&server, EnvironmentId::A, 512, 0.0, &path, &mut seeded(99));
        let (b, _) =
            prober.gather_trace(&server, EnvironmentId::A, 512, 0.0, &path, &mut seeded(99));
        assert_eq!(a, b);
    }
}
