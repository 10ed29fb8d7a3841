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
//! Those decisions live in [`crate::ladder`], and both ends of a probing
//! connection in [`crate::sansio`]: [`Prober`] passes frames between the
//! ladder's client core and a server core in memory, the server core runs
//! the server's TCP stack and draws the path's packet fates, and this
//! module reports the frames to the tap and the subscriber. A live probe
//! over `caai-net`'s sockets runs the same two cores. The server core
//! keeps two rules a walk depends on (its docs have them in full):
//! packets still in flight when the server has nothing left to send are
//! delivered as a round, which neither closes the connection nor fires
//! the server's RTO (carry); and the walk's connections share the
//! caller's [`ServerUnderTest`] ssthresh cache, written as each one
//! closes (cache).

use caai_netem::{EnvironmentId, PathConfig};
use caai_obs::{
    span_begin_at, Event, GatherFinished, NullSubscriber, SpanKind, SpanToken, Subscriber,
};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::frame::{ClientFrame, ServerFrame};
use crate::ladder::{AttemptPhase, DEFAULT_LADDER};
use crate::sansio::{LadderCore, ServerCore, Step};
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
        let failed = |reason| {
            self.failed_attempts
                .iter()
                .any(|t| t.invalid == Some(reason))
        };
        let preferred = [
            InvalidReason::TransportAborted,
            InvalidReason::PageTooShort,
            InvalidReason::NoTimeoutResponse,
            InvalidReason::RecoveryTooShort,
        ];
        let reason = preferred.into_iter().find(|&reason| failed(reason));
        reason.or(Some(InvalidReason::NeverExceededThreshold))
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

/// The CAAI prober: every simulated gather. It runs the walk of a
/// [`LadderCore`] against a [`ServerCore`] per connection, passing frames
/// between them as values, and reports what those frames carry to the
/// tap and the subscriber. The ladder decides what to attempt, what to
/// ACK and when to withhold; the server end runs the server's TCP stack
/// and the path's loss, duplication and reordering.
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
    /// ([`LadderWalk`](crate::ladder::LadderWalk)), gather environment A
    /// then B at each rung, stop at the first usable pair.
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
        let client = LadderCore::new(self.config.clone());
        let (outcome, _) = self.walk(client, server, path, rng, tap, obs);
        obs.on_event(&outcome.finished_event());
        outcome
    }

    /// Gathers one window trace in one environment at one `w_max` rung,
    /// on a connection opened at `start`. Returns the trace and the
    /// simulation time when the connection ended.
    pub fn gather_trace(
        &self,
        server: &ServerUnderTest,
        env: EnvironmentId,
        wmax: u32,
        start: f64,
        path: &PathConfig,
        rng: &mut impl Rng,
    ) -> (WindowTrace, f64) {
        let client = LadderCore::one_attempt(self.config.clone(), env, wmax, start);
        let (outcome, end) = self.walk(client, server, path, rng, &mut NoopTap, &NullSubscriber);
        let trace = outcome.failed_attempts.into_iter().next();
        (trace.expect("a single attempt is filed as failed"), end)
    }

    /// Runs `client`'s walk against `server` across `path`, a fresh
    /// [`ServerCore`] per connection, and reports it: to `obs` one
    /// [`caai_obs::RungAttemptStarted`] / [`caai_obs::RungAttemptEnded`]
    /// pair and one `RungAttempt` span per connection, a `Round` span per
    /// round; to `tap` the packets the server's bursts deliver and the ACKs
    /// the prober's frames carry. Returns the outcome and when the last
    /// connection closed.
    fn walk<T: ProbeTap + ?Sized, S: Subscriber>(
        &self,
        mut client: LadderCore,
        server: &ServerUnderTest,
        path: &PathConfig,
        rng: &mut impl Rng,
        tap: &mut T,
        obs: &S,
    ) -> (GatherOutcome, f64) {
        let proposed_mss = self.config.proposed_mss;
        let (mut conn, mut rung) = (None, (EnvironmentId::A, 0));
        let (mut rung_span, mut round_span) = (SpanToken::NONE, SpanToken::NONE);
        let (mut round_at, mut closed_at) = (0.0, 0.0);
        let mut step = client.start();
        loop {
            let (frames, close_after) = match step {
                Step::Done(outcome) => return (*outcome, closed_at),
                Step::Connect => {
                    let attempt = client.attempt().expect("a connection is for an attempt");
                    rung = (attempt.trace().env, attempt.trace().wmax_threshold);
                    let (env, wmax) = ((rung.0 == EnvironmentId::B) as i64, i64::from(rung.1));
                    obs.on_event(&Event::RungAttemptStarted(attempt.started()));
                    rung_span = span_begin_at(obs, SpanKind::RungAttempt, wmax, env, client.now());
                    conn = Some(ServerCore::over_path(server, *path, &mut *rng));
                    step = client.on_connected();
                    continue;
                }
                Step::Send {
                    frames,
                    close_after,
                } => (frames, close_after),
            };
            let core = conn.as_mut().expect("a send follows a connect");
            let mut reply = None;
            for frame in &frames {
                match *frame {
                    ClientFrame::Xmit { now, .. } => {
                        let attempt = client.attempt().expect("a round is an attempt's");
                        let round = i64::from(attempt.round_number());
                        let post = (attempt.phase() == AttemptPhase::Post) as i64;
                        round_span = span_begin_at(obs, SpanKind::Round, round, post, now);
                        round_at = now;
                    }
                    ClientFrame::Ack { now, cum_ack, .. } => tap.ack_sent(now, cum_ack, true),
                    ClientFrame::Acks { now, ref runs, .. } => {
                        for run in runs {
                            for cum_ack in run.first..run.first + run.len {
                                tap.ack_sent(now, cum_ack, false);
                            }
                        }
                    }
                    _ => {}
                }
                let answer = core
                    .on_frame(frame)
                    .expect("the simulated ends keep the protocol");
                reply = answer.frames.or(reply);
            }
            client.recycle(frames);
            if close_after {
                closed_at = client.now();
                tap.connection_closed(closed_at, core.close(closed_at));
                rung_span.end_at(obs, closed_at);
                let ended = *client.rungs().last().expect("a closed attempt is recorded");
                obs.on_event(&Event::RungAttemptEnded(ended));
                step = client.on_closed();
                continue;
            }
            let reply = reply.expect("the server answers a send that awaits a reply");
            match &reply {
                ServerFrame::Welcome { granted_mss } => {
                    tap.connection_opened(client.now(), rung.0, rung.1, proposed_mss, *granted_mss);
                }
                ServerFrame::Burst { runs, .. } => {
                    for run in runs {
                        for seq in run.first..run.first + run.len {
                            tap.data_received(round_at, seq, run.duplicate);
                        }
                    }
                }
                ServerFrame::RtoResult { .. } => {}
            }
            let next = client.on_frame(&reply);
            step = next.expect("the simulated ends keep the protocol");
            if let ServerFrame::Burst { .. } = reply {
                round_span.end_at(obs, client.now());
            }
            core.recycle(reply);
        }
    }
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
