//! Counts, not clocks: how many of the ACKs a probe delivers reach the
//! controller's `cong_avoid`.
//!
//! A train costs its window increments, not its ACKs: between two
//! increments a controller that only counts coasts
//! ([`CongestionControl::coast`]), and a HyStart-armed connection leaves
//! the train only where HyStart acts. The counts below repeat exactly on
//! any host, so they can gate where a timing cannot; a return to one
//! `cong_avoid` per ACK multiplies them by a hundred.

use caai_congestion::cubic::Cubic;
use caai_congestion::reno::Reno;
use caai_congestion::{Ack, CongestionControl, LossKind, Transport};
use caai_tcpsim::{SenderQuirk, ServerConfig, SlowStartVariant, SsthreshCache, TcpServer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Forwards every hook and counts the `cong_avoid` calls. `on_ack_train`
/// stays the trait's own, so what it calls is what is counted.
#[derive(Debug)]
struct Counting<C> {
    inner: C,
    cong_avoid_calls: Arc<AtomicU64>,
}

impl<C: CongestionControl> CongestionControl for Counting<C> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn init(&mut self, tp: &mut Transport) {
        self.inner.init(tp)
    }

    fn pkts_acked(&mut self, tp: &mut Transport, ack: &Ack) {
        self.inner.pkts_acked(tp, ack)
    }

    fn cong_avoid(&mut self, tp: &mut Transport, ack: &Ack) {
        self.cong_avoid_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.cong_avoid(tp, ack)
    }

    fn coast(&mut self, tp: &mut Transport, ack: &Ack, left: u64) -> u64 {
        self.inner.coast(tp, ack, left)
    }

    fn ssthresh(&mut self, tp: &Transport) -> u32 {
        self.inner.ssthresh(tp)
    }

    fn on_loss(&mut self, tp: &mut Transport, kind: LossKind, now: f64) {
        self.inner.on_loss(tp, kind, now)
    }
}

/// What the rounds after the timeout are made of.
#[derive(Debug, PartialEq)]
struct PostTimeout {
    /// ACKs delivered, one train a round.
    acks: u64,
    /// Of them, how many went through `cong_avoid`.
    cong_avoid_calls: u64,
    /// Rounds that began in slow start.
    slow_start_rounds: u64,
    /// Packets the window grew by once slow start was over.
    increments: u64,
}

const ROUNDS: u64 = 18;

/// One round with every packet acknowledged and no ACK lost, a train;
/// returns its ACKs.
fn round(server: &mut TcpServer, now: &mut f64) -> u64 {
    let burst = server.transmit(*now);
    *now += 1.0;
    server.on_ack_run(*now, burst.seqs().start + 1, burst.len() as u64, 1.0);
    burst.len() as u64
}

/// A probe's shape (§IV): slow start to `w_max` = 512, the emulated
/// timeout, then 18 rounds — slow start to the new threshold and
/// congestion avoidance from there. Also returns the `cong_avoid` calls
/// made before the timeout.
fn probe_rounds(
    controller: impl CongestionControl + 'static,
    config: ServerConfig,
) -> (u64, PostTimeout) {
    let calls = Arc::new(AtomicU64::new(0));
    let counting = Counting {
        inner: controller,
        cong_avoid_calls: Arc::clone(&calls),
    };
    let mut server = TcpServer::with_controller(
        Box::new(counting),
        config,
        1 << 40,
        &SsthreshCache::new(),
        0.0,
    );
    let mut now = 0.0;
    while server.cwnd() < 512 {
        round(&mut server, &mut now);
    }
    let _unanswered = server.transmit(now);
    now = server.rto_deadline().expect("data is outstanding");
    assert!(server.fire_rto(now));
    let calls_before = calls.load(Ordering::Relaxed);
    let mut shape = PostTimeout {
        acks: 0,
        cong_avoid_calls: 0,
        slow_start_rounds: 0,
        increments: 0,
    };
    for _ in 0..ROUNDS {
        let (window, threshold) = (server.cwnd(), server.ssthresh());
        shape.acks += round(&mut server, &mut now);
        shape.slow_start_rounds += u64::from(window < threshold);
        shape.increments += u64::from(server.cwnd().saturating_sub(window.max(threshold)));
    }
    shape.cong_avoid_calls = calls.load(Ordering::Relaxed) - calls_before;
    (calls_before, shape)
}

fn post_timeout_rounds(
    controller: impl CongestionControl + 'static,
    slow_start: SlowStartVariant,
) -> PostTimeout {
    let config = ServerConfig {
        slow_start,
        ..ServerConfig::ideal()
    };
    probe_rounds(controller, config).1
}

#[test]
fn an_ideal_reno_calls_cong_avoid_for_a_fiftieth_of_its_acks_at_most() {
    let reno = post_timeout_rounds(Reno::new(), SlowStartVariant::Standard);
    println!("RENO: {reno:?}");
    assert_eq!(
        reno,
        PostTimeout {
            acks: 2_860,
            cong_avoid_calls: 28,
            slow_start_rounds: 8,
            increments: 10
        },
        "half the rounds at windows past 256"
    );
    assert!(
        reno.cong_avoid_calls * 50 < reno.acks,
        "{reno:?}: cong_avoid is back on every ACK"
    );
    // The ACK that opens a train, the ACK that moves the window past slow
    // start, and the ACK on which slow start ends.
    assert!(
        reno.cong_avoid_calls <= ROUNDS + reno.increments + 1,
        "{reno:?}"
    );
}

#[test]
fn a_hystart_armed_cubic_leaves_the_train_only_where_hystart_acts() {
    let cubic = post_timeout_rounds(Cubic::v2(), SlowStartVariant::Hybrid);
    println!("CUBIC_v2 + HyStart: {cubic:?}");
    assert_eq!(
        cubic,
        PostTimeout {
            acks: 4_794,
            cong_avoid_calls: 363,
            slow_start_rounds: 9,
            increments: 160
        },
        "half the rounds at windows past 358"
    );
    // A round is three stretches — HyStart takes the ACK that starts its
    // round and the ACK that ends it, the train lies between — and a
    // stretch opens with an ordinary ACK. Past slow start an increment is
    // the ACK that moves the window and the ACK after, which recomputes
    // `cnt`. In slow start HyStart also takes a round's first 8 ACKs, and
    // every ACK below its engagement window of 16 (1 + 2 + 4 + 8 of them).
    let bound = 3 * ROUNDS + 2 * cubic.increments + 8 * cubic.slow_start_rounds + 15;
    assert!(cubic.cong_avoid_calls <= bound, "{cubic:?} against {bound}");
    assert!(cubic.cong_avoid_calls * 10 < cubic.acks, "{cubic:?}");
}

#[test]
fn a_sender_that_stops_growing_rides_the_train_until_it_can_stop() {
    let probe = |quirk| probe_rounds(Reno::new(), ServerConfig::ideal().with_quirk(quirk));
    let (plain_before, _) = probe(SenderQuirk::None);
    let (before, frozen) = probe(SenderQuirk::NonIncreasing);
    println!("RENO, NonIncreasing: {before} calls before the timeout, then {frozen:?}");
    // The quirk waits for the first timeout; until then the sender is a
    // plain one, ACK for ACK.
    assert_eq!((before, plain_before), (8, 8));
    // After it the quirk watches the slow start ACK by ACK for its end
    // (1 + 2 + … + 128 of them), freezes what the sender may use, and has
    // nothing left to do: a call a round.
    assert_eq!(
        frozen,
        PostTimeout {
            acks: 2_815,
            cong_avoid_calls: 255 + ROUNDS,
            slow_start_rounds: 8,
            increments: 9
        }
    );
}
