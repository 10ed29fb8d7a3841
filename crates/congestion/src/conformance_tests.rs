//! Cross-algorithm conformance and property tests: every implementation
//! must uphold the invariants the CAAI pipeline relies on, regardless of
//! ACK/loss interleaving.

use crate::registry::{AlgorithmId, ALL_WITH_EXTENSIONS};
use crate::transport::{Ack, LossKind, Transport};
use proptest::prelude::*;

/// Drive one emulated RTT round against a controller: send `cwnd` packets,
/// deliver `keep` of the ACKs (modelling forward-path ACK loss).
fn drive_round(
    cc: &mut Box<dyn crate::CongestionControl>,
    tp: &mut Transport,
    now: f64,
    rtt: f64,
    keep_every: u32,
) {
    let w = tp.cwnd;
    tp.snd_nxt += u64::from(w);
    let mut pending = 0u32;
    for i in 0..w {
        pending += 1;
        if keep_every != 0 && i % keep_every == 0 {
            tp.snd_una += u64::from(pending);
            tp.observe_rtt(rtt);
            let ack = Ack {
                now,
                acked: pending,
                rtt,
            };
            cc.pkts_acked(tp, &ack);
            cc.cong_avoid(tp, &ack);
            pending = 0;
        }
    }
    if pending > 0 {
        tp.snd_una += u64::from(pending);
        let ack = Ack {
            now,
            acked: pending,
            rtt,
        };
        cc.pkts_acked(tp, &ack);
        cc.cong_avoid(tp, &ack);
    }
}

fn timeout(cc: &mut Box<dyn crate::CongestionControl>, tp: &mut Transport, now: f64) {
    tp.ssthresh = cc.ssthresh(tp);
    cc.on_loss(tp, LossKind::Timeout, now);
    tp.cwnd = 1;
    tp.cwnd_cnt = 0;
}

#[test]
fn every_algorithm_survives_a_full_episode() {
    for id in ALL_WITH_EXTENSIONS {
        let mut cc = id.build();
        let mut tp = Transport::new(1460);
        // Keep the per-round ACK loops bounded: HYBLA's slow start grows
        // by 2^ρ − 1 per ACK (ρ = 40 at this RTT), which would explode an
        // unclamped window past any loopable size within one round.
        tp.cwnd_clamp = 1024;
        cc.init(&mut tp);
        let mut now = 0.0;
        // Slow start to several hundred packets.
        for _ in 0..12 {
            drive_round(&mut cc, &mut tp, now, 1.0, 1);
            now += 1.0;
        }
        timeout(&mut cc, &mut tp, now);
        now += 3.0;
        // Recovery plus congestion avoidance.
        for _ in 0..25 {
            drive_round(&mut cc, &mut tp, now, 1.0, 1);
            now += 1.0;
            assert!(tp.cwnd >= 1, "{id:?}: cwnd must never reach 0");
        }
        assert!(tp.ssthresh >= 2, "{id:?}: ssthresh floor");
    }
}

#[test]
fn ssthresh_is_at_most_twice_the_window_for_identified_algorithms() {
    // CAAI clamps β to [0.5, 2.0]; sane implementations never exceed 1.0
    // except through history effects, and never return 0.
    for id in ALL_WITH_EXTENSIONS {
        let mut cc = id.build();
        let mut tp = Transport::new(1460);
        tp.cwnd_clamp = 1024; // see every_algorithm_survives_a_full_episode
        cc.init(&mut tp);
        let mut now = 0.0;
        for _ in 0..10 {
            drive_round(&mut cc, &mut tp, now, 1.0, 1);
            now += 1.0;
        }
        let w = tp.cwnd;
        let ss = cc.ssthresh(&tp);
        assert!(ss >= 2, "{id:?}: ssthresh {ss} below floor");
        assert!(
            ss <= w.saturating_mul(2).max(4),
            "{id:?}: ssthresh {ss} wildly above cwnd {w}"
        );
    }
}

#[test]
fn beta_fingerprints_on_a_clean_one_second_path() {
    // The discriminating β values of §III-B, measured exactly as CAAI does:
    // grow on a clean fixed-RTT path (environment A), time out, compare
    // ssthresh to the window right before the timeout.
    let expect = [
        (AlgorithmId::Reno, 0.50),
        (AlgorithmId::Bic, 0.80),
        (AlgorithmId::CtcpV1, 0.50),
        (AlgorithmId::CtcpV2, 0.50),
        (AlgorithmId::CubicV1, 0.80),
        (AlgorithmId::CubicV2, 0.70),
        (AlgorithmId::Scalable, 0.875),
        (AlgorithmId::Illinois, 0.875),
        (AlgorithmId::Veno, 0.80),
        (AlgorithmId::Vegas, 0.50),
    ];
    for (id, want) in expect {
        let mut cc = id.build();
        let mut tp = Transport::new(1460);
        cc.init(&mut tp);
        let mut now = 0.0;
        while tp.cwnd < 512 {
            drive_round(&mut cc, &mut tp, now, 1.0, 1);
            now += 1.0;
        }
        let w_before = tp.cwnd;
        let ss = cc.ssthresh(&tp);
        let beta = f64::from(ss) / f64::from(w_before);
        assert!(
            (beta - want).abs() < 0.05,
            "{id:?}: β = {beta:.3}, paper says {want}"
        );
    }
}

#[test]
fn htcp_beta_is_point_eight_on_fixed_rtt() {
    // HTCP's β needs a prior congestion event before the RTT-ratio rule
    // activates, so it is tested separately with two loss episodes.
    let mut cc = AlgorithmId::Htcp.build();
    let mut tp = Transport::new(1460);
    cc.init(&mut tp);
    let mut now = 0.0;
    while tp.cwnd < 512 {
        drive_round(&mut cc, &mut tp, now, 1.0, 1);
        now += 1.0;
    }
    timeout(&mut cc, &mut tp, now);
    now += 3.0;
    while tp.cwnd < 300 {
        drive_round(&mut cc, &mut tp, now, 1.0, 1);
        now += 1.0;
    }
    let w = tp.cwnd;
    let beta = f64::from(cc.ssthresh(&tp)) / f64::from(w);
    assert!((beta - 0.8).abs() < 0.02, "HTCP β = {beta}");
}

#[test]
fn westwood_beta_is_far_below_half_after_slow_start() {
    let mut cc = AlgorithmId::WestwoodPlus.build();
    let mut tp = Transport::new(1460);
    cc.init(&mut tp);
    let mut now = 0.0;
    while tp.cwnd < 512 {
        drive_round(&mut cc, &mut tp, now, 1.0, 1);
        now += 1.0;
    }
    let beta = f64::from(cc.ssthresh(&tp)) / f64::from(tp.cwnd);
    assert!(beta < 0.5, "WESTWOOD+ pipe estimate must lag: β = {beta}");
}

#[test]
fn names_are_unique() {
    let mut names: Vec<&str> = ALL_WITH_EXTENSIONS
        .iter()
        .map(|a| a.build().name())
        .collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), ALL_WITH_EXTENSIONS.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under arbitrary interleavings of rounds, RTT values, ACK aggregation
    /// and timeouts, no algorithm ever drives cwnd to 0 or ssthresh below 2,
    /// and cwnd respects the clamp.
    #[test]
    fn invariants_hold_under_arbitrary_schedules(
        algo_idx in 0usize..ALL_WITH_EXTENSIONS.len(),
        rounds in 1usize..40,
        rtt_millis in 50u32..2000,
        keep_every in 1u32..4,
        timeout_after in prop::option::of(0usize..40),
        clamp in prop::option::of(4u32..600),
    ) {
        let id = ALL_WITH_EXTENSIONS[algo_idx];
        let mut cc = id.build();
        let mut tp = Transport::new(1460);
        match clamp {
            Some(c) => tp.cwnd_clamp = c,
            // "Unclamped" still needs a generous ceiling: growth is
            // unbounded (HYBLA multiplies by (rtt/rtt₀)² per ACK) and the
            // per-round ACK loops are O(window), so a truly infinite
            // window stalls the test. 10k packets is far above every
            // sampled clamp and every w_max the pipeline probes.
            None => tp.cwnd_clamp = 10_000,
        }
        cc.init(&mut tp);
        let rtt = f64::from(rtt_millis) / 1000.0;
        let mut now = 0.0;
        for r in 0..rounds {
            if Some(r) == timeout_after {
                timeout(&mut cc, &mut tp, now);
                now += 3.0;
            }
            drive_round(&mut cc, &mut tp, now, rtt, keep_every);
            now += rtt;
            prop_assert!(tp.cwnd >= 1, "{id:?}: zero cwnd");
            if let Some(c) = clamp {
                prop_assert!(tp.cwnd <= c.max(2), "{id:?}: clamp violated: {} > {c}", tp.cwnd);
            }
            prop_assert!(tp.ssthresh >= 2 || tp.ssthresh == crate::transport::INFINITE_SSTHRESH);
        }
        let ss = cc.ssthresh(&tp);
        prop_assert!(ss >= 2, "{id:?}: final ssthresh {ss}");
    }

    /// Slow start must never overshoot ssthresh by way of the helper.
    #[test]
    fn slow_start_never_overshoots(cwnd in 1u32..1000, ssthresh in 2u32..1000, acked in 1u32..64) {
        let mut tp = Transport::new(1460);
        tp.cwnd = cwnd.min(ssthresh);
        tp.ssthresh = ssthresh;
        tp.slow_start(acked);
        prop_assert!(tp.cwnd <= ssthresh);
    }

    /// Limited slow start (RFC 3742) keeps the same never-overshoot
    /// guarantee and never grows faster than standard slow start.
    #[test]
    fn limited_slow_start_is_conservative(
        cwnd in 1u32..1000,
        ssthresh in 2u32..1000,
        max_ss in 1u32..500,
        acked in 1u32..64,
    ) {
        let mut limited = Transport::new(1460);
        limited.cwnd = cwnd.min(ssthresh);
        limited.ssthresh = ssthresh;
        limited.max_ssthresh = max_ss;
        let mut standard = Transport::new(1460);
        standard.cwnd = cwnd.min(ssthresh);
        standard.ssthresh = ssthresh;
        limited.slow_start(acked);
        standard.slow_start(acked);
        prop_assert!(limited.cwnd <= ssthresh);
        prop_assert!(limited.cwnd <= standard.cwnd,
            "limited ({}) must not outgrow standard ({})", limited.cwnd, standard.cwnd);
        prop_assert!(limited.cwnd >= cwnd.min(ssthresh), "slow start never shrinks");
    }

    /// The AI helper grows by exactly floor-of-rate over any ACK pattern.
    #[test]
    fn cong_avoid_ai_total_growth_is_bounded(w in 1u32..500, acks in 1u32..2000) {
        let mut tp = Transport::new(1460);
        tp.cwnd = 100;
        tp.ssthresh = 50;
        for _ in 0..acks {
            tp.cong_avoid_ai(w, 1);
        }
        let grown = tp.cwnd - 100;
        // Expected growth acks/w, with ±1 slack for the accumulator.
        let expect = acks / w.max(1);
        prop_assert!(grown >= expect.saturating_sub(1) && grown <= expect + 1,
            "w={w} acks={acks}: grew {grown}, expected ≈{expect}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// `Transport::coast` takes the leading steps of the `cong_avoid` it is
    /// the closed form of, and in congestion avoidance stops only at the
    /// step that would move more than the counter.
    #[test]
    fn coast_is_the_leading_steps_of_slow_start_then_cong_avoid_ai(
        cwnd in 1u32..600,
        ssthresh in 2u32..700,
        cwnd_cnt in 0u32..700,
        clamp in prop::option::of(1u32..700),
        limited in 0u32..2800,
        w in 0u32..700,
        left in 0u64..900,
    ) {
        let mut coasting = Transport::new(1460);
        (coasting.cwnd, coasting.ssthresh, coasting.cwnd_cnt) = (cwnd, ssthresh, cwnd_cnt);
        coasting.cwnd_clamp = clamp.unwrap_or(u32::MAX);
        // Limited slow start in a quarter of the cases.
        coasting.max_ssthresh = if limited < 700 { limited } else { 0 };
        let mut stepping = coasting.clone();
        let avoiding = !coasting.in_slow_start();
        let coasted = coasting.coast(left, |_| Some(w));
        prop_assert!(coasted <= left);
        let step = |tp: &mut Transport| {
            if !tp.in_slow_start() || tp.slow_start(1) > 0 {
                tp.cong_avoid_ai(w, 1);
            }
        };
        for _ in 0..coasted {
            step(&mut stepping);
        }
        prop_assert!(coasting == stepping, "{coasted} steps: {coasting:?} is not {stepping:?}");
        if avoiding {
            prop_assert!(coasting.clone().coast(left, |_| None) == 0, "a controller may decline");
        }
        if avoiding && coasted < left {
            coasting.cwnd_cnt += 1;
            step(&mut stepping);
            prop_assert!(coasting != stepping, "step {coasted} only counted: {stepping:?}");
        }
    }

    /// `on_ack_train` against the per-ACK steps it stands for, for every
    /// controller, from states no connection need have reached: any
    /// window against any threshold, counter and clamp, trains that start
    /// with a jump, carry no RTT sample or arrive 10 ms after the last.
    #[test]
    fn an_ack_train_is_the_per_ack_hooks_in_order(seed in 0u64..u64::MAX) {
        let mut state = seed;
        let mut below = move |n: u64| {
            // SplitMix64.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        };
        let id = ALL_WITH_EXTENSIONS[below(16) as usize];
        let (mut by_train, mut by_ack) = (id.build(), id.build());
        let mut tp = Transport::new(1460);
        tp.cwnd = 1 + below(600) as u32;
        tp.ssthresh = match below(3) {
            0 => crate::transport::INFINITE_SSTHRESH,
            1 => tp.cwnd + below(5) as u32,
            _ => 2 + below(600) as u32,
        };
        tp.cwnd_cnt = below(700) as u32;
        tp.cwnd_clamp = [10_000, 2 + below(700) as u32][below(2) as usize];
        tp.snd_nxt = below(2000);
        let mut twin = tp.clone();
        by_train.init(&mut tp);
        by_ack.init(&mut twin);
        let mut now = 0.0;
        for step in 0..below(12) {
            // HYBLA's window leaves every probe's range within a train.
            if tp.cwnd > 1 << 20 {
                break;
            }
            if below(6) == 0 {
                now += 3.0;
                timeout(&mut by_train, &mut tp, now);
                timeout(&mut by_ack, &mut twin, now);
            } else {
                now += [0.0, 0.01, 0.8, 1.0][below(4) as usize];
                let sent = below(700);
                tp.snd_nxt += sent;
                twin.snd_nxt += sent;
                let mut ack = Ack {
                    now,
                    acked: 1 + below(3) as u32,
                    rtt: [0.8, 1.0, 1.07, 0.0][below(4) as usize],
                };
                let count = below(700);
                by_train.on_ack_train(&mut tp, &ack, count);
                for _ in 0..count {
                    twin.snd_una += u64::from(ack.acked);
                    twin.observe_rtt(ack.rtt);
                    by_ack.pkts_acked(&mut twin, &ack);
                    by_ack.cong_avoid(&mut twin, &ack);
                    ack.acked = 1;
                }
            }
            prop_assert!(
                format!("{tp:?} {by_train:?}") == format!("{twin:?} {by_ack:?}"),
                "step {step}: {tp:?} {by_train:?} is not {twin:?} {by_ack:?}"
            );
        }
    }
}
