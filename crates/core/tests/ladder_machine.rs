//! Property tests for the sans-IO ladder (`caai_core::ladder`) on its
//! own: whatever a peer, a capture or a buggy driver feeds it — events
//! out of phase, sequence numbers up to `u64::MAX`, unsorted, repeated,
//! overlapping and empty runs of arrivals, runs past the end of the
//! sequence space, the server finishing at any point — it never panics,
//! stays inside the configured round bounds, never re-acknowledges, and
//! closes exactly once.

use caai_core::ladder::{AttemptPhase, LadderWalk, Next, Run, RungAttempt};
use caai_core::prober::ProberConfig;
use caai_core::trace::WindowTrace;
use caai_netem::EnvironmentId;
use proptest::prelude::*;

/// The test's own event source (SplitMix64), so one `u64` names a case.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn config(&mut self) -> ProberConfig {
        ProberConfig {
            max_pre_rounds: 1 + self.below(12) as usize,
            post_timeout_rounds: 1 + self.below(20) as usize,
            stall_rounds: self.below(4) as u32,
            frto_countermeasure: self.below(2) == 0,
            ..ProberConfig::default()
        }
    }

    /// A round's arrivals: mostly plausible runs after `base`, with wild
    /// sequence numbers and lengths, path duplicates and disorder mixed
    /// in.
    fn arrivals(&mut self, base: &mut u64) -> Vec<Run> {
        let mut out = Vec::new();
        for _ in 0..self.below(7) {
            let len = match self.below(16) {
                0 => 0,
                1 => u64::MAX,
                2 => self.next(),
                _ => 1 + self.below(40),
            };
            let first = match self.below(16) {
                0 => u64::MAX,
                1 => u64::MAX - self.below(3),
                2 => self.next(),
                3 => base.saturating_sub(self.below(5)),
                _ => {
                    let first = base.saturating_add(1 + self.below(3));
                    *base = first.saturating_add(len.min(40));
                    first
                }
            };
            let duplicate = self.below(8) == 0;
            out.push(Run {
                first,
                len,
                duplicate,
            });
        }
        if self.below(4) == 0 {
            out.reverse();
        }
        out
    }
}

/// Drives one attempt with `events` arbitrary events, then forces it
/// shut. Returns the closed attempt's trace.
fn drive_attempt(
    draw: &mut Draw,
    config: &ProberConfig,
    events: u64,
) -> Result<WindowTrace, TestCaseError> {
    let env = [EnvironmentId::A, EnvironmentId::B][draw.below(2) as usize];
    let wmax = [0, 3, 8, 64, u32::MAX][draw.below(5) as usize];
    let mut attempt = RungAttempt::new(env, wmax);
    let (mut closes, mut last_cum, mut duplicates, mut base) = (0u32, 0u64, 0u32, 0u64);
    for step in 0..events + 2 {
        let was_closed = attempt.phase() == AttemptPhase::Closed;
        let before = attempt.trace().clone();
        // The last two events are the ones that must end any attempt.
        let kind = if step >= events {
            8 + step - events
        } else {
            draw.below(8)
        };
        let end = match kind {
            0 => attempt.on_silent_round(config, false),
            1 => attempt.on_silent_round(config, draw.below(4) == 0),
            2 | 8 => attempt.on_rto(kind == 2 && draw.below(2) == 0),
            9 => attempt.on_silent_round(config, true),
            _ => attempt.on_round(config, &draw.arrivals(&mut base)),
        };
        let Some(end) = end else {
            prop_assert!(
                *attempt.trace() == before,
                "a refused event changed the trace"
            );
            continue;
        };
        prop_assert!(!was_closed, "a closed attempt accepted an event");
        prop_assert!(
            [0.0, 0.8, 1.0].contains(&end.elapsed),
            "elapsed {}",
            end.elapsed
        );
        for acks in attempt.acks() {
            prop_assert!(acks.len > 0, "an empty train");
            if acks.duplicate {
                duplicates += 1;
                prop_assert!(
                    (acks.first, acks.len) == (last_cum, 1),
                    "the F-RTO duplicate repeats the last ACK, once"
                );
            } else {
                prop_assert!(acks.first > last_cum, "{acks:?} after {last_cum}");
                let last = acks.first.checked_add(acks.len - 1);
                prop_assert!(last.is_some(), "{acks:?} runs past u64::MAX");
                last_cum = last.unwrap_or(u64::MAX);
            }
        }
        match end.next {
            Next::Transmit => prop_assert!(attempt.round_rtt() > 0.0),
            Next::AwaitRto => prop_assert!(end.elapsed == 0.0 && attempt.acks().is_empty()),
            Next::Close(_) => {
                closes += 1;
                prop_assert!(attempt.phase() == AttemptPhase::Closed);
            }
        }
    }
    prop_assert!(closes == 1, "{closes} closes");
    prop_assert!(duplicates <= u32::from(config.frto_countermeasure));
    let ended = attempt.ended();
    let trace = attempt.into_trace();
    prop_assert!(
        trace.pre.len() <= config.max_pre_rounds,
        "{} pre rounds",
        trace.pre.len()
    );
    prop_assert!(
        trace.post.len() <= config.post_timeout_rounds,
        "{} post rounds",
        trace.post.len()
    );
    prop_assert!(ended.rounds as usize == trace.pre.len() + trace.post.len());
    prop_assert!(ended.valid == trace.is_valid());
    Ok(trace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn any_event_stream_closes_an_attempt_once_within_its_bounds(seed in 0u64..u64::MAX) {
        let mut draw = Draw(seed);
        let config = draw.config();
        let events = draw.below(120);
        drive_attempt(&mut draw, &config, events)?;
    }

    #[test]
    fn a_walk_files_every_trace_at_most_once(seed in 0u64..u64::MAX) {
        let mut draw = Draw(seed);
        let config = draw.config();
        let ladder = &[64u32, 8, 3][..draw.below(4) as usize];
        let mut walk = LadderWalk::new();
        let recorded = draw.below(6);
        for _ in 0..recorded {
            let events = draw.below(60);
            let trace = drive_attempt(&mut draw, &config, events)?;
            if draw.below(5) == 0 {
                walk.seek(draw.below(5) as usize);
            }
            let _ = (walk.next(ladder), walk.rung_wmax(ladder));
            walk.record(trace);
        }
        if draw.below(3) == 0 {
            walk.abort(None, None);
            prop_assert!(walk.next(ladder).is_none());
        }
        let outcome = walk.finish();
        let filed = outcome.failed_attempts.len() as u64 + 2 * u64::from(outcome.pair.is_some());
        prop_assert!(filed <= recorded, "{filed} filed of {recorded}");
        if let Some(pair) = &outcome.pair {
            prop_assert!(pair.env_a.env == EnvironmentId::A && pair.env_a.is_valid());
            prop_assert!(pair.env_b.env == EnvironmentId::B);
            prop_assert!(pair.env_b.usable_for_classification());
        }
    }
}
