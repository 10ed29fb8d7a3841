//! The event loops' timers, in a binary heap.
//!
//! Thousands of concurrent probe sessions each keep one or two timers
//! alive (an IO deadline, a retry backoff), and as many fleet
//! connections an idle deadline and a paced reply's hold, so a heap's
//! `O(log n)` per insert and per firing costs nothing. Cancellation is
//! free because nothing is ever cancelled: a fired timer carries its
//! deadline, and an owner that re-armed since simply ignores the stale
//! firing (the deadline it stores no longer matches). Never cancelling
//! means a timer armed per event piles up: a deadline that moves every
//! round trip is therefore moved, not re-armed — its owner keeps one in
//! here ([`arm_by`](TimerWheel::arm_by)) and re-arms it for the remainder
//! when it fires early. A timer fires at its deadline, never before;
//! timers due at the same instant fire in the order they were armed.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// What a timer firing means to the session it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TimerKind {
    /// The peer had this long to produce progress; the session times out.
    IoDeadline,
    /// A retry backoff elapsed; reconnect now.
    Backoff,
    /// The rate limiter predicted a token would be available now.
    RatePermit,
    /// A paced emulated server's held reply is due.
    Hold,
}

/// One armed timer.
#[derive(Debug, Clone, Copy)]
pub struct Timer {
    /// Session token the firing is delivered to.
    pub token: u64,
    /// What the firing means.
    pub kind: TimerKind,
    /// The armed deadline, echoed back so the session can detect stale
    /// firings after re-arming.
    pub deadline: Instant,
}

/// The armed timers. [`expire`](TimerWheel::expire) takes `now`
/// explicitly so tests can drive virtual schedules.
#[derive(Debug, Default)]
pub struct TimerWheel {
    /// `(deadline, seq, token, kind)`: earliest deadline first, then the
    /// earliest armed. `seq` is unique, so `token` and `kind` never
    /// decide an order.
    heap: BinaryHeap<Reverse<(Instant, u64, u64, TimerKind)>>,
    /// Timers armed so far: the tie-break that keeps insertion order.
    armed: u64,
}

impl TimerWheel {
    /// No timers.
    pub fn new() -> Self {
        TimerWheel::default()
    }

    /// Arms a timer that fires `token` with `kind` at `deadline`.
    /// Deadlines in the past fire on the next expire call.
    pub fn insert(&mut self, token: u64, kind: TimerKind, deadline: Instant) {
        self.heap.push(Reverse((deadline, self.armed, token, kind)));
        self.armed += 1;
    }

    /// Armed timers (stale ones included — they fire and get ignored).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is armed.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Arms a timer for `deadline` unless `armed`, the one timer its
    /// owner keeps in here, fires by then; `armed` becomes the new one.
    /// An owner whose deadline moves later keeps its earlier timer and
    /// re-arms for the rest when that fires.
    pub fn arm_by(
        &mut self,
        armed: &mut Option<Instant>,
        token: u64,
        kind: TimerKind,
        deadline: Instant,
    ) {
        if armed.is_none_or(|at| deadline < at) {
            *armed = Some(deadline);
            self.insert(token, kind, deadline);
        }
    }

    /// The earliest pending deadline, for sizing the poll timeout.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.heap.peek().map(|Reverse((deadline, ..))| *deadline)
    }

    /// How long a poller may sleep from `now` before the next timer is
    /// due, in whole milliseconds (at most a minute), `-1` with none
    /// armed. Rounded up: truncated, the last millisecond before every
    /// timer is a timeout of 0 and the loop spins through it.
    pub fn timeout_ms(&self, now: Instant) -> i32 {
        match self.next_deadline() {
            Some(deadline) => {
                let left = deadline.saturating_duration_since(now);
                left.as_micros().div_ceil(1000).min(60_000) as i32
            }
            None => -1,
        }
    }

    /// Fires everything due at `now`, appending to `out` in deadline
    /// order.
    pub fn expire(&mut self, now: Instant, out: &mut Vec<Timer>) {
        while self.next_deadline().is_some_and(|deadline| deadline <= now) {
            let Reverse((deadline, _, token, kind)) =
                self.heap.pop().expect("a deadline was just read");
            out.push(Timer {
                token,
                kind,
                deadline,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Arms an IO deadline for `token`.
    fn t(wheel: &mut TimerWheel, token: u64, deadline: Instant) {
        wheel.insert(token, TimerKind::IoDeadline, deadline);
    }

    fn tokens(fired: &[Timer]) -> Vec<u64> {
        fired.iter().map(|x| x.token).collect()
    }

    #[test]
    fn timers_fire_in_slot_order_and_never_early() {
        let base = Instant::now();
        let ms = |n| base + Duration::from_millis(n);
        let mut wheel = TimerWheel::new();
        t(&mut wheel, 3, ms(5_000));
        t(&mut wheel, 1, ms(10));
        t(&mut wheel, 2, ms(500));
        // Equal deadlines fire in the order they were armed.
        t(&mut wheel, 5, ms(500));
        t(&mut wheel, 4, ms(500));

        let mut fired = Vec::new();
        wheel.expire(ms(9), &mut fired);
        assert!(fired.is_empty(), "nothing due yet");

        wheel.expire(ms(10), &mut fired);
        assert_eq!(tokens(&fired), [1], "due at its deadline, not before");

        fired.clear();
        wheel.expire(ms(6_000), &mut fired);
        assert_eq!(tokens(&fired), [2, 5, 4, 3]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn next_deadline_tracks_the_earliest_timer() {
        let base = Instant::now();
        let mut wheel = TimerWheel::new();
        assert_eq!(wheel.next_deadline(), None);
        let far = base + Duration::from_secs(10);
        t(&mut wheel, 1, far);
        assert_eq!(wheel.next_deadline(), Some(far));
        let near = base + Duration::from_millis(8);
        t(&mut wheel, 2, near);
        assert_eq!(wheel.next_deadline(), Some(near));
        wheel.expire(near, &mut Vec::new());
        assert_eq!(wheel.next_deadline(), Some(far));
    }

    #[test]
    fn past_deadlines_fire_on_the_next_expire() {
        let base = Instant::now();
        let mut wheel = TimerWheel::new();
        t(&mut wheel, 9, base); // already overdue
        let mut fired = Vec::new();
        wheel.expire(base + Duration::from_secs(1), &mut fired);
        assert_eq!(fired.len(), 1);
    }

    #[test]
    fn cascade_survives_a_long_stall() {
        // One giant stall straight past a hundred timers: all of them
        // fire in one call, in deadline order.
        let base = Instant::now();
        let mut wheel = TimerWheel::new();
        for i in (0..100).rev() {
            t(&mut wheel, i, base + Duration::from_millis(1_500 + i * 13));
        }
        assert_eq!(wheel.len(), 100);
        let mut fired = Vec::new();
        wheel.expire(base + Duration::from_secs(60), &mut fired);
        assert_eq!(tokens(&fired), (0..100).collect::<Vec<_>>());
        assert!(wheel.is_empty());
    }
}
