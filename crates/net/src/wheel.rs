//! The reactor's timers, in a binary heap.
//!
//! Thousands of concurrent probe sessions each keep one or two timers
//! alive (an IO deadline, a retry backoff), so a heap's `O(log n)` per
//! insert and per firing costs nothing. Cancellation is free because
//! nothing is ever cancelled: a fired timer carries its deadline, and a
//! session that re-armed since simply ignores the stale firing (the
//! deadline it stores no longer matches). Never cancelling means a timer
//! armed per event piles up: an IO deadline is therefore moved, not
//! re-armed — the reactor keeps one in here per connection and re-arms
//! it for the remainder when it fires early. A timer fires at its
//! deadline, never before; timers due at the same instant fire in the
//! order they were armed.

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

    /// Arms a timer. Deadlines in the past fire on the next expire call.
    pub fn insert(&mut self, timer: Timer) {
        self.heap.push(Reverse((
            timer.deadline,
            self.armed,
            timer.token,
            timer.kind,
        )));
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

    /// The earliest pending deadline, for sizing the poll timeout.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.heap.peek().map(|Reverse((deadline, ..))| *deadline)
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

    fn t(token: u64, deadline: Instant) -> Timer {
        Timer {
            token,
            kind: TimerKind::IoDeadline,
            deadline,
        }
    }

    fn tokens(fired: &[Timer]) -> Vec<u64> {
        fired.iter().map(|x| x.token).collect()
    }

    #[test]
    fn timers_fire_in_slot_order_and_never_early() {
        let base = Instant::now();
        let ms = |n| base + Duration::from_millis(n);
        let mut wheel = TimerWheel::new();
        wheel.insert(t(3, ms(5_000)));
        wheel.insert(t(1, ms(10)));
        wheel.insert(t(2, ms(500)));
        // Equal deadlines fire in the order they were armed.
        wheel.insert(t(5, ms(500)));
        wheel.insert(t(4, ms(500)));

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
        wheel.insert(t(1, far));
        assert_eq!(wheel.next_deadline(), Some(far));
        let near = base + Duration::from_millis(8);
        wheel.insert(t(2, near));
        assert_eq!(wheel.next_deadline(), Some(near));
        wheel.expire(near, &mut Vec::new());
        assert_eq!(wheel.next_deadline(), Some(far));
    }

    #[test]
    fn past_deadlines_fire_on_the_next_expire() {
        let base = Instant::now();
        let mut wheel = TimerWheel::new();
        wheel.insert(t(9, base)); // already overdue
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
            wheel.insert(t(i, base + Duration::from_millis(1_500 + i * 13)));
        }
        assert_eq!(wheel.len(), 100);
        let mut fired = Vec::new();
        wheel.expire(base + Duration::from_secs(60), &mut fired);
        assert_eq!(tokens(&fired), (0..100).collect::<Vec<_>>());
        assert!(wheel.is_empty());
    }
}
