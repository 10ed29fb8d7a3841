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
//! round trip is therefore a [`Deadline`], which keeps one timer in here
//! and re-arms it for the remainder when it fires early. A timer fires at
//! its deadline, never before; timers due at the same instant fire in
//! the order they were armed.

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
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is armed.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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

/// A deadline that moves, with one [`TimerKind::IoDeadline`] timer under
/// it in the wheel: the time a peer has to make progress, moved on as it
/// does. Moving it later arms nothing; the timer under it fires early
/// and re-arms for the rest. Moving it earlier arms a timer that fires
/// first, and the later one goes stale.
#[derive(Debug, Default)]
pub struct Deadline {
    /// When it falls due; `None` while the peer owes nothing.
    at: Option<Instant>,
    /// The deadline of the one timer armed under it and not yet fired.
    timer: Option<Instant>,
}

impl Deadline {
    /// Moves the deadline to `at`, for the owner at `token`.
    pub fn set(&mut self, wheel: &mut TimerWheel, token: u64, at: Instant) {
        self.at = Some(at);
        if self.timer.is_none_or(|armed| at < armed) {
            self.timer = Some(at);
            wheel.insert(token, TimerKind::IoDeadline, at);
        }
    }

    /// The peer owes nothing now; the timer under it fires and is ignored.
    pub fn clear(&mut self) {
        self.at = None;
    }

    /// Takes a firing of this deadline's kind: `true` when the deadline
    /// has passed. A stale firing (an earlier timer took its place) is
    /// ignored, as is one with nothing owed; one that comes early re-arms
    /// for the rest.
    pub fn fired(&mut self, wheel: &mut TimerWheel, timer: &Timer) -> bool {
        if self.timer != Some(timer.deadline) {
            return false;
        }
        self.timer = None;
        match self.at {
            Some(at) if at > timer.deadline => {
                self.set(wheel, timer.token, at);
                false
            }
            due => {
                self.at = None;
                due.is_some()
            }
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

    /// Fires what is due at `now` and hands each firing to `deadline`:
    /// the firings, and whether one of them found the deadline passed.
    fn fire(wheel: &mut TimerWheel, deadline: &mut Deadline, now: Instant) -> (usize, bool) {
        let mut fired = Vec::new();
        wheel.expire(now, &mut fired);
        let mut due = false;
        for timer in &fired {
            due |= deadline.fired(wheel, timer);
        }
        (fired.len(), due)
    }

    #[test]
    fn a_deadline_moved_later_keeps_one_timer() {
        let base = Instant::now();
        let ms = |n| base + Duration::from_millis(n);
        let mut wheel = TimerWheel::new();
        let mut deadline = Deadline::default();
        for n in 0..50 {
            deadline.set(&mut wheel, 1, ms(100 + n * 10));
        }
        assert_eq!(wheel.len(), 1);
        assert_eq!(wheel.next_deadline(), Some(ms(100)));
    }

    #[test]
    fn a_firing_that_comes_early_re_arms_for_the_rest() {
        let base = Instant::now();
        let ms = |n| base + Duration::from_millis(n);
        let mut wheel = TimerWheel::new();
        let mut deadline = Deadline::default();
        deadline.set(&mut wheel, 1, ms(100));
        deadline.set(&mut wheel, 1, ms(250));
        assert_eq!(fire(&mut wheel, &mut deadline, ms(100)), (1, false));
        assert_eq!(
            wheel.next_deadline(),
            Some(ms(250)),
            "re-armed for the rest"
        );
        assert_eq!(fire(&mut wheel, &mut deadline, ms(249)), (0, false));
        assert_eq!(fire(&mut wheel, &mut deadline, ms(250)), (1, true));
        assert!(wheel.is_empty());
    }

    #[test]
    fn a_stale_firing_is_ignored() {
        let base = Instant::now();
        let ms = |n| base + Duration::from_millis(n);
        let mut wheel = TimerWheel::new();
        let mut deadline = Deadline::default();
        // Moved earlier: the first timer goes stale.
        deadline.set(&mut wheel, 1, ms(300));
        deadline.set(&mut wheel, 1, ms(100));
        // Cleared: the peer owes nothing, so the live timer is ignored too.
        deadline.clear();
        assert_eq!(fire(&mut wheel, &mut deadline, ms(100)), (1, false));
        // Set again after the live one fired: a new timer, and the stale
        // one at 300 ms does not stand in for it.
        deadline.set(&mut wheel, 1, ms(400));
        assert_eq!(fire(&mut wheel, &mut deadline, ms(300)), (1, false));
        assert_eq!(wheel.next_deadline(), Some(ms(400)));
        assert_eq!(fire(&mut wheel, &mut deadline, ms(400)), (1, true));
    }

    #[test]
    fn a_deadline_moved_earlier_fires_first() {
        let base = Instant::now();
        let ms = |n| base + Duration::from_millis(n);
        let mut wheel = TimerWheel::new();
        let mut deadline = Deadline::default();
        deadline.set(&mut wheel, 1, ms(10_000));
        deadline.set(&mut wheel, 1, ms(200));
        assert_eq!(wheel.len(), 2);
        assert_eq!(wheel.next_deadline(), Some(ms(200)));
        assert_eq!(fire(&mut wheel, &mut deadline, ms(199)), (0, false));
        assert_eq!(fire(&mut wheel, &mut deadline, ms(200)), (1, true));
        // The later timer fires in its time, stale, and arms nothing.
        assert_eq!(fire(&mut wheel, &mut deadline, ms(10_000)), (1, false));
        assert!(wheel.is_empty());
    }
}
