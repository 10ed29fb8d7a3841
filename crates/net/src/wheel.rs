//! A hashed timer wheel for the reactor.
//!
//! Thousands of concurrent probe sessions each keep one or two timers
//! alive (an IO deadline, a paced send). A binary heap would pay
//! `O(log n)` per insert *and* per cancellation; the wheel pays `O(1)`
//! per insert and makes cancellation free by never cancelling — a
//! fired timer carries its deadline, and a session that re-armed since
//! simply ignores the stale firing (the deadline it stores no longer
//! matches). Never cancelling means a timer armed per event piles up: an
//! IO deadline is therefore moved, not re-armed — the reactor keeps one
//! in here per connection and re-arms it for the remainder when it fires
//! early. Slots are 4 ms wide and the ring spans ~1 s; longer
//! timers (connect timeouts, backoffs) wait in an overflow map that
//! cascades into the ring as the cursor advances.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// What a timer firing means to the session it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerKind {
    /// The peer had this long to produce progress; the session times out.
    IoDeadline,
    /// A paced send (`--pace`) is due.
    SendDue,
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

const SLOT_MS: u64 = 4;
const SLOTS: usize = 256;

/// The wheel. All operations take `now` explicitly so tests can drive
/// virtual schedules.
#[derive(Debug)]
pub struct TimerWheel {
    start: Instant,
    /// Ring of slots; absolute slot `s` lives at `s % SLOTS`.
    ring: Vec<Vec<Timer>>,
    /// Absolute index of the next slot to fire.
    cursor: u64,
    /// Timers beyond the ring's horizon, keyed by absolute slot.
    overflow: BTreeMap<u64, Vec<Timer>>,
    len: usize,
}

impl TimerWheel {
    /// An empty wheel anchored at `now`.
    pub fn new(now: Instant) -> Self {
        TimerWheel {
            start: now,
            ring: (0..SLOTS).map(|_| Vec::new()).collect(),
            cursor: 0,
            overflow: BTreeMap::new(),
            len: 0,
        }
    }

    fn slot_of(&self, deadline: Instant) -> u64 {
        let ms = deadline.saturating_duration_since(self.start).as_millis() as u64;
        // Round up: a timer must never fire early.
        ms.div_ceil(SLOT_MS)
    }

    fn slot_time(&self, slot: u64) -> Instant {
        self.start + Duration::from_millis(slot * SLOT_MS)
    }

    /// Arms a timer. Deadlines in the past fire on the next expire call.
    pub fn insert(&mut self, timer: Timer) {
        let slot = self.slot_of(timer.deadline).max(self.cursor);
        self.len += 1;
        if slot < self.cursor + SLOTS as u64 {
            self.ring[(slot % SLOTS as u64) as usize].push(timer);
        } else {
            self.overflow.entry(slot).or_default().push(timer);
        }
    }

    /// Armed timers (stale ones included — they fire and get ignored).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is armed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The earliest pending deadline, for sizing the poll timeout.
    pub fn next_deadline(&self) -> Option<Instant> {
        if self.len == 0 {
            return None;
        }
        for offset in 0..SLOTS as u64 {
            let slot = self.cursor + offset;
            if !self.ring[(slot % SLOTS as u64) as usize].is_empty() {
                let ring_time = self.slot_time(slot);
                // An overflow slot can still precede a late ring entry.
                return match self.overflow.keys().next() {
                    Some(&o) if o < slot => Some(self.slot_time(o)),
                    _ => Some(ring_time),
                };
            }
        }
        self.overflow.keys().next().map(|&s| self.slot_time(s))
    }

    /// Fires everything due at `now`, appending to `out`.
    pub fn expire(&mut self, now: Instant, out: &mut Vec<Timer>) {
        while self.len > 0 && self.slot_time(self.cursor) <= now {
            let slot = self.cursor;
            let fired = std::mem::take(&mut self.ring[(slot % SLOTS as u64) as usize]);
            self.len -= fired.len();
            out.extend(fired);
            self.cursor += 1;
            // Cascade: the slot one ring-length out is now addressable.
            let horizon = self.cursor + SLOTS as u64 - 1;
            if let Some(timers) = self.overflow.remove(&horizon) {
                self.ring[(horizon % SLOTS as u64) as usize] = timers;
            }
            // Any overflow entries that were *behind* the horizon (can
            // happen after a long stall) fire immediately.
            while let Some(&first) = self.overflow.keys().next() {
                if first > horizon {
                    break;
                }
                let timers = self.overflow.remove(&first).expect("key just observed");
                if first <= slot {
                    self.len -= timers.len();
                    out.extend(timers);
                } else {
                    let cell = &mut self.ring[(first % SLOTS as u64) as usize];
                    cell.extend(timers);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(token: u64, deadline: Instant) -> Timer {
        Timer {
            token,
            kind: TimerKind::IoDeadline,
            deadline,
        }
    }

    #[test]
    fn timers_fire_in_slot_order_and_never_early() {
        let base = Instant::now();
        let mut wheel = TimerWheel::new(base);
        wheel.insert(t(1, base + Duration::from_millis(10)));
        wheel.insert(t(2, base + Duration::from_millis(500)));
        wheel.insert(t(3, base + Duration::from_millis(5_000))); // overflow

        let mut fired = Vec::new();
        wheel.expire(base + Duration::from_millis(5), &mut fired);
        assert!(fired.is_empty(), "nothing due yet");

        wheel.expire(base + Duration::from_millis(20), &mut fired);
        assert_eq!(fired.iter().map(|x| x.token).collect::<Vec<_>>(), [1]);

        fired.clear();
        wheel.expire(base + Duration::from_millis(6_000), &mut fired);
        let mut tokens: Vec<u64> = fired.iter().map(|x| x.token).collect();
        tokens.sort_unstable();
        assert_eq!(tokens, [2, 3]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn next_deadline_tracks_the_earliest_timer() {
        let base = Instant::now();
        let mut wheel = TimerWheel::new(base);
        assert_eq!(wheel.next_deadline(), None);
        wheel.insert(t(1, base + Duration::from_secs(10)));
        let far = wheel.next_deadline().unwrap();
        wheel.insert(t(2, base + Duration::from_millis(8)));
        assert!(wheel.next_deadline().unwrap() < far);
    }

    #[test]
    fn past_deadlines_fire_on_the_next_expire() {
        let base = Instant::now();
        let mut wheel = TimerWheel::new(base + Duration::from_secs(1));
        wheel.insert(t(9, base)); // already overdue
        let mut fired = Vec::new();
        wheel.expire(base + Duration::from_secs(1), &mut fired);
        assert_eq!(fired.len(), 1);
    }

    #[test]
    fn cascade_survives_a_long_stall() {
        let base = Instant::now();
        let mut wheel = TimerWheel::new(base);
        for i in 0..100 {
            wheel.insert(t(i, base + Duration::from_millis(1_500 + i * 13)));
        }
        // One giant stall straight past everything.
        let mut fired = Vec::new();
        wheel.expire(base + Duration::from_secs(60), &mut fired);
        assert_eq!(fired.len(), 100);
        assert!(wheel.is_empty());
    }
}
