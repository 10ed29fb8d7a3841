//! Work-stealing batch scheduler.
//!
//! A single atomic cursor over the pending work list replaces the seed
//! census's fixed per-worker chunks: every worker claims the next batch
//! of indices when it runs dry, so one pathological server (or one slow
//! core) never leaves the rest of the pool idle. Because each server's
//! probe RNG is keyed on `(seed, server_id)` rather than on which worker
//! claims it, the claiming order is irrelevant to the result.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Hands out disjoint `Range<usize>` batches of `0..total` to concurrent
/// workers via a single `fetch_add` cursor.
#[derive(Debug)]
pub struct BatchScheduler {
    cursor: AtomicUsize,
    total: usize,
    batch: usize,
}

impl BatchScheduler {
    /// Creates a scheduler over `total` work items claimed `batch` at a
    /// time. A batch size of 0 is promoted to 1, and one beyond `total`
    /// cut to it: the cursor moves by a batch per claim, the claims that
    /// find nothing included, and must not come round to 0 again.
    pub fn new(total: usize, batch: usize) -> Self {
        BatchScheduler {
            cursor: AtomicUsize::new(0),
            total,
            batch: batch.clamp(1, total.max(1)),
        }
    }

    /// Claims the next batch, or `None` when the work list is exhausted.
    pub fn next_batch(&self) -> Option<Range<usize>> {
        let start = self.cursor.fetch_add(self.batch, Ordering::Relaxed);
        if start >= self.total {
            return None;
        }
        Some(start..(start + self.batch).min(self.total))
    }

    /// How many items have been claimed so far (may exceed `total` once
    /// the scheduler runs dry; callers should clamp for display).
    pub fn claimed(&self) -> usize {
        self.cursor.load(Ordering::Relaxed).min(self.total)
    }

    /// Total number of work items.
    pub fn total(&self) -> usize {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn batches_cover_everything_exactly_once() {
        let sched = BatchScheduler::new(103, 7);
        let mut seen = [false; 103];
        while let Some(range) = sched.next_batch() {
            for i in range {
                assert!(!seen[i], "index {i} claimed twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(sched.claimed(), 103);
    }

    #[test]
    fn empty_work_list_yields_no_batches() {
        let sched = BatchScheduler::new(0, 8);
        assert!(sched.next_batch().is_none());
    }

    #[test]
    fn a_batch_of_half_the_address_space_is_claimed_once() {
        // Two claims of 2^63 used to bring the cursor back to 0, and the
        // second claimant probed everything again.
        let sched = BatchScheduler::new(60, 1 << (usize::BITS - 1));
        assert_eq!(sched.next_batch(), Some(0..60));
        for _second_worker_then_both_again in 0..3 {
            assert_eq!(sched.next_batch(), None);
        }
        assert_eq!(sched.claimed(), 60);
    }

    #[test]
    fn concurrent_claims_are_disjoint() {
        let sched = BatchScheduler::new(1000, 3);
        let seen = Mutex::new(vec![0u32; 1000]);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    while let Some(range) = sched.next_batch() {
                        let mut seen = seen.lock().unwrap();
                        for i in range {
                            seen[i] += 1;
                        }
                    }
                });
            }
        });
        assert!(seen.into_inner().unwrap().iter().all(|&n| n == 1));
    }
}
