//! Probe and wall-clock budgets.
//!
//! A real Internet census runs for days and costs traffic on remote
//! servers; the engine therefore stops cleanly — checkpointing first —
//! when either a probe budget or a deadline is exhausted, instead of
//! running to completion or being killed uncleanly.

use std::time::{Duration, Instant};

/// Limits on how much work one engine run may perform.
///
/// `Budget::default()` is unlimited. A probe budget of N cuts the run's
/// work list to the first N servers it has left, so it probes exactly
/// those, at any worker count; records resumed from a checkpoint are
/// free. A deadline stops the workers before their next probe once the
/// run has taken that long; what they finished still folds in.
///
/// ```
/// use caai_engine::Budget;
/// use std::time::{Duration, Instant};
///
/// let started = Instant::now();
/// assert!(Budget::deadline(Duration::ZERO).expired(started));
/// assert!(!Budget::deadline(Duration::from_secs(3600)).expired(started));
/// // A probe cap never expires: it cuts the work list instead.
/// assert!(!Budget::probes(1000).expired(started));
/// assert!(!Budget::unlimited().expired(started));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Maximum number of probes this run may perform.
    pub max_probes: Option<u64>,
    /// Maximum wall-clock time this run may spend.
    pub deadline: Option<Duration>,
}

impl Budget {
    /// An unlimited budget.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// A budget capped at `n` probes.
    pub fn probes(n: u64) -> Self {
        Budget {
            max_probes: Some(n),
            deadline: None,
        }
    }

    /// A budget capped at `d` of wall-clock time.
    pub fn deadline(d: Duration) -> Self {
        Budget {
            max_probes: None,
            deadline: Some(d),
        }
    }

    /// Whether the deadline has passed for a run that started at
    /// `started`.
    pub fn expired(&self, started: Instant) -> bool {
        self.deadline.is_some_and(|d| started.elapsed() >= d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_exhausts() {
        let b = Budget::unlimited();
        assert!(!b.expired(Instant::now() - Duration::from_millis(5)));
    }

    #[test]
    fn deadline_trips_after_elapsed() {
        let b = Budget::deadline(Duration::from_millis(1));
        let started = Instant::now() - Duration::from_millis(5);
        assert!(b.expired(started));
        assert!(!b.expired(Instant::now() + Duration::from_secs(1)));
    }
}
