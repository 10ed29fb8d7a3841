//! Probe admission control: global and per-/24 token buckets.
//!
//! A census is a scan, and a polite scanner bounds both its aggregate
//! connection rate and its per-network rate (a /24 is the classic
//! courtesy granularity — one busy subnet must not absorb the whole
//! budget, and no subnet should see a burst). Buckets hold at most one
//! token: probes are paced, never bursted.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

/// A single-token bucket refilling at `rate` tokens per second.
#[derive(Debug, Clone)]
struct TokenBucket {
    rate: f64,
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    fn new(rate: f64, now: Instant) -> Self {
        TokenBucket {
            rate,
            tokens: 1.0,
            last: now,
        }
    }

    fn refill(&mut self, now: Instant) {
        let dt = now.saturating_duration_since(self.last).as_secs_f64();
        self.tokens = (self.tokens + dt * self.rate).min(1.0);
        self.last = now;
    }

    /// Seconds until a token is available (zero = available now).
    fn wait(&mut self, now: Instant) -> f64 {
        self.refill(now);
        if self.tokens >= 1.0 {
            0.0
        } else {
            (1.0 - self.tokens) / self.rate
        }
    }

    fn take(&mut self) {
        self.tokens -= 1.0;
    }
}

/// The combined limiter. A zero (or negative) rate disables that bound.
#[derive(Debug, Default)]
pub struct RateLimiter {
    global: Option<TokenBucket>,
    global_rate: f64,
    per_net_rate: f64,
    nets: HashMap<u32, TokenBucket>,
}

impl RateLimiter {
    /// A limiter with the given global and per-/24 probe rates
    /// (probes per second; `<= 0` = unlimited).
    pub fn new(global_rate: f64, per_net_rate: f64) -> Self {
        RateLimiter {
            global: None,
            global_rate: if global_rate > 0.0 { global_rate } else { 0.0 },
            per_net_rate: if per_net_rate > 0.0 {
                per_net_rate
            } else {
                0.0
            },
            nets: HashMap::new(),
        }
    }

    /// True when no bound is configured (every admit succeeds).
    #[cfg(test)]
    pub fn is_unlimited(&self) -> bool {
        self.global_rate == 0.0 && self.per_net_rate == 0.0
    }

    /// Asks to open one probe connection to `ip` at `now`. `Ok(())`
    /// admits (and consumes the tokens); `Err(wait)` says when to retry.
    /// Tokens are only consumed when *both* buckets admit, so a stalled
    /// subnet never burns global budget.
    pub fn admit(&mut self, now: Instant, ip: Ipv4Addr) -> Result<(), Duration> {
        let global_wait = if self.global_rate > 0.0 {
            self.global
                .get_or_insert_with(|| TokenBucket::new(self.global_rate, now))
                .wait(now)
        } else {
            0.0
        };
        let net_key = u32::from(ip) >> 8;
        let net_wait = if self.per_net_rate > 0.0 {
            self.nets
                .entry(net_key)
                .or_insert_with(|| TokenBucket::new(self.per_net_rate, now))
                .wait(now)
        } else {
            0.0
        };
        let wait = global_wait.max(net_wait);
        if wait > 0.0 {
            return Err(Duration::from_secs_f64(wait.min(3600.0)));
        }
        if self.global_rate > 0.0 {
            self.global.as_mut().expect("created above").take();
        }
        if self.per_net_rate > 0.0 {
            self.nets.get_mut(&net_key).expect("created above").take();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IP_A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const IP_A2: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 99); // same /24
    const IP_B: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 1); // different /24

    #[test]
    fn unlimited_limiter_always_admits() {
        let mut lim = RateLimiter::new(0.0, 0.0);
        assert!(lim.is_unlimited());
        let now = Instant::now();
        for _ in 0..1000 {
            assert!(lim.admit(now, IP_A).is_ok());
        }
    }

    #[test]
    fn global_rate_paces_all_targets() {
        let now = Instant::now();
        let mut lim = RateLimiter::new(10.0, 0.0);
        assert!(lim.admit(now, IP_A).is_ok());
        let wait = lim.admit(now, IP_B).unwrap_err();
        // 10/s: the next token is ~100 ms out.
        assert!(wait > Duration::from_millis(50) && wait <= Duration::from_millis(110));
        assert!(lim.admit(now + Duration::from_millis(150), IP_B).is_ok());
    }

    #[test]
    fn per_net_rate_isolates_subnets() {
        let now = Instant::now();
        let mut lim = RateLimiter::new(0.0, 1.0);
        assert!(lim.admit(now, IP_A).is_ok());
        assert!(lim.admit(now, IP_A2).is_err(), "same /24 is paced");
        assert!(lim.admit(now, IP_B).is_ok(), "another /24 is unaffected");
    }

    #[test]
    fn a_blocked_subnet_does_not_burn_global_tokens() {
        let now = Instant::now();
        let mut lim = RateLimiter::new(100.0, 0.5);
        assert!(lim.admit(now, IP_A).is_ok());
        // 20 ms later the global bucket (100/s) has refilled, but A's
        // /24 bucket (0.5/s) has not: A2 is blocked by its subnet — and
        // that refusal must not burn the refilled global token, which B
        // then spends at the very same instant.
        let later = now + Duration::from_millis(20);
        assert!(lim.admit(later, IP_A2).is_err());
        assert!(lim.admit(later, IP_B).is_ok());
    }
}
