//! Sample summaries and the process/host readings the metrics need.

use std::process::Command;

/// Median and quartiles of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub n: usize,
    /// The median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// A reading that was taken once.
    pub fn single(value: f64) -> Summary {
        Summary {
            n: 1,
            median: value,
            q1: value,
            q3: value,
            min: value,
            max: value,
        }
    }

    /// Summarizes `values`. Quartiles follow Python's
    /// `statistics.quantiles(values, n=4)` (the exclusive method), so a
    /// spread computed from them equals the one the benchmark driver
    /// computes. Panics on an empty slice: every metric has a sample.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "a metric needs at least one sample");
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        if n == 1 {
            return Summary::single(sorted[0]);
        }
        let quantile = |i: usize| {
            let position = i * (n + 1);
            let j = (position / 4).clamp(1, n - 1);
            let delta = position as f64 - (j * 4) as f64;
            (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
        };
        Summary {
            n,
            median: quantile(2),
            q1: quantile(1),
            q3: quantile(3),
            min: sorted[0],
            max: sorted[n - 1],
        }
    }

    /// The same summary with every value mapped through a monotone
    /// function (quartiles swap when the function is decreasing).
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Summary {
        let (a, b) = (f(self.q1), f(self.q3));
        let (c, d) = (f(self.min), f(self.max));
        Summary {
            n: self.n,
            median: f(self.median),
            q1: a.min(b),
            q3: a.max(b),
            min: c.min(d),
            max: c.max(d),
        }
    }
}

/// The `p`-th percentile (nearest rank) of unsorted samples.
pub fn percentile(values: &[u64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    seconds: i64,
    nanoseconds: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` of Linux.
const PROCESS_CPU_CLOCK: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    /// glibc: returns free heap memory to the system.
    fn malloc_trim(pad: usize) -> i32;
}

/// User + system CPU seconds this process has used, over all its threads,
/// those that have ended included. (`/proc/self/stat` has the same number
/// in 10 ms ticks, too coarse for a 0.1 s repetition.)
pub fn cpu_seconds() -> f64 {
    let mut time = Timespec {
        seconds: 0,
        nanoseconds: 0,
    };
    // SAFETY: `time` is a valid, writable `timespec` of this target's
    // layout (two 64-bit fields on 64-bit Linux), which is all the call
    // touches.
    let status = unsafe { clock_gettime(PROCESS_CPU_CLOCK, &mut time) };
    assert_eq!(status, 0, "the process CPU clock exists on every Linux");
    time.seconds as f64 + time.nanoseconds as f64 / 1e9
}

fn status_mb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Peak resident set size (`VmHWM`) in MB (10⁶ bytes).
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set size (`VmRSS`) in MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// Gives the memory that set-up allocated and freed back to the system,
/// then resets `VmHWM` to the resident size that is left, so that a
/// later [`peak_rss_mb`] covers what is live now plus what runs next —
/// not whatever the allocator happened to keep of set-up's garbage.
/// Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    // SAFETY: `malloc_trim` takes no pointer and only releases memory
    // the allocator holds free; it is safe to call at any time from any
    // thread.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// What makes two result files comparable.
#[derive(Debug, Clone)]
pub struct Host {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// CPU model string.
    pub cpu_model: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_rev: String,
    /// Whether the working tree differs from that commit.
    pub git_dirty: bool,
    /// `rustc --version` of the toolchain on `PATH`.
    pub rustc: String,
    /// Build profile of the benchmark binary and everything it links.
    pub profile: &'static str,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_owned())
}

impl Host {
    /// Reads the host description (runs `git` and `rustc` once each).
    pub fn read() -> Host {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find(|line| line.starts_with("model name"))
            .and_then(|line| line.split_once(':'))
            .map_or("unknown".to_owned(), |(_, model)| model.trim().to_owned());
        let unknown = || "unknown".to_owned();
        Host {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model,
            git_rev: command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
            git_dirty: command_line("git", &["status", "--porcelain"])
                .is_some_and(|out| !out.is_empty()),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(unknown),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        let s = Summary::of(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([2, 4, 4, 5, 9], n=4)
        let s = Summary::of(&[2.0, 4.0, 4.0, 5.0, 9.0]);
        assert_eq!((s.q1, s.median, s.q3), (3.0, 4.0, 7.0));
        // statistics.quantiles([1, 3], n=4)
        let s = Summary::of(&[1.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.5, 2.0, 3.5));
        assert_eq!(Summary::of(&[7.0]), Summary::single(7.0));
    }

    #[test]
    fn map_keeps_quartiles_ordered() {
        let s = Summary::of(&[1.0, 2.0, 4.0, 8.0]).map(|x| 1.0 / x);
        assert!(s.q1 <= s.median && s.median <= s.q3);
    }

    #[test]
    fn process_readings_are_live() {
        assert!(peak_rss_mb() >= rss_mb() && rss_mb() > 0.0);
        let before = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() - before < 0.02 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
    }
}
