//! Counts, not clocks: what one simulated probe allocates and how many
//! connections, rounds, packets and ACKs it is made of.
//!
//! A timing moves with the host; these repeat exactly, so they can gate.
//! The binary installs a counting allocator (per thread, so the tests do
//! not see each other): a probe whose rounds are runs allocates a few
//! dozen times whatever its windows, and no probe's memory is set by what
//! its sender would like to send. The pinned counts answer why an ideal
//! CUBIC_v2 gathers slower than an ideal RENO over the same schedule:
//! the same 56 rounds, 45 % more packets. The random stream is counted
//! too: a probe draws once per packet sent and once per ACK sent, in that
//! order, and a draw skipped or made twice is a different census.

use caai::congestion::AlgorithmId;
use caai::core::prober::{ProbeTap, Prober, ProberConfig};
use caai::core::server_under_test::ServerUnderTest;
use caai::netem::rng::{child, seeded};
use caai::netem::{ConditionDb, EnvironmentId, PathConfig};
use caai::obs::NullSubscriber;
use caai::webmodel::PopulationConfig;
use rand::rngs::StdRng;
use rand::RngCore;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// (allocations, bytes requested) by this thread. `const` and without
    /// a destructor, so the allocator may touch it at any time.
    static ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

struct Counting;

fn count(bytes: usize) {
    ALLOCATED.with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counting touches only a thread-local
// `Cell` that neither allocates nor has a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `dealloc`; size and layout are the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `work` allocated on this thread: (allocations, bytes).
fn allocated_by<T>(work: impl FnOnce() -> T) -> (u64, u64, T) {
    let (n0, b0) = ALLOCATED.with(Cell::get);
    let result = work();
    let (n1, b1) = ALLOCATED.with(Cell::get);
    (n1 - n0, b1 - b0, result)
}

#[test]
fn an_ideal_reno_probe_on_a_clean_path_allocates_a_few_dozen_times() {
    let prober = Prober::new(ProberConfig::default());
    let server = ServerUnderTest::ideal(AlgorithmId::Reno);
    let mut rng = seeded(1);
    let (allocations, bytes, outcome) =
        allocated_by(|| prober.gather(&server, &PathConfig::clean(), &mut rng));
    assert!(outcome.pair.is_some());
    println!("ideal RENO, clean path: {allocations} allocations, {bytes} bytes");
    // Two connections: a controller, two window vectors that double a few
    // times and the round buffers. 14,402 packets arrive and 12,356 ACKs
    // go back; none of them is an allocation.
    assert!(
        allocations <= 40,
        "{allocations} allocations ({bytes} bytes): per-packet rounds are back"
    );
}

#[test]
fn no_probe_of_the_benchmark_population_allocates_a_megabyte() {
    // `census_sim`'s seed-1 population, probed as `Census::probe_seeded`
    // probes it.
    let seed = 1;
    let prober = Prober::new(ProberConfig::default());
    let conditions = ConditionDb::paper_2011();
    let (mut total, mut worst) = ((0u64, 0u64), (0u64, 0u32));
    let population = PopulationConfig::small(5000).generate(&mut seeded(seed));
    for web in &population {
        let mut rng = child(seed, u64::from(web.id));
        let path = PathConfig::from_condition(&conditions.sample(&mut rng));
        let server = ServerUnderTest::from_web_server(web);
        let (allocations, bytes, _) = allocated_by(|| prober.gather(&server, &path, &mut rng));
        total = (total.0 + allocations, total.1 + bytes);
        if bytes > worst.0 {
            worst = (bytes, web.id);
        }
    }
    let n = population.len() as u64;
    println!(
        "5000 probes: {} allocations and {} bytes per probe; worst {} bytes (server {})",
        total.0 / n,
        total.1 / n,
        worst.0,
        worst.1
    );
    assert!(
        worst.0 <= 1 << 20,
        "server {} made its probe allocate {} bytes",
        worst.1,
        worst.0
    );
}

/// Counts the wire events of a probe.
#[derive(Default, Debug, PartialEq)]
struct Counts {
    connections: u64,
    packets: u64,
    acks: u64,
}

impl ProbeTap for Counts {
    fn connection_opened(&mut self, _: f64, _: EnvironmentId, _: u32, _: u32, _: u32) {
        self.connections += 1;
    }

    fn data_received(&mut self, _: f64, _: u64, _: bool) {
        self.packets += 1;
    }

    fn ack_sent(&mut self, _: f64, _: u64, _: bool) {
        self.acks += 1;
    }
}

#[test]
fn reno_and_cubic_differ_in_packets_not_in_rounds() {
    let prober = Prober::new(ProberConfig::default());
    let shape = |algorithm| {
        let mut counts = Counts::default();
        let outcome = prober.gather_observed(
            &ServerUnderTest::ideal(algorithm),
            &PathConfig::clean(),
            &mut seeded(17),
            &mut counts,
            &NullSubscriber,
        );
        let pair = outcome.pair.expect("an ideal server gathers");
        let rounds: usize = [&pair.env_a, &pair.env_b]
            .iter()
            .map(|t| t.pre.len() + t.post.len())
            .sum();
        (counts.connections, rounds, counts.packets, counts.acks)
    };
    assert_eq!(shape(AlgorithmId::Reno), (2, 56, 14_402, 12_356));
    assert_eq!(shape(AlgorithmId::CubicV2), (2, 56, 20_855, 18_809));
}

/// A generator that counts what is drawn from it.
struct CountingRng {
    inner: StdRng,
    draws: u64,
}

impl RngCore for CountingRng {
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.inner.next_u64()
    }
}

#[test]
fn a_probe_draws_once_per_packet_and_once_per_ack() {
    let prober = Prober::new(ProberConfig::default());
    let mut rng = CountingRng {
        inner: seeded(17),
        draws: 0,
    };
    let server = ServerUnderTest::ideal(AlgorithmId::Reno);
    let outcome = prober.gather(&server, &PathConfig::clean(), &mut rng);
    assert!(outcome.pair.is_some());
    // On a clean path every packet sent arrives: the counts of
    // `reno_and_cubic_differ_in_packets_not_in_rounds`.
    assert_eq!(rng.draws, 14_402 + 12_356);

    // Three servers of `census_sim`'s seed-1 population behind lossy
    // paths (0.7 %, 11 % and, with late arrivals and a sender that stops
    // growing, 6.8 %), where runs and trains are cut short all the time.
    // The numbers are those of the per-packet prober (PR 17).
    let seed = 1;
    let conditions = ConditionDb::paper_2011();
    let population = PopulationConfig::small(5000).generate(&mut seeded(seed));
    for (id, draws) in [(16, 18_897), (119, 40_291), (332, 24_966)] {
        let web = &population[id];
        let mut rng = CountingRng {
            inner: child(seed, u64::from(web.id)),
            draws: 0,
        };
        let path = PathConfig::from_condition(&conditions.sample(&mut rng));
        assert!(path.data_loss > 0.0 && path.ack_loss > 0.0);
        let sampling = rng.draws;
        prober.gather(&ServerUnderTest::from_web_server(web), &path, &mut rng);
        assert_eq!(rng.draws - sampling, draws, "server {id} behind {path:?}");
    }
}
