//! Probe transports: where a census's records actually come from.
//!
//! The paper ran CAAI against 30,000+ real web servers; this repo grew
//! up against a synthetic population. [`ProbeTransport`] is the seam
//! between the two: the scheduling machinery (`caai-engine`'s workers,
//! checkpoints, shards, sinks) addresses servers purely by dense id and
//! asks the transport for one [`CensusRecord`] per id, without knowing
//! whether the probe ran in-process against a simulated
//! [`WebServer`] ([`SimTransport`]) or over real sockets
//! (`caai-net`'s `NetTransport`).
//!
//! The contract a transport must honour for the engine's determinism
//! and resume guarantees to survive the swap:
//!
//! * `probe(id, ...)` is valid for every `id` in `0..population()` and
//!   always returns a record with `server_id == id` — the engine keys
//!   its completion bitmap and checkpoint accounting on that.
//! * `probe` never panics and never blocks forever: transport-level
//!   failures (a dead peer, an exhausted retry budget) reduce to an
//!   `Invalid(TransportAborted)` verdict, not an error.
//! * `probe` is callable from many threads at once (`Sync`).
//!
//! A transport that holds probes itself (live sockets: a probe mostly
//! waits on the network) also takes them one id at a time: it reports a
//! nonzero [`capacity`](ProbeTransport::capacity), and the engine then
//! [`submit`](ProbeTransport::submit)s up to that many and collects each
//! record with [`next_finished`](ProbeTransport::next_finished) from one
//! thread, instead of parking a worker thread on every `probe`.
//!
//! Determinism is a property of the transport, not the engine: the
//! simulator is a pure function of `(population, seed, shard)`, while a
//! real network answers however it pleases. The engine stays
//! deterministic *given the records*; whether two runs see the same
//! records is the transport's business.

use caai_obs::Subscriber;
use caai_webmodel::WebServer;

use crate::census::{Census, CensusRecord};

/// A source of census records, addressed by dense server id.
///
/// See the [module docs](self) for the contract.
pub trait ProbeTransport: Sync {
    /// How many servers this transport can probe; valid ids are
    /// `0..population()`.
    fn population(&self) -> u64;

    /// Probes server `id` and returns its record (with
    /// `server_id == id`), forwarding structured events to `obs`.
    /// `seed` keys any per-server randomness so reruns reproduce.
    fn probe<S: Subscriber>(&self, id: u32, seed: u64, obs: &S) -> CensusRecord;

    /// How many submitted probes this transport holds in flight itself.
    /// Zero (the default): it takes none, and `probe` blocks its caller.
    fn capacity(&self) -> usize {
        0
    }

    /// Starts probing server `id` without waiting for it. Called only
    /// while fewer than [`capacity`](Self::capacity) submitted probes are
    /// unfinished.
    fn submit(&self, _id: u32, _seed: u64) {
        unreachable!("a transport of capacity 0 takes no submissions");
    }

    /// Waits for the next submitted probe to finish and returns its
    /// record, replaying that probe's events into `obs`. Called only
    /// while a submitted probe is unfinished.
    fn next_finished<S: Subscriber>(&self, _obs: &S) -> CensusRecord {
        unreachable!("a transport of capacity 0 holds no probes");
    }
}

/// The simulator transport: probes synthetic [`WebServer`]s through
/// [`Census::probe_seeded`], exactly as every census before the
/// transport seam existed. Construction validates that server ids are
/// dense and unique (`0..len`, each exactly once) — the property the
/// engine's completion bitmap and shard ownership are keyed on.
#[derive(Debug)]
pub struct SimTransport<'a> {
    census: &'a Census,
    servers: &'a [WebServer],
    /// `index[id]` = position of the server with that id in `servers`
    /// (the slice need not be sorted by id).
    index: Vec<u32>,
}

impl<'a> SimTransport<'a> {
    /// Wraps a census driver and its population, validating that ids
    /// are dense and unique. The error string names the offending id.
    pub fn new(census: &'a Census, servers: &'a [WebServer]) -> Result<Self, String> {
        let population = servers.len();
        let mut index = vec![u32::MAX; population];
        for (i, s) in servers.iter().enumerate() {
            let Some(slot) = index.get_mut(s.id as usize) else {
                return Err(format!(
                    "server id {} outside 0..{population}; the engine keys its \
                     completion bitmap on dense ids",
                    s.id
                ));
            };
            if *slot != u32::MAX {
                return Err(format!(
                    "duplicate server id {}; the engine keys its completion \
                     bitmap on unique ids",
                    s.id
                ));
            }
            *slot = i as u32;
        }
        Ok(SimTransport {
            census,
            servers,
            index,
        })
    }
}

impl ProbeTransport for SimTransport<'_> {
    fn population(&self) -> u64 {
        self.servers.len() as u64
    }

    fn probe<S: Subscriber>(&self, id: u32, seed: u64, obs: &S) -> CensusRecord {
        let server = &self.servers[self.index[id as usize] as usize];
        self.census.probe_seeded(server, seed, obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::census::Census;
    use crate::classify::CaaiClassifier;
    use crate::prober::ProberConfig;
    use crate::training::{build_training_set, TrainingConfig};
    use caai_netem::rng::seeded;
    use caai_netem::ConditionDb;
    use caai_webmodel::PopulationConfig;

    fn quick_census(rng: &mut impl rand::Rng) -> Census {
        let db = ConditionDb::paper_2011();
        let data = build_training_set(&TrainingConfig::quick(2), &db, rng);
        let classifier = CaaiClassifier::train(&data, rng);
        Census::new(
            classifier,
            ConditionDb::paper_2011(),
            ProberConfig::default(),
        )
    }

    #[test]
    fn sim_transport_matches_probe_seeded() {
        let mut rng = seeded(300);
        let census = quick_census(&mut rng);
        let servers = PopulationConfig::small(6).generate(&mut rng);
        let transport = SimTransport::new(&census, &servers).unwrap();
        assert_eq!(transport.population(), 6);
        for server in &servers {
            assert_eq!(
                transport.probe(server.id, 9, &caai_obs::NullSubscriber),
                census.probe_seeded(server, 9, &caai_obs::NullSubscriber),
                "the transport seam must not change any record"
            );
        }
    }

    #[test]
    fn sim_transport_handles_unsorted_populations() {
        let mut rng = seeded(301);
        let census = quick_census(&mut rng);
        let mut servers = PopulationConfig::small(5).generate(&mut rng);
        servers.reverse();
        let transport = SimTransport::new(&census, &servers).unwrap();
        for server in &servers {
            assert_eq!(
                transport
                    .probe(server.id, 2, &caai_obs::NullSubscriber)
                    .server_id,
                server.id
            );
        }
    }

    #[test]
    fn sim_transport_rejects_sparse_or_duplicate_ids() {
        let mut rng = seeded(302);
        let census = quick_census(&mut rng);
        let mut servers = PopulationConfig::small(3).generate(&mut rng);
        servers[2].id = 7;
        let err = SimTransport::new(&census, &servers).unwrap_err();
        assert!(err.contains("outside 0..3"), "{err}");
        servers[2].id = 1;
        let err = SimTransport::new(&census, &servers).unwrap_err();
        assert!(err.contains("duplicate server id 1"), "{err}");
    }
}
