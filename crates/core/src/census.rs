//! The Internet measurement campaign (§VII-B, Table IV).
//!
//! For every server in a population the census samples a real-path network
//! condition, runs the full CAAI protocol (ladder, environments A and B),
//! files invalid traces by reason, detects the §VII-B special cases,
//! classifies the rest with the random forest (40% confidence floor), and
//! folds the verdict into the per-`w_max`-column report of Table IV
//! ([`CensusReport`]); `caai-engine` schedules the probes. Because the
//! population is synthetic, the report can also score identification
//! accuracy against ground truth — something the paper could not do for
//! the real Internet.

use caai_congestion::AlgorithmId;
use caai_netem::{ConditionDb, PathConfig};
use caai_obs::{span_begin, Event, ProbeTimed, SpanKind, Subscriber, VerdictKind};
use caai_webmodel::WebServer;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Instant;

use crate::classes::ClassLabel;
use crate::classify::{CaaiClassifier, Identification};
use crate::features::extract_pair;
use crate::prober::{GatherOutcome, NoopTap, Prober, ProberConfig};
use crate::server_under_test::ServerUnderTest;
use crate::special::{detect, SpecialCase};
use crate::trace::InvalidReason;

/// CAAI steps 2–3 as one function: turns a gathering outcome into a
/// verdict — invalid → its reason, a §VII-B special shape → filed,
/// otherwise feature extraction and the random forest with the 40%
/// confidence floor. The raw classifier output rides along when the
/// forest ran.
///
/// This is the **single** verdict pipeline: the synthetic census
/// (`Census::probe_seeded`) and capture ingestion (`caai-capture`) both
/// call it, so a simulated probe and its recorded wire exchange can never
/// be scored by diverging rules.
pub fn verdict_for_outcome(
    outcome: &GatherOutcome,
    classifier: &CaaiClassifier,
) -> (Verdict, Option<Identification>) {
    match &outcome.pair {
        None => (
            Verdict::Invalid(
                outcome
                    .failure_reason()
                    .unwrap_or(InvalidReason::NeverExceededThreshold),
            ),
            None,
        ),
        Some(pair) => {
            let wmax = pair.wmax_threshold();
            if let Some(case) = detect(&pair.env_a) {
                return (Verdict::Special(case, wmax), None);
            }
            let id = classifier.classify(&extract_pair(pair));
            let verdict = match id {
                Identification::Identified { class, .. } => Verdict::Identified(class, wmax),
                Identification::Unsure { .. } => Verdict::Unsure(wmax),
            };
            (verdict, Some(id))
        }
    }
}

/// The census verdict for one server.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Verdict {
    /// No valid trace could be gathered (53% of servers in the paper).
    Invalid(InvalidReason),
    /// A §VII-B special-case trace, at the given `w_max` rung.
    Special(SpecialCase, u32),
    /// Forest confidence below 40% ("Unsure TCP").
    Unsure(u32),
    /// Confident identification at the given `w_max` rung.
    Identified(ClassLabel, u32),
}

impl Verdict {
    /// The `w_max` rung, for valid traces.
    pub fn wmax(&self) -> Option<u32> {
        match self {
            Verdict::Invalid(_) => None,
            Verdict::Special(_, w) | Verdict::Unsure(w) | Verdict::Identified(_, w) => Some(*w),
        }
    }

    /// The payload-free verdict family, as structured events report it.
    pub fn kind(&self) -> VerdictKind {
        match self {
            Verdict::Invalid(_) => VerdictKind::Invalid,
            Verdict::Special(..) => VerdictKind::Special,
            Verdict::Unsure(_) => VerdictKind::Unsure,
            Verdict::Identified(..) => VerdictKind::Identified,
        }
    }
}

/// One server's census record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CensusRecord {
    /// Server id within the population.
    pub server_id: u32,
    /// Ground-truth algorithm (the effective one, behind any proxy).
    /// `None` when the record was not produced against a synthetic server
    /// — e.g. a flow ingested from a packet capture, where the truth is
    /// exactly what identification is trying to find out. (`Option`
    /// serializes transparently, so synthetic-census JSONL is unchanged.)
    pub truth: Option<AlgorithmId>,
    /// The verdict.
    pub verdict: Verdict,
}

/// Aggregated census results, the material of Table IV: a
/// constant-memory fold of census records.
///
/// One [`observe`](CensusReport::observe) call per record maintains every
/// aggregate Table IV needs — verdict counts per `w_max` column, the
/// invalid-reason histogram, the ground-truth histogram, and the accuracy
/// tallies — in O(classes × rungs) memory, however many records stream
/// through. Two reports over disjoint server sets
/// [`merge`](CensusReport::merge) into exactly the fold of the union,
/// which is what makes a sharded census joinable into the unsharded
/// report. Record-level drill-down is opt-in via `caai-engine`'s
/// aggregating sink.
///
/// ```
/// use caai_core::census::{CensusRecord, CensusReport, Verdict};
/// use caai_core::classes::ClassLabel;
/// use caai_congestion::AlgorithmId;
///
/// let record = CensusRecord {
///     server_id: 7,
///     truth: Some(AlgorithmId::Bic),
///     verdict: Verdict::Identified(ClassLabel::Bic, 512),
/// };
/// let mut left = CensusReport::default();
/// left.observe(&record);
/// let mut right = CensusReport::default();
/// right.observe(&CensusRecord { server_id: 8, ..record });
///
/// let mut merged = left.clone();
/// merged.merge(&right);
/// assert_eq!(merged.total, 2);
/// assert_eq!(merged.ground_truth_accuracy(), 1.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CensusReport {
    /// Records folded in so far.
    pub total: usize,
    /// Invalid-trace counts by reason.
    pub invalid: BTreeMap<String, usize>,
    /// Per-`w_max` rung columns.
    pub columns: BTreeMap<u32, CensusColumn>,
    /// Ground-truth algorithm histogram (synthetic-population bonus).
    pub truth: BTreeMap<String, usize>,
    /// Confidently identified servers *with known ground truth* — the
    /// denominator of the accuracy score (truth-less capture-ingested
    /// records appear in the columns but not here).
    pub identified_total: usize,
    /// Confident identifications matching ground truth.
    pub identified_correct: usize,
}

/// One `w_max` column of Table IV.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CensusColumn {
    /// Confident identifications per class.
    pub identified: BTreeMap<String, usize>,
    /// Special-case counts per case.
    pub special: BTreeMap<String, usize>,
    /// "Unsure TCP" count.
    pub unsure: usize,
}

impl CensusColumn {
    /// Servers contributing to this column.
    pub fn total(&self) -> usize {
        self.identified.values().sum::<usize>() + self.special.values().sum::<usize>() + self.unsure
    }
}

impl CensusReport {
    /// Folds one record into the report.
    pub fn observe(&mut self, r: &CensusRecord) {
        self.total += 1;
        if let Some(truth) = r.truth {
            *self.truth.entry(truth.name().to_owned()).or_default() += 1;
        }
        match r.verdict {
            Verdict::Invalid(reason) => {
                *self.invalid.entry(format!("{reason:?}")).or_default() += 1;
            }
            Verdict::Special(case, wmax) => {
                let col = self.columns.entry(wmax).or_default();
                *col.special.entry(case.name().to_owned()).or_default() += 1;
            }
            Verdict::Unsure(wmax) => {
                self.columns.entry(wmax).or_default().unsure += 1;
            }
            Verdict::Identified(class, wmax) => {
                let col = self.columns.entry(wmax).or_default();
                *col.identified.entry(class.name().to_owned()).or_default() += 1;
                // Truth-less records (capture-ingested flows) carry
                // nothing to score against: keeping them out of the
                // denominator stops them from silently deflating the
                // accuracy when capture and synthetic records mix.
                if let Some(truth) = r.truth {
                    self.identified_total += 1;
                    if class.matches(truth, wmax) {
                        self.identified_correct += 1;
                    }
                }
            }
        }
    }

    /// Adds another report (over a disjoint record set) into this one.
    pub fn merge(&mut self, other: &CensusReport) {
        self.total += other.total;
        for (reason, n) in &other.invalid {
            *self.invalid.entry(reason.clone()).or_default() += n;
        }
        for (truth, n) in &other.truth {
            *self.truth.entry(truth.clone()).or_default() += n;
        }
        for (wmax, col) in &other.columns {
            let mine = self.columns.entry(*wmax).or_default();
            for (class, n) in &col.identified {
                *mine.identified.entry(class.clone()).or_default() += n;
            }
            for (case, n) in &col.special {
                *mine.special.entry(case.clone()).or_default() += n;
            }
            mine.unsure += col.unsure;
        }
        self.identified_total += other.identified_total;
        self.identified_correct += other.identified_correct;
    }

    /// Records whose verdict is of `kind`. Identifications count whether
    /// or not they carry a ground truth, unlike
    /// [`identified_total`](CensusReport::identified_total).
    pub fn kind_total(&self, kind: VerdictKind) -> usize {
        let columns = self.columns.values();
        match kind {
            VerdictKind::Identified => columns.map(|c| c.identified.values().sum::<usize>()).sum(),
            VerdictKind::Special => columns.map(|c| c.special.values().sum::<usize>()).sum(),
            VerdictKind::Unsure => columns.map(|c| c.unsure).sum(),
            VerdictKind::Invalid => self.invalid.values().sum(),
        }
    }

    /// Servers with valid traces (the paper's ~47%).
    pub fn valid_total(&self) -> usize {
        self.columns.values().map(CensusColumn::total).sum()
    }

    /// Share of valid-trace servers identified as `class`, in percent —
    /// the Table IV body cells.
    pub fn identified_percent(&self, class: ClassLabel) -> f64 {
        let n: usize = self
            .columns
            .values()
            .map(|c| c.identified.get(class.name()).copied().unwrap_or(0))
            .sum();
        100.0 * n as f64 / self.valid_total().max(1) as f64
    }

    /// Share of valid-trace servers in a census family ("BIC/CUBIC",
    /// "CTCP", ...), in percent.
    pub fn family_percent(&self, family: &str) -> f64 {
        let n: usize = ClassLabel::ALL
            .iter()
            .filter(|c| c.census_family() == family)
            .map(|c| {
                self.columns
                    .values()
                    .map(|col| col.identified.get(c.name()).copied().unwrap_or(0))
                    .sum::<usize>()
            })
            .sum();
        100.0 * n as f64 / self.valid_total().max(1) as f64
    }

    /// Share of valid-trace servers that are "Unsure TCP", in percent.
    pub fn unsure_percent(&self) -> f64 {
        let n = self.kind_total(VerdictKind::Unsure);
        100.0 * n as f64 / self.valid_total().max(1) as f64
    }

    /// Identification accuracy against ground truth over confidently
    /// identified servers (not available to the paper; a bonus of the
    /// synthetic population).
    pub fn ground_truth_accuracy(&self) -> f64 {
        self.identified_correct as f64 / self.identified_total.max(1) as f64
    }
}

/// Census driver.
#[derive(Debug, Clone)]
pub struct Census {
    prober: Prober,
    classifier: CaaiClassifier,
    conditions: ConditionDb,
}

impl Census {
    /// Creates a census driver from a trained classifier.
    pub fn new(classifier: CaaiClassifier, conditions: ConditionDb, prober: ProberConfig) -> Self {
        Census {
            prober: Prober::new(prober),
            classifier,
            conditions,
        }
    }

    /// Probes one server with the canonical per-server RNG, keyed on
    /// `(seed, server.id)`. Any scheduler that probes each server through
    /// this method — whatever its worker count or interleaving — measures
    /// exactly the same records (`caai-engine` relies on this).
    ///
    /// `obs` hears the ladder walk's rung events plus a [`ProbeTimed`]
    /// stage-timing split (gather vs verdict wall time — the
    /// gather-dominance claim, ROADMAP item 5, measured live). The record
    /// is the same whatever the subscriber; timing preparation is skipped
    /// entirely when `S::ENABLED` is false, so callers that observe
    /// nothing pass [`caai_obs::NullSubscriber`].
    pub fn probe_seeded<S: Subscriber>(
        &self,
        server: &WebServer,
        seed: u64,
        obs: &S,
    ) -> CensusRecord {
        let rng = &mut caai_netem::rng::child(seed, u64::from(server.id));
        let cond = self.conditions.sample(rng);
        let path = PathConfig::from_condition(&cond);
        let sut = ServerUnderTest::from_web_server(server);
        let gather_started = S::ENABLED.then(Instant::now);
        let gather_span = span_begin(obs, SpanKind::Gather, i64::from(server.id), 0);
        let outcome = self
            .prober
            .gather_observed(&sut, &path, rng, &mut NoopTap, obs);
        gather_span.end(obs);
        let gather_done = S::ENABLED.then(Instant::now);
        let classify_span = span_begin(obs, SpanKind::Classify, i64::from(server.id), 0);
        let (verdict, _) = verdict_for_outcome(&outcome, &self.classifier);
        classify_span.end(obs);
        if let (Some(t0), Some(t1)) = (gather_started, gather_done) {
            obs.on_event(&Event::ProbeTimed(ProbeTimed {
                gather_us: (t1 - t0).as_micros() as u64,
                verdict_us: t1.elapsed().as_micros() as u64,
            }));
        }
        CensusRecord {
            server_id: server.id,
            truth: Some(server.effective_algorithm()),
            verdict,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::{build_training_set, TrainingConfig};
    use crate::transport::{ProbeTransport, SimTransport};
    use caai_netem::rng::seeded;
    use caai_obs::NullSubscriber;
    use caai_webmodel::PopulationConfig;

    /// A census over a quick classifier, and `n` servers to probe.
    fn census_of(seed: u64, n: u32) -> (Census, Vec<WebServer>) {
        let mut rng = seeded(seed);
        let db = ConditionDb::paper_2011();
        let data = build_training_set(&TrainingConfig::quick(2), &db, &mut rng);
        let classifier = CaaiClassifier::train(&data, &mut rng);
        let census = Census::new(classifier, db, ProberConfig::default());
        (census, PopulationConfig::small(n).generate(&mut rng))
    }

    fn fold<'a>(records: impl IntoIterator<Item = &'a CensusRecord>) -> CensusReport {
        let mut report = CensusReport::default();
        records.into_iter().for_each(|r| report.observe(r));
        report
    }

    fn probe_all(census: &Census, servers: &[WebServer], seed: u64) -> Vec<CensusRecord> {
        let probe = |s| census.probe_seeded(s, seed, &NullSubscriber);
        servers.iter().map(probe).collect()
    }

    #[test]
    fn small_census_produces_a_coherent_report() {
        let (census, servers) = census_of(100, 40);
        let report = fold(&probe_all(&census, &servers, 7));
        assert_eq!(report.total, 40);
        let invalid = report.kind_total(VerdictKind::Invalid);
        assert_eq!(invalid + report.valid_total(), 40);
        // Roughly half the servers yield no valid trace, as in the paper.
        assert!(invalid >= 8, "invalid {invalid}");
        assert!(report.valid_total() >= 8, "valid {}", report.valid_total());
    }

    #[test]
    fn census_is_deterministic_for_a_seed() {
        let (census, servers) = census_of(101, 12);
        let forward = probe_all(&census, &servers, 5);
        // Probed in the opposite order, as a scheduler may: the RNG is
        // keyed on (seed, server id) alone.
        let reversed: Vec<WebServer> = servers.iter().rev().cloned().collect();
        let mut backward = probe_all(&census, &reversed, 5);
        backward.reverse();
        assert_eq!(forward, backward, "per-server RNG must be reproducible");
    }

    #[test]
    fn report_is_identical_for_any_worker_count() {
        let (census, servers) = census_of(102, 30);
        let records = probe_all(&census, &servers, 11);
        let one = fold(&records);
        // However the servers are dealt to workers, and in whatever order
        // the workers' records fold, the report is the same.
        for workers in [8, 64] {
            let mut dealt = CensusReport::default();
            for w in (0..workers).rev() {
                dealt.merge(&fold(records.iter().skip(w).step_by(workers)));
            }
            assert_eq!(one, dealt, "{workers} workers");
        }
    }

    #[test]
    fn probe_seeded_matches_run_records() {
        // A run's records come through the simulator transport.
        let (census, servers) = census_of(103, 8);
        let transport = SimTransport::new(&census, &servers).unwrap();
        for server in &servers {
            assert_eq!(
                census.probe_seeded(server, 3, &NullSubscriber),
                transport.probe(server.id, 3, &NullSubscriber)
            );
        }
    }

    #[test]
    fn a_fold_of_disjoint_halves_merges_to_the_whole() {
        let (census, servers) = census_of(104, 30);
        let records = probe_all(&census, &servers, 9);
        let whole = fold(&records);
        // Folding disjoint halves and merging is exact, in either order.
        let (left, right) = records.split_at(records.len() / 2);
        let (a, b) = (fold(left), fold(right));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, whole);
        assert_eq!(ba, whole);
    }

    #[test]
    fn probe_obs_matches_probe_and_times_the_stages() {
        use caai_obs::MetricsSubscriber;
        let (census, servers) = census_of(105, 4);
        let metrics = MetricsSubscriber::new();
        for server in &servers {
            assert_eq!(
                census.probe_seeded(server, 3, &metrics),
                census.probe_seeded(server, 3, &NullSubscriber),
                "subscriber must not change the record"
            );
        }
        let snap = metrics.snapshot();
        assert_eq!(snap.counters["gather.runs"], 4);
        let gather = &snap.histograms["census.probe_gather_us"];
        let verdict = &snap.histograms["census.probe_verdict_us"];
        assert_eq!(gather.count, 4, "one timing sample per probe");
        assert_eq!(verdict.count, 4);
    }

    #[test]
    fn verdict_wmax_accessor() {
        assert_eq!(Verdict::Invalid(InvalidReason::PageTooShort).wmax(), None);
        assert_eq!(Verdict::Unsure(128).wmax(), Some(128));
        assert_eq!(Verdict::Identified(ClassLabel::Bic, 512).wmax(), Some(512));
    }

    #[test]
    fn truthless_records_do_not_deflate_accuracy() {
        let report = fold(&[
            CensusRecord {
                server_id: 0,
                truth: Some(AlgorithmId::Bic),
                verdict: Verdict::Identified(ClassLabel::Bic, 512),
            },
            // A capture-ingested identification: nothing to score against.
            CensusRecord {
                server_id: 1,
                truth: None,
                verdict: Verdict::Identified(ClassLabel::Htcp, 512),
            },
        ]);
        assert_eq!(
            report.identified_total, 1,
            "only truth-bearing records score"
        );
        assert_eq!(report.ground_truth_accuracy(), 1.0);
        assert_eq!(
            report.kind_total(VerdictKind::Identified),
            2,
            "the columns still count both"
        );
    }
}
