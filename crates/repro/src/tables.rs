//! The paper's Tables I–IV.

use crate::plot::table;
use crate::{census_report, training_set, Output, Scale};
use caai_congestion::registry::os_inventory;
use caai_congestion::AlgorithmId;
use caai_core::census::{Census, CensusColumn};
use caai_core::classes::ClassLabel;
use caai_core::classify::CaaiClassifier;
use caai_core::prober::ProberConfig;
use caai_core::special::SpecialCase;
use caai_ml::cross_validation::cross_validate;
use caai_ml::{RandomForest, RandomForestConfig};
use caai_netem::rng::seeded;
use caai_netem::ConditionDb;
use caai_webmodel::mss::{MssAcceptance, PROBE_MSS_LADDER, TABLE_II_SHARES};
use std::collections::BTreeMap;
use std::iter::once;

/// Table I: TCP algorithms available in major operating-system families.
pub fn table01_os_inventory(_: Scale) -> Output {
    let names = |algos: &[AlgorithmId]| {
        algos
            .iter()
            .map(|a| a.name())
            .collect::<Vec<_>>()
            .join(", ")
    };
    let rows: Vec<Vec<String>> = os_inventory()
        .into_iter()
        .map(|row| {
            vec![
                row.family.to_string(),
                names(&row.defaults),
                names(&row.available),
            ]
        })
        .collect();
    let header = ["family", "defaults (across releases)", "available"].map(String::from);
    let mut o = Output::default();
    o.line("== Table I: TCP algorithms available in major OS families ==\n");
    o.line(table(&header, &rows));
    o.line(
        "note: HYBLA and LP ship in Linux but are excluded from identification \
         (satellite links / background transfer, §III-A).",
    );
    o.num("families", rows.len() as f64);
    o
}

/// Table II: minimum segment sizes accepted by web servers.
pub fn table02_mss(scale: Scale) -> Output {
    let n = scale.population().size.max(10_000) as usize;
    let mut rng = seeded(2);
    let mut counts = [0usize; 4];
    for _ in 0..n {
        let m = MssAcceptance::sample(&mut rng);
        let rung = PROBE_MSS_LADDER.iter().position(|&x| x == m.min_mss);
        counts[rung.expect("ladder value")] += 1;
    }
    let mut o = Output::default();
    let mut rows = Vec::new();
    for ((mss, count), share) in PROBE_MSS_LADDER.iter().zip(counts).zip(TABLE_II_SHARES) {
        let measured = 100.0 * count as f64 / n as f64;
        let model = format!("{:.2}", 100.0 * share);
        rows.push(vec![mss.to_string(), format!("{measured:.2}"), model]);
        o.num(&format!("mss{mss}_pct"), measured);
    }
    o.line("== Table II: minimum segment sizes of web servers ==\n");
    let header = ["min MSS (bytes)", "measured %", "model %"].map(String::from);
    o.line(table(&header, &rows));
    o.line(
        "most servers accept the 100-byte MSS CAAI proposes first; the rest \
         round it up, shrinking the packet budget of short pages (§IV-B).",
    );
    o
}

/// Table III: per-class identification accuracy (the confusion matrix) of
/// the training vectors under 10-fold cross-validation with the paper's
/// forest, K = 80 and m = 4. Besides the overall accuracy it reports every
/// off-diagonal cell above 2 % (`<actual>-><predicted>`), how many there
/// are, and the largest of the rest, so a regression that swaps one
/// confusion for another at equal accuracy fails.
pub fn table03_confusion(scale: Scale) -> Output {
    let (data, mut rng) = training_set(scale);
    let paper = || RandomForest::new(RandomForestConfig::paper());
    let confusion = cross_validate(&data, 10, paper, &mut rng).confusion;
    let mut o = Output::default();
    o.line("== Table III: identification accuracy per TCP algorithm (percent) ==");
    o.line("(rows: actual class; columns: predicted class; K=80 trees, m=4)\n");
    o.line(&confusion);
    o.line(
        "paper reference: overall accuracy 96.98% with the same protocol \
         (5,600 vectors, 10-fold CV)",
    );
    o.num("overall", 100.0 * confusion.accuracy());
    let (mut above, mut largest_other) = (0u32, 0.0f64);
    for (actual, name) in confusion.labels().iter().enumerate() {
        let row = confusion.row_percent(actual).into_iter().enumerate();
        for (predicted, pct) in row.filter(|&(p, _)| p != actual) {
            if pct > 2.0 {
                above += 1;
                o.num(&format!("{name}->{}", confusion.labels()[predicted]), pct);
            } else {
                largest_other = largest_other.max(pct);
            }
        }
    }
    o.num("cells_above_2pct", above);
    o.num("largest_other_cell", largest_other);
    o
}

/// Table IV: the web-server census (§VII-B). Trains the classifier,
/// generates the synthetic population, probes every server, and prints the
/// per-`w_max` columns, special-case rows, "Unsure TCP", the headline
/// family shares, and the ground-truth accuracy the paper could not measure.
pub fn table04_census(scale: Scale) -> Output {
    let (data, mut rng) = training_set(scale);
    let classifier = CaaiClassifier::train(&data, &mut rng);
    let servers = scale.population().generate(&mut rng);
    let db = ConditionDb::paper_2011();
    let census = Census::new(classifier, db, ProberConfig::default());
    let report = census_report(census, &servers, scale.seed() ^ 0xC3A5, scale);

    let valid = report.valid_total();
    let invalid: usize = report.invalid.values().sum();
    let of_all = |n: usize| 100.0 * n as f64 / report.total as f64;
    let mut o = Output::default();
    o.line("== Table IV: identification results of web servers ==\n");
    o.line(format!("servers probed: {}", report.total));
    o.line(format!(
        "valid traces:   {valid} ({:.1}%)   invalid: {invalid} ({:.1}%)  [paper: 47% / 53%]",
        of_all(valid),
        of_all(invalid)
    ));
    o.line(format!("invalid-trace reasons: {:?}\n", report.invalid));
    o.num("valid_pct", of_all(valid));
    for (reason, &n) in &report.invalid {
        o.num(&format!("invalid.{reason}"), n as f64);
    }

    // Rows: the share of valid servers per rung (the paper's
    // 63.84/14.02/14.24/7.92), the classes, the special cases and "Unsure
    // TCP"; columns: the rungs and overall; cells: percent of valid servers.
    let rungs: Vec<u32> = report.columns.keys().copied().rev().collect();
    let pct = |n: usize| 100.0 * n as f64 / valid.max(1) as f64;
    let row = |name: &str, count: &dyn Fn(&CensusColumn) -> usize| -> Vec<String> {
        let mut counts: Vec<usize> = rungs.iter().map(|w| count(&report.columns[w])).collect();
        counts.push(counts.iter().sum());
        let cells = counts.iter().map(|&n| format!("{:.2}", pct(n)));
        once(name.to_owned()).chain(cells).collect()
    };
    let get = |map: &BTreeMap<String, usize>, key: &str| map.get(key).copied().unwrap_or(0);
    let mut rows = vec![row("(servers at this rung)", &CensusColumn::total)];
    for class in ClassLabel::ALL {
        rows.push(row(class.name(), &|c| get(&c.identified, class.name())));
    }
    for case in SpecialCase::ALL {
        rows.push(row(case.name(), &|c| get(&c.special, case.name())));
    }
    rows.push(row("Unsure TCP", &|c| c.unsure));
    let header: Vec<String> = once("row (% of valid)".to_owned())
        .chain(rungs.iter().map(|w| format!("wmax={w}")))
        .chain(once("overall".to_owned()))
        .collect();
    o.line(table(&header, &rows));
    for w in &rungs {
        o.num(&format!("rung{w}_pct"), pct(report.columns[w].total()));
    }

    let bic = report.family_percent("BIC/CUBIC");
    let ctcp = report.family_percent("CTCP");
    let reno = report.family_percent("RENO");
    let htcp = report.identified_percent(ClassLabel::Htcp);
    let unsure = report.unsure_percent();
    let accuracy = 100.0 * report.ground_truth_accuracy();
    let reno_rc = reno + report.family_percent("RC-small");
    o.line("headline shares (percent of valid-trace servers):");
    o.line(format!("  BIC or CUBIC : {bic:>6.2}   [paper: 46.92%]"));
    o.line(format!("  CTCP (big)   : {ctcp:>6.2}   [paper: v1 >> v2]"));
    o.line(format!(
        "  RENO         : {reno:>6.2} .. {reno_rc:>5.2}  (RENO-big .. +RC-small) [paper: 3.31%..14.47%]"
    ));
    o.line(format!("  HTCP         : {htcp:>6.2}   [paper: 4.89%]"));
    o.line(format!("  Unsure TCP   : {unsure:>6.2}   [paper: 4.32%]\n"));
    o.line(format!(
        "ground-truth identification accuracy over confident verdicts: {accuracy:.2}% \
         (unavailable to the paper)"
    ));
    o.num("bic_cubic_pct", bic);
    o.num("htcp_pct", htcp);
    o.num("unsure_pct", unsure);
    o.num("ground_truth_accuracy_pct", accuracy);
    o
}
