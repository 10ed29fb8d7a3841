//! Integration: `caai identify --algo NAME`, the command line's one view
//! of a simulated server. It prints each attempt of one `Prober::gather`,
//! the pair's windows and feature vector, and the census's verdict:
//! `verdict_for_outcome`, which files a §VII-B special shape before the
//! forest votes and counts a walk that finds no pair as an `invalid:`
//! verdict (exit 0), not an error. One model, trained once, serves every
//! run.

use caai::congestion::ALL_IDENTIFIED;
use caai::core::census::{verdict_for_outcome, Verdict};
use caai::core::classify::{CaaiClassifier, Identification};
use caai::core::prober::{Prober, ProberConfig};
use caai::core::server_under_test::ServerUnderTest;
use caai::netem::rng::seeded;
use caai::netem::PathConfig;
use std::process::{Command, Output};

fn caai(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_caai"))
        .args(args)
        .output()
        .expect("spawn caai")
}

/// The model every test classifies with, trained once by `caai train`.
fn model() -> &'static (String, CaaiClassifier) {
    static MODEL: std::sync::OnceLock<(String, CaaiClassifier)> = std::sync::OnceLock::new();
    MODEL.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("caai-identify-algo-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("model.json").to_string_lossy().into_owned();
        let train = caai(&["train", "--conditions", "2", "--seed", "77", "--out", &path]);
        assert!(train.status.success(), "{train:?}");
        let json = std::fs::read_to_string(&path).expect("read the model");
        let classifier = serde_json::from_str(&json).expect("parse the model");
        (path, classifier)
    })
}

/// `identify --algo algo --loss loss --seed seed` under the shared model:
/// it must exit 0; returns its stdout.
fn identify(algo: &str, loss: &str, seed: &str) -> String {
    let args = [
        "identify",
        "--algo",
        algo,
        "--loss",
        loss,
        "--seed",
        seed,
        "--model",
        &model().0,
    ];
    let out = caai(&args);
    assert!(out.status.success(), "{args:?}: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8")
}

/// The line the census rule's verdict must print as, written out here
/// apart from the binary's formatter.
fn verdict_text(verdict: Verdict, identification: Option<Identification>) -> String {
    let votes = 100.0 * identification.map_or(0.0, |i| i.confidence());
    match verdict {
        Verdict::Identified(class, wmax) => {
            format!("identified: {class} ({votes:.0}% of forest votes) at w_max {wmax}")
        }
        Verdict::Unsure(wmax) => format!("Unsure TCP ({votes:.0}%) at w_max {wmax}"),
        Verdict::Special(case, wmax) => format!("[special] {case} at w_max {wmax}"),
        Verdict::Invalid(reason) => format!("invalid: {reason:?}"),
    }
}

#[test]
fn a_special_shape_is_filed_before_the_forest_votes() {
    // Every feature of this pair reads 0: the forest would still name a
    // class, but §VII-B files the shape first.
    let out = identify("VEGAS", "0.01", "7");
    assert!(
        out.lines()
            .any(|l| l == "[special] Nonincreasing Window at w_max 512"),
        "{out}"
    );
    assert!(!out.contains("forest:"), "the forest ran: {out}");
    assert!(out.ends_with("ground truth: VEGAS\n"), "{out}");
}

#[test]
fn a_walk_that_finds_no_pair_is_an_invalid_verdict_not_an_error() {
    let out = identify("RENO", "0.9", "1");
    let attempts: Vec<&str> = out.lines().filter(|l| l.starts_with("attempt ")).collect();
    assert!(!attempts.is_empty(), "{out}");
    assert!(
        attempts
            .iter()
            .all(|l| l.ends_with("invalid: NeverExceededThreshold")),
        "{out}"
    );
    assert!(
        out.lines().any(|l| l == "invalid: NeverExceededThreshold"),
        "{out}"
    );
    assert!(!out.contains("feature vector"), "{out}");
}

#[test]
fn every_printed_verdict_is_the_census_rule_of_the_same_gather() {
    let (_, classifier) = model();
    let prober = Prober::new(ProberConfig::default());
    for (loss, path) in [
        ("0", PathConfig::clean()),
        ("0.01", PathConfig::lossy(0.01)),
        ("0.05", PathConfig::lossy(0.05)),
    ] {
        for algo in ALL_IDENTIFIED {
            for seed in 1..=3 {
                let server = ServerUnderTest::ideal(algo);
                let outcome = prober.gather(&server, &path, &mut seeded(seed));
                let (verdict, identification) = verdict_for_outcome(&outcome, classifier);
                let out = identify(algo.name(), loss, &seed.to_string());
                let want = verdict_text(verdict, identification);
                assert!(
                    out.lines().any(|l| l == want),
                    "{algo} loss {loss} seed {seed}: no line `{want}` in\n{out}"
                );
                let attempts = out.lines().filter(|l| l.starts_with("attempt ")).count();
                let legs = if outcome.pair.is_some() { 2 } else { 0 };
                assert_eq!(attempts, outcome.failed_attempts.len() + legs, "{out}");
                let forest = out.lines().any(|l| l.starts_with("forest: top class "));
                assert_eq!(forest, identification.is_some(), "{out}");
            }
        }
    }
}
