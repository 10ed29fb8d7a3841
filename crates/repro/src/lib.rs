//! # caai-repro
//!
//! The paper's evaluation as one program. Every table, figure and ablation
//! is an entry of [`EXPERIMENTS`]: a function of the [`Scale`] that returns
//! the text it prints and its headline numbers ([`Output`]). The `repro`
//! binary runs them by name, and `repro check` holds their numbers, at
//! paper scale, to the paper's values and this repository's pinned ones in
//! `REPRO_EXPECT.json` at the repository root:
//!
//! ```text
//! repro list
//! repro <experiment>... [--scale quick|paper]
//! repro check
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod check;
mod figures;
mod learning;
pub mod params;
pub mod plot;
mod tables;

pub use params::Scale;

use caai_core::census::{Census, CensusReport};
use caai_core::training::build_training_set;
use caai_engine::{CensusEngine, EngineConfig};
use caai_ml::Dataset;
use caai_netem::rng::seeded;
use caai_netem::ConditionDb;
use caai_webmodel::WebServer;
use rand::rngs::StdRng;
use std::io::{ErrorKind, Write};
use std::process::ExitCode;

/// What one experiment produced.
#[derive(Debug, Default)]
pub struct Output {
    /// Everything the experiment prints, byte for byte.
    pub text: String,
    /// Its headline numbers; `repro check` names each
    /// `<experiment>.<number>`.
    pub numbers: Vec<(String, f64)>,
}

impl Output {
    fn line(&mut self, text: impl std::fmt::Display) {
        self.text += &format!("{text}\n");
    }

    fn num(&mut self, name: &str, value: impl Into<f64>) {
        self.numbers.push((name.to_owned(), value.into()));
    }
}

/// One table, figure or ablation of the paper's evaluation.
pub type Experiment = fn(Scale) -> Output;

/// Every experiment of the paper's evaluation, by name.
pub const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("ablation_environments", learning::ablation_environments),
    ("ablation_features", learning::ablation_features),
    ("ablation_ladder", learning::ablation_ladder),
    ("fig01_components", figures::fig01_components),
    ("fig02_env_schedules", figures::fig02_env_schedules),
    ("fig03_traces", figures::fig03_traces),
    ("fig04_rtt_cdf", figures::fig04_rtt_cdf),
    ("fig05_packet_exchange", figures::fig05_packet_exchange),
    ("fig06_http_requests", figures::fig06_http_requests),
    ("fig07_page_sizes", figures::fig07_page_sizes),
    ("fig08_valid_trace", figures::fig08_valid_trace),
    ("fig09_testbed", figures::fig09_testbed),
    ("fig10_rtt_std_cdf", figures::fig10_rtt_std_cdf),
    ("fig11_loss_cdf", figures::fig11_loss_cdf),
    ("fig12_cv_accuracy", learning::fig12_cv_accuracy),
    ("fig13_18_special_traces", figures::fig13_18_special_traces),
    ("model_comparison", learning::model_comparison),
    ("table01_os_inventory", tables::table01_os_inventory),
    ("table02_mss", tables::table02_mss),
    ("table03_confusion", tables::table03_confusion),
    ("table04_census", tables::table04_census),
];

/// Seeds an experiment's RNG and collects the §VII-A training set at
/// `scale`; the same RNG then drives the experiment's forests.
fn training_set(scale: Scale) -> (Dataset, StdRng) {
    let mut rng = seeded(scale.seed());
    let data = build_training_set(&scale.training(), &ConditionDb::paper_2011(), &mut rng);
    (data, rng)
}

/// Table IV's census of `servers`, run by the engine on `scale`'s workers
/// as `caai census` runs it: no sinks, no checkpoint.
fn census_report(census: Census, servers: &[WebServer], seed: u64, scale: Scale) -> CensusReport {
    let config = EngineConfig {
        seed,
        workers: scale.workers(),
        ..EngineConfig::default()
    };
    let outcome = CensusEngine::new(census, config).run(servers, &mut [], None);
    outcome.expect("no sinks, no checkpoint: no I/O").report
}

const USAGE: &str = "usage: repro list
       repro <experiment>... [--scale quick|paper]   (default: quick)
       repro check                                   (always paper scale)";

/// The `repro` command line, `args` without the program name. Exits 0 when
/// done (a reader closing stdout early counts as done), 1 when `check`
/// fails or stdout breaks otherwise, and 2 on a usage error.
pub fn cli(args: Vec<String>) -> ExitCode {
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}

fn run(args: &[String]) -> Result<(), ExitCode> {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
    match args {
        [one] if one == "list" => return emit(&(names.join("\n") + "\n")),
        [one] if one == "check" => return check(),
        [] => return Err(usage("name an experiment, or `list` or `check`")),
        _ => {}
    }
    let (mut scale, mut runs) = (Scale::Quick, Vec::new());
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if arg == "--scale" {
            scale = match args.next().map_or("", String::as_str) {
                "quick" => Scale::Quick,
                "paper" => Scale::Paper,
                v => {
                    return Err(usage(&format!(
                        "unknown scale `{v}`; valid scales: quick, paper"
                    )))
                }
            };
        } else if let Some(&(_, experiment)) = EXPERIMENTS.iter().find(|e| e.0 == arg) {
            runs.push(experiment);
        } else {
            let valid = names.join(", ");
            return Err(usage(&format!(
                "unknown experiment or flag `{arg}`; valid names: {valid}"
            )));
        }
    }
    runs.into_iter()
        .try_for_each(|experiment| emit(&experiment(scale).text))
}

fn check() -> Result<(), ExitCode> {
    let expect = check::parse(check::EXPECT_JSON).map_err(|e| {
        eprintln!("error: REPRO_EXPECT.json: {e}");
        ExitCode::FAILURE
    })?;
    let rows = check::compare(&expect, &check::measure(&expect));
    emit(&check::render(&rows))?;
    if rows.iter().all(|r| r.verdict == check::Verdict::Pass) {
        Ok(())
    } else {
        Err(ExitCode::FAILURE)
    }
}

fn usage(message: &str) -> ExitCode {
    eprintln!("error: {message}\n{USAGE}");
    ExitCode::from(2)
}

/// Writes `text` to stdout. A reader that closed the pipe has seen all it
/// wants, so that ends the run as done rather than failed.
fn emit(text: &str) -> Result<(), ExitCode> {
    let mut out = std::io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == ErrorKind::BrokenPipe => Err(ExitCode::SUCCESS),
        Err(e) => {
            eprintln!("error: writing stdout: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The experiments that collect a training set; they run in
    /// `repro check` at paper scale instead.
    const TRAINS: [&str; 7] = [
        "ablation_environments",
        "ablation_features",
        "ablation_ladder",
        "fig12_cv_accuracy",
        "model_comparison",
        "table03_confusion",
        "table04_census",
    ];

    #[test]
    fn every_experiment_without_a_training_set_reports_at_quick_scale() {
        let names: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
        assert_eq!(names.len(), EXPERIMENTS.len(), "experiment names repeat");
        assert!(TRAINS.iter().all(|t| names.contains(t)));
        for (name, experiment) in EXPERIMENTS.iter().filter(|e| !TRAINS.contains(&e.0)) {
            let out = experiment(Scale::Quick);
            assert!(!out.text.is_empty(), "{name} printed nothing");
            assert!(!out.numbers.is_empty(), "{name} returned no number");
        }
    }

    #[test]
    fn the_committed_expectations_parse_and_name_experiments() {
        let expect = check::parse(check::EXPECT_JSON).expect("REPRO_EXPECT.json");
        for e in &expect {
            let experiment = e.id.split('.').next().unwrap_or("");
            assert!(
                EXPERIMENTS.iter().any(|x| x.0 == experiment),
                "{} names no experiment",
                e.id
            );
        }
    }
}
