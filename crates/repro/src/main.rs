//! `repro`: the paper's evaluation (see the `caai_repro` library).

fn main() -> std::process::ExitCode {
    caai_repro::cli(std::env::args().skip(1).collect())
}
