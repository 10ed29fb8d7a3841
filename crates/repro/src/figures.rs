//! The paper's figures, except Fig. 12 (a cross-validation sweep, in
//! `learning`).

use crate::plot::{ascii_chart, cdf_rows, table};
use crate::{Output, Scale};
use caai_congestion::{AlgorithmId, ALL_IDENTIFIED};
use caai_core::features::extract;
use caai_core::prober::{Prober, ProberConfig};
use caai_core::server_under_test::ServerUnderTest;
use caai_core::special::{detect, SpecialCase};
use caai_core::trace::{InvalidReason, WindowTrace};
use caai_netem::rng::seeded;
use caai_netem::EnvironmentId::{self, A, B};
use caai_netem::{Cdf, ConditionDb, NetworkCondition, PathConfig, Phase, RttSchedule};
use caai_tcpsim::{SenderQuirk, ServerConfig};
use caai_webmodel::http::{RequestAcceptanceModel, CAAI_PIPELINE_DEPTH};
use caai_webmodel::PageModel;

/// One clean-path connection to `server` in `env` at `w_max = wmax`, its
/// random draws seeded by `seed`: the trace behind Figs. 3, 5, 8 and 13–17.
fn trace(server: ServerUnderTest, env: EnvironmentId, wmax: u32, seed: u64) -> WindowTrace {
    let (prober, mut rng) = (Prober::new(ProberConfig::fixed_wmax(wmax)), seeded(seed));
    let (t, _) = prober.gather_trace(&server, env, wmax, 0.0, &PathConfig::clean(), &mut rng);
    t
}

/// A window trace as the figures plot it: the pre-timeout windows, a 0 for
/// the emulated timeout, then the recovery windows.
fn window_series(t: &WindowTrace) -> Vec<f64> {
    let pre = t.pre.iter().map(|&w| f64::from(w));
    pre.chain([0.0])
        .chain(t.post.iter().map(|&w| f64::from(w)))
        .collect()
}

/// Figs. 4, 10 and 11: the CDF of one field of 5,000 conditions drawn from
/// the §VII-A database, as a chart and as `rows` rows. Returns the output,
/// which holds the median, and the CDF.
fn condition_cdf(
    (title, seed): (&str, u64),
    field: fn(&NetworkCondition) -> f64,
    (curve, rows, x_label): (&str, usize, &str),
) -> (Output, Cdf) {
    let db = ConditionDb::paper_2011();
    let mut rng = seeded(seed);
    let cdf = Cdf::from_samples((0..5000).map(|_| field(&db.sample(&mut rng))).collect());
    let series: Vec<f64> = cdf.series(60).into_iter().map(|(_, p)| p).collect();
    let mut o = Output::default();
    o.line(format!("== {title} ==\n"));
    o.line(ascii_chart(&[(curve, series)], 12));
    o.line(cdf_rows(&cdf.series(rows), x_label));
    o.num("median", cdf.quantile(0.5));
    (o, cdf)
}

/// Fig. 1: the components of TCP congestion control, and which of them
/// CAAI identifies: the taxonomy as `caai-tcpsim` implements it.
pub fn fig01_components(_: Scale) -> Output {
    let names: Vec<&str> = ALL_IDENTIFIED.iter().map(|a| a.name()).collect();
    let mut o = Output::default();
    o.line("== Fig. 1: TCP congestion control components ==\n");
    o.line("initial window size   : 1, 2 (RFC 2581), 3, 4 (RFC 3390), 10 packets");
    o.line("                        [emulated by caai-tcpsim; CAAI is insensitive to it, §V-A]");
    o.line("slow start            : standard (RFC 2581), limited (RFC 3742), hybrid (HyStart)");
    o.line("                        [emulated by caai-tcpsim; not identified — §II: \"very few");
    o.line("                         slow start algorithms have been implemented\"]");
    o.line(format!("congestion avoidance  : {}", names.join(", ")));
    o.line("                        [THE component CAAI identifies — this repository]");
    o.line("loss recovery         : Reno, NewReno, SACK, DSACK");
    o.line("                        [identified by TBIT, not CAAI; caai-tcpsim emulates the");
    o.line("                         timeout path CAAI relies on, plus F-RTO]");
    o.line("\nscope: \"when we say that a TCP algorithm is CUBIC, it means that the");
    o.line("congestion avoidance component of the TCP congestion control algorithm is");
    let n = names.len();
    o.line(format!(
        "CUBIC\" (§II). CAAI fingerprints {n} congestion avoidance algorithms."
    ));
    o.num("algorithms", n as f64);
    o
}

/// Fig. 2: the RTT schedules of the two emulated network environments.
/// Reports how many of the printed rounds environment B runs at its short
/// RTT, before and after the timeout.
pub fn fig02_env_schedules(_: Scale) -> Output {
    let (a, b) = (RttSchedule::new(A), RttSchedule::new(B));
    let mut o = Output::default();
    o.line("== Fig. 2: RTTs of the emulated network environments A and B ==\n");
    for (phase, label, rounds) in [
        (Phase::BeforeTimeout, "(a) before timeout", 6u32),
        (Phase::AfterTimeout, "(b) after timeout", 15u32),
    ] {
        let mut header = vec!["round".to_owned()];
        header.extend((1..=rounds).map(|r| r.to_string()));
        let rows = [a, b].map(|s| {
            let mut row = vec![format!("env {} RTT (s)", s.environment())];
            row.extend((1..=rounds).map(|r| format!("{:.1}", s.rtt(phase, r))));
            row
        });
        o.line(label);
        o.line(table(&header, &rows));
        let short = (1..=rounds).filter(|&r| b.rtt(phase, r) < a.rtt(phase, r));
        o.num(&format!("b_short_rounds_{phase:?}"), short.count() as f64);
    }
    o.line(
        "environment B's pre-timeout step (round 4) exposes RTT-dependent \
         decreases (ILLINOIS, VENO); its post-timeout step (round 13) exposes \
         RTT-dependent growth (CTCP_v2, YEAH). §IV-B",
    );
    o
}

/// Fig. 3: window traces of all 14 algorithms in environments A and B on a
/// clean path at `w_max = 512`, plus panel (o): RENO, CTCP v1 and CTCP v2
/// at `w_max = 64`, the RC-small merge. Reports whether panel (o)'s three
/// traces are identical.
pub fn fig03_traces(_: Scale) -> Output {
    let series =
        |algo, env, wmax| window_series(&trace(ServerUnderTest::ideal(algo), env, wmax, 0xF163));
    let mut o = Output::default();
    o.line("== Fig. 3: window traces, environments A and B, wmax=512, clean path ==");
    o.line("(x: emulated round; the dip to 0 marks the emulated timeout)\n");
    for (panel, &algo) in ('a'..).zip(ALL_IDENTIFIED.iter()) {
        let (a, b) = (series(algo, A, 512), series(algo, B, 512));
        o.line(format!("({panel}) {algo}"));
        o.line(ascii_chart(&[("env A", a), ("env B", b)], 12));
    }
    o.line("(o) RENO vs CTCP_v1 vs CTCP_v2 at wmax=64: the RC-small merge");
    let merged = [AlgorithmId::Reno, AlgorithmId::CtcpV1, AlgorithmId::CtcpV2];
    let merged = merged.map(|algo| (algo.name(), series(algo, A, 64)));
    o.line(ascii_chart(&merged, 12));
    o.line(
        "below 41 packets CTCP's delay window is inactive, so the three traces \
         coincide and the classifier merges them into RC-small (§VII-A).",
    );
    let coincide = merged.iter().all(|(_, s)| *s == merged[0].1);
    o.num("rc_small_traces_coincide", u8::from(coincide));
    o
}

/// Fig. 4: CDF of the RTTs of 5,000 web servers (measured 2010, one RTT
/// per server): an emulated RTT of 1.0 s exceeds almost all real paths.
pub fn fig04_rtt_cdf(_: Scale) -> Output {
    let title = ("Fig. 4: CDF of the RTT of 5000 web servers", 4);
    let (mut o, cdf) = condition_cdf(title, |c| c.rtt_mean, ("CDF(rtt)", 16, "RTT (s)"));
    let p08 = cdf.eval(0.8);
    o.line(format!(
        "P(RTT < 0.8 s) = {p08:.3}   (paper: \"almost all actual RTTs are\n\
         less than 0.8 s\", hence the 0.8/1.0 s emulated schedule, §IV-B)"
    ));
    o.num("p_rtt_below_0_8", p08);
    o
}

/// Fig. 5: the packet exchange between CAAI and a web server, as an
/// annotated log of the first rounds of a real probe.
pub fn fig05_packet_exchange(_: Scale) -> Output {
    let mut o = Output::default();
    o.line("== Fig. 5: TCP packets between CAAI and a remote web server ==\n");
    o.line("CAAI                                        Web server");
    o.line("  │ 1. SYN (MSS option 100 B, window scale 14) ─────▶│");
    o.line("  │◀──────────────────────────── 2. SYN/ACK        │");
    o.line("  │    (CAAI defers its reply so the server's      │");
    o.line("  │     first RTT equals the schedule)             │");
    o.line("  │ 3. DATA/ACK (HTTP requests, pipelined) ────────▶│");
    o.line("  │◀──────────────────────────── 4. ACK            │");
    o.line("  │◀──────────────────────────── 5. DATA ...       │");
    o.line("  │ 6. DATA/ACK (deferred to the emulated RTT) ───▶│");
    o.line("  │        ... until the window exceeds w_max ...   │");
    o.line("  │ (silence: the emulated timeout)                 │");
    o.line("  │◀──────────── retransmission after the RTO      │");
    o.line("  │ dup ACK (defeats F-RTO), then cumulative ACKs ─▶│\n");
    o.line("concrete probe of a RENO server (environment A, w_max = 512):");
    let t = trace(ServerUnderTest::ideal(AlgorithmId::Reno), A, 512, 5);
    for (round, w) in (1..).zip(&t.pre) {
        o.line(format!(
            "  round {round:>2}: server sends {w:>3} packets, CAAI sends {w:>3} deferred ACKs"
        ));
    }
    let (w_b, rounds) = (t.pre.last().copied().unwrap_or(0), t.post.len());
    o.line(format!(
        "  window {w_b} > 512: CAAI withholds ACKs → RTO at the server"
    ));
    for (round, w) in (1..).zip(t.post.iter().take(6)) {
        o.line(format!("  recovery round {round:>2}: {w} packet(s)"));
    }
    o.line(format!(
        "  ... {rounds} recovery rounds total (valid trace)"
    ));
    o.num("recovery_rounds", rounds as f64);
    o
}

/// Fig. 6: CDF of the maximum numbers of repeated HTTP requests accepted by
/// web servers.
pub fn fig06_http_requests(_: Scale) -> Output {
    let n = 60_000;
    let mut rng = seeded(6);
    let samples: Vec<u32> = (0..n)
        .map(|_| RequestAcceptanceModel::sample(&mut rng).max_requests)
        .collect();
    let share =
        |keep: &dyn Fn(u32) -> bool| samples.iter().filter(|&&v| keep(v)).count() as f64 / n as f64;
    let points = [1u32, 2, 3, 4, 5, 6, 8, 10, 11, 12].map(|x| (f64::from(x), share(&|v| v <= x)));
    let one = 100.0 * share(&|v| v == 1);
    let three = 100.0 * share(&|v| v <= 3);
    let full = 100.0 * share(&|v| v >= CAAI_PIPELINE_DEPTH);
    let mut o = Output::default();
    o.line("== Fig. 6: CDF of max repeated HTTP requests accepted ==\n");
    o.line(cdf_rows(&points, "max requests"));
    o.line(format!(
        "accept exactly 1 request:  {one:.1}%  (paper: ~47%)\n\
         accept at most 3 requests: {three:.1}%  (paper: ~60%)\n\
         honour CAAI's full 12-deep pipeline: {full:.1}%"
    ));
    o.num("accept_one_pct", one);
    o.num("accept_at_most_3_pct", three);
    o
}

/// Fig. 7: CDF of the sizes of the default web page and of the longest web
/// pages found by CAAI's page-search tool.
pub fn fig07_page_sizes(_: Scale) -> Output {
    let n = 60_000;
    let mut rng = seeded(7);
    let pages: Vec<PageModel> = (0..n).map(|_| PageModel::sample(&mut rng)).collect();
    let share = |keep: &dyn Fn(&PageModel) -> bool| {
        pages.iter().filter(|p| keep(p)).count() as f64 / n as f64
    };
    let sizes = [
        ("1 kB", 1_000u64),
        ("10 kB", 10_000),
        ("50 kB", 50_000),
        ("100 kB", 100_000),
        ("500 kB", 500_000),
        ("1 MB", 1_000_000),
        ("10 MB", 10_000_000),
    ];
    let rows = sizes.map(|(label, x)| {
        let d = share(&|p| p.default_bytes <= x);
        let l = share(&|p| p.longest_bytes <= x);
        vec![label.to_owned(), format!("{d:.3}"), format!("{l:.3}")]
    });
    let d100 = 100.0 * share(&|p| p.default_bytes > 100_000);
    let l100 = 100.0 * share(&|p| p.longest_bytes > 100_000);
    let header = ["size", "CDF(default)", "CDF(longest found)"].map(String::from);
    let mut o = Output::default();
    o.line("== Fig. 7: CDF of default vs longest-found page sizes ==\n");
    o.line(table(&header, &rows));
    o.line(format!(
        "default pages above 100 kB:       {d100:.1}%  (paper: ~12%)\n\
         longest found pages above 100 kB: {l100:.1}%  (paper: ~48%)\n\n\
         the page-search tool (httrack+dig on PlanetLab, §IV-E) is modelled \
         by its outcome distribution; see caai_webmodel::pages."
    ));
    o.num("default_above_100kb_pct", d100);
    o.num("longest_above_100kb_pct", l100);
    o
}

/// Fig. 8: the anatomy of a valid trace: `w_1 … w^B` before the timeout,
/// 18 windows after it, the boundary RTT and the extracted features.
pub fn fig08_valid_trace(_: Scale) -> Output {
    let t = trace(ServerUnderTest::ideal(AlgorithmId::Bic), A, 512, 8);
    let w_1 = t.pre.first().copied().unwrap_or(0);
    let w_b = t.w_before_timeout().unwrap_or(0);
    let f = extract(&t);
    let (beta, g3, g6, loss, post) = (f.beta, f.g3, f.g6, f.ack_loss, t.post.len());
    let mut o = Output::default();
    o.line("== Fig. 8: a valid trace of window sizes (BIC server, env A) ==\n");
    o.line(ascii_chart(&[("window (packets)", window_series(&t))], 14));
    o.line(format!(
        "w_1 (initial window)      : {w_1}\n\
         w^B (right before timeout): {w_b}\n\
         post-timeout rounds       : {post} (valid: ≥ 18)"
    ));
    match f.boundary {
        Some(b) => o.line(format!(
            "boundary RTT b            : post round {} (w_b = {})\n\
             beta  = w_b / w^B         : {beta:.3}  (BIC: ≈0.8)\n\
             G3    = w_(b+3) - w_b     : {g3}\n\
             G6    = w_(b+6) - w_b     : {g6}",
            b + 1,
            t.post[b]
        )),
        None => o.line("no boundary found (beta = 0)"),
    }
    o.line(format!(
        "ACK-loss estimate L       : {loss:.2} (clean path clamps to the 15% floor)"
    ));
    o.num("valid", u8::from(t.is_valid()));
    o.num("beta", beta);
    o
}

/// Fig. 9: the lab testbed that collects the training set, mapped onto
/// the crates that replace each box, and the host behind each class.
pub fn fig09_testbed(_: Scale) -> Output {
    let mut o = Output::default();
    o.line("== Fig. 9: lab testbed (paper hardware -> reproduction crates) ==\n");
    o.line("  [CAAI computer]----[Linux router + Netem]----[Linux web server, Apache ]");
    o.line("        |                                  \\---[Windows web server, IIS  ]\n");
    o.line("  CAAI computer      -> caai-core::prober (ACK scheduling = the emulation)");
    o.line("  Linux router+Netem -> caai-netem::PathConfig (loss/RTT-jitter/dup/reorder)");
    o.line("  Apache on Linux    -> caai-tcpsim::Server with Linux-family algorithms");
    o.line("  IIS on Windows     -> caai-tcpsim::Server with CTCP_v1 (2003) / CTCP_v2 (2008)\n");
    let rows: Vec<Vec<String>> = ALL_IDENTIFIED
        .iter()
        .map(|&algo| {
            let host = match algo {
                AlgorithmId::CtcpV1 => "IIS / Windows Server 2003 (dual boot)",
                AlgorithmId::CtcpV2 => "IIS / Windows Server 2008 (dual boot)",
                AlgorithmId::CubicV1 => "Apache / Linux kernel 2.6.25",
                _ => "Apache / openSUSE 11.1, Linux kernel 2.6.27",
            };
            let families: Vec<String> =
                algo.os_families().iter().map(ToString::to_string).collect();
            vec![algo.to_string(), families.join("/"), host.to_owned()]
        })
        .collect();
    let header = ["training class source", "OS family", "paper testbed host"].map(String::from);
    o.line(table(&header, &rows));
    o.line("\nnote (§VII-A): RENO's training vectors come from Linux only — the paper");
    o.line("verified Linux RENO and Windows RENO produce very similar feature vectors.");
    o.num("classes", rows.len() as f64);
    o
}

/// Fig. 10: CDF of the RTT standard deviations of the network-condition
/// database (§VII-A).
pub fn fig10_rtt_std_cdf(_: Scale) -> Output {
    let title = ("Fig. 10: CDF of the measured RTT standard deviations", 10);
    let (mut o, _) = condition_cdf(title, |c| c.rtt_std, ("CDF(rtt std)", 14, "RTT std (s)"));
    o.line(
        "training conditions draw their Netem jitter from this distribution \
         (§VII-A); the emulated-RTT slack absorbs nearly all of it.",
    );
    o
}

/// Fig. 11: CDF of the packet-loss rates of the network-condition database
/// (§VII-A).
pub fn fig11_loss_cdf(_: Scale) -> Output {
    let title = ("Fig. 11: CDF of the measured packet-loss rates", 11);
    let (mut o, _) = condition_cdf(title, |c| c.loss_rate, ("CDF(loss)", 14, "loss rate"));
    o.line(
        "ACK loss drawn from this distribution is what the boundary-RTT \
         detector's equation (1) must absorb (§V-A).",
    );
    o
}

/// Figs. 13–18: the invalid and special-case traces of §VII-B, from servers
/// with the matching quirks. Each figure reports 1 when its trace shows the
/// case it illustrates and 0 when not.
pub fn fig13_18_special_traces(_: Scale) -> Output {
    let probe = |quirk, wmax| {
        let config = ServerConfig::ideal().with_quirk(quirk);
        let server = ServerUnderTest::ideal_with_config(AlgorithmId::Reno, config);
        trace(server, A, wmax, 13)
    };
    // A trace that never timed out is drawn without the timeout's 0.
    let chart = |t: &WindowTrace| {
        let mut xs = window_series(t);
        if t.post.is_empty() {
            xs.pop();
        }
        ascii_chart(&[("window", xs)], 10)
    };
    let mut o = Output::default();
    o.line("== Figs. 13-18: invalid and special-case traces (§VII-B) ==\n");
    o.line("Fig. 13: invalid trace without any timeout (window ceiling below w_max)");
    let t = probe(SenderQuirk::BoundedBuffer { clamp: 200 }, 512);
    let no_timeout = t.invalid == Some(InvalidReason::NeverExceededThreshold);
    o.num("fig13", u8::from(no_timeout));
    o.line(chart(&t));

    let bounded = SenderQuirk::BufferBoundedRecovery {
        percent_of_wmax: 125,
    };
    let figures = [
        (14, "Remaining at 1 Packet", SenderQuirk::RemainAtOne),
        (15, "Nonincreasing Window", SenderQuirk::NonIncreasing),
        (16, "Approaching w^B", SenderQuirk::ApproachPreTimeoutMax),
        (17, "Bounded Window", bounded),
    ];
    for ((fig, title, quirk), case) in figures.into_iter().zip(SpecialCase::ALL) {
        o.line(format!("Fig. {fig}: valid trace, \"{title}\""));
        let t = probe(quirk, 128);
        o.num(&format!("fig{fig}"), u8::from(detect(&t) == Some(case)));
        o.line(chart(&t));
    }

    o.line("Fig. 18: valid trace, \"Unsure TCP\" (noisy path, split forest votes)");
    let path = PathConfig {
        data_dup: 0.01,
        late_prob: 0.1,
        ..PathConfig::lossy(0.12)
    };
    let server = ServerUnderTest::ideal(AlgorithmId::Htcp);
    let prober = Prober::new(ProberConfig::fixed_wmax(128));
    let (t, _) = prober.gather_trace(&server, A, 128, 0.0, &path, &mut seeded(18));
    let valid = t.is_valid();
    o.line(format!(
        "valid: {valid} (heavy loss makes every round ragged)"
    ));
    o.line(chart(&t));
    o.num("fig18_valid", u8::from(valid));
    o
}
