//! # perfbench — the repository benchmark
//!
//! Host time the simulator takes to reproduce the paper's evaluation:
//! Figs. 7–14 (`paper-scaling`), Table III / Fig. 15 (`hetero-table3`) and
//! Fig. 6 (`fig6-kernels`). Run from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-scaling --seed 42 --seconds 20 --trace 0
//! ```
//!
//! A run sets up, then repeats whole passes over the workload's points for
//! `--seconds`, and prints report lines followed by one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, measured untraced and calibrated by a
//! host-speed probe (see `host`); with `--trace 1` the run alternates
//! untraced and traced passes and reports the per-layer ones. See
//! `perfbench/README.md` for what each metric means and which workload
//! should move it.

mod host;
mod layers;
mod workload;

use cashmere_des::obs::prof;
use std::collections::BTreeSet;
use std::time::Instant;
use workload::{digest, setup, Inputs, Pass, Workload, PAPER_TABLE3_GFLOPS};

const USAGE: &str = "usage: perfbench --workload <paper-scaling|hetero-table3|fig6-kernels> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Set-ups before each untraced pass. `setup_s` is the median over the
/// run's passes of the fastest of these, so its samples spread over the
/// whole run like the passes, and a burst of other tenants' load that
/// slows some set-ups of a round does not move it.
const SETUPS_PER_PASS: usize = 3;

/// The tail percentile is the highest one with this many samples beyond it.
const TAIL_BEYOND: usize = 10;

/// One named measurement with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().ok().filter(|&s| s > 0).ok_or_else(bad)?),
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Correctness over every pass of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    digests: BTreeSet<u64>,
}

impl Tally {
    fn add(&mut self, inputs: &Inputs, pass: &Pass) {
        let bad = inputs.check(&pass.outcomes);
        for e in pass.outcomes.iter().filter_map(|o| o.as_ref().err()) {
            eprintln!("perfbench: point failed: {e}");
        }
        let wrong = pass
            .outcomes
            .iter()
            .zip(&bad)
            .find(|(o, &b)| b && o.is_ok());
        if let (Some((o, _)), 0) = (wrong, self.failed) {
            eprintln!("perfbench: outcome differs from the reference: {o:?}");
        }
        self.attempted += bad.len() as u64;
        self.failed += bad.iter().filter(|&&b| b).count() as u64;
        self.digests.insert(digest(&pass.outcomes));
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.digests.len() == 1
    }
}

/// Median of `v` (mean of the middle two for an even count).
fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Smallest of `v`: the repetition other tenants of the host disturbed
/// least.
fn fastest(v: Vec<f64>) -> f64 {
    v.into_iter().fold(f64::INFINITY, f64::min)
}

/// Element-wise median of metric lists that all name the same metrics in
/// the same order.
fn median_metrics(runs: Vec<Vec<Metric>>) -> Vec<Metric> {
    let first = runs.first().expect("at least one pass");
    (0..first.len())
        .map(|k| {
            let m = &first[k];
            Metric::new(
                m.name,
                median(runs.iter().map(|r| r[k].value).collect()),
                m.unit,
            )
        })
        .collect()
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Result of one run: report lines, then the JSON line.
struct Report {
    lines: Vec<String>,
    tally: Tally,
    metrics: Vec<Metric>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.correct(),
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

/// `--trace 0`: end-to-end metrics from untraced set-ups and passes.
fn untraced(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    // One untimed, sequential warm-up pass fills caches and lazy state
    // before timing, and alone sets `peak_rss_mb`, the peak of a
    // sequential run: at two workers the high-water mark depends on which
    // points happen to run at the same time, and spreads 0.15-0.23 between
    // runs. The end-of-run peak, which covers the parallel passes, is a
    // report line.
    let warm_inputs = setup(w, args.seed)?;
    let warm = warm_inputs.run_pass(1);
    let peak_sequential = peak_rss_mb()?;

    // Probe the host's speed before every round of set-ups and its pass;
    // the run's times are calibrated by the median probe.
    let jobs = w.jobs();
    let window = Instant::now();
    let mut setups = Vec::new();
    let mut passes = Vec::new();
    let mut probes = Vec::new();
    let mut inputs = None;
    while passes.is_empty() || window.elapsed().as_secs() < args.seconds {
        probes.push(host::probe());
        let mut round = Vec::new();
        for _ in 0..SETUPS_PER_PASS {
            let t0 = Instant::now();
            inputs = Some(setup(w, args.seed)?);
            round.push(t0.elapsed().as_secs_f64());
        }
        setups.push(fastest(round));
        passes.push(inputs.as_ref().expect("set up above").run_pass(jobs));
    }
    let inputs = inputs.expect("at least one set-up");
    let peak_rss_end_mb = peak_rss_mb()?;
    let probe = host::Probe::median(&probes);
    let setup_scale = if w.setup_is_utf8_bound() {
        probe.utf8_scale()
    } else {
        probe.events_scale()
    };
    let pass_scale = probe.events_scale();

    let mut tally = Tally::default();
    for p in std::iter::once(&warm).chain(&passes) {
        tally.add(&inputs, p);
    }
    // Pass and point times are minima over the run's passes. Other
    // tenants only ever slow a pass down, in bursts of seconds that a probe
    // between passes does not see; the fastest pass is the one they
    // disturbed least. The per-point distribution then has one sample per
    // point whatever the pass count.
    let mut point_ms: Vec<f64> = (0..inputs.len())
        .map(|i| {
            pass_scale
                * fastest(
                    passes
                        .iter()
                        .map(|p| p.times[i].wall().as_secs_f64() * 1e3)
                        .collect(),
                )
        })
        .collect();
    point_ms.sort_by(f64::total_cmp);
    let n = point_ms.len();
    if n <= TAIL_BEYOND {
        return Err(format!("{n} points are too few for a tail percentile"));
    }
    let tail = point_ms[n - TAIL_BEYOND - 1];
    let raw_wall_s = fastest(passes.iter().map(|p| p.wall.as_secs_f64()).collect());
    let raw_setup_s = median(setups);

    let mut lines = vec![
        format!(
            "point_ms_tail is p{:.1} of {n} points ({TAIL_BEYOND} beyond it); each point the fastest of {} passes",
            100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
            passes.len()
        ),
        format!(
            "failed_frac {:?} ({} of {} points)",
            tally.failed as f64 / tally.attempted as f64,
            tally.failed,
            tally.attempted
        ),
        format!(
            "peak_rss_end_mb {peak_rss_end_mb:?} MiB (VmHWM at the end of the run, {jobs} sweep workers)"
        ),
        format!(
            "host probe (median of {}): events {:?} s, utf8 {:?} s",
            probes.len(),
            probe.events_s,
            probe.utf8_s
        ),
        format!("uncalibrated host time: wall_s {raw_wall_s:?} s, setup_s {raw_setup_s:?} s"),
    ];
    if let Some(got) = inputs.table3_gflops(&passes[0].outcomes) {
        let err = got
            .iter()
            .zip(PAPER_TABLE3_GFLOPS)
            .map(|(g, p)| (g - p).abs() / p)
            .sum::<f64>()
            / got.len() as f64;
        lines.push(format!(
            "table3_gflops_err {err:.4} ratio (simulated vs paper Table III)"
        ));
    }
    Ok(Report {
        lines,
        tally,
        metrics: vec![
            Metric::new("wall_s", raw_wall_s * pass_scale, "s"),
            Metric::new("setup_s", raw_setup_s * setup_scale, "s"),
            Metric::new("point_ms_p50", median(point_ms), "ms"),
            Metric::new("point_ms_tail", tail, "ms"),
            Metric::new("peak_rss_mb", peak_sequential, "MiB"),
        ],
    })
}

/// `--trace 1`: per-layer metrics. Untraced and traced passes alternate;
/// each traced pass repeats the set-up with the profiler on, so set-up
/// layers are attributed too. Both kinds must produce the same outcome
/// digest (the profiler observes, never perturbs).
fn traced(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let inputs = setup(w, args.seed)?;
    prof::take();
    let window = Instant::now();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    while traced.is_empty() || window.elapsed().as_secs() < args.seconds {
        plain.push(inputs.run_pass(w.jobs()));
        prof::set_enabled(true);
        let t_inputs = setup(w, args.seed);
        let pass = t_inputs.as_ref().map(|i| i.run_pass(w.jobs()));
        prof::set_enabled(false);
        let tree = prof::take();
        traced.push((pass?, tree));
    }

    let mut tally = Tally::default();
    for p in plain.iter().chain(traced.iter().map(|(p, _)| p)) {
        tally.add(&inputs, p);
    }
    let plain_wall = fastest(plain.iter().map(|p| p.wall.as_secs_f64()).collect());
    let traced_wall = fastest(traced.iter().map(|(p, _)| p.wall.as_secs_f64()).collect());

    let mut metrics = median_metrics(
        plain
            .iter()
            .map(|p| layers::sweep_metrics(p, w.jobs()))
            .collect(),
    );
    metrics.extend(median_metrics(
        traced
            .iter()
            .map(|(p, tree)| layers::traced_metrics(tree, p))
            .collect(),
    ));
    metrics.push(Metric::new(
        "prof.overhead",
        traced_wall / plain_wall - 1.0,
        "ratio",
    ));
    let lines = vec![format!(
        "{} untraced and {} traced passes; outcome digests {}",
        plain.len(),
        traced.len(),
        if tally.digests.len() == 1 {
            "equal (observer purity holds)"
        } else {
            "DIFFER"
        }
    )];
    Ok(Report {
        lines,
        tally,
        metrics,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not finite", m.name);
        std::process::exit(1);
    }
    println!(
        "perfbench {} seed {} jobs {} trace {}",
        args.workload.name(),
        args.seed,
        args.workload.jobs(),
        u8::from(args.trace)
    );
    for d in &report.tally.digests {
        println!(
            "digest {} seed {} {d:016x}",
            args.workload.name(),
            args.seed
        );
    }
    for line in &report.lines {
        println!("{line}");
    }
    for m in &report.metrics {
        println!("metric {} {:?} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.json());
}
