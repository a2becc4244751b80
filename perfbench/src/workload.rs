//! The three workloads: where their inputs come from, how one pass runs
//! them, and how their outcomes are checked.
//!
//! Every workload's inputs are a committed `bench/out` artifact — the
//! `provenance` scenario list of a cluster experiment, or the `data` rows
//! of the kernel measurement — so the benchmark times exactly what the
//! figure binaries compute, without writing their artifacts.

use cashmere_apps::kmeans::KmeansApp;
use cashmere_apps::matmul::MatmulApp;
use cashmere_apps::nbody::NbodyApp;
use cashmere_apps::raytracer::RaytracerApp;
use cashmere_apps::KernelSet;
use cashmere_bench::scenario::OutputSpec;
use cashmere_bench::{kernel_gflops, run_scenario, sweep, AppId, RunOutcome, Scenario};
use cashmere_des::obs::prof;
use cashmere_hwdesc::DeviceKind;
use serde::Deserialize;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// Table III as the paper reports it (GFLOPS; raytracer, matmul, k-means,
/// n-body — the artifact's row order).
pub const PAPER_TABLE3_GFLOPS: [f64; 4] = [1883.0, 3927.0, 10644.0, 13517.0];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figs. 7–14: 4 apps × 3 series × {1, 2, 4, 8, 16} GTX480 nodes.
    PaperScaling,
    /// Table III / Fig. 15: calibration, heterogeneous and 16-node runs.
    HeteroTable3,
    /// Fig. 6: one `kernel_gflops` call per app × device × kernel set.
    Fig6Kernels,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperScaling,
        Workload::HeteroTable3,
        Workload::Fig6Kernels,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperScaling => "paper-scaling",
            Workload::HeteroTable3 => "hetero-table3",
            Workload::Fig6Kernels => "fig6-kernels",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The committed artifact the inputs and the reference outcomes come
    /// from, relative to the repository root.
    pub fn artifact(self) -> &'static str {
        match self {
            Workload::PaperScaling => "bench/out/fig7_14_scaling.json",
            Workload::HeteroTable3 => "bench/out/table3_fig15_hetero.json",
            Workload::Fig6Kernels => "bench/out/fig6_kernel_performance.json",
        }
    }

    /// Whether set-up time is calibrated by the UTF-8 probe rather than the
    /// event-loop one. The cluster workloads parse 42 and 85 KB artifacts,
    /// and the JSON parser re-validates the rest of its input through
    /// `from_utf8` for every string character, which takes most of their
    /// set-up. The 5 KB kernel artifact parses in a fraction of a
    /// millisecond; `fig6-kernels` set-up is mostly kernel compilation.
    pub fn setup_is_utf8_bound(self) -> bool {
        match self {
            Workload::PaperScaling | Workload::HeteroTable3 => true,
            Workload::Fig6Kernels => false,
        }
    }

    /// Sweep workers. The scaling sweep is the one workload run in
    /// parallel: it is long enough to keep two workers busy, and its
    /// sequential wall time spreads too widely to gate on.
    pub fn jobs(self) -> usize {
        match self {
            Workload::PaperScaling => 2,
            Workload::HeteroTable3 | Workload::Fig6Kernels => 1,
        }
    }
}

// Artifact envelopes (`schema` is ignored; the shim ignores unknown keys).

#[derive(Deserialize)]
struct ScalingArtifact {
    provenance: Vec<Scenario>,
    data: Vec<ScalingRow>,
}

#[derive(Deserialize)]
struct ScalingRow {
    app: String,
    series: String,
    nodes: usize,
    makespan_s: f64,
    gflops: f64,
    steals_ok: u64,
}

#[derive(Deserialize)]
struct HeteroArtifact {
    provenance: Vec<Scenario>,
    data: Vec<HeteroRow>,
}

#[derive(Debug, Clone, Copy, PartialEq, Deserialize)]
pub struct HeteroRow {
    gflops: f64,
    hetero_efficiency: f64,
    homogeneous_efficiency: f64,
}

#[derive(Deserialize)]
struct KernelArtifact {
    data: Vec<KernelRow>,
}

#[derive(Deserialize)]
struct KernelRow {
    app: String,
    device: String,
    unoptimized_gflops: f64,
    optimized_gflops: f64,
}

/// What the points compute, with the outcomes the committed artifact
/// records for them.
enum Points {
    /// One artifact row per scenario.
    Scaling {
        scenarios: Vec<Scenario>,
        rows: Vec<ScalingRow>,
    },
    /// One artifact row per app, derived from several scenarios.
    Hetero {
        scenarios: Vec<Scenario>,
        rows: Vec<HeteroRow>,
    },
    /// One expected GFLOPS per kernel measurement.
    Kernels {
        points: Vec<(AppId, DeviceKind, KernelSet)>,
        expect: Vec<f64>,
    },
}

/// A workload's inputs, ready to run.
pub struct Inputs {
    points: Points,
    /// Seed the artifact was made with. Simulated outcomes are compared
    /// with the artifact only at this seed; at any seed they must repeat
    /// exactly and satisfy the seed-independent invariants.
    reference_seed: u64,
    seed: u64,
}

/// The outcome of one point.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    Run(RunOutcome),
    Gflops(f64),
}

/// Host time of one point, relative to the start of its pass.
pub struct PointTime {
    pub thread: ThreadId,
    pub start: Duration,
    pub end: Duration,
}

impl PointTime {
    pub fn wall(&self) -> Duration {
        self.end - self.start
    }
}

/// One run of every point of a workload.
pub struct Pass {
    pub wall: Duration,
    pub outcomes: Vec<Result<Outcome, String>>,
    pub times: Vec<PointTime>,
}

fn read_artifact<T: Deserialize>(path: &str) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// Validate a provenance list and apply `--seed`. A scenario that asks for
/// any output (trace, report, profile file) is refused: the benchmark
/// writes nothing.
fn prepare(
    path: &str,
    provenance: Vec<Scenario>,
    seed: u64,
) -> Result<(Vec<Scenario>, u64), String> {
    let reference_seed = provenance
        .first()
        .map(|sc| sc.seed)
        .ok_or_else(|| format!("{path}: empty provenance list"))?;
    let mut out = Vec::with_capacity(provenance.len());
    for sc in provenance {
        sc.validate()
            .map_err(|e| format!("{path}: {}: {e}", sc.name))?;
        if sc.seed != reference_seed {
            return Err(format!(
                "{path}: {}: seeds differ within the artifact",
                sc.name
            ));
        }
        if sc.outputs != OutputSpec::default() {
            return Err(format!("{path}: {}: scenario requests outputs", sc.name));
        }
        out.push(sc.with_seed(seed));
    }
    Ok((out, reference_seed))
}

fn load(w: Workload, seed: u64) -> Result<Inputs, String> {
    let path = w.artifact();
    let (points, reference_seed) = match w {
        Workload::PaperScaling => {
            let a: ScalingArtifact = read_artifact(path)?;
            if a.provenance.len() != a.data.len() {
                return Err(format!("{path}: provenance and data lengths differ"));
            }
            let (scenarios, rs) = prepare(path, a.provenance, seed)?;
            let rows = a.data;
            (Points::Scaling { scenarios, rows }, rs)
        }
        Workload::HeteroTable3 => {
            let a: HeteroArtifact = read_artifact(path)?;
            if a.data.len() != AppId::ALL.len() {
                return Err(format!("{path}: expected one row per app"));
            }
            let (scenarios, rs) = prepare(path, a.provenance, seed)?;
            // Every row must be derivable from the scenarios.
            hetero_rows(&scenarios, &vec![None; scenarios.len()])?;
            let rows = a.data;
            (Points::Hetero { scenarios, rows }, rs)
        }
        Workload::Fig6Kernels => {
            let a: KernelArtifact = read_artifact(path)?;
            let mut points = Vec::new();
            let mut expect = Vec::new();
            for row in &a.data {
                let app = AppId::parse(&row.app)
                    .ok_or_else(|| format!("{path}: unknown app `{}`", row.app))?;
                let dev = DeviceKind::ALL
                    .into_iter()
                    .find(|d| d.level_name() == row.device)
                    .ok_or_else(|| format!("{path}: unknown device `{}`", row.device))?;
                points.push((app, dev, KernelSet::Unoptimized));
                expect.push(row.unoptimized_gflops);
                points.push((app, dev, KernelSet::Optimized));
                expect.push(row.optimized_gflops);
            }
            // Kernel measurements take no seed.
            (Points::Kernels { points, expect }, seed)
        }
    };
    Ok(Inputs {
        points,
        reference_seed,
        seed,
    })
}

/// Everything a user of the figure binaries waits for before the first
/// point runs: loading and validating the inputs, the standard hardware
/// hierarchy, and compiling each app's two kernel registries once.
pub fn setup(w: Workload, seed: u64) -> Result<Inputs, String> {
    let _span = prof::scope("perfbench::setup");
    let inputs = load(w, seed)?;
    {
        let _span = prof::scope("perfbench::hierarchy");
        black_box(cashmere_hwdesc::standard_hierarchy());
    }
    {
        let _span = prof::scope("perfbench::registry");
        for set in [KernelSet::Unoptimized, KernelSet::Optimized] {
            black_box(RaytracerApp::registry(set));
            black_box(MatmulApp::registry(set));
            black_box(KmeansApp::registry(set));
            black_box(NbodyApp::registry(set));
        }
    }
    Ok(inputs)
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    match p.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => match p.downcast::<&str>() {
            Ok(s) => s.to_string(),
            Err(_) => "panic".to_string(),
        },
    }
}

impl Inputs {
    pub fn len(&self) -> usize {
        match &self.points {
            Points::Scaling { scenarios, .. } | Points::Hetero { scenarios, .. } => scenarios.len(),
            Points::Kernels { points, .. } => points.len(),
        }
    }

    fn at_reference_seed(&self) -> bool {
        self.seed == self.reference_seed
    }

    fn run_point(&self, i: usize) -> Result<Outcome, String> {
        match &self.points {
            Points::Scaling { scenarios, .. } | Points::Hetero { scenarios, .. } => {
                Ok(Outcome::Run(run_scenario(&scenarios[i]).outcome))
            }
            Points::Kernels { points, .. } => {
                let (app, dev, set) = points[i];
                kernel_gflops(app, set, dev)
                    .map(Outcome::Gflops)
                    .ok_or_else(|| {
                        format!(
                            "{} {set:?} on {}: no measurement",
                            app.name(),
                            dev.level_name()
                        )
                    })
            }
        }
    }

    /// Run every point once over `jobs` sweep workers, timing each point.
    pub fn run_pass(&self, jobs: usize) -> Pass {
        let t0 = Instant::now();
        let results = sweep((0..self.len()).collect(), jobs, |i| {
            let _span = prof::scope("perfbench::point");
            let start = t0.elapsed();
            let out = catch_unwind(AssertUnwindSafe(|| self.run_point(i)))
                .map_err(panic_message)
                .and_then(|r| r);
            let end = t0.elapsed();
            let thread = std::thread::current().id();
            (out, PointTime { thread, start, end })
        });
        let wall = t0.elapsed();
        let (outcomes, times) = results.into_iter().unzip();
        Pass {
            wall,
            outcomes,
            times,
        }
    }

    /// Per point: is its outcome wrong? A point is wrong when it panicked,
    /// broke an invariant that holds at any seed, or — at the artifact's
    /// seed — differs from the committed artifact.
    pub fn check(&self, outcomes: &[Result<Outcome, String>]) -> Vec<bool> {
        let mut bad: Vec<bool> = outcomes.iter().map(|o| o.is_err()).collect();
        let runs = runs(outcomes);
        match &self.points {
            Points::Scaling { rows, .. } => {
                for (i, (r, row)) in runs.iter().zip(rows).enumerate() {
                    let Some(r) = r else { continue };
                    // The problem, and so its flop count, does not depend
                    // on the seed.
                    let same_work = rel_eq(r.gflops * r.makespan_s, row.gflops * row.makespan_s);
                    let same_point =
                        r.app == row.app && r.series == row.series && r.nodes == row.nodes;
                    let same_outcome = r.makespan_s == row.makespan_s
                        && r.gflops == row.gflops
                        && r.steals_ok == row.steals_ok;
                    if !same_work || !same_point || (self.at_reference_seed() && !same_outcome) {
                        bad[i] = true;
                    }
                }
            }
            Points::Hetero {
                scenarios: scs,
                rows: expect,
            } => {
                let got = hetero_rows(scs, &runs).unwrap_or_default();
                for (app_idx, app) in AppId::ALL.into_iter().enumerate() {
                    let row_ok = match got.get(app_idx).copied().flatten() {
                        Some(row) if self.at_reference_seed() => row == expect[app_idx],
                        Some(row) => {
                            let sane = |e: f64| e > 0.0 && e <= 1.1;
                            row.gflops > 0.0
                                && sane(row.hetero_efficiency)
                                && sane(row.homogeneous_efficiency)
                        }
                        None => false,
                    };
                    // The app's runs all solve one problem: equal flops.
                    let app_runs: Vec<usize> =
                        (0..scs.len()).filter(|&i| scs[i].app == app).collect();
                    let work = |i: usize| runs[i].map(|r| r.gflops * r.makespan_s);
                    let same_work = app_runs
                        .iter()
                        .all(|&i| matches!((work(i), work(app_runs[0])), (Some(a), Some(b)) if rel_eq(a, b)));
                    if !row_ok || !same_work {
                        for i in app_runs {
                            bad[i] = true;
                        }
                    }
                }
            }
            Points::Kernels { expect, .. } => {
                for (i, (o, e)) in outcomes.iter().zip(expect).enumerate() {
                    if !matches!(o, Ok(Outcome::Gflops(g)) if g == e) {
                        bad[i] = true;
                    }
                }
            }
        }
        bad
    }

    /// Simulated Table III GFLOPS, when this is the heterogeneous workload
    /// and every run succeeded.
    pub fn table3_gflops(&self, outcomes: &[Result<Outcome, String>]) -> Option<Vec<f64>> {
        let Points::Hetero { scenarios: scs, .. } = &self.points else {
            return None;
        };
        let runs = runs(outcomes);
        hetero_rows(scs, &runs)
            .ok()?
            .into_iter()
            .map(|r| r.map(|r| r.gflops))
            .collect()
    }
}

/// Each point's cluster-run outcome; `None` where the point failed or
/// measured a kernel.
pub fn runs(outcomes: &[Result<Outcome, String>]) -> Vec<Option<&RunOutcome>> {
    outcomes
        .iter()
        .map(|o| match o {
            Ok(Outcome::Run(r)) => Some(r),
            _ => None,
        })
        .collect()
}

fn rel_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}

/// Table III / Fig. 15 rows, computed exactly as the `hetero` binary does:
/// heterogeneous efficiency against the summed single-node GFLOPS of every
/// node, homogeneous efficiency as 16-node over 16 × 1-node GFLOPS. A row
/// is `None` when one of its runs has no outcome; `Err` when the scenario
/// list lacks a run a row needs.
fn hetero_rows(
    scs: &[Scenario],
    runs: &[Option<&RunOutcome>],
) -> Result<Vec<Option<HeteroRow>>, String> {
    let find = |app: AppId, pred: &dyn Fn(&Scenario) -> bool| {
        scs.iter()
            .position(|sc| sc.app == app && pred(sc))
            .ok_or_else(|| format!("no {} run for a Table III row", app.token()))
    };
    let mut rows = Vec::new();
    for app in AppId::ALL {
        let hetero = find(app, &|sc| sc.name.ends_with("-hetero"))?;
        let homo16 = find(app, &|sc| sc.name.ends_with("-16n"))?;
        let homo1 = find(app, &|sc| sc.name.ends_with("-1n"))?;
        let singles = scs[hetero]
            .nodes
            .iter()
            .map(|devs| {
                find(app, &|sc| {
                    sc.name.contains("-single-") && sc.nodes == [devs.clone()]
                })
            })
            .collect::<Result<Vec<usize>, String>>()?;
        let gflops = |i: usize| runs[i].map(|r| r.gflops);
        let row = (|| {
            let attainable: f64 = singles.iter().map(|&i| gflops(i)).sum::<Option<f64>>()?;
            let g = gflops(hetero)?;
            Some(HeteroRow {
                gflops: g,
                hetero_efficiency: g / attainable,
                homogeneous_efficiency: gflops(homo16)? / (16.0 * gflops(homo1)?),
            })
        })();
        rows.push(row);
    }
    Ok(rows)
}

/// FNV-1a over every point's outcome: equal digests mean bit-identical
/// simulated results.
pub fn digest(outcomes: &[Result<Outcome, String>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for o in outcomes {
        match o {
            Ok(Outcome::Run(r)) => eat(serde_json::to_string(r)
                .expect("outcomes serialize")
                .as_bytes()),
            Ok(Outcome::Gflops(g)) => eat(&g.to_bits().to_le_bytes()),
            Err(e) => eat(e.as_bytes()),
        }
        eat(b";");
    }
    h
}
