//! Shared experiment vocabulary: applications, measurement series, run
//! outcomes, what each application contributes to a run (`BenchApp`),
//! and the Fig. 6 kernel-only measurement.
//!
//! Cluster execution lives in [`crate::scenario`]: every bench bin builds
//! [`crate::scenario::Scenario`] values and hands them to
//! [`crate::scenario::run_scenario`].
//!
//! Grain choices (node-level jobs ≈ 1024, device jobs = 8 per leaf, Satin
//! leaves 8× finer) mirror the paper's setup: "Satin has more overhead in
//! job creation because it needs to create 8 times more jobs to keep one
//! node busy" (Sec. V-B).

use crate::scenario::Problem;
use cashmere::{CashmereApp, KernelCall, KernelRegistry};
use cashmere_apps::kmeans::{self, Centroids, KmeansApp, KmeansProblem};
use cashmere_apps::matmul::{MatJob, MatmulApp, MatmulProblem};
use cashmere_apps::nbody::{self, NbodyApp, NbodyProblem};
use cashmere_apps::raytracer::{RaytracerApp, RaytracerProblem};
use cashmere_apps::{AppMode, KernelSet};
use cashmere_devsim::{ExecMode, SimDevice};
use cashmere_hwdesc::DeviceKind;
use cashmere_mcl::Sampling;
use cashmere_satin::{ClusterSim, LeafRuntime};
use serde::{Deserialize, Serialize};

/// The four applications (Table II order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppId {
    Raytracer,
    Matmul,
    Kmeans,
    Nbody,
}

// Hand-written so the JSON form is the stable CLI token (`raytracer`,
// `matmul`, `kmeans`, `nbody`), with the paper's display spellings
// (`k-means`, `n-body`) accepted on input via [`AppId::parse`].
impl Serialize for AppId {
    fn to_content(&self) -> serde::Content {
        serde::Content::Str(self.token().to_string())
    }
}

impl Deserialize for AppId {
    fn from_content(content: &serde::Content) -> Result<AppId, serde::DeError> {
        match content.as_str() {
            Some(s) => AppId::parse(s).ok_or_else(|| serde::DeError::unknown_variant(s, "AppId")),
            None => Err(serde::DeError::expected("string", "AppId", content)),
        }
    }
}

impl AppId {
    pub const ALL: [AppId; 4] = [AppId::Raytracer, AppId::Matmul, AppId::Kmeans, AppId::Nbody];

    pub fn name(self) -> &'static str {
        match self {
            AppId::Raytracer => "raytracer",
            AppId::Matmul => "matmul",
            AppId::Kmeans => "k-means",
            AppId::Nbody => "n-body",
        }
    }

    /// The undashed CLI/JSON token (`kmeans` where [`AppId::name`] says
    /// `k-means`).
    pub fn token(self) -> &'static str {
        match self {
            AppId::Raytracer => "raytracer",
            AppId::Matmul => "matmul",
            AppId::Kmeans => "kmeans",
            AppId::Nbody => "nbody",
        }
    }

    pub fn parse(s: &str) -> Option<AppId> {
        match s.to_ascii_lowercase().as_str() {
            "raytracer" | "rt" => Some(AppId::Raytracer),
            "matmul" | "mm" => Some(AppId::Matmul),
            "kmeans" | "k-means" | "km" => Some(AppId::Kmeans),
            "nbody" | "n-body" | "nb" => Some(AppId::Nbody),
            _ => None,
        }
    }
}

/// The paper's three measurement series (Sec. IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Series {
    Satin,
    CashmereUnopt,
    CashmereOpt,
}

// Hand-written: the JSON form is [`Series::name`] (`satin`,
// `cashmere-unopt`, `cashmere-opt`).
impl Serialize for Series {
    fn to_content(&self) -> serde::Content {
        serde::Content::Str(self.name().to_string())
    }
}

impl Deserialize for Series {
    fn from_content(content: &serde::Content) -> Result<Series, serde::DeError> {
        match content.as_str() {
            Some(s) => Series::parse(s).ok_or_else(|| serde::DeError::unknown_variant(s, "Series")),
            None => Err(serde::DeError::expected("string", "Series", content)),
        }
    }
}

impl Series {
    pub const ALL: [Series; 3] = [Series::Satin, Series::CashmereUnopt, Series::CashmereOpt];

    pub fn name(self) -> &'static str {
        match self {
            Series::Satin => "satin",
            Series::CashmereUnopt => "cashmere-unopt",
            Series::CashmereOpt => "cashmere-opt",
        }
    }

    pub fn parse(s: &str) -> Option<Series> {
        Series::ALL.into_iter().find(|x| x.name() == s)
    }
}

/// Recovery-cost accounting of one faulted run: how gracefully the cluster
/// degraded. Present on a [`RunOutcome`] only when the run observed
/// injected faults, so fault-free artifacts keep their exact bytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoverySummary {
    pub crashes: u64,
    /// Nodes that (re)joined mid-run.
    pub joins: u64,
    /// Subtree roots re-queued for re-execution after crashes.
    pub jobs_restarted: u64,
    /// Orphan results salvaged into the global result table.
    pub orphans_harvested: u64,
    /// Salvaged results reused instead of re-executing their subtree.
    pub orphans_reused: u64,
    /// Salvaged results that expired unused (holder crashed or run ended).
    pub orphans_expired: u64,
    /// Virtual time spent redoing lost work (re-executed leaf compute plus
    /// aborted device time).
    pub work_lost_s: f64,
    /// Wall (virtual) time with at least one restarted subtree outstanding.
    pub time_to_recover_s: f64,
}

impl RecoverySummary {
    pub fn from_report(r: &cashmere_satin::RunReport) -> RecoverySummary {
        RecoverySummary {
            crashes: r.crashes,
            joins: r.joins,
            jobs_restarted: r.jobs_restarted,
            orphans_harvested: r.orphans_harvested,
            orphans_reused: r.orphans_reused,
            orphans_expired: r.orphans_expired,
            work_lost_s: r.recovery_time.as_secs_f64(),
            time_to_recover_s: r.time_to_recover.as_secs_f64(),
        }
    }
}

/// Result of one measured run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunOutcome {
    pub app: String,
    pub series: String,
    pub nodes: usize,
    pub makespan_s: f64,
    pub gflops: f64,
    pub kernels_run: u64,
    pub cpu_fallbacks: u64,
    pub steals_ok: u64,
    pub network_bytes: u64,
    /// Failure-accounting section of the run report; present only when the
    /// run observed injected faults (`--faults`).
    pub failure_summary: Option<String>,
    /// Recovery-cost counters; present only alongside `failure_summary`.
    pub recovery: Option<RecoverySummary>,
}

pub(crate) const DEVICE_JOBS: u64 = 8;

pub(crate) fn kernel_set(series: Series) -> KernelSet {
    match series {
        Series::CashmereOpt => KernelSet::Optimized,
        _ => KernelSet::Unoptimized,
    }
}

/// What one application contributes to a scenario run and to the Fig. 6
/// measurement. Everything else — the cluster, Satin or Cashmere leaves,
/// the outcome — is generic ([`crate::scenario::run_scenario`]).
pub(crate) trait BenchApp: CashmereApp + Sized {
    type Problem: Copy;

    /// Node-level grain at paper scale. The light-communication
    /// applications use ≈1024 node jobs so the end-of-run tail (in-flight
    /// leaves cannot migrate) stays a small fraction of the makespan even on
    /// the 22-node heterogeneous configurations; matmul uses ≈256 taller
    /// jobs because each device job re-ships a `B` column panel, so smaller
    /// jobs would multiply PCIe traffic.
    const NODE_GRAIN: u64;

    /// The scenario's problem: its explicit dimensions for this app,
    /// otherwise the paper scale.
    fn problem(p: Problem) -> Self::Problem;

    /// The phantom-mode app: `grain`-sized node-level jobs, each split
    /// into `device_jobs` device jobs.
    fn phantom(pr: Self::Problem, grain: u64, device_jobs: u64) -> Self;

    fn registry(set: KernelSet) -> KernelRegistry;

    /// Algorithmic flops of the whole measured computation.
    fn flops(pr: &Self::Problem) -> f64;

    /// Run the measured computation on a built cluster; returns its virtual
    /// time in seconds.
    fn drive<L: LeafRuntime<Self>>(cs: &mut ClusterSim<Self, L>, pr: &Self::Problem) -> f64;

    /// Fig. 6: one representative device job of the paper-scale problem
    /// and its flop count.
    fn fig6_job(&self, pr: &Self::Problem) -> (Self::Input, f64);
}

/// Run `$body` with the type alias `$A` bound to the [`BenchApp`] of
/// application `$id` — the one `AppId` → type dispatch.
macro_rules! with_app {
    ($id:expr, $A:ident => $body:expr) => {
        match $id {
            $crate::runners::AppId::Raytracer => {
                type $A = cashmere_apps::raytracer::RaytracerApp;
                $body
            }
            $crate::runners::AppId::Matmul => {
                type $A = cashmere_apps::matmul::MatmulApp;
                $body
            }
            $crate::runners::AppId::Kmeans => {
                type $A = cashmere_apps::kmeans::KmeansApp;
                $body
            }
            $crate::runners::AppId::Nbody => {
                type $A = cashmere_apps::nbody::NbodyApp;
                $body
            }
        }
    };
}
pub(crate) use with_app;

impl BenchApp for RaytracerApp {
    type Problem = RaytracerProblem;
    const NODE_GRAIN: u64 = RaytracerProblem::paper().pixels() / 1024;

    fn problem(p: Problem) -> RaytracerProblem {
        match p {
            Problem::Raytracer {
                width,
                height,
                samples,
            } => RaytracerProblem {
                width,
                height,
                samples,
                seed: 1,
            },
            _ => RaytracerProblem::paper(),
        }
    }
    fn phantom(pr: RaytracerProblem, grain: u64, device_jobs: u64) -> Self {
        RaytracerApp::new(pr, AppMode::Phantom, grain, device_jobs)
    }
    fn registry(set: KernelSet) -> KernelRegistry {
        RaytracerApp::registry(set)
    }
    fn flops(pr: &RaytracerProblem) -> f64 {
        pr.flops()
    }
    fn drive<L: LeafRuntime<Self>>(cs: &mut ClusterSim<Self, L>, pr: &RaytracerProblem) -> f64 {
        let _ = cs.run_root((0, pr.pixels()));
        cs.report().makespan.as_secs_f64()
    }
    fn fig6_job(&self, pr: &RaytracerProblem) -> ((u64, u64), f64) {
        let job = (0, Self::NODE_GRAIN / DEVICE_JOBS);
        (job, pr.job_flops(job.1))
    }
}

impl BenchApp for MatmulApp {
    type Problem = MatmulProblem;
    const NODE_GRAIN: u64 = 128; // 32768 rows / 128 = 256 jobs

    fn problem(p: Problem) -> MatmulProblem {
        match p {
            Problem::Matmul { n, m, p } => MatmulProblem { n, m, p },
            _ => MatmulProblem::paper(),
        }
    }
    fn phantom(pr: MatmulProblem, grain: u64, device_jobs: u64) -> Self {
        MatmulApp::phantom(pr, grain, device_jobs)
    }
    fn registry(set: KernelSet) -> KernelRegistry {
        MatmulApp::registry(set)
    }
    fn flops(pr: &MatmulProblem) -> f64 {
        pr.flops()
    }
    fn drive<L: LeafRuntime<Self>>(cs: &mut ClusterSim<Self, L>, pr: &MatmulProblem) -> f64 {
        // Strong scaling includes distributing B to every node — the O(n²)
        // traffic that makes matmul communication-heavy.
        let start = cs.now();
        cs.broadcast(pr.p * pr.m * 4);
        let bcast = (cs.now() - start).as_secs_f64();
        let _ = cs.run_root(MatJob {
            r0: 0,
            r1: pr.n,
            c0: 0,
            c1: pr.m,
        });
        bcast + cs.report().makespan.as_secs_f64()
    }
    fn fig6_job(&self, pr: &MatmulProblem) -> (MatJob, f64) {
        // One device job exactly as the cluster runs produce them: a
        // node-grain row stripe × one of the 8 column panels.
        let job = self.device_jobs(&self.row_job(0, Self::NODE_GRAIN))[0];
        (job, pr.block_flops(job.rows(), job.cols()))
    }
}

impl BenchApp for KmeansApp {
    type Problem = KmeansProblem;
    const NODE_GRAIN: u64 = 262_144; // ≈1024 jobs of 268 M points

    fn problem(p: Problem) -> KmeansProblem {
        match p {
            Problem::Kmeans {
                n,
                k,
                d,
                iterations,
            } => KmeansProblem {
                n,
                k,
                d,
                iterations,
            },
            _ => KmeansProblem::paper(),
        }
    }
    fn phantom(pr: KmeansProblem, grain: u64, device_jobs: u64) -> Self {
        KmeansApp::phantom(pr, grain, device_jobs)
    }
    fn registry(set: KernelSet) -> KernelRegistry {
        KmeansApp::registry(set)
    }
    fn flops(pr: &KmeansProblem) -> f64 {
        pr.total_flops()
    }
    fn drive<L: LeafRuntime<Self>>(cs: &mut ClusterSim<Self, L>, pr: &KmeansProblem) -> f64 {
        // Phantom runs never update the centroids.
        let (_, elapsed) = kmeans::run_iterations(cs, pr, &Centroids::default(), false);
        elapsed.as_secs_f64()
    }
    fn fig6_job(&self, pr: &KmeansProblem) -> ((u64, u64), f64) {
        let job = (0, Self::NODE_GRAIN / DEVICE_JOBS);
        (job, pr.job_flops(job.1))
    }
}

impl BenchApp for NbodyApp {
    type Problem = NbodyProblem;
    const NODE_GRAIN: u64 = 1_954; // 2 M bodies / 1024

    fn problem(p: Problem) -> NbodyProblem {
        match p {
            Problem::Nbody { bodies, iterations } => NbodyProblem {
                n: bodies,
                iterations,
                dt: 0.01,
            },
            _ => NbodyProblem::paper(),
        }
    }
    fn phantom(pr: NbodyProblem, grain: u64, device_jobs: u64) -> Self {
        NbodyApp::phantom(pr, grain, device_jobs)
    }
    fn registry(set: KernelSet) -> KernelRegistry {
        NbodyApp::registry(set)
    }
    fn flops(pr: &NbodyProblem) -> f64 {
        pr.total_flops()
    }
    fn drive<L: LeafRuntime<Self>>(cs: &mut ClusterSim<Self, L>, pr: &NbodyProblem) -> f64 {
        nbody::run_iterations(cs, pr, |_| {}).as_secs_f64()
    }
    fn fig6_job(&self, pr: &NbodyProblem) -> ((u64, u64), f64) {
        let job = (0, Self::NODE_GRAIN / DEVICE_JOBS);
        (job, pr.job_flops(job.1))
    }
}

/// Fig. 6 measurement: kernel execution time alone (no transfers) for one
/// representative device job of the paper-scale problem.
pub fn kernel_gflops(app: AppId, set: KernelSet, device: DeviceKind) -> Option<f64> {
    let _prof = cashmere_des::obs::prof::scope("kernel::measure");
    let h = cashmere_hwdesc::standard_hierarchy();
    let dev = SimDevice::new(&h, device.level(&h)).ok()?;
    let (reg, call, flops) = with_app!(app, A => fig6_launch::<A>(set));
    let ck = reg.select(&call.kernel, dev.level)?;
    let run = dev
        .run_kernel(
            &h,
            ck,
            call.args,
            ExecMode::Sampled {
                sampling: Sampling::default(),
                extra_scale: call.extra_scale,
            },
        )
        .ok()?;
    Some(flops / run.cost.total_s / 1e9)
}

/// The launch Fig. 6 measures for app `A`: its kernel registry for `set`,
/// the kernel call of one representative device job of the paper-scale
/// problem, and that job's flop count.
fn fig6_launch<A: BenchApp>(set: KernelSet) -> (KernelRegistry, KernelCall, f64) {
    let pr = A::problem(Problem::Paper);
    let a = A::phantom(pr, A::NODE_GRAIN, DEVICE_JOBS);
    let (job, flops) = a.fig6_job(&pr);
    (A::registry(set), a.kernel_call(&job), flops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cashmere_mcl::{interp, LaunchConfig};

    #[test]
    fn app_and_series_parse() {
        assert_eq!(AppId::parse("matmul"), Some(AppId::Matmul));
        assert_eq!(AppId::parse("K-MEANS"), Some(AppId::Kmeans));
        assert_eq!(AppId::parse("bogus"), None);
        assert_eq!(Series::ALL.len(), 3);
        assert_eq!(Series::parse("cashmere-opt"), Some(Series::CashmereOpt));
    }

    #[test]
    fn ids_serialize_kebab_case() {
        assert_eq!(
            serde_json::to_string(&AppId::Kmeans).unwrap(),
            r#""kmeans""#
        );
        assert_eq!(
            serde_json::from_str::<AppId>(r#""k-means""#).unwrap(),
            AppId::Kmeans
        );
        assert_eq!(
            serde_json::to_string(&Series::CashmereUnopt).unwrap(),
            r#""cashmere-unopt""#
        );
        assert_eq!(
            serde_json::from_str::<Series>(r#""satin""#).unwrap(),
            Series::Satin
        );
    }

    /// The VM reproduces the reference tree walker bit for bit on every
    /// sampled launch Fig. 6 measures: 4 apps × 2 kernel sets × 7 devices.
    #[test]
    fn fig6_corpus_is_bit_identical_on_vm_and_tree_walker() {
        let h = cashmere_hwdesc::standard_hierarchy();
        for app in AppId::ALL {
            for set in [KernelSet::Unoptimized, KernelSet::Optimized] {
                let (reg, call, _) = with_app!(app, A => fig6_launch::<A>(set));
                for dev in DeviceKind::ALL {
                    let what = format!("{} {set:?} on {}", app.name(), dev.level_name());
                    let level = dev.level(&h);
                    let ck = reg.select(&call.kernel, level).expect(&what);
                    let opts =
                        LaunchConfig::for_device(ck, &h, level).exec_sampled(Sampling::default());
                    let units: Vec<String> = h
                        .effective_params(ck.level)
                        .par_units
                        .iter()
                        .map(|p| p.name.clone())
                        .collect();
                    let tree = interp::execute(ck, call.args.clone(), &units, &opts).expect(&what);
                    let vm =
                        cashmere_mcl::execute(ck, call.args.clone(), &units, &opts).expect(&what);
                    assert_eq!(
                        format!("{:?}", tree.stats),
                        format!("{:?}", vm.stats),
                        "{what}"
                    );
                    assert_eq!(tree.stats.counter_bits(), vm.stats.counter_bits(), "{what}");
                }
            }
        }
    }

    #[test]
    fn kernel_gflops_sane_for_matmul() {
        let un = kernel_gflops(AppId::Matmul, KernelSet::Unoptimized, DeviceKind::Gtx480).unwrap();
        let opt = kernel_gflops(AppId::Matmul, KernelSet::Optimized, DeviceKind::Gtx480).unwrap();
        assert!(opt > un * 2.0, "opt {opt:.0} vs unopt {un:.0}");
        assert!(opt < 1345.0, "below GTX480 peak");
    }
}
