//! The benchmark's own contract: every metric named in `BENCHMARK.json` is
//! well formed, and the command prints each one, with its unit, on every
//! workload — non-zero wherever the metric's layer runs, zero where it
//! does not.
//!
//! The second test runs every workload for one second in both modes
//! through the real binary, from the repository root.

use serde::Deserialize;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

#[derive(Deserialize)]
struct Benchmark {
    workloads: Vec<Workload>,
    end_to_end: Vec<MetricSpec>,
    per_layer: Vec<MetricSpec>,
}

#[derive(Deserialize)]
struct Workload {
    name: String,
}

#[derive(Deserialize)]
struct MetricSpec {
    name: String,
    unit: String,
}

#[derive(Deserialize)]
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Value>,
}

#[derive(Deserialize)]
struct Value {
    value: f64,
    unit: String,
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf()
}

fn benchmark() -> Benchmark {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// Workloads whose points run the simulated cluster (DES, Satin, Cashmere,
/// netsim); `fig6-kernels` runs isolated kernels only.
const CLUSTER: &[&str] = &["paper-scaling", "hetero-table3"];
const EVERY: &[&str] = &["paper-scaling", "hetero-table3", "fig6-kernels"];

/// Where a per-layer metric must read non-zero; `None` for metrics that
/// may legitimately be zero anywhere (no CPU fallbacks in the paper runs,
/// no idle tail at one worker, a profiler overhead within noise of zero).
fn layer_runs_on(metric: &str) -> Option<&'static [&'static str]> {
    match metric {
        "cashmere.cpu_fallbacks" | "bench.sweep.tail_idle_ms" | "prof.overhead" => None,
        m if [
            "mcl.execute.",
            "mcl.compile.",
            "setup.",
            "prof.",
            "bench.sweep.",
        ]
        .iter()
        .any(|p| m.starts_with(p)) =>
        {
            Some(EVERY)
        }
        _ => Some(CLUSTER),
    }
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let b = benchmark();
    let mut seen = std::collections::BTreeSet::new();
    for m in b.end_to_end.iter().chain(&b.per_layer) {
        assert!(
            !m.name.is_empty()
                && m.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
            "metric name `{}` is not [A-Za-z0-9_.-]+",
            m.name
        );
        assert!(
            seen.insert(m.name.clone()),
            "metric `{}` named twice",
            m.name
        );
    }
}

fn run(workload: &str, trace: u8) -> RunResult {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "42", "--seconds", "1"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the last line is the result JSON")
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let b = benchmark();
    let names: Vec<&str> = b.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(names, EVERY, "workloads of BENCHMARK.json");
    for w in EVERY {
        for (trace, specs) in [(0, &b.end_to_end), (1, &b.per_layer)] {
            let r = run(w, trace);
            assert!(
                r.correct && r.failed == 0 && r.attempted > 0,
                "{w} trace {trace}"
            );
            let printed: Vec<&String> = r.metrics.keys().collect();
            let mut named: Vec<&String> = specs.iter().map(|m| &m.name).collect();
            named.sort();
            assert_eq!(printed, named, "{w} trace {trace}: metric set");
            for spec in specs.iter() {
                let v = &r.metrics[&spec.name];
                assert_eq!(v.unit, spec.unit, "{w}: unit of {}", spec.name);
                assert!(v.value.is_finite(), "{w}: {} = {}", spec.name, v.value);
                let must_run = if trace == 0 {
                    Some(EVERY)
                } else {
                    layer_runs_on(&spec.name)
                };
                if let Some(ws) = must_run {
                    if ws.contains(w) {
                        assert!(v.value > 0.0, "{w}: {} should be > 0", spec.name);
                    } else {
                        assert_eq!(v.value, 0.0, "{w}: {} should not run", spec.name);
                    }
                }
            }
        }
    }
}
