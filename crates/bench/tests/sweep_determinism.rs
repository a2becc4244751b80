//! Parallel sweeps must be invisible: `--jobs 4` and `--jobs 1` produce
//! byte-identical stdout (tables) and JSON output for the same invocation.
//!
//! Runs the real `scaling` binary (one app to keep CI fast) twice and
//! compares both channels byte-for-byte; the JSON must also equal the
//! committed `fig7_14_scaling_kmeans.json` it overwrites. A second test repeats one
//! heterogeneous run in-process: the repeat is served by the process-wide
//! kernel-measurement tier and must still be byte-identical.

use cashmere::ClusterSpec;
use cashmere_bench::{fingerprint, run_scenario, AppId, Problem, Scenario, ScenarioRun, Series};
use cashmere_des::obs::{prof, ProfNode};
use serde::Serialize;
use std::path::PathBuf;
use std::process::Command;

/// The single-app JSON `scaling kmeans` writes: committed, and
/// overwritten by every run below.
fn kmeans_json_path() -> PathBuf {
    let mut json = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    json.pop();
    json.pop();
    json.push("bench/out/fig7_14_scaling_kmeans.json");
    json
}

fn run_scaling(jobs: &str) -> (Vec<u8>, Vec<u8>) {
    let exe = env!("CARGO_BIN_EXE_scaling");
    let out = Command::new(exe)
        .args(["kmeans", "--jobs", jobs])
        .output()
        .expect("scaling binary runs");
    assert!(
        out.status.success(),
        "scaling --jobs {jobs} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read(kmeans_json_path()).expect("scaling wrote its JSON");
    (out.stdout, json)
}

#[test]
fn scaling_jobs_4_is_byte_identical_to_jobs_1() {
    // Read the committed artifact before the runs overwrite it.
    let committed = std::fs::read(kmeans_json_path()).expect("committed k-means JSON");
    let (stdout_seq, json_seq) = run_scaling("1");
    let (stdout_par, json_par) = run_scaling("4");
    assert!(
        json_seq == committed,
        "--jobs 1 does not reproduce the committed fig7_14_scaling_kmeans.json"
    );
    assert_eq!(
        stdout_seq, stdout_par,
        "stdout differs between --jobs 1 and --jobs 4"
    );
    assert_eq!(
        json_seq, json_par,
        "JSON output differs between --jobs 1 and --jobs 4"
    );
    // Sanity: the run actually produced the paper's table, not an error.
    let text = String::from_utf8(stdout_seq).expect("stdout is UTF-8");
    assert!(text.contains("Fig. 11"), "expected the k-means figures");
    assert!(text.contains("cashmere-opt"), "expected all three series");
}

/// Visits of the VM scope `mcl::execute` anywhere in a profile forest.
fn vm_runs(nodes: &[ProfNode]) -> u64 {
    nodes
        .iter()
        .map(|n| u64::from(n.name == "mcl::execute") * n.count + vm_runs(&n.children))
        .sum()
}

/// Run `sc` with the profiler on. `run_scenario` runs on the calling
/// thread, so this thread's tree holds every VM run of the scenario.
fn profiled(sc: &Scenario) -> (ScenarioRun, u64) {
    prof::set_enabled(true);
    let run = run_scenario(sc);
    prof::set_enabled(false);
    (run, vm_runs(&prof::take_local().roots))
}

fn json<T: Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("serializes")
}

#[test]
fn repeated_hetero_run_is_byte_identical_and_runs_no_kernels() {
    // Four device kinds over three nodes, and a problem size no other test
    // in this process uses, so the first run has shapes to measure.
    let spec = ClusterSpec {
        node_devices: vec![
            vec!["gtx480".to_string()],
            vec!["hd7970".to_string()],
            vec!["k20".to_string(), "xeon_phi".to_string()],
        ],
    };
    let sc = Scenario::new("tier-repeat", AppId::Kmeans, Series::CashmereOpt, &spec)
        .with_problem(Problem::Kmeans {
            n: 600_000,
            k: 64,
            d: 4,
            iterations: 2,
        })
        .with_grain(75_000)
        .with_capture(true);
    let (first, cold) = profiled(&sc);
    let (second, warm) = profiled(&sc);
    assert!(cold > 0, "the first run measures its launch shapes");
    assert_eq!(warm, 0, "the repeat is served by the process-wide tier");

    assert_eq!(json(&first.outcome), json(&second.outcome), "RunOutcome");
    let (a, b) = (first.cap.expect("captured"), second.cap.expect("captured"));
    // The per-run memo counts keep their meaning: the repeat still
    // misses its own memo once per shape.
    assert!(a.report.kernel_memo_misses > 0 && a.report.kernel_memo_hits > 0);
    assert_eq!(json(&a.report), json(&b.report), "RunReport");
    assert_eq!(
        json(&fingerprint("run", first.outcome.makespan_s, &a)),
        json(&fingerprint("run", second.outcome.makespan_s, &b)),
        "run fingerprint"
    );
}
