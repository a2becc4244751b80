//! Golden check of every app × series driver path: re-run the 1- and
//! 2-node provenance scenarios of the committed Figs. 7–14 artifact
//! (4 apps × 3 series × {1, 2} nodes = 24 points) through `run_scenario`
//! and require each data row's makespan, GFLOPS and steal count to match
//! the committed values bit for bit.

use cashmere_bench::{run_scenario, Scenario};
use serde::Deserialize;
use std::path::PathBuf;

#[derive(Deserialize)]
struct Point {
    app: String,
    series: String,
    nodes: usize,
    makespan_s: f64,
    gflops: f64,
    steals_ok: u64,
}

#[derive(Deserialize)]
struct Artifact {
    provenance: Vec<Scenario>,
    data: Vec<Point>,
}

#[test]
fn one_and_two_node_scaling_points_match_the_committed_artifact() {
    let mut path = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    path.pop();
    path.pop();
    path.push("bench/out/fig7_14_scaling.json");
    let text = std::fs::read_to_string(&path).expect("committed scaling artifact");
    let art: Artifact = serde_json::from_str(&text).expect("artifact parses");
    assert_eq!(art.provenance.len(), art.data.len());

    let mut checked = 0;
    for (sc, want) in art.provenance.iter().zip(&art.data) {
        if sc.nodes.len() > 2 {
            continue;
        }
        let got = run_scenario(sc).outcome;
        let what = &sc.name;
        assert_eq!(
            (got.app.as_str(), got.series.as_str(), got.nodes),
            (want.app.as_str(), want.series.as_str(), want.nodes),
            "{what}: row identity"
        );
        assert_eq!(
            got.makespan_s.to_bits(),
            want.makespan_s.to_bits(),
            "{what}: makespan_s {} vs committed {}",
            got.makespan_s,
            want.makespan_s
        );
        assert_eq!(
            got.gflops.to_bits(),
            want.gflops.to_bits(),
            "{what}: gflops {} vs committed {}",
            got.gflops,
            want.gflops
        );
        assert_eq!(got.steals_ok, want.steals_ok, "{what}: steals_ok");
        checked += 1;
    }
    assert_eq!(checked, 24, "4 apps x 3 series x {{1, 2}} nodes");
}
