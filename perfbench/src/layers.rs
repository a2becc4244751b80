//! Per-layer metrics of one traced pass: self time and visit counts of the
//! program's own profiler scopes, summed by frame name, plus the simulated
//! counters of the pass's run outcomes. Each layer is named after its
//! crate.

use crate::workload::{runs, Pass};
use crate::Metric;
use cashmere_bench::RunOutcome;
use cashmere_des::obs::prof::{ProfNode, ProfTree};
use std::collections::{BTreeMap, HashMap};

/// Visits and self time of every frame carrying one name.
#[derive(Default, Clone, Copy)]
struct Frame {
    calls: u64,
    self_ns: u64,
}

struct Frames(BTreeMap<String, Frame>);

impl Frames {
    fn of(tree: &ProfTree) -> Frames {
        fn walk(n: &ProfNode, acc: &mut BTreeMap<String, Frame>) {
            let f = acc.entry(n.name.clone()).or_default();
            f.calls += n.count;
            f.self_ns += n.self_ns();
            for c in &n.children {
                walk(c, acc);
            }
        }
        let mut acc = BTreeMap::new();
        for r in &tree.roots {
            walk(r, &mut acc);
        }
        Frames(acc)
    }

    fn get(&self, name: &str) -> Frame {
        self.0.get(name).copied().unwrap_or_default()
    }

    /// All frames whose name starts with `prefix`, summed.
    fn prefixed(&self, prefix: &str) -> Frame {
        self.0
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .fold(Frame::default(), |a, (_, f)| Frame {
                calls: a.calls + f.calls,
                self_ns: a.self_ns + f.self_ns,
            })
    }
}

/// Inclusive time of the benchmark's own span `name`, summed over contexts.
fn span_ns(tree: &ProfTree, name: &str) -> u64 {
    fn walk(n: &ProfNode, name: &str) -> u64 {
        if n.name == name {
            n.total_ns
        } else {
            n.children.iter().map(|c| walk(c, name)).sum()
        }
    }
    tree.roots.iter().map(|r| walk(r, name)).sum()
}

/// Time the program's scopes account for inside the benchmark's point
/// spans: the children of every `perfbench::point` frame.
fn attributed_in_points_ns(tree: &ProfTree) -> u64 {
    fn walk(n: &ProfNode) -> u64 {
        if n.name == "perfbench::point" {
            n.children.iter().map(|c| c.total_ns).sum()
        } else {
            n.children.iter().map(walk).sum()
        }
    }
    tree.roots.iter().map(walk).sum()
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Sweep-executor metrics of one pass, timed by the benchmark itself:
/// efficiency (Σ point wall / (jobs × pass wall)) and the tail idle time
/// (how long workers sat idle while the last points finished).
pub fn sweep_metrics(pass: &Pass, jobs: usize) -> Vec<Metric> {
    let busy: f64 = pass.times.iter().map(|t| t.wall().as_secs_f64()).sum();
    let mut last_end = HashMap::new();
    for t in &pass.times {
        let e = last_end.entry(t.thread).or_insert(t.end);
        *e = (*e).max(t.end);
    }
    let finish = pass.times.iter().map(|t| t.end).max().unwrap_or_default();
    let idle: f64 = last_end.values().map(|&e| (finish - e).as_secs_f64()).sum();
    vec![
        Metric::new(
            "bench.sweep.efficiency",
            ratio(busy, jobs as f64 * pass.wall.as_secs_f64()),
            "ratio",
        ),
        Metric::new("bench.sweep.tail_idle_ms", idle * 1e3, "ms"),
    ]
}

/// Profiler-derived and simulated-counter metrics of one traced pass
/// (`tree` holds the traced set-up and the pass).
pub fn traced_metrics(tree: &ProfTree, pass: &Pass) -> Vec<Metric> {
    let f = Frames::of(tree);
    let runs = runs(&pass.outcomes);
    let sum = |g: fn(&RunOutcome) -> u64| runs.iter().flatten().map(|r| g(r)).sum::<u64>() as f64;

    let place = f.get("cashmere::place");
    let execute = f.get("mcl::execute");
    let memo = f.get("mcl::memo");
    let compile = f.get("mcl::compile");
    let events = f.prefixed("event::");
    let schedule = f.get("des::schedule");
    let heap = f.get("des::heap");
    let cancel = f.get("des::cancel");
    let transfer = f.get("net::transfer");
    let des_ops = schedule.calls + heap.calls + cancel.calls;
    let des_ns = schedule.self_ns + heap.self_ns + cancel.self_ns;
    let point_wall_ns: f64 = pass.times.iter().map(|t| t.wall().as_nanos() as f64).sum();

    vec![
        Metric::new(
            "bench.scenario.self_ms",
            ms(f.get("scenario::run").self_ns),
            "ms",
        ),
        Metric::new("cashmere.place.calls", place.calls as f64, "count"),
        Metric::new("cashmere.place.self_ms", ms(place.self_ns), "ms"),
        Metric::new(
            "cashmere.place.ns_per_call",
            ratio(place.self_ns as f64, place.calls as f64),
            "ns",
        ),
        Metric::new("cashmere.kernels_run", sum(|r| r.kernels_run), "count"),
        Metric::new("cashmere.cpu_fallbacks", sum(|r| r.cpu_fallbacks), "count"),
        Metric::new("mcl.execute.calls", execute.calls as f64, "count"),
        Metric::new("mcl.execute.self_ms", ms(execute.self_ns), "ms"),
        Metric::new("mcl.memo.calls", memo.calls as f64, "count"),
        Metric::new("mcl.memo.self_ms", ms(memo.self_ns), "ms"),
        Metric::new(
            "mcl.memo.hit_ratio",
            if memo.calls > 0 {
                1.0 - execute.calls as f64 / memo.calls as f64
            } else {
                0.0
            },
            "ratio",
        ),
        Metric::new("mcl.compile.calls", compile.calls as f64, "count"),
        Metric::new("mcl.compile.self_ms", ms(compile.self_ns), "ms"),
        Metric::new(
            "satin.dispatch.self_ms",
            ms(f.get("satin::run-root").self_ns),
            "ms",
        ),
        Metric::new("satin.events.calls", events.calls as f64, "count"),
        Metric::new("satin.events.self_ms", ms(events.self_ns), "ms"),
        Metric::new(
            "satin.ns_per_event",
            ratio(events.self_ns as f64, events.calls as f64),
            "ns",
        ),
        Metric::new(
            "satin.steal_success_ratio",
            ratio(sum(|r| r.steals_ok), f.get("event::steal").calls as f64),
            "ratio",
        ),
        Metric::new("des.schedule.calls", schedule.calls as f64, "count"),
        Metric::new("des.schedule.self_ms", ms(schedule.self_ns), "ms"),
        Metric::new("des.heap.self_ms", ms(heap.self_ns), "ms"),
        Metric::new("des.ns_per_op", ratio(des_ns as f64, des_ops as f64), "ns"),
        Metric::new("netsim.transfer.calls", transfer.calls as f64, "count"),
        Metric::new("netsim.transfer.self_ms", ms(transfer.self_ns), "ms"),
        Metric::new("netsim.bytes", sum(|r| r.network_bytes), "B"),
        Metric::new(
            "setup.hierarchy_ms",
            ms(span_ns(tree, "perfbench::hierarchy")),
            "ms",
        ),
        Metric::new(
            "setup.registry_ms",
            ms(span_ns(tree, "perfbench::registry")),
            "ms",
        ),
        Metric::new(
            "prof.attributed_share",
            ratio(attributed_in_points_ns(tree) as f64, point_wall_ns),
            "ratio",
        ),
    ]
}
