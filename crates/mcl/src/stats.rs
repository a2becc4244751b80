//! Execution statistics collected by the SIMT interpreter.
//!
//! The interpreter executes kernels warp-synchronously and, while doing so,
//! counts what the hardware would have done: vector-instruction issues
//! (weighted by instruction cost), active-lane flops, coalescing-aware
//! global-memory transactions, local-memory traffic, branch divergence and
//! barriers. The cost model ([`crate::cost`]) turns these counters plus a
//! device description into an execution-time estimate; the feedback analyzer
//! ([`crate::analyze`]) turns the per-site access records into
//! stepwise-refinement feedback.
//!
//! Counters are `f64` because sampled runs scale them by large factors.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Key of a memory-access site: source line plus array name.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SiteKey {
    pub line: usize,
    pub array: String,
    pub is_store: bool,
}

/// Aggregated behaviour of one global-memory access site.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SiteStats {
    /// Warp-level executions of this site.
    pub executions: f64,
    /// Bytes the active lanes actually needed (4 per lane).
    pub ideal_bytes: f64,
    /// Bytes moved in 32-byte transactions after coalescing.
    pub transaction_bytes: f64,
    /// Executions where every active lane read the same address.
    pub broadcasts: f64,
}

impl SiteStats {
    /// Transaction overhead factor: 1.0 = perfectly coalesced.
    pub fn overhead(&self) -> f64 {
        if self.ideal_bytes == 0.0 {
            1.0
        } else {
            self.transaction_bytes / self.ideal_bytes
        }
    }

    /// Fraction of executions that were warp-wide broadcasts.
    pub fn broadcast_fraction(&self) -> f64 {
        if self.executions == 0.0 {
            0.0
        } else {
            self.broadcasts / self.executions
        }
    }
}

/// Full set of counters for one kernel execution (possibly sampled).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct KernelStats {
    /// Size of the full parallel domain (scaled when sampling).
    pub total_threads: f64,
    /// Lanes the interpreter actually executed (unscaled).
    pub raw_lanes: f64,
    /// Work-groups in the full launch (scaled when sampling).
    pub groups: f64,
    /// Cost-weighted vector-instruction issues (scaled).
    pub issue_cycles: f64,
    /// Active-lane floating-point operations (scaled).
    pub flops: f64,
    /// Coalescing-aware global transaction bytes (scaled).
    pub global_bytes: f64,
    /// Bytes active lanes actually requested (scaled).
    pub ideal_global_bytes: f64,
    /// Local (scratch) memory bytes accessed (scaled).
    pub local_bytes: f64,
    /// Warp-level branch decisions (scaled).
    pub branch_events: f64,
    /// Warp-level divergent branch decisions (scaled).
    pub divergent_branches: f64,
    /// Lane slots offered by all issued warps (scaled): warps × simd.
    pub issue_slots: f64,
    /// Lane slots actually active across issues (scaled).
    pub active_slots: f64,
    /// Barrier executions (scaled).
    pub barriers: f64,
    /// Per-site access records (scaled with everything else).
    pub sites: BTreeMap<SiteKey, SiteStats>,
}

impl KernelStats {
    /// Every `f64` counter, per-site records included, as raw bits, for
    /// bit-exact comparisons (`-0.0` vs `0.0`, NaN payloads).
    pub fn counter_bits(&self) -> Vec<u64> {
        let sites = self.sites.values().flat_map(|x| {
            [
                x.executions,
                x.ideal_bytes,
                x.transaction_bytes,
                x.broadcasts,
            ]
        });
        [
            self.total_threads,
            self.raw_lanes,
            self.groups,
            self.issue_cycles,
            self.flops,
            self.global_bytes,
            self.ideal_global_bytes,
            self.local_bytes,
            self.branch_events,
            self.divergent_branches,
            self.issue_slots,
            self.active_slots,
            self.barriers,
        ]
        .into_iter()
        .chain(sites)
        .map(f64::to_bits)
        .collect()
    }

    /// Fraction of issued lane slots doing useful work; 1.0 = no divergence,
    /// no partial warps.
    pub fn lane_efficiency(&self) -> f64 {
        if self.issue_slots == 0.0 {
            1.0
        } else {
            self.active_slots / self.issue_slots
        }
    }

    /// Fraction of branch decisions that diverged within a warp.
    pub fn divergence_rate(&self) -> f64 {
        if self.branch_events == 0.0 {
            0.0
        } else {
            self.divergent_branches / self.branch_events
        }
    }

    /// Global-memory coalescing efficiency: 1.0 = every transaction byte was
    /// requested by a lane.
    pub fn coalescing_efficiency(&self) -> f64 {
        if self.global_bytes == 0.0 {
            1.0
        } else {
            (self.ideal_global_bytes / self.global_bytes).min(1.0)
        }
    }

    /// Arithmetic intensity in flops per global transaction byte.
    pub fn arithmetic_intensity(&self) -> f64 {
        if self.global_bytes == 0.0 {
            f64::INFINITY
        } else {
            self.flops / self.global_bytes
        }
    }

    /// Does any local (scratch) memory get used?
    pub fn uses_local_memory(&self) -> bool {
        self.local_bytes > 0.0
    }

    /// A kernel qualifies for compiler auto-vectorization (relevant to the
    /// Xeon Phi back-end) when control flow is convergent and global
    /// accesses are unit-stride, small-stride (the MIC vector unit has
    /// gather/scatter) or broadcast.
    pub fn vectorizable(&self) -> bool {
        self.divergence_rate() < 0.05
            && self
                .sites
                .values()
                .all(|s| s.overhead() <= 4.5 || s.broadcast_fraction() > 0.9)
    }

    /// Scale every extensive counter by `factor`. Used to extrapolate a
    /// calibration run (small inner dimensions) to the full problem; ratios
    /// (divergence, coalescing, intensity) are preserved.
    pub fn scale(&mut self, factor: f64) {
        assert!(factor.is_finite() && factor > 0.0, "bad scale {factor}");
        self.total_threads *= factor;
        self.groups *= factor;
        self.issue_cycles *= factor;
        self.flops *= factor;
        self.global_bytes *= factor;
        self.ideal_global_bytes *= factor;
        self.local_bytes *= factor;
        self.branch_events *= factor;
        self.divergent_branches *= factor;
        self.issue_slots *= factor;
        self.active_slots *= factor;
        self.barriers *= factor;
        for s in self.sites.values_mut() {
            s.executions *= factor;
            s.ideal_bytes *= factor;
            s.transaction_bytes *= factor;
            s.broadcasts *= factor;
        }
    }

    /// Merge another stats record into this one (used when a kernel is
    /// interpreted in several vectorized chunks).
    pub fn merge(&mut self, other: &KernelStats) {
        self.total_threads += other.total_threads;
        self.raw_lanes += other.raw_lanes;
        self.groups += other.groups;
        self.issue_cycles += other.issue_cycles;
        self.flops += other.flops;
        self.global_bytes += other.global_bytes;
        self.ideal_global_bytes += other.ideal_global_bytes;
        self.local_bytes += other.local_bytes;
        self.branch_events += other.branch_events;
        self.divergent_branches += other.divergent_branches;
        self.issue_slots += other.issue_slots;
        self.active_slots += other.active_slots;
        self.barriers += other.barriers;
        for (k, v) in &other.sites {
            let e = self.sites.entry(k.clone()).or_default();
            e.executions += v.executions;
            e.ideal_bytes += v.ideal_bytes;
            e.transaction_bytes += v.transaction_bytes;
            e.broadcasts += v.broadcasts;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> KernelStats {
        let mut s = KernelStats {
            total_threads: 1024.0,
            raw_lanes: 1024.0,
            groups: 4.0,
            issue_cycles: 100.0,
            flops: 2048.0,
            global_bytes: 8192.0,
            ideal_global_bytes: 4096.0,
            local_bytes: 0.0,
            branch_events: 10.0,
            divergent_branches: 1.0,
            issue_slots: 320.0,
            active_slots: 256.0,
            barriers: 0.0,
            sites: BTreeMap::new(),
        };
        s.sites.insert(
            SiteKey {
                line: 5,
                array: "a".into(),
                is_store: false,
            },
            SiteStats {
                executions: 32.0,
                ideal_bytes: 4096.0,
                transaction_bytes: 8192.0,
                broadcasts: 0.0,
            },
        );
        s
    }

    #[test]
    fn derived_ratios() {
        let s = sample();
        assert!((s.lane_efficiency() - 0.8).abs() < 1e-12);
        assert!((s.divergence_rate() - 0.1).abs() < 1e-12);
        assert!((s.coalescing_efficiency() - 0.5).abs() < 1e-12);
        assert!((s.arithmetic_intensity() - 0.25).abs() < 1e-12);
        assert!(!s.uses_local_memory());
    }

    #[test]
    fn scale_preserves_ratios() {
        let mut s = sample();
        let before = (
            s.lane_efficiency(),
            s.divergence_rate(),
            s.coalescing_efficiency(),
        );
        s.scale(1000.0);
        assert_eq!(s.total_threads, 1_024_000.0);
        assert_eq!(s.flops, 2_048_000.0);
        let after = (
            s.lane_efficiency(),
            s.divergence_rate(),
            s.coalescing_efficiency(),
        );
        assert_eq!(before, after);
        let site = s.sites.values().next().unwrap();
        assert_eq!(site.executions, 32_000.0);
        assert!((site.overhead() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.flops, 4096.0);
        assert_eq!(a.sites.len(), 1);
        assert_eq!(a.sites.values().next().unwrap().executions, 64.0);
    }

    #[test]
    fn vectorizable_classification() {
        let mut s = sample();
        s.divergent_branches = 0.0;
        // 8x overhead load site with no broadcasts ⇒ not vectorizable
        // (beyond gather-friendly strides).
        s.sites.values_mut().next().unwrap().transaction_bytes = 8.0 * 4096.0;
        assert!(!s.vectorizable());
        s.sites.values_mut().next().unwrap().transaction_bytes = 4096.0;
        assert!(s.vectorizable());
        // heavy divergence kills it again
        s.divergent_branches = 5.0;
        assert!(!s.vectorizable());
    }

    #[test]
    fn empty_stats_are_benign() {
        let s = KernelStats::default();
        assert_eq!(s.lane_efficiency(), 1.0);
        assert_eq!(s.divergence_rate(), 0.0);
        assert_eq!(s.coalescing_efficiency(), 1.0);
        assert!(s.arithmetic_intensity().is_infinite());
    }

    #[test]
    #[should_panic(expected = "bad scale")]
    fn scale_rejects_nonpositive() {
        sample().scale(0.0);
    }
}
