//! Launch-geometry selection (paper Sec. III-A).
//!
//! "MCL determines the work-group and work-item configuration based on the
//! kernel parameters and its hardware-descriptions." Different devices have
//! different granularity needs: GPUs want groups of a few hundred threads;
//! the Xeon Phi wants a handful of fat lanes per core.
//!
//! The rule implemented here: if the kernel pins its innermost-unit
//! `foreach` to a literal count (the tiled, optimized kernels do — e.g.
//! `foreach (int t in 256 threads)`), that count is the work-group size.
//! Otherwise a class-dependent default is chosen, clamped to the level's
//! declared maximum.

use crate::ast::{walk_stmts, Expr, StmtKind};
use crate::check::CheckedKernel;
use crate::cost::{estimate_time, DeviceClass};
use crate::interp::{ExecOptions, Sampling};
use crate::stats::KernelStats;
use crate::value::ArgValue;
use cashmere_hwdesc::params::ResolvedParams;
use cashmere_hwdesc::{Hierarchy, LevelId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Geometry for one kernel launch on one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaunchConfig {
    /// Lanes per work-group (vectorized chunk in the interpreter).
    pub group_size: usize,
    /// Warp/wavefront width for issue accounting.
    pub warp_width: usize,
    /// Class of the executing device.
    pub class: DeviceClass,
}

impl LaunchConfig {
    /// Build the geometry for `kernel` on `device`.
    pub fn for_device(ck: &CheckedKernel, h: &Hierarchy, device: LevelId) -> LaunchConfig {
        let class = DeviceClass::of(h, device);
        let warp_width = class.warp_width();

        // Innermost parallelism unit of the *kernel's* level.
        let kernel_units = h.effective_params(ck.level).par_units;
        let innermost = kernel_units
            .last()
            .map(|u| u.name.clone())
            .unwrap_or_else(|| "threads".to_string());
        let unit_max = kernel_units.last().and_then(|u| u.max);

        // A literal innermost foreach count pins the group size.
        let mut literal: Option<u64> = None;
        walk_stmts(&ck.kernel.body, &mut |s| {
            if let StmtKind::Foreach {
                unit, count, body, ..
            } = &s.kind
            {
                if *unit == innermost {
                    let mut has_inner = false;
                    walk_stmts(body, &mut |t| {
                        if matches!(t.kind, StmtKind::Foreach { .. }) {
                            has_inner = true;
                        }
                    });
                    if !has_inner {
                        if let Expr::IntLit(v) = count {
                            if *v > 0 && literal.is_none() {
                                literal = Some(*v as u64);
                            }
                        }
                    }
                }
            }
        });

        let default = match class {
            DeviceClass::NvidiaGpu | DeviceClass::AmdGpu => 256,
            DeviceClass::Mic => 64,
            DeviceClass::Cpu => 8,
        };
        let mut group_size = literal.map_or(default, |v| v as usize);
        if let Some(max) = unit_max {
            group_size = group_size.min(max as usize);
        }
        group_size = group_size.clamp(1, 1024);

        LaunchConfig {
            group_size,
            warp_width,
            class,
        }
    }

    /// Interpreter options for a *full* (functional) execution.
    pub fn exec_full(&self) -> ExecOptions {
        ExecOptions {
            simd_width: self.warp_width,
            group_size: self.group_size,
            sample: None,
        }
    }

    /// Interpreter options for a *sampled* (measurement) execution.
    pub fn exec_sampled(&self, sampling: Sampling) -> ExecOptions {
        ExecOptions {
            simd_width: self.warp_width,
            group_size: self.group_size,
            sample: Some(sampling),
        }
    }
}

/// Dense id of a registered kernel name, assigned in registration order by
/// the kernel registry. Memo keys carry the id instead of the name, so
/// building a key never clones a `String`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KernelId(pub u32);

/// Memoization key for a sampled measurement launch: kernel identity,
/// launch geometry, and the argument *shape signature* (scalar values and
/// array dims — never array contents, which sampled statistics do not
/// depend on for the supported kernel corpus).
///
/// `Ord` (not `Hash`) so the memo table iterates deterministically — the
/// cache must never introduce run-order dependence into `--jobs` replays.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LaunchKey {
    pub kernel: KernelId,
    pub level: LevelId,
    pub group_size: usize,
    pub warp_width: usize,
    /// Scalar args and array dims, flattened (see [`LaunchKey::arg_shape`]).
    pub shape: Vec<i64>,
}

impl LaunchKey {
    /// Shape signature of an argument list: scalar values (floats by bit
    /// pattern) and array ranks + dims.
    pub fn arg_shape(args: &[ArgValue]) -> Vec<i64> {
        let mut shape = Vec::new();
        for a in args {
            match a {
                ArgValue::Int(v) => shape.push(*v),
                ArgValue::Float(v) => shape.push(v.to_bits() as i64),
                ArgValue::Array(arr) => {
                    shape.push(-(arr.rank() as i64));
                    shape.extend(arr.dims.iter().map(|d| *d as i64));
                }
            }
        }
        shape
    }
}

/// Modelled costs one memo entry keeps at most; past that, costs are
/// recomputed per call (still exact, only slower).
const COSTS_PER_ENTRY: usize = 32;

/// One memoized sampled launch: its *unscaled* statistics plus the modelled
/// kernel time already derived from them, per (device level, extra scale).
#[derive(Debug, Clone, Default)]
pub struct MemoEntry {
    pub stats: KernelStats,
    /// `(device level, extra_scale bits, total_s)`.
    costs: Vec<(LevelId, u64, f64)>,
}

impl MemoEntry {
    fn new(stats: KernelStats) -> MemoEntry {
        MemoEntry {
            stats,
            costs: Vec::new(),
        }
    }

    /// `estimate_time(stats × extra_scale, params, class).total_s` for a
    /// device at level `device`, whose resolved `params` and `class` the
    /// caller passes. Computed on the first call per (device, extra_scale)
    /// and served from the entry afterwards. This is exact: `estimate_time`
    /// is pure, and within one hierarchy a level's parameters and class
    /// never change, so the stored value has the bits a recomputation
    /// would produce.
    pub fn total_s(
        &mut self,
        device: LevelId,
        params: &ResolvedParams,
        class: DeviceClass,
        extra_scale: f64,
    ) -> f64 {
        let bits = extra_scale.to_bits();
        if let Some(&(_, _, t)) = self
            .costs
            .iter()
            .find(|(d, b, _)| *d == device && *b == bits)
        {
            return t;
        }
        let t = if extra_scale == 1.0 {
            estimate_time(&self.stats, params, class).total_s
        } else {
            let mut scaled = self.stats.clone();
            scaled.scale(extra_scale);
            estimate_time(&scaled, params, class).total_s
        };
        if self.costs.len() < COSTS_PER_ENTRY {
            self.costs.push((device, bits, t));
        }
        t
    }
}

/// Memo table for sampled-launch statistics with hit/miss accounting.
///
/// Repeated identical measurement launches are the common case in sweeps
/// and the fig6 corpus; the memo turns every repeat into a `BTreeMap`
/// lookup that borrows the entry. The stored statistics are *unscaled* —
/// calibration scaling is applied per call (see [`MemoEntry::total_s`]).
#[derive(Debug, Default)]
pub struct LaunchMemo {
    map: BTreeMap<LaunchKey, MemoEntry>,
    hits: u64,
    misses: u64,
}

impl LaunchMemo {
    pub fn new() -> LaunchMemo {
        LaunchMemo::default()
    }

    /// Look up a memoized result, counting the hit or miss.
    pub fn lookup(&mut self, key: &LaunchKey) -> Option<&mut MemoEntry> {
        match self.map.get_mut(key) {
            Some(entry) => {
                self.hits += 1;
                Some(entry)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Look up without touching the counters.
    pub fn peek(&self, key: &LaunchKey) -> Option<&KernelStats> {
        self.map.get(key).map(|e| &e.stats)
    }

    /// Memoize `stats` under `key` (replacing any earlier entry) and return
    /// the new entry.
    pub fn insert(&mut self, key: LaunchKey, stats: KernelStats) -> &mut MemoEntry {
        let entry = self.map.entry(key).or_default();
        *entry = MemoEntry::new(stats);
        entry
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn hits(&self) -> u64 {
        self.hits
    }

    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Deterministic (key-ordered) iteration over memoized entries.
    pub fn iter(&self) -> impl Iterator<Item = (&LaunchKey, &KernelStats)> {
        self.map.iter().map(|(k, e)| (k, &e.stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use cashmere_hwdesc::{standard_hierarchy, DeviceKind};

    const PERFECT: &str = "perfect void t(int n, float[n] a) {
  foreach (int i in n threads) { a[i] = 0.0; }
}";

    const TILED: &str = "gpu void t(int n, float[n] a) {
  foreach (int b in n / 128 blocks) {
    foreach (int t in 128 threads) { a[b * 128 + t] = 0.0; }
  }
}";

    #[test]
    fn default_geometry_per_class() {
        let h = standard_hierarchy();
        let ck = compile(PERFECT, &h).unwrap();
        let gtx = LaunchConfig::for_device(&ck, &h, DeviceKind::Gtx480.level(&h));
        assert_eq!(gtx.group_size, 256);
        assert_eq!(gtx.warp_width, 32);
        let amd = LaunchConfig::for_device(&ck, &h, DeviceKind::Hd7970.level(&h));
        assert_eq!(amd.warp_width, 64);
        let phi = LaunchConfig::for_device(&ck, &h, DeviceKind::XeonPhi.level(&h));
        assert_eq!(phi.group_size, 64);
        assert_eq!(phi.warp_width, 16);
        assert_eq!(phi.class, DeviceClass::Mic);
    }

    #[test]
    fn literal_innermost_foreach_pins_group_size() {
        let h = standard_hierarchy();
        let ck = compile(TILED, &h).unwrap();
        let gtx = LaunchConfig::for_device(&ck, &h, DeviceKind::Gtx480.level(&h));
        assert_eq!(gtx.group_size, 128);
    }

    #[test]
    fn group_size_clamped_to_unit_max() {
        // mic `threads` has max 4; a perfect kernel on mic defaults to 16
        // but a mic-level kernel with threads unit clamps to 4.
        let h = standard_hierarchy();
        let src = "mic void t(int n, float[n] a) {
  foreach (int c in n / 4 cores) {
    foreach (int t in 4 threads) { a[c * 4 + t] = 0.0; }
  }
}";
        let ck = compile(src, &h).unwrap();
        let cfg = LaunchConfig::for_device(&ck, &h, DeviceKind::XeonPhi.level(&h));
        assert_eq!(cfg.group_size, 4);
    }

    #[test]
    fn launch_memo_counts_hits_and_iterates_in_key_order() {
        use crate::ast::ElemTy;
        use crate::value::ArrayArg;
        let mut memo = LaunchMemo::new();
        let key = |kernel: u32, n: i64| LaunchKey {
            kernel: KernelId(kernel),
            level: LevelId(0),
            group_size: 256,
            warp_width: 32,
            shape: vec![n],
        };
        assert!(memo.lookup(&key(1, 8)).is_none());
        memo.insert(key(1, 8), KernelStats::default());
        memo.insert(key(0, 8), KernelStats::default());
        assert!(memo.lookup(&key(1, 8)).is_some());
        assert!(
            memo.lookup(&key(1, 9)).is_none(),
            "shape is part of the key"
        );
        assert_eq!((memo.hits(), memo.misses()), (1, 2));
        assert_eq!(memo.len(), 2);
        let order: Vec<u32> = memo.iter().map(|(k, _)| k.kernel.0).collect();
        assert_eq!(order, vec![0, 1], "deterministic key-ordered iteration");

        // Shape signature: contents don't matter, sizes and scalars do.
        let s1 = LaunchKey::arg_shape(&[
            ArgValue::Int(8),
            ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[8])),
        ]);
        let s2 = LaunchKey::arg_shape(&[
            ArgValue::Int(8),
            ArgValue::Array(ArrayArg::float(&[8], vec![1.0; 8])),
        ]);
        let s3 = LaunchKey::arg_shape(&[
            ArgValue::Int(16),
            ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[16])),
        ]);
        assert_eq!(s1, s2);
        assert_ne!(s1, s3);
    }

    #[test]
    fn memo_entry_cost_is_bit_identical_to_a_fresh_estimate() {
        use crate::stats::{SiteKey, SiteStats};
        let h = standard_hierarchy();
        let mut stats = KernelStats {
            total_threads: 4096.0,
            groups: 16.0,
            issue_cycles: 1.0e5 / 3.0,
            flops: 8192.0,
            global_bytes: 1.0e6 / 7.0,
            ideal_global_bytes: 1.0e5,
            ..KernelStats::default()
        };
        stats.sites.insert(
            SiteKey {
                line: 2,
                array: "a".into(),
                is_store: false,
            },
            SiteStats {
                executions: 128.0,
                ideal_bytes: 16384.0,
                transaction_bytes: 20000.0,
                broadcasts: 0.0,
            },
        );
        let mut memo = LaunchMemo::new();
        let key = LaunchKey {
            kernel: KernelId(0),
            level: LevelId(0),
            group_size: 256,
            warp_width: 32,
            shape: vec![4096],
        };
        memo.insert(key.clone(), stats.clone());
        // Interleave devices and scales so every call after the first per
        // (device, scale) is served from the entry.
        for _ in 0..2 {
            for kind in [DeviceKind::Gtx480, DeviceKind::K20, DeviceKind::XeonPhi] {
                let device = kind.level(&h);
                let params = h.device_params(device).unwrap();
                let class = DeviceClass::of(&h, device);
                for extra_scale in [1.0, 3.7, 0.25] {
                    let mut scaled = stats.clone();
                    scaled.scale(extra_scale);
                    let fresh = estimate_time(&scaled, &params, class).total_s;
                    let entry = memo.lookup(&key).unwrap();
                    let memoized = entry.total_s(device, &params, class, extra_scale);
                    assert_eq!(
                        memoized.to_bits(),
                        fresh.to_bits(),
                        "{kind} × {extra_scale}"
                    );
                }
            }
        }
        assert_eq!(memo.peek(&key).unwrap().issue_cycles, stats.issue_cycles);
    }

    #[test]
    fn exec_options_carry_geometry() {
        let h = standard_hierarchy();
        let ck = compile(TILED, &h).unwrap();
        let cfg = LaunchConfig::for_device(&ck, &h, DeviceKind::Gtx480.level(&h));
        let full = cfg.exec_full();
        assert_eq!(full.group_size, 128);
        assert_eq!(full.simd_width, 32);
        assert!(full.sample.is_none());
        let sampled = cfg.exec_sampled(Sampling::default());
        assert!(sampled.sample.is_some());
    }
}
