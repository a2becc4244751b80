//! The kernel registry: multiple MCPL versions per kernel, most-specific
//! selection per device, and a statistics cache.
//!
//! Applying stepwise refinement leaves the programmer with several files
//! holding versions of the same kernel at different levels (paper
//! Sec. III-A: `perfect`, `gpu`, `amd`, `hd7970`, …). The registry compiles
//! them all, and for each physical device "automatically chooses the most
//! specific kernel version". Kernel names are interned to dense
//! [`KernelId`]s, and the choice plus its launch geometry is resolved once
//! per (kernel, hierarchy level) when a version is registered, so a device
//! job reads a table instead of re-deriving it.
//!
//! Because leaf jobs in a divide-and-conquer application typically have the
//! same size (the paper's own observation in Sec. III-B), the registry also
//! caches interpreter statistics keyed by kernel version, launch geometry
//! and argument shape, so the cost of sampled interpretation is paid once
//! per shape instead of once per job.

use cashmere_des::obs::prof;
use cashmere_hwdesc::{Hierarchy, LevelId};
use cashmere_mcl::launch::{LaunchConfig, LaunchKey, LaunchMemo, MemoEntry};
use cashmere_mcl::stats::KernelStats;
use cashmere_mcl::value::ArgValue;
use cashmere_mcl::Sampling;
use cashmere_mcl::{compile, CheckError, CheckedKernel};
use std::collections::HashMap;

pub use cashmere_mcl::launch::KernelId;

/// A kernel launch resolved for one device level (paper Sec. III-A): the
/// most specific version and the geometry MCL derives for it on that
/// device. The registry resolves every (kernel, level) pair when a version
/// is registered, so a device job only reads its row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Launch {
    /// Private with `version`: together they index the registry.
    kernel: KernelId,
    /// Index of the selected version among the kernel's versions.
    version: usize,
    /// Level of the selected version.
    pub level: LevelId,
    pub config: LaunchConfig,
}

impl Launch {
    pub fn kernel(&self) -> KernelId {
        self.kernel
    }

    /// Memo key of a sampled launch of this version with argument shape
    /// `shape`.
    pub fn key(&self, shape: Vec<i64>) -> StatsKey {
        StatsKey {
            kernel: self.kernel,
            level: self.level,
            group_size: self.config.group_size,
            warp_width: self.config.warp_width,
            shape,
        }
    }
}

/// One kernel: its versions, ordered by registration, and the launch each
/// hierarchy level resolves to.
#[derive(Debug)]
struct KernelVersions {
    name: String,
    versions: Vec<CheckedKernel>,
    /// Indexed by `LevelId`; `None` where no version applies.
    launches: Vec<Option<Launch>>,
}

impl KernelVersions {
    /// Re-resolve every level after the version set changed.
    fn resolve(&mut self, id: KernelId, h: &Hierarchy) {
        let levels: Vec<LevelId> = self.versions.iter().map(|v| v.level).collect();
        self.launches = (0..h.len())
            .map(|device| {
                let device = LevelId(device);
                let level = h.most_specific(&levels, device)?;
                let version = levels.iter().position(|&l| l == level)?;
                Some(Launch {
                    kernel: id,
                    version,
                    level,
                    config: LaunchConfig::for_device(&self.versions[version], h, device),
                })
            })
            .collect();
    }
}

/// Cache key: kernel identity + geometry + argument shape (the memoization
/// key defined by the MCL launch layer).
pub type StatsKey = LaunchKey;

/// Shape signature of an argument list (scalars + array dims).
pub fn arg_shape(args: &[ArgValue]) -> Vec<i64> {
    LaunchKey::arg_shape(args)
}

/// Registry of compiled kernels plus the hardware hierarchy they target.
pub struct KernelRegistry {
    hierarchy: Hierarchy,
    /// Interned kernel names; `kernels[id.0]` holds kernel `id`.
    ids: HashMap<String, KernelId>,
    kernels: Vec<KernelVersions>,
    memo: LaunchMemo,
    pub default_sampling: Sampling,
}

impl KernelRegistry {
    pub fn new(hierarchy: Hierarchy) -> KernelRegistry {
        KernelRegistry {
            hierarchy,
            ids: HashMap::new(),
            kernels: Vec::new(),
            memo: LaunchMemo::new(),
            default_sampling: Sampling::default(),
        }
    }

    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Compile and register one kernel version. The kernel's name comes
    /// from the source; its level from the leading keyword. Registering two
    /// versions of the same kernel at the same level is an error.
    pub fn register(&mut self, src: &str) -> Result<(String, LevelId), CheckError> {
        let _prof = prof::scope("mcl::compile");
        let ck = compile(src, &self.hierarchy)?;
        let name = ck.kernel.name.clone();
        let level = ck.level;
        let id = match self.ids.get(&name) {
            Some(&id) => id,
            None => {
                let id =
                    KernelId(u32::try_from(self.kernels.len()).expect("fewer than 2^32 kernels"));
                self.ids.insert(name.clone(), id);
                self.kernels.push(KernelVersions {
                    name: name.clone(),
                    versions: Vec::new(),
                    launches: Vec::new(),
                });
                id
            }
        };
        let entry = &mut self.kernels[id.0 as usize];
        if entry.versions.iter().any(|v| v.level == level) {
            return Err(CheckError {
                line: 1,
                message: format!(
                    "kernel `{name}` already has a version at level `{}`",
                    self.hierarchy.name(level)
                ),
            });
        }
        entry.versions.push(ck);
        entry.resolve(id, &self.hierarchy);
        Ok((name, level))
    }

    /// Kernel names registered.
    pub fn kernel_names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.kernels.iter().map(|k| k.name.as_str()).collect();
        v.sort_unstable();
        v
    }

    /// Dense id of a registered kernel.
    pub fn kernel_id(&self, kernel: &str) -> Option<KernelId> {
        self.ids.get(kernel).copied()
    }

    /// Name of a registered kernel.
    pub fn kernel_name(&self, id: KernelId) -> &str {
        &self.kernels[id.0 as usize].name
    }

    /// Levels a kernel has versions for.
    pub fn versions_of(&self, kernel: &str) -> Vec<LevelId> {
        self.kernel_id(kernel)
            .map(|id| {
                self.kernels[id.0 as usize]
                    .versions
                    .iter()
                    .map(|v| v.level)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The launch of kernel `id` on `device`, resolved at registration.
    /// `None` when no version applies — the caller falls back to the CPU
    /// leaf.
    pub fn launch(&self, id: KernelId, device: LevelId) -> Option<Launch> {
        *self.kernels[id.0 as usize].launches.get(device.0)?
    }

    /// The checked kernel version a resolved launch runs.
    pub fn version(&self, launch: &Launch) -> &CheckedKernel {
        &self.kernels[launch.kernel.0 as usize].versions[launch.version]
    }

    /// Most-specific version of `kernel` applicable to `device`
    /// (paper Sec. III-A). `None` when no version applies — the caller
    /// falls back to the CPU leaf.
    pub fn select(&self, kernel: &str, device: LevelId) -> Option<&CheckedKernel> {
        let launch = self.launch(self.kernel_id(kernel)?, device)?;
        Some(self.version(&launch))
    }

    /// Paper Sec. III-B: nodes whose devices have no applicable hardware
    /// description (or no kernel version) get a suggestion to add one.
    pub fn coverage_suggestions(&self, kernel: &str, devices: &[LevelId]) -> Vec<String> {
        let mut out = Vec::new();
        for &d in devices {
            if self.select(kernel, d).is_none() {
                out.push(format!(
                    "device `{}` has no applicable version of kernel `{kernel}`: \
                     add a hardware description or a higher-level kernel version",
                    self.hierarchy.name(d)
                ));
            }
        }
        out
    }

    /// Launch geometry for `kernel` on `device`.
    pub fn launch_config(&self, kernel: &str, device: LevelId) -> Option<LaunchConfig> {
        Some(self.launch(self.kernel_id(kernel)?, device)?.config)
    }

    /// Look up a memoized launch, counting the hit or miss. A hit borrows
    /// the entry: its statistics and the costs already modelled from them.
    pub fn cached_stats(&mut self, key: &StatsKey) -> Option<&mut MemoEntry> {
        let _prof = prof::scope("mcl::memo");
        self.memo.lookup(key)
    }

    /// Insert statistics into the memo table and return the new entry.
    pub fn cache_stats(&mut self, key: StatsKey, stats: KernelStats) -> &mut MemoEntry {
        self.memo.insert(key, stats)
    }

    pub fn cache_len(&self) -> usize {
        self.memo.len()
    }

    /// Memoized sampled launches served from the cache so far.
    pub fn cache_hits(&self) -> u64 {
        self.memo.hits()
    }

    /// Sampled launches that had to be interpreted (then memoized).
    pub fn cache_misses(&self) -> u64 {
        self.memo.misses()
    }

    /// The memo table itself (deterministic iteration).
    pub fn memo(&self) -> &LaunchMemo {
        &self.memo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cashmere_hwdesc::{standard_hierarchy, DeviceKind};
    use cashmere_mcl::value::ArrayArg;
    use cashmere_mcl::ElemTy;

    const PERFECT: &str = "perfect void axpy(int n, float[n] y, float[n] x) {
  foreach (int i in n threads) { y[i] += 2.0 * x[i]; }
}";
    const GPU: &str = "gpu void axpy(int n, float[n] y, float[n] x) {
  foreach (int b in (n + 255) / 256 blocks) {
    foreach (int t in 256 threads) {
      int i = b * 256 + t;
      if (i < n) { y[i] += 2.0 * x[i]; }
    }
  }
}";

    fn registry() -> KernelRegistry {
        let mut r = KernelRegistry::new(standard_hierarchy());
        r.register(PERFECT).unwrap();
        r.register(GPU).unwrap();
        r
    }

    #[test]
    fn registration_and_selection() {
        let r = registry();
        let h = r.hierarchy();
        assert_eq!(r.kernel_names(), vec!["axpy"]);
        assert_eq!(r.versions_of("axpy").len(), 2);
        // GPUs get the gpu version, the Phi falls back to perfect.
        let gtx = r.select("axpy", DeviceKind::Gtx480.level(h)).unwrap();
        assert_eq!(h.name(gtx.level), "gpu");
        let phi = r.select("axpy", DeviceKind::XeonPhi.level(h)).unwrap();
        assert_eq!(h.name(phi.level), "perfect");
        assert!(r
            .select("nonexistent", DeviceKind::Gtx480.level(h))
            .is_none());
    }

    #[test]
    fn launch_table_follows_each_registration() {
        let mut r = KernelRegistry::new(standard_hierarchy());
        r.register(PERFECT).unwrap();
        let h = standard_hierarchy();
        let id = r.kernel_id("axpy").unwrap();
        assert_eq!(r.kernel_name(id), "axpy");
        assert!(r.kernel_id("nonexistent").is_none());
        let gtx = DeviceKind::Gtx480.level(&h);
        assert_eq!(h.name(r.launch(id, gtx).unwrap().level), "perfect");
        // A more specific version re-resolves the row.
        r.register(GPU).unwrap();
        assert_eq!(r.kernel_id("axpy"), Some(id), "ids are stable");
        let versions = r.versions_of("axpy");
        for level in (0..h.len()).map(LevelId) {
            let launch = r.launch(id, level);
            assert_eq!(launch.map(|l| l.level), h.most_specific(&versions, level));
            if let Some(launch) = launch {
                let ck = r.version(&launch);
                assert_eq!(ck.level, launch.level);
                assert_eq!(launch.config, LaunchConfig::for_device(ck, &h, level));
            }
        }
        assert_eq!(h.name(r.launch(id, gtx).unwrap().level), "gpu");
    }

    #[test]
    fn duplicate_level_rejected() {
        let mut r = registry();
        let err = r.register(PERFECT).unwrap_err();
        assert!(err.message.contains("already has a version"));
    }

    #[test]
    fn coverage_suggestions_for_uncovered_device() {
        let mut r = KernelRegistry::new(standard_hierarchy());
        // Only an hd7970-specific version: NVIDIA devices are uncovered.
        r.register(
            "hd7970 void only_amd(int n, float[n] a) {
  foreach (int b in (n + 255) / 256 blocks) {
    foreach (int t in 256 threads) {
      int i = b * 256 + t;
      if (i < n) { a[i] = 0.0; }
    }
  }
}",
        )
        .unwrap();
        let h = standard_hierarchy();
        let devices = vec![DeviceKind::Gtx480.level(&h), DeviceKind::Hd7970.level(&h)];
        let sugg = r.coverage_suggestions("only_amd", &devices);
        assert_eq!(sugg.len(), 1);
        assert!(sugg[0].contains("gtx480"));
    }

    #[test]
    fn launch_config_respects_version_choice() {
        let r = registry();
        let h = standard_hierarchy();
        // gpu version pins 256 threads.
        let cfg = r
            .launch_config("axpy", DeviceKind::Gtx480.level(&h))
            .unwrap();
        assert_eq!(cfg.group_size, 256);
        // perfect version on phi: class default.
        let cfg = r
            .launch_config("axpy", DeviceKind::XeonPhi.level(&h))
            .unwrap();
        assert_eq!(cfg.warp_width, 16);
    }

    #[test]
    fn arg_shape_distinguishes_sizes_not_contents() {
        let a1 = vec![
            ArgValue::Int(8),
            ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[8])),
        ];
        let a2 = vec![
            ArgValue::Int(8),
            ArgValue::Array(ArrayArg::float(&[8], vec![1.0; 8])),
        ];
        let a3 = vec![
            ArgValue::Int(16),
            ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[16])),
        ];
        assert_eq!(arg_shape(&a1), arg_shape(&a2), "contents don't matter");
        assert_ne!(arg_shape(&a1), arg_shape(&a3), "sizes do");
    }

    #[test]
    fn stats_cache_roundtrip() {
        let mut r = registry();
        let key = StatsKey {
            kernel: r.kernel_id("axpy").unwrap(),
            level: r.hierarchy().id("gpu").unwrap(),
            group_size: 256,
            warp_width: 32,
            shape: vec![1024],
        };
        assert!(r.cached_stats(&key).is_none());
        r.cache_stats(key.clone(), KernelStats::default());
        assert!(r.cached_stats(&key).is_some());
        assert_eq!(r.cache_len(), 1);
        assert_eq!((r.cache_hits(), r.cache_misses()), (1, 1));
    }
}
