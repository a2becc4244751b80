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
//! per shape instead of once per job. Below that per-run memo sits a
//! process-wide tier for launches on phantom (shape-only) arguments: their
//! statistics are a pure function of the launch, so each one is
//! interpreted once per process and every later run reuses it.

use cashmere_des::obs::prof;
use cashmere_hwdesc::{Hierarchy, LevelId};
use cashmere_mcl::launch::{LaunchConfig, LaunchKey, LaunchMemo, MemoEntry};
use cashmere_mcl::stats::KernelStats;
use cashmere_mcl::value::{ArgValue, Buffer};
use cashmere_mcl::{compile, vm, CheckError, CheckedKernel, ExecError, Sampling};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

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

/// One registered kernel version: the checked kernel plus what the
/// process-wide tier keys its launches by.
#[derive(Debug)]
struct Version {
    ck: CheckedKernel,
    /// The exact source text. A `CheckedKernel` is a function of its source
    /// and level alone (see `CheckedKernel`), so (source, level)
    /// identifies the kernel across registries.
    source: Arc<str>,
    /// Parallelism-unit names of the version's level, as the VM gets them.
    units: Arc<[String]>,
}

/// One kernel: its versions, ordered by registration, and the launch each
/// hierarchy level resolves to.
#[derive(Debug)]
struct KernelVersions {
    name: String,
    versions: Vec<Version>,
    /// Indexed by `LevelId`; `None` where no version applies.
    launches: Vec<Option<Launch>>,
}

impl KernelVersions {
    /// Re-resolve every level after the version set changed.
    fn resolve(&mut self, id: KernelId, h: &Hierarchy) {
        let levels: Vec<LevelId> = self.versions.iter().map(|v| v.ck.level).collect();
        self.launches = (0..h.len())
            .map(|device| {
                let device = LevelId(device);
                let level = h.most_specific(&levels, device)?;
                let version = levels.iter().position(|&l| l == level)?;
                Some(Launch {
                    kernel: id,
                    version,
                    level,
                    config: LaunchConfig::for_device(&self.versions[version].ck, h, device),
                })
            })
            .collect();
    }
}

/// Key of the process-wide tier: everything `vm::execute` reads for a
/// sampled launch on phantom arguments — the kernel (source and level), the
/// parallelism units, the geometry, the sampling limits and the argument
/// shape. The map compares whole keys, never a hash of them.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct PhantomKey {
    source: Arc<str>,
    level: LevelId,
    units: Arc<[String]>,
    group_size: usize,
    warp_width: usize,
    sampling: Sampling,
    shape: Vec<i64>,
}

/// Entries the process-wide tier holds at most. Past the cap, inserts stop
/// and new shapes are interpreted once per run instead (still exact, only
/// slower). The paper workloads need a few dozen.
const PHANTOM_ENTRIES: usize = 1024;

/// The process-wide tier: sampled statistics of phantom launches, shared by
/// every registry (every run and every sweep worker) in the process.
static PHANTOM_STATS: Mutex<BTreeMap<PhantomKey, KernelStats>> = Mutex::new(BTreeMap::new());

/// Lock the process-wide tier. Entries go in whole, so a map poisoned by a
/// panicking holder is still consistent and is used as is.
fn phantom_stats() -> MutexGuard<'static, BTreeMap<PhantomKey, KernelStats>> {
    PHANTOM_STATS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Shape of an argument list whose arrays are all phantom, tagged so that
/// two different lists never encode alike: `[0, v]` per int, `[1, bits]`
/// per float, `[2, rank, dims…]` per float array and `[3, rank, dims…]` per
/// int array (phantom loads differ by element type). `None` when any array
/// holds real data, whose values the statistics may depend on.
fn phantom_shape(args: &[ArgValue]) -> Option<Vec<i64>> {
    let mut shape = Vec::new();
    for a in args {
        match a {
            ArgValue::Int(v) => shape.extend([0, *v]),
            ArgValue::Float(v) => shape.extend([1, v.to_bits() as i64]),
            ArgValue::Array(arr) => {
                let tag = match arr.data {
                    Buffer::PhantomF(_) => 2,
                    Buffer::PhantomI(_) => 3,
                    Buffer::F(_) | Buffer::I(_) => return None,
                };
                shape.extend([tag, arr.rank() as i64]);
                shape.extend(arr.dims.iter().map(|&d| d as i64));
            }
        }
    }
    Some(shape)
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
    /// Sampled launches this registry interpreted itself.
    vm_runs: u64,
    pub default_sampling: Sampling,
}

impl KernelRegistry {
    pub fn new(hierarchy: Hierarchy) -> KernelRegistry {
        KernelRegistry {
            hierarchy,
            ids: HashMap::new(),
            kernels: Vec::new(),
            memo: LaunchMemo::new(),
            vm_runs: 0,
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
        if entry.versions.iter().any(|v| v.ck.level == level) {
            return Err(CheckError {
                line: 1,
                message: format!(
                    "kernel `{name}` already has a version at level `{}`",
                    self.hierarchy.name(level)
                ),
            });
        }
        let units = self
            .hierarchy
            .effective_params(level)
            .par_units
            .iter()
            .map(|u| u.name.clone())
            .collect();
        entry.versions.push(Version {
            ck,
            source: src.into(),
            units,
        });
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
                    .map(|v| v.ck.level)
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
        &self.kernels[launch.kernel.0 as usize].versions[launch.version].ck
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

    /// Unscaled statistics of a sampled `launch` on `args`, for a launch
    /// the per-run memo missed. When every array in `args` is phantom, the
    /// statistics are a pure function of the [`PhantomKey`], so they come
    /// from the process-wide tier if any registry in this process already
    /// measured the launch; otherwise the VM runs and the result is stored
    /// there. Launches with real data always run the VM.
    pub fn measure(
        &mut self,
        launch: &Launch,
        args: &[ArgValue],
    ) -> Result<KernelStats, ExecError> {
        let version = &self.kernels[launch.kernel.0 as usize].versions[launch.version];
        let opts = launch.config.exec_sampled(self.default_sampling);
        let key = phantom_shape(args).map(|shape| PhantomKey {
            source: Arc::clone(&version.source),
            level: version.ck.level,
            units: Arc::clone(&version.units),
            group_size: opts.group_size,
            warp_width: opts.simd_width,
            sampling: self.default_sampling,
            shape,
        });
        if let Some(stats) = key.as_ref().and_then(|k| phantom_stats().get(k).cloned()) {
            return Ok(stats);
        }
        // The lock is not held here: two registries racing on one key both
        // run the VM and store identical bits.
        let stats = {
            let _prof = prof::scope("mcl::execute");
            vm::execute(&version.ck, args.to_vec(), &version.units, &opts)?.stats
        };
        self.vm_runs += 1;
        if let Some(key) = key {
            let mut tier = phantom_stats();
            if tier.len() < PHANTOM_ENTRIES {
                tier.entry(key).or_insert_with(|| stats.clone());
            }
        }
        Ok(stats)
    }

    /// Sampled launches this registry ran on the VM: per-run memo misses
    /// that the process-wide tier could not serve.
    pub fn vm_runs(&self) -> u64 {
        self.vm_runs
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

    // The process-wide tier is shared by every test in this binary. Each
    // test below launches a size no other test uses, so its first
    // registry is the only one that can fill its keys.

    fn phantom_axpy(n: u64) -> Vec<ArgValue> {
        vec![
            ArgValue::Int(n as i64),
            ArgValue::Array(ArrayArg::phantom(ElemTy::Float, &[n])),
            ArgValue::Array(ArrayArg::phantom(ElemTy::Float, &[n])),
        ]
    }

    /// Measure `args` on `device` in `r`; returns the stats and the VM runs
    /// the call added.
    fn measure_on(
        r: &mut KernelRegistry,
        device: DeviceKind,
        args: &[ArgValue],
    ) -> (KernelStats, u64) {
        let before = r.vm_runs();
        let launch = r
            .launch(r.kernel_id("axpy").unwrap(), device.level(r.hierarchy()))
            .unwrap();
        let stats = r.measure(&launch, args).unwrap();
        (stats, r.vm_runs() - before)
    }

    #[test]
    fn phantom_tier_serves_later_registries_bit_identically() {
        let args = phantom_axpy(3001);
        let mut first = registry();
        let (measured, runs) = measure_on(&mut first, DeviceKind::Gtx480, &args);
        assert_eq!(runs, 1, "a new shape runs the VM");
        let mut second = registry();
        let (shared, runs) = measure_on(&mut second, DeviceKind::Gtx480, &args);
        assert_eq!(runs, 0, "the second registry reuses the first's result");

        // Both equal a fresh VM run, bit for bit.
        let h = second.hierarchy();
        let launch = second
            .launch(
                second.kernel_id("axpy").unwrap(),
                DeviceKind::Gtx480.level(h),
            )
            .unwrap();
        let ck = second.version(&launch);
        let units: Vec<String> = h
            .effective_params(ck.level)
            .par_units
            .iter()
            .map(|u| u.name.clone())
            .collect();
        let opts = launch.config.exec_sampled(second.default_sampling);
        let fresh = vm::execute(ck, args.clone(), &units, &opts).unwrap().stats;
        for stats in [&measured, &shared] {
            assert_eq!(stats.counter_bits(), fresh.counter_bits());
            assert_eq!(format!("{stats:?}"), format!("{fresh:?}"));
        }
    }

    #[test]
    fn phantom_tier_keys_on_source_sampling_and_units() {
        let args = phantom_axpy(3002);
        let mut base = registry();
        assert_eq!(measure_on(&mut base, DeviceKind::Gtx480, &args).1, 1);
        // The Phi runs the perfect version.
        assert_eq!(measure_on(&mut base, DeviceKind::XeonPhi, &args).1, 1);

        // Same kernel name and level, different source.
        let mut other_source = KernelRegistry::new(standard_hierarchy());
        other_source.register(PERFECT).unwrap();
        other_source
            .register(&GPU.replace("2.0 * x[i]", "3.0 * x[i]"))
            .unwrap();
        assert_eq!(
            measure_on(&mut other_source, DeviceKind::Gtx480, &args).1,
            1
        );

        // Different sampling limits.
        let mut other_sampling = registry();
        other_sampling.default_sampling = Sampling {
            max_outer_iters: 3,
            max_chunks: 3,
        };
        assert_eq!(
            measure_on(&mut other_sampling, DeviceKind::Gtx480, &args).1,
            1
        );

        // Same source, level and geometry, but the perfect level declares
        // an extra parallelism unit.
        let hdl = cashmere_hwdesc::library::STANDARD_HDL.replace(
            "parallelism { unit threads; }",
            "parallelism { unit cores; unit threads; }",
        );
        let mut other_units = KernelRegistry::new(cashmere_hwdesc::hdl::parse(&hdl).unwrap());
        other_units.register(PERFECT).unwrap();
        other_units.register(GPU).unwrap();
        let phi = |r: &KernelRegistry| {
            r.launch(
                r.kernel_id("axpy").unwrap(),
                DeviceKind::XeonPhi.level(r.hierarchy()),
            )
            .unwrap()
        };
        let (a, b) = (phi(&base), phi(&other_units));
        assert_eq!((a.level, a.config), (b.level, b.config));
        assert_eq!(
            measure_on(&mut other_units, DeviceKind::XeonPhi, &args).1,
            1
        );

        // A registry that matches on every field is served.
        let mut same = registry();
        assert_eq!(measure_on(&mut same, DeviceKind::Gtx480, &args).1, 0);
        assert_eq!(measure_on(&mut same, DeviceKind::XeonPhi, &args).1, 0);
    }

    #[test]
    fn real_arrays_bypass_the_phantom_tier() {
        let n = 3003;
        let args = vec![
            ArgValue::Int(n as i64),
            ArgValue::Array(ArrayArg::phantom(ElemTy::Float, &[n])),
            ArgValue::Array(ArrayArg::float(&[n], vec![1.0; n as usize])),
        ];
        for _ in 0..2 {
            let mut r = registry();
            assert_eq!(measure_on(&mut r, DeviceKind::Gtx480, &args).1, 1);
        }
        assert_eq!(phantom_shape(&args), None);
        assert!(phantom_shape(&phantom_axpy(n)).is_some());
    }

    #[test]
    fn phantom_shape_tags_every_argument_kind() {
        // An int pair and a rank-1 array never encode alike, and the
        // element type of a phantom array is part of its shape.
        let ints = [ArgValue::Int(2), ArgValue::Int(1), ArgValue::Int(5)];
        let array = [ArgValue::Array(ArrayArg::phantom(ElemTy::Float, &[5]))];
        assert_ne!(phantom_shape(&ints), phantom_shape(&array));
        let int_array = [ArgValue::Array(ArrayArg::phantom(ElemTy::Int, &[5]))];
        assert_ne!(phantom_shape(&array), phantom_shape(&int_array));
        assert_ne!(
            phantom_shape(&[ArgValue::Int(1)]),
            phantom_shape(&[ArgValue::Float(f64::from_bits(1))])
        );
    }
}
