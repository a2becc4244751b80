//! Cashmere's device load balancer: shared bookkeeping + pluggable
//! placement policies (the "policy arena").
//!
//! The paper's two-phase algorithm (Sec. III-B) is the default policy:
//!
//! "Initially, Cashmere uses a heuristic based on a static table of relative
//! many-core device speeds to schedule the first jobs. […] When these jobs
//! have completed, we know the execution time for each kernel for a specific
//! device. Based on this time Cashmere submits the jobs to the different
//! queues for each device trying to minimize the overall execution time for
//! all jobs."
//!
//! The worked example from the paper is reproduced verbatim in the tests:
//! a K20 queue holding 3×100 ms and a GTX480 queue holding 1×125 ms receive
//! a new job; `scenario1 = max(4·100, 1·125)`, `scenario2 = max(3·100,
//! 2·125)`, and since `scenario2` is smaller the job goes to the GTX480.
//!
//! [`Balancer`] owns what every policy needs — the static speed table,
//! per-device queue depths, retired devices, and measured kernel times —
//! and exposes it to a boxed [`PlacementPolicy`] as a read-only
//! [`BalancerView`]. A policy's `decide` must be a deterministic function
//! of the view and its own internal state; a stochastic policy must draw
//! exclusively from a `StreamRng` it owns (seeded via `StreamRng::named`
//! from the run seed) so it never perturbs any other component's stream.
//! None of the built-in policies consume randomness at all.

use cashmere_des::SimTime;
use serde::{Content, DeError, Deserialize, Serialize};

/// Device-selection policy. [`Policy::Scenario`] is the paper's algorithm;
/// the others are arena contenders and ablation baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Policy {
    /// Sec. III-B: minimize the scenario makespan over per-device time
    /// estimates (static table until measured).
    #[default]
    Scenario,
    /// Ignore speeds entirely: rotate over the devices.
    RoundRobin,
    /// Greedy: always the device with the best time estimate, ignoring
    /// queue depths.
    FastestOnly,
    /// HEFT-style lookahead: minimize this job's estimated finish time
    /// `(queued_d + 1) · t_d` over the outstanding estimates.
    Heft,
    /// EngineCL-style dynamic chunking: devices claim consecutive runs of
    /// jobs whose length adapts to their current relative speed.
    DynamicChunk,
    /// Ablation baseline: the scenario rule frozen on the static speed
    /// table — it never switches to measured times.
    StaticTable,
}

// Hand-written so the JSON form is the stable kebab-case CLI name
// (`scenario`, `round-robin`, `fastest-only`, …, with aliases like
// `greedy` accepted and normalized on load).
impl Serialize for Policy {
    fn to_content(&self) -> Content {
        Content::Str(self.name().to_string())
    }
}

impl Deserialize for Policy {
    fn from_content(content: &Content) -> Result<Policy, DeError> {
        match content.as_str() {
            Some(s) => Policy::parse(s).ok_or_else(|| DeError::unknown_variant(s, "Policy")),
            None => Err(DeError::expected("string", "Policy", content)),
        }
    }
}

impl Policy {
    pub const ALL: [Policy; 6] = [
        Policy::Scenario,
        Policy::RoundRobin,
        Policy::FastestOnly,
        Policy::Heft,
        Policy::DynamicChunk,
        Policy::StaticTable,
    ];

    /// Stable CLI/JSON name (`scenario`, `round-robin`, `fastest-only`,
    /// `heft`, `dynamic-chunk`, `static-table`).
    pub fn name(self) -> &'static str {
        match self {
            Policy::Scenario => "scenario",
            Policy::RoundRobin => "round-robin",
            Policy::FastestOnly => "fastest-only",
            Policy::Heft => "heft",
            Policy::DynamicChunk => "dynamic-chunk",
            Policy::StaticTable => "static-table",
        }
    }

    /// Parse a policy name. Aliases (`greedy`, `heft-lookahead`, …) are
    /// normalized: the parsed value round-trips through [`Policy::name`]
    /// as the canonical spelling.
    pub fn parse(s: &str) -> Option<Policy> {
        match s.to_ascii_lowercase().as_str() {
            "scenario" => Some(Policy::Scenario),
            "round-robin" | "roundrobin" => Some(Policy::RoundRobin),
            "fastest-only" | "fastestonly" | "greedy" => Some(Policy::FastestOnly),
            "heft" | "heft-lookahead" => Some(Policy::Heft),
            "dynamic-chunk" | "dynamicchunk" | "chunk" => Some(Policy::DynamicChunk),
            "static-table" | "statictable" => Some(Policy::StaticTable),
            _ => None,
        }
    }
}

/// Self-description of the policy instance that made a placement decision:
/// canonical name plus the instance's tuning parameters. Recorded in every
/// audit-log entry so tournament artifacts are self-describing.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyDesc {
    pub name: String,
    /// Tuning parameters, in a stable declared order (empty for the
    /// parameterless policies).
    pub params: Vec<(String, f64)>,
}

impl PolicyDesc {
    pub fn named(name: &str) -> PolicyDesc {
        PolicyDesc {
            name: name.to_string(),
            params: Vec::new(),
        }
    }
}

impl Serialize for PolicyDesc {
    fn to_content(&self) -> Content {
        let params = self
            .params
            .iter()
            .map(|(k, v)| (Content::Str(k.clone()), Content::F64(*v)))
            .collect();
        Content::Map(vec![
            (
                Content::Str("name".to_string()),
                Content::Str(self.name.clone()),
            ),
            (Content::Str("params".to_string()), Content::Map(params)),
        ])
    }
}

/// Read-only snapshot of the balancer's bookkeeping at decision time: what
/// a [`PlacementPolicy`] reasons about.
pub struct BalancerView<'a> {
    /// The kernel being placed.
    pub kernel: &'a str,
    /// Static relative speed table (paper: K20 = 40, GTX480 = 20).
    pub speeds: &'a [f64],
    /// Jobs currently queued or running per device.
    pub queued: &'a [usize],
    /// Devices permanently retired (failed).
    pub dead: &'a [bool],
    /// Per-device time estimate for `kernel` in seconds (measured wins,
    /// then extrapolation, then the static reciprocal) — see
    /// [`Balancer::estimates`].
    pub estimates: &'a [f64],
    /// Which devices have a measured time for `kernel`.
    pub measured: &'a [bool],
}

impl BalancerView<'_> {
    fn devices(&self) -> usize {
        self.speeds.len()
    }
}

/// A placement policy: the decision layer of the balancer, behind a trait
/// object so contenders can be added without touching the runtime.
///
/// Contract: `decide` must be deterministic given the view, the mask and
/// the policy's own state. A policy that wants randomness must own a
/// `StreamRng` (seeded via `StreamRng::named` from the run seed) — it must
/// never share another component's stream. `observe_completion` fires once
/// per finished device job, before the next decision for that node.
pub trait PlacementPolicy: Send {
    /// The spec tag this policy was built from.
    fn kind(&self) -> Policy;

    /// Name + parameters, for the audit log. Defaults to the kind's
    /// canonical name with no parameters.
    fn describe(&self) -> PolicyDesc {
        PolicyDesc::named(self.kind().name())
    }

    /// Pick a device for the next job among `allowed` candidates, or
    /// `None` when no live allowed device exists.
    fn decide(&mut self, view: &BalancerView<'_>, allowed: &[bool]) -> Option<usize>;

    /// Candidate table for the audit log. Defaults to the scenario table
    /// (one row per device, `scenario_s` as the Sec. III-B rule computes
    /// it); policies whose decision inputs differ should override so the
    /// audit reflects what they actually saw.
    fn explain(&self, view: &BalancerView<'_>, allowed: &[bool]) -> Vec<DeviceEstimate> {
        scenario_table(view, allowed)
    }

    /// A job of `kernel` finished on `device` taking `time`.
    fn observe_completion(&mut self, _kernel: &str, _device: usize, _time: SimTime) {}

    fn clone_box(&self) -> Box<dyn PlacementPolicy>;
}

/// Build the built-in policy for a spec tag.
pub fn build_policy(kind: Policy) -> Box<dyn PlacementPolicy> {
    match kind {
        Policy::Scenario => Box::new(ScenarioPolicy),
        Policy::RoundRobin => Box::new(RoundRobinPolicy { next: 0 }),
        Policy::FastestOnly => Box::new(FastestOnlyPolicy),
        Policy::Heft => Box::new(HeftPolicy),
        Policy::DynamicChunk => Box::new(DynamicChunkPolicy::default()),
        Policy::StaticTable => Box::new(StaticTablePolicy),
    }
}

/// The Sec. III-B rule over a set of per-device times: minimize
/// `max_e (queued_e + [e == d]) · t_e` over allowed live devices. Ties
/// break toward the lower device index (deterministic).
fn scenario_pick(
    view: &BalancerView<'_>,
    times: &[f64],
    allowed: Option<&[bool]>,
) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for d in 0..view.devices() {
        if view.dead[d] {
            continue;
        }
        if let Some(mask) = allowed {
            if !mask[d] {
                continue;
            }
        }
        let mut scenario: f64 = 0.0;
        for (e, t) in times.iter().enumerate() {
            if view.dead[e] {
                continue;
            }
            let q = view.queued[e] + usize::from(e == d);
            scenario = scenario.max(q as f64 * t);
        }
        match best {
            Some((_, v)) if v <= scenario => {}
            _ => best = Some((d, scenario)),
        }
    }
    best.map(|(d, _)| d)
}

/// Candidate table over a set of per-device times: one row per device,
/// `scenario_s` populated exactly as [`scenario_pick`] computes it, so the
/// row with the smallest `scenario_s` (lowest index on ties) is the device
/// that rule picks.
fn scenario_rows(view: &BalancerView<'_>, times: &[f64], allowed: &[bool]) -> Vec<DeviceEstimate> {
    (0..view.devices())
        .map(|d| {
            let candidate = allowed[d] && !view.dead[d];
            let scenario_s = candidate.then(|| {
                let mut scenario: f64 = 0.0;
                for (e, t) in times.iter().enumerate() {
                    if view.dead[e] {
                        continue;
                    }
                    let q = view.queued[e] + usize::from(e == d);
                    scenario = scenario.max(q as f64 * t);
                }
                scenario
            });
            DeviceEstimate {
                device: d,
                queued: view.queued[d],
                estimate_s: times[d],
                measured: view.measured[d],
                dead: view.dead[d],
                allowed: allowed[d],
                scenario_s,
            }
        })
        .collect()
}

fn scenario_table(view: &BalancerView<'_>, allowed: &[bool]) -> Vec<DeviceEstimate> {
    scenario_rows(view, view.estimates, allowed)
}

/// Static-table reciprocals: the first-phase times, never measured.
fn static_times(view: &BalancerView<'_>) -> Vec<f64> {
    view.speeds.iter().map(|s| 1.0 / s).collect()
}

/// The paper's two-phase algorithm (Sec. III-B).
#[derive(Debug, Clone)]
struct ScenarioPolicy;

impl PlacementPolicy for ScenarioPolicy {
    fn kind(&self) -> Policy {
        Policy::Scenario
    }

    fn decide(&mut self, view: &BalancerView<'_>, allowed: &[bool]) -> Option<usize> {
        scenario_pick(view, view.estimates, Some(allowed))
    }

    fn clone_box(&self) -> Box<dyn PlacementPolicy> {
        Box::new(self.clone())
    }
}

/// Rotate over the devices, skipping retired/excluded ones.
#[derive(Debug, Clone)]
struct RoundRobinPolicy {
    next: usize,
}

impl PlacementPolicy for RoundRobinPolicy {
    fn kind(&self) -> Policy {
        Policy::RoundRobin
    }

    fn decide(&mut self, view: &BalancerView<'_>, allowed: &[bool]) -> Option<usize> {
        let n = view.devices();
        for k in 0..n {
            let d = (self.next + k) % n;
            if allowed[d] && !view.dead[d] {
                self.next = (d + 1) % n;
                return Some(d);
            }
        }
        None
    }

    fn clone_box(&self) -> Box<dyn PlacementPolicy> {
        Box::new(self.clone())
    }
}

/// Always the best time estimate, ignoring queue depths.
#[derive(Debug, Clone)]
struct FastestOnlyPolicy;

impl PlacementPolicy for FastestOnlyPolicy {
    fn kind(&self) -> Policy {
        Policy::FastestOnly
    }

    fn decide(&mut self, view: &BalancerView<'_>, allowed: &[bool]) -> Option<usize> {
        (0..view.devices())
            .filter(|&d| allowed[d] && !view.dead[d])
            .min_by(|&a, &b| view.estimates[a].total_cmp(&view.estimates[b]))
    }

    fn clone_box(&self) -> Box<dyn PlacementPolicy> {
        Box::new(self.clone())
    }
}

/// HEFT-style earliest-finish-time lookahead: this job would finish on
/// device `d` after the backlog ahead of it, at `(queued_d + 1) · t_d`.
/// Unlike the scenario rule it ignores the makespan contribution of the
/// *other* queues, so a long queue elsewhere never masks the local choice.
#[derive(Debug, Clone)]
struct HeftPolicy;

impl PlacementPolicy for HeftPolicy {
    fn kind(&self) -> Policy {
        Policy::Heft
    }

    fn decide(&mut self, view: &BalancerView<'_>, allowed: &[bool]) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (d, &ok) in allowed.iter().enumerate().take(view.devices()) {
            if !ok || view.dead[d] {
                continue;
            }
            let finish = (view.queued[d] + 1) as f64 * view.estimates[d];
            match best {
                Some((_, v)) if v <= finish => {}
                _ => best = Some((d, finish)),
            }
        }
        best.map(|(d, _)| d)
    }

    fn clone_box(&self) -> Box<dyn PlacementPolicy> {
        Box::new(self.clone())
    }
}

/// EngineCL-style dynamic chunking: a device claims a run ("chunk") of
/// consecutive jobs, sized to its current relative speed, so fast devices
/// get long runs and slow devices short ones. When a chunk is exhausted
/// the policy re-reads the estimates — which migrate from the static table
/// to measured times as completions arrive — and starts a new chunk on the
/// device with the least outstanding backlog; chunk lengths therefore
/// adapt over the run without an explicit feedback controller.
#[derive(Debug, Clone)]
struct DynamicChunkPolicy {
    /// Device currently consuming a chunk, and how many jobs remain in it.
    current: Option<usize>,
    left: usize,
    /// Chunk length granted to a device at relative speed 1.0.
    base: usize,
    /// Cap on any single chunk.
    max: usize,
}

impl Default for DynamicChunkPolicy {
    fn default() -> DynamicChunkPolicy {
        DynamicChunkPolicy {
            current: None,
            left: 0,
            base: 4,
            max: 16,
        }
    }
}

impl PlacementPolicy for DynamicChunkPolicy {
    fn kind(&self) -> Policy {
        Policy::DynamicChunk
    }

    fn describe(&self) -> PolicyDesc {
        PolicyDesc {
            name: self.kind().name().to_string(),
            params: vec![
                ("base".to_string(), self.base as f64),
                ("max".to_string(), self.max as f64),
            ],
        }
    }

    fn decide(&mut self, view: &BalancerView<'_>, allowed: &[bool]) -> Option<usize> {
        if let Some(c) = self.current {
            if self.left > 0 && allowed[c] && !view.dead[c] {
                self.left -= 1;
                return Some(c);
            }
        }
        // Start a new chunk: least outstanding backlog wins (ties toward
        // the lower index), sized by the winner's speed relative to the
        // fastest candidate.
        let mut best: Option<(usize, f64)> = None;
        let mut t_min = f64::INFINITY;
        for (d, &ok) in allowed.iter().enumerate().take(view.devices()) {
            if !ok || view.dead[d] {
                continue;
            }
            t_min = t_min.min(view.estimates[d]);
            let backlog = view.queued[d] as f64 * view.estimates[d];
            match best {
                Some((_, v)) if v <= backlog => {}
                _ => best = Some((d, backlog)),
            }
        }
        let (d, _) = best?;
        let ratio = if view.estimates[d] > 0.0 {
            t_min / view.estimates[d]
        } else {
            1.0
        };
        let chunk = ((self.base as f64 * ratio).round() as usize).clamp(1, self.max);
        self.current = Some(d);
        self.left = chunk - 1;
        Some(d)
    }

    fn observe_completion(&mut self, _kernel: &str, device: usize, _time: SimTime) {
        // A completion means fresh measurements may have landed: end the
        // completing device's chunk early so the next decision re-reads
        // the estimates instead of riding a stale grant.
        if self.current == Some(device) {
            self.left = 0;
        }
    }

    fn clone_box(&self) -> Box<dyn PlacementPolicy> {
        Box::new(self.clone())
    }
}

/// The scenario rule frozen on the static speed table: never switches to
/// measured times (the paper's first phase, made permanent — the baseline
/// the two-phase design is measured against).
#[derive(Debug, Clone)]
struct StaticTablePolicy;

impl PlacementPolicy for StaticTablePolicy {
    fn kind(&self) -> Policy {
        Policy::StaticTable
    }

    fn decide(&mut self, view: &BalancerView<'_>, allowed: &[bool]) -> Option<usize> {
        scenario_pick(view, &static_times(view), Some(allowed))
    }

    fn explain(&self, view: &BalancerView<'_>, allowed: &[bool]) -> Vec<DeviceEstimate> {
        // The audit must show the inputs this policy actually used: the
        // static reciprocals, never flagged as measured.
        let times = static_times(view);
        let mut rows = scenario_rows(view, &times, allowed);
        for r in &mut rows {
            r.measured = false;
        }
        rows
    }

    fn clone_box(&self) -> Box<dyn PlacementPolicy> {
        Box::new(self.clone())
    }
}

/// Per-device queue state the balancer reasons about.
#[derive(Debug, Clone)]
pub struct QueueView {
    /// Static relative speed (paper: K20 = 40, GTX480 = 20).
    pub relative_speed: f64,
    /// Jobs currently queued or running on the device.
    pub queued: usize,
}

/// One device's candidacy for a kernel call, as seen by the balancer at
/// decision time. Rows of the audit log's candidate tables.
#[derive(Debug, Clone, Serialize)]
pub struct DeviceEstimate {
    pub device: usize,
    /// Jobs queued or running on the device when the choice was made.
    pub queued: usize,
    /// Per-job time estimate in seconds (measured, extrapolated from a
    /// measured reference, or the static-table reciprocal).
    pub estimate_s: f64,
    /// Whether the estimate comes from a measured execution of this kernel
    /// on this device (the paper's second phase) rather than the static
    /// speed table.
    pub measured: bool,
    pub dead: bool,
    /// Whether the device has an applicable kernel version.
    pub allowed: bool,
    /// Scenario makespan `max_e (queued_e + [e==d])·t_e` if the job were
    /// sent here; `None` when the device is not a candidate.
    pub scenario_s: Option<f64>,
}

/// The per-node balancer: static speed table seeding + measured kernel
/// times per device, with decisions delegated to a [`PlacementPolicy`].
pub struct Balancer {
    speeds: Vec<f64>,
    queued: Vec<usize>,
    /// Devices permanently retired (failed); never chosen again.
    dead: Vec<bool>,
    /// Kernels with a measurement row, in first-completion order: row `k`
    /// of `measured` belongs to `kernels[k]`.
    kernels: Vec<String>,
    /// Measured execution time per kernel row, one slot per device index.
    measured: Vec<Vec<Option<SimTime>>>,
    /// Selection policy (`Option` only so decisions can temporarily take
    /// it out past the borrow on the view; always `Some` between calls).
    policy: Option<Box<dyn PlacementPolicy>>,
}

impl Clone for Balancer {
    fn clone(&self) -> Balancer {
        Balancer {
            speeds: self.speeds.clone(),
            queued: self.queued.clone(),
            dead: self.dead.clone(),
            kernels: self.kernels.clone(),
            measured: self.measured.clone(),
            policy: self.policy.as_ref().map(|p| p.clone_box()),
        }
    }
}

impl std::fmt::Debug for Balancer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Balancer")
            .field("speeds", &self.speeds)
            .field("queued", &self.queued)
            .field("dead", &self.dead)
            .field("policy", &self.policy_kind().name())
            .finish_non_exhaustive()
    }
}

impl Balancer {
    /// Build from the devices' static relative speeds, with the paper's
    /// scenario policy.
    pub fn new(relative_speeds: &[f64]) -> Balancer {
        assert!(!relative_speeds.is_empty(), "a node needs ≥1 device");
        Balancer {
            speeds: relative_speeds.to_vec(),
            queued: vec![0; relative_speeds.len()],
            dead: vec![false; relative_speeds.len()],
            kernels: Vec::new(),
            measured: Vec::new(),
            policy: Some(build_policy(Policy::Scenario)),
        }
    }

    /// Swap in the built-in policy for `kind` (fresh internal state).
    pub fn set_policy(&mut self, kind: Policy) {
        self.policy = Some(build_policy(kind));
    }

    /// Swap in an arbitrary policy instance (arena extension point).
    pub fn set_placement(&mut self, policy: Box<dyn PlacementPolicy>) {
        self.policy = Some(policy);
    }

    /// The spec tag of the active policy.
    pub fn policy_kind(&self) -> Policy {
        self.policy.as_ref().expect("policy present").kind()
    }

    /// Name + parameters of the active policy, for the audit log.
    pub fn describe_policy(&self) -> PolicyDesc {
        self.policy.as_ref().expect("policy present").describe()
    }

    /// Permanently retire a failed device: it is never chosen again, its
    /// queue no longer contributes to scenario makespans, and its
    /// measurements are dropped (they must not seed extrapolation for the
    /// survivors).
    pub fn retire_device(&mut self, device: usize) {
        self.dead[device] = true;
        self.queued[device] = 0;
        for row in &mut self.measured {
            row[device] = None;
        }
    }

    /// Is `device` retired?
    pub fn is_retired(&self, device: usize) -> bool {
        self.dead[device]
    }

    /// Are any devices still usable?
    pub fn any_alive(&self) -> bool {
        self.dead.iter().any(|d| !d)
    }

    pub fn device_count(&self) -> usize {
        self.speeds.len()
    }

    /// The static relative-speed table entry of `device`.
    pub fn speed(&self, device: usize) -> f64 {
        self.speeds[device]
    }

    /// Scale the static relative-speed table entry of `device` by `factor`
    /// (advisor what-if: perturb the balancer's *belief* about a device
    /// without touching the device itself). Affects first-phase placement
    /// and the extrapolation ratio for unmeasured devices; measured kernel
    /// times still win, exactly as a miscalibrated seed table would behave.
    pub fn scale_speed(&mut self, device: usize, factor: f64) {
        assert!(factor.is_finite() && factor > 0.0, "bad table factor");
        self.speeds[device] *= factor;
    }

    pub fn queued(&self, device: usize) -> usize {
        self.queued[device]
    }

    /// Record that a job was submitted to `device`.
    pub fn on_submit(&mut self, device: usize) {
        self.queued[device] += 1;
    }

    /// Record that a job completed on `device` with the given kernel time —
    /// from now on the balancer knows this kernel's speed on this device.
    /// The active policy observes the completion too.
    pub fn on_complete(&mut self, kernel: &str, device: usize, time: SimTime) {
        debug_assert!(self.queued[device] > 0);
        self.queued[device] -= 1;
        let row = match self.row(kernel) {
            Some(row) => row,
            None => {
                self.kernels.push(kernel.to_string());
                self.measured.push(vec![None; self.speeds.len()]);
                self.measured.len() - 1
            }
        };
        self.measured[row][device] = Some(time);
        if let Some(p) = self.policy.as_mut() {
            p.observe_completion(kernel, device, time);
        }
    }

    /// Index of `kernel`'s measurement row, if it has one.
    fn row(&self, kernel: &str) -> Option<usize> {
        self.kernels.iter().position(|k| k == kernel)
    }

    /// Measured time of `kernel` per device (`None`: not measured).
    fn measurements(&self, kernel: &str) -> &[Option<SimTime>] {
        self.row(kernel).map_or(&[], |row| &self.measured[row])
    }

    /// Has any device measured this kernel yet?
    pub fn has_measurement(&self, kernel: &str) -> bool {
        self.measurements(kernel).iter().any(Option::is_some)
    }

    /// Per-device time estimate for `kernel`, in seconds. Measured times
    /// win; unmeasured devices are extrapolated from a measured one via the
    /// static speed ratio; with no measurements at all, times are the pure
    /// reciprocal of the static speeds (arbitrary unit — only ratios
    /// matter for the choice).
    pub fn estimates(&self, kernel: &str) -> Vec<f64> {
        let measured = self.measurements(kernel);
        let reference = measured
            .iter()
            .enumerate()
            .find_map(|(d, t)| t.map(|t| (d, t.as_secs_f64())));
        (0..self.speeds.len())
            .map(|d| match (measured.get(d).copied().flatten(), reference) {
                (Some(t), _) => t.as_secs_f64(),
                (None, Some((rd, rt))) => rt * self.speeds[rd] / self.speeds[d],
                (None, None) => 1.0 / self.speeds[d],
            })
            .collect()
    }

    /// Which devices have a measured time for `kernel`.
    fn measured_mask(&self, kernel: &str) -> Vec<bool> {
        let measured = self.measurements(kernel);
        (0..self.speeds.len())
            .map(|d| matches!(measured.get(d), Some(Some(_))))
            .collect()
    }

    /// Choose the device for the next job of `kernel` by the Sec. III-B
    /// rule — always the paper's algorithm, independent of the configured
    /// policy (documented API for the worked examples and the master's
    /// broadcast placement). Ties break toward the lower device index.
    pub fn choose(&self, kernel: &str) -> usize {
        let estimates = self.estimates(kernel);
        let measured = self.measured_mask(kernel);
        let view = self.view(kernel, &estimates, &measured);
        scenario_pick(&view, &estimates, None).expect("at least one device is always allowed")
    }

    /// Convenience: choose + submit in one step.
    pub fn submit(&mut self, kernel: &str) -> usize {
        let d = self.choose(kernel);
        self.on_submit(d);
        d
    }

    fn view<'a>(
        &'a self,
        kernel: &'a str,
        estimates: &'a [f64],
        measured: &'a [bool],
    ) -> BalancerView<'a> {
        BalancerView {
            kernel,
            speeds: &self.speeds,
            queued: &self.queued,
            dead: &self.dead,
            estimates,
            measured,
        }
    }

    /// Like [`Balancer::choose`] but restricted to devices where `allowed`
    /// holds (devices without an applicable kernel version are excluded)
    /// and delegated to the configured [`PlacementPolicy`]. Returns `None`
    /// when no device qualifies.
    pub fn choose_among(&mut self, kernel: &str, allowed: &[bool]) -> Option<usize> {
        assert_eq!(allowed.len(), self.speeds.len());
        let estimates = self.estimates(kernel);
        let measured = self.measured_mask(kernel);
        // Take the policy out for the call: the view borrows `self`
        // immutably while the policy mutates its own state.
        let mut policy = self.policy.take().expect("policy present");
        let choice = policy.decide(&self.view(kernel, &estimates, &measured), allowed);
        self.policy = Some(policy);
        choice
    }

    /// Explain a decision for the audit log: the active policy's candidate
    /// table (one row per device, including excluded ones). For the
    /// scenario policy — and every policy that keeps the default table —
    /// `scenario_s` is populated exactly as [`Balancer::choose_among`]
    /// under [`Policy::Scenario`] would compute it, so the row with the
    /// smallest `scenario_s` (lowest index on ties) is the device that
    /// rule picks.
    pub fn explain(&self, kernel: &str, allowed: &[bool]) -> Vec<DeviceEstimate> {
        assert_eq!(allowed.len(), self.speeds.len());
        let estimates = self.estimates(kernel);
        let measured = self.measured_mask(kernel);
        let view = self.view(kernel, &estimates, &measured);
        self.policy
            .as_ref()
            .expect("policy present")
            .explain(&view, allowed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    /// The verbatim example from Sec. III-B.
    #[test]
    fn paper_example_k20_vs_gtx480() {
        // Devices: 0 = K20 (speed 40), 1 = GTX480 (speed 20).
        let mut b = Balancer::new(&[40.0, 20.0]);
        // Make both devices measured: K20 jobs take 100 ms, GTX480 125 ms.
        b.on_submit(0);
        b.on_complete("k", 0, ms(100));
        b.on_submit(1);
        b.on_complete("k", 1, ms(125));
        // Queue state from the example: K20 has 3 jobs, GTX480 has 1.
        for _ in 0..3 {
            b.on_submit(0);
        }
        b.on_submit(1);
        // scenario1 = max(4·100, 1·125) = 400; scenario2 = max(3·100, 2·125)
        // = 300 ⇒ GTX480 wins.
        assert_eq!(
            b.choose("k"),
            1,
            "the paper's example submits to the GTX480"
        );
    }

    #[test]
    fn static_speeds_seed_the_first_jobs() {
        // Unmeasured: estimates are 1/speed, so the faster device is chosen
        // first, and queues fill ~proportionally to speed.
        let mut b = Balancer::new(&[40.0, 20.0]);
        let mut counts = [0usize; 2];
        for _ in 0..12 {
            let d = b.submit("k");
            counts[d] += 1;
        }
        assert_eq!(counts[0] + counts[1], 12);
        // K20 (2× faster) should get about 2× the jobs.
        assert_eq!(counts[0], 8);
        assert_eq!(counts[1], 4);
    }

    #[test]
    fn measured_time_on_one_device_extrapolates_to_others() {
        let mut b = Balancer::new(&[40.0, 10.0]);
        b.on_submit(0);
        b.on_complete("k", 0, ms(50));
        let est = b.estimates("k");
        assert!((est[0] - 0.050).abs() < 1e-12);
        // 4× slower by the static table ⇒ 200 ms.
        assert!((est[1] - 0.200).abs() < 1e-12);
    }

    #[test]
    fn slow_device_skipped_when_it_would_lengthen_the_run() {
        // One fast device (t=10ms) and one very slow (t=1000ms): for a
        // handful of jobs everything goes to the fast device.
        let mut b = Balancer::new(&[100.0, 1.0]);
        b.on_submit(0);
        b.on_complete("k", 0, ms(10));
        b.on_submit(1);
        b.on_complete("k", 1, ms(1000));
        let mut counts = [0usize; 2];
        for _ in 0..20 {
            counts[b.submit("k")] += 1;
        }
        assert_eq!(counts[1], 0, "slow device would dominate the makespan");
        assert_eq!(counts[0], 20);
    }

    #[test]
    fn slow_device_used_when_queues_grow_long_enough() {
        // Phi-vs-K20 situation from the Gantt discussion (Fig. 16): with 8
        // jobs per set and a 4× slower Phi, the best split is 7 / 1.
        let mut b = Balancer::new(&[40.0, 10.0]);
        b.on_submit(0);
        b.on_complete("kmeans", 0, ms(100));
        b.on_submit(1);
        b.on_complete("kmeans", 1, ms(400));
        let mut counts = [0usize; 2];
        for _ in 0..8 {
            counts[b.submit("kmeans")] += 1;
        }
        assert_eq!(counts, [7, 1], "paper: 7 on the K20, 1 on the Xeon Phi");
    }

    #[test]
    fn per_kernel_measurements_are_independent() {
        let mut b = Balancer::new(&[40.0, 20.0]);
        b.on_submit(0);
        b.on_complete("fast_kernel", 0, ms(1));
        assert!(b.has_measurement("fast_kernel"));
        assert!(!b.has_measurement("other_kernel"));
        // `other_kernel` still uses the static table.
        let est = b.estimates("other_kernel");
        assert!((est[0] - 1.0 / 40.0).abs() < 1e-12);
        assert!((est[1] - 1.0 / 20.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "≥1 device")]
    fn empty_device_list_rejected() {
        let _ = Balancer::new(&[]);
    }

    #[test]
    fn scaled_table_entry_shifts_first_phase_placement() {
        // Unmeasured phase: doubling a device's table entry doubles its
        // share of the seeded jobs (8/4 → 10/2 for speeds 80 vs 20).
        let mut b = Balancer::new(&[40.0, 20.0]);
        b.scale_speed(0, 2.0);
        assert_eq!(b.speed(0), 80.0);
        let mut counts = [0usize; 2];
        for _ in 0..12 {
            counts[b.submit("k")] += 1;
        }
        assert_eq!(counts, [10, 2]);
        // Once measured, real times win over the (mis)scaled table.
        let mut b = Balancer::new(&[40.0, 20.0]);
        b.scale_speed(1, 100.0);
        b.on_submit(0);
        b.on_complete("k", 0, ms(10));
        b.on_submit(1);
        b.on_complete("k", 1, ms(1000));
        let mut counts = [0usize; 2];
        for _ in 0..20 {
            counts[b.submit("k")] += 1;
        }
        assert_eq!(counts[1], 0, "measured 1000ms beats a flattering table");
    }

    #[test]
    fn retired_devices_are_never_chosen() {
        let mut b = Balancer::new(&[40.0, 20.0]);
        b.on_submit(0);
        b.on_complete("k", 0, ms(100));
        // A long queue on the dead device must not distort scenarios either.
        for _ in 0..5 {
            b.on_submit(0);
        }
        b.retire_device(0);
        assert!(b.is_retired(0));
        assert!(b.any_alive());
        // Its measurement is gone, so the survivor falls back to the static
        // table rather than extrapolating from a dead device.
        assert!(!b.has_measurement("k"));
        for _ in 0..4 {
            assert_eq!(b.choose_among("k", &[true, true]), Some(1));
            b.on_submit(1);
        }
        b.retire_device(1);
        assert!(!b.any_alive());
        assert_eq!(b.choose_among("k", &[true, true]), None);
    }

    #[test]
    fn retiring_a_device_clears_its_row_and_survivors_extrapolate() {
        // Device 1 measures slower than its table entry predicts, so the
        // reference device decides what the unmeasured device 2 gets.
        let mut b = Balancer::new(&[40.0, 20.0, 10.0]);
        b.on_submit(0);
        b.on_complete("k", 0, ms(100));
        b.on_submit(1);
        b.on_complete("k", 1, ms(300));
        let est = b.estimates("k");
        assert!((est[2] - 0.400).abs() < 1e-12, "from device 0: 100·40/10");
        b.retire_device(0);
        assert!(b.has_measurement("k"), "device 1's measurement survives");
        let est = b.estimates("k");
        assert!((est[1] - 0.300).abs() < 1e-12);
        assert!((est[2] - 0.600).abs() < 1e-12, "from device 1: 300·20/10");
        assert!((est[0] - 0.150).abs() < 1e-12, "dead row extrapolated too");
        let rows = b.explain("k", &[true, true, true]);
        assert_eq!(
            rows.iter().map(|r| r.measured).collect::<Vec<_>>(),
            vec![false, true, false]
        );
        // Other kernels' rows lose the retired device as well.
        b.on_submit(2);
        b.on_complete("j", 2, ms(50));
        b.retire_device(2);
        assert!(!b.has_measurement("j"));
        assert!(b.has_measurement("k"));
    }

    #[test]
    fn explain_reproduces_the_paper_scenarios() {
        // Same setup as `paper_example_k20_vs_gtx480`.
        let mut b = Balancer::new(&[40.0, 20.0]);
        b.on_submit(0);
        b.on_complete("k", 0, ms(100));
        b.on_submit(1);
        b.on_complete("k", 1, ms(125));
        for _ in 0..3 {
            b.on_submit(0);
        }
        b.on_submit(1);
        let rows = b.explain("k", &[true, true]);
        assert_eq!(rows.len(), 2);
        assert!(rows[0].measured && rows[1].measured);
        assert_eq!(rows[0].queued, 3);
        assert_eq!(rows[1].queued, 1);
        // scenario1 = max(4·100, 1·125) = 400 ms; scenario2 = 300 ms.
        assert!((rows[0].scenario_s.unwrap() - 0.400).abs() < 1e-12);
        assert!((rows[1].scenario_s.unwrap() - 0.300).abs() < 1e-12);
        // The row with the smallest scenario is what choose_among picks.
        assert_eq!(b.choose_among("k", &[true, true]), Some(1));
        // Excluded devices keep their estimate but get no scenario.
        let rows = b.explain("k", &[true, false]);
        assert!(rows[0].scenario_s.is_some());
        assert!(rows[1].scenario_s.is_none());
        assert!(!rows[1].allowed);
    }

    #[test]
    fn round_robin_policy_rotates() {
        let mut b = Balancer::new(&[40.0, 10.0, 20.0]);
        b.set_policy(Policy::RoundRobin);
        let picks: Vec<usize> = (0..6)
            .map(|_| b.choose_among("k", &[true, true, true]).unwrap())
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
        // disallowed devices are skipped
        let p = b.choose_among("k", &[false, true, false]).unwrap();
        assert_eq!(p, 1);
    }

    #[test]
    fn fastest_only_policy_ignores_queues() {
        let mut b = Balancer::new(&[40.0, 10.0]);
        b.set_policy(Policy::FastestOnly);
        for _ in 0..10 {
            let d = b.choose_among("k", &[true, true]).unwrap();
            assert_eq!(d, 0, "greedy always picks the fastest");
            b.on_submit(d);
        }
        // and respects the allowed mask
        assert_eq!(b.choose_among("k", &[false, true]), Some(1));
    }

    #[test]
    fn heft_minimizes_local_finish_time() {
        // Measured: device 0 takes 100 ms, device 1 takes 150 ms.
        let mut b = Balancer::new(&[40.0, 20.0]);
        b.set_policy(Policy::Heft);
        b.on_submit(0);
        b.on_complete("k", 0, ms(100));
        b.on_submit(1);
        b.on_complete("k", 1, ms(150));
        // Empty queues: finish(0) = 100 < finish(1) = 150.
        assert_eq!(b.choose_among("k", &[true, true]), Some(0));
        // Load device 0 with 2 jobs: finish(0) = 3·100 = 300 > finish(1)
        // = 1·150.
        b.on_submit(0);
        b.on_submit(0);
        assert_eq!(b.choose_among("k", &[true, true]), Some(1));
        // Unlike the scenario rule, a huge queue elsewhere is invisible:
        // with 9 more jobs on device 0, HEFT still compares only the
        // candidates' own finish times.
        for _ in 0..9 {
            b.on_submit(0);
        }
        assert_eq!(b.choose_among("k", &[true, true]), Some(1));
    }

    #[test]
    fn dynamic_chunk_grants_runs_sized_by_speed() {
        // Static phase, speeds 40 vs 10: the fast device opens with a
        // full base-length chunk (4 jobs) before the policy reconsiders.
        let mut b = Balancer::new(&[40.0, 10.0]);
        b.set_policy(Policy::DynamicChunk);
        let mut picks = Vec::new();
        for _ in 0..5 {
            let d = b.choose_among("k", &[true, true]).unwrap();
            b.on_submit(d);
            picks.push(d);
        }
        assert_eq!(picks, vec![0, 0, 0, 0, 1], "4-chunk on fast, then slow");
        // The slow device's chunk is scaled down by its 4× slower
        // estimate: round(4 · ¼) = 1 job only.
        let d = b.choose_among("k", &[true, true]).unwrap();
        b.on_submit(d);
        assert_eq!(d, 0, "slow chunk was a single job; back to the fast one");
    }

    #[test]
    fn dynamic_chunk_reconsiders_on_completion() {
        let mut b = Balancer::new(&[40.0, 40.0]);
        b.set_policy(Policy::DynamicChunk);
        // Open a chunk on device 0.
        assert_eq!(b.choose_among("k", &[true, true]), Some(0));
        b.on_submit(0);
        // A completion lands: the chunk ends early and the next decision
        // re-reads the (now measured) estimates.
        b.on_complete("k", 0, ms(500));
        b.on_submit(0);
        // Device 0 measured slow (500 ms), device 1 extrapolates to the
        // same 500 ms but has no backlog → least backlog wins.
        assert_eq!(b.choose_among("k", &[true, true]), Some(1));
    }

    #[test]
    fn static_table_never_learns() {
        // Measured times say device 1 is far faster, but the static table
        // says device 0: the baseline keeps trusting the table.
        let mut b = Balancer::new(&[40.0, 20.0]);
        b.set_policy(Policy::StaticTable);
        b.on_submit(0);
        b.on_complete("k", 0, ms(1000));
        b.on_submit(1);
        b.on_complete("k", 1, ms(10));
        let mut counts = [0usize; 2];
        for _ in 0..12 {
            let d = b.choose_among("k", &[true, true]).unwrap();
            b.on_submit(d);
            counts[d] += 1;
        }
        assert_eq!(counts, [8, 4], "8/4 split exactly as in the static phase");
        // Its audit rows show the static reciprocals, never `measured`.
        let rows = b.explain("k", &[true, true]);
        assert!(rows.iter().all(|r| !r.measured));
        assert!((rows[0].estimate_s - 1.0 / 40.0).abs() < 1e-12);
    }

    #[test]
    fn policy_parse_normalizes_aliases() {
        // Satellite: every alias round-trips to one canonical name.
        for (alias, canonical) in [
            ("greedy", "fastest-only"),
            ("fastestonly", "fastest-only"),
            ("roundrobin", "round-robin"),
            ("heft-lookahead", "heft"),
            ("chunk", "dynamic-chunk"),
            ("statictable", "static-table"),
            ("SCENARIO", "scenario"),
        ] {
            let p = Policy::parse(alias).unwrap_or_else(|| panic!("alias {alias} must parse"));
            assert_eq!(p.name(), canonical, "alias {alias}");
            assert_eq!(Policy::parse(p.name()), Some(p), "name is a fixed point");
        }
        assert!(Policy::parse("nonsense").is_none());
        for p in Policy::ALL {
            assert_eq!(Policy::parse(p.name()), Some(p));
        }
    }

    #[test]
    fn policy_desc_serde_accepts_legacy_strings() {
        // The audit log is write-only; pin the structured form it writes:
        // parameters as a map, in declared order.
        let d = PolicyDesc {
            name: "dynamic-chunk".to_string(),
            params: vec![("max".to_string(), 16.0), ("base".to_string(), 4.0)],
        };
        assert_eq!(
            serde_json::to_string(&d).unwrap(),
            r#"{"name":"dynamic-chunk","params":{"max":16.0,"base":4.0}}"#
        );
    }

    #[test]
    fn every_policy_decides_deterministically() {
        // Same history ⇒ same decisions, for every built-in policy: run
        // the identical submit/complete script twice and compare picks.
        let script = |kind: Policy| {
            let mut b = Balancer::new(&[40.0, 10.0, 20.0]);
            b.set_policy(kind);
            let mut picks = Vec::new();
            for i in 0..24 {
                let d = b.choose_among("k", &[true, true, true]).unwrap();
                b.on_submit(d);
                picks.push(d);
                if i % 5 == 4 {
                    b.on_complete("k", d, ms(10 + 7 * (i as u64 % 3)));
                }
            }
            picks
        };
        for kind in Policy::ALL {
            assert_eq!(script(kind), script(kind), "{} must be pure", kind.name());
            assert_eq!(Balancer::new(&[1.0]).describe_policy().name, "scenario");
            let mut b = Balancer::new(&[1.0, 2.0]);
            b.set_policy(kind);
            assert_eq!(b.policy_kind(), kind);
            assert_eq!(b.describe_policy().name, kind.name());
        }
    }
}
