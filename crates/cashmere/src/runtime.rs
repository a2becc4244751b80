//! The Cashmere leaf runtime: node-level jobs expand into device jobs that
//! are balanced across the node's many-core devices with overlapping PCIe
//! transfers and kernel executions (paper Sec. II-C, III-B).
//!
//! In the paper, a node-level job below the `enableManyCore()` threshold
//! keeps dividing through the same spawnable/sync mechanism, but into
//! *threads* that each drive one device job: copy input to the device, run
//! the kernel, copy the output back. `MCL.launch()` blocks the managing
//! thread, which is exactly how the model gets backpressure — a node only
//! commits to as many node-level jobs as it has cores to manage.
//!
//! Here [`CashmereLeafRuntime`] implements [`LeafRuntime`]: when the
//! cluster engine hands it a node-level leaf it
//!
//! 1. expands it via [`CashmereApp::device_jobs`] (typically 8 jobs);
//! 2. for each device job picks a device with the two-phase balancer
//!    (static speed table → measured kernel times, Sec. III-B);
//! 3. schedules host→device copy, kernel, device→host copy on the device's
//!    three timelines, so copies overlap with kernels automatically;
//! 4. runs the kernel through the MCL interpreter (fully in functional
//!    mode, sampled + cached in estimation mode) to get both the result
//!    and the modelled kernel time;
//! 5. falls back to the CPU leaf when no kernel version applies or device
//!    memory is exhausted (the paper's try/catch → `leafCPU` pattern).

use crate::balancer::{Balancer, DeviceEstimate, PolicyDesc};
use crate::registry::{arg_shape, KernelId, KernelRegistry, Launch};
use cashmere_des::fault::FaultInjector;
use cashmere_des::obs::{prof, MetricsRegistry};
use cashmere_des::trace::{LaneId, SpanId, SpanKind, Trace};
use cashmere_des::SimTime;
use cashmere_devsim::{ExecMode, SimDevice};
use cashmere_mcl::value::ArgValue;
use cashmere_satin::{ClusterApp, LeafCtx, LeafPlan, LeafRuntime, RunReport};
use serde::{Deserialize, Serialize};

/// Description of one kernel invocation (the paper's
/// `Cashmere.getKernel()` / `createLaunch()` / `MCL.launch(kl, a, b)`).
#[derive(Debug, Clone)]
pub struct KernelCall {
    /// Registered kernel name.
    pub kernel: String,
    /// Arguments, in kernel-parameter order.
    pub args: Vec<ArgValue>,
    /// Bytes copied host→device before launch.
    pub h2d_bytes: u64,
    /// Bytes copied device→host after completion.
    pub d2h_bytes: u64,
    /// Bytes of *resident* input shared by every job of this kernel on a
    /// device (the paper's `Kernel.getDevice()` / `Device.copy()` feature):
    /// allocated and transferred once per device, then reused.
    pub resident_bytes: u64,
    /// Extra multiplier applied to sampled statistics (for calibration
    /// workloads whose inner dimensions were shrunk); 1.0 = none.
    pub extra_scale: f64,
}

impl KernelCall {
    /// Build a call with transfer sizes derived from the arguments:
    /// everything is copied in; arrays flagged in `out_args` are copied
    /// back.
    pub fn from_args(kernel: impl Into<String>, args: Vec<ArgValue>, out_args: &[usize]) -> Self {
        let h2d_bytes = args.iter().map(ArgValue::device_bytes).sum();
        let d2h_bytes = out_args.iter().map(|&i| args[i].device_bytes()).sum();
        KernelCall {
            kernel: kernel.into(),
            args,
            h2d_bytes,
            d2h_bytes,
            resident_bytes: 0,
            extra_scale: 1.0,
        }
    }
}

/// A Cashmere application: a [`ClusterApp`] whose leaves know how to run on
/// many-core devices.
pub trait CashmereApp: ClusterApp {
    /// Expand a node-level leaf into device jobs (the paper's "sets of 8
    /// jobs"). Must be non-empty; [`ClusterApp::combine`] must accept the
    /// outputs of this division.
    fn device_jobs(&self, input: &Self::Input) -> Vec<Self::Input>;

    /// Describe the kernel launch for one device job.
    fn kernel_call(&self, input: &Self::Input) -> KernelCall;

    /// Build the device-job output from the post-execution arguments.
    fn job_output(&self, input: &Self::Input, args: Vec<ArgValue>) -> Self::Output;

    /// The CPU leaf: single-core time and output for `input`. Cashmere's
    /// `leafCPU` fallback calls it for one device job; plain Satin
    /// ([`SatinLeafRuntime`]) calls it for every node-level leaf.
    fn leaf_cpu(&self, input: &Self::Input) -> (SimTime, Self::Output);
}

/// Plain Satin (the paper's CPU-only baseline): every leaf runs on one core
/// through [`CashmereApp::leaf_cpu`], the same code as Cashmere's fallback.
#[derive(Debug, Clone, Copy)]
pub struct SatinLeafRuntime;

impl<A: CashmereApp> LeafRuntime<A> for SatinLeafRuntime {
    fn plan(&mut self, app: &A, input: &A::Input, _ctx: LeafCtx<'_>) -> LeafPlan<A::Output> {
        let (compute, output) = app.leaf_cpu(input);
        LeafPlan::Cpu { compute, output }
    }
}

/// Runtime knobs.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RuntimeConfig {
    /// Run kernels fully (real results) instead of sampled (estimates).
    pub functional: bool,
    /// CPU cost of submitting one device job (thread creation + driver).
    pub submit_overhead: SimTime,
    /// Device-selection policy (ablation knob; paper's Sec. III-B default).
    pub balancer_policy: crate::balancer::Policy,
    /// Overlap PCIe transfers with kernel execution (paper Sec. II-C3).
    /// Disabled, everything serializes on one engine — ablation knob.
    pub overlap: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            functional: false,
            submit_overhead: SimTime::from_micros(20),
            balancer_policy: crate::balancer::Policy::Scenario,
            overlap: true,
        }
    }
}

/// One balancer decision, recorded for the audit log (tracing runs only):
/// the candidate table the Sec. III-B rule evaluated and where the job
/// actually went. Terminal outcomes only — a transient launch fault or a
/// mid-flight device death re-enters the decision loop and produces a fresh
/// entry instead.
#[derive(Debug, Clone, Serialize)]
pub struct AuditEntry {
    /// Decision sequence number (audit-log index).
    pub seq: u64,
    pub node: usize,
    pub kernel: String,
    /// Virtual submission time of the device job, in ns.
    pub submit_ns: u64,
    /// Name + parameters of the policy instance that made this decision
    /// (tournament artifacts are self-describing).
    pub policy: PolicyDesc,
    /// Per-device estimates and scenario makespans at decision time.
    pub candidates: Vec<DeviceEstimate>,
    /// Device the job ran on; `None` when it degraded to the CPU leaf.
    pub chosen: Option<usize>,
    /// `"placed"`, or why the job fell back to the CPU
    /// (`"no-usable-device"`, `"launch-fault-budget"`, `"memory-exhausted"`).
    pub reason: String,
}

/// Trace lanes of one device (mirrors the paper's Gantt queues, Fig. 16).
#[derive(Debug, Clone, Copy)]
struct DevLanes {
    h2d: LaneId,
    exec: LaneId,
    d2h: LaneId,
}

/// One device attached to a node.
pub struct DeviceSlot {
    pub sim: SimDevice,
    lanes: Option<DevLanes>,
    /// Live allocations expiring when their job's d2h completes.
    allocations: Vec<(SimTime, cashmere_devsim::BufferId)>,
    /// Resident (kernel-shared) buffers already on the device, by kernel.
    resident: std::collections::HashMap<KernelId, cashmere_devsim::BufferId>,
    pub jobs_run: u64,
    /// Permanently failed (injected device death); never used again.
    pub dead: bool,
}

/// Devices + balancer of one node.
pub struct NodeDevices {
    pub devices: Vec<DeviceSlot>,
    pub balancer: Balancer,
    /// Pending completions: (kernel, device, kernel_time, finish_time).
    pending: Vec<(KernelId, usize, SimTime, SimTime)>,
}

impl NodeDevices {
    /// Report to the balancer every job that has finished by `now`.
    fn reap(&mut self, now: SimTime, registry: &KernelRegistry) {
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].3 <= now {
                let (kernel, d, t, _) = self.pending.swap_remove(i);
                self.balancer
                    .on_complete(registry.kernel_name(kernel), d, t);
            } else {
                i += 1;
            }
        }
    }
}

/// The Cashmere leaf runtime (one per simulated cluster).
pub struct CashmereLeafRuntime {
    pub registry: KernelRegistry,
    pub nodes: Vec<NodeDevices>,
    pub config: RuntimeConfig,
    /// Device jobs executed on devices.
    pub kernels_run: u64,
    /// Device jobs that fell back to the CPU.
    pub cpu_fallbacks: u64,
    /// Balancer decision audit log (populated only when tracing is on).
    pub audit: Vec<AuditEntry>,
}

impl CashmereLeafRuntime {
    /// Build for a cluster where node `n` carries the devices named in
    /// `spec[n]` (level names in the registry's hierarchy).
    pub fn new(
        registry: KernelRegistry,
        spec: &[Vec<String>],
        config: RuntimeConfig,
    ) -> Result<CashmereLeafRuntime, String> {
        let mut nodes = Vec::with_capacity(spec.len());
        for names in spec {
            if names.is_empty() {
                return Err("every node needs at least one device".into());
            }
            let mut devices = Vec::new();
            let mut speeds = Vec::new();
            for name in names {
                let sim = SimDevice::by_name(registry.hierarchy(), name)?;
                speeds.push(sim.params.relative_speed);
                devices.push(DeviceSlot {
                    sim,
                    lanes: None,
                    allocations: Vec::new(),
                    resident: std::collections::HashMap::new(),
                    jobs_run: 0,
                    dead: false,
                });
            }
            let mut balancer = Balancer::new(&speeds);
            balancer.set_policy(config.balancer_policy);
            nodes.push(NodeDevices {
                devices,
                balancer,
                pending: Vec::new(),
            });
        }
        Ok(CashmereLeafRuntime {
            registry,
            nodes,
            config,
            kernels_run: 0,
            cpu_fallbacks: 0,
            audit: Vec::new(),
        })
    }

    /// Virtually scale the compute speed of every device whose level name
    /// matches `selector` (`*` matches all) by `factor`. Returns how many
    /// devices matched. Advisor what-if hook: kernels finish `factor`×
    /// sooner, and because the balancer learns *measured* times, its
    /// estimates follow automatically.
    pub fn scale_device_speed(&mut self, selector: &str, factor: f64) -> usize {
        let mut matched = 0;
        for nd in &mut self.nodes {
            for slot in &mut nd.devices {
                if selector == "*" || selector == slot.sim.level_name {
                    slot.sim.scale_speed(factor);
                    matched += 1;
                }
            }
        }
        matched
    }

    /// Virtually scale the PCIe link (bandwidth × `factor`, latency ÷
    /// `factor`) of every device matching `selector`. Returns the match
    /// count.
    pub fn scale_pcie(&mut self, selector: &str, factor: f64) -> usize {
        let mut matched = 0;
        for nd in &mut self.nodes {
            for slot in &mut nd.devices {
                if selector == "*" || selector == slot.sim.level_name {
                    slot.sim.scale_pcie(factor);
                    matched += 1;
                }
            }
        }
        matched
    }

    /// Scale the balancer's *belief* about matching devices without making
    /// them actually faster: the static speed-table entry is multiplied by
    /// `factor`, but kernels still take their physical time. Isolates how
    /// much of performance is placement quality vs raw device speed.
    pub fn scale_balancer_table(&mut self, selector: &str, factor: f64) -> usize {
        let mut matched = 0;
        for nd in &mut self.nodes {
            for (didx, slot) in nd.devices.iter().enumerate() {
                if selector == "*" || selector == slot.sim.level_name {
                    nd.balancer.scale_speed(didx, factor);
                    matched += 1;
                }
            }
        }
        matched
    }

    fn lanes_for(trace: &mut Trace, node: usize, dev_name: &str, dev_idx: usize) -> DevLanes {
        let base = format!("n{node}.{dev_name}{dev_idx}");
        DevLanes {
            h2d: trace.add_lane(format!("{base}.h2d")),
            exec: trace.add_lane(format!("{base}.exec")),
            d2h: trace.add_lane(format!("{base}.d2h")),
        }
    }

    /// Permanently retire device `didx` of `nd` at virtual time `at`: pull
    /// its engine timelines back to `at` (work beyond the failure never
    /// happens), release every buffer, forget pending completions, and
    /// remove it from the balancer.
    fn kill_device(nd: &mut NodeDevices, didx: usize, at: SimTime, report: &mut RunReport) {
        let slot = &mut nd.devices[didx];
        slot.dead = true;
        slot.sim.abort_after(at);
        for (_, id) in slot.allocations.drain(..) {
            slot.sim.memory.free(id);
        }
        for (_, id) in slot.resident.drain() {
            slot.sim.memory.free(id);
        }
        nd.pending.retain(|p| p.1 != didx);
        nd.balancer.retire_device(didx);
        report.devices_lost += 1;
    }

    /// Append one decision to the audit log (tracing runs only).
    fn push_audit(
        &mut self,
        node: usize,
        call: &KernelCall,
        submit_at: SimTime,
        candidates: Vec<DeviceEstimate>,
        chosen: Option<usize>,
        reason: &str,
    ) {
        self.audit.push(AuditEntry {
            seq: self.audit.len() as u64,
            node,
            kernel: call.kernel.clone(),
            submit_ns: submit_at.as_nanos(),
            policy: self.nodes[node].balancer.describe_policy(),
            candidates,
            chosen,
            reason: reason.to_string(),
        });
    }

    /// Execute one device job: balancer choice, transfers, kernel. Returns
    /// `(completion_time, output)`.
    ///
    /// Faults enter here in three ways: devices whose injected death is due
    /// are retired before the choice; a transient launch fault costs a
    /// retry (bounded budget, then `leafCPU`); and a job that would still
    /// be on a device when that device dies is aborted and resubmitted to
    /// the survivors (or the CPU).
    #[allow(clippy::too_many_arguments)]
    fn run_device_job<A: CashmereApp>(
        &mut self,
        app: &A,
        node: usize,
        job: &A::Input,
        submit_at: SimTime,
        cpu_cursor: &mut SimTime,
        trace: &mut Trace,
        metrics: &mut MetricsRegistry,
        parent_span: SpanId,
        faults: &mut FaultInjector,
        report: &mut RunReport,
    ) -> (SimTime, A::Output) {
        const LAUNCH_RETRY_BUDGET: u32 = 3;
        let launch_retry_penalty = SimTime::from_micros(50);

        let mut call = app.kernel_call(job);
        let kernel = self.registry.kernel_id(&call.kernel);
        let mut submit_at = submit_at;
        let mut launch_attempts = 0u32;
        loop {
            let nd = &mut self.nodes[node];
            // Retire every device whose injected death is due by now.
            for d in 0..nd.devices.len() {
                if !nd.devices[d].dead {
                    if let Some(death) = faults.device_death(node, d) {
                        if death <= submit_at {
                            Self::kill_device(nd, d, death, report);
                        }
                    }
                }
            }
            nd.reap(submit_at, &self.registry);

            // The launch of each device that has an applicable kernel version.
            let launches: Vec<Option<Launch>> = nd
                .devices
                .iter()
                .map(|d| kernel.and_then(|k| self.registry.launch(k, d.sim.level)))
                .collect();
            let allowed: Vec<bool> = launches
                .iter()
                .zip(&nd.devices)
                .map(|(l, d)| l.is_some() && !d.dead)
                .collect();

            // Snapshot the candidate table before the choice (the audit log
            // must show what the rule saw, not the post-submit queues).
            let candidates = trace
                .enabled()
                .then(|| nd.balancer.explain(&call.kernel, &allowed));

            let chosen = nd
                .balancer
                .choose_among(&call.kernel, &allowed)
                .and_then(|d| Some((d, launches[d]?)));
            let Some((didx, launch)) = chosen else {
                // No device can run this kernel: leafCPU fallback,
                // serialized on the managing core. Attribute it to faults
                // when a lost device would otherwise have qualified.
                if launches
                    .iter()
                    .zip(&nd.devices)
                    .any(|(l, d)| l.is_some() && d.dead)
                {
                    report.fault_cpu_fallbacks += 1;
                }
                self.cpu_fallbacks += 1;
                if let Some(candidates) = candidates {
                    self.push_audit(node, &call, submit_at, candidates, None, "no-usable-device");
                }
                let (cpu, out) = app.leaf_cpu(job);
                let done = (*cpu_cursor).max(submit_at) + cpu;
                *cpu_cursor = done;
                return (done, out);
            };

            // Transient launch fault (the paper's try/catch around
            // MCL.launch()): pay a driver round-trip and retry; degrade to
            // the CPU leaf once the budget is spent.
            if faults.launch_fault(node, didx, submit_at) {
                report.launch_retries += 1;
                launch_attempts += 1;
                if launch_attempts >= LAUNCH_RETRY_BUDGET {
                    report.fault_cpu_fallbacks += 1;
                    self.cpu_fallbacks += 1;
                    if let Some(candidates) = candidates {
                        self.push_audit(
                            node,
                            &call,
                            submit_at,
                            candidates,
                            None,
                            "launch-fault-budget",
                        );
                    }
                    let (cpu, out) = app.leaf_cpu(job);
                    let done = (*cpu_cursor).max(submit_at) + cpu;
                    *cpu_cursor = done;
                    return (done, out);
                }
                submit_at += launch_retry_penalty;
                continue;
            }

            let (done, out, placed) = match self.schedule_on_device(
                app,
                node,
                didx,
                launch,
                job,
                &mut call,
                submit_at,
                cpu_cursor,
                trace,
                metrics,
                parent_span,
                faults,
                report,
            ) {
                Ok(done_out) => done_out,
                Err(resubmit_at) => {
                    // The chosen device dies while this job would still be
                    // on it: the job is lost and resubmitted to survivors.
                    submit_at = submit_at.max(resubmit_at);
                    continue;
                }
            };
            if let Some(candidates) = candidates {
                if placed {
                    self.push_audit(node, &call, submit_at, candidates, Some(didx), "placed");
                } else {
                    self.push_audit(node, &call, submit_at, candidates, None, "memory-exhausted");
                }
            }
            return (done, out);
        }
    }

    /// Place one device job on the chosen device, which runs `launch`.
    /// Returns `Err(death_time)` when the device's injected death aborts
    /// the job in flight; `Ok((completion, output, placed))` otherwise,
    /// where `placed` is false when memory exhaustion degraded the job to
    /// the CPU leaf (pre-existing model behavior). A placed job's arguments
    /// move out of `call` into its output.
    #[allow(clippy::too_many_arguments)]
    fn schedule_on_device<A: CashmereApp>(
        &mut self,
        app: &A,
        node: usize,
        didx: usize,
        launch: Launch,
        job: &A::Input,
        call: &mut KernelCall,
        submit_at: SimTime,
        cpu_cursor: &mut SimTime,
        trace: &mut Trace,
        metrics: &mut MetricsRegistry,
        parent_span: SpanId,
        faults: &mut FaultInjector,
        report: &mut RunReport,
    ) -> Result<(SimTime, A::Output, bool), SimTime> {
        let _prof = prof::scope("cashmere::place");
        let nd = &mut self.nodes[node];
        // Device memory for inputs and outputs. "Cashmere automatically
        // manages the available memory on a device": under memory pressure
        // a job waits until earlier jobs' buffers are released (their d2h
        // finished); only a job that cannot fit even on an idle device
        // falls back to the CPU leaf.
        let needed = call.h2d_bytes + call.d2h_bytes;
        let mut effective_submit = submit_at;
        let mut resident_upload = 0u64;
        {
            let slot = &mut nd.devices[didx];
            // First job of this kernel on this device uploads the resident
            // data (kept for the rest of the run).
            let resident_needed =
                if call.resident_bytes > 0 && !slot.resident.contains_key(&launch.kernel()) {
                    call.resident_bytes
                } else {
                    0
                };
            loop {
                // Reclaim everything that has drained by now.
                let mut i = 0;
                while i < slot.allocations.len() {
                    if slot.allocations[i].0 <= effective_submit {
                        let (_, id) = slot.allocations.swap_remove(i);
                        slot.sim.memory.free(id);
                    } else {
                        i += 1;
                    }
                }
                if slot.sim.memory.fits(needed + resident_needed) {
                    break;
                }
                // Wait for the earliest in-flight job to leave the device.
                match slot.allocations.iter().map(|(t, _)| *t).min() {
                    Some(t) => effective_submit = effective_submit.max(t),
                    None => {
                        // Even an idle device cannot hold this job.
                        self.cpu_fallbacks += 1;
                        let (cpu, out) = app.leaf_cpu(job);
                        let done = (*cpu_cursor).max(submit_at) + cpu;
                        *cpu_cursor = done;
                        return Ok((done, out, false));
                    }
                }
            }
            if resident_needed > 0 {
                let id = slot
                    .sim
                    .memory
                    .alloc(resident_needed)
                    .expect("checked fit above");
                slot.resident.insert(launch.kernel(), id);
                resident_upload = resident_needed;
            }
        }

        // Interpret the kernel: fully (functional) or sampled+memoized.
        let device = &nd.devices[didx].sim;
        let (args_back, total_s) = if !self.config.functional {
            // The memo stores *unscaled* statistics plus the modelled cost
            // per (device level, calibration scale) derived from them;
            // jobs with the same shape may calibrate differently.
            let key = launch.key(arg_shape(&call.args));
            let total_s = match self.registry.cached_stats(&key) {
                Some(entry) => {
                    report.kernel_memo_hits += 1;
                    entry.total_s(
                        device.level,
                        &device.params,
                        launch.config.class,
                        call.extra_scale,
                    )
                }
                None => {
                    // Counted per run even when the process-wide tier
                    // serves it: the report does not depend on which run
                    // measured a shape first.
                    report.kernel_memo_misses += 1;
                    let stats = self
                        .registry
                        .measure(&launch, &call.args)
                        .unwrap_or_else(|e| panic!("kernel `{}` failed: {e}", call.kernel));
                    self.registry.cache_stats(key, stats).total_s(
                        device.level,
                        &device.params,
                        launch.config.class,
                        call.extra_scale,
                    )
                }
            };
            (None, total_s)
        } else {
            // Full launches compute real results: never memoized.
            let ck = self.registry.version(&launch);
            let run = device
                .run_kernel(
                    self.registry.hierarchy(),
                    ck,
                    call.args.clone(),
                    ExecMode::Full,
                )
                .unwrap_or_else(|e| panic!("kernel `{}` failed: {e}", call.kernel));
            (Some(run.args), run.cost.total_s)
        };

        let nd = &mut self.nodes[node];
        let slot = &mut nd.devices[didx];
        // Costs are physical; the advisor's virtual speed scale applies at
        // readout, same as `SimDevice::run_kernel` (this cached-cost path
        // bypasses it).
        let kernel_time = SimTime::from_secs_f64(total_s / slot.sim.speed_scale);

        // Reserve memory until the job leaves the device.
        // Timelines: h2d from submission; exec after the copy; d2h after.
        // With overlap disabled (ablation), every phase runs on the exec
        // engine, so transfers block kernels of other jobs.
        let (h2d_s, h2d_e, ex_s, ex_e, dh_s, dh_e) = if self.config.overlap {
            let (h2d_s, h2d_e) = slot
                .sim
                .schedule_h2d(effective_submit, call.h2d_bytes + resident_upload);
            let (ex_s, ex_e) = slot.sim.schedule_exec(h2d_e, kernel_time);
            let (dh_s, dh_e) = slot.sim.schedule_d2h(ex_e, call.d2h_bytes);
            (h2d_s, h2d_e, ex_s, ex_e, dh_s, dh_e)
        } else {
            let h2d_time = slot.sim.transfer_time(call.h2d_bytes + resident_upload);
            let d2h_time = slot.sim.transfer_time(call.d2h_bytes);
            let (h2d_s, h2d_e) = slot.sim.schedule_exec(effective_submit, h2d_time);
            let (ex_s, ex_e) = slot.sim.schedule_exec(h2d_e, kernel_time);
            let (dh_s, dh_e) = slot.sim.schedule_exec(ex_e, d2h_time);
            (h2d_s, h2d_e, ex_s, ex_e, dh_s, dh_e)
        };

        // The device dies before this job drains: the partial device time
        // is recovery cost, the device is retired, and the caller resubmits
        // the job to the survivors.
        if let Some(death) = faults.device_death(node, didx) {
            if death < dh_e {
                report.device_aborts += 1;
                report.recovery_time += death.saturating_sub(h2d_s);
                Self::kill_device(nd, didx, death, report);
                return Err(death);
            }
        }

        let slot = &mut nd.devices[didx];
        if let Ok(id) = slot.sim.memory.alloc(needed) {
            slot.allocations.push((dh_e, id));
        }
        slot.jobs_run += 1;
        self.kernels_run += 1;

        if trace.enabled() {
            let lanes = match slot.lanes {
                Some(l) => l,
                None => {
                    let l = Self::lanes_for(trace, node, &slot.sim.level_name, didx);
                    slot.lanes = Some(l);
                    l
                }
            };
            // Causal chain of the device job: the node-level leaf span
            // fathers the h2d copy, which fathers the kernel, which fathers
            // the d2h copy — lineage a flow arrow can follow end to end.
            let h2d_span = trace.record_child(
                lanes.h2d,
                SpanKind::CopyToDevice,
                call.kernel.clone(),
                h2d_s,
                h2d_e,
                parent_span,
            );
            let exec_span = trace.record_child(
                lanes.exec,
                SpanKind::Kernel,
                call.kernel.clone(),
                ex_s,
                ex_e,
                h2d_span,
            );
            trace.record_child(
                lanes.d2h,
                SpanKind::CopyFromDevice,
                call.kernel.clone(),
                dh_s,
                dh_e,
                exec_span,
            );
        }
        metrics.observe("pcie.h2d", h2d_e - h2d_s);
        metrics.observe("kernel.exec", ex_e - ex_s);
        metrics.observe("pcie.d2h", dh_e - dh_s);

        nd.balancer.on_submit(didx);
        if metrics.enabled() {
            metrics.gauge_set(
                &format!("n{node}.dev{didx}.queue"),
                effective_submit,
                nd.balancer.queued(didx) as f64,
            );
        }
        nd.pending.push((launch.kernel(), didx, kernel_time, dh_e));

        let args = args_back.unwrap_or_else(|| std::mem::take(&mut call.args));
        Ok((dh_e, app.job_output(job, args), true))
    }
}

impl<A: CashmereApp> LeafRuntime<A> for CashmereLeafRuntime {
    fn plan(&mut self, app: &A, input: &A::Input, ctx: LeafCtx<'_>) -> LeafPlan<A::Output> {
        let LeafCtx {
            node,
            now,
            trace,
            metrics,
            cpu_lane: _,
            parent_span,
            faults,
            report,
        } = ctx;
        let jobs = app.device_jobs(input);
        assert!(!jobs.is_empty(), "device_jobs must be non-empty");
        let mut submit = now;
        let mut done = now;
        let mut cpu_cursor = now;
        let mut outputs = Vec::with_capacity(jobs.len());
        for job in &jobs {
            submit += self.config.submit_overhead;
            let (d, out) = self.run_device_job(
                app,
                node,
                job,
                submit,
                &mut cpu_cursor,
                trace,
                metrics,
                parent_span,
                faults,
                report,
            );
            done = done.max(d);
            outputs.push(out);
        }
        let output = if jobs.len() == 1 {
            outputs.pop().expect("one output")
        } else {
            app.combine(input, outputs)
        };
        // The managing core blocks until the last device job returns
        // (MCL.launch() is blocking), giving natural backpressure.
        LeafPlan::Cpu {
            compute: done - now,
            output,
        }
    }

    /// Node crash: the node's device state dies with it. Pull every engine
    /// timeline back to the crash instant (work past it never happens),
    /// release all buffers, and forget pending completions. Injected device
    /// deaths (`dead`) are permanent hardware facts and stay marked.
    fn on_node_crash(&mut self, node: usize, at: SimTime) {
        let Some(nd) = self.nodes.get_mut(node) else {
            return;
        };
        for slot in &mut nd.devices {
            slot.sim.abort_after(at);
            for (_, id) in slot.allocations.drain(..) {
                slot.sim.memory.free(id);
            }
            for (_, id) in slot.resident.drain() {
                slot.sim.memory.free(id);
            }
        }
        nd.pending.clear();
    }

    /// Node (re)join: the node's runtime process restarts, so its devices
    /// re-register with a balancer rebuilt from the static speed table —
    /// measured kernel times are deliberately forgotten (the restarted
    /// process re-measures). Devices killed by an injected death stay
    /// retired across the reboot.
    fn on_node_join(&mut self, node: usize, _at: SimTime) {
        let Some(nd) = self.nodes.get_mut(node) else {
            return;
        };
        let speeds: Vec<f64> = nd
            .devices
            .iter()
            .map(|s| s.sim.params.relative_speed)
            .collect();
        let mut balancer = Balancer::new(&speeds);
        balancer.set_policy(self.config.balancer_policy);
        for (didx, slot) in nd.devices.iter().enumerate() {
            if slot.dead {
                balancer.retire_device(didx);
            }
        }
        nd.balancer = balancer;
        nd.pending.clear();
    }

    /// Flight-recorder gauges: the balancer's cumulative placement mix —
    /// device jobs run per device class across the cluster, plus CPU
    /// fallbacks. Aggregated through a sorted map so column order is
    /// independent of node/slot enumeration order.
    fn probe(&self, out: &mut Vec<(String, f64)>) {
        let mut per_class: std::collections::BTreeMap<&str, u64> =
            std::collections::BTreeMap::new();
        for nd in &self.nodes {
            for slot in &nd.devices {
                *per_class.entry(slot.sim.level_name.as_str()).or_insert(0) += slot.jobs_run;
            }
        }
        for (class, jobs) in per_class {
            out.push((format!("placed.{class}"), jobs as f64));
        }
        out.push(("placed.cpu".into(), self.cpu_fallbacks as f64));
    }
}
