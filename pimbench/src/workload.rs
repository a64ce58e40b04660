//! The three workloads, their job lists, and the driver that runs one
//! job through the simulator's public API and harvests its outcome.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use pimsim_core::{McStats, MemoryController, PolicyKind, StepMix};
use pimsim_gpu::{KernelModel, SyntheticGpuKernel};
use pimsim_sim::{Runner, Simulator};
use pimsim_types::{SplitMix64, SystemConfig, VcMode};
use pimsim_workloads::pim_kernel;
use pimsim_workloads::pim_suite::PimBenchmark;
use pimsim_workloads::rodinia::{gpu_kernel_params, GpuBenchmark};

use crate::tally::Tally;
use crate::traced::{GpuCounters, TracedKernel};

/// The seed whose outcomes `expected/<workload>.txt` records. Seed 0
/// leaves every GPU kernel at the workloads crate's calibrated seed.
pub const DEFAULT_SEED: u64 = 0;

/// Work scale of `mem_solo`'s kernels (1.0 = the workloads crate's
/// fast-sweep size).
const MEM_SCALE: f64 = 0.2;
/// Work scale of `pim_solo`'s kernels.
const PIM_SCALE: f64 = 0.2;
/// Work scale of both kernels of a `coexec_sweep` job.
const COEXEC_SCALE: f64 = 0.04;
/// GPU-cycle budget of a standalone job; a job that exceeds it fails.
const SOLO_BUDGET: u64 = 60_000_000;
/// GPU-cycle budget of a co-execution job (the figure binaries'
/// default); standalone baselines get four times as much, as in
/// `run_baselines`.
const COEXEC_BUDGET: u64 = 6_000_000;
/// Co-runner runs after which an unfinished kernel counts as starved,
/// as in `Runner::coexec`.
const STARVATION_CUTOFF: u64 = 25;

/// SM counts `mem_solo` runs each GPU kernel on: from sparse issue,
/// where fast-forward engages, to the full GPU.
const MEM_SMS: [usize; 5] = [8, 16, 40, 72, 80];
/// Per-warp outstanding limits `pim_solo` runs each PIM kernel at: from
/// a sparse to a saturated request crossbar.
const PIM_OUTSTANDING: [u32; 6] = [4, 8, 16, 64, 128, 256];
/// DRAM backends `pim_solo` runs each PIM kernel on.
const PIM_BACKENDS: [&str; 2] = ["hbm", "lp5x:ranks=4"];
/// The `fig10 --quick` kernel grid.
const COEXEC_GPUS: [u8; 6] = [4, 8, 11, 15, 17, 19];
const COEXEC_PIMS: [u8; 3] = [1, 2, 4];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Standalone GPU kernels, serial.
    MemSolo,
    /// Standalone PIM kernels on both DRAM backends, serial.
    PimSolo,
    /// The competitive co-execution grid, through the sweep pool.
    CoexecSweep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::MemSolo, Workload::PimSolo, Workload::CoexecSweep];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MemSolo => "mem_solo",
            Workload::PimSolo => "pim_solo",
            Workload::CoexecSweep => "coexec_sweep",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the jobs fan out over `parallel_map`.
    pub fn pooled(self) -> bool {
        self == Workload::CoexecSweep
    }

    /// The workload's jobs in the order `seed` picks.
    pub fn jobs(self, seed: u64) -> Vec<Job> {
        let mut jobs = match self {
            Workload::MemSolo => mem_solo(seed),
            Workload::PimSolo => pim_solo(),
            Workload::CoexecSweep => coexec_sweep(seed),
        };
        // Fisher-Yates with the workload seed: order moves the pool's
        // load balance on the sweep, and keeps serial runs from always
        // meeting the same job first.
        let mut rng = SplitMix64::new(seed ^ 0x05EE_D0F0_BDE5);
        for i in (1..jobs.len()).rev() {
            let j = rng.next_range(i as u64 + 1) as usize;
            jobs.swap(i, j);
        }
        jobs
    }
}

/// A kernel to build at job start.
#[derive(Debug, Clone, Copy)]
enum Kernel {
    Gpu {
        bench: GpuBenchmark,
        sms: usize,
        scale: f64,
    },
    Pim {
        bench: PimBenchmark,
        outstanding: u32,
        scale: f64,
    },
}

impl Kernel {
    /// Builds the model. The workload seed reaches GPU kernels through
    /// their address-stream seed; PIM kernels have no random input (their
    /// block structure is fixed by the benchmark), so they ignore it.
    fn build(self, cfg: &SystemConfig, seed: u64) -> Box<dyn KernelModel> {
        match self {
            Kernel::Gpu { bench, sms, scale } => {
                let mut params = gpu_kernel_params(bench, scale);
                params.seed ^= seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                Box::new(SyntheticGpuKernel::new(params, sms))
            }
            Kernel::Pim {
                bench,
                outstanding,
                scale,
            } => Box::new(pim_kernel(
                bench,
                cfg.dram.channels,
                cfg.gpu.pim_warps_per_sm,
                outstanding,
                scale,
            )),
        }
    }

    fn is_pim(self) -> bool {
        matches!(self, Kernel::Pim { .. })
    }
}

/// One simulation: a configured [`Runner`] plus the kernels it mounts.
#[derive(Debug, Clone)]
pub struct Job {
    /// Stable name, the key of the expected record.
    pub key: String,
    runner: Runner,
    seed: u64,
    /// `(kernel, first SM)`, mounted in order.
    kernels: Vec<(Kernel, usize)>,
    /// Co-execution: kernels restart until each has run once, and a
    /// starvation cutoff is a legitimate end.
    coexec: bool,
}

impl Job {
    fn solo(key: String, runner: Runner, seed: u64, kernel: Kernel, sm_base: usize) -> Job {
        Job {
            key,
            runner,
            seed,
            kernels: vec![(kernel, sm_base)],
            coexec: false,
        }
    }
}

fn runner(system: SystemConfig, policy: PolicyKind, budget: u64) -> Runner {
    let mut r = Runner::new(system, policy);
    r.max_gpu_cycles = budget;
    r
}

fn mem_solo(seed: u64) -> Vec<Job> {
    let mut jobs = Vec::new();
    for bench in GpuBenchmark::all() {
        for sms in MEM_SMS {
            jobs.push(Job::solo(
                format!("{}/sms{sms}", bench.label()),
                runner(SystemConfig::default(), PolicyKind::FrFcfs, SOLO_BUDGET),
                seed,
                Kernel::Gpu {
                    bench,
                    sms,
                    scale: MEM_SCALE,
                },
                0,
            ));
        }
    }
    jobs
}

fn pim_solo() -> Vec<Job> {
    let mut jobs = Vec::new();
    for bench in PimBenchmark::all() {
        for spec in PIM_BACKENDS {
            let kind = pimsim_dram::backend::parse_spec(spec).expect("registered backend");
            let system = pimsim_dram::backend::system_config(kind);
            for outstanding in PIM_OUTSTANDING {
                jobs.push(Job::solo(
                    format!("{}/out{outstanding}/{spec}", bench.label()),
                    runner(system.clone(), PolicyKind::FrFcfs, SOLO_BUDGET),
                    0,
                    Kernel::Pim {
                        bench,
                        outstanding,
                        scale: PIM_SCALE,
                    },
                    0,
                ));
            }
        }
    }
    jobs
}

fn coexec_sweep(seed: u64) -> Vec<Job> {
    let base = SystemConfig::default();
    let pim_sms = base.dram.channels / base.gpu.pim_warps_per_sm;
    let pim = |bench: u8, outstanding: u32| Kernel::Pim {
        bench: PimBenchmark(bench),
        outstanding,
        scale: COEXEC_SCALE,
    };
    let gpu = |bench: u8, sms: usize| Kernel::Gpu {
        bench: GpuBenchmark(bench),
        sms,
        scale: COEXEC_SCALE,
    };
    let full_pim = base.gpu.max_outstanding_pim_per_warp as u32;
    let baseline = |key: String, kernel: Kernel, sm_base: usize| {
        let r = runner(base.clone(), PolicyKind::FrFcfs, COEXEC_BUDGET * 4);
        Job::solo(key, r, seed, kernel, sm_base)
    };
    let mut jobs = Vec::new();
    // The standalone references the sweep's fairness metrics divide by.
    for g in COEXEC_GPUS {
        jobs.push(baseline(format!("base/G{g}/sms80"), gpu(g, 80), 0));
        jobs.push(baseline(format!("base/G{g}/sms72"), gpu(g, 72), pim_sms));
    }
    for p in COEXEC_PIMS {
        jobs.push(baseline(format!("base/P{p}"), pim(p, full_pim), 0));
    }
    for (vc, vc_name) in [(VcMode::Shared, "vc1"), (VcMode::SplitPim, "vc2")] {
        let mut system = base.clone();
        system.noc.vc_mode = vc;
        for policy in PolicyKind::all() {
            for g in COEXEC_GPUS {
                for p in COEXEC_PIMS {
                    jobs.push(Job {
                        key: format!("G{g}+P{p}/{}/{vc_name}", policy.canonical_name()),
                        runner: runner(system.clone(), policy, COEXEC_BUDGET),
                        seed,
                        kernels: vec![(pim(p, full_pim), 0), (gpu(g, 72), pim_sms)],
                        coexec: true,
                    });
                }
            }
        }
    }
    jobs
}

/// A job's simulated result: the model output the benchmark checks and
/// never scores. Speed-only changes to the simulator must leave it
/// bit-identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// GPU cycles simulated, fast-forwarded spans included.
    pub cycles: u64,
    /// First-run cycles per mounted kernel; `None` = starved.
    pub first_runs: Vec<Option<u64>>,
    /// MEM `(arrivals, served, still queued)` at the controllers.
    pub mem: (u64, u64, u64),
    /// PIM `(arrivals, served, still queued)` at the controllers.
    pub pim: (u64, u64, u64),
    /// Completed mode switches.
    pub switches: u64,
    /// MEM drain latency summed over MEM-to-PIM switches, DRAM cycles.
    pub drain: u64,
    /// Request crossbar `[injected, ejected, inject stalls, eject stalls]`.
    pub xbar: [u64; 4],
}

impl Outcome {
    /// The record line's value fields.
    pub fn record(&self) -> String {
        let first: Vec<String> = self
            .first_runs
            .iter()
            .map(|f| f.map_or("starved".into(), |c| c.to_string()))
            .collect();
        let x = self.xbar;
        format!(
            "cycles={} first={} mem={}/{}/{} pim={}/{}/{} switches={} drain={} xbar={}/{}/{}/{}",
            self.cycles,
            first.join(","),
            self.mem.0,
            self.mem.1,
            self.mem.2,
            self.pim.0,
            self.pim.1,
            self.pim.2,
            self.switches,
            self.drain,
            x[0],
            x[1],
            x[2],
            x[3]
        )
    }

    /// Invariants that hold on every seed: every request that reached a
    /// controller was served or is still queued there (a run can end
    /// with L2 writebacks, or a co-runner's requests, in flight), and a
    /// standalone kernel finished.
    fn invariant_error(&self, coexec: bool) -> Option<String> {
        let conserved = |(arrived, served, queued): (u64, u64, u64)| arrived == served + queued;
        if !conserved(self.mem) || !conserved(self.pim) {
            return Some(format!(
                "arrivals are not served + queued: {}",
                self.record()
            ));
        }
        if !coexec && self.first_runs.iter().any(Option::is_none) {
            return Some("standalone kernel did not finish".into());
        }
        None
    }
}

/// Host-time marks of one job, in ns since the run's epoch: start,
/// kernels built, simulator built, kernels mounted, run finished,
/// outcome harvested and simulator dropped.
pub type Marks = [u64; 6];

/// What one job run produced.
pub struct JobRun {
    /// The simulated outcome, or why the job failed.
    pub outcome: Result<Outcome, String>,
    /// Controller step mix plus simulator stage ticks.
    pub mix: StepMix,
    /// `(fast-forward jumps, GPU cycles they covered)`.
    pub ff: (u64, u64),
    pub marks: Marks,
    /// Host time of the calibration loop run just before the job, ns.
    pub calibration_ns: u64,
    /// The pool lane that ran the job (0 = the calling thread).
    pub lane: usize,
    /// Per-layer counts and stage times (traced runs only).
    pub layers: Tally,
}

impl JobRun {
    pub fn cycles(&self) -> u64 {
        self.outcome.as_ref().map_or(0, |o| o.cycles)
    }
}

fn lane() -> usize {
    std::thread::current()
        .name()
        .and_then(|n| n.strip_prefix("pimsim-pool-"))
        .and_then(|i| i.parse().ok())
        .unwrap_or(0)
}

fn since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs `job`, after one calibration loop. With `traced`, the simulator
/// profiles its stages and every kernel sits behind a counting
/// [`TracedKernel`]; the simulated outcome must not change.
pub fn run_job(job: &Job, traced: bool, epoch: Instant) -> JobRun {
    let calibration_ns = crate::speed::calibrate();
    let mut marks: Marks = [since(epoch), 0, 0, 0, 0, 0];
    let mut mix = StepMix::default();
    let mut ff = (0, 0);
    let mut layers = Tally::default();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let r = &job.runner;
        let counters = Arc::new(GpuCounters::default());
        let models: Vec<(Box<dyn KernelModel>, usize, bool)> = job
            .kernels
            .iter()
            .map(|&(k, sm_base)| {
                let mut model = k.build(&r.system, job.seed);
                if traced {
                    model = Box::new(TracedKernel::new(model, Arc::clone(&counters)));
                }
                (model, sm_base, k.is_pim())
            })
            .collect();
        marks[1] = since(epoch);
        // The simulator `Runner` would build, without running it, so the
        // set-up is timed on its own.
        let mut sim = Simulator::new(r.system.clone(), r.policy);
        sim.set_fast_forward(r.fast_forward);
        sim.set_event_delivery(r.event_delivery);
        sim.set_ack_batching(r.ack_batching);
        sim.set_eject_batching(r.eject_batching);
        if let Some(threads) = r.memory_threads {
            sim.set_memory_threads(threads);
        }
        sim.set_stage_profiling(traced);
        marks[2] = since(epoch);
        for (model, sm_base, is_pim) in models {
            let slots = model.num_slots();
            sim.mount(
                model,
                (sm_base..sm_base + slots).collect(),
                is_pim,
                job.coexec,
            );
        }
        marks[3] = since(epoch);
        let ran = if job.coexec {
            let _ = sim.run_with_starvation_cutoff(r.max_gpu_cycles, Some(STARVATION_CUTOFF));
            Ok(())
        } else {
            sim.run_until_all_first_done(r.max_gpu_cycles)
                .map(|_| ())
                .map_err(|e| e.to_string())
        };
        marks[4] = since(epoch);
        let mc = sim.merged_mc_stats();
        let noc = sim.request_noc_stats();
        let queued = |len: fn(&MemoryController) -> usize| {
            sim.partitions().map(|p| len(&p.mc) as u64).sum::<u64>()
        };
        let outcome = Outcome {
            cycles: sim.gpu_cycles(),
            first_runs: sim.kernels().iter().map(|k| k.first_run_cycles).collect(),
            mem: (
                mc.mem_arrivals,
                mc.mem_served,
                queued(MemoryController::mem_q_len),
            ),
            pim: (
                mc.pim_arrivals,
                mc.pim_served,
                queued(MemoryController::pim_q_len),
            ),
            switches: mc.switches,
            drain: mc.mem_drain_latency_sum,
            xbar: [
                noc.injected,
                noc.ejected,
                noc.inject_stalls,
                noc.eject_stalls,
            ],
        };
        mix = sim.merged_step_mix();
        ff = sim.fast_forward_stats();
        if traced {
            layers = harvest_layers(&sim, &mix, &counters, &mc);
        }
        drop(sim);
        marks[5] = since(epoch);
        ran?;
        match outcome.invariant_error(job.coexec) {
            Some(e) => Err(e),
            None => Ok(outcome),
        }
    }));
    let outcome = match result {
        Ok(r) => r,
        Err(panic) => Err(panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_else(|| "job panicked".into())),
    };
    // A panic leaves the marks after it unset; close them at now.
    let end = since(epoch);
    for m in marks.iter_mut().filter(|m| **m == 0) {
        *m = end;
    }
    JobRun {
        outcome,
        mix,
        ff,
        marks,
        calibration_ns,
        lane: lane(),
        layers,
    }
}

/// Per-layer counts and stage times of one traced job, read from the
/// simulator's public probes and the kernel wrapper.
fn harvest_layers(sim: &Simulator, mix: &StepMix, gpu: &GpuCounters, mc: &McStats) -> Tally {
    let mut t = Tally::default();
    let prof = *sim.stage_profile().expect("profiling was enabled");
    let s = |ns: u64| ns as f64 * 1e-9;
    t.add("sim.issue_s", s(prof.issue_ns));
    t.add("sim.request_net_s", s(prof.request_net_ns));
    t.add("sim.memory_s", s(prof.memory_ns));
    t.add("sim.reply_net_s", s(prof.reply_net_ns));
    t.add("sim.completion_s", s(prof.completion_ns));
    t.add("sim.stages_s", s(prof.total_ns()));
    t.count("sim.stepped_cycles", prof.stepped_cycles);
    t.count("jobs.simulated_cycles", sim.gpu_cycles());
    t.count("sim.ff_skipped_cycles", sim.fast_forward_stats().1);
    t.count("sim.ticks_request_net", mix.ticks_request_net);
    t.count("sim.ticks_memory", mix.ticks_memory);
    t.count("sim.ticks_reply_net", mix.ticks_reply_net);
    t.count("sim.ticks_completion", mix.ticks_completion);
    t.count("sim.replayed_visits", mix.replayed_visits);
    t.count("sim.replay_batches", mix.replay_batches);
    t.count("sim.requests_batched", mix.requests_batched);
    t.count("sim.acks_batched", mix.acks_batched);
    let noc = sim.request_noc_stats();
    t.count("noc.injected", noc.injected);
    t.count("noc.inject_stalls", noc.inject_stalls);
    t.count("noc.eject_stalls", noc.eject_stalls);
    gpu.add_to(&mut t);
    t.count("core.full_steps", mix.full_steps);
    t.count("core.memo_replayed", mix.memo_replayed);
    t.count("core.burst_retired", mix.burst_retired);
    t.count("core.memo_invalidations", mix.memo_invalidations);
    t.count("core.plan_spans_replayed", mix.plan_spans_replayed);
    t.count("core.mode_switches", mc.switches);
    t.count("core.drain_cycles", mc.cycles_draining);
    for p in sim.partitions() {
        let l2 = p.l2().stats();
        t.count("l2.hits", l2.hits);
        t.count("l2.misses", l2.misses);
        t.count("l2.merges", l2.merges);
        t.count("l2.writebacks", l2.writebacks);
    }
    let ch = sim.merged_channel_stats();
    t.count("dram.acts", ch.acts);
    t.count("dram.reads", ch.reads);
    t.count("dram.writes", ch.writes);
    t.count("dram.pim_ops", ch.pim_ops);
    t
}

#[cfg(test)]
impl Job {
    pub fn budget(&self) -> u64 {
        self.runner.max_gpu_cycles
    }

    /// The `i`-th kernel's model, untraced.
    pub fn kernel_model(&self, i: usize) -> Box<dyn KernelModel> {
        self.kernels[i].0.build(&self.runner.system, self.seed)
    }

    /// The same job through `Runner::standalone` / `Runner::coexec`:
    /// `(runner, first runs in mount order, merged controller stats)`.
    pub fn via_runner(&self) -> (Runner, Vec<Option<u64>>, McStats) {
        let r = self.runner.clone();
        if self.coexec {
            let out = r.coexec(self.kernel_model(1), self.kernel_model(0), true);
            let first = |starved: bool, c: u64| (!starved).then_some(c);
            let runs = vec![
                first(out.pim_starved, out.pim_first_run),
                first(out.gpu_starved, out.gpu_first_run),
            ];
            (r, runs, out.mc)
        } else {
            let (kernel, sm_base) = self.kernels[0];
            let out = r
                .standalone(self.kernel_model(0), sm_base, kernel.is_pim())
                .expect("standalone job finishes");
            (r, vec![Some(out.cycles)], out.mc)
        }
    }
}
