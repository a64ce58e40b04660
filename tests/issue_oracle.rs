//! Oracle property for the event-driven issue stage (DESIGN.md §4m):
//! a run whose kernels report their next issue cycle must be
//! bit-identical to the same run polled every cycle. The oracle is a
//! wrapper that forwards every `KernelModel` method except
//! `next_issue_cycle`, so the issue stage falls back to the trait's
//! always-poll default — no simulator toggle is involved.
//!
//! The matrix is the golden-fixture matrix (policy × workload × VC
//! mode, HBM) plus two co-executions that drive the wake events: one in
//! which the short PIM kernel restarts many times (SMs woken by kernel
//! restarts), and one under tight PIM and MEM credit caps (SMs woken by
//! completions). Every observable is compared: cycles, first-run
//! times, run counts, injections, merged controller stats, the step mix
//! and the fast-forward counters. The golden matrix runs in release
//! builds (tier-1 runs this file at `PIMSIM_THREADS=1` and `=4`); the
//! two wake cases also run in debug builds.

use pim_coscheduling::core::policy::PolicyKind;
use pim_coscheduling::core::{McStats, StepMix};
use pim_coscheduling::gpu::{IssuedRequest, KernelModel};
use pim_coscheduling::sim::Simulator;
use pim_coscheduling::types::{Cycle, RequestId, SystemConfig, VcMode};
use pim_coscheduling::workloads::{
    gpu_kernel, pim_kernel, pim_suite::PimBenchmark, rodinia::GpuBenchmark,
};

const SCALE: f64 = 0.01;
const BUDGET: u64 = 20_000_000;
/// The co-execution harness's starvation cutoff (`Runner::coexec`).
const CUTOFF_RUNS: u64 = 25;

/// Forwards everything but `next_issue_cycle`: the issue stage then
/// polls the wrapped kernel every cycle, as it did before issue hints.
struct AlwaysPoll(Box<dyn KernelModel>);

impl KernelModel for AlwaysPoll {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn num_slots(&self) -> usize {
        self.0.num_slots()
    }

    fn try_issue(&mut self, slot: usize, now: Cycle, id: RequestId) -> Option<IssuedRequest> {
        self.0.try_issue(slot, now, id)
    }

    fn on_complete(&mut self, slot: usize, id: RequestId, now: Cycle) {
        self.0.on_complete(slot, id, now);
    }

    fn is_done(&self) -> bool {
        self.0.is_done()
    }

    fn total_requests(&self) -> u64 {
        self.0.total_requests()
    }

    fn reset(&mut self) {
        self.0.reset();
    }

    fn next_activity_cycle(&self, now: Cycle) -> Option<Cycle> {
        self.0.next_activity_cycle(now)
    }

    fn wants_completions(&self, now: Cycle) -> bool {
        self.0.wants_completions(now)
    }
}

/// One kernel to mount: the model, its first SM, whether it is PIM.
type Mount = (Box<dyn KernelModel>, usize, bool);

/// Everything a run exposes, flattened for exact comparison, plus the
/// poll count (which is expected to differ).
#[derive(Debug)]
struct Observed {
    values: Vec<(&'static str, u64)>,
    mix: StepMix,
    polls: u64,
}

fn mc_fields(mc: &McStats) -> Vec<(&'static str, u64)> {
    vec![
        ("mem_arrivals", mc.mem_arrivals),
        ("pim_arrivals", mc.pim_arrivals),
        ("mem_served", mc.mem_served),
        ("pim_served", mc.pim_served),
        ("mem_row_hits", mc.mem_row_hits),
        ("mem_row_misses", mc.mem_row_misses),
        ("pim_row_hits", mc.pim_row_hits),
        ("pim_row_misses", mc.pim_row_misses),
        ("switches", mc.switches),
        ("switches_mem_to_pim", mc.switches_mem_to_pim),
        ("mem_drain_latency_sum", mc.mem_drain_latency_sum),
        ("switch_conflicts", mc.switch_conflicts),
        ("blp_sum", mc.blp_sum),
        ("active_cycles", mc.active_cycles),
        ("mem_q_occupancy_sum", mc.mem_q_occupancy_sum),
        ("pim_q_occupancy_sum", mc.pim_q_occupancy_sum),
        ("mc_cycles", mc.cycles),
        ("cycles_mem_mode", mc.cycles_mem_mode),
        ("cycles_pim_mode", mc.cycles_pim_mode),
        ("cycles_draining", mc.cycles_draining),
        ("mem_latency_count", mc.mem_latency.count()),
        ("mem_latency_max", mc.mem_latency.max()),
        ("pim_latency_count", mc.pim_latency.count()),
        ("pim_latency_max", mc.pim_latency.max()),
    ]
}

/// Runs `kernels` on a fresh simulator, optionally hiding every issue
/// hint behind [`AlwaysPoll`]. Looping runs restart each kernel on
/// completion and stop at the harness's starvation cutoff, as
/// `Runner::coexec` does.
fn run(
    cfg: &SystemConfig,
    policy: PolicyKind,
    kernels: Vec<Mount>,
    looping: bool,
    poll_all: bool,
) -> Observed {
    let mut sim = Simulator::new(cfg.clone(), policy);
    for (model, base, is_pim) in kernels {
        let model: Box<dyn KernelModel> = if poll_all {
            Box::new(AlwaysPoll(model))
        } else {
            model
        };
        let slots = model.num_slots();
        sim.mount(model, (base..base + slots).collect(), is_pim, looping);
    }
    let finished = if looping {
        sim.run_with_starvation_cutoff(BUDGET, Some(CUTOFF_RUNS))
            .is_ok()
    } else {
        sim.run_until_all_first_done(BUDGET).is_ok()
    };
    let (skips, skipped) = sim.fast_forward_stats();
    let mut values = vec![
        ("finished", u64::from(finished)),
        ("gpu_cycles", sim.gpu_cycles()),
        ("ff_skips", skips),
        ("ff_skipped_cycles", skipped),
    ];
    for k in sim.kernels() {
        values.push(("first_run", k.first_run_cycles.unwrap_or(u64::MAX)));
        values.push(("runs", k.runs));
        values.push(("icnt_injections", k.icnt_injections));
    }
    values.extend(mc_fields(&sim.merged_mc_stats()));
    Observed {
        values,
        mix: sim.merged_step_mix(),
        polls: sim.issue_polls(),
    }
}

/// Runs the case hinted and always-polled and asserts bit-identity.
/// Returns the hinted observation.
fn assert_matches_oracle(
    ctx: &str,
    cfg: &SystemConfig,
    policy: PolicyKind,
    kernels: impl Fn() -> Vec<Mount>,
    looping: bool,
) -> Observed {
    let hinted = run(cfg, policy, kernels(), looping, false);
    let oracle = run(cfg, policy, kernels(), looping, true);
    assert_eq!(hinted.values, oracle.values, "{ctx}: observables diverged");
    assert_eq!(hinted.mix, oracle.mix, "{ctx}: step mix diverged");
    // Every hinted poll happens on a cycle where the oracle polls too.
    assert!(
        hinted.polls <= oracle.polls,
        "{ctx}: hinted run polled more ({} > {})",
        hinted.polls,
        oracle.polls
    );
    hinted
}

/// The golden-fixture workloads (`tests/golden_pipeline.rs`).
fn golden_workload(name: &str) -> (Vec<Mount>, bool) {
    match name {
        "mem_G3" => (
            vec![(Box::new(gpu_kernel(GpuBenchmark(3), 16, SCALE)), 0, false)],
            false,
        ),
        "pim_P1" => (
            vec![(
                Box::new(pim_kernel(PimBenchmark(1), 32, 4, 256, SCALE)),
                0,
                true,
            )],
            false,
        ),
        "coexec_G8_P2" => (
            vec![
                (
                    Box::new(pim_kernel(PimBenchmark(2), 32, 4, 256, SCALE)),
                    0,
                    true,
                ),
                (Box::new(gpu_kernel(GpuBenchmark(8), 16, SCALE)), 8, false),
            ],
            true,
        ),
        "replysat_G15" => (
            vec![(Box::new(gpu_kernel(GpuBenchmark(15), 32, SCALE)), 0, false)],
            false,
        ),
        other => unreachable!("unknown workload {other}"),
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs the full matrix; use --release")]
fn issue_hints_match_always_poll_oracle_on_golden_matrix() {
    for policy in ["fr-fcfs", "f3fs", "mem-first"] {
        for workload in ["mem_G3", "pim_P1", "coexec_G8_P2", "replysat_G15"] {
            for (vc, vc_mode) in [("vc1", VcMode::Shared), ("vc2", VcMode::SplitPim)] {
                let mut cfg = SystemConfig::default();
                cfg.noc.vc_mode = vc_mode;
                let kind = PolicyKind::parse_spec(policy).expect("registered policy");
                let looping = golden_workload(workload).1;
                assert_matches_oracle(
                    &format!("{policy}/{workload}/{vc}"),
                    &cfg,
                    kind,
                    || golden_workload(workload).0,
                    looping,
                );
            }
        }
    }
}

/// A PIM kernel far shorter than its MEM co-runner loops many times
/// before the MEM kernel's first run ends: every restart must wake the
/// PIM kernel's SMs, which sleep once all their warps are done.
#[test]
fn issue_hints_match_always_poll_oracle_through_restarts() {
    let hinted = assert_matches_oracle(
        "looping coexec",
        &SystemConfig::default(),
        PolicyKind::f3fs_competitive(),
        || {
            vec![
                (
                    Box::new(pim_kernel(PimBenchmark(2), 32, 4, 16, 0.002)),
                    0,
                    true,
                ),
                (Box::new(gpu_kernel(GpuBenchmark(8), 72, 0.5)), 8, false),
            ]
        },
        true,
    );
    let runs = hinted
        .values
        .iter()
        .filter(|(k, _)| *k == "runs")
        .map(|&(_, v)| v)
        .max()
        .expect("two kernels");
    assert!(
        runs >= 3,
        "the PIM kernel should restart several times, ran {runs}"
    );
}

/// Credit-throttled issue: PIM warps with a 2-store cap and MEM SMs
/// with a 2-request cap spend most cycles asleep until an ack or reply
/// retires to them, the path whose wake-ups come from completions.
#[test]
fn issue_hints_match_always_poll_oracle_under_credit_throttling() {
    let mut cfg = SystemConfig::default();
    cfg.gpu.max_outstanding_mem_per_sm = 2;
    assert_matches_oracle(
        "throttled coexec",
        &cfg,
        PolicyKind::f3fs_competitive(),
        || {
            vec![
                (
                    Box::new(pim_kernel(PimBenchmark(1), 32, 4, 2, SCALE)),
                    0,
                    true,
                ),
                (Box::new(gpu_kernel(GpuBenchmark(4), 16, SCALE)), 8, false),
            ]
        },
        true,
    );
}
