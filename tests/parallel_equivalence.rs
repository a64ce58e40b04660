//! Sweep equivalence: running a slice of the golden matrix through
//! `parallel_map` on pools of width 1, 2 and 8 must give identical
//! outcome tables — same total cycles, same merged controller stats, in
//! input order.
//!
//! This is the determinism contract of sweep-grain parallelism
//! (DESIGN.md §4f): each simulation runs on one thread, simulations share
//! nothing, and results come back in input order, so pool width and
//! scheduling order must be unobservable.
//!
//! The full slice runs in release only (like `golden_pipeline`); a
//! smoke slice still runs in debug builds.

use pim_coscheduling::core::policy::PolicyKind;
use pim_coscheduling::core::McStats;
use pim_coscheduling::sim::experiments::sweep::{parallel_map_on, WorkerPool};
use pim_coscheduling::sim::Runner;
use pim_coscheduling::types::{SystemConfig, VcMode};
use pim_coscheduling::workloads::{
    gpu_kernel, pim_kernel, pim_suite::PimBenchmark, rodinia::GpuBenchmark,
};

const SCALE: f64 = 0.01;
const BUDGET: u64 = 20_000_000;
const WIDTHS: [usize; 3] = [1, 2, 8];

#[derive(Clone, Copy, Debug)]
enum Workload {
    SoloMem,
    SoloPim,
    Coexec,
}

/// One matrix cell: `(policy, workload, VC mode)`.
type Cell = (PolicyKind, Workload, VcMode);

fn runner(policy: PolicyKind, vc_mode: VcMode) -> Runner {
    let mut cfg = SystemConfig::default();
    cfg.noc.vc_mode = vc_mode;
    let mut r = Runner::new(cfg, policy);
    r.max_gpu_cycles = BUDGET;
    r
}

/// Every integer observable of a run, flattened for exact comparison.
fn mc_fields(mc: &McStats) -> Vec<u64> {
    vec![
        mc.mem_arrivals,
        mc.pim_arrivals,
        mc.mem_served,
        mc.pim_served,
        mc.mem_row_hits,
        mc.mem_row_misses,
        mc.pim_row_hits,
        mc.pim_row_misses,
        mc.switches,
        mc.switches_mem_to_pim,
        mc.mem_drain_latency_sum,
        mc.switch_conflicts,
        mc.blp_sum,
        mc.active_cycles,
        mc.mem_q_occupancy_sum,
        mc.pim_q_occupancy_sum,
        mc.cycles,
        mc.cycles_mem_mode,
        mc.cycles_pim_mode,
        mc.cycles_draining,
        mc.mem_latency.count(),
        mc.mem_latency.max(),
        mc.pim_latency.count(),
        mc.pim_latency.max(),
    ]
}

fn run_cell((policy, workload, vc): Cell) -> Vec<u64> {
    let r = runner(policy, vc);
    let (mut head, mc) = match workload {
        Workload::SoloMem => {
            let out = r
                .standalone(Box::new(gpu_kernel(GpuBenchmark(3), 16, SCALE)), 0, false)
                .expect("solo MEM finishes");
            (vec![out.cycles, out.icnt_injections], out.mc)
        }
        Workload::SoloPim => {
            let out = r
                .standalone(
                    Box::new(pim_kernel(PimBenchmark(1), 32, 4, 256, SCALE)),
                    0,
                    true,
                )
                .expect("solo PIM finishes");
            (vec![out.cycles, out.icnt_injections], out.mc)
        }
        Workload::Coexec => {
            let out = r.coexec(
                Box::new(gpu_kernel(GpuBenchmark(8), 16, SCALE)),
                Box::new(pim_kernel(PimBenchmark(2), 32, 4, 256, SCALE)),
                true,
            );
            (
                vec![
                    out.total_cycles,
                    out.gpu_first_run,
                    out.pim_first_run,
                    u64::from(out.gpu_starved),
                    u64::from(out.pim_starved),
                ],
                out.mc,
            )
        }
    };
    head.extend(mc_fields(&mc));
    head
}

/// Runs `cells` through `parallel_map` at every pool width and asserts
/// the outcome tables are identical.
fn assert_widths_agree(cells: Vec<Cell>) {
    let tables: Vec<Vec<Vec<u64>>> = WIDTHS
        .iter()
        .map(|&width| parallel_map_on(&WorkerPool::new(width), cells.clone(), run_cell))
        .collect();
    for (width, table) in WIDTHS.iter().zip(&tables).skip(1) {
        for (i, (serial, row)) in tables[0].iter().zip(table).enumerate() {
            assert_eq!(
                serial, row,
                "{:?}: width {width} diverged from width 1",
                cells[i]
            );
        }
    }
}

/// A quick slice that runs even in debug builds, so plain `cargo test`
/// exercises the sweep pool end to end.
#[test]
fn coexec_smoke_cell_is_thread_count_independent() {
    assert_widths_agree(vec![
        (PolicyKind::FrFcfs, Workload::Coexec, VcMode::Shared),
        (
            PolicyKind::f3fs_competitive(),
            Workload::Coexec,
            VcMode::SplitPim,
        ),
        (PolicyKind::MemFirst, Workload::SoloMem, VcMode::Shared),
    ]);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs the full slice; use --release")]
fn parallel_matrix_matches_serial() {
    let mut cells = Vec::new();
    for policy in [
        PolicyKind::FrFcfs,
        PolicyKind::f3fs_competitive(),
        PolicyKind::MemFirst,
    ] {
        for workload in [Workload::SoloMem, Workload::SoloPim, Workload::Coexec] {
            for vc in [VcMode::Shared, VcMode::SplitPim] {
                cells.push((policy, workload, vc));
            }
        }
    }
    assert_widths_agree(cells);
}
