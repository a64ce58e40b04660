//! Anatomy of the denial-of-service chain (Figure 7a): watch the queues
//! fill from the memory controller backwards into the interconnect when a
//! PIM kernel floods a shared-VC system, and how the separate PIM virtual
//! channel (Figure 7b) keeps the MEM path clear.
//!
//! Prints a time series of occupancies: NoC input buffers, the
//! interconnect→L2 and L2→DRAM staging queues, and the MC's MEM/PIM
//! queues (summed across the 32 partitions).
//!
//! ```sh
//! cargo run --release --example congestion_anatomy
//! ```

use pim_coscheduling::prelude::*;
use pim_coscheduling::sim::Simulator;
use pim_coscheduling::workloads::{gpu_kernel, pim_kernel};

/// Occupancies at the current cycle. Partitions with no work due sleep
/// and catch up lazily, so the memory stage is synced first.
fn snapshot(sim: &mut Simulator) -> (usize, usize, usize, usize, usize) {
    sim.sync_memory();
    let mut icnt = 0;
    let mut l2d = 0;
    let mut memq = 0;
    let mut pimq = 0;
    for p in sim.partitions() {
        for vc in 0..p.vc_count() {
            icnt += p.icnt_q_len(vc);
            l2d += p.l2dram_q_len(vc);
        }
        memq += p.mc.mem_q_len();
        pimq += p.mc.pim_q_len();
    }
    (sim.request_noc_occupancy(), icnt, l2d, memq, pimq)
}

fn main() {
    let scale = 0.3;
    for vc in [VcMode::Shared, VcMode::SplitPim] {
        let mut system = SystemConfig::default();
        system.noc.vc_mode = vc;
        // MEM-First: the policy that *should* protect MEM but cannot when
        // the shared interconnect is already full of PIM flits.
        let mut sim = Simulator::new(system, PolicyKind::MemFirst);
        sim.mount(
            Box::new(pim_kernel(PimBenchmark(1), 32, 4, 256, scale)),
            (0..8).collect(),
            true,
            true,
        );
        sim.mount(
            Box::new(gpu_kernel(GpuBenchmark(19), 72, scale)),
            (8..80).collect(),
            false,
            true,
        );
        println!("\n=== {vc} under MEM-First: queue occupancies over time ===");
        println!(
            "{:>7} {:>8} {:>9} {:>8} {:>7} {:>7}",
            "cycle", "NoC", "icnt->L2", "L2->DRAM", "MEM-Q", "PIM-Q"
        );
        for step in 0..20 {
            for _ in 0..250 {
                sim.step();
            }
            let (noc, icnt, l2d, memq, pimq) = snapshot(&mut sim);
            println!(
                "{:>7} {:>8} {:>9} {:>8} {:>7} {:>7}",
                (step + 1) * 250,
                noc,
                icnt,
                l2d,
                memq,
                pimq
            );
        }
        let s = sim.request_noc_stats();
        println!(
            "NoC totals: injected {}, delivered {}, inject stalls {}, eject stalls {}",
            s.injected, s.ejected, s.inject_stalls, s.eject_stalls
        );
    }
    println!(
        "\nUnder VC1 the PIM flood parks in every shared queue and the NoC backs up;\n\
         under VC2 the PIM VC absorbs the flood while the MEM path stays shallow."
    );
}
