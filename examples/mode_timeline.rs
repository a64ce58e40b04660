//! ASCII timeline of MEM/PIM mode switching on one memory channel —
//! Figure 9's story made visible: compare how often each policy switches
//! and how long its phases run.
//!
//! `M` = MEM mode, `p` = PIM mode; each character is a 25-GPU-cycle bucket
//! (majority mode within the bucket).
//!
//! ```sh
//! cargo run --release --example mode_timeline
//! ```

use pim_coscheduling::prelude::*;
use pim_coscheduling::sim::Simulator;
use pim_coscheduling::workloads::{gpu_kernel, pim_kernel};

fn main() {
    let scale = 0.3;
    let policies = [
        PolicyKind::Fcfs,
        PolicyKind::FrFcfs,
        PolicyKind::FrRrFcfs,
        PolicyKind::GatherIssue { high: 56, low: 32 },
        PolicyKind::f3fs_competitive(),
    ];
    println!("mode of channel 0 over time (each char = 25 GPU cycles; M=MEM, p=PIM)\n");
    for policy in policies {
        let mut sim = Simulator::new(SystemConfig::default(), policy);
        sim.mount(
            Box::new(pim_kernel(PimBenchmark(1), 32, 4, 256, scale)),
            (0..8).collect(),
            true,
            true,
        );
        sim.mount(
            Box::new(gpu_kernel(GpuBenchmark(11), 72, scale)),
            (8..80).collect(),
            false,
            true,
        );
        let mut strip = String::new();
        for _bucket in 0..96 {
            let mut mem = 0u32;
            for _ in 0..25 {
                sim.step();
                // Sleeping partitions catch up lazily; sync before reading.
                sim.sync_memory();
                if sim.partition(0).mc.mode() == Mode::Mem {
                    mem += 1;
                }
            }
            strip.push(if mem >= 13 { 'M' } else { 'p' });
        }
        let s = sim.merged_mc_stats();
        println!("{:12} {strip}", policy.label());
        println!(
            "{:12} switches so far: {} across 32 channels\n",
            "", s.switches
        );
    }
    println!(
        "FCFS flips with every arrival-order inversion; FR-RR-FCFS rotates at each\n\
         row conflict; F3FS holds long phases and pays far fewer switches."
    );
}
