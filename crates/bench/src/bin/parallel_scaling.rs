//! Sweep-pool scaling: simulations per wall-clock second when the
//! Figure 5 sweep (every Rodinia victim standalone on 80 SMs, then on
//! 72 SMs beside each of six co-runners) runs through `parallel_map` on
//! pools of width 1 and 2, written to `BENCH_parallel.json`.
//!
//! Run with `cargo run --release --bin parallel_scaling`. Every width
//! first asserts it produced bit-identical bars to width 1 — throughput
//! is only comparable because the sweeps are identical. The host's CPU
//! count is recorded alongside the rates: on a machine with fewer cores
//! than lanes, the extra width measures dispatch overhead, not speedup.

use std::time::Instant;

use pimsim_bench::header;
use pimsim_sim::experiments::interference::{run_interference_on, InterferenceBar};
use pimsim_sim::experiments::sweep::WorkerPool;
use pimsim_types::SystemConfig;
use pimsim_workloads::rodinia::{memory_intensive_picks, GpuBenchmark};

/// Small enough that one sweep takes seconds, large enough that each
/// simulation dwarfs the pool's dispatch cost.
const SCALE: f64 = 0.1;
const BUDGET: u64 = 6_000_000;
/// Repeat each measurement and keep the best, so one scheduler hiccup
/// does not masquerade as a regression. Widths alternate within each
/// repetition, so both see the same drift in host load.
const REPS: usize = 3;
const WIDTHS: [usize; 2] = [1, 2];

fn bits(bars: &[InterferenceBar]) -> Vec<(String, u64)> {
    bars.iter()
        .map(|b| (b.corunner.clone(), b.avg_speedup.to_bits()))
        .collect()
}

fn main() {
    let host_cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    // One standalone baseline per victim, then the victim beside "none",
    // each memory-intensive pick and P1.
    let victims = GpuBenchmark::all().len();
    let runs = victims * (1 + memory_intensive_picks().len() + 2);
    header("Sweep-pool scaling: Figure 5 sweep, simulations per second per pool width");
    println!("  host CPUs: {host_cpus}   simulations per sweep: {runs}   scale {SCALE}\n");
    let system = SystemConfig::default();
    let pools: Vec<WorkerPool> = WIDTHS.iter().map(|&w| WorkerPool::new(w)).collect();
    let mut reference = None;
    let mut rates = [0.0_f64; WIDTHS.len()];
    for _ in 0..REPS {
        for (i, pool) in pools.iter().enumerate() {
            let t = Instant::now();
            let bars = run_interference_on(pool, &system, SCALE, BUDGET);
            rates[i] = rates[i].max(runs as f64 / t.elapsed().as_secs_f64());
            let got = bits(&bars);
            match &reference {
                None => reference = Some(got),
                Some(r) => assert_eq!(r, &got, "width {} changed the sweep's bars", WIDTHS[i]),
            }
        }
    }
    for (width, rate) in WIDTHS.iter().zip(rates) {
        println!("  width {width}: {rate:>8.2} simulations/s");
    }
    let speedup = rates[1] / rates[0];
    println!("\n  width 2 vs 1: {speedup:.2}x");
    // serde is vendored as a no-op shim in this workspace, so the JSON is
    // formatted by hand.
    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"parallel_scaling\",\n",
            "  \"sweep\": \"fig5 interference grid\",\n",
            "  \"unit\": \"simulations_per_wall_second\",\n",
            "  \"scale\": {},\n",
            "  \"simulations_per_sweep\": {},\n",
            "  \"reps\": {},\n",
            "  \"host_cpus\": {},\n",
            "  \"runs_per_sec_w1\": {:.3},\n",
            "  \"runs_per_sec_w2\": {:.3},\n",
            "  \"speedup_w2_vs_w1\": {:.3}\n",
            "}}\n"
        ),
        SCALE, runs, REPS, host_cpus, rates[0], rates[1], speedup
    );
    std::fs::write("BENCH_parallel.json", &json).expect("write BENCH_parallel.json");
    println!("wrote BENCH_parallel.json");
}
