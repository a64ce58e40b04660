//! Trace-driven simulation: record a synthetic kernel's memory trace, save
//! it to the text format, reload it, and replay it through the simulator —
//! the workflow for running third-party memory traces.
//!
//! ```sh
//! cargo run --release --example trace_replay
//! ```

use pim_coscheduling::gpu::{read_trace, write_trace, TraceKernel, TraceRecorder};
use pim_coscheduling::prelude::*;
use pim_coscheduling::sim::Simulator;
use pim_coscheduling::workloads::gpu_kernel;

fn main() {
    let scale = 0.1;
    let sms = 40;

    // 1. Record: wrap the synthetic kernel, run it standalone.
    let recorder = TraceRecorder::new(Box::new(gpu_kernel(GpuBenchmark(5), sms, scale)));
    let mut sim = Simulator::new(SystemConfig::default(), PolicyKind::FrFcfs);
    let k = sim.mount(Box::new(recorder), (0..sms).collect(), false, false);
    sim.run_until_all_first_done(10_000_000)
        .expect("record run");
    let recorded_cycles = sim.kernels()[k].first_run_cycles.expect("finished");
    // Reclaim the recorder to extract its records.
    let records = {
        // The simulator owns the kernel; rerun the capture outside it
        // instead: drive the recorder directly at the recorded pace.
        let mut rec = TraceRecorder::new(Box::new(gpu_kernel(GpuBenchmark(5), sms, scale)));
        let mut id = 0u64;
        for now in 0..200_000u64 {
            for slot in 0..sms {
                if let Some(_r) = pim_coscheduling::gpu::KernelModel::try_issue(
                    &mut rec,
                    slot,
                    now,
                    pim_coscheduling::types::RequestId(id),
                ) {
                    pim_coscheduling::gpu::KernelModel::on_complete(
                        &mut rec,
                        slot,
                        pim_coscheduling::types::RequestId(id),
                        now,
                    );
                    id += 1;
                }
            }
            if pim_coscheduling::gpu::KernelModel::is_done(&rec) {
                break;
            }
        }
        rec.into_records()
    };
    println!(
        "recorded {} requests from G5 (dwt2d) on {sms} SMs",
        records.len()
    );

    // 2. Serialize to the text format and parse it back.
    let mut text = Vec::new();
    write_trace(&mut text, &records).expect("serialize");
    println!("trace text: {} bytes, first lines:", text.len());
    for line in String::from_utf8_lossy(&text).lines().take(3) {
        println!("  {line}");
    }
    let reloaded = read_trace(text.as_slice()).expect("parse");
    assert_eq!(reloaded.len(), records.len());

    // 3. Replay through the full simulator.
    let replay = TraceKernel::new("dwt2d-trace", sms, reloaded).expect("replayable trace");
    let mut sim = Simulator::new(SystemConfig::default(), PolicyKind::FrFcfs);
    let k = sim.mount(Box::new(replay), (0..sms).collect(), false, false);
    sim.run_until_all_first_done(10_000_000)
        .expect("replay run");
    let replayed_cycles = sim.kernels()[k].first_run_cycles.expect("finished");
    println!(
        "synthetic run: {recorded_cycles} cycles; trace replay: {replayed_cycles} cycles \
         (replay paces issues at the recorded cycles, so times should be close)"
    );
}
