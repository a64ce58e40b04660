//! Ordering invariants: the interconnect preserves per-source FIFO order
//! (the property Orderlight + the FCFS PIM queue rely on), and PIM block
//! ordering survives every scheduling policy end-to-end (the PIM engine
//! inside each controller asserts it and would panic otherwise).

use pim_coscheduling::noc::Crossbar;
use pim_coscheduling::prelude::*;
use pim_coscheduling::types::{AppId, PhysAddr, Request, RequestId, RequestKind};
use pim_coscheduling::workloads::{gpu_kernel, pim_kernel};

#[test]
fn crossbar_preserves_per_source_order_to_each_output() {
    // Inject interleaved flows from several sources to several outputs;
    // each (source, output) subsequence must arrive in injection order.
    let mut x = Crossbar::new(4, 2, 64, VcMode::Shared);
    let mut injected: Vec<(u16, usize, u64)> = Vec::new();
    let mut id = 0u64;
    for round in 0..10 {
        for src in 0..4u16 {
            let dest = (round + src as usize) % 2;
            let req = Request::new(
                RequestId(id),
                AppId::GPU,
                RequestKind::MemRead,
                PhysAddr(id * 32),
                src,
                0,
            );
            if x.try_inject(src as usize, req, dest).is_ok() {
                injected.push((src, dest, id));
            }
            id += 1;
        }
    }
    let mut delivered: Vec<(u16, usize, u64)> = Vec::new();
    for now in 0..1000 {
        if x.total_occupancy() == 0 {
            break;
        }
        x.step(now, |out, _vc, req| {
            delivered.push((req.src_port, out, req.id.0));
            true
        });
    }
    assert_eq!(delivered.len(), injected.len());
    for src in 0..4u16 {
        for dest in 0..2usize {
            let sent: Vec<u64> = injected
                .iter()
                .filter(|&&(s, d, _)| s == src && d == dest)
                .map(|&(_, _, i)| i)
                .collect();
            let got: Vec<u64> = delivered
                .iter()
                .filter(|&&(s, d, _)| s == src && d == dest)
                .map(|&(_, _, i)| i)
                .collect();
            assert_eq!(sent, got, "flow {src}->{dest} reordered");
        }
    }
}

#[test]
fn pim_block_ordering_survives_every_policy() {
    // The controllers' PIM engines panic on any out-of-order block or
    // register-file misuse; running the most switch-happy policies over a
    // multi-phase PIM kernel with a disruptive co-runner exercises the
    // invariant end-to-end (including across mode switches and kernel
    // re-launches).
    for policy in [
        PolicyKind::Fcfs,
        PolicyKind::FrRrFcfs,
        PolicyKind::F3fs {
            mem_cap: 8,
            pim_cap: 8,
        },
    ] {
        for vc in [VcMode::Shared, VcMode::SplitPim] {
            let mut system = SystemConfig::default();
            system.noc.vc_mode = vc;
            let mut r = pim_coscheduling::sim::Runner::new(system, policy);
            r.max_gpu_cycles = 4_000_000;
            let out = r.coexec(
                Box::new(gpu_kernel(GpuBenchmark(6), 72, 0.02)),
                Box::new(pim_kernel(PimBenchmark(6), 32, 4, 256, 0.02)),
                true,
            );
            assert!(out.mc.pim_served > 0, "{policy}/{vc}: no PIM ops serviced");
        }
    }
}
