//! Event-driven memory stage vs. an every-cycle reference (DESIGN.md
//! §4o): a `MemoryStage` that visits a partition only when it has work
//! due, and a plain `Vec<Partition>` whose every partition steps every
//! GPU cycle (`step_l2` + `step_dram_span`), receive the same seeded
//! stream of MEM and PIM ejects and the same reply and ack drains. Every
//! cycle the two must hand back the same replies and acks in the same
//! order; at random cycles, after a sync, and at the end, their queues,
//! modes and every per-partition statistic must be equal.
//!
//! Traffic comes in phases from idle to saturating, so partitions sleep
//! through stall windows, plan windows and idle stretches and are woken
//! by ejects, completions and queued replies. The matrix covers VC1 and
//! VC2, HBM and LPDDR5X (4 ranks), and retire-time ack batching on and
//! off. A second test checks the same exactness on the full simulator:
//! mid-run snapshots after `Simulator::sync_memory` match an eager run.

use std::collections::VecDeque;

use pim_coscheduling::core::policy::PolicyKind;
use pim_coscheduling::core::McStats;
use pim_coscheduling::dram::backend;
use pim_coscheduling::sim::pipeline::{ClockCoupler, MemoryStage};
use pim_coscheduling::sim::{Partition, Simulator};
use pim_coscheduling::types::rng::SplitMix64;
use pim_coscheduling::types::{
    AppId, Cycle, Mode, PhysAddr, PimCommand, PimOpKind, Request, RequestId, RequestKind,
    SystemConfig, VcMode,
};
use pim_coscheduling::workloads::{
    gpu_kernel, pim_kernel, pim_suite::PimBenchmark, rodinia::GpuBenchmark,
};

const CYCLES: u64 = 6_000;

/// Per-channel eject queues, in the order the crossbar would deliver:
/// `(vc, request)`. PIM blocks must reach a channel in order, so a
/// refused head blocks its channel until it is accepted.
struct Traffic {
    rng: SplitMix64,
    pending: Vec<VecDeque<(usize, Request)>>,
    next_id: u64,
    next_block: Vec<u64>,
    /// Requests offered per cycle in the current phase.
    rate: f64,
    phase_left: u64,
}

impl Traffic {
    fn new(seed: u64, channels: usize) -> Self {
        Traffic {
            rng: SplitMix64::new(seed),
            pending: vec![VecDeque::new(); channels],
            next_id: 0,
            next_block: vec![0; channels],
            rate: 0.0,
            phase_left: 0,
        }
    }

    fn id(&mut self) -> RequestId {
        self.next_id += 1;
        RequestId(self.next_id)
    }

    /// Offers this cycle's new requests to the per-channel queues.
    fn generate(&mut self, cfg: &SystemConfig, mapper: &pim_coscheduling::dram::AddressMapper) {
        if self.phase_left == 0 {
            // Idle, trickle, moderate, saturating.
            self.rate = [0.0, 0.05, 0.6, 6.0][self.rng.next_range(4) as usize];
            self.phase_left = 100 + self.rng.next_range(600);
        }
        self.phase_left -= 1;
        let split = cfg.noc.vc_mode == VcMode::SplitPim;
        let mut budget = self.rate;
        while budget > 0.0 && self.rng.chance(budget.min(1.0)) {
            budget -= 1.0;
            if self.rng.chance(0.3) {
                // One PIM block of four same-row ops on a random channel:
                // loads into entries 0..3, then a store from entry 0.
                let c = self.rng.next_range(cfg.dram.channels as u64) as usize;
                let block = self.next_block[c];
                self.next_block[c] += 1;
                let row = self.rng.next_range(16) as u32;
                for i in 0..4u64 {
                    let store = i == 3;
                    let cmd = PimCommand {
                        op: if store {
                            PimOpKind::RfStore
                        } else {
                            PimOpKind::RfLoad
                        },
                        channel: c as u16,
                        row,
                        col: i as u16,
                        rf_entry: if store { 0 } else { i as u8 },
                        block_start: i == 0,
                        block_id: block,
                    };
                    let req = Request::new(
                        self.id(),
                        AppId::PIM,
                        RequestKind::Pim(cmd),
                        PhysAddr(0),
                        0,
                        0,
                    );
                    self.pending[c].push_back((usize::from(split), req));
                }
            } else {
                let addr = PhysAddr(self.rng.next_range(1 << 16) * 32);
                let kind = if self.rng.chance(0.25) {
                    RequestKind::MemWrite
                } else {
                    RequestKind::MemRead
                };
                let src = self.rng.next_range(cfg.gpu.num_sms as u64) as u16;
                let req = Request::new(self.id(), AppId::GPU, kind, addr, src, 0);
                let c = mapper.decode(addr).channel as usize;
                self.pending[c].push_back((0, req));
            }
        }
    }
}

fn ctx(case: &str, now: Cycle) -> String {
    format!("{case} cycle {now}")
}

/// Asserts every per-partition observable matches: ports, queues, mode,
/// controller and channel statistics, the L2 and the partition counters,
/// and the controller's cycle accounting.
fn assert_partitions_equal(stage: &MemoryStage, reference: &[Partition], at: &str) {
    for (c, r) in reference.iter().enumerate() {
        let s = stage.get(c);
        for vc in 0..r.vc_count() {
            assert_eq!(s.icnt_q_len(vc), r.icnt_q_len(vc), "{at} ch{c} icnt vc{vc}");
            assert_eq!(
                s.l2dram_q_len(vc),
                r.l2dram_q_len(vc),
                "{at} ch{c} l2dram vc{vc}"
            );
        }
        assert_eq!(s.mc.mem_q_len(), r.mc.mem_q_len(), "{at} ch{c} mem q");
        assert_eq!(s.mc.pim_q_len(), r.mc.pim_q_len(), "{at} ch{c} pim q");
        assert_eq!(s.mc.mode(), r.mc.mode(), "{at} ch{c} mode");
        assert_eq!(s.mc.stats(), r.mc.stats(), "{at} ch{c} McStats");
        assert_eq!(
            s.mc.channel_stats(),
            r.mc.channel_stats(),
            "{at} ch{c} channel"
        );
        assert_eq!(s.l2().stats(), r.l2().stats(), "{at} ch{c} L2");
        assert_eq!(
            format!("{:?}", s.stats()),
            format!("{:?}", r.stats()),
            "{at} ch{c} partition stats"
        );
        let (sm, rm) = (s.mc.step_mix(), r.mc.step_mix());
        assert_eq!(
            (
                sm.full_steps,
                sm.memo_replayed,
                sm.burst_retired,
                sm.bursts_planned
            ),
            (
                rm.full_steps,
                rm.memo_replayed,
                rm.burst_retired,
                rm.bursts_planned
            ),
            "{at} ch{c} controller cycle accounting"
        );
    }
}

/// Runs one cell; returns the stage's `(catch-ups, live visits)` and the
/// reference's visit count.
fn run_case(
    spec: &str,
    vc: VcMode,
    batching: bool,
    policy: PolicyKind,
    seed: u64,
) -> (u64, u64, u64) {
    let case = format!(
        "{spec} {vc:?} batching={batching} {} seed {seed}",
        policy.label()
    );
    let mut cfg = backend::system_config(backend::parse_spec(spec).expect("registered"));
    cfg.noc.vc_mode = vc;
    let mapper = backend::mapper_for(&cfg);
    let channels = cfg.dram.channels;
    let mut stage = MemoryStage::new(&cfg, policy);
    let mut reference: Vec<Partition> = (0..channels)
        .map(|c| Partition::new(c, &cfg, policy.build()))
        .collect();
    for (c, r) in reference.iter_mut().enumerate() {
        stage.partition_mut(c).mc.set_ack_batching(batching);
        r.mc.set_ack_batching(batching);
    }
    let (num, den) = cfg.dram_clock_ratio();
    let mut clock = ClockCoupler::new(num, den);
    let mut traffic = Traffic::new(seed, channels);
    let mut drain = SplitMix64::new(seed ^ 0xD7A1);
    let (mut s_out, mut r_out) = (Vec::new(), Vec::new());
    let mut replies = 0u64;
    let mut acks = 0u64;
    for now in 0..CYCLES {
        // Crossbar ejects: at most two per channel per cycle.
        traffic.generate(&cfg, &mapper);
        for (c, queue) in traffic.pending.iter_mut().enumerate() {
            for _ in 0..2 {
                let Some(&(vc, req)) = queue.front() else {
                    break;
                };
                let took = stage.partition_mut(c).try_accept(vc, req);
                assert_eq!(
                    took,
                    reference[c].try_accept(vc, req),
                    "{}",
                    ctx(&case, now)
                );
                if !took {
                    break;
                }
                queue.pop_front();
            }
        }
        clock.accrue_gpu_cycle();
        let (first, ticks) = clock.take_dram_span();
        stage.step_cycle_all(now, first, ticks, &mapper);
        for r in &mut reference {
            r.step_l2(now);
            r.step_dram_span(first, ticks, &mapper);
        }
        // Acks, on about half the cycles (as when delivery is gated on
        // kernels that want completions).
        if drain.chance(0.5) {
            let limit = clock.dram_now().saturating_sub(1);
            stage.drain_acks_into(limit, &mut s_out);
            for r in &mut reference {
                r.acks_mut().drain_due_into(limit, &mut r_out);
            }
            assert_eq!(s_out, r_out, "acks: {}", ctx(&case, now));
            acks += s_out.len() as u64;
            s_out.clear();
            r_out.clear();
        }
        // Replies: the reply network only looks when the stage says some
        // are pending, and takes a few per channel, so wires can stay
        // non-empty across cycles.
        if !stage.replies_pending() {
            assert!(
                reference.iter().all(|r| r.reply().is_empty()),
                "replies queued but not pending: {}",
                ctx(&case, now)
            );
        } else {
            for (c, r) in reference.iter_mut().enumerate() {
                let take = drain.next_range(4);
                for _ in 0..take {
                    let s = if stage.get(c).reply().is_empty() {
                        None
                    } else {
                        stage.partition_mut(c).reply_mut().recv()
                    };
                    let got = r.reply_mut().recv();
                    assert_eq!(s, got, "reply ch{c}: {}", ctx(&case, now));
                    replies += u64::from(got.is_some());
                }
            }
        }
        clock.finish_gpu_cycle();
        if drain.chance(0.01) {
            stage.sync();
            assert_partitions_equal(&stage, &reference, &ctx(&case, now));
        }
    }
    stage.sync();
    assert_partitions_equal(&stage, &reference, &format!("{case} end"));
    assert!(
        replies > 0 && acks > 0,
        "{case}: traffic produced no completions"
    );
    let (catch_ups, _, visits) = stage.visit_counters();
    (catch_ups, visits, channels as u64 * CYCLES)
}

#[test]
fn event_driven_stage_matches_every_cycle_reference() {
    let policies = [
        PolicyKind::f3fs_competitive(),
        PolicyKind::FrFcfs,
        PolicyKind::MemFirst,
        PolicyKind::GatherIssue { high: 56, low: 32 },
    ];
    let mut i = 0;
    let (mut catch_ups, mut visits, mut eager) = (0, 0, 0);
    for spec in ["hbm", "lp5x:ranks=4"] {
        for vc in [VcMode::Shared, VcMode::SplitPim] {
            for batching in [true, false] {
                let policy = policies[i % policies.len()];
                let (c, v, e) = run_case(spec, vc, batching, policy, 0x5EED + i as u64);
                catch_ups += c;
                visits += v;
                eager += e;
                i += 1;
            }
        }
    }
    // The comparison above is only interesting if partitions actually
    // slept and caught up.
    assert!(catch_ups > 0, "no partition ever caught up a skipped span");
    assert!(
        visits * 4 < eager * 3,
        "{visits} visits vs {eager} for the reference: partitions rarely slept"
    );
}

/// Per-partition queue state plus the merged controller stats: what a
/// mid-run observer (`examples/congestion_anatomy`, `mode_timeline`)
/// reads.
fn snapshot(sim: &Simulator) -> (Vec<[usize; 5]>, Vec<Mode>, McStats) {
    let queues = sim
        .partitions()
        .map(|p| {
            let vcs = p.vc_count();
            [
                (0..vcs).map(|vc| p.icnt_q_len(vc)).sum(),
                (0..vcs).map(|vc| p.l2dram_q_len(vc)).sum(),
                p.mc.mem_q_len(),
                p.mc.pim_q_len(),
                vcs,
            ]
        })
        .collect();
    let modes = sim.partitions().map(|p| p.mc.mode()).collect();
    (queues, modes, sim.merged_mc_stats())
}

/// `Simulator::sync_memory` makes mid-run observation exact: a default
/// simulator stepped by hand and synced only at random sample cycles
/// shows the same port and queue lengths, modes and merged controller
/// stats there as an eager run (per-tick ack production and delivery)
/// synced after every cycle.
#[test]
fn synced_mid_run_snapshots_match_an_eager_run() {
    for vc in [VcMode::Shared, VcMode::SplitPim] {
        let build = |eager: bool| {
            let mut cfg = SystemConfig::default();
            cfg.noc.vc_mode = vc;
            let mut sim = Simulator::new(cfg, PolicyKind::f3fs_competitive());
            if eager {
                sim.set_ack_batching(false);
                sim.set_event_delivery(false);
            }
            sim.mount(
                Box::new(pim_kernel(PimBenchmark(1), 32, 4, 256, 0.05)),
                (0..8).collect(),
                true,
                true,
            );
            sim.mount(
                Box::new(gpu_kernel(GpuBenchmark(19), 72, 0.05)),
                (8..80).collect(),
                false,
                true,
            );
            sim
        };
        let (mut fast, mut eager) = (build(false), build(true));
        let mut rng = SplitMix64::new(0x5AAF ^ vc as u64);
        for now in 0..4_000u64 {
            fast.step();
            eager.step();
            eager.sync_memory();
            if rng.chance(0.02) {
                fast.sync_memory();
                assert_eq!(snapshot(&fast), snapshot(&eager), "{vc:?} cycle {now}");
            }
        }
    }
}
