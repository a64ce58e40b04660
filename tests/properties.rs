//! Property-style tests on the core substrates: the address mapper
//! bijection, DRAM timing legality under arbitrary request streams,
//! crossbar conservation, policy sanity under arbitrary queue contents,
//! and the kernel models' issue hints. Inputs are drawn from the
//! workspace's deterministic PRNG (`pimsim_types::rng::SplitMix64`), so
//! every case is reproducible from the loop seed printed in an
//! assertion message.

use pim_coscheduling::core::policy::{PolicyKind, PolicyView};
use pim_coscheduling::core::queue::QueuedRequest;
use pim_coscheduling::core::MemoryController;
use pim_coscheduling::dram::{AddressMapper, Channel, DramCommand};
use pim_coscheduling::gpu::{
    GpuKernelParams, KernelModel, PimKernelModel, PimKernelSpec, PimPhase, SyntheticGpuKernel,
    TraceKernel, TraceRecord, TraceRecorder,
};
use pim_coscheduling::noc::Crossbar;
use pim_coscheduling::types::rng::SplitMix64;
use pim_coscheduling::types::{
    AddressMapConfig, AppId, DecodedAddr, DramTiming, Mode, PhysAddr, PimCommand, PimOpKind,
    Request, RequestId, RequestKind, SystemConfig, VcMode,
};

fn mapper(ipoly: bool) -> AddressMapper {
    let cfg = SystemConfig::default();
    let map = if ipoly {
        AddressMapConfig::IPolyHash
    } else {
        cfg.addr_map.clone()
    };
    AddressMapper::new(&map, &cfg.dram, cfg.dram_word_bytes())
}

/// decode then encode is the identity on word-aligned addresses (both
/// mapping schemes), i.e. the mapping is a bijection.
#[test]
fn address_mapping_roundtrips() {
    let mut rng = SplitMix64::new(0xA11);
    for case in 0..512 {
        let addr = rng.next_range(1 << 50);
        let ipoly = rng.chance(0.5);
        let m = mapper(ipoly);
        let aligned = addr & !31;
        let d = m.decode(PhysAddr(aligned));
        assert_eq!(
            m.encode(d.channel, d.bank, d.row, d.col).0,
            aligned,
            "case {case}: addr {aligned:#x} ipoly={ipoly}"
        );
    }
}

/// The latency histogram's quantiles are monotone in p and bounded by the
/// observed max, for arbitrary observation streams.
#[test]
fn histogram_quantiles_are_monotone() {
    use pim_coscheduling::stats::Histogram;
    let mut rng = SplitMix64::new(0xB22);
    for case in 0..64 {
        let n = 1 + rng.next_range(299) as usize;
        let mut h = Histogram::new();
        for _ in 0..n {
            h.record(rng.next_range(1_000_000));
        }
        let mut last = 0u64;
        for p in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let q = h.quantile(p).expect("nonempty");
            assert!(q >= last, "case {case}: quantiles must be monotone");
            assert!(q <= h.max(), "case {case}: quantile exceeds max");
            last = q;
        }
        assert_eq!(h.count(), n as u64);
    }
}

/// Decoded coordinates always respect the geometry.
#[test]
fn decoded_coordinates_in_range() {
    let cfg = SystemConfig::default();
    let mut rng = SplitMix64::new(0xC33);
    for case in 0..512 {
        let addr = rng.next_range(1 << 50);
        let ipoly = rng.chance(0.5);
        let m = mapper(ipoly);
        let d = m.decode(PhysAddr(addr));
        assert!(
            (d.channel as usize) < cfg.dram.channels,
            "case {case}: channel"
        );
        assert!((d.bank as usize) < cfg.dram.banks, "case {case}: bank");
        assert!(d.col < cfg.dram.cols_per_row, "case {case}: col");
    }
}

/// Issuing any sequence of commands that `can_issue` admits never panics
/// and never leaves a bank in an inconsistent row state.
#[test]
fn dram_legal_sequences_never_panic() {
    let cfg = SystemConfig::default();
    let mut rng = SplitMix64::new(0xD44);
    for _case in 0..64 {
        let mut ch = Channel::new(&cfg.dram, &cfg.timing);
        let mut now = 0u64;
        let len = 1 + rng.next_range(199);
        for _ in 0..len {
            now += 1;
            let op = rng.next_range(6) as u8;
            let bank = rng.next_range(16) as usize;
            let row = rng.next_range(64) as u32;
            let cmd = match op {
                0 => DramCommand::Act { bank, row },
                1 => DramCommand::Pre { bank },
                2 => DramCommand::Read { bank },
                3 => DramCommand::Write { bank },
                4 => DramCommand::PimActAll { row },
                _ => DramCommand::PimOp {
                    writes_row: row.is_multiple_of(2),
                },
            };
            if ch.can_issue(cmd, now) {
                ch.issue(cmd, now);
            }
            // Row state must be a function of Act/Pre only: open_row never
            // reports a row that was never activated.
            for b in 0..ch.num_banks() {
                if let Some(r) = ch.open_row(b) {
                    assert!(r < cfg.dram.rows_per_bank);
                }
            }
        }
    }
}

/// The crossbar neither loses nor duplicates flits, under either VC
/// configuration and with one or two iSlip iterations.
#[test]
fn crossbar_conserves_flits() {
    let mut rng = SplitMix64::new(0xE55);
    for case in 0..64 {
        let vc2 = rng.chance(0.5);
        let iterations = 1 + rng.next_range(2) as usize;
        let mode = if vc2 {
            VcMode::SplitPim
        } else {
            VcMode::Shared
        };
        let mut x = Crossbar::new(8, 4, 64, mode).with_iterations(iterations);
        let mut injected = 0u64;
        let mut delivered = Vec::new();
        let n_routes = 1 + rng.next_range(199);
        for id in 0..n_routes {
            let src = rng.next_range(8) as usize;
            let dest = rng.next_range(4) as usize;
            let req = Request::new(
                RequestId(id),
                AppId::GPU,
                RequestKind::MemRead,
                PhysAddr(id * 32),
                src as u16,
                0,
            );
            if x.try_inject(src, req, dest).is_ok() {
                injected += 1;
            }
        }
        for now in 0..10_000 {
            if x.total_occupancy() == 0 {
                break;
            }
            x.step(now, |_, _, r| {
                delivered.push(r.id.0);
                true
            });
        }
        assert_eq!(delivered.len() as u64, injected, "case {case}: lost flits");
        let mut sorted = delivered.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            delivered.len(),
            "case {case}: duplicate delivery"
        );
    }
}

/// Policies always answer `desired_mode` with a servable mode: if the
/// chosen mode's queue is empty, the other queue must be too.
#[test]
fn policies_never_select_an_empty_mode() {
    let mut rng = SplitMix64::new(0xF66);
    for case in 0..128 {
        let n_mem = rng.next_range(8) as usize;
        let n_pim = rng.next_range(8) as usize;
        let mem_mode = rng.chance(0.5);
        let mem: Vec<QueuedRequest> = (0..n_mem)
            .map(|i| {
                let age = rng.next_range(1000);
                QueuedRequest {
                    req: Request::new(
                        RequestId(age),
                        AppId::GPU,
                        RequestKind::MemRead,
                        PhysAddr(age * 32),
                        0,
                        0,
                    ),
                    decoded: DecodedAddr {
                        channel: 0,
                        bank: (i % 16) as u16,
                        row: age as u32 % 8,
                        col: 0,
                    },
                    age,
                    arrived: 0,
                    opened_row: false,
                }
            })
            .collect();
        let mut pim_ages: Vec<u64> = (0..n_pim).map(|_| rng.next_range(1000)).collect();
        pim_ages.sort_unstable();
        let pim: std::collections::VecDeque<QueuedRequest> = pim_ages
            .iter()
            .map(|&age| QueuedRequest {
                req: Request::new(
                    RequestId(age),
                    AppId::PIM,
                    RequestKind::Pim(PimCommand {
                        op: PimOpKind::RfLoad,
                        channel: 0,
                        row: age as u32 % 8,
                        col: 0,
                        rf_entry: 0,
                        block_start: age % 3 == 0,
                        block_id: age,
                    }),
                    PhysAddr(0),
                    0,
                    0,
                ),
                decoded: DecodedAddr::default(),
                age,
                arrived: 0,
                opened_row: false,
            })
            .collect();
        let open_rows = vec![None; 16];
        for kind in PolicyKind::all() {
            let mut p = kind.build();
            let view = PolicyView {
                now: 0,
                mode: if mem_mode { Mode::Mem } else { Mode::Pim },
                mem: &mem,
                pim: &pim,
                open_rows: &open_rows,
            };
            let desired = p.desired_mode(&view);
            let desired_len = match desired {
                Mode::Mem => mem.len(),
                Mode::Pim => pim.len(),
            };
            let other_len = match desired {
                Mode::Mem => pim.len(),
                Mode::Pim => mem.len(),
            };
            assert!(
                desired_len > 0 || other_len == 0,
                "case {case}: {} picked empty {desired} with the other queue nonempty",
                p.name()
            );
        }
    }
}

/// `Channel::earliest_issue` is exact: with no intervening command, the
/// brute-force per-cycle oracle (`can_issue` scanned cycle by cycle)
/// finds the command illegal at every cycle before the returned one and
/// legal at it; `None` means no cycle in a long window works. Legality
/// is monotone in time for a frozen channel state (every constraint is
/// `t >= constant`), so scanning a bounded window before the predicted
/// cycle is a complete check.
#[test]
fn earliest_issue_matches_brute_force_scan() {
    let hbm = SystemConfig::default();
    let lp5x = pim_coscheduling::dram::backend::system_config(
        pim_coscheduling::dram::backend::parse_spec("lp5x:ranks=4").expect("registered backend"),
    );
    // LP5X must exercise the rolling-window constraints that HBM's Table I
    // preset leaves disabled (`t_faw`/`t_wtr` = 0); if the preset ever
    // regressed to 0 the backend would silently bypass those paths.
    assert!(
        lp5x.timing.t_faw > 0 && lp5x.timing.t_wtr > 0,
        "LP5X preset must enable tFAW/tWTR"
    );
    let variants = [
        ("hbm", hbm.dram.clone(), DramTiming::default()),
        (
            "hbm+faw/wtr",
            hbm.dram.clone(),
            DramTiming {
                t_faw: 20,
                t_wtr: 8,
                ..DramTiming::default()
            },
        ),
        ("lp5x", lp5x.dram.clone(), lp5x.timing.clone()),
    ];
    let mut rng = SplitMix64::new(0x5EED);
    for (v, dram, timing) in variants.iter() {
        for case in 0..32 {
            let mut ch = Channel::new(dram, timing);
            let mut now = 0u64;
            for step in 0..300 {
                let bank = rng.next_range(dram.banks as u64) as usize;
                let row = rng.next_range(8) as u32;
                let cmd = match rng.next_range(9) {
                    0 => DramCommand::Act { bank, row },
                    1 => DramCommand::Pre { bank },
                    2 => DramCommand::Read { bank },
                    3 => DramCommand::Write { bank },
                    4 => DramCommand::ReadAuto { bank },
                    5 => DramCommand::WriteAuto { bank },
                    6 => DramCommand::PimActAll { row },
                    7 => DramCommand::PreAll,
                    _ => DramCommand::PimOp {
                        writes_row: row.is_multiple_of(2),
                    },
                };
                match ch.earliest_issue(cmd, now) {
                    None => {
                        for t in now..now + 64 {
                            assert!(
                                !ch.can_issue(cmd, t),
                                "variant {v} case {case} step {step}: \
                                 earliest_issue({cmd:?}, {now}) = None but legal at {t}"
                            );
                        }
                    }
                    Some(e) => {
                        assert!(
                            e >= now,
                            "variant {v} case {case} step {step}: earliest {e} before now {now}"
                        );
                        for t in now.max(e.saturating_sub(96))..e {
                            assert!(
                                !ch.can_issue(cmd, t),
                                "variant {v} case {case} step {step}: \
                                 {cmd:?} legal at {t}, before predicted earliest {e}"
                            );
                        }
                        assert!(
                            ch.can_issue(cmd, e),
                            "variant {v} case {case} step {step}: \
                             {cmd:?} illegal at its own earliest cycle {e}"
                        );
                        // Sometimes take the command, sometimes let time pass,
                        // so the walk explores varied channel states.
                        if rng.chance(0.7) {
                            ch.issue(cmd, e);
                            now = e + rng.next_range(4);
                        } else {
                            now += rng.next_range(6);
                        }
                    }
                }
            }
        }
    }
}

/// The channel's cross-bank aggregate is exact whether it is fresh or
/// stale (DESIGN.md §4p): single-bank commands (including the
/// auto-precharge forms) only mark it stale, all-bank PIM commands and
/// refresh rebuild it. Random legal command streams mixing all three,
/// with refresh on, check after every step the all-bank legality and
/// earliest cycle of `PimActAll`/`PreAll`/`PimOp`, `all_banks_open_to`
/// and `any_bank_open` against a from-scratch computation over the
/// per-bank state plus the command-bus and CCD releases the stream
/// itself produced.
#[test]
fn bank_aggregate_matches_per_bank_scan() {
    let hbm = SystemConfig::default();
    let lp5x = pim_coscheduling::dram::backend::system_config(
        pim_coscheduling::dram::backend::parse_spec("lp5x:ranks=4").expect("registered backend"),
    );
    let refresh = |t: &DramTiming| DramTiming {
        t_refi: 300,
        t_rfc: 40,
        ..t.clone()
    };
    let variants = [
        ("hbm", hbm.dram.clone(), refresh(&DramTiming::default())),
        ("lp5x", lp5x.dram.clone(), refresh(&lp5x.timing)),
    ];
    let mut rng = SplitMix64::new(0xA66);
    let mut checks = 0u64;
    for (v, dram, timing) in variants.iter() {
        for case in 0..24 {
            let mut ch = Channel::new(dram, timing);
            let n = ch.num_banks();
            // The stream's own command-bus and all-bank CCD releases.
            let mut cmd_bus = 0u64;
            let mut ccd_all = 0u64;
            let mut now = 0u64;
            for step in 0..400 {
                let ctx = format!("variant {v} case {case} step {step} cycle {now}");
                let rows: Vec<Option<u32>> = (0..n).map(|b| ch.open_row(b)).collect();
                let rel: Vec<_> = (0..n).map(|b| ch.bank_releases(b)).collect();
                let open = rows.iter().filter(|r| r.is_some()).count();
                let floor = now.max(cmd_bus);
                let pending = ch.refresh_pending();
                let want_act_all = (!pending && open == 0)
                    .then(|| rel.iter().map(|r| r.act).fold(floor, u64::max));
                let want_pre_all = (open > 0).then(|| {
                    (0..n)
                        .filter(|&b| rows[b].is_some())
                        .map(|b| rel[b].pre)
                        .fold(floor, u64::max)
                });
                let want_pim_op = (!pending && open == n)
                    .then(|| rel.iter().map(|r| r.col).fold(floor.max(ccd_all), u64::max));
                for (cmd, want) in [
                    (DramCommand::PimActAll { row: 1 }, want_act_all),
                    (DramCommand::PreAll, want_pre_all),
                    (DramCommand::PimOp { writes_row: false }, want_pim_op),
                ] {
                    assert_eq!(ch.earliest_issue(cmd, now), want, "{ctx}: {cmd:?}");
                    assert_eq!(ch.can_issue(cmd, now), want == Some(now), "{ctx}: {cmd:?}");
                }
                assert_eq!(ch.any_bank_open(), open > 0, "{ctx}: any_bank_open");
                for row in 0..4 {
                    assert_eq!(
                        ch.all_banks_open_to(row),
                        rows.iter().all(|&r| r == Some(row)),
                        "{ctx}: all_banks_open_to({row})"
                    );
                }
                checks += 1;
                // Next command: mostly single-bank, often all-bank, so
                // stale and fresh aggregates both meet every check.
                let bank = rng.next_range(n as u64) as usize;
                let row = rng.next_range(3) as u32;
                let cmd = match rng.next_range(10) {
                    0 | 1 => DramCommand::Act { bank, row },
                    2 => DramCommand::Pre { bank },
                    3 => DramCommand::Read { bank },
                    4 => DramCommand::Write { bank },
                    5 => DramCommand::ReadAuto { bank },
                    6 => DramCommand::WriteAuto { bank },
                    7 => DramCommand::PimActAll { row },
                    8 => DramCommand::PreAll,
                    _ => DramCommand::PimOp {
                        writes_row: rng.chance(0.3),
                    },
                };
                // Walk to the command's earliest cycle, ticking every
                // cycle so refreshes fall due and execute on the way.
                let target = ch
                    .earliest_issue(cmd, now)
                    .filter(|&e| e < now + 200)
                    .unwrap_or(now + 1 + rng.next_range(4));
                while now < target {
                    now += 1;
                    ch.tick(now);
                }
                if ch.can_issue(cmd, now) {
                    ch.issue(cmd, now);
                    cmd_bus = now + 1;
                    if matches!(
                        cmd,
                        DramCommand::Read { .. }
                            | DramCommand::Write { .. }
                            | DramCommand::ReadAuto { .. }
                            | DramCommand::WriteAuto { .. }
                            | DramCommand::PimOp { .. }
                    ) {
                        // Every column command is a CCD source; all-bank
                        // ops always wait tCCDl.
                        ccd_all = now + timing.t_ccdl;
                    }
                }
            }
            assert!(
                ch.stats().refreshes > 0,
                "variant {v} case {case}: no refresh ran"
            );
        }
    }
    assert!(checks > 10_000, "too few checks: {checks}");
}

/// The controller's stall memo is unobservable: a controller with the
/// memo enabled and one forced to take a full step every cycle (the
/// brute-force oracle, via `set_stall_enabled(false)`) accept the same
/// requests, emit the same completions in the same cycles, agree on the
/// idleness probe every cycle, and end with bit-identical stats — for
/// every policy, with and without refresh.
#[test]
fn stall_memo_matches_full_step_oracle() {
    for refresh in [false, true] {
        let mut cfg = SystemConfig::default();
        if refresh {
            cfg.timing.t_refi = 300;
            cfg.timing.t_rfc = 40;
        }
        let m = AddressMapper::new(&cfg.addr_map, &cfg.dram, 32);
        for kind in PolicyKind::all() {
            let mut rng = SplitMix64::new(0x57A11 ^ u64::from(refresh));
            let mut fast = MemoryController::new(&cfg, kind.build());
            let mut oracle = MemoryController::new(&cfg, kind.build());
            oracle.set_stall_enabled(false);
            // Isolate the stall memo: burst retirement has its own oracle
            // test (`burst_retirement_matches_full_step_oracle`).
            fast.set_burst_enabled(false);
            oracle.set_burst_enabled(false);
            let ctx = |now: u64| format!("policy {} refresh {refresh} cycle {now}", kind.label());
            let mut fast_done = Vec::new();
            let mut oracle_done = Vec::new();
            let mut next_id = 0u64;
            let mut pim_block = 0u64;
            let mut pim_in_block = 0usize;
            for now in 0..8_000u64 {
                if now < 3_000 && rng.chance(0.35) {
                    let is_pim = rng.chance(0.4);
                    assert_eq!(
                        fast.can_accept(is_pim),
                        oracle.can_accept(is_pim),
                        "{}",
                        ctx(now)
                    );
                    if fast.can_accept(is_pim) {
                        let (req, decoded) = if is_pim {
                            let cmd = PimCommand {
                                op: PimOpKind::RfLoad,
                                channel: 0,
                                row: (pim_block % 8) as u32,
                                col: (pim_in_block % 4) as u16,
                                rf_entry: (pim_in_block % 8) as u8,
                                block_start: pim_in_block == 0,
                                block_id: pim_block,
                            };
                            pim_in_block += 1;
                            if pim_in_block == 4 {
                                pim_in_block = 0;
                                pim_block += 1;
                            }
                            (
                                Request::new(
                                    RequestId(next_id),
                                    AppId::PIM,
                                    RequestKind::Pim(cmd),
                                    PhysAddr(0),
                                    0,
                                    0,
                                ),
                                DecodedAddr {
                                    channel: 0,
                                    bank: 0,
                                    row: cmd.row,
                                    col: 0,
                                },
                            )
                        } else {
                            let addr = PhysAddr(rng.next_range(1 << 20) * 32);
                            let kind = if rng.chance(0.3) {
                                RequestKind::MemWrite
                            } else {
                                RequestKind::MemRead
                            };
                            (
                                Request::new(RequestId(next_id), AppId::GPU, kind, addr, 0, 0),
                                m.decode(addr),
                            )
                        };
                        next_id += 1;
                        fast.enqueue(req, decoded, now);
                        oracle.enqueue(req, decoded, now);
                    }
                }
                // Probe soundness: never points into the past, and agrees
                // with the brute-force oracle about idleness (the probe
                // must not report "busy forever" for a quiesced
                // controller, nor idle while work remains).
                let probe = fast.next_activity_cycle(now);
                if let Some(at) = probe {
                    assert!(at >= now, "{}: probe {at} in the past", ctx(now));
                }
                assert_eq!(
                    probe.is_none(),
                    oracle.next_activity_cycle(now).is_none(),
                    "{}: stall memo and oracle disagree on idleness",
                    ctx(now)
                );
                fast.step(now);
                oracle.step(now);
                fast_done.clear();
                oracle_done.clear();
                fast.pop_completions_into(now, &mut fast_done);
                oracle.pop_completions_into(now, &mut oracle_done);
                assert_eq!(fast_done, oracle_done, "{}", ctx(now));
                assert_eq!(fast.mode(), oracle.mode(), "{}", ctx(now));
            }
            assert_eq!(fast.stats(), oracle.stats(), "{} final stats", kind.label());
            assert_eq!(
                fast.stats().mem_arrivals + fast.stats().pim_arrivals,
                next_id,
                "{}: traffic lost",
                kind.label()
            );
            assert!(
                fast.is_idle(8_000),
                "{}: controller failed to drain",
                kind.label()
            );
        }
    }
}

/// Closed-form burst retirement is unobservable: a controller with the
/// burst plan and stall memo enabled (the production configuration) and
/// one forced to schedule every cycle through the full per-cycle path
/// (both fast paths disabled) accept the same requests, emit the same
/// completions in the same cycles, and end with bit-identical stats —
/// for every policy, with and without refresh. The step mix is the only
/// thing allowed to differ, and the test also checks the mechanism
/// actually engages: across the policy sweep some cycles must have been
/// retired through burst plans.
#[test]
fn burst_retirement_matches_full_step_oracle() {
    // Swept over both registered DRAM backends: the LP5X preset keeps
    // `t_faw`/`t_wtr` nonzero, so the closed form must agree with the
    // per-cycle oracle under the rolling-window constraints too.
    for spec in ["hbm", "lp5x:ranks=4"] {
        let backend = pim_coscheduling::dram::backend::parse_spec(spec).expect("registered");
        for refresh in [false, true] {
            let mut cfg = pim_coscheduling::dram::backend::system_config(backend);
            if refresh {
                cfg.timing.t_refi = 300;
                cfg.timing.t_rfc = 40;
            }
            let m = AddressMapper::new(&cfg.addr_map, &cfg.dram, 32);
            let mut swept_burst_ops = 0u64;
            for kind in PolicyKind::all() {
                let mut rng = SplitMix64::new(0xB0857 ^ u64::from(refresh));
                let mut fast = MemoryController::new(&cfg, kind.build());
                let mut oracle = MemoryController::new(&cfg, kind.build());
                oracle.set_stall_enabled(false);
                oracle.set_burst_enabled(false);
                let ctx = |now: u64| {
                    format!(
                        "{spec} policy {} refresh {refresh} cycle {now}",
                        kind.label()
                    )
                };
                let mut fast_done = Vec::new();
                let mut oracle_done = Vec::new();
                let mut next_id = 0u64;
                let mut pim_block = 0u64;
                let mut pim_in_block = 0usize;
                for now in 0..8_000u64 {
                    if now < 3_000 && rng.chance(0.35) {
                        let is_pim = rng.chance(0.4);
                        assert_eq!(
                            fast.can_accept(is_pim),
                            oracle.can_accept(is_pim),
                            "{}",
                            ctx(now)
                        );
                        if fast.can_accept(is_pim) {
                            let (req, decoded) = if is_pim {
                                // Last op of each block stores (a row write,
                                // exercising the burst's write-latency arm)
                                // from entry 0, which the block's first op
                                // always loaded.
                                let store = pim_in_block == 3;
                                let cmd = PimCommand {
                                    op: if store {
                                        PimOpKind::RfStore
                                    } else {
                                        PimOpKind::RfLoad
                                    },
                                    channel: 0,
                                    row: (pim_block % 8) as u32,
                                    col: (pim_in_block % 4) as u16,
                                    rf_entry: if store { 0 } else { (pim_in_block % 8) as u8 },
                                    block_start: pim_in_block == 0,
                                    block_id: pim_block,
                                };
                                pim_in_block += 1;
                                if pim_in_block == 4 {
                                    pim_in_block = 0;
                                    pim_block += 1;
                                }
                                (
                                    Request::new(
                                        RequestId(next_id),
                                        AppId::PIM,
                                        RequestKind::Pim(cmd),
                                        PhysAddr(0),
                                        0,
                                        0,
                                    ),
                                    DecodedAddr {
                                        channel: 0,
                                        bank: 0,
                                        row: cmd.row,
                                        col: 0,
                                    },
                                )
                            } else {
                                let addr = PhysAddr(rng.next_range(1 << 20) * 32);
                                let kind = if rng.chance(0.3) {
                                    RequestKind::MemWrite
                                } else {
                                    RequestKind::MemRead
                                };
                                (
                                    Request::new(RequestId(next_id), AppId::GPU, kind, addr, 0, 0),
                                    m.decode(addr),
                                )
                            };
                            next_id += 1;
                            fast.enqueue(req, decoded, now);
                            oracle.enqueue(req, decoded, now);
                        }
                    }
                    assert_eq!(fast.pim_q_len(), oracle.pim_q_len(), "{}", ctx(now));
                    let probe = fast.next_activity_cycle(now);
                    if let Some(at) = probe {
                        assert!(at >= now, "{}: probe {at} in the past", ctx(now));
                    }
                    assert_eq!(
                        probe.is_none(),
                        oracle.next_activity_cycle(now).is_none(),
                        "{}: burst plan and oracle disagree on idleness",
                        ctx(now)
                    );
                    fast.step(now);
                    oracle.step(now);
                    fast_done.clear();
                    oracle_done.clear();
                    fast.pop_completions_into(now, &mut fast_done);
                    oracle.pop_completions_into(now, &mut oracle_done);
                    assert_eq!(fast_done, oracle_done, "{}", ctx(now));
                    assert_eq!(fast.mode(), oracle.mode(), "{}", ctx(now));
                    // Stats must agree at EVERY cycle, not just at the end:
                    // the simulator snapshots stats whenever a run stops, and
                    // a stop can land mid-plan (kernel restarts truncate
                    // runs). Eagerly accounting a whole plan at creation
                    // passed the end-of-run check while skewing every
                    // mid-plan snapshot — this is the assertion that pins
                    // per-op accounting to the analytic issue ticks.
                    assert_eq!(fast.stats(), oracle.stats(), "{}: stats skew", ctx(now));
                    assert_eq!(
                        fast.channel_stats(),
                        oracle.channel_stats(),
                        "{}: channel stats skew",
                        ctx(now)
                    );
                }
                assert_eq!(fast.stats(), oracle.stats(), "{} final stats", kind.label());
                assert!(
                    fast.is_idle(8_000),
                    "{}: controller failed to drain",
                    kind.label()
                );
                assert_eq!(
                    oracle.step_mix().burst_ops,
                    0,
                    "{}: disabled oracle still planned bursts",
                    kind.label()
                );
                swept_burst_ops += fast.step_mix().burst_ops;
            }
            assert!(
                swept_burst_ops > 0,
                "{spec} refresh {refresh}: no policy ever engaged burst retirement"
            );
        }
    }
}

/// The controller conserves requests for arbitrary small mixes.
#[test]
fn controller_conserves_arbitrary_mixes() {
    let cfg = SystemConfig::default();
    let m = AddressMapper::new(&cfg.addr_map, &cfg.dram, 32);
    let mut rng = SplitMix64::new(0xAB7);
    for case in 0..48 {
        let n_mem = rng.next_range(24) as usize;
        let n_pim = rng.next_range(24) as usize;
        let policy = PolicyKind::all()[rng.next_range(PolicyKind::all().len() as u64) as usize];
        let mut mc = MemoryController::new(&cfg, policy.build());
        let mut expected = 0u64;
        for i in 0..n_mem.max(n_pim) {
            if i < n_mem {
                let addr = PhysAddr((i as u64) * 0x740); // varied banks/rows
                let req = Request::new(
                    RequestId(expected),
                    AppId::GPU,
                    if i % 3 == 0 {
                        RequestKind::MemWrite
                    } else {
                        RequestKind::MemRead
                    },
                    addr,
                    0,
                    0,
                );
                mc.enqueue(req, m.decode(addr), 0);
                expected += 1;
            }
            if i < n_pim {
                let cmd = PimCommand {
                    op: PimOpKind::RfLoad,
                    channel: 0,
                    row: (i / 4) as u32,
                    col: (i % 4) as u16,
                    rf_entry: (i % 8) as u8,
                    block_start: i % 4 == 0,
                    block_id: (i / 4) as u64,
                };
                let req = Request::new(
                    RequestId(expected),
                    AppId::PIM,
                    RequestKind::Pim(cmd),
                    PhysAddr(0),
                    0,
                    0,
                );
                mc.enqueue(
                    req,
                    DecodedAddr {
                        channel: 0,
                        bank: 0,
                        row: cmd.row,
                        col: 0,
                    },
                    0,
                );
                expected += 1;
            }
        }
        let mut done = 0u64;
        let mut drained = Vec::new();
        for now in 0..200_000u64 {
            mc.step(now);
            drained.clear();
            mc.pop_completions_into(now, &mut drained);
            done += drained.len() as u64;
            if done == expected && mc.is_idle(now) {
                break;
            }
        }
        assert_eq!(
            done,
            expected,
            "case {case}: {} lost requests",
            policy.label()
        );
    }
}

/// Issue stage as the property sees it: one random kernel model, a
/// shadow built identically, and (PIM only) the geometry the "asleep
/// only at cap or done" check needs.
struct IssueCase {
    make: Box<dyn Fn() -> Box<dyn KernelModel>>,
    /// `(warps per slot, per-warp outstanding cap, ops per warp per run)`.
    pim: Option<(usize, u32, u64)>,
}

fn random_pim_spec(rng: &mut SplitMix64) -> (PimKernelSpec, usize, usize, u32) {
    let slots = 1 + rng.next_range(3) as usize;
    let warps_per_slot = 1 + rng.next_range(3) as usize;
    let cap = 1 + rng.next_range(5) as u32;
    let spec = PimKernelSpec {
        name: "prop-pim".into(),
        pattern: vec![PimPhase::Load, PimPhase::Compute, PimPhase::Store],
        ops_per_block: 1 + rng.next_range(6) as u32,
        blocks_per_channel: 1 + rng.next_range(5),
        channels: slots * warps_per_slot,
        rf_entries_per_bank: 8,
        max_row: 64,
    };
    (spec, slots, warps_per_slot, cap)
}

fn random_issue_case(kind: u64, rng: &mut SplitMix64) -> IssueCase {
    match kind {
        0 => {
            let params = GpuKernelParams {
                name: "prop-mem".into(),
                total_requests: 1 + rng.next_range(120),
                issue_interval: 1 + rng.next_range(24),
                read_fraction: 0.7,
                footprint_bytes: 1 << 16,
                row_locality: 0.5,
                l2_reuse: 0.2,
                streams_per_slot: 1 + rng.next_range(3) as usize,
                seed: rng.next_u64(),
            };
            let slots = 1 + rng.next_range(4) as usize;
            IssueCase {
                make: Box::new(move || Box::new(SyntheticGpuKernel::new(params.clone(), slots))),
                pim: None,
            }
        }
        1 => {
            let slots = 1 + rng.next_range(4) as usize;
            let mut records = Vec::new();
            for slot in 0..slots as u32 {
                let mut cycle = 0;
                for _ in 0..rng.next_range(16) {
                    cycle += rng.next_range(30);
                    records.push(TraceRecord {
                        slot,
                        cycle,
                        kind: RequestKind::MemRead,
                        addr: rng.next_range(1 << 20) & !31,
                    });
                }
            }
            IssueCase {
                make: Box::new(move || {
                    Box::new(
                        TraceKernel::new("prop-trace", slots, records.clone())
                            .expect("generated records are replayable"),
                    )
                }),
                pim: None,
            }
        }
        _ => {
            let (spec, slots, warps_per_slot, cap) = random_pim_spec(rng);
            let per_warp = spec.blocks_per_channel * u64::from(spec.ops_per_block);
            // Kind 3 checks that the recorder forwards the hint.
            let recorded = kind == 3;
            IssueCase {
                make: Box::new(move || {
                    let k = PimKernelModel::new(spec.clone(), slots, warps_per_slot, cap);
                    if recorded {
                        Box::new(TraceRecorder::new(Box::new(k)))
                    } else {
                        Box::new(k)
                    }
                }),
                pim: Some((warps_per_slot, cap, per_warp)),
            }
        }
    }
}

/// `KernelModel::next_issue_cycle` is a lower bound for all four kernel
/// models (synthetic, trace replay, PIM, and the trace recorder over a
/// PIM kernel): at every cycle in `[now, hint)` — every probed cycle
/// when the hint is `None` — `try_issue` on an identically driven
/// shadow model returns `None`, and the probes leave the shadow in
/// lock-step with the model (no side effect). A PIM slot may report
/// `None` only with every warp of the slot at its cap or done. The
/// test loop issues, retires random subsets of outstanding requests, and
/// restarts finished kernels, as the simulator does.
#[test]
fn issue_hints_are_lower_bounds() {
    const CYCLES: u64 = 800;
    const PROBE: u64 = 64;
    let mut rng = SplitMix64::new(0x1551E);
    let (mut asleep_until, mut asleep_forever, mut restarts) = (0u64, 0u64, 0u64);
    for case in 0..64u64 {
        let kind = case % 4;
        let IssueCase { make, pim } = random_issue_case(kind, &mut rng);
        let (mut model, mut shadow) = (make(), make());
        let slots = model.num_slots();
        // PIM only: per-warp (outstanding, issued this run), by channel.
        let mut warps = vec![(0u32, 0u64); pim.map_or(0, |(w, _, _)| slots * w)];
        let mut pending: Vec<(usize, RequestId, usize)> = Vec::new();
        let mut next_id = 0u64;
        for now in 0..CYCLES {
            for slot in 0..slots {
                let hint = model.next_issue_cycle(slot, now);
                let ctx = format!("case {case} (kind {kind}) slot {slot} at {now}");
                assert_eq!(hint, shadow.next_issue_cycle(slot, now), "{ctx}");
                match hint {
                    Some(h) if h > now => asleep_until += 1,
                    Some(h) => assert_eq!(h, now, "{ctx}: hint in the past"),
                    None => asleep_forever += 1,
                }
                let end = hint.map_or(now + PROBE, |h| h.min(now + PROBE));
                for t in now..end {
                    let probe = shadow.try_issue(slot, t, RequestId(next_id));
                    assert!(probe.is_none(), "{ctx}: issued at {t} before hint {hint:?}");
                }
                if let (None, Some((per_slot, cap, per_warp))) = (hint, pim) {
                    for (w, &(out, issued)) in warps
                        .iter()
                        .enumerate()
                        .skip(slot * per_slot)
                        .take(per_slot)
                    {
                        assert!(
                            out == cap || issued == per_warp,
                            "{ctx}: asleep with warp {w} ready ({out}/{cap} outstanding, {issued}/{per_warp} issued)"
                        );
                    }
                }
                // Some polls are skipped, as for a crossbar-full SM.
                if rng.chance(0.2) {
                    continue;
                }
                let id = RequestId(next_id);
                let issued = model.try_issue(slot, now, id);
                assert_eq!(
                    issued,
                    shadow.try_issue(slot, now, id),
                    "{ctx}: probes had a side effect"
                );
                if let Some(r) = issued {
                    next_id += 1;
                    let warp = r.kind.pim().map_or(0, |c| usize::from(c.channel));
                    if pim.is_some() {
                        warps[warp].0 += 1;
                        warps[warp].1 += 1;
                    }
                    pending.push((slot, id, warp));
                }
            }
            let mut i = 0;
            while i < pending.len() {
                if rng.chance(0.3) {
                    let (slot, id, warp) = pending.swap_remove(i);
                    model.on_complete(slot, id, now);
                    shadow.on_complete(slot, id, now);
                    if pim.is_some() {
                        warps[warp].0 -= 1;
                    }
                } else {
                    i += 1;
                }
            }
            assert_eq!(model.is_done(), shadow.is_done(), "case {case} at {now}");
            if model.is_done() {
                model.reset();
                shadow.reset();
                warps.iter_mut().for_each(|w| *w = (0, 0));
                restarts += 1;
            }
        }
    }
    // Guard against a vacuous pass: hints must actually put slots to
    // sleep, both until a cycle and until an event, across restarts.
    assert!(asleep_until > 0 && asleep_forever > 0 && restarts > 0);
}
