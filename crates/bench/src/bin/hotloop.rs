//! Hot-loop speedup measurement: simulated GPU cycles per wall-clock
//! second with the event-driven fast-forward on vs off, written to
//! `BENCH_hotloop.json`. Scenarios mirror the `hotloop` criterion bench:
//! standalone MEM, standalone PIM, and F3FS competitive co-execution.
//!
//! Run with `cargo run --release --bin hotloop`. Every pair first asserts
//! the two modes simulated the same number of cycles — throughput is only
//! comparable because the runs are bit-identical. Per-rep raw rates and
//! the median are reported next to the best, so a reader can tell a tight
//! measurement from a lucky one.

use std::time::Instant;

use pimsim_bench::header;
use pimsim_core::policy::PolicyKind;
use pimsim_core::StepMix;
use pimsim_sim::{KernelModel, Runner, Simulator, StageProfile};
use pimsim_types::SystemConfig;
use pimsim_workloads::{gpu_kernel, pim_kernel, pim_suite::PimBenchmark, rodinia::GpuBenchmark};

const SCALE: f64 = 1.0;
/// Co-execution is slower per simulated cycle; a smaller size keeps the
/// measurement wall-time reasonable.
const COEXEC_SCALE: f64 = 0.2;
/// Criterion-style minimum: repeat each measurement and keep the best, so
/// one scheduler hiccup does not masquerade as a regression. Overridable
/// via `HOTLOOP_REPS` (the tier-1 smoke runs a single rep).
const DEFAULT_REPS: usize = 3;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The scenario's system configuration, resolved through the DRAM
/// backend registry exactly like `--dram` on the CLI: `_lp5x`-suffixed
/// scenarios run the LPDDR5X-PIM substrate at 4 ranks, everything else
/// the default HBM tables.
fn config_for(name: &str) -> SystemConfig {
    if name.ends_with("_lp5x") {
        let kind = pimsim_dram::backend::parse_spec("lp5x:ranks=4").expect("registered backend");
        pimsim_dram::backend::system_config(kind)
    } else {
        SystemConfig::default()
    }
}

fn runner_on(cfg: SystemConfig, policy: PolicyKind, fast_forward: bool) -> Runner {
    let mut r = Runner::new(cfg, policy);
    r.max_gpu_cycles = 60_000_000;
    r.fast_forward = fast_forward;
    r
}

fn runner(policy: PolicyKind, fast_forward: bool) -> Runner {
    runner_on(SystemConfig::default(), policy, fast_forward)
}

fn standalone_mem(ff: bool) -> u64 {
    runner(PolicyKind::FrFcfs, ff)
        .standalone(Box::new(gpu_kernel(GpuBenchmark(10), 8, SCALE)), 0, false)
        .expect("finishes")
        .cycles
}

fn standalone_pim(ff: bool) -> u64 {
    runner(PolicyKind::FrFcfs, ff)
        .standalone(
            Box::new(pim_kernel(PimBenchmark(1), 32, 4, 256, SCALE)),
            0,
            true,
        )
        .expect("finishes")
        .cycles
}

fn standalone_pim_lp5x(ff: bool) -> u64 {
    runner_on(config_for("standalone_pim_lp5x"), PolicyKind::FrFcfs, ff)
        .standalone(
            Box::new(pim_kernel(PimBenchmark(1), 32, 4, 256, SCALE)),
            0,
            true,
        )
        .expect("finishes")
        .cycles
}

/// Sparse variant: a tight per-warp credit cap throttles issue, so the
/// request crossbar runs lightly loaded and the kernel waits on its acks
/// — the regime where the pull-driven ack drain runs almost every cycle.
fn sparse_pim_kernel() -> impl KernelModel {
    pim_kernel(PimBenchmark(1), 32, 4, 4, 0.5)
}

fn sparse_pim(ff: bool) -> u64 {
    runner(PolicyKind::FrFcfs, ff)
        .standalone(Box::new(sparse_pim_kernel()), 0, true)
        .expect("finishes")
        .cycles
}

fn sparse_pim_lp5x(ff: bool) -> u64 {
    runner_on(config_for("sparse_pim_lp5x"), PolicyKind::FrFcfs, ff)
        .standalone(Box::new(sparse_pim_kernel()), 0, true)
        .expect("finishes")
        .cycles
}

fn coexec_f3fs(ff: bool) -> u64 {
    runner(PolicyKind::f3fs_competitive(), ff)
        .coexec(
            Box::new(gpu_kernel(GpuBenchmark(8), 72, COEXEC_SCALE)),
            Box::new(pim_kernel(PimBenchmark(2), 32, 4, 256, COEXEC_SCALE)),
            true,
        )
        .total_cycles
}

/// One profiled pass of a scenario: the same workload as the timed
/// measurement, run once with per-stage wall timers on. Kept separate
/// from the throughput reps because the timer reads themselves cost
/// real time on the fastest scenarios. The pass runs the production
/// configuration (fast-forward, stall memo, and burst retirement all
/// on), so its merged step mix, fast-forward skip counters and issue
/// polls are also harvested here.
fn profile_scenario(name: &str) -> Profiled {
    let mut sim = Simulator::new(
        config_for(name),
        match name {
            "coexec_f3fs" => PolicyKind::f3fs_competitive(),
            _ => PolicyKind::FrFcfs,
        },
    );
    sim.set_stage_profiling(true);
    match name {
        "standalone_mem" => {
            let k = gpu_kernel(GpuBenchmark(10), 8, SCALE);
            let slots = k.num_slots();
            sim.mount(Box::new(k), (0..slots).collect(), false, false);
            sim.run_until_all_first_done(60_000_000).expect("finishes");
        }
        "standalone_pim" | "standalone_pim_lp5x" => {
            let k = pim_kernel(PimBenchmark(1), 32, 4, 256, SCALE);
            let slots = k.num_slots();
            sim.mount(Box::new(k), (0..slots).collect(), true, false);
            sim.run_until_all_first_done(60_000_000).expect("finishes");
        }
        "sparse_pim" | "sparse_pim_lp5x" => {
            let k = sparse_pim_kernel();
            let slots = k.num_slots();
            sim.mount(Box::new(k), (0..slots).collect(), true, false);
            sim.run_until_all_first_done(60_000_000).expect("finishes");
        }
        "coexec_f3fs" => {
            let pim = pim_kernel(PimBenchmark(2), 32, 4, 256, COEXEC_SCALE);
            let gpu = gpu_kernel(GpuBenchmark(8), 72, COEXEC_SCALE);
            let (ps, gs) = (pim.num_slots(), gpu.num_slots());
            sim.mount(Box::new(pim), (0..ps).collect(), true, true);
            sim.mount(Box::new(gpu), (ps..ps + gs).collect(), false, true);
            // Starvation cutoff is a legitimate end, as in Runner::coexec.
            let _ = sim.run_with_starvation_cutoff(60_000_000, Some(25));
        }
        other => unreachable!("unknown scenario {other}"),
    }
    let (ff_skips, ff_skipped) = sim.fast_forward_stats();
    Profiled {
        prof: *sim.stage_profile().expect("profiling was enabled"),
        mix: sim.merged_step_mix(),
        ff_skips,
        ff_skipped,
        total_cycles: sim.gpu_cycles(),
        issue_polls: sim.issue_polls(),
    }
}

/// What one profiled pass harvests.
struct Profiled {
    prof: StageProfile,
    mix: StepMix,
    ff_skips: u64,
    ff_skipped: u64,
    total_cycles: u64,
    /// Kernel polls (`try_issue` calls) by the issue stage.
    issue_polls: u64,
}

/// Poll-rate gate of the event-driven issue stage (DESIGN.md §4m):
/// the most kernel polls per stepped cycle each gated scenario may
/// make. Polling every mounted SM every cycle costs 8 (standalone MEM)
/// and 80 (co-execution) polls per cycle; the hinted stage makes well
/// under half of these bounds.
const MAX_POLLS_PER_CYCLE: [(&str, f64); 2] = [("standalone_mem", 1.0), ("coexec_f3fs", 24.0)];

/// Visit-rate gate of the event-driven memory stage (DESIGN.md §4o):
/// the most partition visits per stepped cycle each gated scenario may
/// make. Visiting every partition every cycle costs 32. Standalone MEM
/// commits 0.37 (2.7x headroom). Saturated standalone PIM keeps most
/// ingress ports occupied and commits 22.7; twice that would exceed 32
/// and never trip, so its bound sits between the committed value and
/// the eager count.
const MAX_VISITS_PER_CYCLE: [(&str, f64); 2] = [("standalone_mem", 1.0), ("standalone_pim", 28.0)];

/// Scan gate of the MEM candidate cache (DESIGN.md §4p): the most
/// MEM-queue entries the MEM scheduling step may read per full controller
/// step. Rescanning every pending bank every step reads 0.74 per full
/// step on standalone MEM and 5.82 on co-execution; the cache commits
/// 0.51 and 2.33. The bounds leave 27 % and 72 % headroom above the
/// committed values and sit below the full rescan, so a cache that stops
/// sparing clean banks trips them.
const MAX_ENTRIES_PER_FULL_STEP: [(&str, f64); 2] =
    [("standalone_mem", 0.65), ("coexec_f3fs", 4.0)];

/// Fast-forward engagement gate: the fewest GPU cycles fast-forward must
/// skip on each gated scenario. Skip counts are deterministic; the bound
/// is the committed count (standalone MEM: 6,747) minus ≈10 % slack for
/// legitimate drift in the workload's idle spans.
const MIN_FF_SKIPPED: [(&str, u64); 1] = [("standalone_mem", 6_000)];

/// `reps` timed passes: returns the (identical) simulated cycle count and
/// every raw rate in simulated cycles per wall second.
fn measure(f: fn(bool) -> u64, ff: bool, reps: usize) -> (u64, Vec<f64>) {
    let mut rates = Vec::with_capacity(reps);
    let mut cycles = 0;
    for _ in 0..reps {
        let t = Instant::now();
        cycles = f(ff);
        rates.push(cycles as f64 / t.elapsed().as_secs_f64());
    }
    (cycles, rates)
}

fn best(rates: &[f64]) -> f64 {
    rates.iter().copied().fold(0.0, f64::max)
}

fn median(rates: &[f64]) -> f64 {
    let mut s = rates.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn fmt_rates(rates: &[f64]) -> String {
    let list: Vec<String> = rates.iter().map(|r| format!("{r:.1}")).collect();
    format!("[{}]", list.join(", "))
}

fn main() {
    header("Hot-loop throughput: fast-forward on vs off (simulated cycles/sec)");
    let reps = env_u64("HOTLOOP_REPS", DEFAULT_REPS as u64).max(1) as usize;
    // Optional throughput floor (cycles/s, fast-forward on) applied to
    // every scenario: the tier-1 smoke sets this far below any recorded
    // rate so only asymptotic regressions — not machine noise — trip it.
    let floor = env_u64("HOTLOOP_FLOOR", 0) as f64;
    type Scenario = fn(bool) -> u64;
    let scenarios: [(&str, Scenario); 6] = [
        ("standalone_mem", standalone_mem),
        ("standalone_pim", standalone_pim),
        ("standalone_pim_lp5x", standalone_pim_lp5x),
        ("sparse_pim", sparse_pim),
        ("sparse_pim_lp5x", sparse_pim_lp5x),
        ("coexec_f3fs", coexec_f3fs),
    ];
    let mut entries = Vec::new();
    let mut slowest: Option<(&str, f64)> = None;
    for (name, f) in scenarios {
        // Interleave the on/off reps pairwise instead of measuring one
        // block then the other: background load on this host drifts on
        // the timescale of a block, and interleaving exposes both modes
        // to the same noise.
        let mut rates_on = Vec::new();
        let mut rates_off = Vec::new();
        let (mut cycles_on, mut cycles_off) = (0, 0);
        for _ in 0..reps {
            let (c, r) = measure(f, true, 1);
            cycles_on = c;
            rates_on.extend(r);
            let (c, r) = measure(f, false, 1);
            cycles_off = c;
            rates_off.extend(r);
        }
        assert_eq!(
            cycles_on, cycles_off,
            "{name}: fast-forward changed the simulated cycle count"
        );
        let mut rate_on = best(&rates_on);
        let mut rate_off = best(&rates_off);
        // Where fast-forward actually skips cycles it must win; where it
        // is structurally inert (its gate is one integer compare per
        // cycle) on/off are the same work and only host noise separates
        // them. Re-measure a few more pairs before judging either way.
        let mut extra = 0;
        while rate_on < rate_off && extra < 3 {
            let (c, r) = measure(f, true, 1);
            assert_eq!(c, cycles_on, "{name}: cycle count changed across reps");
            rates_on.extend(r);
            let (c, r) = measure(f, false, 1);
            assert_eq!(c, cycles_off, "{name}: cycle count changed across reps");
            rates_off.extend(r);
            rate_on = best(&rates_on);
            rate_off = best(&rates_off);
            extra += 1;
        }
        let speedup = rate_on / rate_off;
        if slowest.is_none_or(|(_, r)| rate_on < r) {
            slowest = Some((name, rate_on));
        }
        println!(
            "  {name:16} {cycles_on:>10} cycles   ff_on {rate_on:>12.0}/s   ff_off {rate_off:>12.0}/s   speedup {speedup:.2}x"
        );
        println!(
            "  {:16} reps: ff_on {} (median {:.0}/s)   ff_off {} (median {:.0}/s)",
            "",
            fmt_rates(&rates_on),
            median(&rates_on),
            fmt_rates(&rates_off),
            median(&rates_off)
        );
        let Profiled {
            prof,
            mix,
            ff_skips,
            ff_skipped,
            total_cycles,
            issue_polls,
        } = profile_scenario(name);
        let polls_per_cycle = issue_polls as f64 / prof.stepped_cycles.max(1) as f64;
        let visits_per_cycle = mix.partition_visits as f64 / prof.stepped_cycles.max(1) as f64;
        // Same idea for the event-driven memory stage (DESIGN.md §4o): a
        // rate above the bound means partitions are visited without work
        // due.
        if let Some(&(_, bound)) = MAX_VISITS_PER_CYCLE.iter().find(|(n, _)| *n == name) {
            assert!(
                visits_per_cycle <= bound,
                "{name}: memory stage made {} partition visits over {} stepped \
                 cycles ({visits_per_cycle:.2}/cycle > {bound}); event-driven \
                 visits should leave partitions without work due asleep",
                mix.partition_visits,
                prof.stepped_cycles
            );
        }
        // Deterministic, so immune to host noise: a rate above the bound
        // means the issue stage fell back to polling sleeping SMs.
        if let Some(&(_, bound)) = MAX_POLLS_PER_CYCLE.iter().find(|(n, _)| *n == name) {
            assert!(
                polls_per_cycle <= bound,
                "{name}: issue stage made {issue_polls} kernel polls over {} stepped \
                 cycles ({polls_per_cycle:.2}/cycle > {bound}); event-driven issue \
                 should keep sleeping SMs unpolled",
                prof.stepped_cycles
            );
        }
        // Deterministic like the two gates above: fewer entries read per
        // full step than the bound means the MEM step rescans only banks
        // whose candidate went stale.
        let entries_per_step = mix.mem_entries_examined as f64 / mix.full_steps.max(1) as f64;
        if let Some(&(_, bound)) = MAX_ENTRIES_PER_FULL_STEP.iter().find(|(n, _)| *n == name) {
            assert!(
                entries_per_step <= bound,
                "{name}: MEM step read {} queue entries over {} full steps \
                 ({entries_per_step:.2}/step > {bound}); cached candidates should \
                 spare banks whose queue and row did not change",
                mix.mem_entries_examined,
                mix.full_steps
            );
        }
        // Fast-forward gates. Engagement is checked on the deterministic
        // skip count: the on and off runs above simulated identical cycle
        // counts, and where fast-forward has idle spans to jump it must
        // still jump at least the gated count. Wall clock only has to
        // stay at parity within this host's run-to-run noise
        // (KNOWN_FAILURES.md documents the variance; 0.85 is well inside
        // it): the skipped cycles are cheap to step, so on/off differ by
        // about 1 %, and a strict "on beats off" bound was a coin flip.
        if let Some(&(_, min)) = MIN_FF_SKIPPED.iter().find(|(n, _)| *n == name) {
            assert!(
                ff_skipped >= min,
                "{name}: fast-forward skipped {ff_skipped} of {total_cycles} cycles \
                 (< {min}); its skip gate stopped opening on idle spans"
            );
        }
        let floor_x = 0.85;
        // HOTLOOP_FF_GATE=0 turns the on-vs-off parity assertion into a
        // report. scripts/bench_compare.sh sets it: interleaved A/B runs
        // load the host back-to-back, and a scheduler hiccup inside one
        // rep would otherwise abort the whole measurement. Tier-1 leaves
        // it on.
        if env_u64("HOTLOOP_FF_GATE", 1) != 0 {
            assert!(
                speedup >= floor_x,
                "{name}: fast-forward on is slower than off ({speedup:.3}x < {floor_x}x, \
                 ff_on {rate_on:.0}/s vs ff_off {rate_off:.0}/s after {extra} retry pairs; \
                 {ff_skipped} of {total_cycles} cycles skipped)"
            );
        } else if speedup < floor_x {
            println!("  {:16} ff gate waived ({speedup:.3}x < {floor_x}x)", "");
        }
        let hit_rate = mix.burst_hit_rate().unwrap_or(0.0);
        if name.starts_with("standalone_pim") {
            // The homogeneous all-PIM scenario is exactly what burst
            // retirement exists for; a zero hit rate means the mechanism
            // silently disengaged.
            assert!(
                mix.burst_retired > 0,
                "{name} retired no cycles through burst plans"
            );
            // Structural gate for event-driven completion delivery: the
            // eager per-tick reply path ran the reply-net and completion
            // stages every stepped cycle (2 ticks/cycle). Deferred,
            // observability-gated delivery must cut the combined tick
            // count at least 5x below that baseline. Tick counts are
            // deterministic, so unlike the wall-clock rates this gate is
            // immune to host noise. HBM only: LP5X's geometry keeps the
            // PIM kernel at its credit cap most cycles, so delivery is
            // legitimately observable almost every cycle there.
            if name == "standalone_pim" {
                let stage_ticks = mix.ticks_reply_net + mix.ticks_completion;
                assert!(
                    stage_ticks * 5 <= 2 * prof.stepped_cycles,
                    "{name}: reply/completion stages ran {stage_ticks} ticks over \
                     {} stepped cycles; event-driven delivery should cut the eager \
                     2-ticks-per-cycle baseline at least 5x",
                    prof.stepped_cycles
                );
            }
            // Structural gate for retire-time batching (DESIGN.md §4k):
            // all-PIM traffic must route its acks through the retire-time
            // batch (a zero counter means batching silently disengaged
            // and the oracle equality is comparing eager against eager).
            assert!(
                mix.acks_batched > 0,
                "{name}: no acks went through the retire-time batch"
            );
        }
        let total = prof.total_ns().max(1);
        print!("  {:16} stages:", "");
        let mut stage_fields = Vec::new();
        for (stage, ns) in prof.stages() {
            let pct = ns as f64 * 100.0 / total as f64;
            print!(" {stage} {pct:.0}%");
            stage_fields.push(format!(
                "        \"{stage}_ns\": {ns},\n        \"{stage}_pct\": {pct:.1}"
            ));
        }
        println!("  ({} stepped cycles)", prof.stepped_cycles);
        println!(
            "  {:16} step mix: full {} / memo {} / burst {} (hit rate {:.3}, {} plans, {} ops)   ff: {} skips, {} cycles",
            "",
            mix.full_steps,
            mix.memo_replayed,
            mix.burst_retired,
            hit_rate,
            mix.bursts_planned,
            mix.burst_ops,
            ff_skips,
            ff_skipped
        );
        println!(
            "  {:16} stage ticks: issue {} / req_net {} / memory {} / reply_net {} / completion {}   ({} completions delivered)",
            "",
            mix.ticks_issue,
            mix.ticks_request_net,
            mix.ticks_memory,
            mix.ticks_reply_net,
            mix.ticks_completion,
            mix.completions_delivered
        );
        println!(
            "  {:16} issue: {issue_polls} kernel polls ({polls_per_cycle:.2} per stepped cycle)",
            ""
        );
        println!(
            "  {:16} batching: {} retire batches / {} acks batched / {} plan spans replayed",
            "", mix.ack_batches, mix.acks_batched, mix.plan_spans_replayed
        );
        println!(
            "  {:16} memory: {} partition visits ({visits_per_cycle:.2} per stepped cycle) / {} catch-ups over {} DRAM ticks",
            "", mix.partition_visits, mix.replay_batches, mix.replayed_visits
        );
        println!(
            "  {:16} MEM step: {} queue entries read ({entries_per_step:.2} per full step)",
            "", mix.mem_entries_examined
        );
        entries.push(format!(
            concat!(
                "    {{\n",
                "      \"scenario\": \"{}\",\n",
                "      \"simulated_cycles\": {},\n",
                "      \"cycles_per_sec_ff_on\": {:.1},\n",
                "      \"cycles_per_sec_ff_off\": {:.1},\n",
                "      \"rates_ff_on\": {},\n",
                "      \"rates_ff_off\": {},\n",
                "      \"median_ff_on\": {:.1},\n",
                "      \"median_ff_off\": {:.1},\n",
                "      \"speedup\": {:.3},\n",
                "      \"speedup_median\": {:.3},\n",
                "      \"step_mix\": {{\n",
                "        \"full_steps\": {},\n",
                "        \"memo_replayed\": {},\n",
                "        \"burst_retired\": {},\n",
                "        \"memo_invalidations\": {},\n",
                "        \"bursts_planned\": {},\n",
                "        \"burst_ops\": {},\n",
                "        \"burst_hit_rate\": {:.4},\n",
                "        \"ack_batches\": {},\n",
                "        \"acks_batched\": {},\n",
                "        \"plan_spans_replayed\": {},\n",
                "        \"replay_batches\": {},\n",
                "        \"replayed_visits\": {},\n",
                "        \"partition_visits\": {},\n",
                "        \"mem_entries_examined\": {},\n",
                "        \"ticks_issue\": {},\n",
                "        \"ticks_request_net\": {},\n",
                "        \"ticks_memory\": {},\n",
                "        \"ticks_reply_net\": {},\n",
                "        \"ticks_completion\": {},\n",
                "        \"completions_delivered\": {}\n",
                "      }},\n",
                "      \"issue_polls\": {},\n",
                "      \"issue_polls_per_stepped_cycle\": {:.3},\n",
                "      \"partition_visits_per_stepped_cycle\": {:.3},\n",
                "      \"mem_entries_examined_per_full_step\": {:.3},\n",
                "      \"fast_forward\": {{\n",
                "        \"skips\": {},\n",
                "        \"skipped_gpu_cycles\": {}\n",
                "      }},\n",
                "      \"stage_breakdown\": {{\n",
                "        \"stepped_cycles\": {},\n",
                "{}\n",
                "      }}\n",
                "    }}"
            ),
            name,
            cycles_on,
            rate_on,
            rate_off,
            fmt_rates(&rates_on),
            fmt_rates(&rates_off),
            median(&rates_on),
            median(&rates_off),
            speedup,
            median(&rates_on) / median(&rates_off),
            mix.full_steps,
            mix.memo_replayed,
            mix.burst_retired,
            mix.memo_invalidations,
            mix.bursts_planned,
            mix.burst_ops,
            hit_rate,
            mix.ack_batches,
            mix.acks_batched,
            mix.plan_spans_replayed,
            mix.replay_batches,
            mix.replayed_visits,
            mix.partition_visits,
            mix.mem_entries_examined,
            mix.ticks_issue,
            mix.ticks_request_net,
            mix.ticks_memory,
            mix.ticks_reply_net,
            mix.ticks_completion,
            mix.completions_delivered,
            issue_polls,
            polls_per_cycle,
            visits_per_cycle,
            entries_per_step,
            ff_skips,
            ff_skipped,
            prof.stepped_cycles,
            stage_fields.join(",\n")
        ));
    }
    // serde is vendored as a no-op shim in this workspace, so the JSON is
    // formatted by hand. `HOTLOOP_OUT` overrides the path; empty skips the
    // write (the tier-1 smoke must not clobber the committed best-of-3).
    let out = std::env::var("HOTLOOP_OUT").unwrap_or_else(|_| "BENCH_hotloop.json".into());
    if !out.is_empty() {
        let json = format!(
            "{{\n  \"benchmark\": \"hotloop\",\n  \"unit\": \"simulated_gpu_cycles_per_wall_second\",\n  \"reps\": {reps},\n  \"results\": [\n{}\n  ]\n}}\n",
            entries.join(",\n")
        );
        std::fs::write(&out, &json).unwrap_or_else(|e| panic!("write {out}: {e}"));
        println!("\nwrote {out}");
    }
    if floor > 0.0 {
        let (name, rate) = slowest.expect("at least one scenario ran");
        if rate < floor {
            eprintln!(
                "FAIL: {name} ran at {rate:.0} simulated cycles/s, below the floor of {floor:.0}"
            );
            std::process::exit(1);
        }
        println!("floor check passed: slowest scenario {name} at {rate:.0}/s >= {floor:.0}/s");
    }
}
