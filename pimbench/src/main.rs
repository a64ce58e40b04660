//! End-to-end and per-layer benchmark of the simulator.
//!
//! ```text
//! pimbench --workload <mem_solo|pim_solo|coexec_sweep> [--seed N] [--seconds S] [--trace 0|1]
//! pimbench --workload <name> --write-record
//! ```
//!
//! Runs the workload's jobs in whole passes until `--seconds` have
//! elapsed, checks every job's simulated outcome, and prints one JSON
//! object as the last line of stdout. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` alternates untraced and traced passes and
//! reports the per-layer metrics. See `README.md` beside this crate.

mod record;
mod speed;
mod tally;
mod traced;
mod workload;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

use pimsim_core::StepMix;
use pimsim_sim::experiments::sweep::parallel_map;

use tally::Tally;
use workload::{run_job, Job, JobRun, Outcome, Workload, DEFAULT_SEED};

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("sim_cycles_per_s", "cycles/s"),
    ("job_ms.p50", "ms"),
    ("job_ms.p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("sim.issue_s", "s"),
    ("sim.request_net_s", "s"),
    ("sim.memory_s", "s"),
    ("sim.reply_net_s", "s"),
    ("sim.completion_s", "s"),
    ("sim.run_s", "s"),
    ("sim.loop_other_s", "s"),
    ("sim.stepped_cycles", "count"),
    ("sim.ff_skipped_share", "share"),
    ("sim.ticks_request_net", "count"),
    ("sim.ticks_memory", "count"),
    ("sim.ticks_reply_net", "count"),
    ("sim.ticks_completion", "count"),
    ("sim.replayed_visits", "count"),
    ("sim.replay_batches", "count"),
    ("sim.mean_deferral_window", "visits"),
    ("sim.requests_batched", "count"),
    ("sim.acks_batched", "count"),
    ("noc.injected", "count"),
    ("noc.inject_stalls", "count"),
    ("noc.eject_stalls", "count"),
    ("gpu.try_issue_calls", "count"),
    ("gpu.try_issue_s", "s"),
    ("gpu.requests_issued", "count"),
    ("gpu.issue_yield", "share"),
    ("gpu.on_complete_calls", "count"),
    ("gpu.on_complete_s", "s"),
    ("core.full_steps", "count"),
    ("core.memo_replayed", "count"),
    ("core.burst_retired", "count"),
    ("core.memo_invalidations", "count"),
    ("core.burst_hit_rate", "share"),
    ("core.plan_spans_replayed", "count"),
    ("core.mode_switches", "count"),
    ("core.drain_cycles", "count"),
    ("l2.hits", "count"),
    ("l2.misses", "count"),
    ("l2.merges", "count"),
    ("l2.writebacks", "count"),
    ("dram.acts", "count"),
    ("dram.reads", "count"),
    ("dram.writes", "count"),
    ("dram.pim_ops", "count"),
    ("pool.width", "count"),
    ("pool.busy_share", "share"),
    ("pool.batch_wall_s", "s"),
    ("pool.tail_idle_s", "s"),
    ("setup.kernel_new_s", "s"),
    ("setup.sim_new_s", "s"),
    ("setup.mount_s", "s"),
    ("trace.untraced_cycles_per_s", "cycles/s"),
    ("trace.traced_cycles_per_s", "cycles/s"),
    ("trace.overhead", "ratio"),
    ("host.calibration_ms", "ms"),
    ("host.speed_factor", "ratio"),
    ("jobs.simulated_cycles", "count"),
    ("jobs.failed_share", "share"),
    ("jobs.harvest_s", "s"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_record: bool,
}

const USAGE: &str = "usage: pimbench --workload <mem_solo|pim_solo|coexec_sweep> \
[--seed N] [--seconds S] [--trace 0|1] [--write-record]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::MemSolo,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        write_record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-record" {
            args.write_record = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: bad value '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// One pass over every job of the workload.
struct Pass {
    traced: bool,
    runs: Vec<JobRun>,
    /// Host-time span of the pass, ns since the epoch.
    start: u64,
    end: u64,
    /// Lanes the jobs ran on: the pool's width, or 1 when serial.
    width: usize,
    /// Per-job host speed factors (see `speed`).
    factors: Vec<f64>,
}

impl Pass {
    /// Wall time of the pass without its calibration loops, which run
    /// on every lane; host seconds at reference speed.
    fn wall_s(&self) -> f64 {
        let calibration: f64 = self.runs.iter().map(|r| r.calibration_ns as f64).sum();
        let wall = (self.end - self.start) as f64 - calibration / self.width as f64;
        wall * 1e-9 * self.mean_factor()
    }

    fn mean_factor(&self) -> f64 {
        self.factors.iter().sum::<f64>() / self.factors.len() as f64
    }

    fn cycles(&self) -> u64 {
        self.runs.iter().map(JobRun::cycles).sum()
    }

    /// Host seconds at reference speed between marks `a` and `b` of job `i`.
    fn job_s(&self, i: usize, a: usize, b: usize) -> f64 {
        let m = &self.runs[i].marks;
        (m[b] - m[a]) as f64 * 1e-9 * self.factors[i]
    }

    /// [`Pass::job_s`] summed over the pass's jobs.
    fn span_s(&self, a: usize, b: usize) -> f64 {
        (0..self.runs.len()).map(|i| self.job_s(i, a, b)).sum()
    }
}

fn since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn run_pass(w: Workload, jobs: &[Job], traced: bool, epoch: Instant) -> Pass {
    let start = since(epoch);
    let (runs, width) = if w.pooled() {
        let runs = parallel_map(jobs.to_vec(), move |job| run_job(&job, traced, epoch));
        (runs, pimsim_pool::global().threads())
    } else {
        (jobs.iter().map(|j| run_job(j, traced, epoch)).collect(), 1)
    };
    let end = since(epoch);
    let timing: Vec<_> = runs
        .iter()
        .map(|r| (r.lane, r.marks[0], r.calibration_ns))
        .collect();
    Pass {
        traced,
        start,
        end,
        width,
        factors: speed::factors(&timing),
        runs,
    }
}

/// What a job must reproduce in every pass: its outcome, step mix and
/// fast-forward counts.
type Seen = (Outcome, StepMix, (u64, u64));

/// Output checks across passes: the expected record (default seed
/// only), per-seed invariants (inside `run_job`), and that every pass —
/// traced or not — reproduces the first pass's outcome, step mix and
/// fast-forward counts exactly.
struct Checker {
    record: Option<HashMap<String, String>>,
    first: Vec<Option<Seen>>,
    first_counts: Option<Vec<(&'static str, f64)>>,
    attempted: u64,
    failed: u64,
    counts_repeat: bool,
}

impl Checker {
    fn check(&mut self, jobs: &[Job], pass: &Pass) {
        for (i, (job, run)) in jobs.iter().zip(&pass.runs).enumerate() {
            self.attempted += 1;
            let error = match &run.outcome {
                Err(e) => Some(e.clone()),
                Ok(o) => self.mismatch(i, job, o, run),
            };
            if let Some(e) = error {
                self.failed += 1;
                eprintln!("job {} failed: {e}", job.key);
            }
        }
        if pass.traced {
            let counts: Vec<_> = layers(pass).counts().collect();
            match &self.first_counts {
                None => self.first_counts = Some(counts),
                Some(first) if *first != counts => {
                    eprintln!("per-layer counts differ between traced passes");
                    self.counts_repeat = false;
                }
                Some(_) => {}
            }
        }
    }

    fn mismatch(&mut self, i: usize, job: &Job, o: &Outcome, run: &JobRun) -> Option<String> {
        if let Some(record) = &self.record {
            match record.get(&job.key) {
                None => return Some("no expected record".into()),
                Some(want) if *want != o.record() => {
                    return Some(format!("expected {want}, got {}", o.record()))
                }
                Some(_) => {}
            }
        }
        let seen = (o.clone(), run.mix, run.ff);
        match &self.first[i] {
            None => self.first[i] = Some(seen),
            Some(first) if *first != seen => {
                return Some(format!(
                    "differs from the first pass: outcome {} vs {}, step mix equal: {}, ff {:?} vs {:?}",
                    o.record(),
                    first.0.record(),
                    first.1 == run.mix,
                    run.ff,
                    first.2
                ))
            }
            Some(_) => {}
        }
        None
    }
}

/// The per-layer tally of a pass: the traced jobs' probes, their host
/// times at reference speed, plus the benchmark's own run spans.
fn layers(pass: &Pass) -> Tally {
    let mut t = Tally::default();
    for (r, &f) in pass.runs.iter().zip(&pass.factors) {
        t.merge_scaled(&r.layers, f);
    }
    t.add("sim.run_s", pass.span_s(3, 4));
    t
}

fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile (`q` in 0..=1) of `values`, sorted in place.
fn quantile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn end_to_end(passes: &[Pass]) -> Result<HashMap<&'static str, f64>, String> {
    let cycles: u64 = passes.iter().map(|p| p.cycles()).sum();
    let wall: f64 = passes.iter().map(|p| p.wall_s()).sum();
    let mut job_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| (0..p.runs.len()).map(move |i| p.job_s(i, 0, 5) * 1e3))
        .collect();
    let mut setup: Vec<f64> = passes.iter().map(|p| p.span_s(0, 3)).collect();
    let factor = passes.iter().map(|p| p.mean_factor()).sum::<f64>() / passes.len() as f64;
    println!(
        "{} job samples over {} passes, {:.2} s at reference speed; host speed factor {:.3}",
        job_ms.len(),
        passes.len(),
        wall,
        factor
    );
    Ok(HashMap::from([
        ("sim_cycles_per_s", cycles as f64 / wall),
        ("job_ms.p50", quantile(&mut job_ms, 0.5)),
        ("job_ms.p90", quantile(&mut job_ms, 0.9)),
        ("setup_s", median(&mut setup)),
        ("peak_rss_mb", peak_rss_mb()?),
    ]))
}

/// Pool accounting of one untraced pass: `(busy share, tail idle s)`,
/// where the tail is each lane's idle time after its last job, summed.
/// Serial workloads run on one lane, the calling thread.
fn pool_use(pass: &Pass) -> (f64, f64) {
    let busy = pass.span_s(0, 5);
    let mut last_end = vec![pass.start; pass.width];
    for r in &pass.runs {
        let lane = r.lane.min(pass.width - 1);
        last_end[lane] = last_end[lane].max(r.marks[5]);
    }
    let tail: u64 = last_end.iter().map(|&e| pass.end - e.min(pass.end)).sum();
    (
        ratio(busy, pass.width as f64 * pass.wall_s()),
        tail as f64 * 1e-9 * pass.mean_factor(),
    )
}

fn per_layer(passes: &[Pass], checker: &Checker) -> HashMap<&'static str, f64> {
    let (traced, plain): (Vec<&Pass>, Vec<&Pass>) = passes.iter().partition(|p| p.traced);
    let mut t = Tally::default();
    for p in &traced {
        t.merge(&layers(p));
    }
    // Host times are means per traced pass; counts repeat exactly, so
    // the first traced pass's counts stand for all of them.
    let n = traced.len() as f64;
    let first = layers(traced[0]);
    let c = |name: &str| first.get(name);
    let mut m: HashMap<&'static str, f64> = first.counts().collect();
    for &(name, _) in &PER_LAYER {
        if name.ends_with("_s") {
            m.insert(name, t.get(name) / n);
        }
    }
    m.insert(
        "sim.loop_other_s",
        (t.get("sim.run_s") - t.get("sim.stages_s")) / n,
    );
    m.insert(
        "sim.ff_skipped_share",
        ratio(c("sim.ff_skipped_cycles"), c("jobs.simulated_cycles")),
    );
    m.insert(
        "sim.mean_deferral_window",
        ratio(c("sim.replayed_visits"), c("sim.replay_batches")),
    );
    m.insert(
        "gpu.issue_yield",
        ratio(c("gpu.requests_issued"), c("gpu.try_issue_calls")),
    );
    let serviced = c("core.full_steps") + c("core.memo_replayed") + c("core.burst_retired");
    m.insert(
        "core.burst_hit_rate",
        ratio(c("core.burst_retired"), serviced),
    );

    let mean =
        |f: &dyn Fn(&Pass) -> f64| plain.iter().map(|p| f(p)).sum::<f64>() / plain.len() as f64;
    let med =
        |f: &dyn Fn(&Pass) -> f64| median(&mut plain.iter().map(|p| f(p)).collect::<Vec<_>>());
    m.insert("pool.width", plain[0].width as f64);
    m.insert("pool.busy_share", mean(&|p| pool_use(p).0));
    m.insert("pool.tail_idle_s", mean(&|p| pool_use(p).1));
    m.insert("pool.batch_wall_s", mean(&|p| p.wall_s()));
    m.insert("setup.kernel_new_s", med(&|p| p.span_s(0, 1)));
    m.insert("setup.sim_new_s", med(&|p| p.span_s(1, 2)));
    m.insert("setup.mount_s", med(&|p| p.span_s(2, 3)));
    m.insert("jobs.harvest_s", med(&|p| p.span_s(4, 5)));
    let rate = |ps: &[&Pass]| {
        let cycles: u64 = ps.iter().map(|p| p.cycles()).sum();
        ratio(cycles as f64, ps.iter().map(|p| p.wall_s()).sum())
    };
    let (untraced_rate, traced_rate) = (rate(&plain), rate(&traced));
    m.insert("trace.untraced_cycles_per_s", untraced_rate);
    m.insert("trace.traced_cycles_per_s", traced_rate);
    m.insert("trace.overhead", ratio(untraced_rate, traced_rate));
    let mut calibration_ms: Vec<f64> = plain
        .iter()
        .flat_map(|p| &p.runs)
        .map(|r| r.calibration_ns as f64 * 1e-6)
        .collect();
    m.insert("host.calibration_ms", median(&mut calibration_ms));
    m.insert("host.speed_factor", mean(&|p| p.mean_factor()));
    m.insert(
        "jobs.failed_share",
        ratio(checker.failed as f64, checker.attempted as f64),
    );
    m
}

/// Writes every span of the run, one JSON object per line.
fn write_spans(w: Workload, seed: u64, jobs: &[Job], passes: &[Pass]) -> Result<String, String> {
    const SPANS: [(&str, &str, usize, usize); 7] = [
        ("job", "pass", 0, 5),
        ("setup", "job", 0, 3),
        ("kernel_new", "setup", 0, 1),
        ("sim_new", "setup", 1, 2),
        ("mount", "setup", 2, 3),
        ("run", "job", 3, 4),
        ("harvest", "job", 4, 5),
    ];
    let mut out = String::new();
    for (i, p) in passes.iter().enumerate() {
        let _ = writeln!(
            out,
            r#"{{"pass":{i},"traced":{},"name":"pass","parent":"workload","start_ns":{},"end_ns":{}}}"#,
            p.traced, p.start, p.end
        );
        for (job, r) in jobs.iter().zip(&p.runs) {
            for (name, parent, a, b) in SPANS {
                let _ = writeln!(
                    out,
                    r#"{{"pass":{i},"traced":{},"job":"{}","lane":{},"name":"{name}","parent":"{parent}","start_ns":{},"end_ns":{}}}"#,
                    p.traced, job.key, r.lane, r.marks[a], r.marks[b]
                );
            }
        }
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{seed}.spans.jsonl", w.name()));
    std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn json_result(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: &[(&str, &str)],
    m: &HashMap<&'static str, f64>,
) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = m[name];
            format!(r#""{name}": {{"value": {v}, "unit": "{unit}"}}"#)
        })
        .collect();
    format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        metrics.join(", ")
    )
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let jobs = w.jobs(args.seed);
    let epoch = Instant::now();
    if args.write_record {
        if args.seed != DEFAULT_SEED {
            return Err(format!("the record is kept at seed {DEFAULT_SEED}"));
        }
        let pass = run_pass(w, &jobs, false, epoch);
        let mut lines = Vec::new();
        for (job, r) in jobs.iter().zip(&pass.runs) {
            let o = r
                .outcome
                .as_ref()
                .map_err(|e| format!("{}: {e}", job.key))?;
            lines.push((job.key.clone(), o.record()));
        }
        return record::store(w, args.seed, lines);
    }
    let mut checker = Checker {
        record: (args.seed == DEFAULT_SEED)
            .then(|| record::load(w))
            .transpose()?,
        first: vec![None; jobs.len()],
        first_counts: None,
        attempted: 0,
        failed: 0,
        counts_repeat: true,
    };
    let modes: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let mut passes = Vec::new();
    while passes.is_empty() || (since(epoch) as f64) * 1e-9 < args.seconds {
        for &traced in modes {
            let pass = run_pass(w, &jobs, traced, epoch);
            checker.check(&jobs, &pass);
            passes.push(pass);
        }
    }
    let metrics = if args.trace {
        let path = write_spans(w, args.seed, &jobs, &passes)?;
        println!("spans written to {path}");
        per_layer(&passes, &checker)
    } else {
        end_to_end(&passes)?
    };
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let correct = checker.failed == 0 && checker.counts_repeat;
    println!(
        "{}",
        json_result(correct, checker.attempted, checker.failed, names, &metrics)
    );
    Ok(())
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    if let Err(e) = run(&args) {
        eprintln!("pimbench: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimsim_gpu::KernelModel;

    fn job(w: Workload, key: &str) -> Job {
        w.jobs(DEFAULT_SEED)
            .into_iter()
            .find(|j| j.key == key)
            .unwrap_or_else(|| panic!("no job {key}"))
    }

    /// One job of each shape, small enough for a debug build.
    fn sample_jobs() -> Vec<Job> {
        vec![
            job(Workload::MemSolo, "G10/sms8"),
            job(Workload::MemSolo, "G15/sms80"),
            job(Workload::PimSolo, "P1/out4/lp5x:ranks=4"),
            job(Workload::CoexecSweep, "base/G8/sms72"),
            job(Workload::CoexecSweep, "G8+P2/f3fs/vc2"),
        ]
    }

    #[test]
    fn tracing_does_not_perturb_the_simulation() {
        let epoch = Instant::now();
        for j in sample_jobs() {
            let plain = run_job(&j, false, epoch);
            let traced = run_job(&j, true, epoch);
            assert_eq!(plain.outcome, traced.outcome, "{}", j.key);
            assert_eq!(plain.mix, traced.mix, "{}", j.key);
            assert_eq!(plain.ff, traced.ff, "{}", j.key);
            assert!(plain.outcome.is_ok(), "{}: {:?}", j.key, plain.outcome);
        }
    }

    #[test]
    fn jobs_match_the_runner() {
        let epoch = Instant::now();
        for j in sample_jobs() {
            let ours = run_job(&j, false, epoch).outcome.expect("job runs");
            let (runner, first_runs, mc) = j.via_runner();
            assert_eq!(ours.first_runs, first_runs, "{}", j.key);
            assert_eq!(
                (
                    ours.mem.0,
                    ours.mem.1,
                    ours.pim.0,
                    ours.pim.1,
                    ours.switches
                ),
                (
                    mc.mem_arrivals,
                    mc.mem_served,
                    mc.pim_arrivals,
                    mc.pim_served,
                    mc.switches
                ),
                "{}",
                j.key
            );
            assert_eq!(runner.max_gpu_cycles, j.budget());
        }
    }

    #[test]
    fn the_wrapper_forwards_the_activity_hooks() {
        let epoch = Instant::now();
        let j = job(Workload::MemSolo, "G10/sms8");
        let run = run_job(&j, true, epoch);
        assert!(run.ff.1 > 0, "fast-forward must engage on a sparse kernel");
        assert!(run.layers.get("gpu.try_issue_calls") > 0.0);
        let k = j.kernel_model(0);
        let traced = traced::TracedKernel::new(
            j.kernel_model(0),
            std::sync::Arc::new(traced::GpuCounters::default()),
        );
        assert_eq!(traced.next_activity_cycle(5), k.next_activity_cycle(5));
        assert_eq!(traced.wants_completions(5), k.wants_completions(5));
    }

    #[test]
    fn job_keys_are_unique_and_seeds_only_reorder() {
        for w in Workload::ALL {
            let mut a: Vec<String> = w.jobs(1).into_iter().map(|j| j.key).collect();
            let mut b: Vec<String> = w.jobs(2).into_iter().map(|j| j.key).collect();
            assert_ne!(a, b, "{}: the seed must set job order", w.name());
            a.sort();
            b.sort();
            assert_eq!(a, b);
            let n = a.len();
            a.dedup();
            assert_eq!(a.len(), n, "{}: duplicate job keys", w.name());
            assert!(n >= 100, "{}: {n} jobs, fewer than 100", w.name());
        }
    }

    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!(r#""name": "{name}", "unit": "{unit}""#);
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in Workload::ALL {
            assert!(text.contains(&format!(r#""name": "{}""#, w.name())));
        }
        let listed = text.matches(r#""name": ""#).count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
        );
    }
}
