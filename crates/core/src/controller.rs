//! The per-channel memory controller: queues, mode switching with drain,
//! DRAM command generation, and statistics.
//!
//! The controller is the *mechanism* half of the design: each DRAM cycle it
//! asks its [`SchedulePolicy`] for the desired mode, performs drains and
//! switches, and issues at most one DRAM command chosen by walking the
//! policy's `(class, age)` priority over legal candidates. PIM requests are
//! always serviced FCFS (queue order) for correctness.

use std::collections::{BinaryHeap, VecDeque};

use pimsim_dram::{Channel, DramCommand, PimEngine};
use pimsim_stats::Histogram;
use pimsim_types::{
    Cycle, DecodedAddr, Mode, PagePolicy, PimOpKind, Request, RequestKind, SystemConfig,
};

use crate::policy::{PolicyView, SchedulePolicy};
use crate::queue::{McQueues, QueuedRequest};

/// A serviced request leaving the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The original request.
    pub req: Request,
    /// DRAM cycle at which its data transfer completes.
    pub at: Cycle,
}

impl PartialOrd for Completion {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Completion {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse time order so BinaryHeap pops the earliest first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.req.id.cmp(&self.req.id))
    }
}

/// Mode-switch bookkeeping while draining.
#[derive(Debug, Clone, Copy)]
struct SwitchInProgress {
    target: Mode,
    started: Cycle,
}

/// Controller statistics (the sources for Figures 4, 6, and 10).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct McStats {
    /// MEM requests accepted into the MEM queue.
    pub mem_arrivals: u64,
    /// PIM requests accepted into the PIM queue.
    pub pim_arrivals: u64,
    /// MEM requests serviced (column command issued).
    pub mem_served: u64,
    /// PIM requests serviced.
    pub pim_served: u64,
    /// MEM column commands that hit the row buffer.
    pub mem_row_hits: u64,
    /// MEM requests that required an activate (row miss/conflict).
    pub mem_row_misses: u64,
    /// PIM ops that hit (mid-block ops).
    pub pim_row_hits: u64,
    /// PIM ops that required an all-bank activate (block starts).
    pub pim_row_misses: u64,
    /// Completed mode switches.
    pub switches: u64,
    /// Completed MEM→PIM switches.
    pub switches_mem_to_pim: u64,
    /// Total drain latency (DRAM cycles) across MEM→PIM switches.
    pub mem_drain_latency_sum: u64,
    /// MEM requests that had to re-open a row a switch had closed
    /// ("additional MEM conflicts", Figure 10b).
    pub switch_conflicts: u64,
    /// Sum over active DRAM cycles of the number of busy banks (BLP
    /// numerator; Figure 4c).
    pub blp_sum: u64,
    /// DRAM cycles with at least one busy bank (BLP denominator).
    pub active_cycles: u64,
    /// Sum over cycles of MEM queue occupancy.
    pub mem_q_occupancy_sum: u64,
    /// Sum over cycles of PIM queue occupancy.
    pub pim_q_occupancy_sum: u64,
    /// Cycles stepped.
    pub cycles: u64,
    /// Cycles spent in MEM mode (not draining).
    pub cycles_mem_mode: u64,
    /// Cycles spent in PIM mode (not draining).
    pub cycles_pim_mode: u64,
    /// Cycles spent draining for a mode switch.
    pub cycles_draining: u64,
    /// Per-request MEM latency (controller arrival to data completion),
    /// DRAM cycles.
    pub mem_latency: Histogram,
    /// Per-request PIM latency, DRAM cycles.
    pub pim_latency: Histogram,
}

impl McStats {
    /// MEM row-buffer hit rate, if any MEM request was serviced.
    pub fn mem_rbhr(&self) -> Option<f64> {
        let total = self.mem_row_hits + self.mem_row_misses;
        (total > 0).then(|| self.mem_row_hits as f64 / total as f64)
    }

    /// PIM row-buffer hit rate.
    pub fn pim_rbhr(&self) -> Option<f64> {
        let total = self.pim_row_hits + self.pim_row_misses;
        (total > 0).then(|| self.pim_row_hits as f64 / total as f64)
    }

    /// Average bank-level parallelism over active DRAM cycles.
    pub fn avg_blp(&self) -> Option<f64> {
        (self.active_cycles > 0).then(|| self.blp_sum as f64 / self.active_cycles as f64)
    }

    /// Average MEM conflicts added per MEM→PIM switch.
    pub fn conflicts_per_switch(&self) -> Option<f64> {
        (self.switches_mem_to_pim > 0)
            .then(|| self.switch_conflicts as f64 / self.switches_mem_to_pim as f64)
    }

    /// Average MEM drain latency per MEM→PIM switch, in DRAM cycles.
    pub fn drain_latency_per_switch(&self) -> Option<f64> {
        (self.switches_mem_to_pim > 0)
            .then(|| self.mem_drain_latency_sum as f64 / self.switches_mem_to_pim as f64)
    }

    /// Merges the counters of another controller (for cross-channel
    /// aggregation).
    pub fn merge(&mut self, o: &McStats) {
        self.mem_arrivals += o.mem_arrivals;
        self.pim_arrivals += o.pim_arrivals;
        self.mem_served += o.mem_served;
        self.pim_served += o.pim_served;
        self.mem_row_hits += o.mem_row_hits;
        self.mem_row_misses += o.mem_row_misses;
        self.pim_row_hits += o.pim_row_hits;
        self.pim_row_misses += o.pim_row_misses;
        self.switches += o.switches;
        self.switches_mem_to_pim += o.switches_mem_to_pim;
        self.mem_drain_latency_sum += o.mem_drain_latency_sum;
        self.switch_conflicts += o.switch_conflicts;
        self.blp_sum += o.blp_sum;
        self.active_cycles += o.active_cycles;
        self.mem_q_occupancy_sum += o.mem_q_occupancy_sum;
        self.pim_q_occupancy_sum += o.pim_q_occupancy_sum;
        self.cycles += o.cycles;
        self.cycles_mem_mode += o.cycles_mem_mode;
        self.cycles_pim_mode += o.cycles_pim_mode;
        self.cycles_draining += o.cycles_draining;
        self.mem_latency.merge(&o.mem_latency);
        self.pim_latency.merge(&o.pim_latency);
    }
}

impl pimsim_stats::Mergeable for McStats {
    fn merge_from(&mut self, other: &Self) {
        self.merge(other);
    }
}

/// How the controller's cycles were serviced: full scheduling steps,
/// O(1) stall-memo replays, or closed-form burst-plan retirement
/// (DESIGN.md §4h). Kept outside [`McStats`] on purpose — the
/// fast/oracle equivalence tests compare `McStats` bit-for-bit, and the
/// step mix is exactly what is *allowed* to differ between the two.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepMix {
    /// Cycles serviced by a full scheduling step.
    pub full_steps: u64,
    /// Cycles replayed by the stall memo (per-tick and bulk spans).
    pub memo_replayed: u64,
    /// Cycles retired inside a burst-plan window.
    pub burst_retired: u64,
    /// Armed stall windows voided by an enqueue before they elapsed.
    pub memo_invalidations: u64,
    /// Burst plans created. Plans are never invalidated: the policy's
    /// `stable_pim_run` guarantee is unconditional and the refresh
    /// horizon is folded in at planning time.
    pub bursts_planned: u64,
    /// PIM ops retired through burst plans.
    pub burst_ops: u64,
    /// GPU cycles in which the issue stage ran. Controllers leave the
    /// per-stage tick counters at zero; the simulator fills them in when
    /// merging (it owns the pipeline, controllers only see DRAM ticks).
    pub ticks_issue: u64,
    /// GPU cycles in which the request crossbar ran.
    pub ticks_request_net: u64,
    /// GPU cycles in which the memory stage ran.
    pub ticks_memory: u64,
    /// GPU cycles in which the reply crossbar actually stepped (the
    /// event-driven path skips it while no reply is queued or in flight).
    pub ticks_reply_net: u64,
    /// GPU cycles in which the completion stage retired anything (ack
    /// collection or reply retirement; skipped while every mounted kernel
    /// defers delivery).
    pub ticks_completion: u64,
    /// Kernel completions retired (PIM acks + MEM replies). The
    /// denominator of the ticks-per-completion structural gate.
    pub completions_delivered: u64,
    /// Retire-time completion batches emitted (one per burst plan whose
    /// acks were deposited as a timestamped batch; DESIGN.md §4k).
    pub ack_batches: u64,
    /// PIM completions emitted through the retire-time batch path instead
    /// of the per-tick completion heap. Zero means the batching path
    /// silently disengaged — the tier-1 smoke fails on that.
    pub acks_batched: u64,
    /// Burst-plan windows bulk-replayed by `plan_replay_span` (each span
    /// covers many `burst_retired` ticks in one call).
    pub plan_spans_replayed: u64,
    /// Inert shim, always zero: `pimbench` is its only reader.
    #[doc(hidden)]
    pub requests_batched: u64,
    /// Catch-ups of a busy controller over DRAM ticks its partition
    /// slept through (DESIGN.md §4o); each is one O(1) bulk replay.
    pub replay_batches: u64,
    /// DRAM ticks covered by those catch-ups.
    pub replayed_visits: u64,
    /// Live partition visits by the memory stage: one per partition per
    /// GPU cycle in which it had work due. The eager loop would make one
    /// per partition per stepped cycle.
    pub partition_visits: u64,
    /// MEM-queue entries read by the MEM scheduling step's candidate
    /// rescans (DESIGN.md §4p). Only banks whose cached candidate went
    /// stale are rescanned, so this grows with what changed between
    /// steps, not with queue length.
    pub mem_entries_examined: u64,
}

impl StepMix {
    /// Fraction of serviced cycles retired by burst plans, if any cycle
    /// was serviced.
    pub fn burst_hit_rate(&self) -> Option<f64> {
        let total = self.full_steps + self.memo_replayed + self.burst_retired;
        (total > 0).then(|| self.burst_retired as f64 / total as f64)
    }
}

impl pimsim_stats::Mergeable for StepMix {
    fn merge_from(&mut self, o: &Self) {
        self.full_steps += o.full_steps;
        self.memo_replayed += o.memo_replayed;
        self.burst_retired += o.burst_retired;
        self.memo_invalidations += o.memo_invalidations;
        self.bursts_planned += o.bursts_planned;
        self.burst_ops += o.burst_ops;
        self.ticks_issue += o.ticks_issue;
        self.ticks_request_net += o.ticks_request_net;
        self.ticks_memory += o.ticks_memory;
        self.ticks_reply_net += o.ticks_reply_net;
        self.ticks_completion += o.ticks_completion;
        self.completions_delivered += o.completions_delivered;
        self.ack_batches += o.ack_batches;
        self.acks_batched += o.acks_batched;
        self.plan_spans_replayed += o.plan_spans_replayed;
        self.replay_batches += o.replay_batches;
        self.replayed_visits += o.replayed_visits;
        self.partition_visits += o.partition_visits;
        self.mem_entries_examined += o.mem_entries_examined;
    }
}

/// One bank's best MEM candidate: the policy-best `(class, age)` among
/// the bank's queued requests, and what its next command needs.
#[derive(Debug, Clone, Copy)]
struct MemCandidate {
    class: u32,
    age: u64,
    row: u32,
    write: bool,
    /// Whether the request hits the bank's open row.
    hit: bool,
}

/// Mask with the low `n` bits set (`n <= 64`).
fn low_bits(n: usize) -> u64 {
    debug_assert!(n <= 64, "bank masks cover 64 banks");
    if n >= 64 {
        u64::MAX
    } else {
        (1 << n) - 1
    }
}

/// One channel's memory controller.
///
/// # Example
///
/// ```
/// use pimsim_core::{MemoryController, policy::PolicyKind};
/// use pimsim_types::SystemConfig;
///
/// let cfg = SystemConfig::default();
/// let mc = MemoryController::new(&cfg, PolicyKind::FrFcfs.build());
/// assert!(mc.is_idle(0));
/// ```
#[derive(Debug)]
pub struct MemoryController {
    queues: McQueues,
    channel: Channel,
    pim_engine: PimEngine,
    mode: Mode,
    switch: Option<SwitchInProgress>,
    policy: Box<dyn SchedulePolicy>,
    completions: BinaryHeap<Completion>,
    /// Rows open at the last MEM→PIM switch; used to attribute reopened
    /// rows to the switch (Figure 10b).
    rows_at_switch: Vec<Option<u32>>,
    /// Open row per bank, the policy view's copy of the channel's row
    /// state. Rebuilt when `channel.row_epoch()` moves outside the
    /// controller's own MEM commands, which update their bank in place.
    open_rows: Vec<Option<u32>>,
    /// Per-bank MEM candidate cache (DESIGN.md §4p): entry `b` is bank
    /// `b`'s best queued request, exact whenever `b` is pending and its
    /// bit in `cand_dirty` is clear.
    mem_cand: Vec<Option<MemCandidate>>,
    /// Banks whose cached candidate may be stale: set on a MEM enqueue to
    /// the bank, on any command issued to it, and wholesale when the
    /// channel's rows move under a refresh or a PIM command (or every
    /// step, for a policy whose `mem_class` reads its own state).
    cand_dirty: u64,
    page_policy: PagePolicy,
    /// Stall memo: cycles strictly before this are replayed by
    /// [`MemoryController::replay_cycle`] in O(1) — the arming full step
    /// proved no command can issue and no policy decision can change
    /// before it. `0` means no stall is armed.
    stall_until: Cycle,
    /// Queue-demand bank mask captured at stall arm time (BLP replay);
    /// frozen for the window because nothing issues and any enqueue
    /// invalidates the memo.
    stall_qmask: u64,
    /// Bank busy expiries `(busy_until, bit)` live at arm time, sorted
    /// ascending; consumed through `stall_busy_ptr` as time passes.
    stall_busy: Vec<(Cycle, u64)>,
    stall_busy_ptr: usize,
    /// OR of the not-yet-expired `stall_busy` bits.
    stall_busy_mask: u64,
    /// Oracle knob: `false` forces a full step every cycle (what the
    /// stall-memo equivalence property test compares against).
    stall_enabled: bool,
    /// Burst plan (DESIGN.md §4h): cycles strictly before this are
    /// serviced by [`MemoryController::plan_replay_cycle`] — the plan's
    /// issue cycles were computed analytically at creation, and each op's
    /// observable effects fire at its own issue tick without any
    /// scheduling work. `0` means no plan is live. Unlike the stall memo,
    /// a plan survives enqueues: the policy's `stable_pim_run` guarantee
    /// is unconditional.
    plan_until: Cycle,
    /// The plan's creation cycle (= the first op's issue cycle).
    plan_first: Cycle,
    /// Issue stride inside the plan (`max(tCCDl, 1)`).
    plan_stride: Cycle,
    /// Planned ops not yet virtually issued. Eagerly-popped ops still
    /// occupy their queue slots from the outside world's point of view
    /// until their analytic issue cycle passes, so `can_accept`,
    /// `pim_q_len`, and the occupancy integral add this back.
    plan_reserved: usize,
    /// Oracle knob for the burst plan, mirroring `stall_enabled`.
    burst_enabled: bool,
    /// Scratch for [`MemoryController::retire_burst`]: per-op
    /// `writes_row` flags, reused across plans.
    burst_writes: Vec<bool>,
    /// Scratch for [`MemoryController::retire_burst`]: per-op completion
    /// cycles from the channel's bulk issue.
    burst_completions: Vec<Cycle>,
    /// The plan's not-yet-issued ops, front = next to issue: the popped
    /// request, its data-completion cycle, and its frozen bypass flag.
    /// Per-op accounting (stats, policy hook, engine op, completion
    /// hand-off) runs at each op's analytic issue cycle, so a stats
    /// snapshot taken mid-plan is bit-identical to per-cycle stepping.
    plan_ops: VecDeque<(QueuedRequest, Cycle, bool)>,
    /// `channel.row_epoch()` the `open_rows` view (and with it the MEM
    /// candidate cache) is in sync with; a mismatch means the rows moved
    /// outside the controller's own MEM commands.
    open_rows_epoch: u64,
    /// Retire-time ack batching (DESIGN.md §4k): with it on, PIM
    /// completions bypass the per-tick `completions` heap and are
    /// deposited — already timestamped — into `ack_batch` the moment
    /// their data-completion cycle is known in closed form (at burst
    /// retirement, or at single-op issue). The owner harvests the batch
    /// after every state-mutating call and re-sorts it into a
    /// time-ordered delivery schedule, so each ack is still *observable*
    /// at its exact tick. `false` is the eager oracle path.
    ack_batching: bool,
    /// Timestamped PIM completions awaiting harvest by the owner, in
    /// deposit order — ascending `at` within a plan, so a FIFO harvest
    /// hands the owner's delivery schedule a monotone stream (its O(1)
    /// sorted lane, no heap traffic).
    ack_batch: VecDeque<Completion>,
    /// Monotone max `at` over all batched PIM completions ever emitted.
    /// While `now <= ack_horizon` the controller reports itself non-idle,
    /// replicating exactly the cycles the eager path keeps a PIM
    /// completion in its heap — the idle fast path and the stats
    /// integrals therefore match the eager oracle bit for bit. `0` means
    /// no batched ack was ever emitted (real completions land at `at > 0`).
    ack_horizon: Cycle,
    mix: StepMix,
    stats: McStats,
}

impl MemoryController {
    /// Creates a controller for one channel.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.dram.banks` exceeds 64 (bank masks are one `u64`;
    /// [`SystemConfig::validate`] rejects such configurations).
    pub fn new(cfg: &SystemConfig, policy: Box<dyn SchedulePolicy>) -> Self {
        let banks = cfg.dram.banks;
        assert!(
            banks <= 64,
            "bank masks cover at most 64 banks, got {banks}"
        );
        let rf_per_bank = cfg.dram.pim_rf_entries * cfg.dram.pim_fus_per_channel / cfg.dram.banks;
        MemoryController {
            queues: McQueues::new(cfg.mc.mem_q_entries, cfg.mc.pim_q_entries),
            // Constructed through the backend registry, so the controller
            // services whichever substrate `cfg.dram_backend` names
            // without knowing its kind.
            channel: pimsim_dram::backend::channel_for(cfg),
            pim_engine: PimEngine::new(rf_per_bank.max(1)),
            mode: Mode::Mem,
            switch: None,
            policy,
            completions: BinaryHeap::new(),
            rows_at_switch: vec![None; banks],
            open_rows: vec![None; banks],
            mem_cand: vec![None; banks],
            cand_dirty: u64::MAX,
            page_policy: cfg.mc.page_policy,
            stall_until: 0,
            stall_qmask: 0,
            stall_busy: Vec::with_capacity(banks),
            stall_busy_ptr: 0,
            stall_busy_mask: 0,
            stall_enabled: true,
            plan_until: 0,
            plan_first: 0,
            plan_stride: 1,
            plan_reserved: 0,
            burst_enabled: true,
            burst_writes: Vec::new(),
            burst_completions: Vec::new(),
            plan_ops: VecDeque::new(),
            open_rows_epoch: u64::MAX,
            // Off at the raw-controller level: a bare `MemoryController`
            // has no harvesting owner, so batched acks would pile up
            // unobserved (and `is_idle` would pin false). The simulator's
            // partition owns a delivery schedule and turns this on.
            ack_batching: false,
            ack_batch: VecDeque::new(),
            ack_horizon: 0,
            mix: StepMix::default(),
            stats: McStats::default(),
        }
    }

    /// Disables (or re-enables) the stall memo; with it off the controller
    /// takes a full step every cycle — the brute-force oracle the
    /// equivalence property test compares the memo against.
    pub fn set_stall_enabled(&mut self, enabled: bool) {
        self.stall_enabled = enabled;
        self.stall_until = 0;
    }

    /// Disables (or re-enables) closed-form burst retirement; with it off
    /// every PIM op issues through the per-cycle path — the brute-force
    /// oracle the burst equivalence property test compares against. Call
    /// before stepping: a live plan cannot be un-retired.
    ///
    /// # Panics
    ///
    /// Panics if a burst plan is currently live.
    pub fn set_burst_enabled(&mut self, enabled: bool) {
        assert!(
            self.plan_reserved == 0,
            "cannot toggle burst retirement mid-plan"
        );
        self.burst_enabled = enabled;
    }

    /// Enables (or disables) retire-time ack batching. Off by default at
    /// this level — only an owner that harvests `pop_batched_ack` into a
    /// time-ordered delivery schedule (the simulator's partition) may
    /// turn it on; with it off every PIM completion goes through the
    /// per-tick `completions` heap — the eager oracle the
    /// `ack_batching_matches_per_tick_oracle` test compares the batched
    /// path against. Call before stepping.
    ///
    /// # Panics
    ///
    /// Panics if a burst plan is live or a batch awaits harvest.
    pub fn set_ack_batching(&mut self, enabled: bool) {
        assert!(
            self.plan_reserved == 0 && self.ack_batch.is_empty(),
            "cannot toggle ack batching mid-plan"
        );
        self.ack_batching = enabled;
    }

    /// Whether retire-time ack batching is on.
    pub fn ack_batching(&self) -> bool {
        self.ack_batching
    }

    /// How this controller's cycles were serviced (full steps vs memo
    /// replays vs burst retirement) — observability only, never part of
    /// the fast/oracle equivalence surface.
    pub fn step_mix(&self) -> StepMix {
        self.mix
    }

    /// Current servicing mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Name of the installed policy.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Whether a request of the given kind can be accepted. Ops a burst
    /// plan retired eagerly still occupy their PIM-queue slots until
    /// their analytic issue cycles pass, so arrival pacing — and with it
    /// every downstream age and timestamp — matches per-cycle stepping
    /// exactly.
    pub fn can_accept(&self, is_pim: bool) -> bool {
        if is_pim {
            self.queues.pim_len() + self.plan_reserved < self.queues.pim_capacity()
        } else {
            self.queues.can_accept(false)
        }
    }

    /// Queued MEM requests.
    pub fn mem_q_len(&self) -> usize {
        self.queues.mem_len()
    }

    /// Queued PIM requests (including a live burst plan's not-yet-issued
    /// reservations; see [`MemoryController::can_accept`]).
    pub fn pim_q_len(&self) -> usize {
        self.queues.pim_len() + self.plan_reserved
    }

    /// Accepts a request.
    ///
    /// # Panics
    ///
    /// Panics if the target queue is full (check [`MemoryController::can_accept`]).
    pub fn enqueue(&mut self, req: Request, decoded: DecodedAddr, now: Cycle) {
        if req.kind.is_pim() {
            self.stats.pim_arrivals += 1;
        } else {
            self.stats.mem_arrivals += 1;
        }
        // New work changes the scheduling view: any armed stall is void.
        // A live burst plan, by contrast, survives: the policy's
        // `stable_pim_run` guarantee is unconditional over arrivals.
        if now < self.stall_until {
            self.mix.memo_invalidations += 1;
        }
        self.stall_until = 0;
        if !req.kind.is_pim() {
            self.cand_dirty |= 1 << (decoded.bank % 64);
        }
        self.queues.enqueue(req, decoded, now);
    }

    /// True when no requests are queued, in flight, or awaiting pickup.
    /// In batched mode an already-emitted PIM ack keeps the controller
    /// non-idle until its data-completion cycle passes — exactly the
    /// cycles the eager path holds it in the `completions` heap — so the
    /// idle fast path accrues identical stats in both modes.
    pub fn is_idle(&self, now: Cycle) -> bool {
        self.queues.is_empty()
            && self.channel.quiescent(now)
            && self.switch.is_none()
            && self.completions.is_empty()
            && self.ack_batch.is_empty()
            && (!self.ack_batching || self.ack_horizon == 0 || now > self.ack_horizon)
    }

    /// Appends all completions with `at <= now` to `out` — the
    /// scratch-buffer form of the old Vec-per-call `pop_completions`, so
    /// per-tick consumers reuse one buffer across the whole run.
    pub fn pop_completions_into(&mut self, now: Cycle, out: &mut Vec<Completion>) {
        while let Some(c) = self.pop_completion_before(now) {
            out.push(c);
        }
    }

    /// Pops the earliest completion with `at <= now`, if any — the
    /// allocation-free form of [`MemoryController::pop_completions`] for
    /// per-cycle consumers that process completions one at a time.
    pub fn pop_completion_before(&mut self, now: Cycle) -> Option<Completion> {
        if self.completions.peek().is_some_and(|c| c.at <= now) {
            return self.completions.pop();
        }
        None
    }

    /// Takes the oldest completion out of the retire-time ack batch —
    /// deposit order, so the stream is ascending `at` within a plan and
    /// the owner's delivery schedule absorbs it on its O(1) sorted lane.
    /// Harvest until `None` after every call that can issue PIM work
    /// ([`MemoryController::step`],
    /// [`MemoryController::plan_replay_span`]).
    pub fn pop_batched_ack(&mut self) -> Option<Completion> {
        self.ack_batch.pop_front()
    }

    /// Routes a PIM completion: into the retire-time batch when batching
    /// is on (timestamped, harvested by the owner), into the per-tick
    /// heap otherwise (the eager oracle path).
    fn push_pim_completion(&mut self, req: Request, at: Cycle) {
        if self.ack_batching {
            self.ack_batch.push_back(Completion { req, at });
            self.ack_horizon = self.ack_horizon.max(at);
            self.mix.acks_batched += 1;
        } else {
            self.completions.push(Completion { req, at });
        }
    }

    /// The earliest cycle at or after `now` at which this controller can
    /// *do* something, or `None` while it is completely idle (no queued
    /// requests, no in-flight data, no pending switch, no undelivered
    /// completions). Inside an armed stall window the answer is the
    /// window's end (or an earlier completion hand-off) rather than a
    /// perpetual `now` — so the probe no longer reports "busy forever"
    /// while a PIM block merely waits out a timing constraint.
    pub fn next_activity_cycle(&self, now: Cycle) -> Option<Cycle> {
        if self.is_idle(now) {
            return None;
        }
        if now < self.plan_until {
            // Plan ticks need per-tick service: a completion falls due
            // roughly every issue stride, and the virtual queue drains.
            return Some(now);
        }
        if now < self.stall_until {
            let next = self
                .completions
                .peek()
                .map_or(self.stall_until, |c| c.at.min(self.stall_until));
            return Some(next.max(now));
        }
        Some(now)
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> &McStats {
        &self.stats
    }

    /// The DRAM channel's command counters (for energy accounting).
    pub fn channel_stats(&self) -> pimsim_dram::ChannelStats {
        self.channel.stats()
    }

    /// Advances the controller by one DRAM cycle — an O(1) burst-plan
    /// replay inside a live plan window, an O(1) stats replay inside an
    /// armed stall window, a full scheduling step otherwise.
    pub fn step(&mut self, now: Cycle) {
        if now < self.plan_until {
            self.mix.burst_retired += 1;
            self.plan_replay_cycle(now);
        } else if now < self.stall_until {
            self.mix.memo_replayed += 1;
            self.replay_cycle(now);
        } else {
            self.mix.full_steps += 1;
            self.step_full(now);
        }
    }

    /// Replays one cycle inside a live burst plan in O(1): the per-cycle
    /// stats integrals advance exactly as [`MemoryController::step_full`]
    /// would have advanced them, and on the plan's issue-stride ticks the
    /// next planned op performs its observable issue effects
    /// ([`MemoryController::issue_planned_op`]) — no scheduling decision,
    /// no queue scan, no channel legality check.
    fn plan_replay_cycle(&mut self, now: Cycle) {
        // `channel.tick` would be a no-op: plans never extend to
        // `next_refresh` and are never created with a refresh pending.
        debug_assert!(!self.channel.refresh_pending() && now < self.channel.next_refresh());
        self.stats.cycles += 1;
        self.stats.mem_q_occupancy_sum += self.queues.mem_len() as u64;
        // Occupancy samples before this cycle's issue, like `step_full`.
        self.stats.pim_q_occupancy_sum += (self.queues.pim_len() + self.plan_reserved) as u64;
        // Virtual PIM demand covers every bank and each op's data is in
        // flight past the window end, so the BLP mask is full throughout.
        self.stats.blp_sum += self.channel.num_banks() as u64;
        self.stats.active_cycles += 1;
        debug_assert!(self.switch.is_none());
        self.stats.cycles_pim_mode += 1;
        if (now - self.plan_first).is_multiple_of(self.plan_stride) {
            debug_assert!(self.plan_reserved > 0, "plan window outlived its ops");
            self.plan_reserved -= 1;
            self.issue_planned_op(now);
        }
    }

    /// Replays one cycle inside an armed stall window. The arming full
    /// step proved that until `stall_until` no command can issue, the
    /// policy's decision cannot change, no refresh falls due, and the
    /// drain/mode state is frozen — so only the per-cycle stats integrals
    /// advance, exactly as [`MemoryController::step_full`] would have
    /// advanced them.
    fn replay_cycle(&mut self, now: Cycle) {
        // `channel.tick` would be a no-op: stalls are never armed with a
        // refresh pending and never extend past `next_refresh`.
        debug_assert!(!self.channel.refresh_pending() && now < self.channel.next_refresh());
        self.stats.cycles += 1;
        self.stats.mem_q_occupancy_sum += self.queues.mem_len() as u64;
        self.stats.pim_q_occupancy_sum += self.queues.pim_len() as u64;
        while self.stall_busy_ptr < self.stall_busy.len()
            && self.stall_busy[self.stall_busy_ptr].0 <= now
        {
            self.stall_busy_mask &= !self.stall_busy[self.stall_busy_ptr].1;
            self.stall_busy_ptr += 1;
        }
        let busy_banks = u64::from((self.stall_qmask | self.stall_busy_mask).count_ones());
        if busy_banks > 0 {
            self.stats.blp_sum += busy_banks;
            self.stats.active_cycles += 1;
        }
        if self.switch.is_some() {
            self.stats.cycles_draining += 1;
        } else {
            match self.mode {
                Mode::Mem => self.stats.cycles_mem_mode += 1,
                Mode::Pim => self.stats.cycles_pim_mode += 1,
            }
        }
    }

    /// The full per-cycle scheduling step: drain handling, policy
    /// consultation, command issue — and, when the cycle went idle, arming
    /// the stall memo with the earliest cycle anything can change.
    fn step_full(&mut self, now: Cycle) {
        self.channel.tick(now);
        self.stats.cycles += 1;
        self.stats.mem_q_occupancy_sum += self.queues.mem_len() as u64;
        self.stats.pim_q_occupancy_sum += self.queues.pim_len() as u64;
        self.integrate_blp(now);

        // 1. Complete an in-progress switch once the drain finishes.
        if let Some(sw) = self.switch {
            if self.channel.quiescent(now) {
                self.finish_switch(sw, now);
            } else {
                self.stats.cycles_draining += 1;
                self.arm_drain_stall(now);
                return; // still draining: no commands issue
            }
        }

        // 2. Consult the policy.
        self.refresh_open_rows();
        let desired = {
            let view = PolicyView {
                now,
                mode: self.mode,
                mem: self.queues.mem(),
                pim: self.queues.pim(),
                open_rows: &self.open_rows,
            };
            self.policy.desired_mode(&view)
        };
        if desired != self.mode {
            self.begin_switch(desired, now);
            // A drain may complete instantly if nothing is in flight.
            if let Some(sw) = self.switch {
                if self.channel.quiescent(now) {
                    self.finish_switch(sw, now);
                } else {
                    self.stats.cycles_draining += 1;
                    self.arm_drain_stall(now);
                    return;
                }
            }
        }

        // 3. Issue at most one command in the current mode.
        let candidate_at = match self.mode {
            Mode::Mem => {
                self.stats.cycles_mem_mode += 1;
                self.issue_mem(now)
            }
            Mode::Pim => {
                self.stats.cycles_pim_mode += 1;
                self.issue_pim(now)
            }
        };
        match candidate_at {
            // A command issued: the view changed, nothing is provably
            // stable.
            None => self.stall_until = now,
            Some(at) => self.arm_idle_stall(now, at),
        }
    }

    /// Arms the stall memo while draining for a mode switch: no command
    /// issues and the policy is not consulted until all in-flight data
    /// lands (or a refresh falls due first).
    fn arm_drain_stall(&mut self, now: Cycle) {
        if !self.stall_enabled || self.channel.refresh_pending() {
            self.stall_until = now;
            return;
        }
        let drained = self.channel.busy_until().unwrap_or(now);
        self.arm_stall(now, drained.min(self.channel.next_refresh()));
    }

    /// Arms the stall memo after a steady-mode cycle that issued nothing:
    /// the next full step happens at the earliest of a candidate command
    /// becoming legal, a self-scheduled policy transition, or a refresh
    /// falling due. An enqueue invalidates the memo.
    fn arm_idle_stall(&mut self, now: Cycle, candidate_at: Cycle) {
        if !self.stall_enabled || self.channel.refresh_pending() {
            self.stall_until = now;
            return;
        }
        let until = candidate_at
            .min(self.policy.decision_stable_until(now))
            .min(self.channel.next_refresh());
        self.arm_stall(now, until);
    }

    fn arm_stall(&mut self, now: Cycle, until: Cycle) {
        self.stall_until = until;
        if until <= now + 1 {
            return; // no replayable cycle in the window
        }
        // Capture the BLP-mask inputs: queue demand is frozen for the
        // window, and bank busy bits only expire as time passes.
        let n = self.channel.num_banks();
        let mut qmask = self.queues.mem_bank_mask();
        if self.queues.pim_len() > 0 {
            qmask |= low_bits(n);
        }
        self.stall_qmask = qmask;
        self.stall_busy.clear();
        self.stall_busy_ptr = 0;
        self.stall_busy_mask = 0;
        for b in 0..n {
            if let Some(at) = self.channel.bank_busy_until(b) {
                if at > now {
                    self.stall_busy.push((at, 1 << b));
                    self.stall_busy_mask |= 1 << b;
                }
            }
        }
        self.stall_busy.sort_unstable_by_key(|&(at, _)| at);
    }

    /// Attempts to replay the whole DRAM-tick span `[first, first+ticks)`
    /// at once, in O(busy-bit expiries) instead of O(ticks). Succeeds —
    /// returning `true` with every stats integral advanced exactly as
    /// per-cycle stepping would have — only when the span lies strictly
    /// inside an armed stall window, no completion falls due in it (the
    /// owner must pop completions at their exact tick), and the
    /// controller cannot go idle mid-span (idle cycles are skipped by the
    /// owner, not accrued). Returns `false` with no state change
    /// otherwise.
    pub fn quiet_replay_span(&mut self, first: Cycle, ticks: u64) -> bool {
        if ticks == 0 {
            return true;
        }
        if first < self.plan_until {
            // Burst-plan ticks drain the virtual queue one op per stride;
            // they must be stepped individually.
            return false;
        }
        let last = first + (ticks - 1);
        if last >= self.stall_until {
            return false;
        }
        if self.completions.peek().is_some_and(|c| c.at <= last) {
            return false;
        }
        if self.is_idle(last) {
            // Not idle at `first` but idle by `last`: the per-cycle path
            // stops accruing stats the moment the controller goes idle.
            return false;
        }
        debug_assert!(!self.channel.refresh_pending() && last < self.channel.next_refresh());
        self.stats.cycles += ticks;
        self.stats.mem_q_occupancy_sum += self.queues.mem_len() as u64 * ticks;
        self.stats.pim_q_occupancy_sum += self.queues.pim_len() as u64 * ticks;
        if self.switch.is_some() {
            self.stats.cycles_draining += ticks;
        } else {
            match self.mode {
                Mode::Mem => self.stats.cycles_mem_mode += ticks,
                Mode::Pim => self.stats.cycles_pim_mode += ticks,
            }
        }
        // The BLP mask is piecewise-constant between busy-bit expiries.
        let mut t = first;
        while t <= last {
            while self.stall_busy_ptr < self.stall_busy.len()
                && self.stall_busy[self.stall_busy_ptr].0 <= t
            {
                self.stall_busy_mask &= !self.stall_busy[self.stall_busy_ptr].1;
                self.stall_busy_ptr += 1;
            }
            let seg_last = if self.stall_busy_ptr < self.stall_busy.len() {
                (self.stall_busy[self.stall_busy_ptr].0 - 1).min(last)
            } else {
                last
            };
            let busy_banks = u64::from((self.stall_qmask | self.stall_busy_mask).count_ones());
            let span = seg_last - t + 1;
            if busy_banks > 0 {
                self.stats.blp_sum += busy_banks * span;
                self.stats.active_cycles += span;
            }
            t = seg_last + 1;
        }
        self.mix.memo_replayed += ticks;
        true
    }

    /// Attempts to replay the whole DRAM-tick span `[first, first+ticks)`
    /// inside a live burst-plan window at once — the plan-window dual of
    /// [`MemoryController::quiet_replay_span`], and the bulk step the
    /// retire-time ack batch licenses: with every completion already
    /// emitted at retirement, the only per-tick work left in the window
    /// is stats integrals and the per-op issue observables, both of which
    /// advance here in O(ops in span) instead of O(ticks). Succeeds only
    /// in batched mode (the eager oracle must hand each completion off at
    /// its own tick), only when the span lies strictly inside the plan
    /// window, and only when no heap completion (an internal MEM
    /// writeback) falls due in it. Returns `false` with no state change
    /// otherwise.
    pub fn plan_replay_span(&mut self, first: Cycle, ticks: u64) -> bool {
        if ticks == 0 {
            return true;
        }
        if !self.ack_batching || first >= self.plan_until {
            return false;
        }
        let last = first + (ticks - 1);
        if last >= self.plan_until {
            return false;
        }
        if self.completions.peek().is_some_and(|c| c.at <= last) {
            return false;
        }
        // Same invariants as `plan_replay_cycle`: plans never meet a
        // refresh, and PIM mode holds for the whole window.
        debug_assert!(!self.channel.refresh_pending() && last < self.channel.next_refresh());
        debug_assert!(self.switch.is_none());
        self.stats.cycles += ticks;
        self.stats.mem_q_occupancy_sum += self.queues.mem_len() as u64 * ticks;
        self.stats.blp_sum += self.channel.num_banks() as u64 * ticks;
        self.stats.active_cycles += ticks;
        self.stats.cycles_pim_mode += ticks;
        // PIM occupancy is piecewise-constant between issue-stride ticks,
        // sampled before each tick's issue — segment `[t, issue]` uses the
        // pre-issue reservation count, then the op issues and the count
        // drops (exactly `plan_replay_cycle`'s sample-then-issue order).
        let mut t = first;
        loop {
            let off = (t - self.plan_first) % self.plan_stride;
            let next_issue = if off == 0 {
                t
            } else {
                t + (self.plan_stride - off)
            };
            let seg_last = next_issue.min(last);
            self.stats.pim_q_occupancy_sum +=
                (self.queues.pim_len() + self.plan_reserved) as u64 * (seg_last - t + 1);
            if next_issue > last {
                break;
            }
            debug_assert!(self.plan_reserved > 0, "plan window outlived its ops");
            self.plan_reserved -= 1;
            self.issue_planned_op(next_issue);
            if next_issue == last {
                break;
            }
            t = next_issue + 1;
        }
        self.mix.burst_retired += ticks;
        self.mix.plan_spans_replayed += 1;
        true
    }

    /// The first DRAM tick at or after `from` that needs a live
    /// [`MemoryController::step`], or `None` while the controller is idle
    /// (idle is sticky until an enqueue, and an owner only enqueues during
    /// a live step). Every tick in `[from, horizon)` is replayable in one
    /// call to [`MemoryController::plan_replay_span`] or
    /// [`MemoryController::quiet_replay_span`] with bit-identical state, so
    /// an owner with nothing else to ingest may skip them and catch up
    /// later (DESIGN.md §4o). An early answer only costs a live step; a
    /// late one would make the replay refuse.
    ///
    /// - Inside a plan window with ack batching on: the plan's end or the
    ///   next heap completion (a MEM writeback or fill must pop at its own
    ///   tick), whichever is first. The eager path hands each PIM ack off
    ///   per tick, so with batching off a plan tick is always live.
    /// - Inside a stall window: the window's end, the next heap
    ///   completion, or the first tick the controller goes idle — the
    ///   owner skips idle ticks instead of accruing them, so the replay
    ///   must stop there.
    /// - Otherwise `from` itself: a full scheduling step is due.
    pub fn service_horizon(&self, from: Cycle) -> Option<Cycle> {
        if self.is_idle(from) {
            return None;
        }
        let heap_due = self.completions.peek().map_or(Cycle::MAX, |c| c.at);
        let wake = if from < self.plan_until {
            if !self.ack_batching {
                return Some(from);
            }
            self.plan_until.min(heap_due)
        } else if from < self.stall_until {
            self.stall_until.min(heap_due).min(self.first_idle_tick())
        } else {
            from
        };
        Some(wake.max(from))
    }

    /// The first tick at which [`MemoryController::is_idle`] turns true
    /// with no further step, or `Cycle::MAX` while queued, switching,
    /// heap-held or unharvested work keeps the controller busy until a
    /// step changes it. The remaining conditions only expire with time:
    /// the channel goes quiescent at its last data beat, and a batched ack
    /// keeps the controller busy through its completion tick.
    fn first_idle_tick(&self) -> Cycle {
        if !self.queues.is_empty()
            || self.switch.is_some()
            || !self.completions.is_empty()
            || !self.ack_batch.is_empty()
        {
            return Cycle::MAX;
        }
        let acks_done = if self.ack_batching && self.ack_horizon > 0 {
            self.ack_horizon + 1
        } else {
            0
        };
        self.channel.busy_until().unwrap_or(0).max(acks_done)
    }

    fn integrate_blp(&mut self, now: Cycle) {
        // Bank-level parallelism counts banks with at least one
        // outstanding request (queued or with data in flight), averaged
        // over cycles where the DRAM is servicing anything — the standard
        // BLP definition the paper uses in Figure 4c. A pending PIM
        // request targets every bank (lock-step execution).
        let mut mask = self.queues.mem_bank_mask();
        if self.queues.pim_len() > 0 {
            mask |= low_bits(self.channel.num_banks());
        }
        mask |= self.channel.busy_bank_mask(now);
        let busy_banks = u64::from(mask.count_ones());
        if busy_banks > 0 {
            self.stats.blp_sum += busy_banks;
            self.stats.active_cycles += 1;
        }
    }

    fn refresh_open_rows(&mut self) {
        let epoch = self.channel.row_epoch();
        if epoch == self.open_rows_epoch {
            return;
        }
        self.open_rows_epoch = epoch;
        // Rows moved outside the controller's own MEM commands (those
        // resync their bank in place): a refresh or a PIM command may
        // have changed any bank, so every cached candidate is suspect.
        self.cand_dirty = u64::MAX;
        for b in 0..self.channel.num_banks() {
            self.open_rows[b] = self.channel.open_row(b);
        }
    }

    fn begin_switch(&mut self, target: Mode, now: Cycle) {
        debug_assert_ne!(target, self.mode);
        self.switch = Some(SwitchInProgress {
            target,
            started: now,
        });
    }

    fn finish_switch(&mut self, sw: SwitchInProgress, now: Cycle) {
        if self.mode == Mode::Mem && sw.target == Mode::Pim {
            self.stats.switches_mem_to_pim += 1;
            self.stats.mem_drain_latency_sum += now - sw.started;
            // Remember which rows the switch will close, to attribute
            // later re-opens to this switch.
            for b in 0..self.channel.num_banks() {
                self.rows_at_switch[b] = self.channel.open_row(b);
            }
        }
        self.stats.switches += 1;
        self.mode = sw.target;
        self.switch = None;
        self.policy.on_switch_complete(sw.target, now);
    }

    /// MEM-mode issue: take the best (class, age) candidate action per
    /// bank, then issue the globally best action that is legal.
    ///
    /// Returns `None` when a command issued, else `Some(c)` where `c` is
    /// the earliest cycle any current candidate's chosen command becomes
    /// legal (`Cycle::MAX` with no candidates) — the stall memo's wake-up
    /// event. At that cycle the rank walk re-runs over the identical
    /// candidate set and issues exactly what per-cycle stepping would
    /// have.
    ///
    /// The cost follows what changed, not the queue (DESIGN.md §4n, §4p):
    /// each bank's best candidate is cached across steps and only the
    /// dirty ones are rescanned, the policy's bank mask is asked once per
    /// pending bank, and banks are picked in (class, age) order by
    /// selection over the pending set instead of a sort. The queue index
    /// is looked up only for the command that issues.
    fn issue_mem(&mut self, now: Cycle) -> Option<Cycle> {
        if self.queues.mem_len() == 0 {
            return Some(Cycle::MAX);
        }
        // A foreign row change marks every candidate dirty here.
        self.refresh_open_rows();
        if self.policy.mem_class_reads_state() {
            self.cand_dirty = u64::MAX;
        }
        // Pending banks the policy's switch logic has not stalled
        // (FR-FCFS conflict bit); a stalled bank issues nothing.
        let mut candidates = 0u64;
        let mut bits = self.queues.mem_bank_mask();
        while bits != 0 {
            let bank = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if !self.policy.bank_masked(bank) {
                candidates |= 1 << bank;
            }
        }
        let stale = candidates & self.cand_dirty;
        if stale != 0 {
            self.rescan_candidates(stale, now);
            self.cand_dirty &= !stale;
        }
        // Try banks in (class, age) order — ties cannot occur, ages are
        // unique — and issue the first legal command.
        let mut earliest = Cycle::MAX;
        while candidates != 0 {
            let mut pick: Option<(u32, u64, usize)> = None;
            let mut bits = candidates;
            while bits != 0 {
                let bank = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let c = self.mem_cand[bank].expect("candidate banks are scanned");
                if pick.is_none_or(|p| (c.class, c.age) < (p.0, p.1)) {
                    pick = Some((c.class, c.age, bank));
                }
            }
            let (_, _, bank) = pick.expect("nonempty candidate set");
            candidates &= !(1 << bank);
            let c = self.mem_cand[bank].expect("candidate banks are scanned");
            let cmd = if c.hit {
                let closed = self.page_policy == PagePolicy::Closed;
                match (c.write, closed) {
                    (false, false) => DramCommand::Read { bank },
                    (false, true) => DramCommand::ReadAuto { bank },
                    (true, false) => DramCommand::Write { bank },
                    (true, true) => DramCommand::WriteAuto { bank },
                }
            } else if self.open_rows[bank].is_some() {
                DramCommand::Pre { bank }
            } else {
                DramCommand::Act { bank, row: c.row }
            };
            // One legality probe: the command is legal now exactly when
            // its earliest legal cycle is now.
            match self.channel.earliest_issue(cmd, now) {
                Some(at) if at == now => {}
                Some(at) => {
                    earliest = earliest.min(at);
                    continue;
                }
                None => continue,
            }
            let done = self.channel.issue(cmd, now);
            // The command touched only `bank`: resync its row in the
            // policy view (keeping the epoch current, so the cache stays
            // valid elsewhere) and rescan it next step.
            self.open_rows[bank] = self.channel.open_row(bank);
            self.open_rows_epoch = self.channel.row_epoch();
            self.cand_dirty |= 1 << bank;
            match cmd {
                DramCommand::Act { row, .. } => {
                    let idx = self.mem_index(c.age);
                    self.note_mem_act(idx, bank, row);
                }
                DramCommand::Pre { .. } => {}
                _ => {
                    let done = done.expect("column command");
                    let q = self.queues.remove_mem(self.mem_index(c.age));
                    self.note_mem_issued(&q, now);
                    self.stats
                        .mem_latency
                        .record(done.saturating_sub(q.arrived));
                    self.completions.push(Completion {
                        req: q.req,
                        at: done,
                    });
                }
            }
            return None;
        }
        Some(earliest)
    }

    /// Recomputes the cached candidate of every bank in `banks` with one
    /// walk over the MEM queue. The queue is in age order, so a bank is
    /// done at its first class-0 request (nothing later can beat it) or
    /// its last request, and the walk ends once every bank is done.
    fn rescan_candidates(&mut self, banks: u64, now: Cycle) {
        let view = PolicyView {
            now,
            mode: self.mode,
            mem: self.queues.mem(),
            pim: self.queues.pim(),
            open_rows: &self.open_rows,
        };
        // Requests not yet read, per rescanned bank.
        let mut left = [0u16; 64];
        let mut bits = banks;
        while bits != 0 {
            let bank = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            self.mem_cand[bank] = None;
            left[bank] = self.queues.mem_bank_count(bank) as u16;
        }
        // Rescanned banks whose best request could still improve.
        let mut open = banks;
        let mut examined = 0;
        for q in view.mem {
            examined += 1;
            let bank = q.decoded.bank as usize;
            if open & (1 << bank) == 0 {
                continue;
            }
            let hit = self.open_rows[bank] == Some(q.decoded.row);
            let class = self.policy.mem_class(q, hit, &view);
            let best = &mut self.mem_cand[bank];
            // Ages only grow along the walk, so (class, age) order is
            // class order here.
            if best.is_none_or(|b| class < b.class) {
                *best = Some(MemCandidate {
                    class,
                    age: q.age,
                    row: q.decoded.row,
                    write: match q.req.kind {
                        RequestKind::MemRead => false,
                        RequestKind::MemWrite => true,
                        RequestKind::Pim(_) => unreachable!("PIM in MEM queue"),
                    },
                    hit,
                });
            }
            left[bank] -= 1;
            if class == 0 || left[bank] == 0 {
                open &= !(1 << bank);
                if open == 0 {
                    break;
                }
            }
        }
        self.mix.mem_entries_examined += examined;
    }

    /// Index of the queued MEM request with `age` (the queue is in age
    /// order).
    fn mem_index(&self, age: u64) -> usize {
        self.queues
            .mem()
            .binary_search_by_key(&age, |q| q.age)
            .expect("cached candidate is queued")
    }

    fn note_mem_act(&mut self, idx: usize, bank: usize, row: u32) {
        self.queues.mem_mut()[idx].opened_row = true;
        // Attribute the conflict to a mode switch if the switch closed this
        // very row (Figure 10b).
        if self.rows_at_switch[bank] == Some(row) {
            self.stats.switch_conflicts += 1;
        }
        self.rows_at_switch[bank] = None;
    }

    fn note_mem_issued(&mut self, q: &QueuedRequest, now: Cycle) {
        self.stats.mem_served += 1;
        // Hit/miss is per serviced request: a request whose service needed
        // one or more activates is a miss, anything else hit the open row.
        if !q.opened_row {
            self.stats.mem_row_hits += 1;
        } else {
            self.stats.mem_row_misses += 1;
        }
        let bypassed = self
            .queues
            .oldest_pim_age()
            .is_some_and(|pim_age| pim_age < q.age);
        self.policy.on_mem_issued(q, bypassed, now);
    }

    /// PIM-mode issue: FCFS on the PIM queue; all banks move in lock-step.
    ///
    /// Returns `None` when a command issued, else `Some(c)` with the
    /// earliest cycle the head's next command becomes legal (`Cycle::MAX`
    /// with an empty queue or a refresh in the way).
    fn issue_pim(&mut self, now: Cycle) -> Option<Cycle> {
        let Some(head) = self.queues.pim().front().copied() else {
            return Some(Cycle::MAX);
        };
        let cmd = head
            .req
            .kind
            .pim()
            .copied()
            .expect("PIM queue holds PIM requests");
        if self.channel.all_banks_open_to(cmd.row) {
            let op = DramCommand::PimOp {
                writes_row: cmd.op == PimOpKind::RfStore,
            };
            if self.channel.can_issue(op, now) {
                if self.burst_enabled && self.try_retire_burst(cmd.row, now) {
                    return None;
                }
                let done = self.channel.issue(op, now).expect("column command");
                let q = self.queues.pop_pim().expect("head exists");
                self.pim_engine
                    .execute(&cmd)
                    .expect("PIM RF discipline violated by workload");
                self.stats.pim_served += 1;
                if q.opened_row {
                    self.stats.pim_row_misses += 1;
                } else {
                    self.stats.pim_row_hits += 1;
                }
                let bypassed = self
                    .queues
                    .oldest_mem_age()
                    .is_some_and(|mem_age| mem_age < q.age);
                self.policy.on_pim_issued(&q, bypassed, now);
                self.stats
                    .pim_latency
                    .record(done.saturating_sub(q.arrived));
                self.push_pim_completion(q.req, done);
                return None;
            }
            return Some(self.channel.earliest_issue(op, now).unwrap_or(Cycle::MAX));
        }
        // Need to (re)open cmd.row on all banks: precharge any bank open to
        // another row, then all-bank activate.
        if self.channel.any_bank_open() {
            let pre = DramCommand::PreAll;
            if self.channel.can_issue(pre, now) {
                self.channel.issue(pre, now);
                return None;
            }
            return Some(self.channel.earliest_issue(pre, now).unwrap_or(Cycle::MAX));
        }
        let act = DramCommand::PimActAll { row: cmd.row };
        if self.channel.can_issue(act, now) {
            self.channel.issue(act, now);
            self.queues.mark_pim_head_opened();
            return None;
        }
        Some(self.channel.earliest_issue(act, now).unwrap_or(Cycle::MAX))
    }

    /// Attempts to retire a homogeneous run at the head of the PIM queue
    /// as one closed-form burst plan (DESIGN.md §4h). Called only on a
    /// cycle where the policy chose PIM and the head op is legal to issue
    /// right now, so the run's first op is already sanctioned. Returns
    /// `true` when a plan of at least two ops was created (the head op
    /// included), `false` — with no state change — when the policy
    /// declines, the same-row prefix is too short, or a refresh cuts the
    /// window down to a single op.
    fn try_retire_burst(&mut self, head_row: u32, now: Cycle) -> bool {
        self.refresh_open_rows();
        let policy_run = {
            let view = PolicyView {
                now,
                mode: self.mode,
                mem: self.queues.mem(),
                pim: self.queues.pim(),
                open_rows: &self.open_rows,
            };
            self.policy.stable_pim_run(&view)
        };
        if policy_run < 2 {
            return false;
        }
        let cap = usize::try_from(policy_run).unwrap_or(usize::MAX);
        // The channel state is only closed-form while the open row never
        // moves: the burst is the same-row prefix of the queue.
        let mut n = self
            .queues
            .pim()
            .iter()
            .take(cap)
            .take_while(|q| q.req.kind.pim().is_some_and(|c| c.row == head_row))
            .count();
        // Every issue in the series must land strictly before the next
        // refresh: at `next_refresh` the per-cycle path would set
        // `refresh_pending` and stall the queue.
        let (stride, _, _) = self.channel.pim_burst_timing();
        let nr = self.channel.next_refresh();
        if nr != Cycle::MAX {
            debug_assert!(nr > now, "refresh due but head op deemed legal");
            let max_n = ((nr - 1 - now) / stride + 1) as usize;
            n = n.min(max_n);
        }
        if n < 2 {
            return false;
        }
        self.retire_burst(n, now);
        true
    }

    /// Retires the leading `n` PIM ops analytically: issues the whole
    /// series on the channel in one bulk state application and opens the
    /// plan window that [`MemoryController::plan_replay_cycle`] drains.
    /// The issue series is `s_k = now + k · max(tCCDl, 1)`; per-op
    /// completions come from the channel ([`Channel::issue_pim_burst`]).
    ///
    /// Only the *channel* state and the queue pops are eager (both hidden
    /// behind the plan window — the channel is not consulted and the
    /// queue occupancy is virtualized until it closes). Every per-op
    /// *observable* — stats counters, latency sample, policy hook, engine
    /// op, completion hand-off — is deferred to the op's analytic issue
    /// cycle via `plan_ops`, so stats snapshots taken mid-plan match
    /// per-cycle stepping bit for bit. The head op issues right here: its
    /// issue cycle is the creation cycle itself.
    fn retire_burst(&mut self, n: usize, now: Cycle) {
        let (stride, _, _) = self.channel.pim_burst_timing();
        // Fixed for the whole span: MEM issues nothing in PIM mode and
        // arrivals are strictly younger than the current oldest.
        let oldest_mem = self.queues.oldest_mem_age();
        let mut writes = std::mem::take(&mut self.burst_writes);
        writes.clear();
        writes.extend(
            self.queues
                .pim()
                .iter()
                .take(n)
                .map(|q| q.req.kind.pim().is_some_and(|c| c.op == PimOpKind::RfStore)),
        );
        let mut dones = std::mem::take(&mut self.burst_completions);
        dones.clear();
        self.channel.issue_pim_burst(now, &writes, &mut dones);
        debug_assert!(self.plan_ops.is_empty(), "previous plan not drained");
        for &done in dones.iter() {
            let q = self.queues.pop_pim().expect("planned ops are queued");
            let bypassed = oldest_mem.is_some_and(|mem_age| mem_age < q.age);
            // The whole plan's completions are known right now; in batched
            // mode they leave as one retire-time timestamped batch and the
            // plan window never ticks to produce them.
            if self.ack_batching {
                self.push_pim_completion(q.req, done);
            }
            self.plan_ops.push_back((q, done, bypassed));
        }
        if self.ack_batching {
            self.mix.ack_batches += 1;
        }
        self.burst_writes = writes;
        self.burst_completions = dones;
        self.plan_first = now;
        self.plan_stride = stride;
        self.plan_until = now + (n as Cycle - 1) * stride + 1;
        self.plan_reserved = n - 1;
        self.mix.bursts_planned += 1;
        self.mix.burst_ops += n as u64;
        self.issue_planned_op(now);
    }

    /// Performs one planned op's observable issue effects at its analytic
    /// issue cycle `now` — exactly what the per-cycle path does when it
    /// issues a `PimOp`, minus the channel state transition (already
    /// applied in bulk at plan creation; the per-op command tally is
    /// re-attributed here via [`Channel::tally_pim_op`]).
    fn issue_planned_op(&mut self, now: Cycle) {
        let (q, done, bypassed) = self
            .plan_ops
            .pop_front()
            .expect("plan window outlived its ops");
        let cmd = q
            .req
            .kind
            .pim()
            .copied()
            .expect("PIM queue holds PIM requests");
        self.pim_engine
            .execute(&cmd)
            .expect("PIM RF discipline violated by workload");
        self.channel.tally_pim_op();
        self.stats.pim_served += 1;
        if q.opened_row {
            self.stats.pim_row_misses += 1;
        } else {
            self.stats.pim_row_hits += 1;
        }
        self.policy.on_pim_issued(&q, bypassed, now);
        self.stats
            .pim_latency
            .record(done.saturating_sub(q.arrived));
        // In batched mode the completion already left with the plan's
        // retire-time batch; only the eager oracle hands it off here.
        if !self.ack_batching {
            self.completions.push(Completion {
                req: q.req,
                at: done,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::registry;
    use pimsim_types::rng::SplitMix64;
    use pimsim_types::{AppId, PhysAddr, PimCommand, RequestId};

    /// The MEM step by brute force: each unmasked bank's (class, age)
    /// argmin over the whole queue, banks sorted by that key, then a
    /// `can_issue` walk. `Ok((command, queue index))` is what must issue;
    /// `Err(cycle)` the stall cycle that must be reported instead.
    fn reference_issue_mem(
        mc: &MemoryController,
        now: Cycle,
    ) -> Result<(DramCommand, usize), Cycle> {
        let n_banks = mc.channel.num_banks();
        let open_rows: Vec<Option<u32>> = (0..n_banks).map(|b| mc.channel.open_row(b)).collect();
        let view = PolicyView {
            now,
            mode: mc.mode,
            mem: mc.queues.mem(),
            pim: mc.queues.pim(),
            open_rows: &open_rows,
        };
        let mut best: Vec<Option<(u32, u64, usize, bool)>> = vec![None; n_banks];
        for (idx, q) in view.mem.iter().enumerate() {
            let bank = q.decoded.bank as usize;
            if mc.policy.bank_masked(bank) {
                continue;
            }
            let hit = open_rows[bank] == Some(q.decoded.row);
            let class = mc.policy.mem_class(q, hit, &view);
            if best[bank].is_none_or(|b| (class, q.age) < (b.0, b.1)) {
                best[bank] = Some((class, q.age, idx, hit));
            }
        }
        let mut order: Vec<(u32, u64, usize)> = best
            .iter()
            .enumerate()
            .filter_map(|(bank, c)| c.map(|(class, age, _, _)| (class, age, bank)))
            .collect();
        order.sort_unstable();
        let mut earliest = Cycle::MAX;
        for (_, _, bank) in order {
            let (_, _, idx, hit) = best[bank].expect("ranked");
            let q = &view.mem[idx];
            let closed = mc.page_policy == PagePolicy::Closed;
            let cmd = match (hit, q.req.kind, closed) {
                (true, RequestKind::MemRead, false) => DramCommand::Read { bank },
                (true, RequestKind::MemRead, true) => DramCommand::ReadAuto { bank },
                (true, RequestKind::MemWrite, false) => DramCommand::Write { bank },
                (true, RequestKind::MemWrite, true) => DramCommand::WriteAuto { bank },
                (true, RequestKind::Pim(_), _) => unreachable!("PIM in MEM queue"),
                (false, _, _) if open_rows[bank].is_some() => DramCommand::Pre { bank },
                (false, _, _) => DramCommand::Act {
                    bank,
                    row: q.decoded.row,
                },
            };
            if mc.channel.can_issue(cmd, now) {
                return Ok((cmd, idx));
            }
            if let Some(at) = mc.channel.earliest_issue(cmd, now) {
                earliest = earliest.min(at);
            }
        }
        Err(earliest)
    }

    fn ages(mc: &MemoryController) -> Vec<u64> {
        mc.queues.mem().iter().map(|q| q.age).collect()
    }

    /// For every registered policy, a random MEM/PIM stream drives the
    /// controller through varied queue contents, open rows, bank timing,
    /// policy masks, page policies and refreshes; on random MEM-mode
    /// cycles the MEM scheduling step must issue exactly the brute-force
    /// choice (same channel state afterwards, same request removed) or
    /// report exactly its stall cycle. PIM traffic, where present, comes
    /// in bursts separated by long MEM-only phases, so cached candidates
    /// (DESIGN.md §4p) live across many steps and then meet the row
    /// changes of a refresh or a mode switch.
    #[test]
    fn mem_step_matches_brute_force_argmin() {
        let mut checked = [0u64; 2]; // [issued, stalled]
        for (pi, desc) in registry::descriptors().iter().enumerate() {
            for seed in 0..8u64 {
                let mut rng = SplitMix64::new(0x3E3 ^ ((pi as u64) << 8) ^ seed);
                let mut cfg = SystemConfig::default();
                if seed % 3 == 2 {
                    cfg.mc.page_policy = PagePolicy::Closed;
                }
                if seed % 4 >= 2 {
                    cfg.timing.t_refi = 350;
                    cfg.timing.t_rfc = 40;
                }
                let n_banks = cfg.dram.banks as u64;
                let mut mc = MemoryController::new(&cfg, desc.default_kind().build());
                // Every scheduling step is a full one, so a direct MEM
                // step never lands inside an armed stall window.
                mc.set_stall_enabled(false);
                let (mut next_id, mut block, mut block_left, mut pim_row) = (0u64, 0u64, 0, 0);
                let mut done = Vec::new();
                let mem_rate = rng.next_f64() * 0.6;
                for now in 0..3000 {
                    // PIM arrives only in the first 150 cycles of every
                    // 1000: the rest is a MEM-only phase.
                    let pim_rate = if seed % 2 == 1 && now % 1000 < 150 {
                        0.4
                    } else {
                        0.0
                    };
                    if rng.chance(mem_rate) && mc.can_accept(false) {
                        let kind = if rng.chance(0.3) {
                            RequestKind::MemWrite
                        } else {
                            RequestKind::MemRead
                        };
                        let req =
                            Request::new(RequestId(next_id), AppId::GPU, kind, PhysAddr(0), 0, 0);
                        // Few rows per bank, so hits, misses and conflicts
                        // all occur.
                        let decoded = DecodedAddr {
                            channel: 0,
                            bank: rng.next_range(n_banks) as u16,
                            row: rng.next_range(3) as u32,
                            col: rng.next_range(32) as u32,
                        };
                        mc.enqueue(req, decoded, now);
                        next_id += 1;
                    }
                    if rng.chance(pim_rate) && mc.can_accept(true) {
                        let block_start = block_left == 0;
                        if block_start {
                            block += 1;
                            block_left = 1 + rng.next_range(4);
                            pim_row = rng.next_range(8) as u32;
                        }
                        block_left -= 1;
                        let cmd = PimCommand {
                            op: PimOpKind::RfLoad,
                            channel: 0,
                            row: pim_row,
                            col: 0,
                            rf_entry: 0,
                            block_start,
                            block_id: block,
                        };
                        let req = Request::new(
                            RequestId(next_id),
                            AppId::PIM,
                            RequestKind::Pim(cmd),
                            PhysAddr(0),
                            0,
                            0,
                        );
                        let decoded = DecodedAddr {
                            row: pim_row,
                            ..DecodedAddr::default()
                        };
                        mc.enqueue(req, decoded, now);
                        next_id += 1;
                    }
                    let direct = mc.mode == Mode::Mem
                        && mc.switch.is_none()
                        && mc.queues.mem_len() > 0
                        && rng.chance(0.5);
                    if direct {
                        mc.channel.tick(now);
                        let want = reference_issue_mem(&mc, now);
                        let before = ages(&mc);
                        let mut shadow = mc.channel.clone();
                        let got = mc.issue_mem(now);
                        let ctx = format!("{} seed {seed} cycle {now}", desc.name);
                        match want {
                            Ok((cmd, idx)) => {
                                assert_eq!(got, None, "{ctx}: expected {cmd:?}");
                                let column = shadow.issue(cmd, now).is_some();
                                let mut after = before.clone();
                                if column {
                                    after.remove(idx);
                                }
                                assert_eq!(ages(&mc), after, "{ctx}: removed request");
                                checked[0] += 1;
                            }
                            Err(at) => {
                                assert_eq!(got, Some(at), "{ctx}: stall cycle");
                                assert_eq!(ages(&mc), before, "{ctx}: queue moved");
                                checked[1] += 1;
                            }
                        }
                        assert_eq!(
                            format!("{shadow:?}"),
                            format!("{:?}", mc.channel),
                            "{ctx}: channel state"
                        );
                    } else {
                        mc.step(now);
                    }
                    mc.pop_completions_into(now, &mut done);
                }
            }
        }
        assert!(
            checked.iter().all(|&n| n > 1000),
            "too few oracle steps: {checked:?}"
        );
    }
}
