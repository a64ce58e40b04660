//! The kernel-model abstraction shared by MEM and PIM kernels.

use pimsim_types::{Cycle, PhysAddr, RequestId, RequestKind};

/// A request produced by a kernel model, before the simulator wraps it in
/// a [`pimsim_types::Request`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssuedRequest {
    /// What to do.
    pub kind: RequestKind,
    /// Physical address (for PIM requests, a synthesized address; the real
    /// target is inside the embedded command).
    pub addr: PhysAddr,
}

/// A kernel's memory-request stream, split across the SMs it occupies.
///
/// The simulator drives each SM slot independently:
///
/// 1. every GPU cycle, for each slot with injection capacity that is not
///    asleep until a later [`KernelModel::next_issue_cycle`], it calls
///    [`KernelModel::try_issue`] with the [`RequestId`] the request will
///    carry;
/// 2. when the memory system acknowledges a request, it calls
///    [`KernelModel::on_complete`] with that ID;
/// 3. the kernel is finished when [`KernelModel::is_done`] — all work
///    issued *and* acknowledged.
///
/// Flow control: regular kernels are throttled by the simulator's per-SM
/// outstanding cap; PIM kernels self-throttle per warp (store-buffer
/// capacity) and by Orderlight ordering.
pub trait KernelModel: Send {
    /// Kernel name for reporting (e.g. `"bfs"`, `"Stream Add"`).
    fn name(&self) -> &str;

    /// Number of SM slots this kernel occupies.
    fn num_slots(&self) -> usize;

    /// Produce the next request from `slot`, or `None` if the slot is
    /// pacing (compute phase), throttled, or out of work.
    fn try_issue(&mut self, slot: usize, now: Cycle, id: RequestId) -> Option<IssuedRequest>;

    /// A request issued from `slot` was acknowledged by the memory system.
    fn on_complete(&mut self, slot: usize, id: RequestId, now: Cycle);

    /// All work issued and acknowledged.
    fn is_done(&self) -> bool;

    /// Total requests this kernel will issue per run.
    fn total_requests(&self) -> u64;

    /// Restart the kernel for a fresh run (kernels run in a loop in the
    /// paper's methodology; the re-run re-seeds deterministically).
    fn reset(&mut self);

    /// The earliest GPU cycle at or after `now` at which any slot of this
    /// kernel *could* produce a request, or `None` if the kernel will
    /// never issue again this run (all work already issued).
    ///
    /// This is the activity hook the event-driven simulator uses to jump
    /// over provably idle spans: when every network queue and every
    /// partition is empty, the only possible source of future work is
    /// kernel issue pacing, so the simulator may advance its clocks
    /// directly to the minimum of these hooks across kernels.
    ///
    /// Contract: the returned cycle must be a *lower bound* — `try_issue`
    /// must return `None` for every slot at every cycle in
    /// `now..returned`. Returning `Some(now)` is always sound (it simply
    /// disables skipping); returning a cycle later than the true next
    /// issue is **unsound** and will desynchronize the fast-forward and
    /// lock-step schedules. The default is the conservative `Some(now)`.
    fn next_activity_cycle(&self, now: Cycle) -> Option<Cycle> {
        Some(now)
    }

    /// The earliest GPU cycle at or after `now` at which `slot` *could*
    /// produce a request, or `None` if it cannot until a completion to
    /// that slot or a [`KernelModel::reset`].
    ///
    /// This is the per-slot hook the event-driven issue stage sleeps on:
    /// it stops polling `slot` until the returned cycle, and wakes it
    /// early when a completion retires to the slot or the kernel
    /// restarts.
    ///
    /// Contract: a *lower bound*. Unless a completion to `slot` or a
    /// reset comes first, `try_issue(slot, t, _)` must return `None`,
    /// with no side effect, for every `t` in `now..returned` (for every
    /// `t >= now` when `None` is returned). `Some(now)` is always sound
    /// and is the default: an unknown model is polled every cycle.
    fn next_issue_cycle(&self, slot: usize, now: Cycle) -> Option<Cycle> {
        let _ = slot;
        Some(now)
    }

    /// Whether withholding completion delivery past the end of this cycle
    /// could change the kernel's observable behavior.
    ///
    /// The event-driven completion path accumulates acknowledgements in
    /// the partitions' ack wires and only retires them when some consumer
    /// can tell the difference. A kernel must answer `true` while either
    /// holds:
    ///
    /// * **throttle wake** — some slot's issue decision depends on its
    ///   outstanding count (a warp at its credit cap would issue once an
    ///   ack lands), or
    /// * **completion tail** — all work has been issued, so `is_done`
    ///   (polled every cycle) now advances only through completions.
    ///
    /// While `false`, [`KernelModel::on_complete`] must be insensitive to
    /// batching and to its `now` argument: applying the pending acks later
    /// (but before the next issue decision that could observe them) must
    /// produce the same state as applying them each cycle. The default
    /// `true` keeps unknown models on the per-cycle delivery schedule,
    /// which is always sound.
    fn wants_completions(&self, now: Cycle) -> bool {
        let _ = now;
        true
    }
}
