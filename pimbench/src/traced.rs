//! The kernel-model wrapper of traced runs: counts and times the
//! simulator's calls into a GPU kernel without changing what it sees.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use pimsim_gpu::{IssuedRequest, KernelModel};
use pimsim_types::{Cycle, RequestId};

use crate::tally::Tally;

/// Call counts and host time of the wrapped kernels of one job. The
/// atomics publish nothing else, so `Relaxed` suffices.
#[derive(Debug, Default)]
pub struct GpuCounters {
    try_issue_calls: AtomicU64,
    try_issue_ns: AtomicU64,
    issued: AtomicU64,
    on_complete_calls: AtomicU64,
    on_complete_ns: AtomicU64,
}

impl GpuCounters {
    pub fn add_to(&self, t: &mut Tally) {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        t.count("gpu.try_issue_calls", get(&self.try_issue_calls));
        t.add("gpu.try_issue_s", get(&self.try_issue_ns) as f64 * 1e-9);
        t.count("gpu.requests_issued", get(&self.issued));
        t.count("gpu.on_complete_calls", get(&self.on_complete_calls));
        t.add("gpu.on_complete_s", get(&self.on_complete_ns) as f64 * 1e-9);
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Forwards every [`KernelModel`] method to the wrapped model, the
/// defaulted `next_activity_cycle` and `wants_completions` included: the
/// defaults would silently turn off fast-forward and event-driven
/// delivery, and the traced run would measure a different program.
pub struct TracedKernel {
    inner: Box<dyn KernelModel>,
    counters: Arc<GpuCounters>,
}

impl TracedKernel {
    pub fn new(inner: Box<dyn KernelModel>, counters: Arc<GpuCounters>) -> Self {
        TracedKernel { inner, counters }
    }
}

impl KernelModel for TracedKernel {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn num_slots(&self) -> usize {
        self.inner.num_slots()
    }

    fn try_issue(&mut self, slot: usize, now: Cycle, id: RequestId) -> Option<IssuedRequest> {
        let t = Instant::now();
        let issued = self.inner.try_issue(slot, now, id);
        let c = &self.counters;
        c.try_issue_ns.fetch_add(elapsed_ns(t), Ordering::Relaxed);
        c.try_issue_calls.fetch_add(1, Ordering::Relaxed);
        if issued.is_some() {
            c.issued.fetch_add(1, Ordering::Relaxed);
        }
        issued
    }

    fn on_complete(&mut self, slot: usize, id: RequestId, now: Cycle) {
        let t = Instant::now();
        self.inner.on_complete(slot, id, now);
        let c = &self.counters;
        c.on_complete_ns.fetch_add(elapsed_ns(t), Ordering::Relaxed);
        c.on_complete_calls.fetch_add(1, Ordering::Relaxed);
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn total_requests(&self) -> u64 {
        self.inner.total_requests()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn next_activity_cycle(&self, now: Cycle) -> Option<Cycle> {
        self.inner.next_activity_cycle(now)
    }

    fn wants_completions(&self, now: Cycle) -> bool {
        self.inner.wants_completions(now)
    }
}
