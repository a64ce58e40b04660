//! The SM issue stage: asks each mounted kernel slot for its next request
//! and injects accepted requests into the request network.
//!
//! Issue is event-driven (DESIGN.md §4m): after every poll an SM sleeps
//! until the cycle its kernel slot reports through
//! [`pimsim_gpu::KernelModel::next_issue_cycle`], and a MEM SM at its
//! outstanding cap sleeps until a credit returns. Completions and kernel
//! restarts wake SMs early ([`IssueStage::wake`]).

use pimsim_component::Component;
use pimsim_dram::AddressMapper;
use pimsim_types::{AppId, Cycle, Request, RequestKind};

use super::completion::InflightTable;
use super::request_net::RequestNet;
use super::MountedKernel;

/// External state the issue stage borrows for one step: the kernel
/// models it polls, the network it injects into, the ticket table it
/// mints request IDs from, and the address mapper that routes MEM
/// requests to their home channel.
pub struct IssueCtx<'a> {
    /// Mounted kernels, indexed by the stage's SM map.
    pub kernels: &'a mut [MountedKernel],
    /// The request network accepting injections.
    pub net: &'a mut RequestNet,
    /// The inflight ticket table (peek-then-commit ID protocol).
    pub inflight: &'a mut InflightTable,
    /// Physical-address → channel routing for MEM requests.
    pub mapper: &'a AddressMapper,
}

/// The issue stage: per-SM kernel occupancy and MEM-outstanding credits.
#[derive(Debug)]
pub struct IssueStage {
    /// Global SM index -> (kernel index, slot index).
    sm_map: Vec<Option<(usize, usize)>>,
    /// Occupied SM indices, ascending — the step loop iterates this dense
    /// list instead of scanning all `num_sms` slots (standalone runs
    /// mount a handful of SMs on an 80-SM GPU). Kept sorted so the visit
    /// order is identical to the historical full scan.
    occupied: Vec<usize>,
    /// Outstanding requests per global SM (MEM kernels' throttle).
    sm_outstanding: Vec<usize>,
    /// Per-SM cap on outstanding MEM requests.
    max_outstanding_mem: usize,
    /// Per-SM wake cycle: the SM is skipped while `now < wake[sm]`.
    /// `Cycle::MAX` sleeps until [`IssueStage::wake`].
    wake: Vec<Cycle>,
    /// Kernel polls (`try_issue` calls) made so far.
    polls: u64,
}

impl IssueStage {
    /// An issue stage for `num_sms` SMs with the given MEM throttle.
    pub fn new(num_sms: usize, max_outstanding_mem: usize) -> Self {
        IssueStage {
            sm_map: vec![None; num_sms],
            occupied: Vec::new(),
            sm_outstanding: vec![0; num_sms],
            max_outstanding_mem,
            wake: vec![0; num_sms],
            polls: 0,
        }
    }

    /// Assigns global SM `sm` to `(kernel, slot)`.
    ///
    /// # Panics
    ///
    /// Panics if the SM is out of range or already occupied.
    pub fn occupy(&mut self, sm: usize, kernel: usize, slot: usize) {
        assert!(sm < self.sm_map.len(), "SM index out of range");
        assert!(self.sm_map[sm].is_none(), "SM {sm} already occupied");
        self.sm_map[sm] = Some((kernel, slot));
        let at = self.occupied.partition_point(|&s| s < sm);
        self.occupied.insert(at, sm);
    }

    /// Returns one MEM-outstanding credit to `sm` (called by the
    /// completion stage when a reply retires).
    pub fn credit_return(&mut self, sm: usize) {
        debug_assert!(self.sm_outstanding[sm] > 0);
        self.sm_outstanding[sm] -= 1;
    }

    /// Makes `sm` poll its kernel slot again on the next step: a
    /// completion retired to it, or its kernel restarted.
    pub fn wake(&mut self, sm: usize) {
        self.wake[sm] = 0;
    }

    /// Kernel polls (`try_issue` calls) made so far — the issue stage's
    /// deterministic work counter.
    pub fn polls(&self) -> u64 {
        self.polls
    }
}

impl Component for IssueStage {
    type Ctx<'a> = IssueCtx<'a>;

    fn name(&self) -> &'static str {
        "issue"
    }

    fn step(&mut self, now: Cycle, ctx: IssueCtx<'_>) {
        for &sm in &self.occupied {
            if now < self.wake[sm] {
                continue;
            }
            let Some((k, slot)) = self.sm_map[sm] else {
                unreachable!("occupied list out of sync with SM map");
            };
            let kernel = &mut ctx.kernels[k];
            let is_pim = kernel.is_pim;
            // MEM kernels are throttled by the SM's outstanding cap; PIM
            // kernels self-throttle per warp (store-buffer credits).
            if !is_pim && self.sm_outstanding[sm] >= self.max_outstanding_mem {
                self.wake[sm] = Cycle::MAX;
                continue;
            }
            // No event signals that the SM's input queue drained, so a
            // crossbar-full SM keeps polling every cycle.
            if !ctx.net.can_inject(sm, is_pim) {
                continue;
            }
            // Peek-then-commit: the ID is only consumed from the table if
            // the kernel actually issues, so idle probes leave the
            // allocator untouched (required for fast-forward bit-equality:
            // skipped cycles must not have burned IDs).
            let id = ctx.inflight.peek_id();
            self.polls += 1;
            let Some(issued) = kernel.model.try_issue(slot, now, id) else {
                self.wake[sm] = kernel
                    .model
                    .next_issue_cycle(slot, now)
                    .unwrap_or(Cycle::MAX);
                continue;
            };
            debug_assert_eq!(issued.kind.is_pim(), is_pim);
            let req = Request::new(
                id,
                if is_pim { AppId::PIM } else { AppId::GPU },
                issued.kind,
                issued.addr,
                sm as u16,
                now,
            );
            let dest = match issued.kind {
                RequestKind::Pim(cmd) => cmd.channel as usize,
                _ => ctx.mapper.decode(issued.addr).channel as usize,
            };
            ctx.net.inject(sm, req, dest);
            kernel.icnt_injections += 1;
            let committed = ctx.inflight.insert(k, slot);
            debug_assert_eq!(committed, id);
            if !is_pim {
                self.sm_outstanding[sm] += 1;
            }
            self.wake[sm] = kernel
                .model
                .next_issue_cycle(slot, now + 1)
                .unwrap_or(Cycle::MAX);
        }
    }

    /// The issue stage holds no timers of its own: whether it will do
    /// work depends entirely on its upstream (kernel pacing), which the
    /// scheduler queries directly via `KernelModel::next_activity_cycle`.
    fn next_activity_cycle(&self, _now: Cycle) -> Option<Cycle> {
        None
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use pimsim_gpu::{IssuedRequest, KernelModel};
    use pimsim_types::{PhysAddr, RequestId, SystemConfig};

    use super::*;
    use crate::pipeline::{check_kernel_completion, CompletionStage};

    /// One request in flight per slot and `per_run` per slot per run. A
    /// slot with its request outstanding or its work done reports `None`,
    /// so only a completion or a restart can wake its SM.
    struct OneAtATime {
        per_run: u32,
        remaining: Vec<u32>,
        outstanding: Vec<bool>,
        completed: u32,
        /// IDs of every issued request, in issue order.
        issued: Arc<Mutex<Vec<RequestId>>>,
    }

    impl KernelModel for OneAtATime {
        fn name(&self) -> &str {
            "one-at-a-time"
        }

        fn num_slots(&self) -> usize {
            self.remaining.len()
        }

        fn try_issue(&mut self, slot: usize, _now: Cycle, id: RequestId) -> Option<IssuedRequest> {
            if self.outstanding[slot] || self.remaining[slot] == 0 {
                return None;
            }
            self.outstanding[slot] = true;
            self.remaining[slot] -= 1;
            self.issued.lock().expect("test lock").push(id);
            Some(IssuedRequest {
                kind: RequestKind::MemRead,
                addr: PhysAddr(slot as u64 * 0x1000),
            })
        }

        fn on_complete(&mut self, slot: usize, _id: RequestId, _now: Cycle) {
            self.outstanding[slot] = false;
            self.completed += 1;
        }

        fn is_done(&self) -> bool {
            u64::from(self.completed) == self.total_requests()
        }

        fn total_requests(&self) -> u64 {
            u64::from(self.per_run) * self.remaining.len() as u64
        }

        fn reset(&mut self) {
            self.remaining.fill(self.per_run);
            self.completed = 0;
        }

        fn next_issue_cycle(&self, slot: usize, now: Cycle) -> Option<Cycle> {
            (!self.outstanding[slot] && self.remaining[slot] > 0).then_some(now)
        }
    }

    /// An issue stage with one `OneAtATime` kernel on SMs `0..slots`, and
    /// the completion stage that retires its requests.
    struct Rig {
        issue: IssueStage,
        kernels: Vec<MountedKernel>,
        net: RequestNet,
        completion: CompletionStage,
        mapper: AddressMapper,
        issued: Arc<Mutex<Vec<RequestId>>>,
    }

    impl Rig {
        fn new(slots: usize, per_run: u32, restart: bool) -> Rig {
            let cfg = SystemConfig::default();
            let issued = Arc::new(Mutex::new(Vec::new()));
            let model = OneAtATime {
                per_run,
                remaining: vec![per_run; slots],
                outstanding: vec![false; slots],
                completed: 0,
                issued: Arc::clone(&issued),
            };
            let mut issue = IssueStage::new(cfg.gpu.num_sms, cfg.gpu.max_outstanding_mem_per_sm);
            for sm in 0..slots {
                issue.occupy(sm, 0, sm);
            }
            Rig {
                issue,
                kernels: vec![MountedKernel {
                    model: Box::new(model),
                    sms: (0..slots).collect(),
                    is_pim: false,
                    restart,
                    run_started: 0,
                    first_run_cycles: None,
                    runs: 0,
                    icnt_injections: 0,
                }],
                net: RequestNet::new(&cfg),
                completion: CompletionStage::new(),
                mapper: pimsim_dram::backend::mapper_for(&cfg),
                issued,
            }
        }

        fn step(&mut self, now: Cycle) {
            self.issue.step(
                now,
                IssueCtx {
                    kernels: &mut self.kernels,
                    net: &mut self.net,
                    inflight: self.completion.inflight_mut(),
                    mapper: &self.mapper,
                },
            );
        }

        /// Retires every issued request as a delivered reply at `now`.
        fn complete_all(&mut self, now: Cycle) {
            let replies = std::mem::take(&mut *self.issued.lock().expect("test lock"))
                .into_iter()
                .map(|id| Request::new(id, AppId::GPU, RequestKind::MemRead, PhysAddr(0), 0, now))
                .collect();
            self.completion
                .finish_replies(replies, &mut self.kernels, &mut self.issue, now);
        }
    }

    #[test]
    fn completion_wakes_a_sleeping_sm() {
        let mut rig = Rig::new(1, 2, false);
        rig.step(0);
        assert_eq!((rig.issue.polls(), rig.net.occupancy()), (1, 1));
        // Outstanding request: the SM sleeps, its kernel is not polled.
        for now in 1..10 {
            rig.step(now);
        }
        assert_eq!(rig.issue.polls(), 1, "a sleeping SM was polled");
        rig.complete_all(10);
        rig.step(11);
        assert_eq!((rig.issue.polls(), rig.net.occupancy()), (2, 2));
    }

    #[test]
    fn restart_wakes_the_kernels_sms() {
        let mut rig = Rig::new(2, 1, true);
        rig.step(0);
        assert_eq!((rig.issue.polls(), rig.net.occupancy()), (2, 2));
        // The completions wake both SMs once; with no work left they
        // poll `None` and sleep until an event.
        rig.complete_all(1);
        for now in 2..10 {
            rig.step(now);
        }
        assert_eq!((rig.issue.polls(), rig.net.occupancy()), (4, 2));
        check_kernel_completion(&mut rig.kernels, &mut rig.issue, 9);
        assert_eq!(rig.kernels[0].runs, 1, "the kernel restarted");
        rig.step(10);
        assert_eq!((rig.issue.polls(), rig.net.occupancy()), (6, 4));
    }
}
