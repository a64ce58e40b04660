//! The SM issue stage: asks each mounted kernel slot for its next request
//! and injects accepted requests into the request network.

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
}

impl IssueStage {
    /// An issue stage for `num_sms` SMs with the given MEM throttle.
    pub fn new(num_sms: usize, max_outstanding_mem: usize) -> Self {
        IssueStage {
            sm_map: vec![None; num_sms],
            occupied: Vec::new(),
            sm_outstanding: vec![0; num_sms],
            max_outstanding_mem,
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
}

impl Component for IssueStage {
    type Ctx<'a> = IssueCtx<'a>;

    fn name(&self) -> &'static str {
        "issue"
    }

    fn step(&mut self, now: Cycle, ctx: IssueCtx<'_>) {
        for &sm in &self.occupied {
            let Some((k, slot)) = self.sm_map[sm] else {
                unreachable!("occupied list out of sync with SM map");
            };
            let kernel = &mut ctx.kernels[k];
            let is_pim = kernel.is_pim;
            // MEM kernels are throttled by the SM's outstanding cap; PIM
            // kernels self-throttle per warp (store-buffer credits).
            if !is_pim && self.sm_outstanding[sm] >= self.max_outstanding_mem {
                continue;
            }
            if !ctx.net.can_inject(sm, is_pim) {
                continue;
            }
            // Peek-then-commit: the ID is only consumed from the table if
            // the kernel actually issues, so idle probes leave the
            // allocator untouched (required for fast-forward bit-equality:
            // skipped cycles must not have burned IDs).
            let id = ctx.inflight.peek_id();
            let Some(issued) = kernel.model.try_issue(slot, now, id) else {
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
        }
    }

    /// The issue stage holds no timers of its own: whether it will do
    /// work depends entirely on its upstream (kernel pacing), which the
    /// scheduler queries directly via `KernelModel::next_activity_cycle`.
    fn next_activity_cycle(&self, _now: Cycle) -> Option<Cycle> {
        None
    }
}
