//! The memory stage: every per-channel partition (L2 slice + memory
//! controller + DRAM/PIM channel), stepped either serially or sharded
//! across a persistent worker pool.
//!
//! # Sharding
//!
//! Partitions are shared-nothing per tick: each owns its L2 slice,
//! controller, and DRAM channel, and the address mapper they all read is
//! immutable. Cross-partition traffic flows only through the request and
//! reply crossbars, which run outside this stage. So one GPU cycle's
//! memory work — the L2 front half plus every pending DRAM tick —
//! can run per-partition in any order, on any thread, and produce
//! bit-identical state. [`MemoryStage::step_cycle_all`] exploits that:
//! with `threads > 1` it boxes each busy partition into a pool job
//! (ownership moves to the worker and returns through a shared bin);
//! with `threads == 1` it runs the exact serial loops.
//!
//! # Idle memoization
//!
//! The fast-forward probe ([`MemoryStage::next_activity_cycle`]) records
//! which partitions reported no activity in `known_idle`. A partition an
//! idle verdict was recorded for is skipped by both the probe and the
//! stepping loops until something can make it busy again — which only
//! the crossbar ejection path can, via [`MemoryStage::partition_mut`],
//! which clears the memo. Draining (acks, replies) only removes work and
//! never resurrects an idle partition, so those paths check emptiness
//! through shared references first and leave memos intact.

use std::sync::{Arc, Mutex};

use pimsim_core::PolicyKind;
use pimsim_dram::AddressMapper;
use pimsim_pool::{Job, WorkerPool};
use pimsim_types::{Cycle, Request, SystemConfig};

use crate::partition::Partition;

/// Stepped partitions return from worker jobs through this shared bin,
/// tagged with their channel so the slots can be refilled.
type ReturnBin = Arc<Mutex<Vec<(usize, Box<Partition>)>>>;

/// Which executor parallel dispatch uses.
#[derive(Debug)]
enum StagePool {
    /// `threads == 1`: no dispatch, pure serial loops.
    Serial,
    /// The process-wide pool has enough lanes; share it.
    Global,
    /// The requested width exceeds the global pool (e.g. a determinism
    /// test forcing 8-way on a small machine); own a dedicated pool.
    Owned(WorkerPool),
}

/// All memory partitions, stepped together in both clock domains: the L2
/// front halves on the GPU clock, the controllers and DRAM channels on
/// the DRAM clock.
///
/// Partition slots are `Option<Box<..>>` so parallel dispatch can move a
/// partition into a worker job and take it back afterwards; outside
/// [`MemoryStage::step_cycle_all`] every slot is `Some`.
#[derive(Debug)]
pub struct MemoryStage {
    partitions: Vec<Option<Box<Partition>>>,
    /// Partitions the fast-forward probe proved idle; skipped by probing
    /// and stepping until [`MemoryStage::partition_mut`] clears the memo.
    known_idle: Vec<bool>,
    /// Whether any partition's reply wire was non-empty at the end of the
    /// last [`MemoryStage::step_cycle_all`]. Replies are only *created*
    /// inside that call (the L2 front half releases fill waiters and
    /// drains hit delays there), so the flag is an exact emptiness
    /// summary from then until the next mutation — which the reply
    /// network's event-driven skip exploits: while `false` and the reply
    /// crossbar is empty, the whole reply/completion tail of the cycle
    /// provably has nothing to move. External drains (the reply network
    /// popping wires) may leave the flag conservatively `true` for a
    /// cycle; that costs one redundant scan, never a missed reply.
    replies_pending: bool,
    /// The next DRAM tick no stage visit (live or recorded) covers yet.
    /// Normally the clock coupler's next tick; while the production side
    /// is deferred (DESIGN.md §4k) individual *partitions* lag behind it
    /// and catch up — exactly, via
    /// [`crate::partition::Partition::replay_spans`] — before anything
    /// can observe their state.
    dram_upto: Cycle,
    /// The address decoding shared by every partition; stored so the
    /// eject path can replay a partition's deferred spans without the
    /// caller threading the mapper through.
    mapper: Arc<AddressMapper>,
    /// Stage visits skipped by deferral, in order: `(gpu_cycle,
    /// first_dram_tick, dram_ticks)` exactly as [`MemoryStage::step_cycle_all`]
    /// would have received them. Drained per partition on demand.
    deferred: Vec<(Cycle, Cycle, u64)>,
    /// Per-partition index of the first entry in `deferred` not yet
    /// replayed on that partition. `synced[c] == deferred.len()` means
    /// partition `c` is current.
    synced: Vec<usize>,
    /// Per-partition cached deferral bound, valid while `!stale[c]`:
    /// every stage visit whose window ends at or before `horizon[c]` is
    /// provably reproducible later on partition `c`. `0` means the
    /// partition needs live service. Invalidated per partition by
    /// anything that can change its horizon: stepping, replay, or a
    /// [`MemoryStage::partition_mut`] access (the crossbar eject path).
    horizon: Vec<Cycle>,
    /// Which entries of `horizon` need recomputation.
    stale: Vec<bool>,
    /// Per-partition replay batches: one per catch-up that replayed at
    /// least one deferred stage visit on a partition not known idle.
    replay_batches: u64,
    /// Deferred stage visits replayed, summed over all batches. Divided
    /// by `replay_batches` this is the mean deferral window — the §4k
    /// headline metric.
    replayed_visits: u64,
    threads: usize,
    pool: StagePool,
    bin: ReturnBin,
}

impl MemoryStage {
    /// Builds one partition per DRAM channel, each with its own policy
    /// instance. The shard count defaults to `PIMSIM_THREADS` when set,
    /// else 1 (serial — the historical default).
    pub fn new(cfg: &SystemConfig, policy: PolicyKind, mapper: Arc<AddressMapper>) -> Self {
        let channels = cfg.dram.channels;
        let mut stage = MemoryStage {
            partitions: (0..channels)
                .map(|c| Some(Box::new(Partition::new(c, cfg, policy.build()))))
                .collect(),
            known_idle: vec![false; channels],
            replies_pending: false,
            dram_upto: 0,
            mapper,
            deferred: Vec::new(),
            synced: vec![0; channels],
            horizon: vec![0; channels],
            stale: vec![true; channels],
            replay_batches: 0,
            replayed_visits: 0,
            threads: 1,
            pool: StagePool::Serial,
            bin: Arc::new(Mutex::new(Vec::with_capacity(channels))),
        };
        stage.set_threads(pimsim_pool::env_threads().unwrap_or(1));
        stage
    }

    /// Sets the shard width for stepping: 1 = serial (the exact
    /// single-thread code path), `n > 1` = dispatch busy partitions onto
    /// a worker pool. Results are bit-identical at every width.
    pub fn set_threads(&mut self, threads: usize) {
        let threads = threads.max(1).min(self.partitions.len().max(1));
        self.threads = threads;
        self.pool = if threads <= 1 {
            StagePool::Serial
        } else if pimsim_pool::global().threads() >= threads {
            StagePool::Global
        } else {
            StagePool::Owned(WorkerPool::new(threads))
        };
    }

    /// The configured shard width.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The partition serving channel `c` (shared; leaves the idle memo
    /// intact).
    pub fn get(&self, c: usize) -> &Partition {
        self.partitions[c].as_deref().expect("partition in slot")
    }

    /// Iterates all partitions (for stats).
    pub fn iter(&self) -> impl Iterator<Item = &Partition> {
        self.partitions
            .iter()
            .map(|p| p.as_deref().expect("partition in slot"))
    }

    /// Mutable access to the partition serving channel `c`. First replays
    /// any stage visits deferral skipped on this partition — so callers
    /// (the crossbar eject path, test drivers) always observe the exact
    /// live state, and an arrival can never land *inside* a deferred
    /// span: the partition is caught up before the new work is handed
    /// over. Also clears the partition's idle memo and marks its cached
    /// bulk horizon stale, since the caller may mutate state the horizon
    /// was derived from.
    pub fn partition_mut(&mut self, c: usize) -> &mut Partition {
        self.catch_up_partition(c);
        self.known_idle[c] = false;
        self.stale[c] = true;
        self.partitions[c]
            .as_deref_mut()
            .expect("partition in slot")
    }

    /// Replays partition `c`'s share of the deferred stage visits, if
    /// any. Cheap no-op when the partition is current.
    fn catch_up_partition(&mut self, c: usize) {
        let n = self.deferred.len();
        let start = self.synced[c];
        if start == n {
            return;
        }
        self.synced[c] = n;
        self.stale[c] = true;
        if self.known_idle[c] {
            // A known-idle partition holds no work anywhere; every
            // deferred visit is a provable no-op on it.
            return;
        }
        self.replay_batches += 1;
        self.replayed_visits += (n - start) as u64;
        let p = self.partitions[c]
            .as_deref_mut()
            .expect("partition in slot");
        p.replay_spans(&self.deferred[start..n], &self.mapper);
    }

    /// Cumulative replay counters: `(replay_batches, replayed_visits)`.
    pub fn replay_counters(&self) -> (u64, u64) {
        (self.replay_batches, self.replayed_visits)
    }

    /// Discards fully-replayed history once every partition is current,
    /// so the deferred list never grows unboundedly.
    fn compact_deferred(&mut self) {
        let n = self.deferred.len();
        if n > 0 && self.synced.iter().all(|&s| s == n) {
            self.deferred.clear();
            self.synced.fill(0);
        }
    }

    /// Number of channels (= partitions).
    pub fn channel_count(&self) -> usize {
        self.partitions.len()
    }

    /// Whether any partition had replies queued at the end of the last
    /// [`MemoryStage::step_cycle_all`] (conservatively `true` until the
    /// next step after an external drain). O(1) — the reply network's
    /// skip gate.
    pub fn replies_pending(&self) -> bool {
        self.replies_pending
    }

    /// Drains every partition's due PIM acks (completion cycle `<=
    /// limit`) into `out`. Acks deposited at retire time with a future
    /// timestamp stay invisible until DRAM time reaches them, so
    /// delivery order and cycle match the eager per-tick path exactly.
    ///
    /// Ack production is *pull-driven*: a partition lagging behind the
    /// stage may not yet have produced acks that are already due, so a
    /// lagging partition replays its share of the deferred visits here,
    /// immediately before the read. The replay
    /// runs the exact live schedule, so the wires hold precisely the
    /// acks the eager path would already hold and the drained set is
    /// identical. This makes delivery demand — not per-issue completion
    /// latency — the cadence at which busy partitions sync.
    ///
    /// The pull is skipped when no *unproduced* ack can be due yet:
    /// every ack an unreplayed visit can produce comes from an issue at
    /// or after the partition's first unreplayed DRAM tick `f`, and
    /// plan-covered issues deposited their acks at retire time (already
    /// harvested into the wire at the last sync), so the earliest
    /// unproduced due is bounded below by
    /// [`pimsim_core::MemoryController::arrival_bound`]`(f)`. When that
    /// bound clears `limit`, everything due is already in the wire and
    /// the lag keeps accumulating — this is what keeps consecutive
    /// delivery cycles (a throttled kernel draining its credit cap) from
    /// shattering windows into single-visit replays.
    pub fn drain_acks_into(&mut self, limit: Cycle, out: &mut Vec<Request>) {
        let n = self.deferred.len();
        for c in 0..self.partitions.len() {
            let start = self.synced[c];
            if start == n {
                continue;
            }
            let f = self.deferred[start].1;
            let p = self.partitions[c].as_deref().expect("partition in slot");
            if p.mc.arrival_bound(f) > limit {
                continue;
            }
            self.catch_up_partition(c);
        }
        self.compact_deferred();
        for slot in &mut self.partitions {
            let p = slot.as_deref_mut().expect("partition in slot");
            if p.acks().has_due(limit) {
                p.acks_mut().drain_due_into(limit, out);
            }
        }
    }

    /// One full GPU cycle of memory work: the L2 front halves at GPU
    /// cycle `now`, then `ticks` DRAM ticks starting at `first_dram` —
    /// serial at width 1, sharded across the pool otherwise.
    ///
    /// Both paths step partition-major: each partition runs its whole
    /// cycle (L2 step plus its DRAM ticks) before the next partition
    /// starts. Interleaving across partitions cannot matter — they are
    /// shared-nothing within the stage — so per-partition state, and
    /// therefore every downstream observable, is bit-identical to the
    /// historical tick-major loop and to any parallel schedule.
    pub fn step_cycle_all(
        &mut self,
        now: Cycle,
        first_dram: Cycle,
        ticks: u64,
        mapper: &Arc<AddressMapper>,
    ) {
        // Stage visits skipped by deferral are replayed first, inside the
        // same per-partition visit (and on the same worker, in the
        // parallel path): replays run the exact live code paths, so
        // replay-then-step is exactly the eager order.
        debug_assert!(self.dram_upto <= first_dram, "DRAM service point ran ahead");
        self.dram_upto = first_dram + ticks;
        let n = self.deferred.len();
        if self.threads <= 1 {
            let mut replies = false;
            for (c, slot) in self.partitions.iter_mut().enumerate() {
                if self.known_idle[c] {
                    self.synced[c] = n;
                    continue;
                }
                let start = self.synced[c];
                self.synced[c] = n;
                self.stale[c] = true;
                if start < n {
                    self.replay_batches += 1;
                    self.replayed_visits += (n - start) as u64;
                }
                let p = slot.as_deref_mut().expect("partition in slot");
                p.replay_spans(&self.deferred[start..n], mapper);
                p.step_l2(now);
                p.step_dram_span(first_dram, ticks, mapper);
                replies |= !p.reply().is_empty();
            }
            self.deferred.clear();
            self.synced.fill(0);
            self.replies_pending = replies;
            return;
        }
        let spans: Arc<[(Cycle, Cycle, u64)]> = Arc::from(std::mem::take(&mut self.deferred));
        let mut jobs: Vec<Job> = Vec::with_capacity(self.partitions.len());
        for (c, slot) in self.partitions.iter_mut().enumerate() {
            let start = std::mem::replace(&mut self.synced[c], 0);
            if self.known_idle[c] {
                continue;
            }
            self.stale[c] = true;
            if start < spans.len() {
                self.replay_batches += 1;
                self.replayed_visits += (spans.len() - start) as u64;
            }
            let mut p = slot.take().expect("partition in slot");
            let bin = Arc::clone(&self.bin);
            let mapper = Arc::clone(mapper);
            let spans = Arc::clone(&spans);
            jobs.push(Box::new(move || {
                p.replay_spans(&spans[start..], &mapper);
                p.step_l2(now);
                p.step_dram_span(first_dram, ticks, &mapper);
                bin.lock().expect("partition bin poisoned").push((c, p));
            }));
        }
        match &self.pool {
            StagePool::Serial => unreachable!("threads > 1"),
            StagePool::Global => pimsim_pool::global().run_batch(jobs),
            StagePool::Owned(pool) => pool.run_batch(jobs),
        }
        let mut bin = self.bin.lock().expect("partition bin poisoned");
        for (c, p) in bin.drain(..) {
            debug_assert!(self.partitions[c].is_none(), "slot refilled twice");
            self.partitions[c] = Some(p);
        }
        drop(bin);
        // Skipped (known-idle) partitions have empty reply wires by the
        // memo's definition, so scanning the stepped ones suffices.
        self.replies_pending = self.partitions.iter().enumerate().any(|(c, slot)| {
            !self.known_idle[c]
                && !slot
                    .as_deref()
                    .expect("partition in slot")
                    .reply()
                    .is_empty()
        });
    }

    /// Replays the DRAM-tick span `[first, first + ticks)` on every
    /// partition not known idle, advancing each controller's stats
    /// integrals exactly as per-tick stepping would have.
    ///
    /// The fast-forward path calls this after jumping the clocks up to
    /// (but never past) the horizon [`MemoryStage::next_activity_cycle`]
    /// reported: every busy partition answered a horizon at or beyond the
    /// stage minimum, which it only does with all of its buffers empty
    /// and its controller inside a stall window covering the span — so
    /// the per-partition replay is the O(1)
    /// [`MemoryController::quiet_replay_span`] path
    /// ([`crate::partition::Partition::step_dram_span`] falls back to
    /// exact per-tick stepping if it ever is not).
    pub fn quiet_replay_all(&mut self, first: Cycle, ticks: u64, mapper: &Arc<AddressMapper>) {
        if ticks == 0 {
            return;
        }
        debug_assert!(
            self.dram_upto == first && self.deferred.is_empty(),
            "bulk replay must start at the service point (catch up first)"
        );
        self.dram_upto = first + ticks;
        for (c, slot) in self.partitions.iter_mut().enumerate() {
            if self.known_idle[c] {
                continue;
            }
            self.stale[c] = true;
            let p = slot.as_deref_mut().expect("partition in slot");
            p.step_dram_span(first, ticks, mapper);
        }
    }

    /// Records one stage visit — GPU cycle `now` with DRAM ticks
    /// `[first_dram, first_dram + ticks)` — as deferred instead of
    /// stepping it. Only legal right after
    /// [`MemoryStage::can_defer_through`]`(first_dram + ticks)` returned
    /// `true`: every partition's cached horizon covers the window, so
    /// the visit is replayable with bit-identical state and nothing
    /// observable (a reply, an ack falling due, a fill) can surface
    /// inside it. O(1) — this is the production side's event-driven
    /// payoff (DESIGN.md §4k).
    pub fn defer_cycle(&mut self, now: Cycle, first_dram: Cycle, ticks: u64) {
        debug_assert!(
            self.dram_upto == first_dram,
            "deferred visit must extend the recorded history"
        );
        self.deferred.push((now, first_dram, ticks));
        self.dram_upto = first_dram + ticks;
    }

    /// Whether the stage visit ending at DRAM tick `end` — its GPU-cycle
    /// L2 front halves included — can be deferred and replayed later with
    /// bit-identical state and no observable surfacing inside the window
    /// (DESIGN.md §4k): every partition not known idle must report a bulk
    /// horizon at or beyond `end`. Horizons are cached per partition
    /// until something can change them (stepping, replay, or a crossbar
    /// eject through [`MemoryStage::partition_mut`]); a deferral itself
    /// mutates nothing, so back-to-back quiet cycles re-check against
    /// cached values only.
    ///
    /// A refusal from a *lagging* partition gets a second chance: its
    /// horizon is frozen at its last sync point — typically a burst plan
    /// long since succeeded by the next one — so it says nothing about
    /// the live schedule. Replaying just that partition's visits (through
    /// the exact live code paths) forms the successor plan and usually
    /// re-opens the window, keeping one stale horizon from ending
    /// deferral for all partitions. `false` means some *current*
    /// partition genuinely needs its visit stepped live.
    pub fn can_defer_through(&mut self, end: Cycle) -> bool {
        let n = self.deferred.len();
        for c in 0..self.partitions.len() {
            if self.known_idle[c] {
                continue;
            }
            if self.stale[c] {
                // The horizon is taken from this partition's own synced
                // position: its state has not advanced past that point.
                let from = match self.deferred.get(self.synced[c]) {
                    Some(&(_, first, _)) => first,
                    None => self.dram_upto,
                };
                let p = self.partitions[c].as_deref().expect("partition in slot");
                self.horizon[c] = p.bulk_horizon(from).unwrap_or(0);
                self.stale[c] = false;
            }
            // `0` refuses outright: a partition needing live service
            // needs its GPU cycle even when the span carries zero DRAM
            // ticks.
            let refuses = |h: Cycle| h == 0 || end > h;
            if refuses(self.horizon[c]) && self.synced[c] < n {
                self.catch_up_partition(c);
                let p = self.partitions[c].as_deref().expect("partition in slot");
                self.horizon[c] = p.bulk_horizon(self.dram_upto).unwrap_or(0);
                self.stale[c] = false;
            }
            if refuses(self.horizon[c]) {
                return false;
            }
        }
        true
    }

    /// Replays every deferred stage visit on every partition, leaving all
    /// of them current through `target` (which must equal the recorded
    /// history's end — the stage never lags the clock, only partitions
    /// lag the stage). Must run before anything probes or mutates
    /// per-partition state out of band — the fast-forward probe,
    /// end-of-run stats harvesting — so no observer ever sees a partition
    /// whose deferred visits have not been accounted.
    pub fn catch_up_to(&mut self, target: Cycle) {
        debug_assert!(
            self.deferred.is_empty() || target == self.dram_upto,
            "catch-up target must be the recorded history's end"
        );
        for c in 0..self.partitions.len() {
            self.catch_up_partition(c);
        }
        self.compact_deferred();
    }

    /// The earliest DRAM cycle at or after `dram_now` at which any
    /// partition has work, or `None` while all are idle.
    ///
    /// Memoizing: a partition that reports no activity is marked in
    /// `known_idle` and not re-probed (nor re-stepped) until the
    /// crossbar-ejection path touches it through
    /// [`MemoryStage::partition_mut`].
    pub fn next_activity_cycle(&mut self, dram_now: Cycle) -> Option<Cycle> {
        let mut min: Option<Cycle> = None;
        for (c, slot) in self.partitions.iter().enumerate() {
            if self.known_idle[c] {
                continue;
            }
            let p = slot.as_deref().expect("partition in slot");
            match p.next_activity_cycle(dram_now) {
                None => self.known_idle[c] = true,
                Some(at) => min = Some(min.map_or(at, |m: Cycle| m.min(at))),
            }
        }
        min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(threads: usize) -> (MemoryStage, Arc<AddressMapper>) {
        let cfg = SystemConfig::default();
        let mapper = Arc::new(AddressMapper::new(
            &cfg.addr_map,
            &cfg.dram,
            cfg.dram_word_bytes(),
        ));
        let mut m = MemoryStage::new(&cfg, PolicyKind::FrFcfs, Arc::clone(&mapper));
        m.set_threads(threads);
        (m, mapper)
    }

    fn mem_read(id: u64, addr: u64) -> Request {
        use pimsim_types::{AppId, PhysAddr, RequestId, RequestKind};
        Request::new(
            RequestId(id),
            AppId::GPU,
            RequestKind::MemRead,
            PhysAddr(addr),
            3,
            0,
        )
    }

    /// Pushes one read into every channel, steps to quiescence, and
    /// returns per-channel (fills_sent, reply lengths) plus merged stats.
    fn drive(threads: usize) -> Vec<(u64, usize, u64)> {
        let (mut m, mapper) = stage(threads);
        let channels = m.channel_count();
        let spacing = 0x100u64; // one distinct line per channel via mapper
        let mut pushed = 0usize;
        let mut addr = 0u64;
        while pushed < channels * 2 {
            let c = mapper.decode(pimsim_types::PhysAddr(addr)).channel as usize;
            if m.get(c).ingress().lane(0).can_accept() {
                assert!(m.partition_mut(c).try_accept(0, mem_read(addr, addr)));
                pushed += 1;
            }
            addr += spacing;
        }
        for now in 0..400u64 {
            // 1:1 clock coupling is fine for a unit test.
            m.step_cycle_all(now, now, 1, &mapper);
            // Drain replies so REPLY_OUT_CAP never back-pressures.
            for c in 0..channels {
                if !m.get(c).reply().is_empty() {
                    while m.partition_mut(c).reply_mut().recv().is_some() {}
                }
            }
        }
        (0..channels)
            .map(|c| {
                let p = m.get(c);
                (
                    p.stats().fills_sent,
                    p.reply().len(),
                    p.mc.stats().mem_served,
                )
            })
            .collect()
    }

    #[test]
    fn parallel_stepping_matches_serial_bit_for_bit() {
        let serial = drive(1);
        for threads in [2, 8] {
            assert_eq!(drive(threads), serial, "threads={threads}");
        }
    }

    #[test]
    fn idle_memo_skips_and_partition_mut_revives() {
        let (mut m, mapper) = stage(1);
        assert_eq!(m.next_activity_cycle(0), None, "everything starts idle");
        assert!(m.known_idle.iter().all(|&b| b), "all memos set");
        // Touching a partition clears only its memo...
        let c = mapper.decode(pimsim_types::PhysAddr(0)).channel as usize;
        assert!(m.partition_mut(c).try_accept(0, mem_read(1, 0)));
        assert!(!m.known_idle[c]);
        assert_eq!(m.known_idle.iter().filter(|&&b| !b).count(), 1);
        // ...and the probe sees its activity again.
        assert_eq!(m.next_activity_cycle(7), Some(7));
    }

    #[test]
    fn replies_pending_tracks_wire_contents() {
        for threads in [1, 4] {
            let (mut m, mapper) = stage(threads);
            assert!(!m.replies_pending(), "fresh stage has no replies");
            let c = mapper.decode(pimsim_types::PhysAddr(0)).channel as usize;
            assert!(m.partition_mut(c).try_accept(0, mem_read(1, 0)));
            let mut saw_pending = false;
            for now in 0..400u64 {
                m.step_cycle_all(now, now, 1, &mapper);
                assert_eq!(
                    m.replies_pending(),
                    (0..m.channel_count()).any(|c| !m.get(c).reply().is_empty()),
                    "flag must match wires right after a step (threads={threads}, now={now})"
                );
                saw_pending |= m.replies_pending();
            }
            assert!(saw_pending, "the read must have produced a reply");
        }
    }

    #[test]
    fn set_threads_clamps_and_reports() {
        let (mut m, _) = stage(1);
        assert_eq!(m.threads(), 1);
        m.set_threads(0);
        assert_eq!(m.threads(), 1);
        m.set_threads(4);
        assert_eq!(m.threads(), 4);
        let over = m.channel_count() + 10;
        m.set_threads(over);
        assert_eq!(m.threads(), m.channel_count());
    }
}
