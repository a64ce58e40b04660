//! The memory stage: every per-channel partition (L2 slice + memory
//! controller + DRAM/PIM channel), each visited only on the cycles it has
//! work due.
//!
//! # Event-driven visits (DESIGN.md §4o)
//!
//! After every live visit a partition reports two wakes: the GPU cycle
//! its L2 front half next needs a step ([`Partition::l2_wake`]) and the
//! DRAM tick its controller next needs one ([`Partition::dram_wake`]).
//! [`MemoryStage::step_cycle_all`] visits a partition only when one of
//! them falls inside the current cycle. The ticks a sleeping partition
//! skips are caught up in O(1) — one stall-memo or plan-window replay,
//! or nothing for an idle controller — the next time it is visited,
//! touched through [`MemoryStage::partition_mut`], or synced by
//! [`MemoryStage::sync`]. A wake may be early (one wasted visit) but
//! never late, so every observable the eager every-cycle loop produces
//! appears at the same cycle here.

use pimsim_core::PolicyKind;
use pimsim_dram::AddressMapper;
use pimsim_types::{Cycle, Request, SystemConfig};

use crate::partition::Partition;

/// When a partition next needs a live visit, and how far its DRAM side
/// has been serviced.
#[derive(Debug, Clone, Copy)]
struct Wake {
    /// GPU cycle of the next due L2 step (`Cycle::MAX`: none).
    gpu: Cycle,
    /// DRAM tick of the next due controller step (`Cycle::MAX`: idle).
    dram: Cycle,
    /// The first DRAM tick the partition has not serviced yet.
    synced: Cycle,
}

impl Wake {
    /// Replays the ticks `[synced, to)` the partition slept through and
    /// returns how many a busy controller covered (0 when idle or
    /// current). The wake rule puts its next due tick at or after `to`,
    /// so the span is one O(1) catch-up ([`Partition::catch_up_span`]).
    fn catch_up(&mut self, p: &mut Partition, to: Cycle) -> u64 {
        if self.synced >= to {
            return 0;
        }
        debug_assert!(self.dram >= to, "partition slept through its DRAM wake");
        let ticks = if self.dram == Cycle::MAX {
            0
        } else {
            p.catch_up_span(self.synced, to - self.synced);
            to - self.synced
        };
        self.synced = to;
        ticks
    }
}

/// Catch-ups of a busy controller over skipped ticks, and the DRAM ticks
/// they covered.
#[derive(Debug, Default, Clone, Copy)]
struct CatchUps {
    count: u64,
    ticks: u64,
}

impl CatchUps {
    fn add(&mut self, ticks: u64) {
        if ticks > 0 {
            self.count += 1;
            self.ticks += ticks;
        }
    }
}

/// All memory partitions, stepped together in both clock domains: the L2
/// front halves on the GPU clock, the controllers and DRAM channels on
/// the DRAM clock.
#[derive(Debug)]
pub struct MemoryStage {
    partitions: Vec<Partition>,
    wakes: Vec<Wake>,
    /// Whether any partition's reply wire was non-empty at the end of the
    /// last [`MemoryStage::step_cycle_all`]. Replies are only *created*
    /// inside that call, and a partition with a queued reply is due every
    /// cycle, so scanning the visited partitions gives an exact summary
    /// until the next mutation — which the reply network's event-driven
    /// skip exploits: while `false` and the reply crossbar is empty, the
    /// whole reply/completion tail of the cycle provably has nothing to
    /// move. External drains (the reply network popping wires) may leave
    /// the flag conservatively `true` for a cycle; that costs one
    /// redundant scan, never a missed reply.
    replies_pending: bool,
    /// The first DRAM tick the stage has not serviced: the end of the
    /// last visited span, or where a fast-forward jump landed. Partitions
    /// asleep through earlier ticks lag behind it.
    dram_upto: Cycle,
    /// Live partition visits.
    visits: u64,
    catch_ups: CatchUps,
}

impl MemoryStage {
    /// Builds one partition per DRAM channel, each with its own policy
    /// instance.
    pub fn new(cfg: &SystemConfig, policy: PolicyKind) -> Self {
        let channels = cfg.dram.channels;
        MemoryStage {
            partitions: (0..channels)
                .map(|c| Partition::new(c, cfg, policy.build()))
                .collect(),
            // A fresh partition holds no work.
            wakes: vec![
                Wake {
                    gpu: Cycle::MAX,
                    dram: Cycle::MAX,
                    synced: 0,
                };
                channels
            ],
            replies_pending: false,
            dram_upto: 0,
            visits: 0,
            catch_ups: CatchUps::default(),
        }
    }

    /// The partition serving channel `c`. Its controller may lag the
    /// stage while asleep; call [`MemoryStage::sync`] before reading
    /// DRAM-side state out of band.
    pub fn get(&self, c: usize) -> &Partition {
        &self.partitions[c]
    }

    /// Iterates all partitions (for stats; same lag caveat as
    /// [`MemoryStage::get`]).
    pub fn iter(&self) -> impl Iterator<Item = &Partition> {
        self.partitions.iter()
    }

    /// Mutable access to the partition serving channel `c`: catches it up
    /// to the stage's service point first, so the caller (the crossbar
    /// eject path, the reply network, test drivers) sees the exact live
    /// state, and marks it due, since the caller may hand it new work.
    pub fn partition_mut(&mut self, c: usize) -> &mut Partition {
        let (p, w) = (&mut self.partitions[c], &mut self.wakes[c]);
        self.catch_ups.add(w.catch_up(p, self.dram_upto));
        w.gpu = 0;
        p
    }

    /// `(catch-ups, DRAM ticks they covered, live partition visits)` so
    /// far.
    pub fn visit_counters(&self) -> (u64, u64, u64) {
        (self.catch_ups.count, self.catch_ups.ticks, self.visits)
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
    /// limit`) into `out`. Acks are deposited at issue or retire time,
    /// which only happens in a live visit, and the eager oracle's heap
    /// pops are DRAM wakes; so a sleeping partition already holds every
    /// ack that can be due, and delivery order and cycle match the eager
    /// per-tick path exactly.
    pub fn drain_acks_into(&mut self, limit: Cycle, out: &mut Vec<Request>) {
        for p in &mut self.partitions {
            if p.acks().has_due(limit) {
                p.acks_mut().drain_due_into(limit, out);
            }
        }
    }

    /// One full GPU cycle of memory work: the L2 front halves at GPU
    /// cycle `now`, then `ticks` DRAM ticks starting at `first_dram` — on
    /// the partitions with a wake inside that window. A visited partition
    /// first catches up the ticks it slept through, then runs its cycle
    /// (L2 step if due, then its DRAM ticks) through the live code paths.
    /// Partitions are shared-nothing within the stage, so visiting a
    /// subset in channel order leaves every per-partition state exactly
    /// as the every-partition loop would.
    pub fn step_cycle_all(
        &mut self,
        now: Cycle,
        first_dram: Cycle,
        ticks: u64,
        mapper: &AddressMapper,
    ) {
        debug_assert!(self.dram_upto <= first_dram, "DRAM service point ran ahead");
        let end = first_dram + ticks;
        self.dram_upto = end;
        let mut replies = false;
        for (p, w) in self.partitions.iter_mut().zip(&mut self.wakes) {
            if w.gpu > now && w.dram >= end {
                continue;
            }
            self.catch_ups.add(w.catch_up(p, first_dram));
            // A partition woken for its DRAM side alone skips the L2 step:
            // the wake rule proves it a no-op.
            if w.gpu <= now {
                p.step_l2(now);
            }
            p.step_dram_span(first_dram, ticks, mapper);
            w.synced = end;
            w.gpu = p.l2_wake(now);
            w.dram = p.dram_wake(end);
            replies |= !p.reply().is_empty();
            self.visits += 1;
        }
        self.replies_pending = replies;
    }

    /// The earliest `(GPU cycle, DRAM tick)` at which any partition needs
    /// a live visit (`Cycle::MAX` components: never) — the memory stage's
    /// fast-forward horizon. O(channels), no state change.
    pub fn next_wake(&self) -> (Cycle, Cycle) {
        self.wakes
            .iter()
            .fold((Cycle::MAX, Cycle::MAX), |(g, d), w| {
                (g.min(w.gpu), d.min(w.dram))
            })
    }

    /// Moves the service point to `dram_now` after a fast-forward jump
    /// that [`MemoryStage::next_wake`] licensed: no partition had work in
    /// the jumped span, so none is touched — each catches up on its next
    /// visit.
    pub fn skip_to(&mut self, dram_now: Cycle) {
        debug_assert!(dram_now >= self.dram_upto, "DRAM clock moved backwards");
        debug_assert!(
            self.next_wake().1 >= dram_now,
            "fast-forward jumped over a DRAM wake"
        );
        self.dram_upto = dram_now;
    }

    /// Catches every partition up to the stage's service point, so stats
    /// and queue state read through [`MemoryStage::get`] /
    /// [`MemoryStage::iter`] are exact. The run loop calls this on both
    /// exits; mid-run observers call it through `Simulator::sync_memory`.
    pub fn sync(&mut self) {
        for (p, w) in self.partitions.iter_mut().zip(&mut self.wakes) {
            self.catch_ups.add(w.catch_up(p, self.dram_upto));
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    fn stage() -> (MemoryStage, Arc<AddressMapper>) {
        let cfg = SystemConfig::default();
        let mapper = Arc::new(AddressMapper::new(
            &cfg.addr_map,
            &cfg.dram,
            cfg.dram_word_bytes(),
        ));
        (MemoryStage::new(&cfg, PolicyKind::FrFcfs), mapper)
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

    #[test]
    fn replies_pending_tracks_wire_contents() {
        let (mut m, mapper) = stage();
        assert!(!m.replies_pending(), "fresh stage has no replies");
        let c = mapper.decode(pimsim_types::PhysAddr(0)).channel as usize;
        assert!(m.partition_mut(c).try_accept(0, mem_read(1, 0)));
        let mut saw_pending = false;
        for now in 0..400u64 {
            m.step_cycle_all(now, now, 1, &mapper);
            assert_eq!(
                m.replies_pending(),
                (0..m.channel_count()).any(|c| !m.get(c).reply().is_empty()),
                "flag must match wires right after a step (now={now})"
            );
            saw_pending |= m.replies_pending();
        }
        assert!(saw_pending, "the read must have produced a reply");
    }

    #[test]
    fn only_partitions_with_work_are_visited() {
        let (mut m, mapper) = stage();
        for now in 0..100u64 {
            m.step_cycle_all(now, now, 1, &mapper);
        }
        assert_eq!(m.visit_counters().2, 0, "an idle stage visits nobody");
        assert_eq!(m.next_wake(), (Cycle::MAX, Cycle::MAX));
        let c = mapper.decode(pimsim_types::PhysAddr(0)).channel as usize;
        assert!(m.partition_mut(c).try_accept(0, mem_read(1, 0)));
        assert_eq!(m.next_wake().0, 0, "an eject marks its partition due");
        for now in 100..600u64 {
            m.step_cycle_all(now, now, 1, &mapper);
            if !m.get(c).reply().is_empty() {
                while m.partition_mut(c).reply_mut().recv().is_some() {}
            }
        }
        let (_, _, visits) = m.visit_counters();
        assert!(visits > 0, "the read's partition was visited");
        assert!(
            visits < 500,
            "a single miss does not keep a partition busy every cycle"
        );
        assert_eq!(m.get(c).stats().fills_sent, 1);
    }
}
