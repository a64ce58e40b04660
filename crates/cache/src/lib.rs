//! Sliced L2 cache model.
//!
//! The GPU's 6 MB L2 is distributed across memory partitions, one slice per
//! channel (Figure 1). Each slice is a set-associative, write-back,
//! write-allocate tag store with MSHRs for outstanding misses.
//!
//! Two properties matter for the paper's analysis and are modeled exactly:
//!
//! * **MEM requests are filtered** — hits never reach the memory
//!   controller, so a GPU kernel's DRAM arrival rate is lower than its
//!   interconnect arrival rate (Figure 4a vs. 4b).
//! * **PIM requests bypass the cache entirely** — they are cache-streaming
//!   stores. The bypass itself happens in the memory-partition wiring
//!   (`pimsim-sim`); this crate only ever sees MEM requests.
//!
//! The model is tag-only (no data payloads are simulated).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pimsim_types::{CacheConfig, Cycle, PhysAddr, Request, RequestKind};

/// Outcome of a cache lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Line present: the request completes after the slice latency.
    Hit,
    /// Line absent and a new MSHR was allocated: the caller must send a
    /// fill read for [`CacheSlice::line_addr`] of the request to DRAM.
    MissAllocated,
    /// Line absent but an MSHR for the same line already exists: the
    /// request was merged and will complete when the fill returns.
    MissMerged,
    /// No MSHR available: the caller must retry the request later.
    Blocked,
}

/// Way-state flag: the way holds a line. An all-zero state word is an
/// invalid way, so a fresh tag store is a zeroed allocation.
const VALID: u64 = 1;
/// Way-state flag: the line is dirty (written since its fill).
const DIRTY: u64 = 2;
/// The LRU stamp sits above the two flag bits.
const STAMP_SHIFT: u32 = 2;

/// An outstanding miss.
#[derive(Debug, Clone)]
struct Mshr {
    line: u64,
    /// Requests waiting on this fill (the original miss plus merges).
    waiters: Vec<Request>,
    /// Whether any waiting request is a write (line installs dirty).
    any_write: bool,
}

/// Counters for one slice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that allocated a new MSHR.
    pub misses: u64,
    /// Lookups merged into an existing MSHR.
    pub merges: u64,
    /// Lookups rejected because MSHRs were exhausted.
    pub blocked: u64,
    /// Dirty evictions (writebacks sent to DRAM).
    pub writebacks: u64,
}

/// One L2 cache slice.
///
/// # Example
///
/// ```
/// use pimsim_cache::{AccessOutcome, CacheSlice};
/// use pimsim_types::{CacheConfig, Request, RequestId, RequestKind, AppId, PhysAddr};
///
/// let mut slice = CacheSlice::new(&CacheConfig::default(), 32);
/// let req = Request::new(RequestId(0), AppId::GPU, RequestKind::MemRead, PhysAddr(0x80), 0, 0);
/// assert_eq!(slice.access(req, 0), AccessOutcome::MissAllocated);
/// let (waiters, writeback) = slice.fill(slice.line_addr(PhysAddr(0x80)), 100);
/// assert_eq!(waiters.len(), 1);
/// assert!(writeback.is_none());
/// ```
#[derive(Debug, Clone)]
pub struct CacheSlice {
    /// Tags, set-major: way `w` of set `s` is entry `s * ways + w`
    /// (meaningful only where `state` marks the way valid).
    tags: Vec<u64>,
    /// Way state, laid out like `tags`: `(last_used << STAMP_SHIFT) |
    /// DIRTY? | VALID`, or 0 for an invalid way.
    state: Vec<u64>,
    ways: usize,
    line_bytes: u64,
    num_sets: u64,
    mshrs: Vec<Mshr>,
    mshr_capacity: usize,
    latency: Cycle,
    use_clock: u64,
    stats: CacheStats,
}

impl CacheSlice {
    /// Creates one slice of a cache distributed over `num_slices` channels.
    ///
    /// # Panics
    ///
    /// Panics if the geometry leaves this slice without at least one set.
    pub fn new(cfg: &CacheConfig, num_slices: usize) -> Self {
        let slice_bytes = cfg.total_bytes / num_slices;
        let num_sets = slice_bytes / (cfg.line_bytes * cfg.ways);
        assert!(num_sets > 0, "cache slice too small for one set");
        let entries = num_sets * cfg.ways;
        CacheSlice {
            tags: vec![0; entries],
            state: vec![0; entries],
            ways: cfg.ways,
            line_bytes: cfg.line_bytes as u64,
            num_sets: num_sets as u64,
            mshrs: Vec::new(),
            mshr_capacity: cfg.mshr_entries,
            latency: cfg.latency,
            use_clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Tag/data pipeline latency in GPU cycles.
    pub fn latency(&self) -> Cycle {
        self.latency
    }

    /// The line-aligned address containing `addr`.
    pub fn line_addr(&self, addr: PhysAddr) -> PhysAddr {
        PhysAddr(addr.0 & !(self.line_bytes - 1))
    }

    fn set_index(&self, line: u64) -> usize {
        ((line / self.line_bytes) % self.num_sets) as usize
    }

    /// Index range of set `set`'s ways in the tag store.
    fn ways_of(&self, set: usize) -> std::ops::Range<usize> {
        set * self.ways..(set + 1) * self.ways
    }

    fn tag(&self, line: u64) -> u64 {
        line / self.line_bytes / self.num_sets
    }

    /// Number of MSHRs currently in use.
    pub fn mshrs_in_use(&self) -> usize {
        self.mshrs.len()
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up `req` (a MEM read or write).
    ///
    /// # Panics
    ///
    /// Panics if called with a PIM request — those bypass the cache and
    /// must be routed around it by the memory partition.
    pub fn access(&mut self, req: Request, _now: Cycle) -> AccessOutcome {
        assert!(
            req.kind.is_mem(),
            "PIM requests bypass the L2 and must not be looked up"
        );
        let line = self.line_addr(req.addr).0;
        let set = self.set_index(line);
        let tag = self.tag(line);
        self.use_clock += 1;
        let clock = self.use_clock;
        let ways = self.ways_of(set);
        if let Some(i) = ways
            .into_iter()
            .find(|&i| self.tags[i] == tag && self.state[i] & VALID != 0)
        {
            let dirty = if req.kind == RequestKind::MemWrite {
                DIRTY
            } else {
                self.state[i] & DIRTY
            };
            self.state[i] = (clock << STAMP_SHIFT) | dirty | VALID;
            self.stats.hits += 1;
            return AccessOutcome::Hit;
        }
        if let Some(m) = self.mshrs.iter_mut().find(|m| m.line == line) {
            m.waiters.push(req);
            m.any_write |= req.kind == RequestKind::MemWrite;
            self.stats.merges += 1;
            return AccessOutcome::MissMerged;
        }
        if self.mshrs.len() >= self.mshr_capacity {
            self.stats.blocked += 1;
            return AccessOutcome::Blocked;
        }
        self.mshrs.push(Mshr {
            line,
            waiters: vec![req],
            any_write: req.kind == RequestKind::MemWrite,
        });
        self.stats.misses += 1;
        AccessOutcome::MissAllocated
    }

    /// Completes the fill for `line` (line-aligned address): installs the
    /// line, retires its MSHR, and returns the waiting requests plus the
    /// writeback address of a dirty victim, if one was evicted.
    ///
    /// # Panics
    ///
    /// Panics if no MSHR is outstanding for `line`.
    pub fn fill(&mut self, line: PhysAddr, _now: Cycle) -> (Vec<Request>, Option<PhysAddr>) {
        let idx = self
            .mshrs
            .iter()
            .position(|m| m.line == line.0)
            .unwrap_or_else(|| panic!("fill for {line} without an MSHR"));
        let mshr = self.mshrs.swap_remove(idx);
        let set = self.set_index(line.0);
        let tag = self.tag(line.0);
        self.use_clock += 1;
        let clock = self.use_clock;
        // Choose a victim: the first invalid way, else the LRU way (the
        // first of equal stamps).
        let ways = self.ways_of(set);
        let i = match ways.clone().find(|&i| self.state[i] & VALID == 0) {
            Some(i) => i,
            None => ways
                .min_by_key(|&i| self.state[i] >> STAMP_SHIFT)
                .expect("ways > 0"),
        };
        let writeback = (self.state[i] & DIRTY != 0).then(|| {
            self.stats.writebacks += 1;
            // Reconstruct the victim's line address from its tag.
            PhysAddr((self.tags[i] * self.num_sets + set as u64) * self.line_bytes)
        });
        let dirty = if mshr.any_write { DIRTY } else { 0 };
        self.tags[i] = tag;
        self.state[i] = (clock << STAMP_SHIFT) | dirty | VALID;
        (mshr.waiters, writeback)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimsim_types::{AppId, RequestId};

    fn slice() -> CacheSlice {
        // Small slice: 4 sets x 2 ways x 32 B lines = 256 B per slice.
        let cfg = CacheConfig {
            total_bytes: 256 * 2,
            ways: 2,
            line_bytes: 32,
            latency: 10,
            mshr_entries: 2,
        };
        CacheSlice::new(&cfg, 2)
    }

    fn read(id: u64, addr: u64) -> Request {
        Request::new(
            RequestId(id),
            AppId::GPU,
            RequestKind::MemRead,
            PhysAddr(addr),
            0,
            0,
        )
    }

    fn write(id: u64, addr: u64) -> Request {
        Request::new(
            RequestId(id),
            AppId::GPU,
            RequestKind::MemWrite,
            PhysAddr(addr),
            0,
            0,
        )
    }

    #[test]
    fn miss_then_hit_after_fill() {
        let mut c = slice();
        assert_eq!(c.access(read(0, 0x40), 0), AccessOutcome::MissAllocated);
        let (waiters, wb) = c.fill(PhysAddr(0x40), 5);
        assert_eq!(waiters.len(), 1);
        assert!(wb.is_none());
        assert_eq!(c.access(read(1, 0x40), 10), AccessOutcome::Hit);
        assert_eq!(c.access(read(2, 0x5c), 10), AccessOutcome::Hit, "same line");
        assert_eq!(c.stats().hits, 2);
    }

    #[test]
    fn concurrent_misses_to_same_line_merge() {
        let mut c = slice();
        assert_eq!(c.access(read(0, 0x40), 0), AccessOutcome::MissAllocated);
        assert_eq!(c.access(read(1, 0x44), 1), AccessOutcome::MissMerged);
        assert_eq!(c.mshrs_in_use(), 1);
        let (waiters, _) = c.fill(PhysAddr(0x40), 5);
        assert_eq!(waiters.len(), 2);
        assert_eq!(c.stats().merges, 1);
    }

    #[test]
    fn mshr_exhaustion_blocks() {
        let mut c = slice();
        assert_eq!(c.access(read(0, 0x000), 0), AccessOutcome::MissAllocated);
        assert_eq!(c.access(read(1, 0x100), 0), AccessOutcome::MissAllocated);
        assert_eq!(c.access(read(2, 0x200), 0), AccessOutcome::Blocked);
        assert_eq!(c.stats().blocked, 1);
    }

    #[test]
    fn dirty_eviction_produces_writeback() {
        let mut c = slice();
        // 4 sets, 32 B lines: addresses 0x00, 0x80, 0x100 all map to set 0.
        assert_eq!(c.access(write(0, 0x00), 0), AccessOutcome::MissAllocated);
        c.fill(PhysAddr(0x00), 1);
        assert_eq!(c.access(read(1, 0x80), 2), AccessOutcome::MissAllocated);
        c.fill(PhysAddr(0x80), 3);
        // Set 0 is now full (2 ways); next fill evicts LRU = dirty 0x00.
        assert_eq!(c.access(read(2, 0x100), 4), AccessOutcome::MissAllocated);
        let (_, wb) = c.fill(PhysAddr(0x100), 5);
        assert_eq!(wb, Some(PhysAddr(0x00)));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_produces_no_writeback() {
        let mut c = slice();
        for (i, a) in [0x00u64, 0x80].into_iter().enumerate() {
            c.access(read(i as u64, a), 0);
            c.fill(PhysAddr(a), 1);
        }
        c.access(read(9, 0x100), 2);
        let (_, wb) = c.fill(PhysAddr(0x100), 3);
        assert!(wb.is_none());
    }

    #[test]
    fn lru_replacement_prefers_stale_line() {
        let mut c = slice();
        for (i, a) in [0x00u64, 0x80].into_iter().enumerate() {
            c.access(read(i as u64, a), 0);
            c.fill(PhysAddr(a), 1);
        }
        // Touch 0x00 so 0x80 becomes LRU.
        assert_eq!(c.access(read(5, 0x00), 2), AccessOutcome::Hit);
        c.access(read(6, 0x100), 3);
        c.fill(PhysAddr(0x100), 4);
        // 0x00 must still be resident; 0x80 was evicted.
        assert_eq!(c.access(read(7, 0x00), 5), AccessOutcome::Hit);
        assert_eq!(c.access(read(8, 0x80), 6), AccessOutcome::MissAllocated);
    }

    #[test]
    fn write_hit_marks_dirty_for_later_writeback() {
        let mut c = slice();
        c.access(read(0, 0x00), 0);
        c.fill(PhysAddr(0x00), 1);
        assert_eq!(c.access(write(1, 0x00), 2), AccessOutcome::Hit);
        c.access(read(2, 0x80), 3);
        c.fill(PhysAddr(0x80), 4);
        c.access(read(3, 0x100), 5);
        let (_, wb) = c.fill(PhysAddr(0x100), 6);
        assert_eq!(wb, Some(PhysAddr(0x00)), "write hit must dirty the line");
    }

    #[test]
    #[should_panic(expected = "PIM requests bypass the L2")]
    fn pim_lookup_panics() {
        use pimsim_types::{PimCommand, PimOpKind};
        let mut c = slice();
        let cmd = PimCommand {
            op: PimOpKind::RfLoad,
            channel: 0,
            row: 0,
            col: 0,
            rf_entry: 0,
            block_start: false,
            block_id: 0,
        };
        let req = Request::new(
            RequestId(0),
            AppId::PIM,
            RequestKind::Pim(cmd),
            PhysAddr(0),
            0,
            0,
        );
        let _ = c.access(req, 0);
    }

    #[test]
    #[should_panic(expected = "without an MSHR")]
    fn fill_without_mshr_panics() {
        let mut c = slice();
        let _ = c.fill(PhysAddr(0x40), 0);
    }

    #[test]
    fn victim_address_reconstruction_roundtrips() {
        // The writeback address rebuilt from (tag, set) must equal the
        // original line address for many distinct lines.
        let cfg = CacheConfig {
            total_bytes: 8 * 1024,
            ways: 2,
            line_bytes: 32,
            latency: 1,
            mshr_entries: 4,
        };
        let mut c = CacheSlice::new(&cfg, 2);
        // Fill a set with dirty lines, then force evictions and check the
        // writeback addresses come back line-aligned and distinct.
        let set_stride = 4 * 1024 / 2; // sets * line_bytes
        let mut seen = std::collections::HashSet::new();
        for i in 0..6u64 {
            let addr = i * set_stride as u64; // all map to set 0
            assert_eq!(c.access(write(i, addr), 0), AccessOutcome::MissAllocated);
            let (_, wb) = c.fill(PhysAddr(addr), 1);
            if let Some(w) = wb {
                assert_eq!(w.0 % 32, 0, "writeback must be line-aligned");
                assert!(seen.insert(w.0), "duplicate writeback {w}");
                assert_eq!(w.0 % set_stride as u64, 0, "victim must map to set 0");
            }
        }
        assert_eq!(c.stats().writebacks, 4, "6 fills into 2 ways evict 4");
    }

    #[test]
    fn merged_write_installs_dirty() {
        let mut c = slice();
        assert_eq!(c.access(read(0, 0x00), 0), AccessOutcome::MissAllocated);
        assert_eq!(c.access(write(1, 0x08), 0), AccessOutcome::MissMerged);
        let (waiters, _) = c.fill(PhysAddr(0x00), 1);
        assert_eq!(waiters.len(), 2);
        // Evict it: the line must come back dirty (write-allocate).
        c.access(read(2, 0x80), 2);
        c.fill(PhysAddr(0x80), 3);
        c.access(read(3, 0x100), 4);
        let (_, wb) = c.fill(PhysAddr(0x100), 5);
        assert_eq!(wb, Some(PhysAddr(0x00)), "merged write must dirty the fill");
    }
}
