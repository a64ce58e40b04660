//! Cycle-level model of one HBM channel: banks, row buffers, command
//! timing, and the all-bank lock-step PIM mode.
//!
//! The channel is a *mechanism*: it enforces DRAM timing legality and row
//! state, while the memory controller (in `pimsim-core`) decides which
//! command to issue. At most one command can be issued per channel per DRAM
//! cycle (command-bus serialization).

use pimsim_types::{Cycle, DramConfig, DramTiming};

/// A DRAM command, as issued by the memory controller to one channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DramCommand {
    /// Activate `row` on `bank` (bank must be precharged).
    Act {
        /// Target bank.
        bank: usize,
        /// Row to open.
        row: u32,
    },
    /// Precharge `bank` (bank must have an open row).
    Pre {
        /// Target bank.
        bank: usize,
    },
    /// Column read from `bank`'s open row.
    Read {
        /// Target bank.
        bank: usize,
    },
    /// Column write to `bank`'s open row.
    Write {
        /// Target bank.
        bank: usize,
    },
    /// All-bank lock-step activate of `row` (PIM mode block start). All
    /// banks must be precharged.
    PimActAll {
        /// Row to open on every bank.
        row: u32,
    },
    /// Precharge-all: closes every open bank (PIM block end / mode
    /// switch). Legal when at least one bank is open and every open bank
    /// has satisfied its precharge timing; already-closed banks are
    /// unaffected.
    PreAll,
    /// All-bank lock-step PIM column operation on the open row.
    /// `writes_row` is `true` for `RfStore` (the row buffer is written and
    /// write-recovery timing applies); loads and computes only read the row.
    PimOp {
        /// Whether the op writes the row buffer.
        writes_row: bool,
    },
    /// Column read with auto-precharge (closed-page policy): the bank
    /// closes its row as soon as the read's precharge timing allows.
    ReadAuto {
        /// Target bank.
        bank: usize,
    },
    /// Column write with auto-precharge.
    WriteAuto {
        /// Target bank.
        bank: usize,
    },
}

/// Per-bank timing and row-buffer state.
#[derive(Debug, Clone)]
struct Bank {
    row: Option<u32>,
    next_act: Cycle,
    next_pre: Cycle,
    next_col: Cycle,
    /// Completion time of the most recent column access on this bank
    /// (data available / written), or `None` if the bank has never moved
    /// data. Used for drain detection.
    busy_until: Option<Cycle>,
}

impl Bank {
    fn new() -> Self {
        Bank {
            row: None,
            next_act: 0,
            next_pre: 0,
            next_col: 0,
            busy_until: None,
        }
    }

    fn raise_busy(&mut self, completion: Cycle) {
        self.busy_until = Some(self.busy_until.map_or(completion, |c| c.max(completion)));
    }
}

/// Cross-bank aggregates, read only by the all-bank checks (`PimActAll`,
/// `PreAll`, `PimOp` legality, [`Channel::all_banks_open_to`],
/// [`Channel::any_bank_open`]). All-bank commands and refresh rebuild it
/// eagerly, so the PIM path reads it in O(1). Single-bank commands
/// (ACT/PRE/RD/WR and the auto-precharge forms) only mark it stale: MEM
/// mode never reads it, and a read of a stale aggregate walks the banks
/// out of line (DESIGN.md §4p).
#[derive(Debug, Clone, Copy, Default)]
struct BankAgg {
    /// Number of banks with an open row.
    open: usize,
    /// `Some(row)` iff *every* bank is open to the same `row`.
    uniform_row: Option<u32>,
    /// `max(next_act)` over all banks.
    next_act: Cycle,
    /// `max(next_col)` over all banks.
    next_col: Cycle,
    /// `max(next_pre)` over open banks (0 when none are open).
    next_pre_open: Cycle,
}

/// A bank's own timing releases: the first cycles at which it accepts an
/// activate, a precharge and a column command, before the channel-wide
/// constraints (command bus, tRRD, tFAW, CCD, data bus, refresh).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankReleases {
    /// Earliest activate (tRP after a precharge, tRFC after a refresh).
    pub act: Cycle,
    /// Earliest precharge (tRAS, read-to-precharge, write recovery).
    pub pre: Cycle,
    /// Earliest column command (tRCD, tCCDl).
    pub col: Cycle,
}

/// Aggregate command counters for one channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// All-bank refreshes performed (0 unless `t_refi` is enabled).
    pub refreshes: u64,
    /// Activates issued (including each bank of an all-bank activate).
    pub acts: u64,
    /// Precharges issued (including each bank of an all-bank precharge).
    pub pres: u64,
    /// Column reads issued.
    pub reads: u64,
    /// Column writes issued.
    pub writes: u64,
    /// PIM lock-step column operations issued.
    pub pim_ops: u64,
    /// PIM all-bank activates issued (block starts).
    pub pim_blocks: u64,
}

impl pimsim_stats::Mergeable for ChannelStats {
    fn merge_from(&mut self, o: &Self) {
        self.refreshes += o.refreshes;
        self.acts += o.acts;
        self.pres += o.pres;
        self.reads += o.reads;
        self.writes += o.writes;
        self.pim_ops += o.pim_ops;
        self.pim_blocks += o.pim_blocks;
    }
}

/// One HBM channel.
#[derive(Debug, Clone)]
pub struct Channel {
    timing: DramTiming,
    banks: Vec<Bank>,
    banks_per_group: usize,
    /// Earliest cycle the next activate may issue (tRRD).
    next_act_any: Cycle,
    /// Most recent column command: (issue cycle, bank group), where the
    /// group is `usize::MAX` for all-bank PIM ops.
    last_col: Option<(Cycle, usize)>,
    /// Cycle at which the shared data bus becomes free.
    data_bus_free: Cycle,
    /// Command-bus serialization: cycle of the last issued command.
    last_cmd_cycle: Option<Cycle>,
    /// Issue times of the last four activates (tFAW rolling window).
    act_times: [Cycle; 4],
    act_ptr: usize,
    /// End of the most recent write burst (tWTR).
    last_write_end: Cycle,
    /// Cached `max(bank.busy_until)` over all banks, `None` while no bank
    /// has ever moved data. Per-bank `busy_until` is only ever raised, so
    /// maintaining the running max on the three raising command paths
    /// keeps this exact — and the quiescence check O(1) instead of a bank
    /// scan.
    max_busy_until: Option<Cycle>,
    /// Cross-bank aggregate cache (see [`BankAgg`]); exact unless
    /// `agg_stale`.
    agg: BankAgg,
    /// Set by single-bank commands: `agg` may be out of date, and readers
    /// walk the banks instead until the next all-bank command or refresh
    /// rebuilds it.
    agg_stale: bool,
    /// Bumped whenever any bank's row state changes (activate, precharge,
    /// refresh). Lets callers cache derived row views (the controller's
    /// `open_rows` scratch) and rebuild them only when this moves.
    row_epoch: u64,
    /// When the next refresh becomes due (`u64::MAX` when disabled).
    next_refresh: Cycle,
    /// A due refresh blocks new activates until it executes.
    refresh_pending: bool,
    stats: ChannelStats,
}

impl Channel {
    /// Creates a channel with all banks precharged and idle.
    pub fn new(dram: &DramConfig, timing: &DramTiming) -> Self {
        let mut ch = Channel {
            timing: timing.clone(),
            banks: (0..dram.banks).map(|_| Bank::new()).collect(),
            banks_per_group: dram.banks / dram.bank_groups,
            next_act_any: 0,
            last_col: None,
            data_bus_free: 0,
            last_cmd_cycle: None,
            act_times: [0; 4],
            act_ptr: 0,
            last_write_end: 0,
            max_busy_until: None,
            agg: BankAgg::default(),
            agg_stale: false,
            row_epoch: 0,
            next_refresh: if timing.t_refi > 0 {
                timing.t_refi
            } else {
                Cycle::MAX
            },
            refresh_pending: false,
            stats: ChannelStats::default(),
        };
        ch.recompute_agg();
        ch
    }

    /// Rebuilds the cross-bank aggregate cache. Called by the all-bank
    /// commands and refresh execution — never per tick, and not by
    /// single-bank commands (those mark it stale).
    fn recompute_agg(&mut self) {
        self.agg = self.scan_agg();
        self.agg_stale = false;
    }

    /// The cross-bank aggregate from a walk over the banks.
    fn scan_agg(&self) -> BankAgg {
        let mut agg = BankAgg::default();
        let mut uniform = true;
        let first_row = self.banks.first().and_then(|b| b.row);
        for b in &self.banks {
            if b.row.is_some() {
                agg.open += 1;
                agg.next_pre_open = agg.next_pre_open.max(b.next_pre);
            }
            uniform &= b.row == first_row;
            agg.next_act = agg.next_act.max(b.next_act);
            agg.next_col = agg.next_col.max(b.next_col);
        }
        agg.uniform_row = if uniform && agg.open == self.banks.len() {
            first_row
        } else {
            None
        };
        agg
    }

    /// The current cross-bank aggregate: the cache, or — after a
    /// single-bank command — a walk over the banks. Only the first PIM
    /// step after MEM traffic pays the walk; the all-bank command it
    /// issues rebuilds the cache.
    #[inline]
    fn agg(&self) -> BankAgg {
        if self.agg_stale {
            return self.stale_agg();
        }
        self.agg
    }

    /// The stale-read walk, out of line and cold so a fresh read stays
    /// one predictable branch on the PIM path.
    #[cold]
    #[inline(never)]
    fn stale_agg(&self) -> BankAgg {
        self.scan_agg()
    }

    /// Advances refresh housekeeping; call once per DRAM cycle before
    /// issuing commands. When a refresh is due, new commands (activates
    /// and column accesses) are blocked so the channel drains; once every
    /// bank is precharge-able and quiescent, the channel closes the open
    /// rows and performs the all-bank refresh, making the banks
    /// unavailable for `t_rfc` cycles (the auto-precharge a real
    /// controller's REF implies).
    pub fn tick(&mut self, now: Cycle) {
        if now >= self.next_refresh {
            self.refresh_pending = true;
        }
        if !self.refresh_pending {
            return;
        }
        let quiesced = self.quiescent(now)
            && self
                .banks
                .iter()
                .all(|b| b.row.is_none() || now >= b.next_pre);
        if !quiesced {
            return;
        }
        for bank in 0..self.banks.len() {
            if self.banks[bank].row.is_some() {
                self.pre_one(bank, now);
                self.stats.pres += 1;
            }
            let b = &mut self.banks[bank];
            b.next_act = b.next_act.max(now + self.timing.t_rfc);
        }
        self.stats.refreshes += 1;
        self.refresh_pending = false;
        self.next_refresh = (self.next_refresh + self.timing.t_refi).max(now);
        self.recompute_agg();
    }

    /// Whether a due refresh is blocking new activates and column accesses.
    pub fn refresh_pending(&self) -> bool {
        self.refresh_pending
    }

    /// The cycle at which the next refresh becomes due (`Cycle::MAX` when
    /// refresh is disabled). The controller must take a full step at this
    /// cycle so [`Channel::tick`] can raise `refresh_pending`.
    pub fn next_refresh(&self) -> Cycle {
        self.next_refresh
    }

    /// Monotone counter of row-state changes (activates, precharges,
    /// refreshes). Derived row views (the controller's open-row scratch)
    /// stay valid while this is unchanged.
    pub fn row_epoch(&self) -> u64 {
        self.row_epoch
    }

    fn faw_ok(&self, now: Cycle) -> bool {
        // act_times[act_ptr] is the oldest of the last four activates.
        self.timing.t_faw == 0 || now >= self.act_times[self.act_ptr] + self.timing.t_faw
    }

    fn record_act(&mut self, now: Cycle) {
        if self.timing.t_faw > 0 {
            self.act_times[self.act_ptr] = now;
            self.act_ptr = (self.act_ptr + 1) % 4;
        }
    }

    /// Number of banks.
    pub fn num_banks(&self) -> usize {
        self.banks.len()
    }

    /// The open row of `bank`, if any.
    pub fn open_row(&self, bank: usize) -> Option<u32> {
        self.banks[bank].row
    }

    /// `bank`'s own timing releases (see [`BankReleases`]).
    pub fn bank_releases(&self, bank: usize) -> BankReleases {
        let b = &self.banks[bank];
        BankReleases {
            act: b.next_act,
            pre: b.next_pre,
            col: b.next_col,
        }
    }

    /// `true` once all column data movement has completed (used by the
    /// memory controller to detect the end of a mode-switch drain).
    pub fn quiescent(&self, now: Cycle) -> bool {
        debug_assert_eq!(
            self.max_busy_until,
            self.banks.iter().filter_map(|b| b.busy_until).max()
        );
        self.max_busy_until.is_none_or(|m| m <= now)
    }

    /// Completion time of the latest in-flight column access across banks,
    /// or `None` if the channel has never moved data: an all-idle channel
    /// reports idle, not "busy until cycle 0".
    pub fn busy_until(&self) -> Option<Cycle> {
        self.max_busy_until
    }

    /// Completion time of `bank`'s most recent column access, or `None` if
    /// the bank has never moved data.
    pub fn bank_busy_until(&self, bank: usize) -> Option<Cycle> {
        self.banks[bank].busy_until
    }

    /// The earliest cycle at or after `now` at which this channel has data
    /// movement in flight, or `None` once it is quiescent. Refresh is
    /// deliberately excluded: the refresh clock only advances while the
    /// channel is being ticked, and the owning controller stops ticking a
    /// quiescent channel with empty queues, so a quiescent channel
    /// generates no activity on its own.
    pub fn next_activity_cycle(&self, now: Cycle) -> Option<Cycle> {
        (!self.quiescent(now)).then_some(now)
    }

    /// Bitmask of the banks with column data in flight at `now` (bit `b`
    /// for bank `b`, first 64 banks; used for bank-level-parallelism
    /// accounting): one pass over the banks, none while the channel is
    /// quiescent.
    pub fn busy_bank_mask(&self, now: Cycle) -> u64 {
        if self.quiescent(now) {
            return 0;
        }
        self.banks.iter().enumerate().fold(0, |mask, (b, bank)| {
            mask | u64::from(bank.busy_until.is_some_and(|c| c > now)) << (b % 64)
        })
    }

    /// Whether every bank is open to `row` (the PIM lock-step execution
    /// precondition). O(1) from the aggregate cache while it is fresh.
    pub fn all_banks_open_to(&self, row: u32) -> bool {
        self.agg().uniform_row == Some(row)
    }

    /// Whether any bank has an open row. O(1) from the aggregate cache
    /// while it is fresh.
    pub fn any_bank_open(&self) -> bool {
        self.agg().open > 0
    }

    /// Snapshot of the command counters.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    fn group_of(&self, bank: usize) -> usize {
        bank / self.banks_per_group
    }

    fn ccd_ok(&self, now: Cycle, group: usize) -> bool {
        match self.last_col {
            None => true,
            Some((t, g)) => {
                let gap = if g == group || g == usize::MAX || group == usize::MAX {
                    self.timing.t_ccdl
                } else {
                    self.timing.t_ccds
                };
                now >= t + gap
            }
        }
    }

    fn cmd_bus_ok(&self, now: Cycle) -> bool {
        self.last_cmd_cycle.is_none_or(|t| now > t)
    }

    /// Whether `cmd` may legally issue at `now`.
    pub fn can_issue(&self, cmd: DramCommand, now: Cycle) -> bool {
        if !self.cmd_bus_ok(now) {
            return false;
        }
        let t = &self.timing;
        match cmd {
            DramCommand::Act { bank, .. } => {
                let b = &self.banks[bank];
                !self.refresh_pending
                    && self.faw_ok(now)
                    && b.row.is_none()
                    && now >= b.next_act
                    && now >= self.next_act_any
            }
            DramCommand::Pre { bank } => {
                let b = &self.banks[bank];
                b.row.is_some() && now >= b.next_pre
            }
            DramCommand::Read { bank } => {
                let b = &self.banks[bank];
                !self.refresh_pending
                    && b.row.is_some()
                    && now >= b.next_col
                    && now >= self.last_write_end + t.t_wtr
                    && self.ccd_ok(now, self.group_of(bank))
                    && self.data_bus_free <= now + t.t_cl
            }
            DramCommand::Write { bank } => {
                let b = &self.banks[bank];
                !self.refresh_pending
                    && b.row.is_some()
                    && now >= b.next_col
                    && self.ccd_ok(now, self.group_of(bank))
                    && self.data_bus_free <= now + t.t_wl
            }
            // All-bank activate is a single dedicated PIM-mode command and
            // is exempt from tFAW (which governs per-bank ACT streams).
            DramCommand::PimActAll { .. } => {
                let agg = self.agg();
                !self.refresh_pending && agg.open == 0 && now >= agg.next_act
            }
            DramCommand::PreAll => {
                let agg = self.agg();
                agg.open > 0 && now >= agg.next_pre_open
            }
            DramCommand::PimOp { .. } => {
                let agg = self.agg();
                !self.refresh_pending
                    && agg.open == self.banks.len()
                    && now >= agg.next_col
                    && self.ccd_ok(now, usize::MAX)
            }
            DramCommand::ReadAuto { bank } => self.can_issue(DramCommand::Read { bank }, now),
            DramCommand::WriteAuto { bank } => self.can_issue(DramCommand::Write { bank }, now),
        }
    }

    /// Earliest cycle the last column command's CCD constraint clears for
    /// a command targeting `group` (`usize::MAX` = all-bank).
    fn ccd_clear(&self, group: usize) -> Cycle {
        match self.last_col {
            None => 0,
            Some((t, g)) => {
                let gap = if g == group || g == usize::MAX || group == usize::MAX {
                    self.timing.t_ccdl
                } else {
                    self.timing.t_ccds
                };
                t + gap
            }
        }
    }

    /// The exact first cycle `t >= now` at which `cmd` becomes legal given
    /// the channel's *current* state, or `None` if no such cycle exists
    /// without an intervening state change (wrong row open/closed state,
    /// or a pending refresh blocking the command class).
    ///
    /// Every timing constraint is of the form `t >= constant`, so the
    /// answer is the max of the per-constraint release times — this is the
    /// event the controller's stall memo jumps to. Soundness contract
    /// (checked by a property test): with no intervening command or
    /// refresh, `can_issue(cmd, t)` is false for all `t` before the
    /// returned cycle and true at it.
    pub fn earliest_issue(&self, cmd: DramCommand, now: Cycle) -> Option<Cycle> {
        let t = &self.timing;
        let cmd_bus = self.last_cmd_cycle.map_or(0, |c| c + 1);
        let earliest = match cmd {
            DramCommand::Act { bank, .. } => {
                let b = &self.banks[bank];
                if self.refresh_pending || b.row.is_some() {
                    return None;
                }
                let faw = if t.t_faw > 0 {
                    self.act_times[self.act_ptr] + t.t_faw
                } else {
                    0
                };
                b.next_act.max(self.next_act_any).max(faw)
            }
            DramCommand::Pre { bank } => {
                let b = &self.banks[bank];
                b.row?;
                b.next_pre
            }
            DramCommand::Read { bank } => {
                let b = &self.banks[bank];
                if self.refresh_pending || b.row.is_none() {
                    return None;
                }
                // `data_bus_free <= t + t_cl` releases at data_bus_free - t_cl.
                b.next_col
                    .max(self.last_write_end + t.t_wtr)
                    .max(self.ccd_clear(self.group_of(bank)))
                    .max(self.data_bus_free.saturating_sub(t.t_cl))
            }
            DramCommand::Write { bank } => {
                let b = &self.banks[bank];
                if self.refresh_pending || b.row.is_none() {
                    return None;
                }
                b.next_col
                    .max(self.ccd_clear(self.group_of(bank)))
                    .max(self.data_bus_free.saturating_sub(t.t_wl))
            }
            DramCommand::PimActAll { .. } => {
                let agg = self.agg();
                if self.refresh_pending || agg.open != 0 {
                    return None;
                }
                agg.next_act
            }
            DramCommand::PreAll => {
                let agg = self.agg();
                if agg.open == 0 {
                    return None;
                }
                agg.next_pre_open
            }
            DramCommand::PimOp { .. } => {
                let agg = self.agg();
                if self.refresh_pending || agg.open != self.banks.len() {
                    return None;
                }
                agg.next_col.max(self.ccd_clear(usize::MAX))
            }
            DramCommand::ReadAuto { bank } => {
                return self.earliest_issue(DramCommand::Read { bank }, now)
            }
            DramCommand::WriteAuto { bank } => {
                return self.earliest_issue(DramCommand::Write { bank }, now)
            }
        };
        Some(earliest.max(cmd_bus).max(now))
    }

    /// Issues `cmd` at `now`.
    ///
    /// Returns the data completion cycle for column commands (`Read`,
    /// `Write`, `PimOp`) and `None` for row commands.
    ///
    /// # Panics
    ///
    /// Panics if the command is not legal at `now` (check with
    /// [`Channel::can_issue`] first).
    pub fn issue(&mut self, cmd: DramCommand, now: Cycle) -> Option<Cycle> {
        assert!(
            self.can_issue(cmd, now),
            "illegal DRAM command {cmd:?} at cycle {now}"
        );
        // Auto-precharge variants delegate to the plain column command
        // (before the command-bus slot is consumed) and then close the row.
        if let DramCommand::ReadAuto { bank } = cmd {
            let completion = self.issue(DramCommand::Read { bank }, now);
            self.auto_precharge(bank);
            return completion;
        }
        if let DramCommand::WriteAuto { bank } = cmd {
            let completion = self.issue(DramCommand::Write { bank }, now);
            self.auto_precharge(bank);
            return completion;
        }
        self.last_cmd_cycle = Some(now);
        let t = self.timing.clone();
        match cmd {
            DramCommand::Act { bank, row } => {
                self.act_one(bank, row, now);
                self.record_act(now);
                self.next_act_any = now + t.t_rrd;
                self.stats.acts += 1;
                self.agg_stale = true;
                None
            }
            DramCommand::Pre { bank } => {
                self.pre_one(bank, now);
                self.stats.pres += 1;
                self.agg_stale = true;
                None
            }
            DramCommand::Read { bank } => {
                let completion = now + t.t_cl + t.burst_cycles;
                let group = self.group_of(bank);
                let b = &mut self.banks[bank];
                b.raise_busy(completion);
                b.next_pre = b.next_pre.max(now + t.t_rtpl);
                b.next_col = b.next_col.max(now + t.t_ccdl);
                self.raise_max_busy(completion);
                self.data_bus_free = completion;
                self.last_col = Some((now, group));
                self.stats.reads += 1;
                self.agg_stale = true;
                Some(completion)
            }
            DramCommand::Write { bank } => {
                let completion = now + t.t_wl + t.burst_cycles;
                let group = self.group_of(bank);
                let b = &mut self.banks[bank];
                b.raise_busy(completion);
                b.next_pre = b.next_pre.max(completion + t.t_wr);
                b.next_col = b.next_col.max(now + t.t_ccdl);
                self.raise_max_busy(completion);
                self.data_bus_free = completion;
                self.last_write_end = self.last_write_end.max(completion);
                self.last_col = Some((now, group));
                self.stats.writes += 1;
                self.agg_stale = true;
                Some(completion)
            }
            DramCommand::PimActAll { row } => {
                for bank in 0..self.banks.len() {
                    self.act_one(bank, row, now);
                }
                self.stats.acts += self.banks.len() as u64;
                self.stats.pim_blocks += 1;
                self.recompute_agg();
                None
            }
            DramCommand::PreAll => {
                let mut closed = 0u64;
                for bank in 0..self.banks.len() {
                    if self.banks[bank].row.is_some() {
                        self.pre_one(bank, now);
                        closed += 1;
                    }
                }
                self.stats.pres += closed;
                self.recompute_agg();
                None
            }
            DramCommand::ReadAuto { .. } | DramCommand::WriteAuto { .. } => {
                unreachable!("auto-precharge variants are handled above")
            }
            DramCommand::PimOp { writes_row } => {
                // PIM data stays inside the memory (row buffer <-> FU
                // register file); the shared data bus is not used.
                let completion = if writes_row {
                    now + t.t_wl + t.burst_cycles
                } else {
                    now + t.t_cl
                };
                for b in &mut self.banks {
                    b.raise_busy(completion);
                    b.next_col = b.next_col.max(now + t.t_ccdl);
                    if writes_row {
                        b.next_pre = b.next_pre.max(completion + t.t_wr);
                    } else {
                        b.next_pre = b.next_pre.max(now + t.t_rtpl);
                    }
                }
                self.raise_max_busy(completion);
                self.last_col = Some((now, usize::MAX));
                self.stats.pim_ops += 1;
                self.recompute_agg();
                Some(completion)
            }
        }
    }

    /// Issue timing of a back-to-back [`DramCommand::PimOp`] run:
    /// `(stride, read_latency, write_latency)`. After a PIM op at `s` the
    /// only constraints on the next are `next_col`/CCD (`s + tCCDl`) and
    /// the command bus (`s + 1`), so successive ops issue every
    /// `max(tCCDl, 1)` cycles; data completes `read_latency` (`tCL`) or
    /// `write_latency` (`tWL + burst`) cycles after issue.
    pub fn pim_burst_timing(&self) -> (Cycle, Cycle, Cycle) {
        let t = &self.timing;
        (t.t_ccdl.max(1), t.t_cl, t.t_wl + t.burst_cycles)
    }

    /// Bulk equivalent of issuing `writes.len()` back-to-back
    /// [`DramCommand::PimOp`]s at `first`, `first + stride`, … (stride
    /// from [`Channel::pim_burst_timing`]): applies the run's final
    /// channel state in one pass and pushes each op's data-completion
    /// cycle onto `completions`, bit-identical to the per-op loop except
    /// for the command statistics — the caller tallies those one op at a
    /// time via [`Channel::tally_pim_op`] as the analytic issue cycles
    /// pass. Ops after the first are legal by construction, so only the
    /// first is asserted. The caller must ensure no refresh becomes due
    /// at or before the last issue cycle (debug-asserted). `row_epoch` is
    /// untouched: PIM column ops never change row state.
    ///
    /// # Panics
    ///
    /// Panics if `writes` is empty or the first op is not legal at
    /// `first`.
    pub fn issue_pim_burst(&mut self, first: Cycle, writes: &[bool], completions: &mut Vec<Cycle>) {
        assert!(!writes.is_empty(), "empty PIM burst");
        assert!(
            self.can_issue(
                DramCommand::PimOp {
                    writes_row: writes[0]
                },
                first
            ),
            "illegal PIM burst start at cycle {first}"
        );
        let (stride, read_lat, write_lat) = self.pim_burst_timing();
        let last_issue = first + (writes.len() as Cycle - 1) * stride;
        debug_assert!(
            last_issue < self.next_refresh && !self.refresh_pending,
            "PIM burst overlaps a refresh"
        );
        let t = self.timing.clone();
        // The per-op contributions to bank state are monotone in issue
        // order within each class, so the run folds to: the last issue's
        // column/CCD release, the last read's precharge release, the last
        // write's recovery, and the maximum data completion.
        let mut last_read_issue: Option<Cycle> = None;
        let mut last_write_done: Option<Cycle> = None;
        let mut max_completion = 0;
        for (k, &w) in writes.iter().enumerate() {
            let s = first + k as Cycle * stride;
            let completion = s + if w { write_lat } else { read_lat };
            if w {
                last_write_done = Some(completion);
            } else {
                last_read_issue = Some(s);
            }
            max_completion = max_completion.max(completion);
            completions.push(completion);
        }
        let next_col = last_issue + t.t_ccdl;
        let next_pre = last_read_issue
            .map(|s| s + t.t_rtpl)
            .into_iter()
            .chain(last_write_done.map(|c| c + t.t_wr))
            .max()
            .expect("nonempty burst has a precharge release");
        for b in &mut self.banks {
            b.raise_busy(max_completion);
            b.next_col = b.next_col.max(next_col);
            b.next_pre = b.next_pre.max(next_pre);
        }
        self.raise_max_busy(max_completion);
        self.last_col = Some((last_issue, usize::MAX));
        self.last_cmd_cycle = Some(last_issue);
        self.recompute_agg();
    }

    /// Counts one PIM op in the channel's command statistics. The bulk
    /// [`Channel::issue_pim_burst`] deliberately does not touch the stats
    /// so the controller can attribute each op at its analytic issue
    /// cycle — keeping a stats snapshot taken mid-burst bit-identical to
    /// per-cycle issuing.
    pub fn tally_pim_op(&mut self) {
        self.stats.pim_ops += 1;
    }

    fn raise_max_busy(&mut self, completion: Cycle) {
        self.max_busy_until = Some(
            self.max_busy_until
                .map_or(completion, |m| m.max(completion)),
        );
    }

    fn act_one(&mut self, bank: usize, row: u32, now: Cycle) {
        let t = &self.timing;
        let b = &mut self.banks[bank];
        b.row = Some(row);
        b.next_col = now + t.t_rcd;
        b.next_pre = now + t.t_ras;
        self.row_epoch += 1;
    }

    /// Closes `bank` at the earliest legal precharge point following the
    /// column access just issued (the auto-precharge the closed-page
    /// policy's `RDA`/`WRA` commands imply).
    fn auto_precharge(&mut self, bank: usize) {
        let t_rp = self.timing.t_rp;
        let b = &mut self.banks[bank];
        let pre_at = b.next_pre;
        b.row = None;
        b.next_act = b.next_act.max(pre_at + t_rp);
        self.row_epoch += 1;
        self.stats.pres += 1;
        // The column command this follows already marked the aggregate
        // stale.
        debug_assert!(self.agg_stale);
    }

    fn pre_one(&mut self, bank: usize, now: Cycle) {
        let t = &self.timing;
        let b = &mut self.banks[bank];
        b.row = None;
        b.next_act = now + t.t_rp;
        self.row_epoch += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn channel() -> Channel {
        let dram = DramConfig::default();
        let timing = DramTiming::default();
        Channel::new(&dram, &timing)
    }

    /// Issues `cmd` at the first legal cycle at or after `from`.
    fn issue_when_ready(ch: &mut Channel, cmd: DramCommand, from: Cycle) -> (Cycle, Option<Cycle>) {
        for now in from..from + 10_000 {
            if ch.can_issue(cmd, now) {
                return (now, ch.issue(cmd, now));
            }
        }
        panic!("command {cmd:?} never became legal");
    }

    #[test]
    fn read_requires_open_row() {
        let mut ch = channel();
        assert!(!ch.can_issue(DramCommand::Read { bank: 0 }, 0));
        ch.issue(DramCommand::Act { bank: 0, row: 5 }, 0);
        assert_eq!(ch.open_row(0), Some(5));
        // tRCD must elapse before the column access.
        assert!(!ch.can_issue(DramCommand::Read { bank: 0 }, 11));
        assert!(ch.can_issue(DramCommand::Read { bank: 0 }, 12));
        let done = ch.issue(DramCommand::Read { bank: 0 }, 12).unwrap();
        assert_eq!(done, 12 + 12 + 1); // tCL + burst
    }

    #[test]
    fn act_to_pre_respects_tras() {
        let mut ch = channel();
        ch.issue(DramCommand::Act { bank: 0, row: 1 }, 0);
        assert!(!ch.can_issue(DramCommand::Pre { bank: 0 }, 27));
        assert!(ch.can_issue(DramCommand::Pre { bank: 0 }, 28));
        ch.issue(DramCommand::Pre { bank: 0 }, 28);
        // tRP before re-activate.
        assert!(!ch.can_issue(DramCommand::Act { bank: 0, row: 2 }, 39));
        assert!(ch.can_issue(DramCommand::Act { bank: 0, row: 2 }, 40));
    }

    #[test]
    fn trrd_separates_activates_across_banks() {
        let mut ch = channel();
        ch.issue(DramCommand::Act { bank: 0, row: 1 }, 0);
        assert!(!ch.can_issue(DramCommand::Act { bank: 1, row: 1 }, 2));
        assert!(ch.can_issue(DramCommand::Act { bank: 1, row: 1 }, 3));
    }

    #[test]
    fn ccd_long_within_group_short_across() {
        let mut ch = channel();
        ch.issue(DramCommand::Act { bank: 0, row: 1 }, 0);
        // bank 4 is in a different group (16 banks / 4 groups).
        issue_when_ready(&mut ch, DramCommand::Act { bank: 4, row: 1 }, 1);
        // Wait until both banks' tRCD has elapsed before the first read.
        let (t0, _) = issue_when_ready(&mut ch, DramCommand::Read { bank: 0 }, 15);
        // Same-bank (and hence same-group) column spaced by tCCDl = 2.
        assert!(!ch.can_issue(DramCommand::Read { bank: 0 }, t0 + 1));
        // Cross-group column only needs tCCDs = 1.
        assert!(ch.can_issue(DramCommand::Read { bank: 4 }, t0 + 1));
    }

    #[test]
    fn pim_burst_matches_per_op_issue() {
        for writes in [
            vec![false; 6],
            vec![true, false, true, false],
            vec![true; 3],
            vec![false],
        ] {
            let mut a = channel();
            let mut b = channel();
            a.issue(DramCommand::PimActAll { row: 3 }, 0);
            b.issue(DramCommand::PimActAll { row: 3 }, 0);
            let head = DramCommand::PimOp {
                writes_row: writes[0],
            };
            let first = a.earliest_issue(head, 1).expect("run becomes legal");
            let (stride, _, _) = a.pim_burst_timing();
            let mut per_op = Vec::new();
            for (k, &w) in writes.iter().enumerate() {
                let s = first + k as Cycle * stride;
                let cmd = DramCommand::PimOp { writes_row: w };
                assert!(
                    a.can_issue(cmd, s),
                    "op {k} not legal at its analytic cycle {s}"
                );
                per_op.push(a.issue(cmd, s).expect("column completion"));
            }
            let mut bulk = Vec::new();
            b.issue_pim_burst(first, &writes, &mut bulk);
            // Stats are the caller's job: one tally per analytic issue.
            for _ in &writes {
                b.tally_pim_op();
            }
            assert_eq!(per_op, bulk, "completion series diverged");
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "channel state diverged after {writes:?}"
            );
        }
    }

    #[test]
    fn write_recovery_delays_precharge() {
        let mut ch = channel();
        ch.issue(DramCommand::Act { bank: 0, row: 1 }, 0);
        // Issue the write late enough that write recovery (not tRAS) is the
        // binding constraint on the subsequent precharge.
        let (tw, done) = issue_when_ready(&mut ch, DramCommand::Write { bank: 0 }, 20);
        let done = done.unwrap();
        assert_eq!(done, tw + 2 + 1); // tWL + burst
        let earliest_pre = done + 10; // + tWR
        assert!(earliest_pre > 28, "test setup: tWR must dominate tRAS here");
        assert!(!ch.can_issue(DramCommand::Pre { bank: 0 }, earliest_pre - 1));
        assert!(ch.can_issue(DramCommand::Pre { bank: 0 }, earliest_pre));
    }

    #[test]
    fn data_bus_serializes_bursts() {
        let mut ch = channel();
        ch.issue(DramCommand::Act { bank: 0, row: 1 }, 0);
        issue_when_ready(&mut ch, DramCommand::Act { bank: 4, row: 1 }, 1);
        let (t0, d0) = issue_when_ready(&mut ch, DramCommand::Read { bank: 0 }, 12);
        let (t1, d1) = issue_when_ready(&mut ch, DramCommand::Read { bank: 4 }, t0 + 1);
        assert!(d1.unwrap() > d0.unwrap(), "bursts must not overlap");
        assert!(t1 > t0);
    }

    #[test]
    fn pim_lockstep_act_and_ops() {
        let mut ch = channel();
        assert!(ch.can_issue(DramCommand::PimActAll { row: 9 }, 0));
        ch.issue(DramCommand::PimActAll { row: 9 }, 0);
        for b in 0..ch.num_banks() {
            assert_eq!(ch.open_row(b), Some(9));
        }
        // tRCD before the first op.
        assert!(!ch.can_issue(DramCommand::PimOp { writes_row: false }, 11));
        let (t0, _) = issue_when_ready(&mut ch, DramCommand::PimOp { writes_row: false }, 12);
        // Ops stream at tCCDl.
        assert!(!ch.can_issue(DramCommand::PimOp { writes_row: false }, t0 + 1));
        assert!(ch.can_issue(DramCommand::PimOp { writes_row: false }, t0 + 2));
        let s = ch.stats();
        assert_eq!(s.pim_blocks, 1);
        assert_eq!(s.pim_ops, 1);
        assert_eq!(s.acts, 16);
    }

    #[test]
    fn pim_act_all_requires_all_banks_closed() {
        let mut ch = channel();
        ch.issue(DramCommand::Act { bank: 3, row: 7 }, 0);
        assert!(!ch.can_issue(DramCommand::PimActAll { row: 9 }, 50));
        issue_when_ready(&mut ch, DramCommand::Pre { bank: 3 }, 28);
        let (_, _) = issue_when_ready(&mut ch, DramCommand::PimActAll { row: 9 }, 29);
    }

    #[test]
    fn quiescent_tracks_inflight_data() {
        let mut ch = channel();
        assert!(ch.quiescent(0));
        ch.issue(DramCommand::Act { bank: 0, row: 1 }, 0);
        assert!(ch.quiescent(0), "row commands carry no data");
        let (t0, d0) = issue_when_ready(&mut ch, DramCommand::Read { bank: 0 }, 12);
        let d0 = d0.unwrap();
        assert!(!ch.quiescent(t0));
        assert!(!ch.quiescent(d0 - 1));
        assert!(ch.quiescent(d0));
    }

    #[test]
    fn pre_all_closes_only_open_banks() {
        let mut ch = channel();
        assert!(
            !ch.can_issue(DramCommand::PreAll, 0),
            "PreAll needs at least one open bank"
        );
        ch.issue(DramCommand::Act { bank: 2, row: 4 }, 0);
        issue_when_ready(&mut ch, DramCommand::Act { bank: 9, row: 6 }, 1);
        // tRAS gates the earliest PreAll.
        let (t, _) = issue_when_ready(&mut ch, DramCommand::PreAll, 4);
        assert!(t >= 28 + 3, "both banks must satisfy tRAS");
        assert_eq!(ch.open_row(2), None);
        assert_eq!(ch.open_row(9), None);
        assert_eq!(ch.stats().pres, 2, "only open banks precharged");
    }

    #[test]
    fn command_bus_allows_one_command_per_cycle() {
        let mut ch = channel();
        ch.issue(DramCommand::Act { bank: 0, row: 1 }, 0);
        assert!(!ch.can_issue(DramCommand::Act { bank: 8, row: 1 }, 0));
        assert!(ch.can_issue(DramCommand::Act { bank: 8, row: 1 }, 3));
    }

    #[test]
    fn tfaw_limits_activate_bursts() {
        let dram = DramConfig::default();
        let timing = DramTiming {
            t_faw: 20,
            ..DramTiming::default()
        };
        let mut ch = Channel::new(&dram, &timing);
        // Four activates at the tRRD pace...
        let mut now = 0;
        for bank in 0..4 {
            let (t, _) = issue_when_ready(&mut ch, DramCommand::Act { bank, row: 1 }, now);
            now = t + 1;
        }
        // ...then the fifth must wait for the window to roll past the
        // first activate (t=0) + tFAW.
        let (t5, _) = issue_when_ready(&mut ch, DramCommand::Act { bank: 4, row: 1 }, now);
        assert!(t5 >= 20, "fifth ACT at {t5} violates tFAW");
        // Disabled (default) timing has no such stall.
        let mut ch0 = channel();
        let mut now = 0;
        for bank in 0..5 {
            let (t, _) = issue_when_ready(&mut ch0, DramCommand::Act { bank, row: 1 }, now);
            now = t + 1;
        }
        assert!(
            now <= 14,
            "tFAW=0 must allow ACTs at the tRRD pace (got {now})"
        );
    }

    #[test]
    fn twtr_separates_write_then_read() {
        let dram = DramConfig::default();
        let timing = DramTiming {
            t_wtr: 8,
            ..DramTiming::default()
        };
        let mut ch = Channel::new(&dram, &timing);
        ch.issue(DramCommand::Act { bank: 0, row: 1 }, 0);
        issue_when_ready(&mut ch, DramCommand::Act { bank: 4, row: 1 }, 1);
        let (tw, done) = issue_when_ready(&mut ch, DramCommand::Write { bank: 0 }, 15);
        let done = done.unwrap();
        let _ = tw;
        // A read on another bank must wait for write-end + tWTR.
        assert!(!ch.can_issue(DramCommand::Read { bank: 4 }, done + 7));
        assert!(ch.can_issue(DramCommand::Read { bank: 4 }, done + 8));
    }

    #[test]
    fn refresh_closes_banks_and_blocks_activates() {
        let dram = DramConfig::default();
        let timing = DramTiming {
            t_refi: 100,
            t_rfc: 50,
            ..DramTiming::default()
        };
        let mut ch = Channel::new(&dram, &timing);
        ch.issue(DramCommand::Act { bank: 0, row: 3 }, 0);
        // Run ticks past the refresh deadline; tRAS must elapse before the
        // channel can close the row.
        for now in 1..=130 {
            ch.tick(now);
        }
        assert_eq!(ch.open_row(0), None, "refresh must close the open row");
        assert_eq!(ch.stats().refreshes, 1);
        // Banks are unavailable for tRFC after the refresh executes.
        assert!(!ch.can_issue(DramCommand::Act { bank: 0, row: 4 }, 130));
        let (t, _) = issue_when_ready(&mut ch, DramCommand::Act { bank: 0, row: 4 }, 130);
        assert!(t >= 150, "ACT at {t} inside tRFC");
        // And the next refresh is scheduled.
        for now in t..(t + 400) {
            ch.tick(now);
        }
        assert!(ch.stats().refreshes >= 2);
    }

    #[test]
    fn no_refresh_by_default() {
        let mut ch = channel();
        for now in 0..100_000 {
            ch.tick(now);
        }
        assert_eq!(ch.stats().refreshes, 0);
    }

    #[test]
    fn auto_precharge_closes_the_row() {
        let mut ch = channel();
        ch.issue(DramCommand::Act { bank: 0, row: 5 }, 0);
        let (t, done) = issue_when_ready(&mut ch, DramCommand::ReadAuto { bank: 0 }, 12);
        assert!(done.is_some());
        assert_eq!(ch.open_row(0), None, "RDA must close the row");
        // Re-activation waits for the implied precharge (tRAS then tRP).
        assert!(!ch.can_issue(DramCommand::Act { bank: 0, row: 6 }, t + 1));
        let (t2, _) = issue_when_ready(&mut ch, DramCommand::Act { bank: 0, row: 6 }, t);
        assert!(
            t2 >= 28 + 12,
            "ACT at {t2} ignores the auto-precharge timing"
        );
        assert_eq!(ch.stats().pres, 1, "auto-precharge counts as a precharge");
    }

    #[test]
    fn write_auto_respects_write_recovery() {
        let mut ch = channel();
        ch.issue(DramCommand::Act { bank: 0, row: 5 }, 0);
        let (tw, done) = issue_when_ready(&mut ch, DramCommand::WriteAuto { bank: 0 }, 30);
        let done = done.unwrap();
        assert_eq!(done, tw + 3);
        assert_eq!(ch.open_row(0), None);
        // next ACT >= write end + tWR + tRP.
        let earliest = done + 10 + 12;
        assert!(!ch.can_issue(DramCommand::Act { bank: 0, row: 1 }, earliest - 1));
        assert!(ch.can_issue(DramCommand::Act { bank: 0, row: 1 }, earliest));
    }

    #[test]
    #[should_panic(expected = "illegal DRAM command")]
    fn illegal_issue_panics() {
        let mut ch = channel();
        let _ = ch.issue(DramCommand::Read { bank: 0 }, 0);
    }

    /// Regression: an all-idle channel must aggregate its busy time to
    /// `None`, not "busy until cycle 0" — the drain detector treated a
    /// never-used channel as having a burst ending at 0, which is
    /// indistinguishable from real work completing at cycle 0.
    #[test]
    fn busy_aggregation_reports_idle_as_none() {
        let mut ch = channel();
        assert_eq!(ch.busy_until(), None, "fresh channel has no busy time");
        for b in 0..ch.num_banks() {
            assert_eq!(ch.bank_busy_until(b), None);
        }
        // Row commands carry no data: still nothing to aggregate.
        ch.issue(DramCommand::Act { bank: 0, row: 1 }, 0);
        assert_eq!(ch.busy_until(), None, "ACT must not fabricate busy time");
        // A column access raises exactly the accessed bank.
        let (_, done) = issue_when_ready(&mut ch, DramCommand::Read { bank: 0 }, 12);
        let done = done.unwrap();
        assert_eq!(ch.busy_until(), Some(done));
        assert_eq!(ch.bank_busy_until(0), Some(done));
        assert_eq!(ch.bank_busy_until(1), None, "untouched bank stays None");
        assert_eq!(ch.busy_bank_mask(done - 1), 1, "bank 0 in flight");
        assert_eq!(ch.busy_bank_mask(done), 0, "data landed");
        // The aggregate is a high-water mark: it reports the completion
        // time even after it passes (quiescent() is the time-aware check).
        assert_eq!(ch.busy_until(), Some(done));
        assert!(ch.quiescent(done));
    }
}
