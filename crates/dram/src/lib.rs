//! Cycle-level DRAM model with bank-level processing-in-memory.
//!
//! This crate models the memory devices of the paper's PIM-enabled GPU
//! (Figure 1): per-channel banks with row buffers and full command timing
//! (Table I), plus the all-bank lock-step PIM execution mode and the PIM
//! functional units' register files. Substrates are selected through the
//! [`backend`] registry — HBM (the paper's Table I machine) and
//! LPDDR5X-PIM (per-rank PIM units, tFAW/tWTR enabled) ship in-tree, and
//! all of the timing-legality machinery is parameterized rather than
//! substrate-specific.
//!
//! The model is a *mechanism* layer: it enforces DRAM legality, while
//! scheduling decisions (which request, which mode) live in `pimsim-core`.
//!
//! Deliberate simplifications (documented in `DESIGN.md`): no refresh, no
//! read/write bus-turnaround penalty beyond data-bus occupancy, and no
//! power model.
//!
//! # Example
//!
//! ```
//! use pimsim_dram::{Channel, DramCommand};
//! use pimsim_types::{DramConfig, DramTiming};
//!
//! let mut ch = Channel::new(&DramConfig::default(), &DramTiming::default());
//! ch.issue(DramCommand::Act { bank: 0, row: 42 }, 0);
//! assert_eq!(ch.open_row(0), Some(42));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod channel;
pub mod energy;
pub mod mapping;
pub mod pim;

pub use backend::{BackendDescriptor, BackendParseError, DramBackend};
pub use channel::{BankReleases, Channel, ChannelStats, DramCommand};
pub use energy::{channel_energy, EnergyBreakdown, EnergyConfig};
pub use mapping::AddressMapper;
pub use pim::{PimEngine, RfDisciplineError};
