//! GPU execution model: SMs as calibrated memory-request generators.
//!
//! The paper's analysis depends on each kernel's *memory behaviour* —
//! interconnect/DRAM arrival rates, bank-level parallelism, row-buffer
//! locality, L2 reuse — not on its arithmetic. This crate models kernels
//! as parameterized request generators (see `DESIGN.md` for the
//! substitution rationale):
//!
//! * [`SyntheticGpuKernel`] — a regular (MEM) kernel: per-SM paced issue,
//!   multiple address streams for bank-level parallelism, tunable row
//!   locality and L2 reuse.
//! * [`PimKernelModel`] — a PIM kernel with the exact block structure of
//!   Figure 3: per-channel warps issue `load*/compute*/store*` blocks in
//!   strict (Orderlight) order as cache-streaming stores.
//! * [`TraceRecorder`] / [`TraceKernel`] — capture any kernel's memory
//!   trace and replay it deterministically (trace-driven simulation).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kernel;
pub mod pim_kernel;
pub mod synthetic;
pub mod trace;

pub use kernel::{IssuedRequest, KernelModel};
pub use pim_kernel::{PimKernelModel, PimKernelSpec, PimPhase};
pub use synthetic::{GpuKernelParams, SyntheticGpuKernel};
pub use trace::{
    read_trace, write_trace, TraceKernel, TraceKernelError, TraceRecord, TraceRecorder,
};
