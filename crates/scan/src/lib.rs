//! Parallel prefix-sum (scan) algorithms for the Ascend architecture —
//! the paper's primary contribution.
//!
//! All algorithms are built on one linear-algebra fact: if `A` is the
//! row-major `s × s` matrix view of a vector tile, then `A @ U_s` (upper-
//! triangular ones) computes the *local* scans of the tile's rows on the
//! cube (matmul) engine. The variants differ in how partial sums are
//! propagated and how work is spread over cores:
//!
//! * [`scanu::scanu`] — **ScanU** (Algorithm 1): one cube core computes
//!   row-local scans, one vector core propagates partials per `s`-row.
//! * [`scanul1::scanul1`] — **ScanUL1** (Algorithm 2): the cube evaluates
//!   `scan(z) = A@U + L⁻@A@1` per `s²` tile using the accumulation
//!   buffer; the vector core adds one partial per tile. It is the
//!   batched ScanUL1 body at batch 1.
//! * [`mcscan::mcscan`] — **MCScan** (Algorithm 3): a multi-core scan in
//!   the Scan-Scan-Add family with *partial recomputation*: in phase 1
//!   cube cores write tile-local scans while vector cores independently
//!   recompute block reductions from the input; after a global barrier,
//!   phase 2 scans the block reductions in each vector core's UB and
//!   propagates. Supports inclusive/exclusive scans, fp16 and int8.
//! * [`MaskCounts`] — the counts behind every split of the `ops` crate:
//!   each vector core reduces byte masks over an equal element range,
//!   and after a `SyncAll` reads its range's offsets from the counts.
//!   A split needs no scan, only these counts. A radix-sort pass makes
//!   its masks from the raw keys instead: a [`Digit`] encodes them
//!   (`KeyEncode`), isolates the digit with one `And` and selects each
//!   run with one `Compare`, for any [`SortKey`].
//! * [`scanc::scanc`] — **ScanC**: a single-pass chained scan with
//!   decoupled look-back. No barrier and no recomputation read: each
//!   lane keeps its tile-local scans resident in UB, publishes its
//!   inclusive prefix to a per-lane global-memory mailbox guarded by a
//!   launch-wide grid flag, and its successor looks back instead of
//!   waiting at a `SyncAll`. Moves ~2·N element accesses less than
//!   MCScan at the cost of a serial per-lane flag chain.
//! * [`crossover`] — where `Device` scans switch from MCScan to ScanC,
//!   per dtype path, read off the committed `traffic` sweep.
//! * [`batched`] — batched variants of ScanU and ScanUL1 for
//!   multi-dimensional inputs.
//! * [`ablation`] — MCScan's classic competitors (strided totals, SSA,
//!   RSS), run on MCScan's own launch layout and stages.
//! * [`reduce`] — cube (`A @ 1_s`) and vector-only sum reductions.
//! * [`baseline::cumsum_vec_only`] — the vector-only `CumSum` kernel
//!   standing in for the AscendC CumSum API / `torch.cumsum` baseline.
//!
//! Every kernel is assembled from one crate-private toolkit, the `stage`
//! module: the cube tile pass (L0B constant, adaptive L0A/L0C queues,
//! zero-padded load, `mmad`, caller-supplied store), ScanUL1's
//! three-matmul tile, row propagation (`Adds` + `extract` per `s`-row),
//! chunk reduction (`vcast` + `ReduceSum` into `r[chunk]`) with the
//! chunk-offset read of `r[..chunk]` (which [`MaskCounts`] wraps), the
//! flag-id layout of the per-tile cube→vector hand-offs, and the one
//! `s`/grid validator.
//!
//! Functional results are bit-exact products of the simulated engines;
//! performance comes from the simulator's timing model ([`KernelReport`]).

#![forbid(unsafe_code)]

pub mod ablation;
pub mod baseline;
pub mod batched;
pub mod crossover;
pub mod mcscan;
pub mod reduce;
pub mod reference;
pub mod scanc;
pub mod scanu;
pub mod scanul1;
pub(crate) mod stage;
pub mod triangular;
pub(crate) mod util;

pub use ablation::{mcscan_variant, McScanVariant};
pub use baseline::cumsum_vec_only;
pub use batched::{batched_scanu, batched_scanul1};
pub use mcscan::{mcscan, McLayout, McScanConfig, ScanKind};
pub use reduce::{reduce_cube, reduce_vec, ReduceRun};
pub use scanc::{scanc, ScanCConfig};
pub use scanu::scanu;
pub use scanul1::scanul1;
pub use stage::{Chunk, Digit, MaskCounts, SortKey};
pub use util::tile_spans;

use ascendc::{GlobalTensor, KernelReport};
use dtypes::Element;

/// Result of a scan kernel: the output tensor plus the execution report.
pub struct ScanRun<O: Element> {
    /// The scanned output array.
    pub y: GlobalTensor<O>,
    /// Simulated execution report (time, traffic, utilization).
    pub report: KernelReport,
}

/// Fills in the report fields that follow the paper's reporting
/// convention for a length-`n` scan with input element size `in_size`
/// and output element size `out_size`.
pub(crate) fn finish_report(report: &mut KernelReport, n: usize, in_size: usize, out_size: usize) {
    report.elements = n as u64;
    report.useful_bytes = (n * (in_size + out_size)) as u64;
}
