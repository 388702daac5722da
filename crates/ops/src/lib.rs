//! Scan-based computational operators (the paper's Section 5), built on
//! the [`scan`] crate:
//!
//! * [`split::split_ind`] — **SplitInd**: stable partition of an array by
//!   a boolean mask, also returning the original indices (the PyTorch
//!   `sort()`-compatible building block).
//! * [`compress::compress`] — **Compress/compact**: `masked_select`.
//! * [`radix_sort::radix_sort`] — LSB radix sort (stable, values +
//!   indices) of one split per digit, one bit per pass as in the paper
//!   or two (a 4-way split over three digit masks per pass); supports
//!   unsigned/signed integers and `f16` via the order-preserving
//!   encode/decode pre/post-passes.
//! * [`topk::topk`] — top-k selection as the first `k` of the descending
//!   radix sort (reproducing the paper's *negative* result for small k).
//! * [`topp::top_p_sample`] — Llama3-style top-p (nucleus) sampling:
//!   descending radix sort + scan + threshold + weighted draw.
//! * [`weighted::weighted_sample`] — inverse-transform weighted sampling
//!   with unbounded support size.
//! * [`baselines`] — the PyTorch-Ascend operators the paper measures
//!   against (`torch.clone`, `torch.masked_select`, `torch.sort`,
//!   `torch.multinomial`, baseline top-k), implemented either as real
//!   simulator kernels or as documented cost models.
//!
//! The paper builds every split from an exclusive int8 MCScan of the
//! mask and a scatter. A scatter needs only each run's count before a
//! piece, so every split here counts instead ([`scan::MaskCounts`]):
//! phase I reduces the mask over one equal element range per vector
//! core, and after a `SyncAll` each vector core scatters its range from
//! its offset, advancing each run by the count `GatherMask` returns. A
//! split on its own is one launch; radix sort runs all of its splits,
//! between its encode and decode, inside one launch of its own, so a
//! top-k is one launch and a top-p draw 4. The other kernels cut their pieces with
//! [`scan::tile_spans`] and deal them to vector cores with
//! `for_each_lane`.
//!
//! Every launch runs on all of the chip's AI cores, as in the paper's
//! evaluation: no entry point takes a block count, so no launch is
//! oversubscribed and all of its blocks are co-resident. Two launches
//! use fewer: [`alias_sample_many`] sizes its grid from the number of
//! draws, and the `torch.cumsum` stand-in ([`baselines::cumsum`]) is
//! single-core. The tile dimension `s` of the MCScan launches (top-p's
//! CDF, weighted sampling, the alias table's total) stays an argument;
//! the splits have none.

#![forbid(unsafe_code)]

pub mod alias;
pub mod baselines;
pub mod compress;
pub mod radix_sort;
pub mod split;
pub mod topk;
pub mod topp;
pub mod weighted;

pub use alias::{alias_sample_many, build_alias_table, AliasTable};
pub use compress::compress;
pub use radix_sort::{radix_sort, SortOrder, SortRun, SORT_DIGIT_BITS};
pub use split::{split_ind, SplitRun};
pub use topk::topk;
pub use topp::{top_p_sample, top_p_sample_batch};
pub use weighted::weighted_sample;

use ascend_sim::mem::GlobalMemory;
use ascend_sim::KernelReport;
use ascendc::{BlockCtx, ChipSpec, Core, GlobalTensor, SimResult};
use dtypes::CubeInput;
use scan::mcscan::{McScanConfig, ScanKind};
use scan::ScanRun;
use std::iter::{Skip, StepBy};
use std::sync::Arc;

/// Largest power-of-two piece length (in elements) such that a kernel
/// needing `bytes_per_elem` UB bytes per element stays within the
/// Unified Buffer, capped at `cap` elements. Lets the same kernels run
/// on the tiny test chip and the 910B4 preset.
pub(crate) fn ub_piece(spec: &ChipSpec, bytes_per_elem: usize, cap: usize) -> usize {
    let max_elems = spec.ub_capacity / bytes_per_elem.max(1);
    let mut p = 64;
    while p * 2 <= max_elems && p * 2 <= cap {
        p *= 2;
    }
    p
}

/// Runs `body` on each vector core of a block, handing it the core's
/// lane (`block_idx · vecs + v`) and its share of `items`: items are
/// dealt round-robin over all `block_dim · vecs` lanes of the launch.
pub(crate) fn for_each_lane<'a, I: Iterator + Clone>(
    ctx: &mut BlockCtx<'a>,
    items: I,
    mut body: impl FnMut(&mut Core<'a>, usize, StepBy<Skip<I>>) -> SimResult<()>,
) -> SimResult<()> {
    let vecs = ctx.vecs.len();
    let lanes = ctx.block_dim as usize * vecs;
    for (v, vc) in ctx.vecs.iter_mut().enumerate() {
        let lane = ctx.block_idx as usize * vecs + v;
        body(vc, lane, items.clone().skip(lane).step_by(lanes))?;
    }
    Ok(())
}

/// Inclusive MCScan of `x` at tile dimension `s` on all of the chip's
/// AI cores: the scan behind top-p's CDF, weighted sampling and the
/// alias table's total.
pub(crate) fn inclusive_scan<T: CubeInput>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    x: &GlobalTensor<T>,
    s: usize,
) -> SimResult<ScanRun<T>> {
    let cfg = McScanConfig {
        s,
        blocks: spec.ai_cores,
        kind: ScanKind::Inclusive,
    };
    scan::mcscan::mcscan::<T, T, T>(spec, gm, x, cfg)
}

/// The report of an operator given no elements: one launch's fixed
/// cost and nothing else. Modeled reports start from it too.
pub(crate) fn empty_report(spec: &ChipSpec, name: &str) -> KernelReport {
    KernelReport {
        name: name.into(),
        blocks: 0,
        cycles: spec.launch_cycles,
        clock_ghz: spec.clock_ghz,
        bytes_read: 0,
        bytes_written: 0,
        useful_bytes: 0,
        elements: 0,
        working_set: 0,
        engine_busy: [0; 7],
        engine_instructions: [0; 7],
        sync_rounds: 0,
        stalls: Default::default(),
        barrier_waits: Vec::new(),
        flag_waits: Vec::new(),
        critical_path: None,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The scans a profiled pipeline ran: one phase I span per MCScan or
    /// split on block 0, whichever launch it ran in.
    pub(crate) fn scans(profile: &ascend_sim::prof::Profile) -> usize {
        profile
            .kernels
            .iter()
            .flat_map(|k| &k.spans)
            .filter(|s| {
                s.name == "Phase I" && s.block == 0 && s.core == ascend_sim::prof::BLOCK_SCOPE
            })
            .count()
    }

    /// The tiny chip cut to `ai_cores` AI cores, and a memory for it:
    /// every launch of an operator runs on that many blocks.
    pub(crate) fn tiny_with_cores(ai_cores: u32) -> (ChipSpec, Arc<GlobalMemory>) {
        let spec = ChipSpec {
            ai_cores,
            ..ChipSpec::tiny()
        };
        let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
        (spec, gm)
    }
}
