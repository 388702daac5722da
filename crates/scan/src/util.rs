//! Shared tiling helpers for the scan kernels.

use ascendc::{ChipSpec, SimError, SimResult};
use dtypes::{CubeInput, Element};

/// The paper's tile dimension: `s = 128` fills the 910B4's L0A/L0B with
/// fp16 tiles, and keeps a tile-local int8 mask scan within `i16`.
pub(crate) const PAPER_S: usize = 128;

/// The largest tile dimension `s ≤ 128` (a multiple of 16) whose
/// `ℓ = s²` tile fits the chip for a `<T, M, O>` cube scan: one input
/// tile in each of L0A and L0B, one accumulator tile in L0C, and one
/// input-or-intermediate tile next to one output tile in UB (plus a
/// little room for the per-lane scalars). Falls back to 16, whose launch
/// then reports the overflow.
pub(crate) fn tile_dim<T: CubeInput, M: Element, O: Element>(spec: &ChipSpec) -> usize {
    let fits = |s: usize| {
        let l = s * s;
        l * T::SIZE <= spec.l0a_capacity.min(spec.l0b_capacity)
            && l * <T::Acc as Element>::SIZE <= spec.l0c_capacity
            && l * (T::SIZE.max(M::SIZE) + O::SIZE) + 256 <= spec.ub_capacity
    };
    (1..=PAPER_S / 16)
        .rev()
        .map(|k| 16 * k)
        .find(|&s| fits(s))
        .unwrap_or(16)
}

/// Splits `[0, n)` into spans of at most `tile` elements:
/// `(offset, valid)` pairs in order. The one piece list of the
/// workspace: the scan kernels tile with it and the `ops` kernels cut
/// their pieces with it. A zero `tile` cannot cover anything and is a
/// [`SimError::InvalidArgument`].
pub fn tile_spans(n: usize, tile: usize) -> SimResult<Vec<(usize, usize)>> {
    if tile == 0 {
        return Err(SimError::InvalidArgument(format!(
            "tile_spans: {n} elements cannot be cut into tiles of 0"
        )));
    }
    let mut spans = Vec::with_capacity(n.div_ceil(tile));
    let mut off = 0;
    while off < n {
        let valid = tile.min(n - off);
        spans.push((off, valid));
        off += valid;
    }
    Ok(spans)
}

/// Splits `count` items across `parts` contiguous chunks of
/// `⌈count / parts⌉` items until they run out: returns `(start, len)` per
/// chunk (the trailing ones may be empty). Kernel `what` gets a typed
/// error when there is no chunk to split over (a chip without vector
/// cores).
pub(crate) fn partition(what: &str, count: usize, parts: usize) -> SimResult<Vec<(usize, usize)>> {
    if parts == 0 {
        return Err(SimError::InvalidArgument(format!(
            "{what}: the chip has no vector cores to split the work over"
        )));
    }
    let per = count.div_ceil(parts);
    Ok((0..parts)
        .map(|p| {
            let start = (p * per).min(count);
            let end = ((p + 1) * per).min(count);
            (start, end - start)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_cover_exactly() {
        assert_eq!(tile_spans(10, 4).unwrap(), vec![(0, 4), (4, 4), (8, 2)]);
        assert_eq!(tile_spans(8, 4).unwrap(), vec![(0, 4), (4, 4)]);
        assert_eq!(tile_spans(3, 4).unwrap(), vec![(0, 3)]);
        assert!(tile_spans(0, 4).unwrap().is_empty());
    }

    #[test]
    fn partition_is_balanced_and_total() {
        let p = partition("t", 10, 3).unwrap();
        assert_eq!(p, vec![(0, 4), (4, 4), (8, 2)]);
        let p = partition("t", 2, 4).unwrap();
        assert_eq!(p, vec![(0, 1), (1, 1), (2, 0), (2, 0)]);
        let total: usize = partition("t", 1000, 7)
            .unwrap()
            .iter()
            .map(|&(_, l)| l)
            .sum();
        assert_eq!(total, 1000);
    }
}
