//! Where `Device` scans switch from MCScan to ScanC.
//!
//! ScanC moves 8 B/elem instead of MCScan's 10 for fp16 (9 vs 10 for
//! int8 masks) but pays a serial look-back chain and launches wide grids,
//! so it only wins once a scan is large enough to be bandwidth-bound. The
//! crossover is read off the committed `traffic` sweep of
//! `BENCH_scan.json` (MCScan vs ScanC per size and dtype): it is the
//! smallest swept size from which ScanC keeps up with MCScan on every
//! larger row. `benchcheck` recomputes it from the ledger with
//! [`crossover_from_sweep`] and fails when it disagrees with
//! [`ScanPath::crossover_tiles`], so the constants cannot drift from the
//! measurements they encode.
//!
//! Crossovers are counted in tiles of `ℓ = s²` elements, so they carry
//! over to chips whose scratchpads force a smaller `s`.

use dtypes::{DType, Element};

/// A scan shape `Device` dispatches by size, one per `traffic` dtype.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScanPath {
    /// `F16 → F16 → F16` (`Device::cumsum` on fp16).
    Fp16,
    /// `u8 → i16 → i32` (`Device::mask_exclusive_scan`).
    Int8,
}

impl ScanPath {
    /// Both paths, in ledger order.
    pub const ALL: [ScanPath; 2] = [ScanPath::Fp16, ScanPath::Int8];

    /// The path a `<T, M, O>` scan takes, if it has a measured crossover.
    pub fn of<T: Element, M: Element, O: Element>() -> Option<ScanPath> {
        match (T::DTYPE, M::DTYPE, O::DTYPE) {
            (DType::F16, DType::F16, DType::F16) => Some(ScanPath::Fp16),
            (DType::U8, DType::I16, DType::I32) => Some(ScanPath::Int8),
            _ => None,
        }
    }

    /// The `dtype` label of this path's `traffic` rows.
    pub const fn label(self) -> &'static str {
        match self {
            ScanPath::Fp16 => "fp16",
            ScanPath::Int8 => "int8",
        }
    }

    /// Scans of at least this many `ℓ`-element tiles run ScanC. On the
    /// 910B4 (`ℓ = 16384`): 2M elements for fp16, where ScanC's 8-vs-10
    /// B/elem pays for its chain; 4M for int8, whose 9-vs-10 B/elem edge
    /// only covers the chain there.
    pub const fn crossover_tiles(self) -> usize {
        match self {
            ScanPath::Fp16 => 128,
            ScanPath::Int8 => 256,
        }
    }
}

/// Whether an `n`-element `<T, M, O>` scan with `ℓ`-element tiles runs
/// ScanC: at or above its path's crossover. Paths without a measured
/// crossover stay on MCScan.
pub fn picks_scanc<T: Element, M: Element, O: Element>(n: usize, l: usize) -> bool {
    ScanPath::of::<T, M, O>().is_some_and(|p| n >= p.crossover_tiles() * l)
}

/// The ledger's rule for "ScanC keeps up with MCScan": no more than 2%
/// slower (the 2% absorbs rounding in the fixed-point `time_us`
/// formatting).
pub fn scanc_keeps_up(mcscan_us: f64, scanc_us: f64) -> bool {
    mcscan_us > 0.0 && scanc_us > 0.0 && scanc_us <= mcscan_us * 1.02
}

/// The crossover a sweep of `(n, mcscan_us, scanc_us)` rows implies, in
/// `l`-element tiles: the smallest swept `n` from which ScanC keeps up on
/// that row and every larger one. `None` when ScanC trails at the
/// largest size, or for an empty tile (`l == 0`).
pub fn crossover_from_sweep(rows: &[(usize, f64, f64)], l: usize) -> Option<usize> {
    if l == 0 {
        return None;
    }
    let mut rows = rows.to_vec();
    rows.sort_by_key(|r| r.0);
    rows.iter()
        .rev()
        .take_while(|&&(_, mc, sc)| scanc_keeps_up(mc, sc))
        .last()
        .map(|&(n, _, _)| n.div_ceil(l))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtypes::F16;

    #[test]
    fn only_the_measured_paths_dispatch() {
        assert_eq!(ScanPath::of::<F16, F16, F16>(), Some(ScanPath::Fp16));
        assert_eq!(ScanPath::of::<u8, i16, i32>(), Some(ScanPath::Int8));
        assert_eq!(ScanPath::of::<f32, f32, f32>(), None);
        assert!(!picks_scanc::<f32, f32, f32>(usize::MAX, 1));
        let l = 1024;
        assert!(!picks_scanc::<F16, F16, F16>(128 * l - 1, l));
        assert!(picks_scanc::<F16, F16, F16>(128 * l, l));
        assert!(!picks_scanc::<u8, i16, i32>(256 * l - 1, l));
        assert!(picks_scanc::<u8, i16, i32>(256 * l, l));
    }

    #[test]
    fn sweep_crossover_is_the_start_of_the_winning_tail() {
        let l = 16384;
        // ScanC wins small, loses mid-range, then wins from 2M on.
        let rows = [
            (1 << 21, 34.3, 29.4),
            (4096, 8.4, 6.9),
            (1 << 20, 20.9, 26.6),
            (3 << 20, 44.16, 44.36),
            (1 << 22, 57.5, 47.2),
        ];
        assert_eq!(crossover_from_sweep(&rows, l), Some(128));
        // Row order does not matter; a loss at the largest size means no
        // crossover.
        assert_eq!(crossover_from_sweep(&rows[..3], l), Some(128));
        assert_eq!(crossover_from_sweep(&rows[1..3], l), None);
        assert_eq!(crossover_from_sweep(&[], l), None);
        assert_eq!(crossover_from_sweep(&rows, 0), None);
    }
}
