//! **ScanUL1** (Algorithm 2): the single-core scan based on the matrix
//! identity (Equation 1, first derived in Dakkak et al. ICS'19):
//!
//! ```text
//! scan(z) = A @ U_s  +  L_s^- @ A @ 1_s
//! ```
//!
//! where `A` is the `s × s` row-major view of a `ℓ = s²` tile of `z`.
//! The cube evaluates the identity as three matmuls per tile —
//! `C₁ = A @ 1ₛ`, `C₂ = A @ Uₛ`, `C₂ += L⁻ₛ @ C₁` — sharing the left
//! operand `A` between the first two (one L0A load) and reusing the
//! accumulation buffer for the third. The vector core then adds a single
//! partial per `ℓ` tile (versus one per `s`-row in ScanU), which is why
//! ScanUL1 is roughly 2× faster than ScanU at large input lengths.

use crate::batched::ul1_rows;
use crate::ScanRun;
use ascend_sim::mem::GlobalMemory;
use ascendc::{ChipSpec, GlobalTensor, SimResult};
use dtypes::{CubeInput, Numeric};
use std::sync::Arc;

/// Runs ScanUL1 over `x` with tile dimension `s`, producing the
/// inclusive scan in element type `O`.
///
/// Precision note: the intermediate `C₁` is cast from the accumulator
/// type back to `T` when staged through L1 (the FIXP quantization path),
/// exactly as the fp16 pipeline on hardware does — partial row sums must
/// fit `T`'s range. Uses a single AI core: this is the batched ScanUL1
/// body ([`crate::batched_scanul1`]) at batch 1, under the kernel name
/// `ScanUL1`.
pub fn scanul1<T, O>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    x: &GlobalTensor<T>,
    s: usize,
) -> SimResult<ScanRun<O>>
where
    T: CubeInput,
    O: Numeric,
{
    ul1_rows(spec, gm, x, 1, x.len(), s, "ScanUL1")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::scanu::scanu;
    use dtypes::F16;

    fn setup() -> (ChipSpec, Arc<GlobalMemory>) {
        let spec = ChipSpec::tiny();
        let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
        (spec, gm)
    }

    #[test]
    fn matches_reference_full_tiles() {
        let (spec, gm) = setup();
        // Keep |row sums| <= 127 so the C1 cast to i8 is exact: values
        // in {-2..2} over s=16 rows give |row sum| <= 32.
        let data: Vec<i8> = (0..512).map(|i| (i % 5) as i8 - 2).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = scanul1::<i8, i32>(&spec, &gm, &x, 16).unwrap();
        assert_eq!(
            run.y.to_vec(),
            reference::inclusive_widening::<i8, i32>(&data)
        );
    }

    #[test]
    fn matches_reference_partial_tail() {
        let (spec, gm) = setup();
        let data: Vec<i8> = (0..777).map(|i| ((i * 3) % 4) as i8 - 1).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = scanul1::<i8, i32>(&spec, &gm, &x, 16).unwrap();
        assert_eq!(
            run.y.to_vec(),
            reference::inclusive_widening::<i8, i32>(&data)
        );
    }

    #[test]
    fn fp16_small_values() {
        let (spec, gm) = setup();
        let data: Vec<F16> = (0..600).map(|i| F16::from_f32((i % 3) as f32)).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = scanul1::<F16, F16>(&spec, &gm, &x, 16).unwrap();
        assert_eq!(run.y.to_vec(), reference::inclusive(&data));
    }

    #[test]
    fn agrees_with_scanu() {
        let (spec, gm) = setup();
        let data: Vec<i8> = (0..1500).map(|i| ((i * 11) % 7) as i8 - 3).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let a = scanu::<i8, i32>(&spec, &gm, &x, 16).unwrap();
        let b = scanul1::<i8, i32>(&spec, &gm, &x, 16).unwrap();
        assert_eq!(a.y.to_vec(), b.y.to_vec());
    }

    #[test]
    fn faster_than_scanu_at_large_n() {
        // The paper's headline single-core result: ScanUL1 ≈ 2× ScanU.
        let spec = ChipSpec::ascend_910b4();
        let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
        let n = 1 << 20;
        let data: Vec<i8> = vec![1i8; n];
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let u = scanu::<i8, i32>(&spec, &gm, &x, 128).unwrap();
        let ul1 = scanul1::<i8, i32>(&spec, &gm, &x, 128).unwrap();
        let ratio = u.report.time_s() / ul1.report.time_s();
        assert!(
            ratio > 1.5 && ratio < 4.0,
            "ScanUL1 should be ~2x faster than ScanU, got {ratio:.2}x"
        );
    }

    #[test]
    fn rejects_bad_tile_size() {
        let (spec, gm) = setup();
        let x = GlobalTensor::from_slice(&gm, &[1i8, 2, 3]).unwrap();
        assert!(scanul1::<i8, i32>(&spec, &gm, &x, 7).is_err());
    }
}
