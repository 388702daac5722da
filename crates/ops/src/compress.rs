//! **Compress** (compact): keep only the mask-selected elements —
//! the equivalent of PyTorch's `torch.masked_select`.
//!
//! Compress is the true-side half of [`crate::split::split_ind`] and
//! runs as the same one launch: phase I counts the mask per chunk, and
//! phase II gathers each chunk's selected elements from its offset on.
//! No indices are made and no true count is reduced on the device; the
//! output is allocated at `n` and returned as its first `n_true`
//! elements. The paper's Fig. 10 benchmarks this against the
//! (scalar-bound) `torch.masked_select` baseline.

use crate::split::{Masks, SplitStore};
use ascend_sim::mem::GlobalMemory;
use ascend_sim::KernelReport;
use ascendc::{ChipSpec, GlobalTensor, SimError, SimResult};
use dtypes::Element;
use std::sync::Arc;

/// Result of [`compress`].
pub struct CompressRun<E: Element> {
    /// The selected elements, in order.
    pub values: GlobalTensor<E>,
    /// Number of selected elements (`values.len()`).
    pub n_true: usize,
    /// Combined execution report.
    pub report: KernelReport,
}

/// Compacts the mask-selected elements of `x` into a dense output, as
/// one launch on all of the chip's AI cores.
pub fn compress<E: Element>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    x: &GlobalTensor<E>,
    mask: &GlobalTensor<u8>,
) -> SimResult<CompressRun<E>> {
    if x.len() != mask.len() {
        return Err(SimError::InvalidArgument(format!(
            "compress: values ({}) and mask ({}) lengths differ",
            x.len(),
            mask.len()
        )));
    }
    let n = x.len();
    if n == 0 {
        return Ok(CompressRun {
            values: GlobalTensor::<E>::new(gm, 0)?,
            n_true: 0,
            report: crate::empty_report(spec, "Compress"),
        });
    }

    let out = GlobalTensor::<E>::new(gm, n)?;
    let (n_true, mut report) = SplitStore {
        vals: x,
        idx_in: None,
        masks: Masks::Gm(mask),
        vals_out: &out,
        idx_out: None,
        false_side: false,
    }
    .launch(spec, gm)?;
    let values = out.slice(0, n_true)?;
    report.name = "Compress".into();
    report.elements = n as u64;
    report.useful_bytes = (n * (E::SIZE + 1) + n_true * E::SIZE) as u64;
    Ok(CompressRun {
        values,
        n_true,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtypes::F16;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup() -> (ChipSpec, Arc<GlobalMemory>) {
        let spec = ChipSpec::tiny();
        let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
        (spec, gm)
    }

    #[test]
    fn matches_filter_reference() {
        let (spec, gm) = setup();
        let mut rng = StdRng::seed_from_u64(7);
        for n in [1usize, 100, 2048, 4100] {
            let data: Vec<u16> = (0..n).map(|_| rng.gen()).collect();
            let mask: Vec<u8> = (0..n).map(|_| u8::from(rng.gen_bool(0.5))).collect();
            let x = GlobalTensor::from_slice(&gm, &data).unwrap();
            let m = GlobalTensor::from_slice(&gm, &mask).unwrap();
            let run = compress(&spec, &gm, &x, &m).unwrap();
            let expect: Vec<u16> = data
                .iter()
                .zip(&mask)
                .filter(|&(_, &m)| m != 0)
                .map(|(&v, _)| v)
                .collect();
            assert_eq!(run.n_true, expect.len());
            assert_eq!(run.values.to_vec(), expect, "n = {n}");
        }
    }

    #[test]
    fn f16_values() {
        let (spec, gm) = setup();
        let data: Vec<F16> = (0..300).map(|i| F16::from_f32(i as f32)).collect();
        let mask: Vec<u8> = (0..300).map(|i| u8::from(i % 3 == 0)).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let m = GlobalTensor::from_slice(&gm, &mask).unwrap();
        let run = compress(&spec, &gm, &x, &m).unwrap();
        let expect: Vec<F16> = data
            .iter()
            .zip(&mask)
            .filter(|&(_, &m)| m != 0)
            .map(|(&v, _)| v)
            .collect();
        assert_eq!(run.values.to_vec(), expect);
    }

    #[test]
    fn nothing_selected() {
        let (spec, gm) = crate::tests::tiny_with_cores(1);
        let x = GlobalTensor::from_slice(&gm, &[5u16; 100]).unwrap();
        let m = GlobalTensor::from_slice(&gm, &[0u8; 100]).unwrap();
        let run = compress(&spec, &gm, &x, &m).unwrap();
        assert_eq!(run.n_true, 0);
        assert!(run.values.to_vec().is_empty());
    }

    #[test]
    fn empty_and_mismatch() {
        let (spec, gm) = crate::tests::tiny_with_cores(1);
        let x = GlobalTensor::<u16>::new(&gm, 0).unwrap();
        let m = GlobalTensor::<u8>::new(&gm, 0).unwrap();
        assert_eq!(compress(&spec, &gm, &x, &m).unwrap().n_true, 0);
        let x = GlobalTensor::from_slice(&gm, &[1u16]).unwrap();
        let m2 = GlobalTensor::from_slice(&gm, &[1u8, 1]).unwrap();
        assert!(compress(&spec, &gm, &x, &m2).is_err());
    }
}
