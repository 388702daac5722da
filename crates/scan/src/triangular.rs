//! Builders for the constant matrices the scan algorithms multiply by:
//! `U_s` (upper-triangular ones, including the diagonal), `L_s^-`
//! (strictly lower-triangular ones) and `1_s` (all ones). Row-major,
//! size `s × s`.
//!
//! On the real device these are pre-allocated once by the PyTorch
//! operator wrapper; kernels here likewise upload them once per launch
//! and stage them in L1.

use ascend_sim::mem::GlobalMemory;
use ascendc::{GlobalTensor, SimResult};
use dtypes::Numeric;
use std::sync::Arc;

/// `U_s`: ones on and above the main diagonal.
pub fn upper_ones<T: Numeric>(s: usize) -> Vec<T> {
    build(s, |i, j| i <= j)
}

/// `L_s^-`: ones strictly below the main diagonal.
pub fn strict_lower_ones<T: Numeric>(s: usize) -> Vec<T> {
    build(s, |i, j| i > j)
}

/// `1_s`: the all-ones matrix.
pub fn all_ones<T: Numeric>(s: usize) -> Vec<T> {
    vec![T::one(); s * s]
}

fn build<T: Numeric>(s: usize, pred: impl Fn(usize, usize) -> bool) -> Vec<T> {
    let mut m = Vec::with_capacity(s * s);
    for i in 0..s {
        for j in 0..s {
            m.push(if pred(i, j) { T::one() } else { T::zero() });
        }
    }
    m
}

/// The constant matrices a scan kernel may need, uploaded to global
/// memory once (mirrors the paper's statically pre-allocated `U_s`).
pub struct ScanConstants<T: Numeric> {
    /// Tile dimension `s`.
    pub s: usize,
    /// `U_s` in global memory.
    pub upper: GlobalTensor<T>,
    /// `L_s^-` in global memory.
    pub strict_lower: GlobalTensor<T>,
    /// `1_s` in global memory.
    pub ones: GlobalTensor<T>,
}

impl<T: Numeric> ScanConstants<T> {
    /// Uploads `U_s`, `L_s^-` and `1_s` for tile size `s`.
    pub fn upload(gm: &Arc<GlobalMemory>, s: usize) -> SimResult<Self> {
        Ok(ScanConstants {
            s,
            upper: GlobalTensor::from_slice(gm, &upper_ones::<T>(s))?,
            strict_lower: GlobalTensor::from_slice(gm, &strict_lower_ones::<T>(s))?,
            ones: GlobalTensor::from_slice(gm, &all_ones::<T>(s))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtypes::F16;

    #[test]
    fn upper_ones_pattern() {
        let u = upper_ones::<i8>(3);
        assert_eq!(u, vec![1, 1, 1, 0, 1, 1, 0, 0, 1]);
    }

    #[test]
    fn strict_lower() {
        let lm = strict_lower_ones::<i32>(3);
        assert_eq!(lm, vec![0, 0, 0, 1, 0, 0, 1, 1, 0]);
        // U + L^- = all-ones.
        let u = upper_ones::<i32>(3);
        let sum: Vec<i32> = u.iter().zip(&lm).map(|(a, b)| a + b).collect();
        assert_eq!(sum, all_ones::<i32>(3));
    }

    #[test]
    fn f16_matrices() {
        let u = upper_ones::<F16>(2);
        assert_eq!(u, vec![F16::ONE, F16::ONE, F16::ZERO, F16::ONE]);
        assert_eq!(all_ones::<F16>(2), vec![F16::ONE; 4]);
    }

    #[test]
    fn upload_constants() {
        let gm = Arc::new(GlobalMemory::new(1 << 20));
        let c = ScanConstants::<i8>::upload(&gm, 4).unwrap();
        assert_eq!(c.upper.to_vec(), upper_ones::<i8>(4));
        assert_eq!(c.strict_lower.to_vec(), strict_lower_ones::<i8>(4));
        assert_eq!(c.ones.to_vec(), all_ones::<i8>(4));
        assert_eq!(c.s, 4);
    }
}
