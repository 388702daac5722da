//! **Top-k selection** as the head of the sort.
//!
//! `topk` runs the one-launch descending [`radix_sort`] with
//! [`SORT_DIGIT_BITS`]-bit digits and returns its first `k` values and
//! indices: largest first, equal keys by lower index (`torch.topk`'s
//! `sorted=True` order). For fp16 keys that is one `RadixSort` launch
//! of 17 barriers at every `k`.
//!
//! The paper builds top-k from SplitInd as a bitwise partial
//! quickselect, which needs the host to read each pass's true count
//! before it can choose the next window: a launch per pass, each pass
//! re-reading the candidate window. With every radix pass inside one
//! launch, sorting all `n` keys costs less simulated time than selecting
//! at every size probed, so the selection is gone.
//!
//! **Expectation management**: the paper reports a *negative* result —
//! a split-based top-k does not beat the baseline `top-k` operator for
//! small `k` (≤ 4096), because every pass reads the whole input. The
//! benchmark harness reproduces that finding.
//!
//! [`radix_sort`]: crate::radix_sort::radix_sort

use crate::radix_sort::{radix_sort, SortOrder, SORT_DIGIT_BITS};
use ascend_sim::mem::GlobalMemory;
use ascend_sim::KernelReport;
use ascendc::vecops::Bits;
use ascendc::{ChipSpec, GlobalTensor, SimError, SimResult};
use dtypes::{Element, Numeric, RadixKey};
use std::sync::Arc;

/// Result of [`topk`].
pub struct TopKRun<K: Element> {
    /// The k largest values, largest first.
    pub values: GlobalTensor<K>,
    /// Original indices of the k values (lower index first among equal
    /// values).
    pub indices: GlobalTensor<u32>,
    /// The sort's execution report.
    pub report: KernelReport,
}

/// Selects the `k` largest elements of `x` (with original indices) as
/// the first `k` of its descending radix sort, one launch on all of the
/// chip's AI cores.
pub fn topk<K>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    x: &GlobalTensor<K>,
    k: usize,
) -> SimResult<TopKRun<K>>
where
    K: RadixKey + Element,
    K::Encoded: Element + Bits + Numeric,
{
    let n = x.len();
    if k == 0 || k > n {
        return Err(SimError::InvalidArgument(format!(
            "topk: k {k} out of range 1..={n}"
        )));
    }
    let sorted = radix_sort(spec, gm, x, SORT_DIGIT_BITS, SortOrder::Descending)?;
    let mut report = sorted.report;
    report.useful_bytes = (n * K::SIZE + k * (K::SIZE + 4)) as u64;
    Ok(TopKRun {
        values: sorted.values.slice(0, k)?,
        indices: sorted.indices.slice(0, k)?,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radix_sort::tests::{
        bytes, host_argsort, int_specials, keys, setup, F16_SPECIALS, F32_SPECIALS,
    };
    use crate::split;
    use dtypes::F16;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Ordering;

    fn check_topk_u16(data: &[u16], k: usize) {
        let (spec, gm) = setup();
        let x = GlobalTensor::from_slice(&gm, data).unwrap();
        let run = topk(&spec, &gm, &x, k).unwrap();
        let mut expect = data.to_vec();
        expect.sort_unstable_by(|a, b| b.cmp(a));
        expect.truncate(k);
        let vals = run.values.to_vec();
        assert_eq!(vals, expect, "k = {k}, n = {}", data.len());
        // Indices point back at the selected values.
        for (v, &i) in vals.iter().zip(&run.indices.to_vec()) {
            assert_eq!(data[i as usize], *v);
        }
    }

    #[test]
    fn selects_correct_set_random() {
        let mut rng = StdRng::seed_from_u64(11);
        let data: Vec<u16> = (0..3000).map(|_| rng.gen()).collect();
        for k in [1usize, 5, 64, 1000, 2999] {
            check_topk_u16(&data, k);
        }
    }

    #[test]
    fn handles_duplicates() {
        let data: Vec<u16> = (0..1000).map(|i| (i % 10) as u16).collect();
        check_topk_u16(&data, 150);
    }

    #[test]
    fn k_equals_n() {
        let data: Vec<u16> = (0..100).collect();
        check_topk_u16(&data, 100);
    }

    #[test]
    fn f16_topk_with_negatives() {
        let (spec, gm) = setup();
        let mut rng = StdRng::seed_from_u64(12);
        let data: Vec<F16> = (0..800)
            .map(|_| F16::from_f32(rng.gen_range(-50.0f32..50.0)))
            .collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = topk(&spec, &gm, &x, 10).unwrap();
        let got: Vec<u16> = run.values.to_vec().iter().map(|v| v.encode()).collect();
        let mut expect: Vec<u16> = data.iter().map(|v| v.encode()).collect();
        expect.sort_unstable_by(|a, b| b.cmp(a));
        expect.truncate(10);
        assert_eq!(got, expect);
    }

    #[test]
    fn rejects_bad_k() {
        let (spec, gm) = crate::tests::tiny_with_cores(1);
        let x = GlobalTensor::from_slice(&gm, &[1u16, 2, 3]).unwrap();
        assert!(topk(&spec, &gm, &x, 0).is_err());
        assert!(topk(&spec, &gm, &x, 4).is_err());
    }

    /// Selects `k ∈ {1, n/2, n}` from keys of every length around a
    /// split piece at the end of the first chunk on one AI core and
    /// checks the result against the host: the first `k` of the stable
    /// descending argsort under `cmp`, and the values at those indices,
    /// bit for bit and in order.
    fn check_topk<K>(
        seed: u64,
        specials: &[u64],
        cmp: fn(&K, &K) -> Ordering,
    ) -> Result<(), TestCaseError>
    where
        K: RadixKey + Element,
        K::Encoded: Element + Bits + Numeric,
    {
        let (spec, gm) = crate::tests::tiny_with_cores(1);
        let masks = (1 << SORT_DIGIT_BITS) - 1;
        let per_elem =
            split::piece_bytes(std::mem::size_of::<K::Encoded>(), masks, true, true, true);
        let p = split::tests::store_piece(&spec, per_elem);
        let mut rng = StdRng::seed_from_u64(seed);
        for n in [2 * p - 1, 2 * p, 2 * p + 1] {
            let data = keys::<K>(&mut rng, n, specials);
            let x = GlobalTensor::from_slice(&gm, &data).unwrap();
            let order = host_argsort(&data, SortOrder::Descending, cmp);
            for k in [1, (n / 2).max(1), n] {
                let run = topk(&spec, &gm, &x, k).unwrap();
                let want: Vec<K> = order[..k].iter().map(|&i| data[i as usize]).collect();
                prop_assert_eq!(run.indices.to_vec(), &order[..k], "n = {}, k = {}", n, k);
                prop_assert_eq!(
                    bytes(&run.values.to_vec()),
                    bytes(&want),
                    "n = {}, k = {}",
                    n,
                    k
                );
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2))]

        #[test]
        fn fused_topk_matches_host_selection(seed in any::<u64>()) {
            check_topk::<u8>(seed, &int_specials(1), u8::cmp)?;
            check_topk::<i8>(seed, &int_specials(1), i8::cmp)?;
            check_topk::<u16>(seed, &int_specials(2), u16::cmp)?;
            check_topk::<i16>(seed, &int_specials(2), i16::cmp)?;
            check_topk::<F16>(seed, &F16_SPECIALS, F16::total_cmp)?;
            check_topk::<u32>(seed, &int_specials(4), u32::cmp)?;
            check_topk::<i32>(seed, &int_specials(4), i32::cmp)?;
            check_topk::<f32>(seed, &F32_SPECIALS, f32::total_cmp)?;
        }
    }
}
