//! The paper's fp16 radix sort: one stable split per digit, each
//! counting its digit masks per chunk and scattering on every vector
//! core, all in one launch, compared against the modeled `torch.sort`
//! baseline (Fig. 11), including `argsort` output.
//!
//! ```text
//! cargo run --release --example sorting
//! ```

use ascend_scan::dtypes::{RadixKey, F16};
use ascend_scan::ops::SortOrder;
use ascend_scan::Device;

fn main() {
    let dev = Device::ascend_910b4();

    // A 2 Mi-element half-precision tensor with the full value range,
    // including negatives and signed zeros.
    let n = 2 << 20;
    let mut state = 0x9E37_79B9u64;
    let values: Vec<F16> = (0..n)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = ((state >> 33) as f32 / (1u64 << 31) as f32 - 0.5) * 2000.0;
            if i == 0 {
                F16::NEG_ZERO
            } else {
                F16::from_f32(v)
            }
        })
        .collect();
    let x = dev.tensor(&values).expect("upload");

    let run = dev.sort(&x, SortOrder::Ascending).expect("radix sort");
    // The encode's barrier, then two per split pass.
    let passes = (run.report.sync_rounds - 1) / 2;
    println!(
        "sorted {n} fp16 values: {passes} split passes of {} key bits in one launch\n",
        u64::from(F16::BITS) / passes
    );
    let sorted = run.values.read_range(0, 5).unwrap();
    let top = run.values.read_range(n - 3, 3).unwrap();
    println!(
        "radix sort:  {:>8.2} ms   head {:?}  tail {:?}",
        run.report.time_ms(),
        sorted.iter().map(|v| v.to_f32()).collect::<Vec<_>>(),
        top.iter().map(|v| v.to_f32()).collect::<Vec<_>>()
    );

    // argsort round trip: indices permute the input into sorted order.
    let idx = run.indices.read_range(0, 3).unwrap();
    for (rank, &i) in idx.iter().enumerate() {
        let v = values[i as usize];
        let s = run.values.read_range(rank, 1).unwrap()[0];
        assert_eq!(v.to_bits(), s.to_bits(), "argsort consistency");
    }
    println!("argsort verified: values[indices[r]] == sorted[r]");

    // Verify the IEEE total order against a host sort.
    let mut expect = values.clone();
    expect.sort_by(F16::total_cmp);
    let got = run.values.to_vec();
    assert_eq!(
        got.iter().map(|v| v.encode()).collect::<Vec<_>>(),
        expect.iter().map(|v| v.encode()).collect::<Vec<_>>()
    );
    println!("bit-exact against the host reference (IEEE total order, -0.0 < +0.0)\n");

    // The torch.sort baseline.
    let (bv, _, base) =
        ascend_scan::ops::baselines::sort::<F16>(dev.spec(), dev.memory(), &x, false)
            .expect("baseline sort");
    assert_eq!(bv.to_vec().len(), n);
    println!(
        "torch.sort:  {:>8.2} ms   -> radix sort is {:.2}x faster at N = {n}",
        base.time_ms(),
        base.time_s() / run.report.time_s()
    );
    println!("(the paper reports 1.3x-3.3x for N > 525K; the baseline wins below that)");
}
