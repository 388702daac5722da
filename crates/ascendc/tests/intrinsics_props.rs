//! Property tests for the AscendC intrinsics: functional semantics
//! against host references, and timing-model invariants that every
//! kernel relies on.

use ascend_sim::json;
use ascend_sim::prof::with_profiling;
use ascend_sim::{ChipSpec, EngineKind};
use ascendc::{launch, GlobalTensor, ScratchpadKind};
use dtypes::F16;
use proptest::prelude::*;
use std::sync::Arc;

fn setup() -> (ChipSpec, Arc<ascend_sim::mem::GlobalMemory>) {
    let spec = ChipSpec::tiny();
    let gm = Arc::new(ascend_sim::mem::GlobalMemory::new(spec.hbm_capacity));
    (spec, gm)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn roundtrip_through_ub_preserves_data(data in proptest::collection::vec(any::<u16>(), 1..2000)) {
        let (spec, gm) = setup();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let y = GlobalTensor::<u16>::new(&gm, data.len()).unwrap();
        launch(&spec, &gm, 1, "rt", |ctx| {
            let v = &mut ctx.vecs[0];
            let n = x.len();
            let mut buf = v.alloc_local::<u16>(ScratchpadKind::Ub, n.min(2048))?;
            let mut off = 0;
            while off < n {
                let len = buf.len().min(n - off);
                v.copy_in(&mut buf, 0, &x, off, len, &[])?;
                v.copy_out(&y, off, &buf, 0, len, &[])?;
                off += len;
            }
            Ok(())
        })
        .unwrap();
        prop_assert_eq!(y.to_vec(), data);
    }

    #[test]
    fn gather_mask_is_a_filter(
        data in proptest::collection::vec(any::<u16>(), 1..1000),
        seed in any::<u64>(),
    ) {
        let (spec, gm) = setup();
        let mask: Vec<u8> = data
            .iter()
            .enumerate()
            .map(|(i, _)| ((seed >> (i % 61)) & 1) as u8)
            .collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let m = GlobalTensor::from_slice(&gm, &mask).unwrap();
        let out = GlobalTensor::<u16>::new(&gm, data.len()).unwrap();
        let count = GlobalTensor::<u32>::new(&gm, 1).unwrap();
        launch(&spec, &gm, 1, "gm", |ctx| {
            let v = &mut ctx.vecs[0];
            let n = x.len();
            let mut vb = v.alloc_local::<u16>(ScratchpadKind::Ub, n)?;
            let mut mb = v.alloc_local::<u8>(ScratchpadKind::Ub, n)?;
            let mut ob = v.alloc_local::<u16>(ScratchpadKind::Ub, n)?;
            v.copy_in(&mut vb, 0, &x, 0, n, &[])?;
            v.copy_in(&mut mb, 0, &m, 0, n, &[])?;
            let (c, _) = v.gather_mask(&mut ob, &vb, &mb, 0, n)?;
            if c > 0 {
                v.copy_out(&out, 0, &ob, 0, c, &[])?;
            }
            let mut cb = v.alloc_local::<u32>(ScratchpadKind::Ub, 1)?;
            v.insert(&mut cb, 0, c as u32, 0)?;
            v.copy_out(&count, 0, &cb, 0, 1, &[])?;
            Ok(())
        })
        .unwrap();
        let expect: Vec<u16> = data
            .iter()
            .zip(&mask)
            .filter(|&(_, &mk)| mk != 0)
            .map(|(&v, _)| v)
            .collect();
        let c = count.to_vec()[0] as usize;
        prop_assert_eq!(c, expect.len());
        prop_assert_eq!(&out.to_vec()[..c], &expect[..]);
    }

    #[test]
    fn strided_copy_reads_the_right_rows(
        rows in 1usize..20,
        cols in 1usize..8,
        stride_extra in 0usize..8,
    ) {
        let (spec, gm) = setup();
        let stride = cols + stride_extra;
        let total = rows * stride + cols;
        let data: Vec<u16> = (0..total as u16).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let y = GlobalTensor::<u16>::new(&gm, rows * cols).unwrap();
        launch(&spec, &gm, 1, "strided", |ctx| {
            let v = &mut ctx.vecs[0];
            let mut buf = v.alloc_local::<u16>(ScratchpadKind::Ub, rows * cols)?;
            v.copy_in_2d(&mut buf, &x, 0, rows, cols, stride, &[])?;
            v.copy_out(&y, 0, &buf, 0, rows * cols, &[])?;
            Ok(())
        })
        .unwrap();
        let got = y.to_vec();
        for r in 0..rows {
            for c in 0..cols {
                prop_assert_eq!(got[r * cols + c], (r * stride + c) as u16);
            }
        }
    }

    #[test]
    fn timing_is_monotone_in_work(n1 in 64usize..512, extra in 1usize..512) {
        let (spec, gm) = setup();
        let time_for = |n: usize| {
            let data = vec![F16::ONE; n];
            let x = GlobalTensor::from_slice(&gm, &data).unwrap();
            let y = GlobalTensor::<F16>::new(&gm, n).unwrap();
            launch(&spec, &gm, 1, "w", |ctx| {
                let v = &mut ctx.vecs[0];
                let mut buf = v.alloc_local::<F16>(ScratchpadKind::Ub, n)?;
                v.copy_in(&mut buf, 0, &x, 0, n, &[])?;
                v.vadds(&mut buf, 0, n, F16::ONE, 0)?;
                v.copy_out(&y, 0, &buf, 0, n, &[])?;
                Ok(())
            })
            .unwrap()
            .cycles
        };
        prop_assert!(time_for(n1 + extra) >= time_for(n1));
    }
}

#[test]
fn traced_launch_matches_untraced_timing() {
    let (spec, gm) = setup();
    let data: Vec<u16> = (0..4096).collect();
    let x = GlobalTensor::from_slice(&gm, &data).unwrap();
    let y = GlobalTensor::<u16>::new(&gm, 4096).unwrap();
    let kernel = |ctx: &mut ascendc::BlockCtx<'_>| {
        // Each block owns one 2048-element half of the output.
        let piece = ctx.block_idx as usize;
        let v = &mut ctx.vecs[0];
        let mut buf = v.alloc_local::<u16>(ScratchpadKind::Ub, 2048)?;
        v.copy_in(&mut buf, 0, &x, piece * 2048, 2048, &[])?;
        v.vadds(&mut buf, 0, 2048, 1, 0)?;
        v.copy_out(&y, piece * 2048, &buf, 0, 2048, &[])?;
        Ok(())
    };
    let plain = launch(&spec, &gm, 2, "t", kernel).unwrap();
    let (traced, profile) = with_profiling(&gm, || launch(&spec, &gm, 2, "t", kernel));
    let traced = traced.unwrap();
    assert_eq!(
        plain.cycles, traced.cycles,
        "tracing must not change timing"
    );
    assert_eq!(profile.kernels.len(), 1);
    let events = &profile.kernels[0].events;
    assert!(!events.is_empty());
    // Every event is well-formed and within the kernel's span.
    for e in events {
        assert!(e.start <= e.end);
        assert!(e.end <= traced.cycles);
        assert!(e.block < 2);
    }
    // Both blocks and several engines appear.
    assert!(events.iter().any(|e| e.block == 1));
    assert!(events.iter().any(|e| e.engine == EngineKind::Vec));
    assert!(events.iter().any(|e| e.engine == EngineKind::Mte2));
    // The Perfetto export consumes them.
    let json = profile.to_chrome_json();
    assert!(json.contains("traceEvents"));
}

#[test]
fn phase_names_are_escaped_in_every_json_export() {
    // Kernel-supplied phase names reach the critical path's `phases` and
    // `top_segments`; a quote in one must not break either document.
    let (spec, gm) = setup();
    let x = GlobalTensor::from_slice(&gm, &vec![1u16; 2048]).unwrap();
    let y = GlobalTensor::<u16>::new(&gm, 2048).unwrap();
    let (report, profile) = with_profiling(&gm, || {
        launch(&spec, &gm, 1, "quoted-phase", |ctx| {
            let span = ctx.span_begin("a\"b");
            let v = &mut ctx.vecs[0];
            let mut buf = v.alloc_local::<u16>(ScratchpadKind::Ub, 2048)?;
            v.copy_in(&mut buf, 0, &x, 0, 2048, &[])?;
            v.copy_out(&y, 0, &buf, 0, 2048, &[])?;
            ctx.span_end(span);
            Ok(())
        })
    });
    let report = json::parse(&report.unwrap().to_json(&spec)).expect("report JSON parses");
    let phases = report
        .field("critical_path")
        .and_then(|cp| cp.array_field("phases"))
        .unwrap();
    assert!(phases.iter().any(|p| p.str_field("name") == Ok("a\"b")));
    let trace = json::parse(&profile.to_chrome_json()).expect("trace export parses");
    let segments = trace.array_field("criticalPaths").unwrap()[0]
        .array_field("top_segments")
        .unwrap();
    assert!(segments.iter().any(|s| s.str_field("phase") == Ok("a\"b")));
}

#[test]
fn strided_copy_charges_line_granularity() {
    let (spec, gm) = setup();
    // tiny chip: 32-byte lines. Reading 64 strided u16 elements (2 B
    // rows) must charge 64 lines = 2048 B, not 128 B.
    let data: Vec<u16> = (0..4096).collect();
    let x = GlobalTensor::from_slice(&gm, &data).unwrap();
    let before = gm.bytes_read();
    launch(&spec, &gm, 1, "strided-cost", |ctx| {
        let v = &mut ctx.vecs[0];
        let mut buf = v.alloc_local::<u16>(ScratchpadKind::Ub, 64)?;
        v.copy_in_2d(&mut buf, &x, 0, 64, 1, 64, &[])?;
        Ok(())
    })
    .unwrap();
    let read = gm.bytes_read() - before;
    assert_eq!(read, 64 * 32, "each strided row drags a full line");
}
