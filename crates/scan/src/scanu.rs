//! **ScanU** (Algorithm 1): the cube-vector single-core scan.
//!
//! Per `ℓ = s²` tile, the cube core computes `C = A @ U_s` — `s`
//! consecutive local scans of `s`-rows — with a single matmul and writes
//! the tile to global memory. A vector core then propagates the running
//! partial sum through the tile, one `s`-row at a time: it broadcasts the
//! partial onto the row (`Adds`) and extracts the row's new last element
//! as the next partial. The whole loop is pipelined with depth-2 queues
//! (double buffering), exactly as in the paper's Figure 2.

use crate::stage::{check_tile, propagate_rows, CubePass, HandOffs};
use crate::triangular::ScanConstants;
use crate::util::tile_spans;
use crate::{finish_report, ScanRun};
use ascend_sim::mem::GlobalMemory;
use ascendc::{launch, ChipSpec, GlobalTensor, ScratchpadKind, SimResult, SpanArgs, TQue};
use dtypes::{CubeInput, Numeric};
use std::sync::Arc;

/// Runs ScanU over `x` with tile dimension `s`, producing the inclusive
/// scan in element type `O` (the FIXP pipe casts the cube's accumulator
/// output — f32 for fp16 inputs, i32 for int8 — to `O` on the way out).
///
/// Uses a single AI core: one cube core and one vector core, as in the
/// paper's single-core evaluation (Fig. 3).
pub fn scanu<T, O>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    x: &GlobalTensor<T>,
    s: usize,
) -> SimResult<ScanRun<O>>
where
    T: CubeInput,
    O: Numeric,
{
    check_tile("ScanU", s)?;
    let hand = HandOffs::new("ScanU", spec, 1)?;
    let n = x.len();
    let l = s * s;
    let consts = ScanConstants::<T>::upload(gm, s)?;
    let y = GlobalTensor::<O>::new(gm, n)?;
    let spans = tile_spans(n, l)?;

    let mut report = launch(spec, gm, 1, "ScanU", |ctx| {
        // ---- Cube core: local row scans per tile (Lines 3-8). ----
        let phase = ctx.span_begin("CubeLocalScans");
        let cube = &mut ctx.cube;
        let mut pass = CubePass::new(cube, &consts.upper, s)?;
        for (t, &(off, valid)) in spans.iter().enumerate() {
            let ev = pass.scan_tile(cube, x, &y, off, valid)?;
            hand.set(cube, &ctx.flags, 0, t, ev)?;
        }
        pass.finish(cube)?;
        ctx.span_end(phase);

        // ---- Vector core: partial-sum propagation (Lines 9-15). ----
        let phase = ctx.span_begin("VecPropagation");
        {
            let flags = &ctx.flags;
            let v = &mut ctx.vecs[0];
            let mut q = TQue::<O>::new(v, ScratchpadKind::Ub, 2, l)?.named("q(UB)");
            let mut carry = (O::zero(), 0);
            // Software-pipelined double buffering: the wait + load for
            // tile t+1 issue before tile t's row chain, so the MTE2
            // transfer overlaps the propagation work instead of queuing
            // behind it on the scalar pipe.
            let fetch = |v: &mut ascendc::Core<'_>, q: &mut TQue<O>, t: usize| {
                let (off, valid) = spans[t];
                let ready = hand.wait(v, flags, 0, t)?;
                let mut buf = q.alloc_tensor()?;
                v.copy_in(&mut buf, 0, &y, off, valid, &[ready])?;
                SimResult::Ok(buf)
            };
            let mut pending = if spans.is_empty() {
                None
            } else {
                Some(fetch(v, &mut q, 0)?)
            };
            for (t, &(off, valid)) in spans.iter().enumerate() {
                let tile = v.span_begin("tile");
                // Cannot fire: tile 0 is fetched before the loop when
                // there are tiles, and each iteration fetches tile t + 1
                // before the next one runs.
                let mut buf = pending.take().expect("tile t was prefetched");
                if t + 1 < spans.len() {
                    pending = Some(fetch(v, &mut q, t + 1)?);
                }
                propagate_rows(v, &mut buf, valid, s, &mut carry)?;
                let ev = v.copy_out(&y, off, &buf, 0, valid, &[])?;
                q.free_tensor(buf, ev);
                v.span_args(
                    tile,
                    SpanArgs {
                        bytes: (2 * valid * O::SIZE) as u64,
                        kind: "vadds",
                        queue_depth: 2,
                    },
                );
                v.span_end_at(tile, ev);
            }
            q.destroy(v)?;
        }
        ctx.span_end(phase);
        Ok(())
    })?;

    finish_report(&mut report, n, T::SIZE, O::SIZE);
    Ok(ScanRun { y, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use dtypes::F16;

    fn setup() -> (ChipSpec, Arc<GlobalMemory>) {
        let spec = ChipSpec::tiny();
        let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
        (spec, gm)
    }

    #[test]
    fn scans_exact_multiple_of_tile() {
        let (spec, gm) = setup();
        let data: Vec<i8> = (0..512).map(|i| (i % 5) as i8 - 2).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = scanu::<i8, i32>(&spec, &gm, &x, 16).unwrap();
        assert_eq!(
            run.y.to_vec(),
            reference::inclusive_widening::<i8, i32>(&data)
        );
        assert_eq!(run.report.elements, 512);
    }

    #[test]
    fn scans_with_partial_tail_tile() {
        let (spec, gm) = setup();
        // 16*16 = 256-element tiles; 600 = 2 full tiles + 88 tail.
        let data: Vec<i8> = (0..600).map(|i| ((i * 7) % 11) as i8 - 5).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = scanu::<i8, i32>(&spec, &gm, &x, 16).unwrap();
        assert_eq!(
            run.y.to_vec(),
            reference::inclusive_widening::<i8, i32>(&data)
        );
    }

    #[test]
    fn scans_tail_shorter_than_one_row() {
        let (spec, gm) = setup();
        let data: Vec<i8> = (0..260).map(|i| (i % 3) as i8).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = scanu::<i8, i32>(&spec, &gm, &x, 16).unwrap();
        assert_eq!(
            run.y.to_vec(),
            reference::inclusive_widening::<i8, i32>(&data)
        );
    }

    #[test]
    fn fp16_scan_small_values_exact() {
        let (spec, gm) = setup();
        // Values 0..3, total sum < 2048: every partial sum is exact in f16.
        let data: Vec<F16> = (0..700).map(|i| F16::from_f32((i % 4) as f32)).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = scanu::<F16, F16>(&spec, &gm, &x, 16).unwrap();
        assert_eq!(run.y.to_vec(), reference::inclusive(&data));
    }

    #[test]
    fn mask_scan_int8_to_i32() {
        let (spec, gm) = setup();
        let data: Vec<u8> = (0..1000).map(|i| ((i * 13) % 3 == 0) as u8).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = scanu::<u8, i32>(&spec, &gm, &x, 16).unwrap();
        assert_eq!(
            run.y.to_vec(),
            reference::inclusive_widening::<u8, i32>(&data)
        );
    }

    #[test]
    fn rejects_bad_tile_size() {
        let (spec, gm) = setup();
        let x = GlobalTensor::from_slice(&gm, &[1i8, 2, 3]).unwrap();
        assert!(scanu::<i8, i32>(&spec, &gm, &x, 0).is_err());
        assert!(scanu::<i8, i32>(&spec, &gm, &x, 20).is_err());
    }

    #[test]
    fn report_has_sane_metrics() {
        let (spec, gm) = setup();
        let data = vec![1i8; 2048];
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = scanu::<i8, i32>(&spec, &gm, &x, 16).unwrap();
        let r = &run.report;
        assert_eq!(r.blocks, 1);
        assert!(r.cycles > spec.launch_cycles);
        // Traffic: >= x read by cube (N) + y written by cube (4N) +
        // y read and written by vector (8N).
        assert!(r.bytes_read >= 2048 + 8192);
        assert!(r.bytes_written >= 8192 + 8192);
        assert!(r.gbps() > 0.0);
        assert_eq!(r.useful_bytes, 2048 * (1 + 4));
    }

    #[test]
    fn empty_input() {
        let (spec, gm) = setup();
        let x = GlobalTensor::<i8>::new(&gm, 0).unwrap();
        let run = scanu::<i8, i32>(&spec, &gm, &x, 16).unwrap();
        assert_eq!(run.report.elements, 0);
    }
}
