//! **ScanC**: the single-pass chained scan with decoupled multi-hop
//! look-back (Merrill–Garland style, adapted to the cube/vector split).
//!
//! MCScan needs two passes over the data separated by a `SyncAll`: phase
//! 1 re-reads the input on the vector cores just to produce the block
//! reductions `r`, and phase 2 re-reads the tile-local scans to add the
//! block offsets. ScanC removes both the barrier and the recomputation
//! read: each *lane* (one vector core's contiguous run of tiles) keeps
//! its tile-local scans resident in UB, computes its own aggregate as a
//! by-product of the in-lane propagation, and then **looks back** at
//! per-lane mailboxes in global memory.
//!
//! The look-back is a *decoupled, multi-hop state machine*. Each lane
//! `L` owns two mailbox slots: a **partial** slot (its local aggregate,
//! published as soon as the tile loop finishes) and an **inclusive**
//! slot (the prefix of everything through `L`, published once its own
//! look-back resolves). A successor with window `w` consumes
//!
//! * one **inclusive** edge from lane `base = max(L − w, 0)`, and
//! * **partial** edges from lanes `base+1 .. L−1`,
//!
//! accumulating `incl[base] + p[base+1] + … + p[L−1]` in ascending
//! order — the same left-associated grouping the `w = 1` chained
//! protocol produces, so results stay bit-identical across window
//! sizes. Each edge is guarded by its own grid-flag id (edges are
//! enumerated in canonical order — consumer ascending, inclusive
//! before partials — and ids cycle modulo the chip's flag-id limit;
//! `w² ≤ flag_id_limit` keeps the per-id FIFO pairings unambiguous).
//!
//! Crucially the predecessor wait is **overlapped with local work**:
//! the lane issues non-blocking [`probe_grid_flag`] consumes *before*
//! its tile loop, runs the tile loop while the predecessors' sets
//! propagate, and only then schedules the mailbox `copy_in`s against
//! the probes' arrival edges. The chain's wire latency
//! (`flag_wait_cycles` per hop) is paid at most `⌈nlanes / w⌉` times on
//! the critical path instead of `nlanes` times, and is hidden entirely
//! wherever the tile loop runs longer than the hop.
//!
//! Because the cooperative scheduler releases blocks in ascending index
//! order (wave-multiplexing grids larger than the chip), the look-back
//! is always *backward* and never deadlocks, even oversubscribed.
//!
//! Global-memory traffic: the input is read once (cube), the
//! intermediate written once and read once, the output written once —
//! `8` bytes/element for fp16 (vs. MCScan's `10`) and `9` for int8
//! masks (vs. `10`), plus a few dozen scalar mailbox round-trips.
//!
//! [`probe_grid_flag`]: ascendc::Core::probe_grid_flag

use crate::mcscan::ScanKind;
use crate::stage::{check_intermediate, check_tile, propagate_rows, CubePass, HandOffs};
use crate::triangular::ScanConstants;
use crate::util::{tile_dim, tile_spans};
use crate::{finish_report, ScanRun};
use ascend_sim::mem::GlobalMemory;
use ascendc::{launch, ChipSpec, GlobalTensor, ScratchpadKind, SimError, SimResult, SpanArgs};
use dtypes::{CubeInput, Element, Numeric};
use std::sync::Arc;

/// ScanC launch parameters.
#[derive(Clone, Copy, Debug)]
pub struct ScanCConfig {
    /// Matmul tile dimension (`ℓ = s²` elements per cube tile).
    pub s: usize,
    /// Tiles each lane keeps resident in UB. This bounds the lane's UB
    /// footprint (`tiles_per_lane · ℓ · O::SIZE` next to one `ℓ ·
    /// M::SIZE` staging buffer) and sets the look-back chain length:
    /// fewer, fatter lanes mean fewer serial chain links but less
    /// launch-wide parallelism.
    pub tiles_per_lane: usize,
    /// Look-back window `w`: how many predecessors a lane inspects.
    /// `1` degenerates to the fully chained protocol (each lane blocks
    /// on its immediate predecessor's inclusive prefix); larger
    /// windows cut the serial chain depth to `⌈nlanes / w⌉` hops by
    /// consuming partial aggregates from the `w − 1` nearest
    /// predecessors. Must satisfy `w² ≤ flag_id_limit` so the per-id
    /// grid-flag FIFOs pair unambiguously.
    pub lookback_window: usize,
    /// Inclusive or exclusive scan. The exclusive kind is MCScan's §4.3
    /// shifted write: each tile stores its inclusive values one element
    /// to the right, and its first element is the running prefix — the
    /// lane's look-back prefix for the lane's first tile, the previous
    /// tile's last offset value for every later one.
    pub kind: ScanKind,
}

impl ScanCConfig {
    /// Default configuration for a `scanc::<T, M, O>` launch: the
    /// largest tile that fits the chip for these types (`s = 128`, the
    /// L0-filling tile, on the 910B4), as many resident tiles per lane
    /// as UB holds next to the `M`-typed staging buffer, and the widest
    /// look-back window the chip's flag-id file supports (capped at 4);
    /// inclusive.
    pub fn for_chip<T: CubeInput, M: Element, O: Element>(spec: &ChipSpec) -> Self {
        let s = tile_dim::<T, M, O>(spec);
        let l = s * s;
        let budget = spec.ub_capacity.saturating_sub(l * M::SIZE + 256);
        let mut w = 4usize;
        while w > 1 && w * w > spec.flag_id_limit as usize {
            w -= 1;
        }
        ScanCConfig {
            s,
            tiles_per_lane: (budget / (l * O::SIZE)).max(1),
            lookback_window: w,
            kind: ScanKind::Inclusive,
        }
    }
}

/// One look-back edge a lane consumes: the producer lane, whether it is
/// the inclusive (vs. partial) mailbox slot, and the grid-flag id
/// guarding it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ConsumeEdge {
    producer: usize,
    inclusive: bool,
    id: u32,
}

/// The static per-lane look-back schedule for `nlanes` lanes with
/// window `w`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct LaneEdges {
    /// Edges this lane consumes, inclusive edge first, then partial
    /// edges by ascending producer — the accumulation order.
    consume: Vec<ConsumeEdge>,
    /// Grid-flag ids this lane sets after publishing its *partial*
    /// aggregate (one per consumer, consumers ascending).
    publish_partial: Vec<u32>,
    /// Grid-flag ids this lane sets after publishing its *inclusive*
    /// prefix (one per consumer, consumers ascending).
    publish_inclusive: Vec<u32>,
}

/// Enumerates every look-back edge in canonical order (consumer lane
/// ascending; within a consumer: the inclusive edge first, then partial
/// edges by ascending producer) and assigns grid-flag ids cyclically.
/// Both sides of the protocol derive from this one schedule, so a
/// producer's k-th set on an id always pairs with the intended
/// consumer's k-th consume.
fn lookback_edges(nlanes: usize, w: usize, flag_ids: u32) -> Vec<LaneEdges> {
    let mut lanes: Vec<LaneEdges> = vec![LaneEdges::default(); nlanes];
    let mut next = 0u32;
    let mut take = || {
        let id = next % flag_ids;
        next += 1;
        id
    };
    for m in 1..nlanes {
        let base = m.saturating_sub(w);
        let id = take();
        lanes[m].consume.push(ConsumeEdge {
            producer: base,
            inclusive: true,
            id,
        });
        lanes[base].publish_inclusive.push(id);
        for j in base + 1..m {
            let id = take();
            lanes[m].consume.push(ConsumeEdge {
                producer: j,
                inclusive: false,
                id,
            });
            lanes[j].publish_partial.push(id);
        }
    }
    lanes
}

/// Runs ScanC over `x`, producing the scan (`cfg.kind`) in element type
/// `O`. Type parameters follow [`crate::mcscan::mcscan`]: `T` is the
/// cube input, `M` the intermediate the tile-local scans travel through
/// global memory as, `O` the output —
///
/// * fp16: `scanc::<F16, F16, F16>`;
/// * int8 masks: `scanc::<u8, i16, i32>`.
///
/// An integer `M` must hold `s` times the largest input value (a
/// row-local scan never exceeds that); a larger `s` is refused.
pub fn scanc<T, M, O>(
    spec: &ChipSpec,
    gm: &Arc<GlobalMemory>,
    x: &GlobalTensor<T>,
    cfg: ScanCConfig,
) -> SimResult<ScanRun<O>>
where
    T: CubeInput,
    M: Numeric,
    O: Numeric,
{
    check_tile("ScanC", cfg.s)?;
    check_intermediate::<T, M>("ScanC", cfg.s)?;
    if cfg.tiles_per_lane == 0 {
        return Err(SimError::InvalidArgument(
            "ScanC: tiles_per_lane must be at least 1".into(),
        ));
    }
    let wdw = cfg.lookback_window;
    if wdw == 0 {
        return Err(SimError::InvalidArgument(
            "ScanC: lookback_window must be at least 1".into(),
        ));
    }
    if wdw * wdw > spec.flag_id_limit as usize {
        return Err(SimError::InvalidArgument(format!(
            "ScanC: lookback_window {wdw} needs w² = {} grid flag ids for \
             unambiguous per-id FIFO pairing, chip has {}",
            wdw * wdw,
            spec.flag_id_limit
        )));
    }
    // Cross-core flag registers are partitioned per vector core so the
    // per-id FIFOs never pair a cube set for lane A with a wait from
    // lane B.
    let hand = HandOffs::new("ScanC", spec, spec.vec_per_core)?;
    let n = x.len();
    let s = cfg.s;
    let l = s * s;
    let tpl = cfg.tiles_per_lane;
    let consts = ScanConstants::<T>::upload(gm, s)?;
    let y = GlobalTensor::<O>::new(gm, n)?;
    let w = GlobalTensor::<M>::new(gm, n)?;

    let tiles = tile_spans(n, l)?;
    let vpc = spec.vec_per_core as usize;
    // Lane layout: lane L owns tiles [L·tpl, L·tpl + tpl); every lane
    // below `nlanes` is non-empty, so the look-back chain has no holes.
    let nlanes = tiles.len().div_ceil(tpl).max(1);
    let blocks = nlanes.div_ceil(vpc).max(1) as u32;
    // Two mailbox slots per lane: lane L's partial (local) aggregate at
    // index L, its inclusive prefix at index nlanes + L. Separate
    // addresses keep the two publishes free of write-after-write
    // hazards and let a consumer read exactly the state it needs.
    let mailbox = GlobalTensor::<O>::new(gm, 2 * nlanes)?;
    // Grid-flag ids are assigned per look-back edge by `lookback_edges`
    // (canonical enumeration, cycled modulo the id limit).
    let edges = lookback_edges(nlanes, wdw, spec.flag_id_limit);

    let mut report = launch(spec, gm, blocks, "ScanC", |ctx| {
        let block = ctx.block_idx as usize;
        let vpc = ctx.vecs.len();

        // ---- Cube core: tile-local scans for this block's lanes. ----
        let phase = ctx.span_begin("CubeLocalScans");
        let cube = &mut ctx.cube;
        let mut pass = CubePass::new(cube, &consts.upper, s)?;
        for v in 0..vpc {
            let t0 = (block * vpc + v) * tpl;
            if t0 >= tiles.len() {
                break;
            }
            let tcount = tpl.min(tiles.len() - t0);
            for (i, &(off, valid)) in tiles[t0..t0 + tcount].iter().enumerate() {
                let ev = pass.scan_tile(cube, x, &w, off, valid)?;
                hand.set(cube, &ctx.flags, v, i, ev)?;
            }
        }
        pass.finish(cube)?;
        ctx.span_end(phase);

        // ---- Vector lanes: probe, propagate locally, resolve. ----
        let phase = ctx.span_begin("VecLookback");
        let grid = ctx.grid();
        for v in 0..vpc {
            let lane = block * vpc + v;
            let t0 = lane * tpl;
            if t0 >= tiles.len() {
                continue;
            }
            let tcount = tpl.min(tiles.len() - t0);
            let lane_edges = &edges[lane];
            let flags = &ctx.flags;
            let vc = &mut ctx.vecs[v];

            // Probe every look-back edge *before* the tile loop: the
            // poll is priced now (one flag slot each), the predecessor
            // sets propagate while the lane does its local work, and
            // the arrival edges are threaded into the mailbox copy-ins
            // after the loop.
            let mut arrivals = Vec::with_capacity(lane_edges.consume.len());
            if !lane_edges.consume.is_empty() {
                let probe = vc.span_begin("lookback:probe");
                for e in &lane_edges.consume {
                    let hop = vc.span_begin("lookback:hop");
                    let at = vc.probe_grid_flag(grid, e.id)?;
                    vc.span_args(
                        hop,
                        SpanArgs {
                            bytes: O::SIZE as u64,
                            kind: if e.inclusive {
                                "probe-incl"
                            } else {
                                "probe-part"
                            },
                            queue_depth: (lane - e.producer) as u32,
                        },
                    );
                    vc.span_end(hop);
                    arrivals.push(at);
                }
                vc.span_end(probe);
            }

            // Load every tile of the lane into a resident UB buffer,
            // propagating the running partial through it on the way in;
            // after the last tile `carry` is the lane aggregate.
            let mut staging = vc.alloc_local::<M>(ScratchpadKind::Ub, l)?;
            let mut bufs = Vec::with_capacity(tcount);
            let mut carry = (O::zero(), 0);
            let mut cast_done = 0;
            for (i, &(off, valid)) in tiles[t0..t0 + tcount].iter().enumerate() {
                let tile = vc.span_begin("tile");
                let ready = hand.wait(vc, flags, v, i)?;
                vc.copy_in(&mut staging, 0, &w, off, valid, &[ready, cast_done])?;
                let mut buf = vc.alloc_local::<O>(ScratchpadKind::Ub, valid)?;
                cast_done = vc.vcast::<M, O>(&mut buf, &staging, 0, valid)?;
                propagate_rows(vc, &mut buf, valid, s, &mut carry)?;
                vc.span_args(
                    tile,
                    SpanArgs {
                        bytes: (valid * (M::SIZE + O::SIZE)) as u64,
                        kind: "propagate",
                        queue_depth: 1,
                    },
                );
                vc.span_end_at(tile, carry.1);
                bufs.push(buf);
            }
            let (partial, partial_ready) = carry;

            // Publish the *partial* aggregate the moment the tile loop
            // produces it — successors within the window can fold it
            // into their prefixes without waiting for this lane's own
            // look-back to resolve.
            let mut mb_p = vc.alloc_local::<O>(ScratchpadKind::Ub, 1)?;
            if !lane_edges.publish_partial.is_empty() {
                let publish = vc.span_begin("lookback:publish-partial");
                vc.insert(&mut mb_p, 0, partial, partial_ready)?;
                let stored = vc.copy_out(&mailbox, lane, &mb_p, 0, 1, &[])?;
                for &id in &lane_edges.publish_partial {
                    vc.set_grid_flag(grid, id, &[stored])?;
                }
                vc.span_end_at(publish, stored);
            }

            // Resolve the look-back: copy the probed mailbox slots in
            // (each gated on its arrival edge, long since in flight)
            // and fold them in ascending producer order. Slot 0 holds
            // the inclusive prefix through `base`; each partial is
            // added with the same element+scalar `vadds` the chained
            // protocol uses, so the grouping — and hence every rounded
            // fp16 bit — matches `w = 1`.
            let lookback = vc.span_begin("lookback");
            let nhops = lane_edges.consume.len();
            let (prev, prev_ready) = if nhops > 0 {
                let mut hop = vc.alloc_local::<O>(ScratchpadKind::Ub, nhops)?;
                for (k, e) in lane_edges.consume.iter().enumerate() {
                    let slot = if e.inclusive {
                        nlanes + e.producer
                    } else {
                        e.producer
                    };
                    vc.copy_in(&mut hop, k, &mailbox, slot, 1, &[arrivals[k]])?;
                }
                for k in 1..nhops {
                    let (pk, pk_ready) = vc.extract(&hop, k)?;
                    vc.vadds(&mut hop, 0, 1, pk, pk_ready)?;
                }
                let out = vc.extract(&hop, 0)?;
                vc.free_local(hop)?;
                out
            } else {
                (O::zero(), 0)
            };

            // Publish as early as possible, and on the shortest possible
            // path: the inclusive prefix is `partial ⊕ prev`, computed
            // directly on the 1-element mailbox buffer with the same
            // element+scalar `vadds` the offset pass applies to every
            // tile — bit-identical to extracting it from the offset
            // output, but without a whole-tile vector op on the chain
            // link a successor is polling.
            let mut mb_i = vc.alloc_local::<O>(ScratchpadKind::Ub, 1)?;
            if !lane_edges.publish_inclusive.is_empty() {
                vc.insert(&mut mb_i, 0, partial, partial_ready)?;
                vc.vadds(&mut mb_i, 0, 1, prev, prev_ready)?;
                let stored = vc.copy_out(&mailbox, nlanes + lane, &mb_i, 0, 1, &[])?;
                for &id in &lane_edges.publish_inclusive {
                    vc.set_grid_flag(grid, id, &[stored])?;
                }
                vc.span_end_at(lookback, stored);
            } else {
                vc.span_end_at(lookback, prev_ready);
            }

            // Finish the lane: offset the tiles and store y. The
            // exclusive kind shifts each tile right by one and writes its
            // first element from `first`: the lane prefix, then the
            // previous tile's last offset value (which the shifted store
            // drops).
            let mut boundary = match cfg.kind {
                ScanKind::Inclusive => None,
                ScanKind::Exclusive => Some(vc.alloc_local::<O>(ScratchpadKind::Ub, 1)?),
            };
            let (mut first, mut first_ready) = (prev, prev_ready);
            for (i, buf) in bufs.iter_mut().enumerate() {
                let (off, valid) = tiles[t0 + i];
                vc.vadds(buf, 0, valid, prev, prev_ready)?;
                let Some(boundary) = boundary.as_mut() else {
                    vc.copy_out(&y, off, buf, 0, valid, &[])?;
                    continue;
                };
                vc.insert(boundary, 0, first, first_ready)?;
                vc.copy_out(&y, off, boundary, 0, 1, &[])?;
                if valid > 1 {
                    vc.copy_out(&y, off + 1, buf, 0, valid - 1, &[])?;
                }
                (first, first_ready) = vc.extract(buf, valid - 1)?;
            }
            if let Some(boundary) = boundary {
                vc.free_local(boundary)?;
            }
            for buf in bufs {
                vc.free_local(buf)?;
            }
            vc.free_local(mb_i)?;
            vc.free_local(mb_p)?;
            vc.free_local(staging)?;
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
    use crate::mcscan::{mcscan, McScanConfig};
    use crate::reference;
    use dtypes::F16;

    fn setup() -> (ChipSpec, Arc<GlobalMemory>) {
        let spec = ChipSpec::tiny();
        let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
        (spec, gm)
    }

    fn cfg(s: usize, tiles_per_lane: usize) -> ScanCConfig {
        ScanCConfig {
            s,
            tiles_per_lane,
            lookback_window: 2,
            kind: ScanKind::Inclusive,
        }
    }

    #[test]
    fn an_int8_row_scan_that_overflows_i16_is_refused() {
        // ScanC stages the same `A @ U_s` row scans in `M` as MCScan: a
        // row of s = 144 all-255 bytes would wrap i16.
        let spec = ChipSpec::ascend_910b4();
        let gm = Arc::new(GlobalMemory::new(spec.hbm_capacity));
        let x = GlobalTensor::from_slice(&gm, &vec![255u8; 144 * 144]).unwrap();
        let run = scanc::<u8, i16, i32>(&spec, &gm, &x, cfg(144, 1));
        assert!(matches!(run, Err(SimError::InvalidArgument(_))));
    }

    #[test]
    fn edge_schedule_window_one_is_the_chained_protocol() {
        let lanes = lookback_edges(6, 1, 8);
        for (m, lane) in lanes.iter().enumerate().skip(1) {
            assert_eq!(
                lane.consume,
                vec![ConsumeEdge {
                    producer: m - 1,
                    inclusive: true,
                    id: ((m - 1) % 8) as u32,
                }]
            );
            assert!(lane.publish_partial.is_empty());
        }
        assert_eq!(lanes[5].publish_inclusive, Vec::<u32>::new());
    }

    #[test]
    fn edge_schedule_counts_and_pairing() {
        // 5 lanes, w = 2: consumer m consumes min(m, 2) edges; 7 edges
        // total fit the tiny chip's 8 ids without reuse.
        let lanes = lookback_edges(5, 2, 8);
        let total: usize = lanes.iter().map(|l| l.consume.len()).sum();
        assert_eq!(total, 1 + 2 + 2 + 2);
        // Every consumed id is published by exactly the matching lane.
        for (m, le) in lanes.iter().enumerate() {
            for e in &le.consume {
                let p = &lanes[e.producer];
                let published = if e.inclusive {
                    &p.publish_inclusive
                } else {
                    &p.publish_partial
                };
                assert!(published.contains(&e.id), "lane {m} edge {e:?}");
            }
        }
        // Lane 0 publishes inclusive only; the last lane publishes
        // nothing.
        assert!(lanes[0].publish_partial.is_empty());
        assert_eq!(lanes[0].publish_inclusive.len(), 2);
        assert!(lanes[4].publish_partial.is_empty());
        assert!(lanes[4].publish_inclusive.is_empty());
    }

    #[test]
    fn matches_reference_multi_lane() {
        let (spec, gm) = setup();
        // 3000 elements / 256-elem tiles = 12 tiles; tpl=2 → 6 lanes →
        // 3 blocks on the tiny chip (intra- and inter-block chaining).
        let data: Vec<i8> = (0..3000).map(|i| ((i * 7) % 11) as i8 - 5).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = scanc::<i8, i16, i32>(&spec, &gm, &x, cfg(16, 2)).unwrap();
        assert_eq!(
            run.y.to_vec(),
            reference::inclusive_widening::<i8, i32>(&data)
        );
        assert_eq!(run.report.blocks, 3);
        // No barrier: the whole point of the chained look-back.
        assert_eq!(run.report.sync_rounds, 0);
    }

    #[test]
    fn window_sizes_agree_bit_for_bit() {
        let (spec, gm) = setup();
        let data: Vec<i8> = (0..4000).map(|i| ((i * 7) % 11) as i8 - 5).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let expect = reference::inclusive_widening::<i8, i32>(&data);
        for w in [1, 2] {
            let run = scanc::<i8, i16, i32>(
                &spec,
                &gm,
                &x,
                ScanCConfig {
                    s: 16,
                    tiles_per_lane: 1,
                    lookback_window: w,
                    kind: ScanKind::Inclusive,
                },
            )
            .unwrap();
            assert_eq!(run.y.to_vec(), expect, "window {w}");
        }
    }

    #[test]
    fn oversubscribed_lanes_wave_multiplex() {
        // tpl=1 → 12 lanes → 6 blocks on 2 AI cores: the grid
        // oversubscribes and the look-back chain spans waves.
        let (spec, gm) = setup();
        let data: Vec<i8> = (0..3000).map(|i| ((i * 5) % 9) as i8 - 4).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = scanc::<i8, i16, i32>(&spec, &gm, &x, cfg(16, 1)).unwrap();
        assert_eq!(
            run.y.to_vec(),
            reference::inclusive_widening::<i8, i32>(&data)
        );
        assert_eq!(run.report.blocks, 6);
        assert!(run.report.blocks > spec.ai_cores);
    }

    #[test]
    fn fp16_small_values_exact() {
        let (spec, gm) = setup();
        // Sum < 2048 keeps every partial exact in f16, so any
        // association (lane-local scan + one offset add) is exact too.
        let data: Vec<F16> = (0..700).map(|i| F16::from_f32((i % 4) as f32)).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = scanc::<F16, F16, F16>(&spec, &gm, &x, cfg(16, 2)).unwrap();
        assert_eq!(run.y.to_vec(), reference::inclusive(&data));
    }

    #[test]
    fn mask_scan_u8_to_i32() {
        let (spec, gm) = setup();
        let data: Vec<u8> = (0..1000).map(|i| ((i * 13) % 3 == 0) as u8).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = scanc::<u8, i16, i32>(&spec, &gm, &x, cfg(16, 2)).unwrap();
        assert_eq!(
            run.y.to_vec(),
            reference::inclusive_widening::<u8, i32>(&data)
        );
    }

    #[test]
    fn partial_tail_tile() {
        let (spec, gm) = setup();
        let data: Vec<i8> = (0..600).map(|i| ((i * 7) % 11) as i8 - 5).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = scanc::<i8, i16, i32>(&spec, &gm, &x, cfg(16, 2)).unwrap();
        assert_eq!(
            run.y.to_vec(),
            reference::inclusive_widening::<i8, i32>(&data)
        );
    }

    #[test]
    fn single_tile_and_empty() {
        let (spec, gm) = setup();
        let data = vec![2i8, 3, -1, 7];
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = scanc::<i8, i16, i32>(&spec, &gm, &x, cfg(16, 2)).unwrap();
        assert_eq!(run.y.to_vec(), vec![2, 5, 4, 11]);

        let empty = GlobalTensor::<i8>::new(&gm, 0).unwrap();
        let run = scanc::<i8, i16, i32>(&spec, &gm, &empty, cfg(16, 2)).unwrap();
        assert_eq!(run.report.elements, 0);
    }

    #[test]
    fn exclusive_matches_reference_at_tile_edges() {
        let (spec, gm) = setup();
        let l = 16 * 16;
        // Empty, one element, one tile ± 1, a partial tail tile, and
        // 3000 elements: 12 tiles in 6 lanes (tpl 2, 3 blocks) or 12
        // lanes (tpl 1, 6 blocks on 2 AI cores: oversubscribed).
        for n in [0, 1, l - 1, l, l + 1, 600, 3000] {
            let mask: Vec<u8> = (0..n).map(|i| u8::from((i * 13) % 5 != 0)).collect();
            let x = GlobalTensor::from_slice(&gm, &mask).unwrap();
            let expect = reference::exclusive_widening::<u8, i32>(&mask);
            for (tpl, w) in [(2, 1), (2, 2), (1, 1), (1, 2)] {
                let cfg = ScanCConfig {
                    s: 16,
                    tiles_per_lane: tpl,
                    lookback_window: w,
                    kind: ScanKind::Exclusive,
                };
                let run = scanc::<u8, i16, i32>(&spec, &gm, &x, cfg).unwrap();
                assert_eq!(run.y.to_vec(), expect, "n={n} tpl={tpl} w={w}");
                if n == 3000 && tpl == 1 {
                    assert!(run.report.blocks > spec.ai_cores);
                }
            }
        }
    }

    #[test]
    fn exclusive_fp16_is_the_shifted_inclusive_scan() {
        let (spec, gm) = setup();
        let data: Vec<F16> = (0..700).map(|i| F16::from_f32((i % 4) as f32)).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let cfg = ScanCConfig {
            kind: ScanKind::Exclusive,
            ..cfg(16, 2)
        };
        let run = scanc::<F16, F16, F16>(&spec, &gm, &x, cfg).unwrap();
        assert_eq!(run.y.to_vec(), reference::exclusive(&data));
    }

    #[test]
    fn rejects_bad_config() {
        let (spec, gm) = setup();
        let x = GlobalTensor::from_slice(&gm, &[1i8; 8]).unwrap();
        assert!(scanc::<i8, i16, i32>(&spec, &gm, &x, cfg(0, 1)).is_err());
        assert!(scanc::<i8, i16, i32>(&spec, &gm, &x, cfg(20, 1)).is_err());
        assert!(scanc::<i8, i16, i32>(&spec, &gm, &x, cfg(16, 0)).is_err());
        // Window 0 and windows whose w² exceeds the tiny chip's 8 flag
        // ids are rejected.
        for w in [0, 3, 4] {
            let bad = ScanCConfig {
                s: 16,
                tiles_per_lane: 1,
                lookback_window: w,
                kind: ScanKind::Inclusive,
            };
            assert!(scanc::<i8, i16, i32>(&spec, &gm, &x, bad).is_err(), "w={w}");
        }
    }

    #[test]
    fn report_has_sane_metrics() {
        let (spec, gm) = setup();
        let n = 4096usize;
        let data = vec![1i8; n];
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let run = scanc::<i8, i16, i32>(&spec, &gm, &x, cfg(16, 2)).unwrap();
        let r = &run.report;
        // x once (1B) + w once (2B) read; w write (2B) + y write (4B).
        let read_lo = (n + 2 * n) as u64;
        let written_lo = (2 * n + 4 * n) as u64;
        assert!(r.bytes_read >= read_lo, "{} < {read_lo}", r.bytes_read);
        assert!(r.bytes_read < read_lo + 8192, "{}", r.bytes_read);
        assert!(r.bytes_written >= written_lo);
        assert!(r.bytes_written < written_lo + 4096);
        assert_eq!(r.useful_bytes, (n * (1 + 4)) as u64);
        assert_eq!(r.sync_rounds, 0);
    }

    #[test]
    fn moves_fewer_bytes_than_mcscan() {
        // The tentpole claim: dropping the recomputation read cuts
        // total GM traffic below MCScan's for the same input.
        let (spec, gm) = setup();
        let data: Vec<i8> = (0..6000).map(|i| (i % 7) as i8).collect();
        let x = GlobalTensor::from_slice(&gm, &data).unwrap();
        let sc = scanc::<i8, i16, i32>(&spec, &gm, &x, cfg(16, 2)).unwrap();
        let mc = mcscan::<i8, i16, i32>(
            &spec,
            &gm,
            &x,
            McScanConfig {
                s: 16,
                blocks: 2,
                kind: ScanKind::Inclusive,
            },
        )
        .unwrap();
        assert_eq!(sc.y.to_vec(), mc.y.to_vec());
        let sc_total = sc.report.bytes_read + sc.report.bytes_written;
        let mc_total = mc.report.bytes_read + mc.report.bytes_written;
        assert!(
            sc_total < mc_total,
            "ScanC moved {sc_total} B, MCScan {mc_total} B"
        );
    }
}
