//! Vector-engine intrinsics (the AIV core's SIMD instruction set).
//!
//! All operations here execute on the `VEC` engine of a vector core and
//! require their operands to live in the Unified Buffer. Each op performs
//! its real arithmetic and charges the cost model: a per-instruction
//! issue overhead plus bytes/`vec_bytes_per_cycle` cycles, with extra
//! latency for reductions and for moving single values into the scalar
//! unit (`extract` — the `partial ← last entry` step of the scans).

use crate::core::{CmpMode, Core};
use crate::tensor::LocalTensor;
use ascend_sim::chip::ScratchpadKind;
use ascend_sim::{CoreKind, EngineKind, EventTime, SimError, SimResult};
use dtypes::{Element, Numeric};

/// Integer elements with a bit-wise vector `And` — what radix digit
/// extraction works on.
pub trait Bits: Element {
    /// Bit-wise and.
    fn and(self, rhs: Self) -> Self;
}

macro_rules! impl_bits {
    ($t:ty) => {
        impl Bits for $t {
            #[inline]
            fn and(self, rhs: Self) -> Self {
                self & rhs
            }
        }
    };
}

impl_bits!(u8);
impl_bits!(u16);
impl_bits!(u32);

impl Core<'_> {
    fn check_vec<T: Element>(&self, what: &'static str, t: &LocalTensor<T>) -> SimResult<()> {
        if self.kind != CoreKind::Vector {
            return Err(SimError::WrongCore {
                instr: what,
                core: self.kind.name(),
            });
        }
        if t.pos != ScratchpadKind::Ub {
            return Err(SimError::InvalidArgument(format!(
                "{what}: vector operands must live in UB (got {})",
                t.pos.name()
            )));
        }
        self.check_live(what, t)
    }

    fn vec_exec(&mut self, bytes: usize, deps: &[EventTime]) -> SimResult<EventTime> {
        let cost = self.spec.cost_vector_op(bytes);
        self.timeline_mut().exec(EngineKind::Vec, cost, deps)
    }

    /// `Adds`: adds a scalar to `t[off..off+len]` in place.
    ///
    /// `scalar_ready` is when the scalar operand becomes available (e.g.
    /// the completion time of the `extract` that produced it).
    pub fn vadds<T: Numeric>(
        &mut self,
        t: &mut LocalTensor<T>,
        off: usize,
        len: usize,
        scalar: T,
        scalar_ready: EventTime,
    ) -> SimResult<EventTime> {
        self.check_vec("Adds", t)?;
        t.check_range("Adds", off, len)?;
        for v in &mut t.data[off..off + len] {
            *v = v.add(scalar);
        }
        let done = self.vec_exec(len * T::SIZE, &[t.ready, scalar_ready])?;
        t.ready = done;
        Ok(done)
    }

    /// `Muls`: multiplies `t[off..off+len]` by a scalar in place.
    pub fn vmuls<T: Numeric>(
        &mut self,
        t: &mut LocalTensor<T>,
        off: usize,
        len: usize,
        scalar: T,
        scalar_ready: EventTime,
    ) -> SimResult<EventTime> {
        self.check_vec("Muls", t)?;
        t.check_range("Muls", off, len)?;
        for v in &mut t.data[off..off + len] {
            *v = v.mul(scalar);
        }
        let done = self.vec_exec(len * T::SIZE, &[t.ready, scalar_ready])?;
        t.ready = done;
        Ok(done)
    }

    /// `Add`: element-wise `dst[d..] += src[s..]`.
    pub fn vadd_inplace<T: Numeric>(
        &mut self,
        dst: &mut LocalTensor<T>,
        dst_off: usize,
        src: &LocalTensor<T>,
        src_off: usize,
        len: usize,
    ) -> SimResult<EventTime> {
        self.check_vec("Add", dst)?;
        self.check_vec("Add", src)?;
        dst.check_range("Add dst", dst_off, len)?;
        src.check_range("Add src", src_off, len)?;
        for i in 0..len {
            dst.data[dst_off + i] = dst.data[dst_off + i].add(src.data[src_off + i]);
        }
        let done = self.vec_exec(len * T::SIZE, &[dst.ready, src.ready])?;
        dst.ready = done;
        Ok(done)
    }

    /// `Sub`: element-wise `dst[d..] -= src[s..]`.
    pub fn vsub_inplace<T: Numeric>(
        &mut self,
        dst: &mut LocalTensor<T>,
        dst_off: usize,
        src: &LocalTensor<T>,
        src_off: usize,
        len: usize,
    ) -> SimResult<EventTime> {
        self.check_vec("Sub", dst)?;
        self.check_vec("Sub", src)?;
        dst.check_range("Sub dst", dst_off, len)?;
        src.check_range("Sub src", src_off, len)?;
        for i in 0..len {
            dst.data[dst_off + i] = dst.data[dst_off + i].sub(src.data[src_off + i]);
        }
        let done = self.vec_exec(len * T::SIZE, &[dst.ready, src.ready])?;
        dst.ready = done;
        Ok(done)
    }

    /// `ReduceSum` over `t[off..off+len]`: returns the sum and the time
    /// at which the scalar unit can observe it.
    ///
    /// The functional sum uses pairwise (tree) accumulation, matching
    /// the lane-tree the hardware reduction performs — for fp16 this is
    /// dramatically more accurate than a sequential sum (a sequential
    /// fp16 accumulator saturates near 2048 for sub-unit elements).
    pub fn reduce_sum<T: Numeric>(
        &mut self,
        t: &LocalTensor<T>,
        off: usize,
        len: usize,
    ) -> SimResult<(T, EventTime)> {
        self.check_vec("ReduceSum", t)?;
        t.check_range("ReduceSum", off, len)?;
        fn pairwise<T: Numeric>(v: &[T]) -> T {
            match v.len() {
                0 => T::zero(),
                1 => v[0],
                n => {
                    let mid = n / 2;
                    pairwise(&v[..mid]).add(pairwise(&v[mid..]))
                }
            }
        }
        let acc = pairwise(&t.data[off..off + len]);
        let cost = self.spec.cost_vector_reduce(len * T::SIZE) + self.spec.cost_scalar_extract();
        let done = self
            .timeline_mut()
            .exec(EngineKind::Vec, cost, &[t.ready])?;
        Ok((acc, done))
    }

    /// Reads one element into the scalar unit (the `partial ← last entry`
    /// vector→scalar hazard). Returns the value and its availability time.
    pub fn extract<T: Element>(
        &mut self,
        t: &LocalTensor<T>,
        idx: usize,
    ) -> SimResult<(T, EventTime)> {
        self.check_vec("Extract", t)?;
        t.check_range("Extract", idx, 1)?;
        let cost = self.spec.cost_scalar_extract();
        let done = self
            .timeline_mut()
            .exec(EngineKind::Scalar, cost, &[t.ready])?;
        Ok((t.data[idx], done))
    }

    /// Writes one scalar into an element slot (scalar→vector move).
    pub fn insert<T: Element>(
        &mut self,
        t: &mut LocalTensor<T>,
        idx: usize,
        value: T,
        scalar_ready: EventTime,
    ) -> SimResult<EventTime> {
        self.check_vec("Insert", t)?;
        t.check_range("Insert", idx, 1)?;
        t.data[idx] = value;
        let cost = self.spec.cost_scalar_extract();
        let done = self
            .timeline_mut()
            .exec(EngineKind::Scalar, cost, &[t.ready, scalar_ready])?;
        t.ready = done;
        Ok(done)
    }

    /// `GatherMask`: gathers elements of `src[off..off+len]` whose mask
    /// byte is non-zero into the front of `dst`, preserving order.
    /// Returns the number gathered and the completion time.
    pub fn gather_mask<T: Element>(
        &mut self,
        dst: &mut LocalTensor<T>,
        src: &LocalTensor<T>,
        mask: &LocalTensor<u8>,
        off: usize,
        len: usize,
    ) -> SimResult<(usize, EventTime)> {
        self.check_vec("GatherMask", dst)?;
        self.check_vec("GatherMask", src)?;
        self.check_vec("GatherMask", mask)?;
        src.check_range("GatherMask src", off, len)?;
        mask.check_range("GatherMask mask", off, len)?;
        let mut count = 0;
        for i in 0..len {
            if mask.data[off + i] != 0 {
                dst.check_range("GatherMask dst", count, 1)?;
                dst.data[count] = src.data[off + i];
                count += 1;
            }
        }
        let cost = self.spec.cost_vector_reduce((len + count) * T::SIZE);
        let done =
            self.timeline_mut()
                .exec(EngineKind::Vec, cost, &[dst.ready, src.ready, mask.ready])?;
        dst.ready = done;
        Ok((count, done))
    }

    /// `GetGatherMaskRemainCount`: moves the count of a `GatherMask`
    /// that retires at `ready` into the scalar unit, priced as
    /// [`Extract`](Self::extract). `after` orders it behind earlier
    /// scalar work, such as the address the count advances.
    pub fn gather_count(&mut self, ready: EventTime, after: EventTime) -> SimResult<EventTime> {
        let cost = self.spec.cost_scalar_extract();
        self.timeline_mut()
            .exec(EngineKind::Scalar, cost, &[ready, after])
    }

    /// `Compare`: `dst_mask[i] = (src[i] <op> scalar) as u8`.
    #[allow(clippy::too_many_arguments)]
    pub fn vcompare_scalar<T: Numeric>(
        &mut self,
        dst_mask: &mut LocalTensor<u8>,
        src: &LocalTensor<T>,
        off: usize,
        len: usize,
        mode: CmpMode,
        scalar: T,
        scalar_ready: EventTime,
    ) -> SimResult<EventTime> {
        self.check_vec("Compare", dst_mask)?;
        self.check_vec("Compare", src)?;
        dst_mask.check_range("Compare dst", off, len)?;
        src.check_range("Compare src", off, len)?;
        for i in 0..len {
            let v = src.data[off + i];
            let hit = match mode {
                CmpMode::Lt => v < scalar,
                CmpMode::Le => v <= scalar,
                CmpMode::Gt => v > scalar,
                CmpMode::Ge => v >= scalar,
                CmpMode::Eq => v == scalar,
                CmpMode::Ne => v != scalar,
            };
            dst_mask.data[off + i] = u8::from(hit);
        }
        let done = self.vec_exec(len * T::SIZE, &[dst_mask.ready, src.ready, scalar_ready])?;
        dst_mask.ready = done;
        Ok(done)
    }

    /// `Cast`: converts `src[off..off+len]` into `dst`'s element type.
    pub fn vcast<S: Numeric, D: Numeric>(
        &mut self,
        dst: &mut LocalTensor<D>,
        src: &LocalTensor<S>,
        off: usize,
        len: usize,
    ) -> SimResult<EventTime> {
        self.check_vec("Cast", dst)?;
        self.check_vec("Cast", src)?;
        dst.check_range("Cast dst", off, len)?;
        src.check_range("Cast src", off, len)?;
        for i in 0..len {
            dst.data[off + i] = D::from_f64(src.data[off + i].to_f64());
        }
        let done = self.vec_exec(len * S::SIZE.max(D::SIZE), &[dst.ready, src.ready])?;
        dst.ready = done;
        Ok(done)
    }

    /// `CreateVecIndex`: fills `t[off..off+len]` with the ramp
    /// `start, start+1, …` (used to materialize original indices for
    /// `SplitInd`).
    pub fn viota(
        &mut self,
        t: &mut LocalTensor<u32>,
        off: usize,
        len: usize,
        start: u32,
    ) -> SimResult<EventTime> {
        self.check_vec("CreateVecIndex", t)?;
        t.check_range("CreateVecIndex", off, len)?;
        for (i, v) in t.data[off..off + len].iter_mut().enumerate() {
            *v = start + i as u32;
        }
        let done = self.vec_exec(len * 4, &[t.ready])?;
        t.ready = done;
        Ok(done)
    }

    /// `KeyEncode`: order-preserving encode of `src` into the unsigned
    /// key domain (flip the MSB of non-negatives and all bits of
    /// negatives for floats; flip the sign bit for signed integers; the
    /// identity for unsigned integers), so that digits of the encoded
    /// keys order the raw ones.
    ///
    /// On hardware this is the short `ShiftRight`/`Not`/`Or` bit-trick
    /// sequence the paper describes; it is charged as three vector
    /// instructions.
    pub fn vradix_encode<K>(
        &mut self,
        dst: &mut LocalTensor<K::Encoded>,
        src: &LocalTensor<K>,
        off: usize,
        len: usize,
    ) -> SimResult<EventTime>
    where
        K: dtypes::RadixKey + Element,
        K::Encoded: Element,
    {
        self.check_vec("KeyEncode", dst)?;
        self.check_vec("KeyEncode", src)?;
        dst.check_range("KeyEncode dst", off, len)?;
        src.check_range("KeyEncode src", off, len)?;
        for i in 0..len {
            dst.data[off + i] = src.data[off + i].encode();
        }
        let bytes = len * K::SIZE;
        let cost = 3 * self.spec.cost_vector_op(bytes);
        let done = self
            .timeline_mut()
            .exec(EngineKind::Vec, cost, &[dst.ready, src.ready])?;
        dst.ready = done;
        Ok(done)
    }

    /// `And` with a scalar, in place: `t[i] &= mask` over
    /// `off..off+len`.
    pub fn vand_scalar_inplace<T: Bits>(
        &mut self,
        t: &mut LocalTensor<T>,
        off: usize,
        len: usize,
        mask: T,
    ) -> SimResult<EventTime> {
        self.check_vec("And", t)?;
        t.check_range("And", off, len)?;
        for v in &mut t.data[off..off + len] {
            *v = v.and(mask);
        }
        let done = self.vec_exec(len * T::SIZE, &[t.ready])?;
        t.ready = done;
        Ok(done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascend_sim::ChipSpec;

    fn with_vec_core<R>(f: impl FnOnce(&mut Core<'_>) -> R) -> R {
        let spec = ChipSpec::tiny();
        let mut core = Core::new(CoreKind::Vector, &spec, 0, 0, 0);
        f(&mut core)
    }

    #[test]
    fn adds_and_muls() {
        with_vec_core(|core| {
            let mut t = core.alloc_local::<f32>(ScratchpadKind::Ub, 8).unwrap();
            t.data.copy_from_slice(&[1., 2., 3., 4., 5., 6., 7., 8.]);
            core.vadds(&mut t, 0, 8, 10.0, 0).unwrap();
            assert_eq!(t.as_slice()[0], 11.0);
            assert_eq!(t.as_slice()[7], 18.0);
            core.vmuls(&mut t, 0, 4, 2.0, 0).unwrap();
            assert_eq!(t.as_slice()[0], 22.0);
            assert_eq!(t.as_slice()[4], 15.0, "outside range untouched");
        });
    }

    #[test]
    fn reductions_and_extract() {
        with_vec_core(|core| {
            let mut t = core.alloc_local::<i32>(ScratchpadKind::Ub, 6).unwrap();
            t.data.copy_from_slice(&[3, -1, 7, 0, 5, 2]);
            let (sum, t1) = core.reduce_sum(&t, 0, 6).unwrap();
            assert_eq!(sum, 16);
            let (v, t2) = core.extract(&t, 2).unwrap();
            assert_eq!(v, 7);
            assert!(t1 > 0 && t2 > 0);
        });
    }

    #[test]
    fn gather_mask_compacts_stably() {
        with_vec_core(|core| {
            let mut dst = core.alloc_local::<u16>(ScratchpadKind::Ub, 8).unwrap();
            let mut src = core.alloc_local::<u16>(ScratchpadKind::Ub, 8).unwrap();
            let mut mask = core.alloc_local::<u8>(ScratchpadKind::Ub, 8).unwrap();
            src.data.copy_from_slice(&[10, 11, 12, 13, 14, 15, 16, 17]);
            mask.data.copy_from_slice(&[1, 0, 1, 1, 0, 0, 1, 0]);
            let (count, _) = core.gather_mask(&mut dst, &src, &mask, 0, 8).unwrap();
            assert_eq!(count, 4);
            assert_eq!(&dst.as_slice()[..4], &[10, 12, 13, 16]);
        });
    }

    #[test]
    fn compare_and_cast() {
        with_vec_core(|core| {
            let mut mask = core.alloc_local::<u8>(ScratchpadKind::Ub, 4).unwrap();
            let mut a = core.alloc_local::<f32>(ScratchpadKind::Ub, 4).unwrap();
            a.data.copy_from_slice(&[-1., 5., 3., 9.]);
            core.vcompare_scalar(&mut mask, &a, 0, 4, CmpMode::Gt, 2.5, 0)
                .unwrap();
            assert_eq!(mask.as_slice(), &[0, 1, 1, 1]);

            let mut ints = core.alloc_local::<i32>(ScratchpadKind::Ub, 4).unwrap();
            core.vcast(&mut ints, &a, 0, 4).unwrap();
            assert_eq!(ints.as_slice(), &[-1, 5, 3, 9]);
        });
    }

    #[test]
    fn bitwise_ops() {
        with_vec_core(|core| {
            let mut t = core.alloc_local::<u16>(ScratchpadKind::Ub, 4).unwrap();
            t.data.copy_from_slice(&[0b1010, 0b1100, 0xFFFF, 0]);
            core.vand_scalar_inplace(&mut t, 1, 3, 0b110).unwrap();
            assert_eq!(
                t.as_slice(),
                &[0b1010, 0b100, 0b110, 0],
                "outside range untouched"
            );
        });
    }

    #[test]
    fn vector_ops_rejected_on_cube_core() {
        let spec = ChipSpec::tiny();
        let mut cube = Core::new(CoreKind::Cube, &spec, 0, 0, 0);
        let mut t = LocalTensor::<f32>::new(ScratchpadKind::Ub, 4, 0);
        assert!(cube.vadds(&mut t, 0, 4, 1.0, 0).is_err());
    }

    #[test]
    fn timing_advances_with_each_op() {
        with_vec_core(|core| {
            let mut t = core.alloc_local::<f32>(ScratchpadKind::Ub, 64).unwrap();
            let t1 = core.vadds(&mut t, 0, 64, 1.0, 0).unwrap();
            let t2 = core.vadds(&mut t, 0, 64, 1.0, 0).unwrap();
            assert!(t2 > t1);
            assert_eq!(t.ready(), t2);
            // A dependent op scheduled after an artificial future dep waits.
            let t3 = core.vadds(&mut t, 0, 64, 1.0, 1_000_000).unwrap();
            assert!(t3 > 1_000_000);
        });
    }
}
