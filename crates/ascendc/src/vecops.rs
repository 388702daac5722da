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

/// Integer elements with bit-wise vector operations (`ShiftRight`, `Not`,
/// `And`, `Or`) — what the radix-extraction kernels work on.
pub trait Bits: Element {
    /// Logical shift right.
    fn shr(self, bits: u32) -> Self;
    /// Logical shift left.
    fn shl(self, bits: u32) -> Self;
    /// Bit-wise and.
    fn and(self, rhs: Self) -> Self;
    /// Bit-wise or.
    fn or(self, rhs: Self) -> Self;
    /// Bit-wise not.
    fn not(self) -> Self;
}

macro_rules! impl_bits {
    ($t:ty) => {
        impl Bits for $t {
            #[inline]
            fn shr(self, bits: u32) -> Self {
                self >> bits
            }
            #[inline]
            fn shl(self, bits: u32) -> Self {
                self << bits
            }
            #[inline]
            fn and(self, rhs: Self) -> Self {
                self & rhs
            }
            #[inline]
            fn or(self, rhs: Self) -> Self {
                self | rhs
            }
            #[inline]
            fn not(self) -> Self {
                !self
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

    /// Shifted in-place add within one tensor:
    /// `t[off+shift .. off+len] += t[off .. off+len-shift]`.
    ///
    /// This is the Hillis–Steele step the vector-only `CumSum` baseline
    /// is built from (one instruction per log-step).
    pub fn vshift_add<T: Numeric>(
        &mut self,
        t: &mut LocalTensor<T>,
        off: usize,
        len: usize,
        shift: usize,
    ) -> SimResult<EventTime> {
        self.check_vec("ShiftAdd", t)?;
        t.check_range("ShiftAdd", off, len)?;
        if shift == 0 || shift >= len {
            return Err(SimError::InvalidArgument(format!(
                "ShiftAdd: shift {shift} out of range for len {len}"
            )));
        }
        for i in (shift..len).rev() {
            t.data[off + i] = t.data[off + i].add(t.data[off + i - shift]);
        }
        let done = self.vec_exec(len * T::SIZE, &[t.ready])?;
        t.ready = done;
        Ok(done)
    }

    /// `Duplicate`: fills `t[off..off+len]` with a scalar.
    pub fn vdup<T: Numeric>(
        &mut self,
        t: &mut LocalTensor<T>,
        off: usize,
        len: usize,
        value: T,
        scalar_ready: EventTime,
    ) -> SimResult<EventTime> {
        self.check_vec("Duplicate", t)?;
        t.check_range("Duplicate", off, len)?;
        for v in &mut t.data[off..off + len] {
            *v = value;
        }
        let done = self.vec_exec(len * T::SIZE, &[t.ready, scalar_ready])?;
        t.ready = done;
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

    /// `ReduceMax`: maximum of `t[off..off+len]` (PartialOrd; NaNs are
    /// skipped, like the hardware's max-number semantics).
    pub fn reduce_max<T: Numeric>(
        &mut self,
        t: &LocalTensor<T>,
        off: usize,
        len: usize,
    ) -> SimResult<(T, EventTime)> {
        self.check_vec("ReduceMax", t)?;
        t.check_range("ReduceMax", off, len)?;
        let mut best = t.data[off];
        for v in &t.data[off + 1..off + len] {
            // `partial_cmp` is None when `best` is NaN: replace it, like
            // the hardware's max-number semantics.
            if *v > best || best.partial_cmp(&best).is_none() {
                best = *v;
            }
        }
        let cost = self.spec.cost_vector_reduce(len * T::SIZE) + self.spec.cost_scalar_extract();
        let done = self
            .timeline_mut()
            .exec(EngineKind::Vec, cost, &[t.ready])?;
        Ok((best, done))
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

    /// `Select`: `dst[i] = if mask[i] != 0 { a[i] } else { b[i] }`.
    pub fn vselect<T: Element>(
        &mut self,
        dst: &mut LocalTensor<T>,
        mask: &LocalTensor<u8>,
        a: &LocalTensor<T>,
        b: &LocalTensor<T>,
        off: usize,
        len: usize,
    ) -> SimResult<EventTime> {
        self.check_vec("Select", dst)?;
        dst.check_range("Select dst", off, len)?;
        mask.check_range("Select mask", off, len)?;
        a.check_range("Select a", off, len)?;
        b.check_range("Select b", off, len)?;
        for i in 0..len {
            dst.data[off + i] = if mask.data[off + i] != 0 {
                a.data[off + i]
            } else {
                b.data[off + i]
            };
        }
        let done = self.vec_exec(len * T::SIZE, &[dst.ready, mask.ready, a.ready, b.ready])?;
        dst.ready = done;
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

    /// Reinterprets the bits of `src` as `dst`'s same-width type (the
    /// radix-sort encode path observes float bits; hardware does this for
    /// free, here it is a vector move).
    pub fn vbitcast<S: Element, D: Element>(
        &mut self,
        dst: &mut LocalTensor<D>,
        src: &LocalTensor<S>,
        off: usize,
        len: usize,
    ) -> SimResult<EventTime> {
        self.check_vec("BitCast", dst)?;
        self.check_vec("BitCast", src)?;
        if S::SIZE != D::SIZE {
            return Err(SimError::InvalidArgument(format!(
                "BitCast requires equal widths ({} vs {})",
                S::SIZE,
                D::SIZE
            )));
        }
        dst.check_range("BitCast dst", off, len)?;
        src.check_range("BitCast src", off, len)?;
        let mut buf = vec![0u8; S::SIZE];
        for i in 0..len {
            src.data[off + i].write_le(&mut buf);
            dst.data[off + i] = D::read_le(&buf);
        }
        let done = self.vec_exec(len * S::SIZE, &[dst.ready, src.ready])?;
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

    /// Radix-sort pre-processing: order-preserving encode of `src` into
    /// the unsigned key domain (flip MSB of non-negatives / all bits of
    /// negatives for floats; flip the sign bit for signed integers).
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

    /// Radix-sort post-processing: inverse of [`Core::vradix_encode`].
    pub fn vradix_decode<K>(
        &mut self,
        dst: &mut LocalTensor<K>,
        src: &LocalTensor<K::Encoded>,
        off: usize,
        len: usize,
    ) -> SimResult<EventTime>
    where
        K: dtypes::RadixKey + Element,
        K::Encoded: Element,
    {
        self.check_vec("KeyDecode", dst)?;
        self.check_vec("KeyDecode", src)?;
        dst.check_range("KeyDecode dst", off, len)?;
        src.check_range("KeyDecode src", off, len)?;
        for i in 0..len {
            dst.data[off + i] = K::decode(src.data[off + i]);
        }
        let bytes = len * K::SIZE;
        let cost = 3 * self.spec.cost_vector_op(bytes);
        let done = self
            .timeline_mut()
            .exec(EngineKind::Vec, cost, &[dst.ready, src.ready])?;
        dst.ready = done;
        Ok(done)
    }

    /// `ShiftRight` by a scalar bit count, in place.
    pub fn vshr<T: Bits>(
        &mut self,
        t: &mut LocalTensor<T>,
        off: usize,
        len: usize,
        bits: u32,
    ) -> SimResult<EventTime> {
        self.check_vec("ShiftRight", t)?;
        t.check_range("ShiftRight", off, len)?;
        for v in &mut t.data[off..off + len] {
            *v = v.shr(bits);
        }
        let done = self.vec_exec(len * T::SIZE, &[t.ready])?;
        t.ready = done;
        Ok(done)
    }

    /// `And` with a scalar, in place.
    pub fn vand_scalar<T: Bits>(
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

    /// `Or` with a scalar, in place.
    pub fn vor_scalar<T: Bits>(
        &mut self,
        t: &mut LocalTensor<T>,
        off: usize,
        len: usize,
        mask: T,
    ) -> SimResult<EventTime> {
        self.check_vec("Or", t)?;
        t.check_range("Or", off, len)?;
        for v in &mut t.data[off..off + len] {
            *v = v.or(mask);
        }
        let done = self.vec_exec(len * T::SIZE, &[t.ready])?;
        t.ready = done;
        Ok(done)
    }

    /// `Not`, in place.
    pub fn vnot<T: Bits>(
        &mut self,
        t: &mut LocalTensor<T>,
        off: usize,
        len: usize,
    ) -> SimResult<EventTime> {
        self.check_vec("Not", t)?;
        t.check_range("Not", off, len)?;
        for v in &mut t.data[off..off + len] {
            *v = v.not();
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
    fn shift_add_is_hillis_steele_step() {
        with_vec_core(|core| {
            let mut t = core.alloc_local::<i32>(ScratchpadKind::Ub, 8).unwrap();
            t.data.copy_from_slice(&[1, 1, 1, 1, 1, 1, 1, 1]);
            core.vshift_add(&mut t, 0, 8, 1).unwrap();
            core.vshift_add(&mut t, 0, 8, 2).unwrap();
            core.vshift_add(&mut t, 0, 8, 4).unwrap();
            assert_eq!(t.as_slice(), &[1, 2, 3, 4, 5, 6, 7, 8]);
            assert!(core.vshift_add(&mut t, 0, 8, 8).is_err());
            assert!(core.vshift_add(&mut t, 0, 8, 0).is_err());
        });
    }

    #[test]
    fn reductions_and_extract() {
        with_vec_core(|core| {
            let mut t = core.alloc_local::<i32>(ScratchpadKind::Ub, 6).unwrap();
            t.data.copy_from_slice(&[3, -1, 7, 0, 5, 2]);
            let (sum, t1) = core.reduce_sum(&t, 0, 6).unwrap();
            assert_eq!(sum, 16);
            let (max, _) = core.reduce_max(&t, 0, 6).unwrap();
            assert_eq!(max, 7);
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
    fn compare_select_cast() {
        with_vec_core(|core| {
            let mut mask = core.alloc_local::<u8>(ScratchpadKind::Ub, 4).unwrap();
            let mut a = core.alloc_local::<f32>(ScratchpadKind::Ub, 4).unwrap();
            let mut b = core.alloc_local::<f32>(ScratchpadKind::Ub, 4).unwrap();
            let mut dst = core.alloc_local::<f32>(ScratchpadKind::Ub, 4).unwrap();
            a.data.copy_from_slice(&[1., 5., 3., 9.]);
            core.vdup(&mut b, 0, 4, -1.0, 0).unwrap();
            core.vcompare_scalar(&mut mask, &a, 0, 4, CmpMode::Gt, 2.5, 0)
                .unwrap();
            assert_eq!(mask.as_slice(), &[0, 1, 1, 1]);
            core.vselect(&mut dst, &mask, &a, &b, 0, 4).unwrap();
            assert_eq!(dst.as_slice(), &[-1., 5., 3., 9.]);

            let mut ints = core.alloc_local::<i32>(ScratchpadKind::Ub, 4).unwrap();
            core.vcast(&mut ints, &dst, 0, 4).unwrap();
            assert_eq!(ints.as_slice(), &[-1, 5, 3, 9]);
        });
    }

    #[test]
    fn bitwise_ops() {
        with_vec_core(|core| {
            let mut t = core.alloc_local::<u16>(ScratchpadKind::Ub, 4).unwrap();
            t.data.copy_from_slice(&[0b1010, 0b1100, 0xFFFF, 0]);
            core.vshr(&mut t, 0, 4, 2).unwrap();
            assert_eq!(t.as_slice(), &[0b10, 0b11, 0x3FFF, 0]);
            core.vand_scalar(&mut t, 0, 4, 1).unwrap();
            assert_eq!(t.as_slice(), &[0, 1, 1, 0]);
            core.vnot(&mut t, 0, 4).unwrap();
            assert_eq!(t.as_slice(), &[0xFFFF, 0xFFFE, 0xFFFE, 0xFFFF]);
            core.vor_scalar(&mut t, 0, 4, 1).unwrap();
            assert_eq!(t.as_slice(), &[0xFFFF, 0xFFFF, 0xFFFF, 0xFFFF]);
        });
    }

    #[test]
    fn bitcast_requires_equal_width() {
        with_vec_core(|core| {
            let mut dst16 = core.alloc_local::<u16>(ScratchpadKind::Ub, 2).unwrap();
            let mut f16s = core
                .alloc_local::<dtypes::F16>(ScratchpadKind::Ub, 2)
                .unwrap();
            f16s.data
                .copy_from_slice(&[dtypes::F16::ONE, dtypes::F16::NEG_ONE]);
            core.vbitcast(&mut dst16, &f16s, 0, 2).unwrap();
            assert_eq!(dst16.as_slice(), &[0x3C00, 0xBC00]);

            let mut dst32 = core.alloc_local::<u32>(ScratchpadKind::Ub, 2).unwrap();
            assert!(core.vbitcast(&mut dst32, &f16s, 0, 2).is_err());
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
