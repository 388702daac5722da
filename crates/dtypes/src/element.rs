//! Element and numeric traits shared by the simulator and the kernels.

use crate::f16::F16;
use std::fmt;

/// Runtime tag for an element type stored in simulator memory.
///
/// Mirrors the data types the Ascend 910B compute engines accept. The cube
/// engine consumes `F16` (accumulating in `F32`) and `I8`/`U8` (accumulating
/// in `I32`); the vector engine additionally handles the 16/32-bit integer
/// types used by index bookkeeping.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DType {
    /// 8-bit unsigned integer (mask / boolean storage).
    U8,
    /// 8-bit signed integer (cube low-precision input).
    I8,
    /// 16-bit unsigned integer.
    U16,
    /// 16-bit signed integer.
    I16,
    /// 32-bit unsigned integer (indices).
    U32,
    /// 32-bit signed integer (cube int8 accumulator output).
    I32,
    /// IEEE binary16 (cube fp16 input).
    F16,
    /// IEEE binary32 (cube fp16 accumulator output).
    F32,
}

impl DType {
    /// Size of one element in bytes.
    #[inline]
    pub const fn size(self) -> usize {
        match self {
            DType::U8 | DType::I8 => 1,
            DType::U16 | DType::I16 | DType::F16 => 2,
            DType::U32 | DType::I32 | DType::F32 => 4,
        }
    }

    /// The largest value of an integer type; `None` for floats, whose
    /// sums lose precision instead of wrapping.
    pub const fn int_max(self) -> Option<u64> {
        match self {
            DType::U8 => Some(u8::MAX as u64),
            DType::I8 => Some(i8::MAX as u64),
            DType::U16 => Some(u16::MAX as u64),
            DType::I16 => Some(i16::MAX as u64),
            DType::U32 => Some(u32::MAX as u64),
            DType::I32 => Some(i32::MAX as u64),
            DType::F16 | DType::F32 => None,
        }
    }

    /// Short lowercase name, as used in figure labels (`fp16`, `int8`, ...).
    pub const fn name(self) -> &'static str {
        match self {
            DType::U8 => "uint8",
            DType::I8 => "int8",
            DType::U16 => "uint16",
            DType::I16 => "int16",
            DType::U32 => "uint32",
            DType::I32 => "int32",
            DType::F16 => "fp16",
            DType::F32 => "fp32",
        }
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An element that can be stored in simulated global or local memory.
///
/// Elements serialize to little-endian bytes; the simulator's memory is a
/// plain byte buffer, so every tensor access goes through these methods.
pub trait Element: Copy + Send + Sync + PartialEq + fmt::Debug + 'static {
    /// The runtime type tag.
    const DTYPE: DType;

    /// Byte size (same as `Self::DTYPE.size()`, const for array sizing).
    const SIZE: usize;

    /// Serializes into `out` (`out.len() == Self::SIZE`).
    fn write_le(&self, out: &mut [u8]);

    /// Deserializes from `src` (`src.len() == Self::SIZE`).
    fn read_le(src: &[u8]) -> Self;

    /// The additive identity.
    fn zero() -> Self;
}

macro_rules! impl_element_prim {
    ($t:ty, $dtype:expr) => {
        impl Element for $t {
            const DTYPE: DType = $dtype;
            const SIZE: usize = std::mem::size_of::<$t>();

            #[inline]
            fn write_le(&self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }

            #[inline]
            fn read_le(src: &[u8]) -> Self {
                <$t>::from_le_bytes(src.try_into().expect("element size mismatch"))
            }

            #[inline]
            fn zero() -> Self {
                0 as $t
            }
        }
    };
}

impl_element_prim!(u8, DType::U8);
impl_element_prim!(i8, DType::I8);
impl_element_prim!(u16, DType::U16);
impl_element_prim!(i16, DType::I16);
impl_element_prim!(u32, DType::U32);
impl_element_prim!(i32, DType::I32);
impl_element_prim!(f32, DType::F32);

impl Element for F16 {
    const DTYPE: DType = DType::F16;
    const SIZE: usize = 2;

    #[inline]
    fn write_le(&self, out: &mut [u8]) {
        out.copy_from_slice(&self.0.to_le_bytes());
    }

    #[inline]
    fn read_le(src: &[u8]) -> Self {
        F16(u16::from_le_bytes(src.try_into().expect("f16 size")))
    }

    #[inline]
    fn zero() -> Self {
        F16::ZERO
    }
}

/// Numeric elements: what the vector engine's arithmetic instructions and
/// the scan kernels operate on.
///
/// Integer arithmetic wraps (hardware vector units do not trap on
/// overflow); float arithmetic follows IEEE with f16 round-tripping through
/// f32 per operation.
pub trait Numeric: Element + PartialOrd {
    /// The multiplicative identity.
    fn one() -> Self;

    /// Wrapping/IEEE addition.
    fn add(self, rhs: Self) -> Self;

    /// Wrapping/IEEE subtraction.
    fn sub(self, rhs: Self) -> Self;

    /// Wrapping/IEEE multiplication.
    fn mul(self, rhs: Self) -> Self;

    /// Lossy conversion to `f64` (used for bandwidth math and references).
    fn to_f64(self) -> f64;

    /// Lossy conversion from `f64` with the type's native rounding.
    fn from_f64(v: f64) -> Self;
}

macro_rules! impl_numeric_int {
    ($t:ty) => {
        impl Numeric for $t {
            #[inline]
            fn one() -> Self {
                1 as $t
            }
            #[inline]
            fn add(self, rhs: Self) -> Self {
                self.wrapping_add(rhs)
            }
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                self.wrapping_sub(rhs)
            }
            #[inline]
            fn mul(self, rhs: Self) -> Self {
                self.wrapping_mul(rhs)
            }
            #[inline]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline]
            fn from_f64(v: f64) -> Self {
                v as $t
            }
        }
    };
}

impl_numeric_int!(u8);
impl_numeric_int!(i8);
impl_numeric_int!(u16);
impl_numeric_int!(i16);
impl_numeric_int!(u32);
impl_numeric_int!(i32);

impl Numeric for f32 {
    #[inline]
    fn one() -> Self {
        1.0
    }
    #[inline]
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        self - rhs
    }
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        self * rhs
    }
    #[inline]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }
    #[inline]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
}

impl Numeric for F16 {
    #[inline]
    fn one() -> Self {
        F16::ONE
    }
    #[inline]
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        self - rhs
    }
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        self * rhs
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self.to_f64()
    }
    #[inline]
    fn from_f64(v: f64) -> Self {
        F16::from_f64(v)
    }
}

/// Element types the cube engine accepts as matrix inputs, together with
/// their architectural accumulator type.
///
/// On Ascend 910B the cube engine supports `float16` inputs with `float32`
/// accumulation (L0C holds f32) and `int8` inputs with `int32`
/// accumulation. `u8` rides the int8 datapath (masks are 0/1 so signedness
/// is irrelevant) — this is what the paper's int8 scan specialization and
/// the split/compress mask path use.
pub trait CubeInput: Numeric {
    /// The accumulator/output element type (`f32` for `F16`, `i32` for
    /// `i8`/`u8`).
    type Acc: Numeric;

    /// Multiplies two scalars into the accumulator domain.
    fn mac(a: Self, b: Self) -> Self::Acc;

    /// Converts an input element into the accumulator domain.
    fn widen(self) -> Self::Acc;

    /// Relative throughput of the cube engine for this type compared to
    /// fp16, expressed in quarter-rate units: fp16 = 4, int8 = 8 (2x),
    /// fp32 = 1 (1/4x) on the 910B cube.
    const CUBE_RATE_X4: u32;
}

impl CubeInput for F16 {
    type Acc = f32;

    #[inline]
    fn mac(a: Self, b: Self) -> f32 {
        // The cube multiplies fp16 exactly into fp32 (a product of two
        // 11-bit significands fits in 24 bits).
        a.to_f32() * b.to_f32()
    }

    #[inline]
    fn widen(self) -> f32 {
        self.to_f32()
    }

    const CUBE_RATE_X4: u32 = 4;
}

impl CubeInput for i8 {
    type Acc = i32;

    #[inline]
    fn mac(a: Self, b: Self) -> i32 {
        i32::from(a) * i32::from(b)
    }

    #[inline]
    fn widen(self) -> i32 {
        i32::from(self)
    }

    const CUBE_RATE_X4: u32 = 8;
}

impl CubeInput for u8 {
    type Acc = i32;

    #[inline]
    fn mac(a: Self, b: Self) -> i32 {
        i32::from(a) * i32::from(b)
    }

    #[inline]
    fn widen(self) -> i32 {
        i32::from(self)
    }

    const CUBE_RATE_X4: u32 = 8;
}

impl CubeInput for f32 {
    type Acc = f32;

    #[inline]
    fn mac(a: Self, b: Self) -> f32 {
        a * b
    }

    #[inline]
    fn widen(self) -> f32 {
        self
    }

    const CUBE_RATE_X4: u32 = 1;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_sizes() {
        assert_eq!(DType::U8.size(), 1);
        assert_eq!(DType::I8.size(), 1);
        assert_eq!(DType::F16.size(), 2);
        assert_eq!(DType::I16.size(), 2);
        assert_eq!(DType::F32.size(), 4);
        assert_eq!(DType::I32.size(), 4);
        assert_eq!(DType::U32.size(), 4);
    }

    #[test]
    fn element_round_trip() {
        fn rt<T: Element>(v: T) {
            let mut buf = vec![0u8; T::SIZE];
            v.write_le(&mut buf);
            assert_eq!(T::read_le(&buf), v);
        }
        rt(0x12u8);
        rt(-5i8);
        rt(0xBEEFu16);
        rt(-1234i16);
        rt(0xDEAD_BEEFu32);
        rt(-123_456_789i32);
        rt(3.5f32);
        rt(F16::from_f32(2.5));
    }

    #[test]
    fn numeric_wrapping() {
        assert_eq!(Numeric::add(255u8, 1u8), 0);
        assert_eq!(Numeric::add(i32::MAX, 1), i32::MIN);
        assert_eq!(Numeric::mul(200u8, 2u8), 144); // 400 mod 256
    }

    #[test]
    fn cube_mac_domains() {
        assert_eq!(
            <F16 as CubeInput>::mac(F16::from_f32(3.0), F16::from_f32(4.0)),
            12.0f32
        );
        assert_eq!(<i8 as CubeInput>::mac(-100, 100), -10000i32);
        assert_eq!(<u8 as CubeInput>::mac(1, 1), 1i32);
        assert_eq!(F16::CUBE_RATE_X4, 4);
        assert_eq!(<i8 as CubeInput>::CUBE_RATE_X4, 8);
        assert_eq!(<f32 as CubeInput>::CUBE_RATE_X4, 1);
    }

    #[test]
    fn dtype_names_match_paper_labels() {
        assert_eq!(DType::F16.name(), "fp16");
        assert_eq!(DType::I8.name(), "int8");
        assert_eq!(DType::F16.to_string(), "fp16");
    }

    #[test]
    fn widen_preserves_value() {
        assert_eq!(CubeInput::widen(F16::from_f32(7.5)), 7.5f32);
        assert_eq!(CubeInput::widen(-7i8), -7i32);
        assert_eq!(CubeInput::widen(200u8), 200i32);
    }
}
