//! Order-preserving radix encodings for LSB radix sort.
//!
//! An unsigned LSB radix sort orders keys by their plain binary value, so
//! signed integers and floats must be transcoded first (the paper's
//! pre-processing phase, following Knuth §5.2.5 exercises 8–9 and the
//! CM-2 sorting paper it cites):
//!
//! * signed integers: flip the sign bit (maps `i16::MIN..=i16::MAX` onto
//!   `0..=u16::MAX` monotonically);
//! * IEEE floats: flip the sign bit of non-negative values and flip *all*
//!   bits of negative values. Positive floats already compare like
//!   unsigned integers bit-wise; the flip makes negatives order correctly
//!   and below positives.
//!
//! The post-processing phase applies the inverse transform. All encodings
//! here are exact involutive pairs: `decode(encode(x)) == x` bit-for-bit
//! (including NaN payloads and signed zeros).

use crate::f16::F16;

/// A sort key type: the unsigned integer domain an LSB radix sort works in.
///
/// `BITS` is the number of radix-sort passes a 1-bit-per-pass (split-based)
/// sort needs — 16 for `f16`, matching the paper's "top-p executes 17
/// scans: 16 for radix sort + 1 for the sampler" accounting.
pub trait RadixKey: Copy + Send + Sync + 'static {
    /// The unsigned encoded representation.
    type Encoded: Copy + Into<u64>;

    /// Number of significant key bits (= radix-sort passes at 1 bit/pass).
    const BITS: u32;

    /// Order-preserving encode into the unsigned domain.
    fn encode(self) -> Self::Encoded;

    /// Inverse of [`RadixKey::encode`].
    fn decode(enc: Self::Encoded) -> Self;
}

impl RadixKey for u8 {
    type Encoded = u8;
    const BITS: u32 = 8;

    #[inline]
    fn encode(self) -> u8 {
        self
    }

    #[inline]
    fn decode(enc: u8) -> u8 {
        enc
    }
}

impl RadixKey for i8 {
    type Encoded = u8;
    const BITS: u32 = 8;

    #[inline]
    fn encode(self) -> u8 {
        (self as u8) ^ 0x80
    }

    #[inline]
    fn decode(enc: u8) -> i8 {
        (enc ^ 0x80) as i8
    }
}

impl RadixKey for u16 {
    type Encoded = u16;
    const BITS: u32 = 16;

    #[inline]
    fn encode(self) -> u16 {
        self
    }

    #[inline]
    fn decode(enc: u16) -> u16 {
        enc
    }
}

impl RadixKey for u32 {
    type Encoded = u32;
    const BITS: u32 = 32;

    #[inline]
    fn encode(self) -> u32 {
        self
    }

    #[inline]
    fn decode(enc: u32) -> u32 {
        enc
    }
}

impl RadixKey for i16 {
    type Encoded = u16;
    const BITS: u32 = 16;

    #[inline]
    fn encode(self) -> u16 {
        (self as u16) ^ 0x8000
    }

    #[inline]
    fn decode(enc: u16) -> i16 {
        (enc ^ 0x8000) as i16
    }
}

impl RadixKey for i32 {
    type Encoded = u32;
    const BITS: u32 = 32;

    #[inline]
    fn encode(self) -> u32 {
        (self as u32) ^ 0x8000_0000
    }

    #[inline]
    fn decode(enc: u32) -> i32 {
        (enc ^ 0x8000_0000) as i32
    }
}

impl RadixKey for F16 {
    type Encoded = u16;
    const BITS: u32 = 16;

    /// Flip MSB of non-negatives, all bits of negatives.
    #[inline]
    fn encode(self) -> u16 {
        let bits = self.to_bits();
        if bits & 0x8000 != 0 {
            !bits
        } else {
            bits | 0x8000
        }
    }

    #[inline]
    fn decode(enc: u16) -> F16 {
        let bits = if enc & 0x8000 != 0 {
            enc & !0x8000
        } else {
            !enc
        };
        F16::from_bits(bits)
    }
}

impl RadixKey for f32 {
    type Encoded = u32;
    const BITS: u32 = 32;

    #[inline]
    fn encode(self) -> u32 {
        let bits = self.to_bits();
        if bits & 0x8000_0000 != 0 {
            !bits
        } else {
            bits | 0x8000_0000
        }
    }

    #[inline]
    fn decode(enc: u32) -> f32 {
        let bits = if enc & 0x8000_0000 != 0 {
            enc & !0x8000_0000
        } else {
            !enc
        };
        f32::from_bits(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn i16_encode_monotone_at_boundaries() {
        assert_eq!(i16::MIN.encode(), 0);
        assert_eq!((-1i16).encode(), 0x7FFF);
        assert_eq!(0i16.encode(), 0x8000);
        assert_eq!(i16::MAX.encode(), 0xFFFF);
    }

    #[test]
    fn f16_encode_orders_specials() {
        let neg_inf = F16::NEG_INFINITY.encode();
        let neg_one = F16::NEG_ONE.encode();
        let neg_zero = F16::NEG_ZERO.encode();
        let zero = F16::ZERO.encode();
        let one = F16::ONE.encode();
        let inf = F16::INFINITY.encode();
        let nan = F16::NAN.encode();
        assert!(neg_inf < neg_one);
        assert!(neg_one < neg_zero);
        assert!(neg_zero < zero);
        assert!(zero < one);
        assert!(one < inf);
        assert!(inf < nan, "quiet +NaN sorts above +inf");
    }

    #[test]
    fn i8_encode_monotone_at_boundaries() {
        assert_eq!(i8::MIN.encode(), 0);
        assert_eq!((-1i8).encode(), 0x7F);
        assert_eq!(0i8.encode(), 0x80);
        assert_eq!(i8::MAX.encode(), 0xFF);
        assert_eq!(
            <u8 as RadixKey>::BITS,
            8,
            "8-bit sorts need half the passes of fp16"
        );
    }

    proptest! {
        #[test]
        fn u16_roundtrip(v in any::<u16>()) {
            prop_assert_eq!(u16::decode(v.encode()), v);
        }

        #[test]
        fn i8_roundtrip_and_monotone(a in any::<i8>(), b in any::<i8>()) {
            prop_assert_eq!(i8::decode(a.encode()), a);
            prop_assert_eq!(a < b, a.encode() < b.encode());
        }

        #[test]
        fn i16_roundtrip_and_monotone(a in any::<i16>(), b in any::<i16>()) {
            prop_assert_eq!(i16::decode(a.encode()), a);
            prop_assert_eq!(a < b, a.encode() < b.encode());
        }

        #[test]
        fn i32_roundtrip_and_monotone(a in any::<i32>(), b in any::<i32>()) {
            prop_assert_eq!(i32::decode(a.encode()), a);
            prop_assert_eq!(a < b, a.encode() < b.encode());
        }

        #[test]
        fn f16_roundtrip_bitexact(bits in any::<u16>()) {
            let v = F16::from_bits(bits);
            prop_assert_eq!(F16::decode(v.encode()).to_bits(), bits);
        }

        #[test]
        fn f16_encode_matches_total_order(a in any::<u16>(), b in any::<u16>()) {
            let (x, y) = (F16::from_bits(a), F16::from_bits(b));
            let cmp_enc = x.encode().cmp(&y.encode());
            prop_assert_eq!(cmp_enc, x.total_cmp(&y));
        }

        #[test]
        fn f32_roundtrip_bitexact(bits in any::<u32>()) {
            let v = f32::from_bits(bits);
            prop_assert_eq!(f32::decode(v.encode()).to_bits(), bits);
        }

        #[test]
        fn f32_encode_monotone_on_ordered(a in any::<f32>(), b in any::<f32>()) {
            prop_assume!(!a.is_nan() && !b.is_nan());
            if a < b {
                prop_assert!(a.encode() < b.encode());
            }
        }
    }
}
