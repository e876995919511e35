//! Scalar abstraction tying numerics to the architecture model.
//!
//! FBLAS routines are generated per precision (the `s`/`d` prefix); here a
//! single generic implementation is instantiated at `f32` or `f64`, with
//! [`Scalar::PRECISION`] carrying the cost-model consequences (element
//! size, DSPs per operation, logic factor — see
//! [`fblas_arch::Precision`]).

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use fblas_arch::Precision;

/// A floating-point element type usable in FBLAS streaming modules.
pub trait Scalar:
    Copy
    + Debug
    + Display
    + PartialOrd
    + PartialEq
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
    + Default
    + Send
    + Sync
    + 'static
{
    /// The architecture-model precision of this element type.
    const PRECISION: Precision;
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;

    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Fused multiply-add `self·a + b` — one DSP initiation per cycle in
    /// the modeled hardware.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Conversion from `f64`.
    fn from_f64(v: f64) -> Self;
    /// Conversion to `f64`.
    fn to_f64(self) -> f64;
    /// Copysign.
    fn copysign(self, sign: Self) -> Self;
}

impl Scalar for f32 {
    const PRECISION: Precision = Precision::Single;
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;

    #[inline]
    fn abs(self) -> Self {
        f32::abs(self)
    }
    #[inline]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f32::mul_add(self, a, b)
    }
    #[inline]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline]
    fn copysign(self, sign: Self) -> Self {
        f32::copysign(self, sign)
    }
}

impl Scalar for f64 {
    const PRECISION: Precision = Precision::Double;
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;

    #[inline]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f64::mul_add(self, a, b)
    }
    #[inline]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline]
    fn copysign(self, sign: Self) -> Self {
        f64::copysign(self, sign)
    }
}

/// Widest block [`tree_sum`] reduces flat, level by level.
const FLAT_TREE: usize = 64;

/// Sum a slice with a binary-tree reduction — the accumulation shape of a
/// fully unrolled `W`-wide adder tree (paper Fig. 5). This is the order
/// in which a synthesized circuit combines the `W` products of one
/// iteration, and differs from left-to-right summation in floating point;
/// routines use it so the simulated numerics match the hardware's.
///
/// The tree adds the sum of the first ⌈n/2⌉ values to the sum of the
/// rest, recursively. On a power-of-two block (the usual `W`) that split
/// is the pairwise tree: the first level adds neighbours
/// `(v₀+v₁), (v₂+v₃), …` and each further level adds neighbouring
/// partials. Such a block of at most 64 values is reduced in place in a
/// stack buffer, level by level, which performs exactly the same
/// additions. Other lengths split recursively, and each part that is
/// such a block is reduced flat.
pub fn tree_sum<T: Scalar>(values: &[T]) -> T {
    let n = values.len();
    if n.is_power_of_two() && (2..=FLAT_TREE).contains(&n) {
        let mut level = [T::ZERO; FLAT_TREE / 2];
        for (p, pair) in level.iter_mut().zip(values.chunks_exact(2)) {
            *p = pair[0] + pair[1];
        }
        let mut len = n / 2;
        while len > 1 {
            len /= 2;
            for i in 0..len {
                level[i] = level[2 * i] + level[2 * i + 1];
            }
        }
        return level[0];
    }
    match n {
        0 => T::ZERO,
        1 => values[0],
        n => {
            let mid = n.div_ceil(2);
            tree_sum(&values[..mid]) + tree_sum(&values[mid..])
        }
    }
}

/// Running accumulator with the dependence structure of the synthesized
/// circuit.
///
/// Single precision accumulates natively on the DSP (one partial).
/// Double precision has no hardened accumulation on the modeled devices:
/// to keep II = 1 the paper applies *accumulation interleaving*
/// (Sec. III-A1) — a ring of `L_A` partial sums, one per adder-latency
/// slot, combined by a final reduction when the stream ends. The
/// floating-point grouping therefore differs from a sequential sum, and
/// this type reproduces exactly that grouping.
#[derive(Debug, Clone)]
pub struct InterleavedAccumulator<T> {
    partials: Vec<T>,
    idx: usize,
}

impl<T: Scalar> InterleavedAccumulator<T> {
    /// Accumulator with an explicit interleaving depth (≥ 1).
    pub fn with_depth(depth: usize) -> Self {
        assert!(depth >= 1, "interleaving depth must be at least 1");
        InterleavedAccumulator {
            partials: vec![T::ZERO; depth],
            idx: 0,
        }
    }

    /// Accumulator with the depth the hardware needs for `T`: 1 when the
    /// DSPs accumulate natively, the adder latency otherwise.
    pub fn for_precision() -> Self {
        let depth = if T::PRECISION.native_accumulation() {
            1
        } else {
            fblas_arch::estimator::ADD_LATENCY as usize
        };
        Self::with_depth(depth)
    }

    /// Number of partial sums (the interleaving depth).
    pub fn depth(&self) -> usize {
        self.partials.len()
    }

    /// Feed one value (one clock cycle of the accumulation stage).
    pub fn add(&mut self, v: T) {
        self.partials[self.idx] += v;
        self.idx = (self.idx + 1) % self.partials.len();
    }

    /// Combine the partials with the final reduction tree.
    pub fn finish(&self) -> T {
        tree_sum(&self.partials)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_constants() {
        assert_eq!(<f32 as Scalar>::PRECISION, Precision::Single);
        assert_eq!(<f64 as Scalar>::PRECISION, Precision::Double);
        assert_eq!(<f32 as Scalar>::PRECISION.elem_bytes(), 4);
    }

    #[test]
    fn tree_sum_matches_sequential_for_exact_values() {
        let v: Vec<f64> = (1..=16).map(f64::from).collect();
        assert_eq!(tree_sum(&v), 136.0);
        assert_eq!(tree_sum::<f64>(&[]), 0.0);
        assert_eq!(tree_sum(&[42.0f32]), 42.0);
        // Non-power-of-two widths.
        let v: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(tree_sum(&v), 28.0);
    }

    #[test]
    fn tree_sum_is_pairwise_not_sequential() {
        // Construct values where the reduction order matters in f32; the
        // tree must combine (a+b) and (c+d), not ((a+b)+c)+d.
        let a = 1.0e8f32;
        let b = -1.0e8f32;
        let c = 1.0f32;
        let d = 1.0f32;
        assert_eq!(tree_sum(&[a, b, c, d]), 2.0);
    }

    /// `tree_sum`'s definition: the first ⌈n/2⌉ values' sum plus the
    /// rest's, recursively.
    fn recursive_tree_sum<T: Scalar>(values: &[T]) -> T {
        match values.len() {
            0 => T::ZERO,
            1 => values[0],
            n => {
                let mid = n.div_ceil(2);
                recursive_tree_sum(&values[..mid]) + recursive_tree_sum(&values[mid..])
            }
        }
    }

    /// Seeded values that stress the grouping: ordinary magnitudes over
    /// a wide exponent range, ±0.0, subnormals (multiples of `tiny`),
    /// ±inf, NaN, and pairs of huge values that cancel.
    fn awkward_values(seed: u64, n: usize, tiny: f64) -> Vec<f64> {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let r = next();
            let unit = (r >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
            // Specials are rare so that most vectors stay finite and the
            // grouping decides the bits.
            match r % 64 {
                0 => out.push(if r & 64 == 0 { 0.0 } else { -0.0 }),
                1 => out.push(unit * tiny),
                2 if seed.is_multiple_of(3) => out.push(f64::INFINITY.copysign(unit)),
                3 if seed.is_multiple_of(5) => out.push(f64::NAN),
                4..=11 => {
                    let big = unit * 1e16;
                    out.push(big);
                    out.push(-big + unit);
                }
                _ => out.push(unit * 10f64.powi((r >> 8) as i32 % 9 - 4)),
            }
        }
        out.truncate(n);
        out
    }

    /// Bits of a sum; Rust leaves the payload of a NaN produced by
    /// arithmetic unspecified, so every NaN compares as one value.
    fn sum_bits<T: Scalar>(v: T) -> u64 {
        let v = v.to_f64();
        if v.is_nan() {
            u64::MAX
        } else {
            v.to_bits()
        }
    }

    #[test]
    fn tree_sum_is_bit_identical_to_the_recursive_split() {
        for n in 0..=64 {
            for seed in 0..40u64 {
                let seed = seed * 65 + n as u64;
                let v64 = awkward_values(seed, n, 1e-310);
                let v32: Vec<f32> = awkward_values(seed, n, 1e-40)
                    .into_iter()
                    .map(|v| v as f32)
                    .collect();
                assert_eq!(
                    sum_bits(tree_sum(&v64)),
                    sum_bits(recursive_tree_sum(&v64)),
                    "f64 n={n} seed={seed}: {v64:?}"
                );
                assert_eq!(
                    sum_bits(tree_sum(&v32)),
                    sum_bits(recursive_tree_sum(&v32)),
                    "f32 n={n} seed={seed}: {v32:?}"
                );
            }
        }
    }

    #[test]
    fn interleaved_accumulator_depths() {
        assert_eq!(InterleavedAccumulator::<f32>::for_precision().depth(), 1);
        assert_eq!(
            InterleavedAccumulator::<f64>::for_precision().depth(),
            fblas_arch::estimator::ADD_LATENCY as usize,
            "f64 needs one partial per adder-latency slot"
        );
    }

    #[test]
    fn interleaved_accumulator_sums_exactly_for_integers() {
        let mut acc = InterleavedAccumulator::<f64>::with_depth(6);
        for i in 1..=100 {
            acc.add(f64::from(i));
        }
        assert_eq!(acc.finish(), 5050.0);
        // Depth 1 degenerates to plain accumulation.
        let mut acc = InterleavedAccumulator::<f32>::with_depth(1);
        acc.add(2.0);
        acc.add(3.0);
        assert_eq!(acc.finish(), 5.0);
    }

    #[test]
    fn interleaving_changes_fp_grouping_as_hardware_does() {
        // Values chosen so sequential summation loses the small terms
        // but the 2-way interleaved partials keep them.
        let vals = [1.0e16f64, 1.0, -1.0e16, 1.0];
        let sequential: f64 = vals.iter().sum();
        let mut acc = InterleavedAccumulator::<f64>::with_depth(2);
        for v in vals {
            acc.add(v);
        }
        // partial0 = 1e16 - 1e16 = 0; partial1 = 1 + 1 = 2.
        assert_eq!(acc.finish(), 2.0);
        assert_ne!(acc.finish(), sequential);
    }

    #[test]
    #[should_panic(expected = "depth")]
    fn zero_depth_rejected() {
        let _ = InterleavedAccumulator::<f32>::with_depth(0);
    }

    #[test]
    fn scalar_ops_generic() {
        fn f<T: Scalar>() -> T {
            T::from_f64(2.0).mul_add(T::from_f64(3.0), T::ONE)
        }
        assert_eq!(f::<f32>(), 7.0);
        assert_eq!(f::<f64>(), 7.0);
        assert_eq!((-2.5f64).abs(), 2.5);
        assert_eq!(4.0f32.sqrt(), 2.0);
        assert_eq!(3.0f64.copysign(-0.0), -3.0);
    }
}
