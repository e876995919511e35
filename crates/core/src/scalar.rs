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

    /// `acc[j] = a[j]·x + acc[j]` for every lane `j`, each one
    /// [`mul_add`](Self::mul_add): the `W` MAC lanes of a transposed
    /// GEMV row. The slices must have equal lengths.
    fn mul_add_assign(acc: &mut [Self], a: &[Self], x: Self) {
        fma::assign(acc, a, x)
    }

    /// `out[j] = y[j]·s + a[j]` for every lane `j`, each one
    /// [`mul_add`](Self::mul_add): the `W` MAC lanes of a GER row. The
    /// slices must have equal lengths.
    fn mul_add_to(out: &mut [Self], y: &[Self], s: Self, a: &[Self]) {
        fma::to(out, y, s, a)
    }
}

/// The slice primitives behind [`Scalar::mul_add_assign`] and
/// [`Scalar::mul_add_to`].
///
/// A fused multiply-add rounds once, correctly, however it is computed,
/// so the loops give the same bits on every path. Without the `fma`
/// target feature at compile time, though, each `mul_add` is a call
/// into libm that never vectorises. On x86-64 a CPU that has FMA
/// therefore runs a copy of the loop compiled with the feature
/// enabled, where it becomes packed `vfmadd` instructions; any other
/// CPU runs the plain loop.
mod fma {
    use super::Scalar;

    #[inline]
    pub(super) fn assign<T: Scalar>(acc: &mut [T], a: &[T], x: T) {
        debug_assert_eq!(acc.len(), a.len());
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("fma") {
            // SAFETY: `assign_fma` differs from `assign_loop` only in
            // enabling the `fma` target feature, and the detection just
            // above found that feature on the running CPU.
            return unsafe { assign_fma(acc, a, x) };
        }
        assign_loop(acc, a, x)
    }

    #[inline]
    pub(super) fn to<T: Scalar>(out: &mut [T], y: &[T], s: T, a: &[T]) {
        debug_assert!(out.len() == y.len() && out.len() == a.len());
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("fma") {
            // SAFETY: `to_fma` differs from `to_loop` only in enabling
            // the `fma` target feature, and the detection just above
            // found that feature on the running CPU.
            return unsafe { to_fma(out, y, s, a) };
        }
        to_loop(out, y, s, a)
    }

    #[inline(always)]
    fn assign_loop<T: Scalar>(acc: &mut [T], a: &[T], x: T) {
        for (t, &a) in acc.iter_mut().zip(a) {
            *t = a.mul_add(x, *t);
        }
    }

    #[inline(always)]
    fn to_loop<T: Scalar>(out: &mut [T], y: &[T], s: T, a: &[T]) {
        for ((o, &y), &a) in out.iter_mut().zip(y).zip(a) {
            *o = y.mul_add(s, a);
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "fma")]
    fn assign_fma<T: Scalar>(acc: &mut [T], a: &[T], x: T) {
        assign_loop(acc, a, x)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "fma")]
    fn to_fma<T: Scalar>(out: &mut [T], y: &[T], s: T, a: &[T]) {
        to_loop(out, y, s, a)
    }
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

/// [`tree_sum`] of the lane products `a[i]·x[i]`: one `W`-wide chunk of
/// a dot product, reduced as the circuit's adder tree reduces it. Each
/// product is rounded before it is added, exactly as when the products
/// are collected first. Power-of-two widths up to 64 (the usual `W`)
/// take a fully unrolled path; other lengths split as [`tree_sum`]
/// does, with no scratch space. Lanes past the shorter slice are
/// ignored.
pub fn tree_dot<T: Scalar>(a: &[T], x: &[T]) -> T {
    /// The flat tree of [`tree_sum`], at a width known to the compiler.
    fn flat<T: Scalar, const W: usize>(a: &[T], x: &[T]) -> Option<T> {
        let (a, x): (&[T; W], &[T; W]) = (a.try_into().ok()?, x.try_into().ok()?);
        let mut level = [T::ZERO; W];
        for i in 0..W / 2 {
            level[i] = a[2 * i] * x[2 * i] + a[2 * i + 1] * x[2 * i + 1];
        }
        let mut len = W / 2;
        while len > 1 {
            len /= 2;
            for i in 0..len {
                level[i] = level[2 * i] + level[2 * i + 1];
            }
        }
        Some(level[0])
    }
    let n = a.len().min(x.len());
    let (a, x) = (&a[..n], &x[..n]);
    let unrolled = match n {
        2 => flat::<T, 2>(a, x),
        4 => flat::<T, 4>(a, x),
        8 => flat::<T, 8>(a, x),
        16 => flat::<T, 16>(a, x),
        32 => flat::<T, 32>(a, x),
        64 => flat::<T, 64>(a, x),
        _ => None,
    };
    unrolled.unwrap_or_else(|| match n {
        0 => T::ZERO,
        1 => a[0] * x[0],
        n => {
            let mid = n.div_ceil(2);
            tree_dot(&a[..mid], &x[..mid]) + tree_dot(&a[mid..], &x[mid..])
        }
    })
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

    /// The slice primitives against the scalar `mul_add` loop, bit for
    /// bit, in both precisions: seeded operands of every length up to a
    /// few vector widths, with ±0, subnormals, ±inf and NaN among the
    /// lanes and as the broadcast factor.
    #[test]
    fn slice_fma_primitives_match_the_scalar_mul_add_loop() {
        fn check<T: Scalar>(seed: u64, n: usize, tiny: f64) {
            let cast = |v: Vec<f64>| v.into_iter().map(T::from_f64).collect::<Vec<T>>();
            let specials = [
                0.0,
                -0.0,
                tiny,
                -tiny,
                f64::INFINITY,
                -f64::INFINITY,
                f64::NAN,
            ];
            let lanes = |k: u64| {
                let mut v = awkward_values(seed * 3 + k, n, tiny);
                // Plant the specials at seeded lanes.
                for (i, sp) in specials.iter().enumerate() {
                    if n > 0 && (seed + k + i as u64).is_multiple_of(3) {
                        v[(seed as usize * 7 + i * 5) % n] = *sp;
                    }
                }
                cast(v)
            };
            let (a, b, c) = (lanes(0), lanes(1), lanes(2));
            let factors = cast(specials.iter().copied().chain([1.5, -3.25e-3]).collect());
            let bits = |v: &[T]| v.iter().map(|e| sum_bits(*e)).collect::<Vec<_>>();
            for &x in &factors {
                let mut got = a.clone();
                T::mul_add_assign(&mut got, &b, x);
                let want: Vec<T> = a.iter().zip(&b).map(|(t, b)| b.mul_add(x, *t)).collect();
                assert_eq!(bits(&got), bits(&want), "assign n={n} seed={seed} x={x}");

                let mut got = vec![T::ZERO; n];
                T::mul_add_to(&mut got, &b, x, &c);
                let want: Vec<T> = b.iter().zip(&c).map(|(y, a)| y.mul_add(x, *a)).collect();
                assert_eq!(bits(&got), bits(&want), "to n={n} seed={seed} s={x}");
            }
        }
        for n in 0..=40 {
            for seed in 0..12u64 {
                check::<f64>(seed, n, 1e-310);
                check::<f32>(seed, n, 1e-40);
            }
        }
    }

    #[test]
    fn tree_dot_is_bit_identical_to_the_tree_sum_of_products() {
        fn check<T: Scalar>(a: &[T], x: &[T], what: &str) {
            let products: Vec<T> = a.iter().zip(x).map(|(a, x)| *a * *x).collect();
            assert_eq!(
                sum_bits(tree_dot(a, x)),
                sum_bits(tree_sum(&products)),
                "{what}"
            );
        }
        for n in 0..=70 {
            for seed in 0..20u64 {
                let seed = seed * 71 + n as u64;
                let (a, x) = (
                    awkward_values(seed, n, 1e-310),
                    awkward_values(!seed, n, 1e-310),
                );
                check(&a, &x, &format!("f64 n={n} seed={seed}"));
                let cast = |v: Vec<f64>| v.into_iter().map(|v| v as f32).collect::<Vec<f32>>();
                let (a, x) = (
                    cast(awkward_values(seed, n, 1e-40)),
                    cast(awkward_values(!seed, n, 1e-40)),
                );
                check(&a, &x, &format!("f32 n={n} seed={seed}"));
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
