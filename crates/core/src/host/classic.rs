//! Classical BLAS entry points.
//!
//! The paper's host API "provides a set of library calls that match the
//! classical BLAS calls in terms of signature and behavior"
//! (Sec. II-B). The generic functions in [`blas`] take the
//! precision as a type parameter; this module completes the classical
//! surface with the `s`/`d`-prefixed names, so host code ports from
//! CBLAS with minimal edits.
//!
//! Every wrapper is a direct delegation — semantics, errors, and timing
//! estimates are identical to the generic calls.

use fblas_hlssim::SimError;

use super::blas::{self, GemvTuning};
use super::buffer::DeviceBuffer;
use super::context::Fpga;
use crate::perf::TimingEstimate;
use crate::routines::gemm::SystolicShape;
use crate::routines::{Diag, Side, Trans, Uplo};

macro_rules! level1_wrappers {
    ($t:ty, $scal:ident, $copy:ident, $swap:ident, $axpy:ident, $dot:ident,
     $nrm2:ident, $asum:ident, $iamax:ident, $rot:ident, $rotm:ident,
     $rotg:ident, $rotmg:ident) => {
        /// SCAL in the classical naming (`x ← α·x`).
        pub fn $scal(
            fpga: &Fpga,
            alpha: $t,
            x: &DeviceBuffer<$t>,
            w: usize,
        ) -> Result<TimingEstimate, SimError> {
            blas::scal(fpga, alpha, x, w)
        }

        /// COPY in the classical naming (`y ← x`).
        pub fn $copy(
            fpga: &Fpga,
            x: &DeviceBuffer<$t>,
            y: &DeviceBuffer<$t>,
            w: usize,
        ) -> Result<TimingEstimate, SimError> {
            blas::copy(fpga, x, y, w)
        }

        /// SWAP in the classical naming.
        pub fn $swap(
            fpga: &Fpga,
            x: &DeviceBuffer<$t>,
            y: &DeviceBuffer<$t>,
            w: usize,
        ) -> Result<TimingEstimate, SimError> {
            blas::swap(fpga, x, y, w)
        }

        /// AXPY in the classical naming (`y ← α·x + y`).
        pub fn $axpy(
            fpga: &Fpga,
            alpha: $t,
            x: &DeviceBuffer<$t>,
            y: &DeviceBuffer<$t>,
            w: usize,
        ) -> Result<TimingEstimate, SimError> {
            blas::axpy(fpga, alpha, x, y, w)
        }

        /// DOT in the classical naming (returns `xᵀy`).
        pub fn $dot(
            fpga: &Fpga,
            x: &DeviceBuffer<$t>,
            y: &DeviceBuffer<$t>,
            w: usize,
        ) -> Result<($t, TimingEstimate), SimError> {
            blas::dot(fpga, x, y, w)
        }

        /// NRM2 in the classical naming (returns `‖x‖₂`).
        pub fn $nrm2(
            fpga: &Fpga,
            x: &DeviceBuffer<$t>,
            w: usize,
        ) -> Result<($t, TimingEstimate), SimError> {
            blas::nrm2(fpga, x, w)
        }

        /// ASUM in the classical naming (returns `Σ|xᵢ|`).
        pub fn $asum(
            fpga: &Fpga,
            x: &DeviceBuffer<$t>,
            w: usize,
        ) -> Result<($t, TimingEstimate), SimError> {
            blas::asum(fpga, x, w)
        }

        /// IAMAX in the classical naming (0-based index of the first
        /// maximum-magnitude element).
        pub fn $iamax(
            fpga: &Fpga,
            x: &DeviceBuffer<$t>,
            w: usize,
        ) -> Result<(usize, TimingEstimate), SimError> {
            blas::iamax(fpga, x, w)
        }

        /// ROT in the classical naming.
        pub fn $rot(
            fpga: &Fpga,
            x: &DeviceBuffer<$t>,
            y: &DeviceBuffer<$t>,
            c: $t,
            s: $t,
            w: usize,
        ) -> Result<TimingEstimate, SimError> {
            blas::rot(fpga, x, y, c, s, w)
        }

        /// ROTM in the classical naming (netlib `param` layout).
        pub fn $rotm(
            fpga: &Fpga,
            x: &DeviceBuffer<$t>,
            y: &DeviceBuffer<$t>,
            param: [$t; 5],
            w: usize,
        ) -> Result<TimingEstimate, SimError> {
            blas::rotm(fpga, x, y, param, w)
        }

        /// ROTG in the classical naming (returns `(r, z, c, s)`).
        pub fn $rotg(
            fpga: &Fpga,
            a: $t,
            b: $t,
        ) -> Result<(($t, $t, $t, $t), TimingEstimate), SimError> {
            blas::rotg(fpga, a, b)
        }

        /// ROTMG in the classical naming.
        pub fn $rotmg(
            fpga: &Fpga,
            d1: $t,
            d2: $t,
            x1: $t,
            y1: $t,
        ) -> Result<(($t, $t, $t, [$t; 5]), TimingEstimate), SimError> {
            blas::rotmg(fpga, d1, d2, x1, y1)
        }
    };
}

level1_wrappers!(
    f32, sscal, scopy, sswap, saxpy, sdot, snrm2, sasum, isamax, srot, srotm, srotg, srotmg
);
level1_wrappers!(
    f64, dscal, dcopy, dswap, daxpy, ddot, dnrm2, dasum, idamax, drot, drotm, drotg, drotmg
);

/// SDSDOT (single precision only, per BLAS): `sb + xᵀy` with double
/// accumulation.
pub fn sdsdot(
    fpga: &Fpga,
    sb: f32,
    x: &DeviceBuffer<f32>,
    y: &DeviceBuffer<f32>,
    w: usize,
) -> Result<(f32, TimingEstimate), SimError> {
    blas::sdsdot(fpga, sb, x, y, w)
}

macro_rules! level23_wrappers {
    ($t:ty, $gemv:ident, $ger:ident, $syr:ident, $syr2:ident, $trsv:ident,
     $gemm:ident, $syrk:ident, $syr2k:ident, $trsm:ident) => {
        /// GEMV in the classical naming (`y ← α·op(A)·x + β·y`).
        #[allow(clippy::too_many_arguments)]
        pub fn $gemv(
            fpga: &Fpga,
            trans: Trans,
            n: usize,
            m: usize,
            alpha: $t,
            a: &DeviceBuffer<$t>,
            x: &DeviceBuffer<$t>,
            beta: $t,
            y: &DeviceBuffer<$t>,
            tuning: &GemvTuning,
        ) -> Result<TimingEstimate, SimError> {
            blas::gemv(fpga, trans, n, m, alpha, a, x, beta, y, tuning)
        }

        /// GER in the classical naming (`A ← α·x·yᵀ + A`).
        #[allow(clippy::too_many_arguments)]
        pub fn $ger(
            fpga: &Fpga,
            n: usize,
            m: usize,
            alpha: $t,
            x: &DeviceBuffer<$t>,
            y: &DeviceBuffer<$t>,
            a: &DeviceBuffer<$t>,
            tuning: &GemvTuning,
        ) -> Result<TimingEstimate, SimError> {
            blas::ger(fpga, n, m, alpha, x, y, a, tuning)
        }

        /// SYR in the classical naming (`A ← α·x·xᵀ + A`, one triangle).
        pub fn $syr(
            fpga: &Fpga,
            uplo: Uplo,
            n: usize,
            alpha: $t,
            x: &DeviceBuffer<$t>,
            a: &DeviceBuffer<$t>,
            tuning: &GemvTuning,
        ) -> Result<TimingEstimate, SimError> {
            blas::syr(fpga, uplo, n, alpha, x, a, tuning)
        }

        /// SYR2 in the classical naming.
        #[allow(clippy::too_many_arguments)]
        pub fn $syr2(
            fpga: &Fpga,
            uplo: Uplo,
            n: usize,
            alpha: $t,
            x: &DeviceBuffer<$t>,
            y: &DeviceBuffer<$t>,
            a: &DeviceBuffer<$t>,
            tuning: &GemvTuning,
        ) -> Result<TimingEstimate, SimError> {
            blas::syr2(fpga, uplo, n, alpha, x, y, a, tuning)
        }

        /// TRSV in the classical naming (`x ← op(A)⁻¹·x`).
        #[allow(clippy::too_many_arguments)]
        pub fn $trsv(
            fpga: &Fpga,
            uplo: Uplo,
            trans: Trans,
            diag: Diag,
            n: usize,
            a: &DeviceBuffer<$t>,
            x: &DeviceBuffer<$t>,
            w: usize,
        ) -> Result<TimingEstimate, SimError> {
            blas::trsv(fpga, uplo, trans, diag, n, a, x, w)
        }

        /// GEMM in the classical naming (`C ← α·A·B + β·C`, systolic).
        #[allow(clippy::too_many_arguments)]
        pub fn $gemm(
            fpga: &Fpga,
            n: usize,
            m: usize,
            k: usize,
            alpha: $t,
            a: &DeviceBuffer<$t>,
            b: &DeviceBuffer<$t>,
            beta: $t,
            c: &DeviceBuffer<$t>,
            shape: SystolicShape,
            tr: usize,
            tc: usize,
        ) -> Result<TimingEstimate, SimError> {
            blas::gemm(fpga, n, m, k, alpha, a, b, beta, c, shape, tr, tc)
        }

        /// SYRK in the classical naming.
        #[allow(clippy::too_many_arguments)]
        pub fn $syrk(
            fpga: &Fpga,
            uplo: Uplo,
            trans: Trans,
            n: usize,
            k: usize,
            alpha: $t,
            a: &DeviceBuffer<$t>,
            beta: $t,
            c: &DeviceBuffer<$t>,
            shape: SystolicShape,
            tr: usize,
            tc: usize,
        ) -> Result<TimingEstimate, SimError> {
            blas::syrk(fpga, uplo, trans, n, k, alpha, a, beta, c, shape, tr, tc)
        }

        /// SYR2K in the classical naming.
        #[allow(clippy::too_many_arguments)]
        pub fn $syr2k(
            fpga: &Fpga,
            uplo: Uplo,
            trans: Trans,
            n: usize,
            k: usize,
            alpha: $t,
            a: &DeviceBuffer<$t>,
            b: &DeviceBuffer<$t>,
            beta: $t,
            c: &DeviceBuffer<$t>,
            shape: SystolicShape,
            tr: usize,
            tc: usize,
        ) -> Result<TimingEstimate, SimError> {
            blas::syr2k(fpga, uplo, trans, n, k, alpha, a, b, beta, c, shape, tr, tc)
        }

        /// TRSM in the classical naming.
        #[allow(clippy::too_many_arguments)]
        pub fn $trsm(
            fpga: &Fpga,
            side: Side,
            uplo: Uplo,
            trans: Trans,
            diag: Diag,
            m: usize,
            n: usize,
            alpha: $t,
            a: &DeviceBuffer<$t>,
            b: &DeviceBuffer<$t>,
            w: usize,
        ) -> Result<TimingEstimate, SimError> {
            blas::trsm(fpga, side, uplo, trans, diag, m, n, alpha, a, b, w)
        }
    };
}

level23_wrappers!(f32, sgemv, sger, ssyr, ssyr2, strsv, sgemm, ssyrk, ssyr2k, strsm);
level23_wrappers!(f64, dgemv, dger, dsyr, dsyr2, dtrsv, dgemm, dsyrk, dsyr2k, dtrsm);

#[cfg(test)]
mod tests {
    use super::*;
    use fblas_arch::Device;

    #[test]
    fn single_precision_names_work_end_to_end() {
        let fpga = Fpga::new(Device::Stratix10Gx2800);
        let x = fpga.alloc_from("x", vec![1.0f32, 2.0, 3.0, 4.0]);
        let y = fpga.alloc_from("y", vec![1.0f32; 4]);
        sscal(&fpga, 2.0, &x, 2).unwrap();
        assert_eq!(x.to_host(), vec![2.0, 4.0, 6.0, 8.0]);
        let (d, _) = sdot(&fpga, &x, &y, 2).unwrap();
        assert_eq!(d, 20.0);
        let (i, _) = isamax(&fpga, &x, 2).unwrap();
        assert_eq!(i, 3);
        let (s, _) = sdsdot(&fpga, 1.0, &x, &y, 2).unwrap();
        assert_eq!(s, 21.0);
    }

    #[test]
    fn double_precision_names_work_end_to_end() {
        let fpga = Fpga::new(Device::Arria10Gx1150);
        let x = fpga.alloc_from("x", vec![3.0f64, 4.0]);
        let (n, _) = dnrm2(&fpga, &x, 1).unwrap();
        assert!((n - 5.0).abs() < 1e-12);
        let y = fpga.alloc_from("y", vec![0.0f64; 2]);
        dcopy(&fpga, &x, &y, 1).unwrap();
        assert_eq!(y.to_host(), vec![3.0, 4.0]);
        daxpy(&fpga, -1.0, &x, &y, 1).unwrap();
        assert_eq!(y.to_host(), vec![0.0, 0.0]);
        let ((r, _z, _c, _s), _) = drotg(&fpga, 3.0, 4.0).unwrap();
        assert!((r - 5.0).abs() < 1e-12);
    }

    #[test]
    fn level2_and_3_names_work() {
        let fpga = Fpga::new(Device::Stratix10Gx2800);
        let n = 4;
        let a = fpga.alloc_from("a", vec![1.0f32; n * n]);
        let x = fpga.alloc_from("x", vec![1.0f32; n]);
        let y = fpga.alloc_from("y", vec![0.0f32; n]);
        let tuning = GemvTuning::new(2, 2, 2);
        sgemv(&fpga, Trans::No, n, n, 1.0, &a, &x, 0.0, &y, &tuning).unwrap();
        assert_eq!(y.to_host(), vec![4.0; n]);

        let b = fpga.alloc_from("b", vec![1.0f32; n * n]);
        let c = fpga.alloc_from("c", vec![0.0f32; n * n]);
        sgemm(
            &fpga,
            n,
            n,
            n,
            1.0,
            &a,
            &b,
            0.0,
            &c,
            SystolicShape::new(2, 2),
            2,
            2,
        )
        .unwrap();
        assert_eq!(c.to_host(), vec![4.0; n * n]);

        dger(
            &fpga,
            2,
            2,
            1.0,
            &fpga.alloc_from("gx", vec![1.0f64, 2.0]),
            &fpga.alloc_from("gy", vec![3.0f64, 4.0]),
            &fpga.alloc_from("ga", vec![0.0f64; 4]),
            &tuning,
        )
        .unwrap();
    }
}
