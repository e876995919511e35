//! FBLAS HLS modules: the streaming routine implementations.
//!
//! Each routine is a configuration struct (`Dot`, `Gemv`, `Gemm`, …) that
//! can
//!
//! * `attach` itself to a [`Simulation`](fblas_hlssim::Simulation) as a
//!   computational module reading and writing FIFO channels — the
//!   functional behaviour;
//! * `estimate` its circuit resources via the calibrated model of
//!   [`fblas_arch::estimator`] — the space side of the space/time
//!   trade-off (paper Sec. IV);
//! * report its pipeline `cost` (`C = L + I·M`) — the time side.
//!
//! All modules are perfectly pipelined (`I = 1`) thanks to the paper's
//! pipeline-enabling transformations; the `W`-wide inner loops are
//! simulated with the same reduction shapes the unrolled circuits use
//! (binary adder trees, see [`crate::scalar::tree_sum`]).

pub mod gemm;
pub mod gemv;
pub mod ger;
pub mod level1_map;
pub mod level1_reduce;
pub mod level1_scalar;
pub mod level3;
mod replay;
pub mod trsv;

pub use gemm::{Gemm, SystolicShape};
pub use gemv::{Gemv, GemvVariant};
pub use ger::{Ger, Syr, Syr2};
pub use level1_map::{Axpy, Rot, Rotm, Scal, Swap, VecCopy};
pub use level1_reduce::{Asum, Dot, DotAccumulator, Iamax, Nrm2, Sdsdot};
pub use level1_scalar::{Rotg, Rotmg};
pub use level3::{Side, Syr2k, Syrk, Trsm};
pub use replay::Input;
pub use trsv::Trsv;

/// Whether a matrix operand is used transposed (functional parameter of
/// the code generator, paper Sec. II-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Trans {
    /// Use the matrix as stored.
    No,
    /// Use the transpose.
    Yes,
}

/// Which triangle of a matrix is referenced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Uplo {
    /// Upper triangle.
    Upper,
    /// Lower triangle.
    Lower,
}

/// Whether a triangular matrix has an implicit unit diagonal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Diag {
    /// Implicit ones on the diagonal.
    Unit,
    /// Diagonal stored explicitly.
    NonUnit,
}

/// Number of `W`-wide outer-loop iterations covering `n` elements —
/// `⌈n/W⌉`, the `M` of the cycle formula `C = L + I·M`.
pub fn outer_iterations(n: usize, w: usize) -> u64 {
    assert!(w >= 1, "vectorization width must be at least 1");
    n.div_ceil(w) as u64
}

/// Validate a vectorization width (must be ≥ 1; the paper's designs use
/// powers of two, which we encourage but do not require).
pub fn validate_width(w: usize) {
    assert!(w >= 1, "vectorization width must be at least 1");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outer_iterations_rounds_up() {
        assert_eq!(outer_iterations(100, 4), 25);
        assert_eq!(outer_iterations(101, 4), 26);
        assert_eq!(outer_iterations(0, 4), 0);
        assert_eq!(outer_iterations(3, 8), 1);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn zero_width_rejected() {
        outer_iterations(10, 0);
    }
}
