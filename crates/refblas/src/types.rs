//! BLAS enumeration types (transpose, triangle, diagonal, side).

/// Whether a matrix operand is used transposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trans {
    /// Use the matrix as stored.
    No,
    /// Use the transpose of the stored matrix.
    Yes,
}

impl Trans {
    /// Flip the flag.
    pub fn toggled(self) -> Trans {
        match self {
            Trans::No => Trans::Yes,
            Trans::Yes => Trans::No,
        }
    }
}

/// Which triangle of a matrix is referenced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Uplo {
    /// Upper triangle.
    Upper,
    /// Lower triangle.
    Lower,
}

/// Whether a triangular matrix has an implicit unit diagonal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Diag {
    /// Diagonal elements are taken as 1 and not referenced.
    Unit,
    /// Diagonal elements are read from the matrix.
    NonUnit,
}

/// Side of a matrix product for TRSM: solve `op(A)·X = αB` or `X·op(A) = αB`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// A is on the left.
    Left,
    /// A is on the right.
    Right,
}

/// The modified-Givens transform flag of ROTM/ROTMG, mirroring the
/// netlib `param[0]` encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RotmFlag {
    /// `param[0] = -2`: identity, no transformation applied.
    Identity,
    /// `param[0] = -1`: full 2×2 matrix `[[h11, h12], [h21, h22]]`.
    Full,
    /// `param[0] = 0`: off-diagonal `[[1, h12], [h21, 1]]`.
    OffDiagonal,
    /// `param[0] = 1`: diagonal `[[h11, 1], [-1, h22]]`.
    Diagonal,
}

impl RotmFlag {
    /// The netlib `param[0]` value for this flag.
    pub fn param0(self) -> f64 {
        match self {
            RotmFlag::Identity => -2.0,
            RotmFlag::Full => -1.0,
            RotmFlag::OffDiagonal => 0.0,
            RotmFlag::Diagonal => 1.0,
        }
    }
}

/// The H matrix produced by ROTMG / consumed by ROTM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RotmParam<T> {
    /// Which entries of H are explicit.
    pub flag: RotmFlag,
    /// `H[0][0]`.
    pub h11: T,
    /// `H[0][1]`.
    pub h12: T,
    /// `H[1][0]`.
    pub h21: T,
    /// `H[1][1]`.
    pub h22: T,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trans_toggles() {
        assert_eq!(Trans::No.toggled(), Trans::Yes);
        assert_eq!(Trans::Yes.toggled(), Trans::No);
    }

    #[test]
    fn rotm_param0_encoding() {
        assert_eq!(RotmFlag::Identity.param0(), -2.0);
        assert_eq!(RotmFlag::Full.param0(), -1.0);
        assert_eq!(RotmFlag::OffDiagonal.param0(), 0.0);
        assert_eq!(RotmFlag::Diagonal.param0(), 1.0);
    }
}
