//! TRSV: streaming triangular solve.
//!
//! Solves `op(A)·x = b` for a stored `uplo` triangle, streaming the
//! triangle through the module once and emitting the solution as it is
//! produced. The four `(uplo, trans)` cases map onto two dataflow
//! shapes:
//!
//! * **forward** (Lower/No, Upper/Yes): rows arrive `0..n`; each solved
//!   `x` component either feeds the following rows' dots (direct form)
//!   or immediately updates the pending right-hand side (update form);
//! * **backward** (Upper/No, Lower/Yes): the interface module streams
//!   the triangle in *reverse row order* — the order of the stream, like
//!   all tiling decisions, is a property of the module interface
//!   (Sec. III-B) and the reader is configured to match.
//!
//! Unlike the map/map-reduce routines, TRSV carries a true sequential
//! dependency (each output needs the previous ones), so its cost model
//! includes a per-row divide latency on top of the streamed element
//! count.

use fblas_arch::{estimate_circuit, CircuitClass, OpCosts, ResourceEstimate};
use fblas_hlssim::{ModuleKind, PipelineCost, Receiver, Sender, Simulation};

use super::{validate_width, Diag, Trans, Uplo};
use crate::host::buffer::DeviceBuffer;
use crate::scalar::{tree_dot, Scalar};

/// Number of stored elements of an order-`n` triangle, `n(n+1)/2`.
pub fn triangle_len(n: usize) -> usize {
    n * (n + 1) / 2
}

/// A configured TRSV module of order `n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trsv {
    /// Matrix order.
    pub n: usize,
    /// Vectorization width `W` (applies to the row-dot lanes).
    pub w: usize,
    /// Stored triangle.
    pub uplo: Uplo,
    /// Transpose flag.
    pub trans: Trans,
    /// Unit-diagonal flag.
    pub diag: Diag,
}

impl Trsv {
    /// Configure a TRSV module.
    pub fn new(n: usize, w: usize, uplo: Uplo, trans: Trans, diag: Diag) -> Self {
        validate_width(w);
        Trsv {
            n,
            w,
            uplo,
            trans,
            diag,
        }
    }

    /// Whether the triangle must be streamed in reverse row order.
    pub fn reverse_rows(&self) -> bool {
        matches!(
            (self.uplo, self.trans),
            (Uplo::Upper, Trans::No) | (Uplo::Lower, Trans::Yes)
        )
    }

    /// Attach the module: `ch_a` carries the stored triangle row by row
    /// (reversed per [`reverse_rows`](Self::reverse_rows), elements in
    /// ascending column order), `ch_b` the right-hand side (natural
    /// order), `ch_x` receives the solution in natural index order.
    pub fn attach<T: Scalar>(
        &self,
        sim: &mut Simulation,
        ch_a: Receiver<T>,
        ch_b: Receiver<T>,
        ch_x: Sender<T>,
    ) {
        let cfg = *self;
        sim.add_module("trsv", ModuleKind::Compute, move || {
            let n = cfg.n;
            let mut b = ch_b.pop_n(n)?;
            let mut x = vec![T::ZERO; n];
            match (cfg.uplo, cfg.trans) {
                (Uplo::Lower, Trans::No) => {
                    // Forward, direct form: row i = l_i0..l_ii.
                    for i in 0..n {
                        let row = ch_a.pop_n(i + 1)?;
                        let acc = cfg.wide_dot(&row[..i], &x[..i]);
                        let num = b[i] - acc;
                        x[i] = match cfg.diag {
                            Diag::Unit => num,
                            Diag::NonUnit => num / row[i],
                        };
                        ch_x.push(x[i])?;
                    }
                }
                (Uplo::Upper, Trans::Yes) => {
                    // Forward, update form: row j = u_jj..u_j,n-1.
                    for j in 0..n {
                        let row = ch_a.pop_n(n - j)?;
                        let xj = match cfg.diag {
                            Diag::Unit => b[j],
                            Diag::NonUnit => b[j] / row[0],
                        };
                        for (off, u_jk) in row.iter().enumerate().skip(1) {
                            b[j + off] -= *u_jk * xj;
                        }
                        x[j] = xj;
                        ch_x.push(xj)?;
                    }
                }
                (Uplo::Upper, Trans::No) => {
                    // Backward, direct form: rows arrive n-1..0;
                    // row i = u_ii..u_i,n-1.
                    for i in (0..n).rev() {
                        let row = ch_a.pop_n(n - i)?;
                        let acc = cfg.wide_dot(&row[1..], &x[i + 1..]);
                        let num = b[i] - acc;
                        x[i] = match cfg.diag {
                            Diag::Unit => num,
                            Diag::NonUnit => num / row[0],
                        };
                    }
                    for xi in &x {
                        ch_x.push(*xi)?;
                    }
                }
                (Uplo::Lower, Trans::Yes) => {
                    // Backward, update form: rows arrive n-1..0;
                    // row j = l_j0..l_jj (diagonal last).
                    for j in (0..n).rev() {
                        let row = ch_a.pop_n(j + 1)?;
                        let xj = match cfg.diag {
                            Diag::Unit => b[j],
                            Diag::NonUnit => b[j] / row[j],
                        };
                        for (i, l_ji) in row.iter().enumerate().take(j) {
                            b[i] -= *l_ji * xj;
                        }
                        x[j] = xj;
                    }
                    for xi in &x {
                        ch_x.push(*xi)?;
                    }
                }
            }
            Ok(())
        });
    }

    /// W-chunked dot with the hardware tree-reduction order.
    fn wide_dot<T: Scalar>(&self, a: &[T], x: &[T]) -> T {
        debug_assert_eq!(a.len(), x.len());
        let mut acc = T::ZERO;
        for (a, x) in a.chunks(self.w).zip(x.chunks(self.w)) {
            acc += tree_dot(a, x);
        }
        acc
    }

    /// Circuit resource estimate: reduce datapath, a divider, and the
    /// on-chip `x`/`b` buffers.
    pub fn estimate<T: Scalar>(&self) -> ResourceEstimate {
        let tree = estimate_circuit(CircuitClass::MapReduce { w: self.w as u64 }, T::PRECISION);
        let div = OpCosts::div(T::PRECISION);
        let luts = tree.luts + div.luts;
        ResourceEstimate {
            luts,
            resources: tree.resources
                + fblas_arch::Resources::from_luts(div.luts, div.ffs, 0, div.dsps),
            latency: tree.latency + div.latency,
        }
        .with_buffer(2 * self.n as u64, T::PRECISION)
    }

    /// Pipeline cost: streamed triangle plus the sequential divide chain.
    pub fn cost<T: Scalar>(&self) -> PipelineCost {
        let elems = triangle_len(self.n) as u64;
        let div_latency = OpCosts::div(T::PRECISION).latency;
        let iterations = elems.div_ceil(self.w as u64) + self.n as u64 * div_latency;
        PipelineCost::pipelined(self.estimate::<T>().latency, iterations)
    }
}

/// Add an interface module streaming the stored `uplo` triangle of an
/// `n × n` row-major matrix, row by row (reversed if `reverse_rows`),
/// elements in ascending column order — the stream [`Trsv::attach`]
/// expects.
pub fn read_triangle<T: Scalar>(
    sim: &mut Simulation,
    buf: &DeviceBuffer<T>,
    n: usize,
    uplo: Uplo,
    reverse_rows: bool,
    tx: Sender<T>,
) {
    let buf = buf.clone();
    let name = format!("read_tri_{}", buf.name());
    sim.add_module(name.clone(), ModuleKind::Interface, move || {
        let data = buf.to_host();
        if data.len() != n * n {
            return Err(fblas_hlssim::SimError::module(
                name,
                format!(
                    "triangle source holds {} elements, expected {}",
                    data.len(),
                    n * n
                ),
            ));
        }
        let rows: Box<dyn Iterator<Item = usize>> = if reverse_rows {
            Box::new((0..n).rev())
        } else {
            Box::new(0..n)
        };
        for i in rows {
            let (lo, hi) = match uplo {
                Uplo::Lower => (0, i + 1),
                Uplo::Upper => (i, n),
            };
            for j in lo..hi {
                tx.push(data[i * n + j])?;
            }
        }
        Ok(())
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::helpers::{read_vector, write_vector};
    use fblas_hlssim::channel;

    fn seq(n: usize, seed: f64) -> Vec<f64> {
        (0..n).map(|i| ((i as f64 + seed) * 0.77).sin()).collect()
    }

    /// Build a well-conditioned triangular matrix (full storage).
    fn tri_matrix(n: usize, uplo: Uplo) -> Vec<f64> {
        let mut a = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..n {
                let stored = match uplo {
                    Uplo::Upper => j >= i,
                    Uplo::Lower => j <= i,
                };
                if stored {
                    a[i * n + j] = 0.1 + 0.07 * ((i + 2 * j) as f64);
                }
            }
            a[i * n + i] += 2.0;
        }
        a
    }

    /// Dense op(A)·x for verification.
    fn tri_apply(n: usize, a: &[f64], x: &[f64], uplo: Uplo, trans: Trans, diag: Diag) -> Vec<f64> {
        let mut b = vec![0.0f64; n];
        for i in 0..n {
            for j in 0..n {
                let stored = match uplo {
                    Uplo::Upper => j >= i,
                    Uplo::Lower => j <= i,
                };
                if !stored {
                    continue;
                }
                let mut v = a[i * n + j];
                if i == j && diag == Diag::Unit {
                    v = 1.0;
                }
                match trans {
                    Trans::No => b[i] += v * x[j],
                    Trans::Yes => b[j] += v * x[i],
                }
            }
        }
        b
    }

    fn run_case(n: usize, w: usize, uplo: Uplo, trans: Trans, diag: Diag) {
        let a = tri_matrix(n, uplo);
        let x_true = seq(n, 5.0);
        let b = tri_apply(n, &a, &x_true, uplo, trans, diag);

        let cfg = Trsv::new(n, w, uplo, trans, diag);
        let mut sim = Simulation::new();
        let a_buf = DeviceBuffer::from_vec("a", a, 0);
        let b_buf = DeviceBuffer::from_vec("b", b, 0);
        let x_buf = DeviceBuffer::<f64>::zeroed("x", n, 0);
        let (ta, ra) = channel(sim.ctx(), 64, "a");
        let (tb, rb) = channel(sim.ctx(), 64, "b");
        let (txc, rxc) = channel(sim.ctx(), 64, "x");
        read_triangle(&mut sim, &a_buf, n, uplo, cfg.reverse_rows(), ta);
        read_vector(&mut sim, &b_buf, tb);
        cfg.attach(&mut sim, ra, rb, txc);
        write_vector(&mut sim, &x_buf, n, rxc);
        sim.run().unwrap();

        let got = x_buf.to_host();
        for i in 0..n {
            assert!(
                (got[i] - x_true[i]).abs() < 1e-9,
                "{uplo:?}/{trans:?}/{diag:?} n={n} w={w} idx {i}: {} vs {}",
                got[i],
                x_true[i]
            );
        }
    }

    #[test]
    fn all_four_solve_shapes() {
        for uplo in [Uplo::Upper, Uplo::Lower] {
            for trans in [Trans::No, Trans::Yes] {
                run_case(9, 2, uplo, trans, Diag::NonUnit);
            }
        }
    }

    #[test]
    fn unit_diagonal_variants() {
        for uplo in [Uplo::Upper, Uplo::Lower] {
            for trans in [Trans::No, Trans::Yes] {
                run_case(6, 4, uplo, trans, Diag::Unit);
            }
        }
    }

    #[test]
    fn degenerate_sizes() {
        run_case(1, 1, Uplo::Lower, Trans::No, Diag::NonUnit);
        run_case(2, 8, Uplo::Upper, Trans::Yes, Diag::NonUnit);
    }

    #[test]
    fn reverse_rows_flags() {
        assert!(Trsv::new(4, 1, Uplo::Upper, Trans::No, Diag::NonUnit).reverse_rows());
        assert!(Trsv::new(4, 1, Uplo::Lower, Trans::Yes, Diag::NonUnit).reverse_rows());
        assert!(!Trsv::new(4, 1, Uplo::Lower, Trans::No, Diag::NonUnit).reverse_rows());
        assert!(!Trsv::new(4, 1, Uplo::Upper, Trans::Yes, Diag::NonUnit).reverse_rows());
    }

    #[test]
    fn triangle_len_formula() {
        assert_eq!(triangle_len(1), 1);
        assert_eq!(triangle_len(4), 10);
        assert_eq!(triangle_len(0), 0);
    }

    #[test]
    fn estimate_includes_divider_and_buffers() {
        let t = Trsv::new(1024, 8, Uplo::Lower, Trans::No, Diag::NonUnit);
        let e = t.estimate::<f32>();
        assert!(e.resources.dsps > 8, "tree lanes + divider");
        assert!(e.resources.m20ks >= 2, "x/b buffers");
        // Sequential dependency shows in the cost model.
        let c = t.cost::<f32>();
        assert!(c.iterations > (triangle_len(1024) / 8) as u64);
    }
}
