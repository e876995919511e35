//! Rank-1 update modules: GER, SYR, SYR2.
//!
//! These are *map*-class Level-2 routines (paper Sec. IV-A): each matrix
//! element receives an independent fused multiply-add, so the `W`-wide
//! inner loop is `W` independent MAC lanes. The matrix is streamed
//! through the module (in, updated, out) in tiles by rows; the column
//! operand is replayed once per row of tiles by its interface module.

use fblas_arch::{estimate_circuit, CircuitClass, ResourceEstimate};
use fblas_hlssim::{
    ChunkReader, ChunkWriter, ModuleKind, PipelineCost, Receiver, Sender, SimError, Simulation,
};

use super::replay::{Cycle, MatrixIn, MatrixOut, TiledReader, TiledWriter, VectorIn};
use super::{validate_width, Uplo};
use crate::scalar::Scalar;
use crate::tiling::{TileOrder, Tiling};

/// Extent of tile `b` of size `t` over an axis of length `total`.
fn tile_extent(b: usize, t: usize, total: usize) -> usize {
    let start = b * t;
    t.min(total - start)
}

/// The streams a GER kernel consumes and produces. The threaded module
/// binds each of them to a channel; tile replay binds all of them to
/// operand slices. Both bindings carry the same elements in the same
/// order.
struct Ports<'a, T: Send + 'static> {
    /// `A`, in tile order.
    a: MatrixIn<'a, T>,
    /// `x`, one row block per row of tiles.
    x: VectorIn<'a, T>,
    /// `y`, replayed per row of tiles.
    y: VectorIn<'a, T>,
    /// The updated matrix, in tile order.
    out: MatrixOut<'a, T>,
}

/// GER: `A ← α·x·yᵀ + A` over an `n × m` matrix streamed in tiles by
/// rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ger {
    /// Rows of `A`.
    pub n: usize,
    /// Columns of `A`.
    pub m: usize,
    /// Tile height `T_N`.
    pub tn: usize,
    /// Tile width `T_M`.
    pub tm: usize,
    /// Vectorization width `W`.
    pub w: usize,
}

impl Ger {
    /// Configure a GER module.
    pub fn new(n: usize, m: usize, tn: usize, tm: usize, w: usize) -> Self {
        validate_width(w);
        assert!(tn >= 1 && tm >= 1, "tile dimensions must be at least 1");
        Ger { n, m, tn, tm, w }
    }

    /// The tiling the `A` reader/writer must use.
    pub fn a_tiling(&self) -> Tiling {
        Tiling::new(self.tn, self.tm, TileOrder::RowTilesRowMajor)
    }

    /// Replay count for the `y` operand: once per row of tiles.
    pub fn y_repetitions(&self) -> usize {
        self.n.div_ceil(self.tn)
    }

    /// Attach the module: `a` and `out` carry the matrix in tile order,
    /// `x` delivers `x` in row blocks (once), `y` delivers `y` replayed
    /// [`y_repetitions`](Self::y_repetitions) times.
    pub fn attach<T: Scalar>(
        &self,
        sim: &mut Simulation,
        alpha: T,
        a: Receiver<T>,
        x: Receiver<T>,
        y: Receiver<T>,
        out: Sender<T>,
    ) {
        let cfg = *self;
        sim.add_module("ger", ModuleKind::Compute, move || {
            // The matrix stream is relayed in chunks; the writer is
            // flushed at every tile boundary so no output is buffered
            // across the blocking vector-block reads.
            let mut ports = Ports {
                a: MatrixIn::Channel(ChunkReader::new(&a)),
                x: VectorIn::Channel(&x),
                y: VectorIn::Channel(&y),
                out: MatrixOut::channel(ChunkWriter::new(&out)),
            };
            cfg.run(alpha, &mut ports)
        });
    }

    /// Tile replay: the module's arithmetic on the calling thread, over
    /// row-major operand slices instead of channels — `a` and `out` are
    /// `n × m`, `x` holds `n` elements and `y` holds `m`. The kernel is
    /// the threaded module's, visiting `A` in tile order with `y`
    /// replayed per row of tiles, so `out` is bit-identical to what
    /// [`attach`](Self::attach)'s module streams to its writer.
    pub fn replay<T: Scalar>(
        &self,
        alpha: T,
        a: &[T],
        x: &[T],
        y: &[T],
        out: &mut [T],
    ) -> Result<(), SimError> {
        let sizes = [
            ("A", a.len(), self.n * self.m),
            ("x", x.len(), self.n),
            ("y", y.len(), self.m),
            ("out", out.len(), self.n * self.m),
        ];
        for (operand, got, want) in sizes {
            if got != want {
                return Err(SimError::module(
                    "tile-replay",
                    format!("ger operand `{operand}` holds {got} elements, expected {want}"),
                ));
            }
        }
        let tiling = self.a_tiling();
        let mut ports = Ports {
            a: MatrixIn::Buffer(TiledReader::new(a, self.n, self.m, tiling)),
            x: VectorIn::Buffer(Cycle::new(x)),
            y: VectorIn::Buffer(Cycle::new(y)),
            out: MatrixOut::Buffer(TiledWriter::new(out, self.n, self.m, tiling)),
        };
        self.run(alpha, &mut ports)
    }

    fn run<T: Scalar>(&self, alpha: T, ports: &mut Ports<'_, T>) -> Result<(), SimError> {
        let mut scratch = Vec::new();
        for bi in 0..self.n.div_ceil(self.tn) {
            let rows = tile_extent(bi, self.tn, self.n);
            let xblock = ports.x.block(rows)?;
            for bj in 0..self.m.div_ceil(self.tm) {
                let cols = tile_extent(bj, self.tm, self.m);
                let yblock = ports.y.block(cols)?;
                for xi in &xblock {
                    let ax = alpha * *xi;
                    let a = ports.a.run(cols, &mut scratch)?;
                    ports
                        .out
                        .run_mut(cols, |out| T::mul_add_to(out, &yblock, ax, a))?;
                }
                ports.out.end_tile()?;
            }
        }
        Ok(())
    }

    /// Circuit resource estimate: `W` MAC lanes plus vector tile buffers.
    pub fn estimate<T: Scalar>(&self) -> ResourceEstimate {
        estimate_circuit(
            CircuitClass::MapFused {
                w: self.w as u64,
                macs_per_lane: 1,
            },
            T::PRECISION,
        )
        .with_buffer((self.tn + self.tm) as u64, T::PRECISION)
    }

    /// Pipeline cost: the matrix stream dominates.
    pub fn cost<T: Scalar>(&self) -> PipelineCost {
        let elems = self.n as u64 * self.m as u64;
        PipelineCost::pipelined(self.estimate::<T>().latency, elems.div_ceil(self.w as u64))
    }
}

/// SYR: `A ← α·x·xᵀ + A` on the `uplo` triangle of an `n × n` matrix.
///
/// The full square matrix is streamed and only the `uplo` triangle is
/// updated — "specialized matrix routines (triangular and symmetric
/// matrices) must currently be implemented in terms of the generic
/// routines" (paper Sec. VI).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Syr {
    /// Matrix order.
    pub n: usize,
    /// Tile height.
    pub tn: usize,
    /// Tile width.
    pub tm: usize,
    /// Vectorization width `W`.
    pub w: usize,
    /// Updated triangle.
    pub uplo: Uplo,
}

impl Syr {
    /// Configure a SYR module.
    pub fn new(n: usize, tn: usize, tm: usize, w: usize, uplo: Uplo) -> Self {
        validate_width(w);
        assert!(tn >= 1 && tm >= 1, "tile dimensions must be at least 1");
        Syr { n, tn, tm, w, uplo }
    }

    /// The tiling the `A` reader/writer must use.
    pub fn a_tiling(&self) -> Tiling {
        Tiling::new(self.tn, self.tm, TileOrder::RowTilesRowMajor)
    }

    /// Replay count for the column copy of `x`.
    pub fn x_col_repetitions(&self) -> usize {
        self.n.div_ceil(self.tn)
    }

    /// Attach the module: `ch_x_row` delivers `x` in row blocks once;
    /// `ch_x_col` delivers `x` replayed per row of tiles.
    pub fn attach<T: Scalar>(
        &self,
        sim: &mut Simulation,
        alpha: T,
        ch_a: Receiver<T>,
        ch_x_row: Receiver<T>,
        ch_x_col: Receiver<T>,
        ch_out: Sender<T>,
    ) {
        let cfg = *self;
        sim.add_module("syr", ModuleKind::Compute, move || {
            let mut a_rd = ChunkReader::new(&ch_a);
            let mut out_wr = ChunkWriter::new(&ch_out);
            for bi in 0..cfg.n.div_ceil(cfg.tn) {
                let rows = tile_extent(bi, cfg.tn, cfg.n);
                let r0 = bi * cfg.tn;
                let xrow = ch_x_row.pop_n(rows)?;
                for bj in 0..cfg.n.div_ceil(cfg.tm) {
                    let cols = tile_extent(bj, cfg.tm, cfg.n);
                    let c0 = bj * cfg.tm;
                    let xcol = ch_x_col.pop_n(cols)?;
                    for i in 0..rows {
                        for j in 0..cols {
                            let a = a_rd.next()?;
                            let (gi, gj) = (r0 + i, c0 + j);
                            let in_triangle = match cfg.uplo {
                                Uplo::Upper => gj >= gi,
                                Uplo::Lower => gj <= gi,
                            };
                            let v = if in_triangle {
                                (alpha * xrow[i]).mul_add(xcol[j], a)
                            } else {
                                a
                            };
                            out_wr.push(v)?;
                        }
                    }
                    out_wr.flush()?;
                }
            }
            Ok(())
        });
    }

    /// Circuit resource estimate.
    pub fn estimate<T: Scalar>(&self) -> ResourceEstimate {
        estimate_circuit(
            CircuitClass::MapFused {
                w: self.w as u64,
                macs_per_lane: 1,
            },
            T::PRECISION,
        )
        .with_buffer((self.tn + self.tm) as u64, T::PRECISION)
    }

    /// Pipeline cost: full square matrix streamed.
    pub fn cost<T: Scalar>(&self) -> PipelineCost {
        let elems = (self.n as u64).pow(2);
        PipelineCost::pipelined(self.estimate::<T>().latency, elems.div_ceil(self.w as u64))
    }
}

/// SYR2: `A ← α·x·yᵀ + α·y·xᵀ + A` on the `uplo` triangle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Syr2 {
    /// Matrix order.
    pub n: usize,
    /// Tile height.
    pub tn: usize,
    /// Tile width.
    pub tm: usize,
    /// Vectorization width `W`.
    pub w: usize,
    /// Updated triangle.
    pub uplo: Uplo,
}

impl Syr2 {
    /// Configure a SYR2 module.
    pub fn new(n: usize, tn: usize, tm: usize, w: usize, uplo: Uplo) -> Self {
        validate_width(w);
        assert!(tn >= 1 && tm >= 1, "tile dimensions must be at least 1");
        Syr2 { n, tn, tm, w, uplo }
    }

    /// The tiling the `A` reader/writer must use.
    pub fn a_tiling(&self) -> Tiling {
        Tiling::new(self.tn, self.tm, TileOrder::RowTilesRowMajor)
    }

    /// Replay count for the column copies of `x` and `y`.
    pub fn col_repetitions(&self) -> usize {
        self.n.div_ceil(self.tn)
    }

    /// Attach the module. Row copies of `x`/`y` arrive once; column
    /// copies are replayed per row of tiles.
    #[allow(clippy::too_many_arguments)]
    pub fn attach<T: Scalar>(
        &self,
        sim: &mut Simulation,
        alpha: T,
        ch_a: Receiver<T>,
        ch_x_row: Receiver<T>,
        ch_y_row: Receiver<T>,
        ch_x_col: Receiver<T>,
        ch_y_col: Receiver<T>,
        ch_out: Sender<T>,
    ) {
        let cfg = *self;
        sim.add_module("syr2", ModuleKind::Compute, move || {
            let mut a_rd = ChunkReader::new(&ch_a);
            let mut out_wr = ChunkWriter::new(&ch_out);
            for bi in 0..cfg.n.div_ceil(cfg.tn) {
                let rows = tile_extent(bi, cfg.tn, cfg.n);
                let r0 = bi * cfg.tn;
                let xrow = ch_x_row.pop_n(rows)?;
                let yrow = ch_y_row.pop_n(rows)?;
                for bj in 0..cfg.n.div_ceil(cfg.tm) {
                    let cols = tile_extent(bj, cfg.tm, cfg.n);
                    let c0 = bj * cfg.tm;
                    let xcol = ch_x_col.pop_n(cols)?;
                    let ycol = ch_y_col.pop_n(cols)?;
                    for i in 0..rows {
                        for j in 0..cols {
                            let a = a_rd.next()?;
                            let (gi, gj) = (r0 + i, c0 + j);
                            let in_triangle = match cfg.uplo {
                                Uplo::Upper => gj >= gi,
                                Uplo::Lower => gj <= gi,
                            };
                            let v = if in_triangle {
                                let t = (alpha * xrow[i]).mul_add(ycol[j], a);
                                (alpha * yrow[i]).mul_add(xcol[j], t)
                            } else {
                                a
                            };
                            out_wr.push(v)?;
                        }
                    }
                    out_wr.flush()?;
                }
            }
            Ok(())
        });
    }

    /// Circuit resource estimate: two MAC pairs per lane.
    pub fn estimate<T: Scalar>(&self) -> ResourceEstimate {
        estimate_circuit(
            CircuitClass::MapFused {
                w: self.w as u64,
                macs_per_lane: 2,
            },
            T::PRECISION,
        )
        .with_buffer(2 * (self.tn + self.tm) as u64, T::PRECISION)
    }

    /// Pipeline cost: full square matrix streamed.
    pub fn cost<T: Scalar>(&self) -> PipelineCost {
        let elems = (self.n as u64).pow(2);
        PipelineCost::pipelined(self.estimate::<T>().latency, elems.div_ceil(self.w as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::helpers::writers::write_matrix;
    use crate::helpers::{read_matrix, read_vector, read_vector_replayed};
    use crate::host::buffer::DeviceBuffer;
    use fblas_hlssim::channel;

    fn seq(n: usize, seed: f64) -> Vec<f64> {
        (0..n).map(|i| ((i as f64 + seed) * 0.531).sin()).collect()
    }

    fn run_ger<T: Scalar>(cfg: Ger, alpha: T, a: &[T], x: &[T], y: &[T]) -> Vec<T> {
        let mut sim = Simulation::new();
        let a_buf = DeviceBuffer::from_vec("a", a.to_vec(), 0);
        let x_buf = DeviceBuffer::from_vec("x", x.to_vec(), 0);
        let y_buf = DeviceBuffer::from_vec("y", y.to_vec(), 0);
        let out = DeviceBuffer::from_vec("a_out", vec![T::ZERO; cfg.n * cfg.m], 0);
        let (ta, ra) = channel(sim.ctx(), 64, "a");
        let (tx, rx) = channel(sim.ctx(), 64, "x");
        let (ty, ry) = channel(sim.ctx(), 64, "y");
        let (to, ro) = channel(sim.ctx(), 64, "out");
        read_matrix(&mut sim, &a_buf, cfg.n, cfg.m, cfg.a_tiling(), ta, 1);
        read_vector(&mut sim, &x_buf, tx);
        read_vector_replayed(&mut sim, &y_buf, ty, cfg.y_repetitions());
        cfg.attach(&mut sim, alpha, ra, rx, ry, to);
        write_matrix(&mut sim, &out, cfg.n, cfg.m, cfg.a_tiling(), ro);
        sim.run().unwrap();
        out.to_host()
    }

    #[test]
    fn ger_matches_dense_update() {
        for (n, m, tn, tm) in [(6, 8, 2, 4), (5, 7, 3, 3), (4, 4, 4, 4)] {
            let cfg = Ger::new(n, m, tn, tm, 2);
            let a = seq(n * m, 0.0);
            let x = seq(n, 1.0);
            let y = seq(m, 2.0);
            let got = run_ger(cfg, 1.7, &a, &x, &y);
            for i in 0..n {
                for j in 0..m {
                    let exp = a[i * m + j] + 1.7 * x[i] * y[j];
                    assert!(
                        (got[i * m + j] - exp).abs() < 1e-12,
                        "n={n} m={m} ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn replay_is_bit_identical_to_the_threaded_module() {
        // 40 x 24 in 16 x 8 tiles has a short last tile row, and
        // 37 x 29 leaves both edges ragged.
        let mut shapes = vec![
            (37, 53, 64, 64, 16),
            (32, 48, 16, 16, 16),
            (37, 53, 8, 20, 16),
        ];
        for w in [4, 16] {
            shapes.extend([(40, 24, 16, 8, w), (37, 29, 16, 8, w)]);
        }
        for (n, m, tn, tm, w) in shapes {
            check_replay::<f32>(n, m, tn, tm, w);
            check_replay::<f64>(n, m, tn, tm, w);
        }
    }

    /// GER as it stood when `A` was read and written one element at a
    /// time, each lane its own scalar `mul_add`: the oracle that pins
    /// the bits of the row-segment kernel. Returns the row-major result.
    fn elementwise_ger<T: Scalar>(cfg: Ger, alpha: T, a: &[T], x: &[T], y: &[T]) -> Vec<T> {
        let m = cfg.m;
        let mut stream = cfg.a_tiling().stream_indices(cfg.n, m).into_iter();
        let mut out = vec![T::ZERO; cfg.n * m];
        for bi in 0..cfg.n.div_ceil(cfg.tn) {
            let rows = tile_extent(bi, cfg.tn, cfg.n);
            let xblock = &x[bi * cfg.tn..bi * cfg.tn + rows];
            for bj in 0..m.div_ceil(cfg.tm) {
                let cols = tile_extent(bj, cfg.tm, m);
                let yblock = &y[bj * cfg.tm..bj * cfg.tm + cols];
                for xi in xblock {
                    let ax = alpha * *xi;
                    for yj in yblock {
                        let (r, c) = stream.next().expect("`A` stream exhausted");
                        out[r * m + c] = ax.mul_add(*yj, a[r * m + c]);
                    }
                }
            }
        }
        assert!(stream.next().is_none(), "the oracle left `A` unread");
        out
    }

    fn bits<T: Scalar>(v: &[T]) -> Vec<u64> {
        v.iter().map(|e| e.to_f64().to_bits()).collect()
    }

    /// Operands whose magnitudes span several decades, so that every
    /// rounding shows in the bits.
    fn operands<T: Scalar>(n: usize, m: usize) -> (Vec<T>, Vec<T>, Vec<T>) {
        let cast = |v: Vec<f64>| {
            v.into_iter()
                .enumerate()
                .map(|(i, e)| T::from_f64(e * 10f64.powi(i as i32 % 7 - 3)))
                .collect::<Vec<T>>()
        };
        (cast(seq(n * m, 0.0)), cast(seq(n, 1.0)), cast(seq(m, 2.0)))
    }

    /// Tile replay over buffers and the module fed by channels must
    /// each match the element-wise oracle bit for bit.
    fn check_replay<T: Scalar>(n: usize, m: usize, tn: usize, tm: usize, w: usize) {
        let cfg = Ger::new(n, m, tn, tm, w);
        let (a, x, y) = operands::<T>(n, m);
        let alpha = T::from_f64(-1.7);
        let want = bits(&elementwise_ger(cfg, alpha, &a, &x, &y));
        let what = format!("{n}x{m} in {tn}x{tm} tiles, W={w}");
        let mut replayed = vec![T::ZERO; n * m];
        cfg.replay(alpha, &a, &x, &y, &mut replayed).unwrap();
        assert_eq!(bits(&replayed), want, "buffer: {what}");
        let channel = run_ger(cfg, alpha, &a, &x, &y);
        assert_eq!(bits(&channel), want, "channel: {what}");
    }

    /// Rows that straddle the runs of the buffers they are read from
    /// and written to: one tile column streams `A` row-major, which
    /// cursors walking 1 x 5 tiles visit in the same order but in runs
    /// of five, so every row is gathered and scattered.
    #[test]
    fn straddling_rows_match_the_elementwise_oracle() {
        fn check<T: Scalar>(n: usize, m: usize) {
            let cfg = Ger::new(n, m, 16, m, 4);
            let (a, x, y) = operands::<T>(n, m);
            let alpha = T::from_f64(0.9);
            let want = bits(&elementwise_ger(cfg, alpha, &a, &x, &y));
            let fine = Tiling::new(1, 5, TileOrder::RowTilesRowMajor);
            assert_eq!(
                fine.stream_indices(n, m),
                cfg.a_tiling().stream_indices(n, m)
            );
            let mut got = vec![T::ZERO; n * m];
            let mut ports = Ports {
                a: MatrixIn::Buffer(TiledReader::new(&a, n, m, fine)),
                x: VectorIn::Buffer(Cycle::new(&x)),
                y: VectorIn::Buffer(Cycle::new(&y)),
                out: MatrixOut::Buffer(TiledWriter::new(&mut got, n, m, fine)),
            };
            cfg.run(alpha, &mut ports).unwrap();
            drop(ports);
            assert_eq!(bits(&got), want, "{n}x{m}");
        }
        for (n, m) in [(40, 24), (37, 29)] {
            check::<f32>(n, m);
            check::<f64>(n, m);
        }
    }

    fn run_syr(cfg: Syr, alpha: f64, a: &[f64], x: &[f64]) -> Vec<f64> {
        let mut sim = Simulation::new();
        let a_buf = DeviceBuffer::from_vec("a", a.to_vec(), 0);
        let x_buf = DeviceBuffer::from_vec("x", x.to_vec(), 0);
        let out = DeviceBuffer::<f64>::zeroed("a_out", cfg.n * cfg.n, 0);
        let (ta, ra) = channel(sim.ctx(), 64, "a");
        let (txr, rxr) = channel(sim.ctx(), 64, "xr");
        let (txc, rxc) = channel(sim.ctx(), 64, "xc");
        let (to, ro) = channel(sim.ctx(), 64, "out");
        read_matrix(&mut sim, &a_buf, cfg.n, cfg.n, cfg.a_tiling(), ta, 1);
        read_vector(&mut sim, &x_buf, txr);
        read_vector_replayed(&mut sim, &x_buf, txc, cfg.x_col_repetitions());
        cfg.attach(&mut sim, alpha, ra, rxr, rxc, to);
        write_matrix(&mut sim, &out, cfg.n, cfg.n, cfg.a_tiling(), ro);
        sim.run().unwrap();
        out.to_host()
    }

    #[test]
    fn syr_updates_only_triangle() {
        for uplo in [Uplo::Upper, Uplo::Lower] {
            let n = 6;
            let cfg = Syr::new(n, 2, 3, 2, uplo);
            let a = seq(n * n, 0.0);
            let x = seq(n, 1.0);
            let got = run_syr(cfg, 2.0, &a, &x);
            for i in 0..n {
                for j in 0..n {
                    let in_tri = match uplo {
                        Uplo::Upper => j >= i,
                        Uplo::Lower => j <= i,
                    };
                    let exp = if in_tri {
                        a[i * n + j] + 2.0 * x[i] * x[j]
                    } else {
                        a[i * n + j]
                    };
                    assert!((got[i * n + j] - exp).abs() < 1e-12, "{uplo:?} ({i},{j})");
                }
            }
        }
    }

    fn run_syr2(cfg: Syr2, alpha: f64, a: &[f64], x: &[f64], y: &[f64]) -> Vec<f64> {
        let mut sim = Simulation::new();
        let a_buf = DeviceBuffer::from_vec("a", a.to_vec(), 0);
        let x_buf = DeviceBuffer::from_vec("x", x.to_vec(), 0);
        let y_buf = DeviceBuffer::from_vec("y", y.to_vec(), 0);
        let out = DeviceBuffer::<f64>::zeroed("a_out", cfg.n * cfg.n, 0);
        let (ta, ra) = channel(sim.ctx(), 64, "a");
        let (txr, rxr) = channel(sim.ctx(), 64, "xr");
        let (tyr, ryr) = channel(sim.ctx(), 64, "yr");
        let (txc, rxc) = channel(sim.ctx(), 64, "xc");
        let (tyc, ryc) = channel(sim.ctx(), 64, "yc");
        let (to, ro) = channel(sim.ctx(), 64, "out");
        read_matrix(&mut sim, &a_buf, cfg.n, cfg.n, cfg.a_tiling(), ta, 1);
        read_vector(&mut sim, &x_buf, txr);
        read_vector(&mut sim, &y_buf, tyr);
        read_vector_replayed(&mut sim, &x_buf, txc, cfg.col_repetitions());
        read_vector_replayed(&mut sim, &y_buf, tyc, cfg.col_repetitions());
        cfg.attach(&mut sim, alpha, ra, rxr, ryr, rxc, ryc, to);
        write_matrix(&mut sim, &out, cfg.n, cfg.n, cfg.a_tiling(), ro);
        sim.run().unwrap();
        out.to_host()
    }

    #[test]
    fn syr2_matches_dense_update() {
        let n = 5;
        let cfg = Syr2::new(n, 2, 2, 1, Uplo::Lower);
        let a = seq(n * n, 3.0);
        let x = seq(n, 4.0);
        let y = seq(n, 5.0);
        let got = run_syr2(cfg, 0.9, &a, &x, &y);
        for i in 0..n {
            for j in 0..n {
                let exp = if j <= i {
                    a[i * n + j] + 0.9 * (x[i] * y[j] + y[i] * x[j])
                } else {
                    a[i * n + j]
                };
                assert!((got[i * n + j] - exp).abs() < 1e-12, "({i},{j})");
            }
        }
    }

    #[test]
    fn estimates_are_map_class() {
        let g = Ger::new(100, 100, 10, 10, 8);
        let e = g.estimate::<f32>();
        assert_eq!(e.resources.dsps, 8, "one MAC lane per width unit");
        let s2 = Syr2::new(100, 10, 10, 8, Uplo::Upper).estimate::<f32>();
        assert_eq!(s2.resources.dsps, 16, "two MAC pairs per lane");
    }

    #[test]
    fn cost_streams_whole_matrix() {
        let g = Ger::new(64, 32, 8, 8, 4);
        assert_eq!(g.cost::<f64>().iterations, 64 * 32 / 4);
        let s = Syr::new(64, 8, 8, 4, Uplo::Upper);
        assert_eq!(s.cost::<f64>().iterations, 64 * 64 / 4);
    }
}
