//! GEMV: streaming matrix-vector multiply (paper Sec. III-B, Fig. 2).
//!
//! The way `A` is tiled and streamed determines which vector operand must
//! be *replayed* and therefore the routine's I/O complexity — the paper's
//! central Level-2 example. Four variants are provided:
//!
//! | variant             | computes      | `A` stream        | replayed operand |
//! |---------------------|---------------|-------------------|------------------|
//! | [`RowStreamed`]     | `αAx + βy`    | tiles by rows     | `x` (⌈N/T_N⌉×)   |
//! | [`ColStreamed`]     | `αAx + βy`    | tiles by columns  | `y` (⌈M/T_M⌉×)   |
//! | [`TransRowStreamed`]| `αAᵀx + βy`   | tiles by rows     | `y` (⌈N/T_N⌉×)   |
//! | [`TransColStreamed`]| `αAᵀx + βy`   | tiles by columns  | `x` (⌈M/T_M⌉×)   |
//!
//! `x`-replay is performed by the *interface* module re-reading DRAM
//! (legal); `y`-replay writes partial results out and re-reads them —
//! the [`replay_vector_through_memory`](crate::helpers::writers)
//! helper. A compute module can never replay (Sec. V edge-validity), which
//! is what makes certain compositions (BICG) work only with matching
//! variants.
//!
//! [`RowStreamed`]: GemvVariant::RowStreamed
//! [`ColStreamed`]: GemvVariant::ColStreamed
//! [`TransRowStreamed`]: GemvVariant::TransRowStreamed
//! [`TransColStreamed`]: GemvVariant::TransColStreamed

use fblas_arch::{estimate_circuit, CircuitClass, ResourceEstimate};
use fblas_hlssim::{ModuleKind, PipelineCost, Sender, SimError, Simulation};

use super::replay::{Cycle, Input, MatrixIn, TiledReader, VectorIn};
use super::validate_width;
use crate::scalar::{tree_dot, Scalar};
use crate::tiling::{gemv_io_tiles_by_cols, gemv_io_tiles_by_rows, TileOrder, Tiling};

/// Streaming/compute variant of the GEMV module (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GemvVariant {
    /// `y = αAx + βy`, `A` in tiles by rows (paper Fig. 2 left).
    RowStreamed,
    /// `y = αAx + βy`, `A` in tiles by columns (paper Fig. 2 right).
    ColStreamed,
    /// `y = αAᵀx + βy`, `A` in tiles by rows.
    TransRowStreamed,
    /// `y = αAᵀx + βy`, `A` in tiles by columns.
    TransColStreamed,
}

impl GemvVariant {
    /// Does this variant apply the transpose of the streamed matrix?
    pub fn transposed(self) -> bool {
        matches!(
            self,
            GemvVariant::TransRowStreamed | GemvVariant::TransColStreamed
        )
    }
}

/// A configured GEMV module over an `n × m` matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gemv {
    /// Streaming variant.
    pub variant: GemvVariant,
    /// Rows of the stored matrix `A`.
    pub n: usize,
    /// Columns of the stored matrix `A`.
    pub m: usize,
    /// Tile height `T_N`.
    pub tn: usize,
    /// Tile width `T_M`.
    pub tm: usize,
    /// Vectorization width `W`.
    pub w: usize,
}

impl Gemv {
    /// Configure a GEMV module.
    ///
    /// # Panics
    /// Panics if `w` or a tile dimension is zero.
    pub fn new(variant: GemvVariant, n: usize, m: usize, tn: usize, tm: usize, w: usize) -> Self {
        validate_width(w);
        assert!(tn >= 1 && tm >= 1, "tile dimensions must be at least 1");
        Gemv {
            variant,
            n,
            m,
            tn,
            tm,
            w,
        }
    }

    /// The tiling the `A` reader must use to feed this module.
    pub fn a_tiling(&self) -> Tiling {
        let order = match self.variant {
            GemvVariant::RowStreamed | GemvVariant::TransRowStreamed => TileOrder::RowTilesRowMajor,
            GemvVariant::ColStreamed | GemvVariant::TransColStreamed => TileOrder::ColTilesRowMajor,
        };
        Tiling::new(self.tn, self.tm, order)
    }

    /// Number of tile rows `⌈N/T_N⌉`.
    pub fn tile_rows(&self) -> usize {
        self.n.div_ceil(self.tn)
    }

    /// Number of tile columns `⌈M/T_M⌉`.
    pub fn tile_cols(&self) -> usize {
        self.m.div_ceil(self.tm)
    }

    /// Length of the `x` operand (input vector).
    pub fn x_len(&self) -> usize {
        if self.variant.transposed() {
            self.n
        } else {
            self.m
        }
    }

    /// Length of the `y` operand (output vector).
    pub fn y_len(&self) -> usize {
        if self.variant.transposed() {
            self.m
        } else {
            self.n
        }
    }

    /// How many times the interface module must send `x` (replay count).
    pub fn x_repetitions(&self) -> usize {
        match self.variant {
            GemvVariant::RowStreamed => self.tile_rows(),
            GemvVariant::ColStreamed => 1,
            GemvVariant::TransRowStreamed => 1,
            GemvVariant::TransColStreamed => self.tile_cols(),
        }
    }

    /// How many rounds `y` makes through the module (1 = streamed once;
    /// >1 = partial results replayed through memory).
    pub fn y_rounds(&self) -> usize {
        match self.variant {
            GemvVariant::RowStreamed => 1,
            GemvVariant::ColStreamed => self.tile_cols(),
            GemvVariant::TransRowStreamed => self.tile_rows(),
            GemvVariant::TransColStreamed => 1,
        }
    }

    /// Total I/O operations of this configuration (paper Sec. III-B).
    pub fn io_ops(&self) -> u64 {
        match self.variant {
            GemvVariant::RowStreamed => gemv_io_tiles_by_rows(self.n, self.m, self.tn),
            GemvVariant::ColStreamed => gemv_io_tiles_by_cols(self.n, self.m, self.tm),
            // Transposed variants are the mirror images.
            GemvVariant::TransColStreamed => gemv_io_tiles_by_cols(self.m, self.n, self.tm),
            GemvVariant::TransRowStreamed => gemv_io_tiles_by_rows(self.m, self.n, self.tn),
        }
    }

    /// Attach the module.
    ///
    /// * `a` — matrix stream in the order of [`a_tiling`](Self::a_tiling);
    /// * `x` — input vector, sent [`x_repetitions`](Self::x_repetitions)
    ///   times;
    /// * `y_in` — incoming `y` (original values on the first round,
    ///   partials on later rounds);
    /// * `y_out` — outgoing `y` blocks ([`y_rounds`](Self::y_rounds)
    ///   rounds; the last round carries the final result).
    ///
    /// Each input is a channel or an operand buffer the module reads in
    /// place ([`Input`]); a buffered `y_in` holds the initial values of
    /// a single-round `y`.
    #[allow(clippy::too_many_arguments)]
    pub fn attach<T: Scalar>(
        &self,
        sim: &mut Simulation,
        alpha: T,
        beta: T,
        a: impl Into<Input<T>>,
        x: impl Into<Input<T>>,
        y_in: impl Into<Input<T>>,
        y_out: Sender<T>,
    ) {
        let cfg = *self;
        let name = if cfg.variant.transposed() {
            "gemv_t"
        } else {
            "gemv"
        };
        let (a, x, y_in) = (a.into(), x.into(), y_in.into());
        sim.add_module(name, ModuleKind::Compute, move || {
            let (a, x, y_in) = (a.open(), x.open(), y_in.open());
            let mut ports = Ports {
                a: a.matrix(name, cfg.n, cfg.m, cfg.a_tiling())?,
                x: x.vector(name, cfg.x_len())?,
                y: YPort::Stream {
                    y_in: y_in.vector(name, cfg.y_len())?,
                    y_out: &y_out,
                },
            };
            cfg.run(alpha, beta, &mut ports)
        });
    }

    /// Tile replay: the module's arithmetic on the calling thread, over
    /// operand slices instead of channels. `a` is the row-major `n × m`
    /// matrix, `x` holds [`x_len`](Self::x_len) elements, and `y` holds
    /// [`y_len`](Self::y_len) elements: the initial `y` on entry, the
    /// result on return. The kernel is the threaded module's, fed the
    /// same elements in the same order — the tile order of `A`, every
    /// `x` replay, and each `y` round, whose partials stay in `y`
    /// instead of making a trip through DRAM — so the result is
    /// bit-identical to [`attach`](Self::attach)'s.
    pub fn replay<T: Scalar>(
        &self,
        alpha: T,
        beta: T,
        a: &[T],
        x: &[T],
        y: &mut [T],
    ) -> Result<(), SimError> {
        let sizes = [
            ("A", a.len(), self.n * self.m),
            ("x", x.len(), self.x_len()),
            ("y", y.len(), self.y_len()),
        ];
        for (operand, got, want) in sizes {
            if got != want {
                return Err(SimError::module(
                    "tile-replay",
                    format!("gemv operand `{operand}` holds {got} elements, expected {want}"),
                ));
            }
        }
        let mut ports = Ports {
            a: MatrixIn::Buffer(TiledReader::new(a, self.n, self.m, self.a_tiling())),
            x: VectorIn::Buffer(Cycle::new(x)),
            y: YPort::InPlace { y, rd: 0, wr: 0 },
        };
        self.run(alpha, beta, &mut ports)
    }

    fn run<T: Scalar>(&self, alpha: T, beta: T, ports: &mut Ports<'_, T>) -> Result<(), SimError> {
        match self.variant {
            GemvVariant::RowStreamed => self.run_row_streamed(alpha, beta, ports),
            GemvVariant::ColStreamed => self.run_col_streamed(alpha, beta, ports),
            GemvVariant::TransRowStreamed => self.run_trans_row_streamed(alpha, beta, ports),
            GemvVariant::TransColStreamed => self.run_trans_col_streamed(alpha, beta, ports),
        }
    }

    /// Dot of one within-tile matrix row segment against an `x` block,
    /// W-chunked with the hardware's tree-reduction order: each chunk's
    /// products are tree-summed, and the chunk sums are added to the
    /// accumulator one after another.
    fn row_dot<T: Scalar>(&self, row: &[T], xblock: &[T]) -> T {
        let mut acc = T::ZERO;
        for (a, x) in row.chunks(self.w).zip(xblock.chunks(self.w)) {
            acc += tree_dot(a, x);
        }
        acc
    }

    fn run_row_streamed<T: Scalar>(
        &self,
        alpha: T,
        beta: T,
        ports: &mut Ports<'_, T>,
    ) -> Result<(), SimError> {
        let mut scratch = Vec::new();
        for bi in 0..self.tile_rows() {
            let rows = tile_extent(bi, self.tn, self.n);
            let y0 = ports.y_in(rows)?;
            let mut acc = vec![T::ZERO; rows];
            for bj in 0..self.tile_cols() {
                let cols = tile_extent(bj, self.tm, self.m);
                let xblock = ports.x.block(cols)?;
                for a in acc.iter_mut() {
                    let row = ports.a.run(cols, &mut scratch)?;
                    *a += self.row_dot(row, &xblock);
                }
            }
            // The whole y block is pushed before the next blocking read
            // (chunked relay; see fblas_hlssim::chunk docs).
            let y: Vec<T> = acc
                .iter()
                .zip(&y0)
                .map(|(acc, y0)| alpha.mul_add(*acc, beta * *y0))
                .collect();
            ports.y_out(&y)?;
        }
        Ok(())
    }

    fn run_col_streamed<T: Scalar>(
        &self,
        alpha: T,
        beta: T,
        ports: &mut Ports<'_, T>,
    ) -> Result<(), SimError> {
        let mut scratch = Vec::new();
        for bj in 0..self.tile_cols() {
            let cols = tile_extent(bj, self.tm, self.m);
            let xblock = ports.x.block(cols)?;
            for bi in 0..self.tile_rows() {
                let rows = tile_extent(bi, self.tn, self.n);
                let mut yp = ports.y_in(rows)?;
                if bj == 0 {
                    for v in yp.iter_mut() {
                        *v *= beta;
                    }
                }
                for ypi in yp.iter_mut() {
                    let row = ports.a.run(cols, &mut scratch)?;
                    let acc = self.row_dot(row, &xblock);
                    *ypi = alpha.mul_add(acc, *ypi);
                }
                ports.y_out(&yp)?;
            }
        }
        Ok(())
    }

    fn run_trans_row_streamed<T: Scalar>(
        &self,
        alpha: T,
        beta: T,
        ports: &mut Ports<'_, T>,
    ) -> Result<(), SimError> {
        let mut scratch = Vec::new();
        for bi in 0..self.tile_rows() {
            let rows = tile_extent(bi, self.tn, self.n);
            let xblock = ports.x.block(rows)?;
            for bj in 0..self.tile_cols() {
                let cols = tile_extent(bj, self.tm, self.m);
                let mut yp = ports.y_in(cols)?;
                if bi == 0 {
                    for v in yp.iter_mut() {
                        *v *= beta;
                    }
                }
                // Tile-local accumulation: tacc[j] = Σ_i a_ij·x_i.
                let mut tacc = vec![T::ZERO; cols];
                for xi in &xblock {
                    T::mul_add_assign(&mut tacc, ports.a.run(cols, &mut scratch)?, *xi);
                }
                for (y, t) in yp.iter_mut().zip(&tacc) {
                    *y = alpha.mul_add(*t, *y);
                }
                ports.y_out(&yp)?;
            }
        }
        Ok(())
    }

    fn run_trans_col_streamed<T: Scalar>(
        &self,
        alpha: T,
        beta: T,
        ports: &mut Ports<'_, T>,
    ) -> Result<(), SimError> {
        let mut scratch = Vec::new();
        for bj in 0..self.tile_cols() {
            let cols = tile_extent(bj, self.tm, self.m);
            let mut acc = vec![T::ZERO; cols];
            for bi in 0..self.tile_rows() {
                let rows = tile_extent(bi, self.tn, self.n);
                let xblock = ports.x.block(rows)?;
                for xi in &xblock {
                    T::mul_add_assign(&mut acc, ports.a.run(cols, &mut scratch)?, *xi);
                }
            }
            let y0 = ports.y_in(cols)?;
            let y: Vec<T> = acc
                .iter()
                .zip(&y0)
                .map(|(acc, y0)| alpha.mul_add(*acc, beta * *y0))
                .collect();
            ports.y_out(&y)?;
        }
        Ok(())
    }

    /// Circuit resource estimate: the `W`-wide reduction datapath plus
    /// the on-chip tile buffers for the vector operands.
    pub fn estimate<T: Scalar>(&self) -> ResourceEstimate {
        estimate_circuit(CircuitClass::MapReduce { w: self.w as u64 }, T::PRECISION)
            // x-block and y-block tile buffers.
            .with_buffer((self.tm + self.tn) as u64, T::PRECISION)
    }

    /// Pipeline cost: the matrix stream dominates — `M = ⌈N·M/W⌉`
    /// iterations at `I = 1`.
    pub fn cost<T: Scalar>(&self) -> PipelineCost {
        let elems = self.n as u64 * self.m as u64;
        PipelineCost::pipelined(self.estimate::<T>().latency, elems.div_ceil(self.w as u64))
    }
}

/// Extent of tile `b` of size `t` over an axis of length `total`
/// (handles the ragged last tile).
fn tile_extent(b: usize, t: usize, total: usize) -> usize {
    let start = b * t;
    t.min(total - start)
}

/// The streams a GEMV kernel consumes and produces. The threaded
/// module binds each input to a channel or, read in place, to its
/// operand buffer; tile replay binds all of them to operand slices.
/// Every binding hands the kernel the same elements in the same order.
struct Ports<'a, T: Send + 'static> {
    /// `A`, in the variant's tile order.
    a: MatrixIn<'a, T>,
    /// The (replayed) `x` stream.
    x: VectorIn<'a, T>,
    y: YPort<'a, T>,
}

/// Where `y` comes from and goes to.
enum YPort<'a, T> {
    /// The threaded module: the initial values (or the previous round's
    /// partials) come in on a stream, finished blocks leave on a
    /// channel.
    Stream {
        y_in: VectorIn<'a, T>,
        y_out: &'a Sender<T>,
    },
    /// Tile replay: `y` is updated in place, its read and write cursors
    /// wrapping once per round — the DRAM round trip of the threaded
    /// `y` replay without the trip.
    InPlace {
        y: &'a mut [T],
        rd: usize,
        wr: usize,
    },
}

impl<T: Scalar> Ports<'_, T> {
    /// Next `len` elements of incoming `y`: the initial values on the
    /// first round, the previous round's partials after that.
    fn y_in(&mut self, len: usize) -> Result<Vec<T>, SimError> {
        match &mut self.y {
            YPort::Stream { y_in, .. } => y_in.block(len),
            YPort::InPlace { y, rd, .. } => {
                let block = y[*rd..*rd + len].to_vec();
                *rd = (*rd + len) % y.len();
                Ok(block)
            }
        }
    }

    /// One finished `y` block.
    fn y_out(&mut self, block: &[T]) -> Result<(), SimError> {
        match &mut self.y {
            YPort::Stream { y_out, .. } => y_out.push_slice(block),
            YPort::InPlace { y, wr, .. } => {
                y[*wr..*wr + block.len()].copy_from_slice(block);
                *wr = (*wr + block.len()) % y.len();
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::helpers::writers::{replay_vector_through_memory, write_vector};
    use crate::helpers::{read_matrix, read_vector_replayed};
    use crate::host::buffer::DeviceBuffer;
    use crate::scalar::tree_sum;
    use fblas_hlssim::channel;

    #[allow(clippy::too_many_arguments)]
    fn dense_gemv(
        trans: bool,
        n: usize,
        m: usize,
        alpha: f64,
        a: &[f64],
        x: &[f64],
        beta: f64,
        y: &[f64],
    ) -> Vec<f64> {
        if !trans {
            (0..n)
                .map(|i| {
                    let acc: f64 = (0..m).map(|j| a[i * m + j] * x[j]).sum();
                    alpha * acc + beta * y[i]
                })
                .collect()
        } else {
            (0..m)
                .map(|j| {
                    let acc: f64 = (0..n).map(|i| a[i * m + j] * x[i]).sum();
                    alpha * acc + beta * y[j]
                })
                .collect()
        }
    }

    fn seq(n: usize, seed: f64) -> Vec<f64> {
        (0..n).map(|i| ((i as f64 + seed) * 0.437).sin()).collect()
    }

    /// Run a full reader→gemv→writer pipeline and return y.
    fn run_gemv<T: Scalar>(cfg: Gemv, alpha: T, beta: T, a: &[T], x: &[T], y: &[T]) -> Vec<T> {
        run_gemv_fed(cfg, alpha, beta, a, x, y, false)
    }

    /// [`run_gemv`], with `A` and `x` read in place from their buffers
    /// when `in_place` is set, as an admitted module reads them.
    fn run_gemv_fed<T: Scalar>(
        cfg: Gemv,
        alpha: T,
        beta: T,
        a: &[T],
        x: &[T],
        y: &[T],
        in_place: bool,
    ) -> Vec<T> {
        let mut sim = Simulation::new();
        let a_buf = DeviceBuffer::from_vec("a", a.to_vec(), 0);
        let x_buf = DeviceBuffer::from_vec("x", x.to_vec(), 0);
        let y_buf = DeviceBuffer::from_vec("y", y.to_vec(), 0);
        let out_buf = DeviceBuffer::from_vec("y_out", vec![T::ZERO; cfg.y_len()], 0);

        let (ta, ra) = channel(sim.ctx(), 64, "a");
        let (txv, rxv) = channel(sim.ctx(), 64, "x");
        let (ty_in, ry_in) = channel(sim.ctx(), 64, "y_in");
        let (ty_out, ry_out) = channel(sim.ctx(), 64, "y_out");

        if in_place {
            drop((ta, txv));
            let (a, x) = (Input::Buffer(a_buf.clone()), Input::Buffer(x_buf.clone()));
            cfg.attach(&mut sim, alpha, beta, a, x, ry_in, ty_out);
        } else {
            read_matrix(&mut sim, &a_buf, cfg.n, cfg.m, cfg.a_tiling(), ta, 1);
            read_vector_replayed(&mut sim, &x_buf, txv, cfg.x_repetitions());
            cfg.attach(&mut sim, alpha, beta, ra, rxv, ry_in, ty_out);
        }
        if cfg.y_rounds() == 1 {
            crate::helpers::read_vector(&mut sim, &y_buf, ty_in);
            write_vector(&mut sim, &out_buf, cfg.y_len(), ry_out);
        } else {
            replay_vector_through_memory(
                &mut sim,
                &y_buf,
                &out_buf,
                cfg.y_len(),
                cfg.y_rounds(),
                ty_in,
                ry_out,
            );
        }
        sim.run().unwrap();
        out_buf.to_host()
    }

    fn check_variant(variant: GemvVariant, n: usize, m: usize, tn: usize, tm: usize, w: usize) {
        let cfg = Gemv::new(variant, n, m, tn, tm, w);
        let a = seq(n * m, 1.0);
        let x = seq(cfg.x_len(), 2.0);
        let y = seq(cfg.y_len(), 3.0);
        let (alpha, beta) = (1.3, 0.7);
        let got = run_gemv(cfg, alpha, beta, &a, &x, &y);
        let exp = dense_gemv(variant.transposed(), n, m, alpha, &a, &x, beta, &y);
        for i in 0..got.len() {
            assert!(
                (got[i] - exp[i]).abs() < 1e-9,
                "{variant:?} n={n} m={m} tn={tn} tm={tm} w={w} idx {i}: {} vs {}",
                got[i],
                exp[i]
            );
        }
    }

    #[test]
    fn row_streamed_exact_tiles() {
        check_variant(GemvVariant::RowStreamed, 8, 12, 4, 6, 2);
    }

    #[test]
    fn row_streamed_ragged_tiles() {
        check_variant(GemvVariant::RowStreamed, 7, 11, 3, 4, 4);
    }

    #[test]
    fn col_streamed_exact_and_ragged() {
        check_variant(GemvVariant::ColStreamed, 8, 12, 4, 6, 3);
        check_variant(GemvVariant::ColStreamed, 9, 10, 4, 3, 2);
    }

    #[test]
    fn trans_row_streamed() {
        check_variant(GemvVariant::TransRowStreamed, 8, 12, 4, 6, 2);
        check_variant(GemvVariant::TransRowStreamed, 7, 5, 3, 2, 1);
    }

    #[test]
    fn trans_col_streamed() {
        check_variant(GemvVariant::TransColStreamed, 8, 12, 4, 6, 4);
        check_variant(GemvVariant::TransColStreamed, 5, 9, 2, 4, 2);
    }

    /// Tile replay (`A` from a buffer in place), the threaded module
    /// fed by channels and the module reading `A` and `x` in place must
    /// each match the element-wise oracle bit for bit.
    fn check_replay<T: Scalar>(
        variant: GemvVariant,
        n: usize,
        m: usize,
        tn: usize,
        tm: usize,
        w: usize,
    ) {
        let cfg = Gemv::new(variant, n, m, tn, tm, w);
        let (a, x, y) = operands::<T>(&cfg);
        let (alpha, beta) = (T::from_f64(1.3), T::from_f64(-0.7));
        let want = bits(&Elementwise::gemv(cfg, alpha, beta, &a, &x, &y));
        let what = format!(
            "{variant:?} {n}x{m} in {tn}x{tm} tiles, W={w} ({} y rounds)",
            cfg.y_rounds()
        );
        let mut replayed = y.clone();
        cfg.replay(alpha, beta, &a, &x, &mut replayed).unwrap();
        assert_eq!(bits(&replayed), want, "buffer: {what}");
        let channel = run_gemv_fed(cfg, alpha, beta, &a, &x, &y, false);
        assert_eq!(bits(&channel), want, "channel: {what}");
        let in_place = run_gemv_fed(cfg, alpha, beta, &a, &x, &y, true);
        assert_eq!(bits(&in_place), want, "in place: {what}");
    }

    #[test]
    fn replay_is_bit_identical_to_the_threaded_module() {
        // Exact and ragged tiles, one tile and many; for ColStreamed
        // and TransRowStreamed the multi-tile shapes run several y
        // rounds. 40 x 24 in 16 x 8 tiles has a short last tile row,
        // and 37 x 29 leaves both edges ragged, with row segments
        // shorter than W.
        let mut shapes = vec![
            (37, 53, 64, 64, 16),
            (32, 48, 16, 16, 16),
            (37, 53, 8, 20, 16),
            (5, 40, 2, 17, 16),
        ];
        for w in [4, 16, 3] {
            shapes.extend([(40, 24, 16, 8, w), (37, 29, 16, 8, w)]);
        }
        for variant in VARIANTS {
            for &(n, m, tn, tm, w) in &shapes {
                check_replay::<f32>(variant, n, m, tn, tm, w);
                check_replay::<f64>(variant, n, m, tn, tm, w);
            }
        }
        let multi = Gemv::new(GemvVariant::ColStreamed, 37, 53, 8, 20, 16);
        assert!(multi.y_rounds() > 1);
        let multi = Gemv::new(GemvVariant::TransRowStreamed, 37, 53, 8, 20, 16);
        assert!(multi.y_rounds() > 1);
    }

    /// The GEMV kernels as they stood when `A` was read one element at
    /// a time and every lane was its own scalar `mul_add`: the oracle
    /// that pins the bits of the row-segment kernels.
    struct Elementwise<'a, T> {
        cfg: Gemv,
        a: std::vec::IntoIter<T>,
        x: Cycle<'a, T>,
        y: Vec<T>,
        rd: usize,
        wr: usize,
    }

    impl<T: Scalar> Elementwise<'_, T> {
        fn gemv(cfg: Gemv, alpha: T, beta: T, a: &[T], x: &[T], y: &[T]) -> Vec<T> {
            let stream = cfg.a_tiling().stream_indices(cfg.n, cfg.m);
            let mut k = Elementwise {
                cfg,
                a: stream
                    .into_iter()
                    .map(|(r, c)| a[r * cfg.m + c])
                    .collect::<Vec<_>>()
                    .into_iter(),
                x: Cycle::new(x),
                y: y.to_vec(),
                rd: 0,
                wr: 0,
            };
            match cfg.variant {
                GemvVariant::RowStreamed => k.row_streamed(alpha, beta),
                GemvVariant::ColStreamed => k.col_streamed(alpha, beta),
                GemvVariant::TransRowStreamed => k.trans_row_streamed(alpha, beta),
                GemvVariant::TransColStreamed => k.trans_col_streamed(alpha, beta),
            }
            assert!(k.a.next().is_none(), "the oracle left `A` unread");
            k.y
        }

        fn a(&mut self) -> T {
            self.a.next().expect("`A` stream exhausted")
        }

        fn x(&mut self, len: usize) -> Vec<T> {
            self.x.block(len).unwrap()
        }

        fn y_in(&mut self, len: usize) -> Vec<T> {
            let block = self.y[self.rd..self.rd + len].to_vec();
            self.rd = (self.rd + len) % self.y.len();
            block
        }

        fn y_out(&mut self, block: &[T]) {
            self.y[self.wr..self.wr + block.len()].copy_from_slice(block);
            self.wr = (self.wr + block.len()) % self.y.len();
        }

        fn row_dot(&mut self, xblock: &[T]) -> T {
            let mut acc = T::ZERO;
            for xs in xblock.chunks(self.cfg.w) {
                let mut products = Vec::new();
                for x in xs {
                    products.push(self.a() * *x);
                }
                acc += tree_sum(&products);
            }
            acc
        }

        fn row_streamed(&mut self, alpha: T, beta: T) {
            let c = self.cfg;
            for bi in 0..c.tile_rows() {
                let rows = tile_extent(bi, c.tn, c.n);
                let y0 = self.y_in(rows);
                let mut acc = vec![T::ZERO; rows];
                for bj in 0..c.tile_cols() {
                    let xblock = self.x(tile_extent(bj, c.tm, c.m));
                    for a in acc.iter_mut() {
                        *a += self.row_dot(&xblock);
                    }
                }
                let y: Vec<T> = acc
                    .iter()
                    .zip(&y0)
                    .map(|(acc, y0)| alpha.mul_add(*acc, beta * *y0))
                    .collect();
                self.y_out(&y);
            }
        }

        fn col_streamed(&mut self, alpha: T, beta: T) {
            let c = self.cfg;
            for bj in 0..c.tile_cols() {
                let xblock = self.x(tile_extent(bj, c.tm, c.m));
                for bi in 0..c.tile_rows() {
                    let mut yp = self.y_in(tile_extent(bi, c.tn, c.n));
                    if bj == 0 {
                        for v in yp.iter_mut() {
                            *v *= beta;
                        }
                    }
                    for ypi in yp.iter_mut() {
                        let acc = self.row_dot(&xblock);
                        *ypi = alpha.mul_add(acc, *ypi);
                    }
                    self.y_out(&yp);
                }
            }
        }

        fn trans_row_streamed(&mut self, alpha: T, beta: T) {
            let c = self.cfg;
            for bi in 0..c.tile_rows() {
                let xblock = self.x(tile_extent(bi, c.tn, c.n));
                for bj in 0..c.tile_cols() {
                    let cols = tile_extent(bj, c.tm, c.m);
                    let mut yp = self.y_in(cols);
                    if bi == 0 {
                        for v in yp.iter_mut() {
                            *v *= beta;
                        }
                    }
                    let mut tacc = vec![T::ZERO; cols];
                    for xi in &xblock {
                        for t in tacc.iter_mut() {
                            *t = self.a().mul_add(*xi, *t);
                        }
                    }
                    for (y, t) in yp.iter_mut().zip(&tacc) {
                        *y = alpha.mul_add(*t, *y);
                    }
                    self.y_out(&yp);
                }
            }
        }

        fn trans_col_streamed(&mut self, alpha: T, beta: T) {
            let c = self.cfg;
            for bj in 0..c.tile_cols() {
                let cols = tile_extent(bj, c.tm, c.m);
                let mut acc = vec![T::ZERO; cols];
                for bi in 0..c.tile_rows() {
                    let xblock = self.x(tile_extent(bi, c.tn, c.n));
                    for xi in &xblock {
                        for a_j in acc.iter_mut() {
                            *a_j = self.a().mul_add(*xi, *a_j);
                        }
                    }
                }
                let y0 = self.y_in(cols);
                let y: Vec<T> = acc
                    .iter()
                    .zip(&y0)
                    .map(|(acc, y0)| alpha.mul_add(*acc, beta * *y0))
                    .collect();
                self.y_out(&y);
            }
        }
    }

    const VARIANTS: [GemvVariant; 4] = [
        GemvVariant::RowStreamed,
        GemvVariant::ColStreamed,
        GemvVariant::TransRowStreamed,
        GemvVariant::TransColStreamed,
    ];

    fn bits<T: Scalar>(v: &[T]) -> Vec<u64> {
        v.iter().map(|e| e.to_f64().to_bits()).collect()
    }

    /// Operands whose magnitudes span several decades, so that the
    /// reduction order and every rounding show in the bits.
    fn operands<T: Scalar>(cfg: &Gemv) -> (Vec<T>, Vec<T>, Vec<T>) {
        let cast = |v: Vec<f64>| {
            v.into_iter()
                .enumerate()
                .map(|(i, e)| T::from_f64(e * 10f64.powi(i as i32 % 7 - 3)))
                .collect::<Vec<T>>()
        };
        let a = cast(seq(cfg.n * cfg.m, 1.0));
        (a, cast(seq(cfg.x_len(), 2.0)), cast(seq(cfg.y_len(), 3.0)))
    }

    /// Row segments that straddle the runs of the buffer they are read
    /// from: one tile column streams `A` row-major, which a buffer
    /// cursor walking 1 x 5 tiles visits in the same order but in runs
    /// of five, so every row of the kernel is gathered.
    fn check_straddling<T: Scalar>(n: usize, m: usize, w: usize) {
        for variant in VARIANTS {
            let cfg = Gemv::new(variant, n, m, 16, m, w);
            let (a, x, y) = operands::<T>(&cfg);
            let (alpha, beta) = (T::from_f64(0.9), T::from_f64(1.1));
            let want = bits(&Elementwise::gemv(cfg, alpha, beta, &a, &x, &y));
            let fine = Tiling::new(1, 5, TileOrder::RowTilesRowMajor);
            assert_eq!(
                fine.stream_indices(n, m),
                cfg.a_tiling().stream_indices(n, m)
            );
            let mut got = y.clone();
            let mut ports = Ports {
                a: MatrixIn::Buffer(TiledReader::new(&a, n, m, fine)),
                x: VectorIn::Buffer(Cycle::new(&x)),
                y: YPort::InPlace {
                    y: &mut got,
                    rd: 0,
                    wr: 0,
                },
            };
            cfg.run(alpha, beta, &mut ports).unwrap();
            assert_eq!(bits(&got), want, "{variant:?} {n}x{m}, W={w}");
        }
    }

    #[test]
    fn straddling_row_segments_match_the_elementwise_oracle() {
        for (n, m, w) in [(40, 24, 4), (37, 29, 16)] {
            check_straddling::<f32>(n, m, w);
            check_straddling::<f64>(n, m, w);
        }
    }

    #[test]
    fn replay_rejects_missized_operands() {
        let cfg = Gemv::new(GemvVariant::RowStreamed, 4, 6, 2, 3, 16);
        let mut y = vec![0.0f64; 4];
        let err = cfg
            .replay(1.0, 0.0, &[0.0; 23], &[0.0; 6], &mut y)
            .unwrap_err();
        assert!(err.to_string().contains("`A`"), "{err}");
    }

    #[test]
    fn single_tile_covers_whole_matrix() {
        check_variant(GemvVariant::RowStreamed, 6, 8, 6, 8, 2);
        check_variant(GemvVariant::ColStreamed, 6, 8, 6, 8, 2);
    }

    #[test]
    fn replay_counts_match_paper() {
        let g = Gemv::new(GemvVariant::RowStreamed, 1024, 2048, 256, 512, 16);
        assert_eq!(g.x_repetitions(), 4); // ⌈1024/256⌉
        assert_eq!(g.y_rounds(), 1);
        let g = Gemv::new(GemvVariant::ColStreamed, 1024, 2048, 256, 512, 16);
        assert_eq!(g.x_repetitions(), 1);
        assert_eq!(g.y_rounds(), 4); // ⌈2048/512⌉
    }

    #[test]
    fn io_complexities_match_section3b() {
        let (n, m, t) = (1024usize, 1024usize, 128usize);
        let row = Gemv::new(GemvVariant::RowStreamed, n, m, t, t, 16).io_ops();
        let col = Gemv::new(GemvVariant::ColStreamed, n, m, t, t, 16).io_ops();
        assert_eq!(row, (n * m + m * (n / t) + 2 * n) as u64);
        assert_eq!(col, (n * m + m + 2 * n * (m / t)) as u64);
    }

    #[test]
    fn estimate_includes_tile_buffers() {
        let g = Gemv::new(GemvVariant::RowStreamed, 4096, 4096, 1024, 1024, 16);
        let e = g.estimate::<f32>();
        assert!(
            e.resources.m20ks >= 4,
            "tile buffers in M20K: {}",
            e.resources.m20ks
        );
        assert_eq!(e.resources.dsps, 16);
    }

    #[test]
    fn cost_counts_matrix_stream() {
        let g = Gemv::new(GemvVariant::RowStreamed, 1024, 1024, 256, 256, 16);
        assert_eq!(g.cost::<f32>().iterations, 1024 * 1024 / 16);
    }

    #[test]
    fn a_tiling_orders() {
        assert!(Gemv::new(GemvVariant::RowStreamed, 4, 4, 2, 2, 1)
            .a_tiling()
            .order
            .tiles_by_rows());
        assert!(!Gemv::new(GemvVariant::ColStreamed, 4, 4, 2, 2, 1)
            .a_tiling()
            .order
            .tiles_by_rows());
    }
}
