//! Level-1 map-reduce modules: DOT, SDSDOT, NRM2, ASUM, IAMAX.
//!
//! These routines reduce their input (paper Sec. IV-A classifies them as
//! *map-reduce*): the `W`-wide unrolled inner loop forms a binary
//! reduction tree, so circuit work is `2W` and circuit depth grows
//! logarithmically in `W` — the DOT column of Table I. The simulated
//! numerics use the same tree order ([`tree_sum`]) the circuit would.

use fblas_arch::{estimate_circuit, CircuitClass, ResourceEstimate};
use fblas_hlssim::{ChunkReader, ModuleKind, PipelineCost, Receiver, Sender, Simulation};

use super::{outer_iterations, validate_width};
use crate::scalar::{tree_dot, tree_sum, InterleavedAccumulator, Scalar};

/// DOT: `res = xᵀy` through a `W`-wide multiply + adder tree
/// (paper Fig. 5).
///
/// ```
/// use fblas_core::routines::Dot;
/// use fblas_hlssim::{channel, ModuleKind, Simulation};
///
/// let mut sim = Simulation::new();
/// let (tx, rx) = channel(sim.ctx(), 16, "x");
/// let (ty, ry) = channel(sim.ctx(), 16, "y");
/// let (tr, rr) = channel(sim.ctx(), 1, "res");
/// sim.add_module("src_x", ModuleKind::Interface, move || tx.push_slice(&[1.0f32, 2.0, 3.0]));
/// sim.add_module("src_y", ModuleKind::Interface, move || ty.push_slice(&[4.0f32, 5.0, 6.0]));
///
/// let dot = Dot::new(3, 2);
/// dot.attach(&mut sim, rx, ry, tr);
/// sim.add_module("sink", ModuleKind::Interface, move || {
///     assert_eq!(rr.pop()?, 32.0);
///     Ok(())
/// });
/// sim.run().unwrap();
///
/// // The same configuration carries its space/time model:
/// assert_eq!(dot.estimate::<f32>().resources.dsps, 2);
/// assert_eq!(dot.cost::<f32>().iterations, 2); // ceil(3/2)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dot {
    /// Vector length.
    pub n: usize,
    /// Vectorization width `W`.
    pub w: usize,
}

impl Dot {
    /// Configure a DOT module.
    pub fn new(n: usize, w: usize) -> Self {
        validate_width(w);
        Dot { n, w }
    }

    /// Attach the module: pops `n` from each input, pushes one scalar.
    pub fn attach<T: Scalar>(
        &self,
        sim: &mut Simulation,
        ch_x: Receiver<T>,
        ch_y: Receiver<T>,
        ch_res: Sender<T>,
    ) {
        let Dot { n, w } = *self;
        sim.add_module("dot", ModuleKind::Compute, move || {
            let mut res = DotAccumulator::<T>::new(w);
            let mut xs = ChunkReader::new(&ch_x);
            let mut ys = ChunkReader::new(&ch_y);
            for _ in 0..n {
                let x = xs.next()?;
                let y = ys.next()?;
                res.push(x, y);
            }
            ch_res.push(res.finish())?;
            Ok(())
        });
    }

    /// Circuit resource estimate (Table I DOT coefficients).
    pub fn estimate<T: Scalar>(&self) -> ResourceEstimate {
        estimate_circuit(CircuitClass::MapReduce { w: self.w as u64 }, T::PRECISION)
    }

    /// Pipeline cost: `C = log2(W)·L_A + L_M + N/W` (Sec. IV-A).
    pub fn cost<T: Scalar>(&self) -> PipelineCost {
        PipelineCost::pipelined(
            self.estimate::<T>().latency,
            outer_iterations(self.n, self.w),
        )
    }
}

/// DOT's numerics, lane by lane: products gather into `W`-lane blocks;
/// each full block (and the final partial one) is one outer iteration
/// of Fig. 5 — the unrolled adder tree ([`tree_sum`]) followed by the
/// running accumulation `res += acc` into an
/// [`InterleavedAccumulator`]. The threaded [`Dot`] module and the
/// fused backend's region loop both reduce through this type, so a
/// fused DOT is bit-identical to the threaded one because both run one
/// definition of the block order and its arithmetic.
///
/// ```
/// use fblas_core::routines::DotAccumulator;
///
/// let mut acc = DotAccumulator::<f32>::new(2);
/// for (x, y) in [(1.0, 4.0), (2.0, 5.0), (3.0, 6.0)] {
///     acc.push(x, y);
/// }
/// assert_eq!(acc.finish(), 32.0);
/// ```
#[derive(Debug, Clone)]
pub struct DotAccumulator<T: Scalar> {
    w: usize,
    products: Vec<T>,
    res: InterleavedAccumulator<T>,
}

impl<T: Scalar> DotAccumulator<T> {
    /// Empty accumulator for a `W`-wide adder tree. Native f32
    /// accumulation is a single partial; f64 uses the two-stage
    /// interleaved accumulator of Sec. III-A1.
    pub fn new(w: usize) -> Self {
        validate_width(w);
        DotAccumulator {
            w,
            products: Vec::with_capacity(w),
            res: InterleavedAccumulator::for_precision(),
        }
    }

    /// Feed one lane pair; a block completes every `W` lanes.
    pub fn push(&mut self, x: T, y: T) {
        self.products.push(x * y);
        if self.products.len() == self.w {
            self.block();
        }
    }

    /// Feed a run of lane pairs, in order. Each whole block the run
    /// holds from a block boundary goes through the adder tree in one
    /// step ([`tree_dot`]); the blocks and their sums are exactly those
    /// of pushing the pairs one by one.
    pub fn push_lanes(&mut self, xs: &[T], ys: &[T]) {
        let n = xs.len().min(ys.len());
        let mut i = 0;
        while i < n && !self.products.is_empty() {
            self.push(xs[i], ys[i]);
            i += 1;
        }
        while n - i >= self.w {
            self.res
                .add(tree_dot(&xs[i..i + self.w], &ys[i..i + self.w]));
            i += self.w;
        }
        for (x, y) in xs[i..n].iter().zip(&ys[i..n]) {
            self.push(*x, *y);
        }
    }

    /// One outer iteration: the adder tree over the block's products,
    /// then the running accumulation.
    fn block(&mut self) {
        self.res.add(tree_sum(&self.products));
        self.products.clear();
    }

    /// `xᵀy` over every lane pushed: the partial last block, then the
    /// accumulator's final reduction.
    pub fn finish(mut self) -> T {
        if !self.products.is_empty() {
            self.block();
        }
        self.res.finish()
    }
}

/// SDSDOT: `res = sb + xᵀy` with higher-precision accumulation (the
/// BLAS routine accumulates an f32 dot product in f64).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sdsdot {
    /// Vector length.
    pub n: usize,
    /// Vectorization width `W`.
    pub w: usize,
}

impl Sdsdot {
    /// Configure an SDSDOT module.
    pub fn new(n: usize, w: usize) -> Self {
        validate_width(w);
        Sdsdot { n, w }
    }

    /// Attach the module: pops `n` from each input, pushes `sb + xᵀy`
    /// accumulated in `f64` regardless of `T`.
    pub fn attach<T: Scalar>(
        &self,
        sim: &mut Simulation,
        sb: T,
        ch_x: Receiver<T>,
        ch_y: Receiver<T>,
        ch_res: Sender<T>,
    ) {
        let Sdsdot { n, w } = *self;
        sim.add_module("sdsdot", ModuleKind::Compute, move || {
            let mut res = sb.to_f64();
            let mut xs = ChunkReader::new(&ch_x);
            let mut ys = ChunkReader::new(&ch_y);
            let mut products = Vec::with_capacity(w);
            let mut remaining = n;
            while remaining > 0 {
                let take = remaining.min(w);
                products.clear();
                for _ in 0..take {
                    let x = xs.next()?;
                    let y = ys.next()?;
                    products.push(x.to_f64() * y.to_f64());
                }
                res += tree_sum(&products);
                remaining -= take;
            }
            ch_res.push(T::from_f64(res))?;
            Ok(())
        });
    }

    /// Circuit resource estimate: a double-precision reduction tree
    /// regardless of the stream precision.
    pub fn estimate<T: Scalar>(&self) -> ResourceEstimate {
        estimate_circuit(
            CircuitClass::MapReduce { w: self.w as u64 },
            fblas_arch::Precision::Double,
        )
    }

    /// Pipeline cost: `C = L + ⌈N/W⌉`.
    pub fn cost<T: Scalar>(&self) -> PipelineCost {
        PipelineCost::pipelined(
            self.estimate::<T>().latency,
            outer_iterations(self.n, self.w),
        )
    }
}

/// NRM2: Euclidean norm through a square + adder tree and a final square
/// root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Nrm2 {
    /// Vector length.
    pub n: usize,
    /// Vectorization width `W`.
    pub w: usize,
}

impl Nrm2 {
    /// Configure an NRM2 module.
    pub fn new(n: usize, w: usize) -> Self {
        validate_width(w);
        Nrm2 { n, w }
    }

    /// Attach the module: pops `n`, pushes `sqrt(Σ xᵢ²)`.
    ///
    /// Note: the streaming circuit accumulates raw squares (no
    /// netlib-style rescaling — rescaling needs the running maximum,
    /// which breaks the II = 1 pipeline), so extreme values can
    /// overflow earlier than the CPU reference.
    pub fn attach<T: Scalar>(&self, sim: &mut Simulation, ch_x: Receiver<T>, ch_res: Sender<T>) {
        let Nrm2 { n, w } = *self;
        sim.add_module("nrm2", ModuleKind::Compute, move || {
            let mut ssq = InterleavedAccumulator::<T>::for_precision();
            let mut xs = ChunkReader::new(&ch_x);
            let mut squares = Vec::with_capacity(w);
            let mut remaining = n;
            while remaining > 0 {
                let take = remaining.min(w);
                squares.clear();
                for _ in 0..take {
                    let x = xs.next()?;
                    squares.push(x * x);
                }
                ssq.add(tree_sum(&squares));
                remaining -= take;
            }
            ch_res.push(ssq.finish().sqrt())?;
            Ok(())
        });
    }

    /// Circuit resource estimate: reduction tree plus one sqrt core.
    pub fn estimate<T: Scalar>(&self) -> ResourceEstimate {
        let tree = estimate_circuit(CircuitClass::MapReduce { w: self.w as u64 }, T::PRECISION);
        let sq = fblas_arch::OpCosts::sqrt(T::PRECISION);
        ResourceEstimate {
            luts: tree.luts + sq.luts,
            resources: tree.resources
                + fblas_arch::Resources::from_luts(sq.luts, sq.ffs, 0, sq.dsps),
            latency: tree.latency + sq.latency,
        }
    }

    /// Pipeline cost: `C = L + ⌈N/W⌉`.
    pub fn cost<T: Scalar>(&self) -> PipelineCost {
        PipelineCost::pipelined(
            self.estimate::<T>().latency,
            outer_iterations(self.n, self.w),
        )
    }
}

/// ASUM: `Σ|xᵢ|` through an abs + adder tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Asum {
    /// Vector length.
    pub n: usize,
    /// Vectorization width `W`.
    pub w: usize,
}

impl Asum {
    /// Configure an ASUM module.
    pub fn new(n: usize, w: usize) -> Self {
        validate_width(w);
        Asum { n, w }
    }

    /// Attach the module: pops `n`, pushes `Σ|xᵢ|`.
    pub fn attach<T: Scalar>(&self, sim: &mut Simulation, ch_x: Receiver<T>, ch_res: Sender<T>) {
        let Asum { n, w } = *self;
        sim.add_module("asum", ModuleKind::Compute, move || {
            let mut res = InterleavedAccumulator::<T>::for_precision();
            let mut xs = ChunkReader::new(&ch_x);
            let mut absvals = Vec::with_capacity(w);
            let mut remaining = n;
            while remaining > 0 {
                let take = remaining.min(w);
                absvals.clear();
                for _ in 0..take {
                    absvals.push(xs.next()?.abs());
                }
                res.add(tree_sum(&absvals));
                remaining -= take;
            }
            ch_res.push(res.finish())?;
            Ok(())
        });
    }

    /// Circuit resource estimate: an adder tree (abs is free sign-bit
    /// logic on the FPGA).
    pub fn estimate<T: Scalar>(&self) -> ResourceEstimate {
        estimate_circuit(CircuitClass::MapReduce { w: self.w as u64 }, T::PRECISION)
    }

    /// Pipeline cost: `C = L + ⌈N/W⌉`.
    pub fn cost<T: Scalar>(&self) -> PipelineCost {
        PipelineCost::pipelined(
            self.estimate::<T>().latency,
            outer_iterations(self.n, self.w),
        )
    }
}

/// IAMAX: index of the first element with maximum absolute value,
/// pushed on a dedicated index channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Iamax {
    /// Vector length.
    pub n: usize,
    /// Vectorization width `W`.
    pub w: usize,
}

impl Iamax {
    /// Configure an IAMAX module.
    pub fn new(n: usize, w: usize) -> Self {
        validate_width(w);
        Iamax { n, w }
    }

    /// Attach the module: pops `n` elements, pushes the 0-based index of
    /// the first maximum-magnitude element (pushes `0` for `n == 0`,
    /// matching the classic BLAS convention of returning an invalid
    /// first index for empty input).
    pub fn attach<T: Scalar>(
        &self,
        sim: &mut Simulation,
        ch_x: Receiver<T>,
        ch_res: Sender<usize>,
    ) {
        let Iamax { n, w } = *self;
        sim.add_module("iamax", ModuleKind::Compute, move || {
            let mut best_idx = 0usize;
            let mut best_abs = T::ZERO;
            let mut first = true;
            let mut idx = 0usize;
            let mut xs = ChunkReader::new(&ch_x);
            let mut remaining = n;
            while remaining > 0 {
                let take = remaining.min(w);
                // The unrolled lane comparison tree reduces each W-block
                // to its (first) maximum, then the running best is
                // updated — strict `>` keeps the earliest index, matching
                // the netlib semantics.
                for _ in 0..take {
                    let a = xs.next()?.abs();
                    if first || a > best_abs {
                        best_abs = a;
                        best_idx = idx;
                        first = false;
                    }
                    idx += 1;
                }
                remaining -= take;
            }
            ch_res.push(best_idx)?;
            Ok(())
        });
    }

    /// Circuit resource estimate: comparison tree — reuse the reduce
    /// shape with no DSPs (comparators are soft logic).
    pub fn estimate<T: Scalar>(&self) -> ResourceEstimate {
        let mut e = estimate_circuit(CircuitClass::MapReduce { w: self.w as u64 }, T::PRECISION);
        e.resources.dsps = 0;
        e
    }

    /// Pipeline cost: `C = L + ⌈N/W⌉`.
    pub fn cost<T: Scalar>(&self) -> PipelineCost {
        PipelineCost::pipelined(
            self.estimate::<T>().latency,
            outer_iterations(self.n, self.w),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fblas_hlssim::channel;

    fn feed<T: Scalar>(sim: &mut Simulation, name: &str, data: Vec<T>) -> Receiver<T> {
        let (tx, rx) = channel(sim.ctx(), 32, name);
        sim.add_module(format!("src_{name}"), ModuleKind::Interface, move || {
            tx.push_slice(&data)
        });
        rx
    }

    /// Runs of any length and offset cut the same blocks as pushing
    /// the pairs one by one, so the sums agree bit for bit.
    #[test]
    fn push_lanes_matches_pushing_pairs_one_by_one() {
        fn check<T: Scalar>(w: usize) {
            let xs: Vec<T> = (0..1000)
                .map(|i| T::from_f64((i as f64 * 0.37).sin()))
                .collect();
            let ys: Vec<T> = (0..1000)
                .map(|i| T::from_f64((i as f64 * 0.91).cos() * 1e3))
                .collect();
            let mut one = DotAccumulator::<T>::new(w);
            for (x, y) in xs.iter().zip(&ys) {
                one.push(*x, *y);
            }
            let want = one.finish().to_f64().to_bits();
            for run in [1, 7, 16, 33, 64 * 16, 1000] {
                let mut acc = DotAccumulator::<T>::new(w);
                for (bx, by) in xs.chunks(run).zip(ys.chunks(run)) {
                    acc.push_lanes(bx, by);
                }
                let got = acc.finish().to_f64().to_bits();
                assert_eq!(got, want, "W = {w}, runs of {run}");
            }
        }
        for w in [3, 8, 16] {
            check::<f32>(w);
            check::<f64>(w);
        }
    }

    fn result<T: Scalar>(sim: Simulation, rx: Receiver<T>) -> T {
        let out = std::sync::Arc::new(parking_lot::Mutex::new(T::ZERO));
        let out2 = out.clone();
        let mut sim = sim;
        sim.add_module("res", ModuleKind::Interface, move || {
            *out2.lock() = rx.pop()?;
            Ok(())
        });
        sim.run().unwrap();
        let v = *out.lock();
        v
    }

    #[test]
    fn dot_various_widths() {
        for w in [1usize, 2, 4, 8, 16] {
            let mut sim = Simulation::new();
            let x: Vec<f64> = (1..=10).map(f64::from).collect();
            let y: Vec<f64> = (1..=10).map(|i| f64::from(i) * 0.5).collect();
            let rxx = feed(&mut sim, "x", x);
            let rxy = feed(&mut sim, "y", y);
            let (tr, rr) = channel(sim.ctx(), 1, "res");
            Dot::new(10, w).attach(&mut sim, rxx, rxy, tr);
            let r = result(sim, rr);
            assert!((r - 192.5).abs() < 1e-12, "w={w}: {r}");
        }
    }

    #[test]
    fn dot_zero_length_pushes_zero() {
        let mut sim = Simulation::new();
        let rxx = feed::<f32>(&mut sim, "x", vec![]);
        let rxy = feed::<f32>(&mut sim, "y", vec![]);
        let (tr, rr) = channel(sim.ctx(), 1, "res");
        Dot::new(0, 4).attach(&mut sim, rxx, rxy, tr);
        assert_eq!(result(sim, rr), 0.0);
    }

    #[test]
    fn dot_uses_tree_accumulation_per_block() {
        // Within one W-block, catastrophic cancellation resolved by the
        // pairwise tree: (1e8 + -1e8) + (1 + 1) = 2 in f32.
        let mut sim = Simulation::new();
        let rxx = feed(&mut sim, "x", vec![1.0e8f32, -1.0e8, 1.0, 1.0]);
        let rxy = feed(&mut sim, "y", vec![1.0f32, 1.0, 1.0, 1.0]);
        let (tr, rr) = channel(sim.ctx(), 1, "res");
        Dot::new(4, 4).attach(&mut sim, rxx, rxy, tr);
        assert_eq!(result(sim, rr), 2.0);
    }

    #[test]
    fn sdsdot_accumulates_in_double() {
        let mut sim = Simulation::new();
        let rxx = feed(&mut sim, "x", vec![1.0e7f32, 1.0, -1.0e7]);
        let rxy = feed(&mut sim, "y", vec![1.0f32, 1.0, 1.0]);
        let (tr, rr) = channel(sim.ctx(), 1, "res");
        Sdsdot::new(3, 1).attach(&mut sim, 0.5, rxx, rxy, tr);
        assert_eq!(result(sim, rr), 1.5);
    }

    #[test]
    fn nrm2_computes_norm() {
        let mut sim = Simulation::new();
        let rxx = feed(&mut sim, "x", vec![3.0f64, 4.0]);
        let (tr, rr) = channel(sim.ctx(), 1, "res");
        Nrm2::new(2, 2).attach(&mut sim, rxx, tr);
        assert!((result(sim, rr) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn asum_sums_magnitudes() {
        let mut sim = Simulation::new();
        let rxx = feed(&mut sim, "x", vec![-1.0f32, 2.0, -3.0, 4.0, -5.0]);
        let (tr, rr) = channel(sim.ctx(), 1, "res");
        Asum::new(5, 2).attach(&mut sim, rxx, tr);
        assert_eq!(result(sim, rr), 15.0);
    }

    #[test]
    fn iamax_finds_first_max() {
        let mut sim = Simulation::new();
        let rxx = feed(&mut sim, "x", vec![1.0f64, -7.0, 7.0, 3.0]);
        let (tr, rr) = channel::<usize>(sim.ctx(), 1, "res");
        Iamax::new(4, 2).attach(&mut sim, rxx, tr);
        let out = std::sync::Arc::new(parking_lot::Mutex::new(usize::MAX));
        let out2 = out.clone();
        sim.add_module("res", ModuleKind::Interface, move || {
            *out2.lock() = rr.pop()?;
            Ok(())
        });
        sim.run().unwrap();
        assert_eq!(*out.lock(), 1, "first of the tied |−7| and |7|");
    }

    #[test]
    fn dot_resources_match_table1_shape() {
        let e2 = Dot::new(100, 2).estimate::<f32>();
        let e64 = Dot::new(100, 64).estimate::<f32>();
        assert_eq!(e2.resources.dsps, 2);
        assert_eq!(e64.resources.dsps, 64);
        assert!(e64.latency > e2.latency, "depth grows with W");
        assert!(e64.latency - e2.latency <= 30, "but only logarithmically");
    }

    #[test]
    fn iamax_uses_no_dsps() {
        assert_eq!(Iamax::new(64, 8).estimate::<f32>().resources.dsps, 0);
    }

    #[test]
    fn nrm2_adds_sqrt_latency() {
        let d = Dot::new(64, 8).estimate::<f32>();
        let n = Nrm2::new(64, 8).estimate::<f32>();
        assert!(n.latency > d.latency);
        assert!(n.resources.dsps > d.resources.dsps);
    }

    #[test]
    fn cost_iterations_scale_inversely_with_width() {
        let c16 = Dot::new(1 << 20, 16).cost::<f32>();
        let c256 = Dot::new(1 << 20, 256).cost::<f32>();
        assert_eq!(c16.iterations, 1 << 16);
        assert_eq!(c256.iterations, 1 << 12);
        assert!(c256.cycles() < c16.cycles());
    }
}
