//! ATAX: `y = Aᵀ·(A·x)` (paper Sec. V-B, Fig. 8).
//!
//! The fully streamed MDAG is **not a multitree**: two paths lead from
//! the `A` reader to the second GEMV (directly, and through the first
//! GEMV). The first GEMV only produces a block of results after
//! consuming an entire row of tiles, so the second GEMV's `A` channel
//! must buffer that whole burst (`T_N·M` elements) or the composition
//! stalls forever. Both outcomes are reproduced here:
//!
//! * [`atax_streaming`] sizes the channel per the paper's fix (a) and
//!   completes;
//! * [`atax_invalid_streaming`] uses an ordinary small FIFO and returns
//!   the stall the paper predicts — detected deterministically by the
//!   simulation watchdog instead of hanging.

use fblas_arch::RoutineClass;
use fblas_hlssim::{channel, streamed_cycles, SimError, Simulation};

use super::AppReport;
use crate::composition::executor::BURST_SLACK;
use crate::composition::Mdag;
use crate::helpers::writers::replay_vector_through_memory;
use crate::helpers::{duplicate, read_matrix, read_vector_replayed};
use crate::host::blas::{self, GemvTuning};
use crate::host::{DeviceBuffer, Fpga};
use crate::perf::{estimate_time, StreamDemand};
use crate::routines::gemv::{Gemv, GemvVariant};
use crate::routines::Trans;
use crate::scalar::Scalar;

/// The streaming MDAG of Fig. 8, with the burst annotation that makes
/// the channel-depth requirement checkable.
pub fn atax_mdag(n: u64, m: u64, tn: u64, a_channel_depth: u64) -> Mdag {
    let mut g = Mdag::new();
    let a = g.add_interface("read_A");
    let x = g.add_interface("read_x");
    let dup = g.add_compute("duplicate");
    let g1 = g.add_compute("gemv");
    let g2 = g.add_compute("gemv_t");
    let y = g.add_interface("write_y");
    g.add_edge(a, dup, n * m, n * m, 256);
    g.add_edge(dup, g1, n * m, n * m, 256);
    let e = g.add_edge(dup, g2, n * m, n * m, a_channel_depth);
    g.add_edge(x, g1, m, m, 64);
    g.add_edge(g1, g2, n, n, 64);
    g.add_edge(g2, y, m, m, 64);
    // The second GEMV consumes no A before the first GEMV's first
    // result block, which requires a full row of tiles: T_N·M elements.
    g.set_burst_before_consume(e, tn * m);
    g
}

#[allow(clippy::too_many_arguments)]
fn build_atax<T: Scalar>(
    fpga: &Fpga,
    n: usize,
    m: usize,
    a: &DeviceBuffer<T>,
    x: &DeviceBuffer<T>,
    y_out: &DeviceBuffer<T>,
    tuning: &GemvTuning,
    a2_depth: usize,
) -> (Simulation, Gemv, Gemv, usize) {
    let tu = tuning.clamped(n, m);
    let g1 = Gemv::new(GemvVariant::RowStreamed, n, m, tu.tn, tu.tm, tu.w);
    let g2 = Gemv::new(GemvVariant::TransRowStreamed, n, m, tu.tn, tu.tm, tu.w);
    assert_eq!(a.len(), n * m, "atax: A must be n*m");
    assert_eq!(x.len(), m, "atax: x length");
    assert_eq!(y_out.len(), m, "atax: y length");

    let mut sim = Simulation::new();
    let (ta, ra) = channel(sim.ctx(), 256, "a");
    let (ta1, ra1) = channel(sim.ctx(), 256, "a1");
    let (ta2, ra2) = channel(sim.ctx(), a2_depth, "a2");
    read_matrix(&mut sim, a, n, m, g1.a_tiling(), ta, 1);
    duplicate(&mut sim, "dup_A", n * m, ra, ta1, ta2);

    // t = A·x.
    let (txv, rxv) = channel(sim.ctx(), 64, "x");
    read_vector_replayed(&mut sim, x, txv, g1.x_repetitions());
    let (tt_in, rt_in) = channel(sim.ctx(), 64, "t_in");
    let zeros_t = fpga.alloc::<T>("t_zero", n);
    crate::helpers::read_vector(&mut sim, &zeros_t, tt_in);
    let (tt, rt) = channel(sim.ctx(), 64, "t");
    g1.attach(&mut sim, T::ONE, T::ZERO, ra1, rxv, rt_in, tt);

    // y = Aᵀ·t: t consumed once in row blocks, y partials replayed.
    let (ty_in, ry_in) = channel(sim.ctx(), 64, "y_in");
    let (ty_out, ry_out) = channel(sim.ctx(), 64, "y_out");
    g2.attach(&mut sim, T::ONE, T::ZERO, ra2, rt, ry_in, ty_out);
    let zeros_y = fpga.alloc::<T>("y_zero", m);
    replay_vector_through_memory(&mut sim, &zeros_y, y_out, m, g2.y_rounds(), ty_in, ry_out);

    let modules = sim.module_count();
    (sim, g1, g2, modules)
}

/// Streaming ATAX with the `A` channel sized to the required burst
/// (`T_N·M` elements) — the paper's fix (a). `A` is read from DRAM once.
#[allow(clippy::too_many_arguments)]
pub fn atax_streaming<T: Scalar>(
    fpga: &Fpga,
    n: usize,
    m: usize,
    a: &DeviceBuffer<T>,
    x: &DeviceBuffer<T>,
    y_out: &DeviceBuffer<T>,
    tuning: &GemvTuning,
) -> Result<AppReport, SimError> {
    let _obs = super::RoutineObservation::start("atax_streaming");
    let tu = tuning.clamped(n, m);
    // Burst (one row of tiles) plus slack for in-flight elements.
    let depth = tu.tn * m + BURST_SLACK;
    let (sim, g1, g2, modules) = build_atax(fpga, n, m, a, x, y_out, tuning, depth);
    sim.run()?;

    let cost = fblas_hlssim::PipelineCost::pipelined(
        streamed_cycles(&[g1.cost::<T>(), g2.cost::<T>()]),
        0,
    );
    let circuit = g1
        .estimate::<T>()
        .merge(g2.estimate::<T>())
        // The oversized FIFO is real on-chip storage.
        .with_buffer(depth as u64, T::PRECISION);
    let eb = T::PRECISION.elem_bytes();
    let streams = [
        StreamDemand::new(a.bank(), (n * m) as u64 * eb),
        StreamDemand::new(x.bank(), (m * g1.x_repetitions()) as u64 * eb),
        StreamDemand::new(y_out.bank(), (2 * m * g2.y_rounds()) as u64 * eb),
    ];
    let t = estimate_time(
        fpga.device(),
        RoutineClass::Streaming,
        true,
        &circuit,
        4,
        eb,
        cost,
        &streams,
        fpga.memory(),
    );
    Ok(AppReport {
        seconds: t.seconds,
        io_elements: (n * m + m * g1.x_repetitions() + 2 * m * g2.y_rounds()) as u64,
        modules,
    })
}

/// The invalid streaming composition: ordinary small FIFO on the `A`
/// edge. Always returns an error — [`SimError::Stall`] detected by the
/// watchdog — reproducing the paper's "the composition would stall
/// forever".
#[allow(clippy::too_many_arguments)]
pub fn atax_invalid_streaming<T: Scalar>(
    fpga: &Fpga,
    n: usize,
    m: usize,
    a: &DeviceBuffer<T>,
    x: &DeviceBuffer<T>,
    y_out: &DeviceBuffer<T>,
    tuning: &GemvTuning,
) -> Result<AppReport, SimError> {
    let _obs = super::RoutineObservation::start("atax_invalid_streaming");
    let (sim, _g1, _g2, modules) = build_atax(fpga, n, m, a, x, y_out, tuning, 16);
    sim.run()?;
    // Unreachable for any problem larger than the FIFO; kept for
    // completeness on degenerate sizes.
    Ok(AppReport {
        seconds: 0.0,
        io_elements: 0,
        modules,
    })
}

/// Streaming ATAX with *independent matrix reads*: the paper's third
/// option — "we could let the two GEMV receive the matrix elements
/// independently. In this way, we have the same number of I/O
/// operations of the non-streamed version, but the completion time can
/// still benefit ... given the pipelined execution of the two
/// matrix-vector multiplications" (Sec. V-B). The `t` vector still
/// streams on-chip; only `A` is read twice.
#[allow(clippy::too_many_arguments)]
pub fn atax_streaming_independent_reads<T: Scalar>(
    fpga: &Fpga,
    n: usize,
    m: usize,
    a: &DeviceBuffer<T>,
    x: &DeviceBuffer<T>,
    y_out: &DeviceBuffer<T>,
    tuning: &GemvTuning,
) -> Result<AppReport, SimError> {
    let _obs = super::RoutineObservation::start("atax_streaming_independent_reads");
    let tu = tuning.clamped(n, m);
    let g1 = Gemv::new(GemvVariant::RowStreamed, n, m, tu.tn, tu.tm, tu.w);
    let g2 = Gemv::new(GemvVariant::TransRowStreamed, n, m, tu.tn, tu.tm, tu.w);
    assert_eq!(a.len(), n * m, "atax: A must be n*m");

    let mut sim = Simulation::new();
    // Two independent interface reads of A — no duplicator, no burst.
    let (ta1, ra1) = channel(sim.ctx(), 256, "a1");
    let (ta2, ra2) = channel(sim.ctx(), 256, "a2");
    read_matrix(&mut sim, a, n, m, g1.a_tiling(), ta1, 1);
    read_matrix(&mut sim, a, n, m, g2.a_tiling(), ta2, 1);

    let (txv, rxv) = channel(sim.ctx(), 64, "x");
    read_vector_replayed(&mut sim, x, txv, g1.x_repetitions());
    let (tt_in, rt_in) = channel(sim.ctx(), 64, "t_in");
    let zeros_t = fpga.alloc::<T>("t_zero", n);
    crate::helpers::read_vector(&mut sim, &zeros_t, tt_in);
    // The on-chip t edge needs a row of results buffered: g2 consumes
    // t block bi before A row bi, while g1 produces block bi only after
    // its own row bi — the second A read keeps the matrix edges
    // independent, but t itself still skews by one block.
    let (tt, rt) = channel(sim.ctx(), tu.tn.max(64), "t");
    g1.attach(&mut sim, T::ONE, T::ZERO, ra1, rxv, rt_in, tt);

    let (ty_in, ry_in) = channel(sim.ctx(), 64, "y_in");
    let (ty_out, ry_out) = channel(sim.ctx(), 64, "y_out");
    g2.attach(&mut sim, T::ONE, T::ZERO, ra2, rt, ry_in, ty_out);
    let zeros_y = fpga.alloc::<T>("y_zero", m);
    replay_vector_through_memory(&mut sim, &zeros_y, y_out, m, g2.y_rounds(), ty_in, ry_out);

    let modules = sim.module_count();
    sim.run()?;

    let cost = fblas_hlssim::PipelineCost::pipelined(
        streamed_cycles(&[g1.cost::<T>(), g2.cost::<T>()]),
        0,
    );
    let circuit = g1.estimate::<T>().merge(g2.estimate::<T>());
    let eb = T::PRECISION.elem_bytes();
    let streams = [
        StreamDemand::new(a.bank(), 2 * (n * m) as u64 * eb), // A read twice
        StreamDemand::new(x.bank(), (m * g1.x_repetitions()) as u64 * eb),
        StreamDemand::new(y_out.bank(), (2 * m * g2.y_rounds()) as u64 * eb),
    ];
    let t = estimate_time(
        fpga.device(),
        RoutineClass::Streaming,
        true,
        &circuit,
        5,
        eb,
        cost,
        &streams,
        fpga.memory(),
    );
    Ok(AppReport {
        seconds: t.seconds,
        io_elements: (2 * n * m + m * g1.x_repetitions() + 2 * m * g2.y_rounds()) as u64,
        modules,
    })
}

/// Host-layer ATAX: two sequential GEMV calls through DRAM (the paper's
/// fix (b): break the MDAG into valid components).
pub fn atax_host_layer<T: Scalar>(
    fpga: &Fpga,
    n: usize,
    m: usize,
    a: &DeviceBuffer<T>,
    x: &DeviceBuffer<T>,
    y_out: &DeviceBuffer<T>,
    tuning: &GemvTuning,
) -> Result<AppReport, SimError> {
    let _obs = super::RoutineObservation::start("atax_host_layer");
    let t_buf = fpga.alloc::<T>("t", n);
    let t1 = blas::gemv(fpga, Trans::No, n, m, T::ONE, a, x, T::ZERO, &t_buf, tuning)?;
    y_out.from_host(&vec![T::ZERO; m]);
    let t2 = blas::gemv(
        fpga,
        Trans::Yes,
        n,
        m,
        T::ONE,
        a,
        &t_buf,
        T::ZERO,
        y_out,
        tuning,
    )?;
    let tu = tuning.clamped(n, m);
    Ok(AppReport {
        seconds: t1.seconds + t2.seconds,
        io_elements: (2 * n * m + m * n.div_ceil(tu.tn) + n * m.div_ceil(tu.tm) + 2 * (n + m))
            as u64,
        modules: 2,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::composition::Validity;
    use fblas_arch::Device;

    fn seq(n: usize, seed: f64) -> Vec<f64> {
        (0..n).map(|i| ((i as f64 + seed) * 0.197).sin()).collect()
    }

    fn reference_atax(n: usize, m: usize, a: &[f64], x: &[f64]) -> Vec<f64> {
        let mut t = vec![0.0f64; n];
        for i in 0..n {
            for j in 0..m {
                t[i] += a[i * m + j] * x[j];
            }
        }
        let mut y = vec![0.0f64; m];
        for i in 0..n {
            for j in 0..m {
                y[j] += a[i * m + j] * t[i];
            }
        }
        y
    }

    #[test]
    fn buffered_streaming_computes_atax() {
        let fpga = Fpga::new(Device::Stratix10Gx2800);
        let (n, m) = (12, 8);
        let av = seq(n * m, 0.0);
        let xv = seq(m, 1.0);
        let a = fpga.alloc_from("a", av.clone());
        let x = fpga.alloc_from("x", xv.clone());
        let y = fpga.alloc::<f64>("y", m);
        let tuning = GemvTuning::new(4, 4, 2);
        let rep = atax_streaming(&fpga, n, m, &a, &x, &y, &tuning).unwrap();
        let exp = reference_atax(n, m, &av, &xv);
        let got = y.to_host();
        for j in 0..m {
            assert!(
                (got[j] - exp[j]).abs() < 1e-9,
                "y[{j}]: {} vs {}",
                got[j],
                exp[j]
            );
        }
        assert!(rep.modules >= 7);
    }

    #[test]
    fn undersized_channel_stalls_as_paper_predicts() {
        let fpga = Fpga::new(Device::Stratix10Gx2800);
        let (n, m) = (24, 16);
        let a = fpga.alloc_from("a", seq(n * m, 0.0));
        let x = fpga.alloc_from("x", seq(m, 1.0));
        let y = fpga.alloc::<f64>("y", m);
        let tuning = GemvTuning::new(8, 8, 2);
        match atax_invalid_streaming(&fpga, n, m, &a, &x, &y, &tuning) {
            Err(SimError::Stall { .. }) => {}
            other => panic!("expected stall, got {other:?}"),
        }
    }

    #[test]
    fn independent_reads_variant_matches_reference() {
        let fpga = Fpga::new(Device::Stratix10Gx2800);
        let (n, m) = (18, 10);
        let av = seq(n * m, 7.0);
        let xv = seq(m, 8.0);
        let a = fpga.alloc_from("a", av.clone());
        let x = fpga.alloc_from("x", xv.clone());
        let y = fpga.alloc::<f64>("y", m);
        let tuning = GemvTuning::new(6, 5, 2);
        let rep = atax_streaming_independent_reads(&fpga, n, m, &a, &x, &y, &tuning).unwrap();
        let exp = reference_atax(n, m, &av, &xv);
        let got = y.to_host();
        for j in 0..m {
            assert!((got[j] - exp[j]).abs() < 1e-9, "y[{j}]");
        }
        // Same matrix I/O as the host layer (A twice), fewer than the
        // buffered variant only in on-chip resources — and no deep FIFO.
        assert!(rep.io_elements >= (2 * n * m) as u64);

        // The buffered single-read variant moves less data.
        let y2 = fpga.alloc::<f64>("y2", m);
        let rep_buf = atax_streaming(&fpga, n, m, &a, &x, &y2, &tuning).unwrap();
        assert!(rep_buf.io_elements < rep.io_elements);
    }

    #[test]
    fn host_layer_matches_reference() {
        let fpga = Fpga::new(Device::Stratix10Gx2800);
        let (n, m) = (9, 11);
        let av = seq(n * m, 2.0);
        let xv = seq(m, 3.0);
        let a = fpga.alloc_from("a", av.clone());
        let x = fpga.alloc_from("x", xv.clone());
        let y = fpga.alloc::<f64>("y", m);
        let tuning = GemvTuning::new(3, 4, 2);
        let rep = atax_host_layer(&fpga, n, m, &a, &x, &y, &tuning).unwrap();
        let exp = reference_atax(n, m, &av, &xv);
        let got = y.to_host();
        for j in 0..m {
            assert!((got[j] - exp[j]).abs() < 1e-9);
        }
        assert!(rep.io_elements > (2 * n * m) as u64, "A read twice");
    }

    #[test]
    fn mdag_analysis_matches_runtime_behaviour() {
        // Undersized: analysis demands a deeper channel.
        let g = atax_mdag(24, 16, 8, 16);
        match g.validate() {
            Validity::RequiresChannelDepth { min_depth, .. } => assert_eq!(min_depth, 8 * 16),
            other => panic!("unexpected: {other:?}"),
        }
        // Properly sized: valid.
        let g = atax_mdag(24, 16, 8, 8 * 16 + 64);
        assert_eq!(g.validate(), Validity::Valid);
        assert_eq!(g.is_multitree(), Some(false));
    }
}
