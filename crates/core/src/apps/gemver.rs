//! GEMVER: `B = A + u1·v1ᵀ + u2·v2ᵀ`, `x = β·Bᵀ·y + z`, `w = α·B·x`
//! (paper Sec. V-C, Fig. 9).
//!
//! The fully streamed MDAG would be non-multitree (B feeds both GEMVs,
//! and `x` flows between them), so the paper splits it into two valid
//! multitree components executed back to back:
//!
//! 1. GER → GER → (store B, GEMVᵀ) producing `B` and `x`;
//! 2. GEMV reading `B` and `x` from DRAM, producing `w`.
//!
//! I/O drops from ≈8N² (host layer) to ≈3N², and completion cycles from
//! ≈5N² to ≈2N² — the speedups of Fig. 11.

use fblas_arch::RoutineClass;
use fblas_hlssim::{channel, streamed_cycles, PipelineCost, SimError, Simulation};

use super::AppReport;
use crate::composition::Mdag;
use crate::helpers::writers::replay_vector_through_memory;
use crate::helpers::{
    duplicate, read_matrix, read_vector, read_vector_replayed, write_matrix, write_vector,
};
use crate::host::blas::{self, GemvTuning};
use crate::host::{DeviceBuffer, Fpga};
use crate::perf::{estimate_time, StreamDemand};
use crate::routines::gemv::{Gemv, GemvVariant};
use crate::routines::{Ger, Trans};
use crate::scalar::Scalar;

/// The MDAG of component 1 of Fig. 9 (the two GERs chained into the
/// transposed GEMV, with `B` also stored).
pub fn gemver_mdag(n: u64) -> Mdag {
    let mut g = Mdag::new();
    let a = g.add_interface("read_A");
    let u1 = g.add_interface("read_u1");
    let v1 = g.add_interface("read_v1");
    let u2 = g.add_interface("read_u2");
    let v2 = g.add_interface("read_v2");
    let y = g.add_interface("read_y");
    let ger1 = g.add_compute("ger1");
    let ger2 = g.add_compute("ger2");
    let dup = g.add_compute("duplicate");
    let gemv_t = g.add_compute("gemv_t");
    let b_out = g.add_interface("write_B");
    let x_out = g.add_interface("write_x");
    g.add_edge(a, ger1, n * n, n * n, 256);
    g.add_edge(u1, ger1, n, n, 64);
    g.add_edge(v1, ger1, n, n, 64);
    g.add_edge(ger1, ger2, n * n, n * n, 256);
    g.add_edge(u2, ger2, n, n, 64);
    g.add_edge(v2, ger2, n, n, 64);
    g.add_edge(ger2, dup, n * n, n * n, 256);
    g.add_edge(dup, b_out, n * n, n * n, 256);
    g.add_edge(dup, gemv_t, n * n, n * n, 256);
    g.add_edge(y, gemv_t, n, n, 64);
    g.add_edge(gemv_t, x_out, n, n, 64);
    g
}

/// Streaming GEMVER (two sequential multitree components). Outputs land
/// in `b_out`, `x_out`, `w_out`.
#[allow(clippy::too_many_arguments)]
pub fn gemver_streaming<T: Scalar>(
    fpga: &Fpga,
    n: usize,
    alpha: T,
    beta: T,
    a: &DeviceBuffer<T>,
    u1: &DeviceBuffer<T>,
    v1: &DeviceBuffer<T>,
    u2: &DeviceBuffer<T>,
    v2: &DeviceBuffer<T>,
    y: &DeviceBuffer<T>,
    z: &DeviceBuffer<T>,
    b_out: &DeviceBuffer<T>,
    x_out: &DeviceBuffer<T>,
    w_out: &DeviceBuffer<T>,
    tuning: &GemvTuning,
) -> Result<AppReport, SimError> {
    let _obs = super::RoutineObservation::start("gemver_streaming");
    let tu = tuning.clamped(n, n);
    assert_eq!(a.len(), n * n, "gemver: A must be n*n");
    for (name, buf) in [
        ("u1", u1),
        ("v1", v1),
        ("u2", u2),
        ("v2", v2),
        ("y", y),
        ("z", z),
    ] {
        assert_eq!(buf.len(), n, "gemver: {name} length");
    }
    assert_eq!(b_out.len(), n * n, "gemver: B length");
    assert_eq!(x_out.len(), n, "gemver: x length");
    assert_eq!(w_out.len(), n, "gemver: w length");

    let ger1 = Ger::new(n, n, tu.tn, tu.tm, tu.w);
    let ger2 = Ger::new(n, n, tu.tn, tu.tm, tu.w);
    let gemv_t = Gemv::new(GemvVariant::TransRowStreamed, n, n, tu.tn, tu.tm, tu.w);
    let gemv2 = Gemv::new(GemvVariant::RowStreamed, n, n, tu.tn, tu.tm, tu.w);

    // ---------------- Component 1 ----------------
    let mut sim = Simulation::new();
    let (ta, ra) = channel(sim.ctx(), 256, "a");
    read_matrix(&mut sim, a, n, n, ger1.a_tiling(), ta, 1);
    let (tu1, ru1) = channel(sim.ctx(), 64, "u1");
    read_vector(&mut sim, u1, tu1);
    let (tv1, rv1) = channel(sim.ctx(), 64, "v1");
    read_vector_replayed(&mut sim, v1, tv1, ger1.y_repetitions());
    let (tb1, rb1) = channel(sim.ctx(), 256, "b1");
    ger1.attach(&mut sim, T::ONE, ra, ru1, rv1, tb1);

    let (tu2, ru2) = channel(sim.ctx(), 64, "u2");
    read_vector(&mut sim, u2, tu2);
    let (tv2, rv2) = channel(sim.ctx(), 64, "v2");
    read_vector_replayed(&mut sim, v2, tv2, ger2.y_repetitions());
    let (tb2, rb2) = channel(sim.ctx(), 256, "b2");
    ger2.attach(&mut sim, T::ONE, rb1, ru2, rv2, tb2);

    let (tb_store, rb_store) = channel(sim.ctx(), 256, "b_store");
    let (tb_gemv, rb_gemv) = channel(sim.ctx(), 256, "b_gemv");
    duplicate(&mut sim, "dup_B", n * n, rb2, tb_store, tb_gemv);
    write_matrix(&mut sim, b_out, n, n, ger1.a_tiling(), rb_store);

    // x = β·Bᵀ·y + z.
    let (ty, ry) = channel(sim.ctx(), 64, "y");
    read_vector(&mut sim, y, ty);
    let (tx_in, rx_in) = channel(sim.ctx(), 64, "x_in");
    let (tx_out, rx_out) = channel(sim.ctx(), 64, "x_out");
    gemv_t.attach(&mut sim, beta, T::ONE, rb_gemv, ry, rx_in, tx_out);
    replay_vector_through_memory(&mut sim, z, x_out, n, gemv_t.y_rounds(), tx_in, rx_out);

    let modules_1 = sim.module_count();
    sim.run()?;

    // ---------------- Component 2 ----------------
    let mut sim2 = Simulation::new();
    let (ta2, ra2) = channel(sim2.ctx(), 256, "b");
    read_matrix(&mut sim2, b_out, n, n, gemv2.a_tiling(), ta2, 1);
    let (txv, rxv) = channel(sim2.ctx(), 64, "x");
    read_vector_replayed(&mut sim2, x_out, txv, gemv2.x_repetitions());
    let (tw_in, rw_in) = channel(sim2.ctx(), 64, "w_in");
    let zeros_w = fpga.alloc::<T>("w_zero", n);
    read_vector(&mut sim2, &zeros_w, tw_in);
    let (tw, rw) = channel(sim2.ctx(), 64, "w");
    gemv2.attach(&mut sim2, alpha, T::ZERO, ra2, rxv, rw_in, tw);
    write_vector(&mut sim2, w_out, n, rw);
    let modules_2 = sim2.module_count();
    sim2.run()?;

    // Cost: component 1 streams N² through three chained modules in
    // pipeline parallel; component 2 is one more N² pass — the paper's
    // 5N² → 2N² reduction.
    let eb = T::PRECISION.elem_bytes();
    let comp1 = PipelineCost::pipelined(
        streamed_cycles(&[ger1.cost::<T>(), ger2.cost::<T>(), gemv_t.cost::<T>()]),
        0,
    );
    let circuit1 = ger1
        .estimate::<T>()
        .merge(ger2.estimate::<T>())
        .merge(gemv_t.estimate::<T>());
    let streams1 = [
        StreamDemand::new(a.bank(), (n * n) as u64 * eb),
        StreamDemand::new(b_out.bank(), (n * n) as u64 * eb),
        StreamDemand::new(x_out.bank(), (2 * n * gemv_t.y_rounds()) as u64 * eb),
    ];
    let t1 = estimate_time(
        fpga.device(),
        RoutineClass::Streaming,
        true,
        &circuit1,
        8,
        eb,
        comp1,
        &streams1,
        fpga.memory(),
    );
    let streams2 = [
        StreamDemand::new(b_out.bank(), (n * n) as u64 * eb),
        StreamDemand::new(x_out.bank(), (n * gemv2.x_repetitions()) as u64 * eb),
        StreamDemand::new(w_out.bank(), n as u64 * eb),
    ];
    let t2 = estimate_time(
        fpga.device(),
        RoutineClass::Streaming,
        true,
        &gemv2.estimate::<T>(),
        4,
        eb,
        gemv2.cost::<T>(),
        &streams2,
        fpga.memory(),
    );

    let io = (3 * n * n
        + 4 * n * ger1.y_repetitions().max(1)
        + 2 * n
        + 2 * n * gemv_t.y_rounds()
        + n * gemv2.x_repetitions()
        + n) as u64;
    Ok(AppReport {
        seconds: t1.seconds + t2.seconds,
        io_elements: io,
        modules: modules_1 + modules_2,
    })
}

/// Host-layer GEMVER: matrix copy, two GERs, vector copy, two GEMVs —
/// six routine invocations through DRAM (≈8N² I/O).
#[allow(clippy::too_many_arguments)]
pub fn gemver_host_layer<T: Scalar>(
    fpga: &Fpga,
    n: usize,
    alpha: T,
    beta: T,
    a: &DeviceBuffer<T>,
    u1: &DeviceBuffer<T>,
    v1: &DeviceBuffer<T>,
    u2: &DeviceBuffer<T>,
    v2: &DeviceBuffer<T>,
    y: &DeviceBuffer<T>,
    z: &DeviceBuffer<T>,
    b_out: &DeviceBuffer<T>,
    x_out: &DeviceBuffer<T>,
    w_out: &DeviceBuffer<T>,
    tuning: &GemvTuning,
) -> Result<AppReport, SimError> {
    let _obs = super::RoutineObservation::start("gemver_host_layer");
    let t_copy_b = blas::copy(fpga, a, b_out, tuning.w)?;
    let t_ger1 = blas::ger(fpga, n, n, T::ONE, u1, v1, b_out, tuning)?;
    let t_ger2 = blas::ger(fpga, n, n, T::ONE, u2, v2, b_out, tuning)?;
    let t_copy_x = blas::copy(fpga, z, x_out, tuning.w)?;
    let t_gemv_t = blas::gemv(
        fpga,
        Trans::Yes,
        n,
        n,
        beta,
        b_out,
        y,
        T::ONE,
        x_out,
        tuning,
    )?;
    w_out.from_host(&vec![T::ZERO; n]);
    let t_gemv = blas::gemv(
        fpga,
        Trans::No,
        n,
        n,
        alpha,
        b_out,
        x_out,
        T::ZERO,
        w_out,
        tuning,
    )?;
    Ok(AppReport {
        seconds: t_copy_b.seconds
            + t_ger1.seconds
            + t_ger2.seconds
            + t_copy_x.seconds
            + t_gemv_t.seconds
            + t_gemv.seconds,
        io_elements: (8 * n * n + 10 * n) as u64,
        modules: 6,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::composition::Validity;
    use fblas_arch::Device;

    fn seq(n: usize, seed: f64) -> Vec<f64> {
        (0..n).map(|i| ((i as f64 + seed) * 0.419).sin()).collect()
    }

    struct Inputs {
        a: Vec<f64>,
        u1: Vec<f64>,
        v1: Vec<f64>,
        u2: Vec<f64>,
        v2: Vec<f64>,
        y: Vec<f64>,
        z: Vec<f64>,
    }

    fn inputs(n: usize) -> Inputs {
        Inputs {
            a: seq(n * n, 0.0),
            u1: seq(n, 1.0),
            v1: seq(n, 2.0),
            u2: seq(n, 3.0),
            v2: seq(n, 4.0),
            y: seq(n, 5.0),
            z: seq(n, 6.0),
        }
    }

    fn reference(n: usize, alpha: f64, beta: f64, inp: &Inputs) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut b = inp.a.clone();
        for i in 0..n {
            for j in 0..n {
                b[i * n + j] += inp.u1[i] * inp.v1[j] + inp.u2[i] * inp.v2[j];
            }
        }
        let mut x = inp.z.clone();
        for j in 0..n {
            for i in 0..n {
                x[j] += beta * b[i * n + j] * inp.y[i];
            }
        }
        let mut w = vec![0.0f64; n];
        for i in 0..n {
            for j in 0..n {
                w[i] += alpha * b[i * n + j] * x[j];
            }
        }
        (b, x, w)
    }

    type BxW = (Vec<f64>, Vec<f64>, Vec<f64>);

    fn run_variant(streaming: bool, n: usize) -> (BxW, AppReport) {
        let fpga = Fpga::new(Device::Stratix10Gx2800);
        let inp = inputs(n);
        let (alpha, beta) = (1.2f64, 0.7f64);
        let a = fpga.alloc_from("a", inp.a.clone());
        let u1 = fpga.alloc_from("u1", inp.u1.clone());
        let v1 = fpga.alloc_from("v1", inp.v1.clone());
        let u2 = fpga.alloc_from("u2", inp.u2.clone());
        let v2 = fpga.alloc_from("v2", inp.v2.clone());
        let y = fpga.alloc_from("y", inp.y.clone());
        let z = fpga.alloc_from("z", inp.z.clone());
        let b = fpga.alloc::<f64>("b", n * n);
        let x = fpga.alloc::<f64>("x", n);
        let w = fpga.alloc::<f64>("w", n);
        let tuning = GemvTuning::new(4, 4, 2);
        let rep = if streaming {
            gemver_streaming(
                &fpga, n, alpha, beta, &a, &u1, &v1, &u2, &v2, &y, &z, &b, &x, &w, &tuning,
            )
            .unwrap()
        } else {
            gemver_host_layer(
                &fpga, n, alpha, beta, &a, &u1, &v1, &u2, &v2, &y, &z, &b, &x, &w, &tuning,
            )
            .unwrap()
        };
        ((b.to_host(), x.to_host(), w.to_host()), rep)
    }

    #[test]
    fn streaming_matches_reference() {
        let n = 10;
        let ((b, x, w), rep) = run_variant(true, n);
        let inp = inputs(n);
        let (b_ref, x_ref, w_ref) = reference(n, 1.2, 0.7, &inp);
        for i in 0..n * n {
            assert!((b[i] - b_ref[i]).abs() < 1e-9, "B[{i}]");
        }
        for i in 0..n {
            assert!(
                (x[i] - x_ref[i]).abs() < 1e-9,
                "x[{i}]: {} vs {}",
                x[i],
                x_ref[i]
            );
            assert!((w[i] - w_ref[i]).abs() < 1e-9, "w[{i}]");
        }
        assert!(rep.modules > 10);
    }

    #[test]
    fn host_layer_matches_reference() {
        let n = 8;
        let ((b, x, w), rep) = run_variant(false, n);
        let inp = inputs(n);
        let (b_ref, x_ref, w_ref) = reference(n, 1.2, 0.7, &inp);
        for i in 0..n * n {
            assert!((b[i] - b_ref[i]).abs() < 1e-9);
        }
        for i in 0..n {
            assert!((x[i] - x_ref[i]).abs() < 1e-9);
            assert!((w[i] - w_ref[i]).abs() < 1e-9);
        }
        assert_eq!(rep.io_elements, (8 * n * n + 10 * n) as u64);
    }

    #[test]
    fn streaming_beats_host_layer() {
        let n = 64;
        let (_, rep_s) = run_variant(true, n);
        let (_, rep_h) = run_variant(false, n);
        assert!(rep_s.io_elements < rep_h.io_elements);
        let speedup = rep_h.seconds / rep_s.seconds;
        // Paper Fig. 11: GEMVER speedup ≈ 2.5–3.
        assert!(speedup > 1.5 && speedup < 4.5, "speedup {speedup}");
    }

    #[test]
    fn component_mdag_is_valid_multitree() {
        let g = gemver_mdag(128);
        assert_eq!(g.validate(), Validity::Valid);
        assert_eq!(g.is_multitree(), Some(true));
    }
}
