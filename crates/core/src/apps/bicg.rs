//! BICG: `q = A·p`, `s = Aᵀ·r` (paper Sec. V-A, Fig. 7).
//!
//! The two GEMV modules read the same matrix with different access
//! patterns; by configuring both to accept `A` in tiles by rows (the
//! transposed one adjusts its schedule through its tiling), a single
//! DRAM read of `A` feeds both through a duplicator — halving the
//! matrix traffic from `2NM` to `NM` while the modules compute in
//! parallel. Completion cycles are unchanged (`≈ NM`), so the paper's
//! expected speedup comes purely from the saved bandwidth (expected
//! 1.7×, measured up to 1.45×).

use fblas_arch::RoutineClass;
use fblas_hlssim::{channel, streamed_cycles, SimError, Simulation};

use super::AppReport;
use crate::composition::Mdag;
use crate::helpers::writers::replay_vector_through_memory;
use crate::helpers::{duplicate, read_matrix, read_vector, read_vector_replayed, write_vector};
use crate::host::blas::{self, GemvTuning};
use crate::host::{DeviceBuffer, Fpga};
use crate::perf::{estimate_time, StreamDemand};
use crate::routines::gemv::{Gemv, GemvVariant};
use crate::routines::Trans;
use crate::scalar::Scalar;

/// The streaming MDAG of Fig. 7.
pub fn bicg_mdag(n: u64, m: u64) -> Mdag {
    let mut g = Mdag::new();
    let a = g.add_interface("read_A");
    let p = g.add_interface("read_p");
    let r = g.add_interface("read_r");
    let dup = g.add_compute("duplicate");
    let g1 = g.add_compute("gemv");
    let g2 = g.add_compute("gemv_t");
    let q = g.add_interface("write_q");
    let s = g.add_interface("write_s");
    g.add_edge(a, dup, n * m, n * m, 16);
    g.add_edge(dup, g1, n * m, n * m, 16);
    g.add_edge(dup, g2, n * m, n * m, 16);
    g.add_edge(p, g1, m, m, 16);
    g.add_edge(r, g2, n, n, 16);
    g.add_edge(g1, q, n, n, 16);
    g.add_edge(g2, s, m, m, 16);
    g
}

/// Streaming BICG: computes `q` and `s` into the given output buffers
/// with a single read of `A` (`n × m` row-major).
#[allow(clippy::too_many_arguments)]
pub fn bicg_streaming<T: Scalar>(
    fpga: &Fpga,
    n: usize,
    m: usize,
    a: &DeviceBuffer<T>,
    p: &DeviceBuffer<T>,
    r: &DeviceBuffer<T>,
    q_out: &DeviceBuffer<T>,
    s_out: &DeviceBuffer<T>,
    tuning: &GemvTuning,
) -> Result<AppReport, SimError> {
    let _obs = super::RoutineObservation::start("bicg_streaming");
    let tu = tuning.clamped(n, m);
    let g1 = Gemv::new(GemvVariant::RowStreamed, n, m, tu.tn, tu.tm, tu.w);
    let g2 = Gemv::new(GemvVariant::TransRowStreamed, n, m, tu.tn, tu.tm, tu.w);
    assert_eq!(a.len(), n * m, "bicg: A must be n*m");
    assert_eq!(p.len(), m, "bicg: p length");
    assert_eq!(r.len(), n, "bicg: r length");
    assert_eq!(q_out.len(), n, "bicg: q length");
    assert_eq!(s_out.len(), m, "bicg: s length");

    let mut sim = Simulation::new();
    let (ta, ra) = channel(sim.ctx(), 256, "a");
    let (ta1, ra1) = channel(sim.ctx(), 256, "a1");
    let (ta2, ra2) = channel(sim.ctx(), 256, "a2");
    read_matrix(&mut sim, a, n, m, g1.a_tiling(), ta, 1);
    duplicate(&mut sim, "dup_A", n * m, ra, ta1, ta2);

    // q = A·p: x (= p) replayed by its reader, y streamed once (zeros).
    let (tp, rp) = channel(sim.ctx(), 64, "p");
    read_vector_replayed(&mut sim, p, tp, g1.x_repetitions());
    let (tq_in, rq_in) = channel(sim.ctx(), 64, "q_in");
    let zeros_q = fpga.alloc::<T>("q_zero", n);
    read_vector(&mut sim, &zeros_q, tq_in);
    let (tq_out, rq_out) = channel(sim.ctx(), 64, "q_out");
    g1.attach(&mut sim, T::ONE, T::ZERO, ra1, rp, rq_in, tq_out);
    write_vector(&mut sim, q_out, n, rq_out);

    // s = Aᵀ·r: r consumed once, s partials replayed through memory.
    let (tr, rr) = channel(sim.ctx(), 64, "r");
    read_vector(&mut sim, r, tr);
    let (ts_in, rs_in) = channel(sim.ctx(), 64, "s_in");
    let (ts_out, rs_out) = channel(sim.ctx(), 64, "s_out");
    g2.attach(&mut sim, T::ONE, T::ZERO, ra2, rr, rs_in, ts_out);
    let zeros_s = fpga.alloc::<T>("s_zero", m);
    replay_vector_through_memory(&mut sim, &zeros_s, s_out, m, g2.y_rounds(), ts_in, rs_out);

    let modules = sim.module_count();
    sim.run()?;

    // Both GEMVs stream the same NM elements in parallel: completion is
    // one matrix pass (Sec. V-A: "do not affect the number of cycles to
    // completion, NM").
    let cost = fblas_hlssim::PipelineCost::pipelined(
        streamed_cycles(&[g1.cost::<T>(), g2.cost::<T>()]),
        0,
    );
    let circuit = g1.estimate::<T>().merge(g2.estimate::<T>());
    let eb = T::PRECISION.elem_bytes();
    let streams = [
        StreamDemand::new(a.bank(), (n * m) as u64 * eb),
        StreamDemand::new(p.bank(), (m * g1.x_repetitions()) as u64 * eb),
        StreamDemand::new(r.bank(), n as u64 * eb),
        StreamDemand::new(q_out.bank(), n as u64 * eb),
        StreamDemand::new(s_out.bank(), (2 * m * g2.y_rounds()) as u64 * eb),
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
        io_elements: (n * m + m * g1.x_repetitions() + n + n + 2 * m * g2.y_rounds()) as u64,
        modules,
    })
}

/// Host-layer BICG: two independent GEMV calls, `A` read twice.
#[allow(clippy::too_many_arguments)]
pub fn bicg_host_layer<T: Scalar>(
    fpga: &Fpga,
    n: usize,
    m: usize,
    a: &DeviceBuffer<T>,
    p: &DeviceBuffer<T>,
    r: &DeviceBuffer<T>,
    q_out: &DeviceBuffer<T>,
    s_out: &DeviceBuffer<T>,
    tuning: &GemvTuning,
) -> Result<AppReport, SimError> {
    let _obs = super::RoutineObservation::start("bicg_host_layer");
    q_out.from_host(&vec![T::ZERO; n]);
    s_out.from_host(&vec![T::ZERO; m]);
    let t_q = blas::gemv(fpga, Trans::No, n, m, T::ONE, a, p, T::ZERO, q_out, tuning)?;
    let t_s = blas::gemv(fpga, Trans::Yes, n, m, T::ONE, a, r, T::ZERO, s_out, tuning)?;
    let tu = tuning.clamped(n, m);
    let reps_q = n.div_ceil(tu.tn);
    let reps_s = m.div_ceil(tu.tm);
    Ok(AppReport {
        seconds: t_q.seconds + t_s.seconds,
        io_elements: (2 * n * m + m * reps_q + n * reps_s + 2 * (n + m)) as u64,
        modules: 2,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::composition::Validity;
    use fblas_arch::Device;

    fn seq(n: usize, seed: f64) -> Vec<f64> {
        (0..n).map(|i| ((i as f64 + seed) * 0.713).sin()).collect()
    }

    #[test]
    fn streaming_matches_reference() {
        let fpga = Fpga::new(Device::Stratix10Gx2800);
        let (n, m) = (18, 12);
        let av = seq(n * m, 0.0);
        let pv = seq(m, 1.0);
        let rv = seq(n, 2.0);
        let a = fpga.alloc_from("a", av.clone());
        let p = fpga.alloc_from("p", pv.clone());
        let r = fpga.alloc_from("r", rv.clone());
        let q = fpga.alloc::<f64>("q", n);
        let s = fpga.alloc::<f64>("s", m);
        let tuning = GemvTuning::new(6, 4, 2);
        let rep = bicg_streaming(&fpga, n, m, &a, &p, &r, &q, &s, &tuning).unwrap();

        let qv = q.to_host();
        let sv = s.to_host();
        for i in 0..n {
            let exp: f64 = (0..m).map(|j| av[i * m + j] * pv[j]).sum();
            assert!((qv[i] - exp).abs() < 1e-9, "q[{i}]");
        }
        for j in 0..m {
            let exp: f64 = (0..n).map(|i| av[i * m + j] * rv[i]).sum();
            assert!((sv[j] - exp).abs() < 1e-9, "s[{j}]");
        }
        assert!(rep.modules >= 8);
    }

    #[test]
    fn host_layer_matches_and_reads_a_twice() {
        let fpga = Fpga::new(Device::Stratix10Gx2800);
        let (n, m) = (10, 14);
        let av = seq(n * m, 3.0);
        let a = fpga.alloc_from("a", av.clone());
        let p = fpga.alloc_from("p", seq(m, 4.0));
        let r = fpga.alloc_from("r", seq(n, 5.0));
        let q = fpga.alloc::<f64>("q", n);
        let s = fpga.alloc::<f64>("s", m);
        let tuning = GemvTuning::new(5, 7, 2);
        let rep_h = bicg_host_layer(&fpga, n, m, &a, &p, &r, &q, &s, &tuning).unwrap();
        let rep_s = {
            let q2 = fpga.alloc::<f64>("q2", n);
            let s2 = fpga.alloc::<f64>("s2", m);
            let rep = bicg_streaming(&fpga, n, m, &a, &p, &r, &q2, &s2, &tuning).unwrap();
            assert_eq!(q.to_host(), q2.to_host());
            for (x, y) in s.to_host().iter().zip(s2.to_host()) {
                assert!((x - y).abs() < 1e-12);
            }
            rep
        };
        // The streamed version moves less matrix data.
        assert!(rep_s.io_elements < rep_h.io_elements);
    }

    #[test]
    fn streaming_speedup_in_paper_range_at_scale() {
        let fpga = Fpga::new(Device::Stratix10Gx2800);
        let n = 512;
        let a = fpga.alloc_from("a", vec![1.0f32; n * n]);
        let p = fpga.alloc_from("p", vec![1.0f32; n]);
        let r = fpga.alloc_from("r", vec![1.0f32; n]);
        let q = fpga.alloc::<f32>("q", n);
        let s = fpga.alloc::<f32>("s", n);
        let tuning = GemvTuning::new(128, 128, 16);
        let rep_s = bicg_streaming(&fpga, n, n, &a, &p, &r, &q, &s, &tuning).unwrap();
        let rep_h = bicg_host_layer(&fpga, n, n, &a, &p, &r, &q, &s, &tuning).unwrap();
        let speedup = rep_h.seconds / rep_s.seconds;
        // Paper: expected 1.7, measured up to 1.45.
        assert!(speedup > 1.2 && speedup < 2.2, "speedup {speedup}");
    }

    #[test]
    fn mdag_is_valid_multitree() {
        let g = bicg_mdag(64, 32);
        assert_eq!(g.validate(), Validity::Valid);
        assert_eq!(g.is_multitree(), Some(true));
    }
}
