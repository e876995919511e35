//! The simulator workloads the CPU-timed harness binaries share.
//!
//! `bench_throughput` sweeps them across channel chunk sizes and
//! `bench_overhead` times them with a runtime subsystem armed and
//! disarmed; both run exactly these three workloads — DOT, a tiled
//! row-streamed GEMV, and the composed GEMVER pipeline — so their
//! numbers describe the same work. Each runner builds its inputs, times
//! one simulation run, and reports what it moved and computed.

use std::time::Instant;

use fblas_arch::Device;
use fblas_core::apps::gemver_streaming;
use fblas_core::helpers;
use fblas_core::host::{DeviceBuffer, Fpga, GemvTuning};
use fblas_core::routines::{Dot, Gemv, GemvVariant, Ger};
use fblas_hlssim::{channel, streamed_cycles, Simulation};

/// DOT stream length.
pub const DOT_N: usize = 1 << 18;
const DOT_W: usize = 8;
/// GEMV matrix order (square).
pub const GEMV_N: usize = 256;
const GEMV_T: usize = 64;
const GEMV_W: usize = 8;
/// GEMVER matrix order.
pub const GEMVER_N: usize = 128;

/// One timed run of a workload.
pub struct Sample {
    /// Total channel-element transfers the run performs (work moved).
    pub elements: u64,
    /// Modeled pipeline cycles `C = L + I·M`.
    pub model_cycles: u64,
    /// Wall time of the simulation run in seconds.
    pub wall: f64,
    /// Bit pattern of the numeric result.
    pub result_bits: Vec<u64>,
}

/// A named workload: its report name, problem size, and runner.
pub struct Workload {
    /// Value of the reports' `routine` column.
    pub name: &'static str,
    /// Value of the reports' `n` column.
    pub n: u64,
    /// One timed run.
    pub run: fn() -> Sample,
}

/// Every shared workload, in report order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "dot",
        n: DOT_N as u64,
        run: run_dot,
    },
    Workload {
        name: "gemv",
        n: GEMV_N as u64,
        run: run_gemv,
    },
    Workload {
        name: "gemver",
        n: GEMVER_N as u64,
        run: run_gemver,
    },
];

fn seq(n: usize, seed: f64) -> Vec<f64> {
    (0..n).map(|i| ((i as f64 + seed) * 0.4371).sin()).collect()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// DOT over two seeded f64 streams; the simulation moves 2n elements in
/// and 1 out.
fn run_dot() -> Sample {
    let cfg = Dot::new(DOT_N, DOT_W);
    let mut sim = Simulation::new();
    let x_buf = DeviceBuffer::from_vec("x", seq(DOT_N, 1.0), 0);
    let y_buf = DeviceBuffer::from_vec("y", seq(DOT_N, 2.0), 0);
    let res_buf = DeviceBuffer::<f64>::zeroed("res", 1, 0);
    let (tx, rx) = channel(sim.ctx(), 1024, "x");
    let (ty, ry) = channel(sim.ctx(), 1024, "y");
    let (tr, rr) = channel(sim.ctx(), 1, "res");
    helpers::read_vector(&mut sim, &x_buf, tx);
    helpers::read_vector(&mut sim, &y_buf, ty);
    cfg.attach(&mut sim, rx, ry, tr);
    helpers::write_scalar(&mut sim, &res_buf, rr);
    let t0 = Instant::now();
    sim.run().expect("dot composition runs");
    let wall = t0.elapsed().as_secs_f64();
    Sample {
        elements: 2 * DOT_N as u64 + 1,
        model_cycles: cfg.cost::<f64>().cycles(),
        wall,
        result_bits: bits(&[res_buf.get(0)]),
    }
}

/// Tiled row-streamed GEMV with the full reader/writer interface chain.
fn run_gemv() -> Sample {
    let cfg = Gemv::new(
        GemvVariant::RowStreamed,
        GEMV_N,
        GEMV_N,
        GEMV_T,
        GEMV_T,
        GEMV_W,
    );
    let mut sim = Simulation::new();
    let a_buf = DeviceBuffer::from_vec("a", seq(GEMV_N * GEMV_N, 1.0), 0);
    let x_buf = DeviceBuffer::from_vec("x", seq(cfg.x_len(), 2.0), 0);
    let y_buf = DeviceBuffer::from_vec("y", seq(cfg.y_len(), 3.0), 0);
    let out_buf = DeviceBuffer::<f64>::zeroed("y_out", cfg.y_len(), 0);
    let (ta, ra) = channel(sim.ctx(), 256, "a");
    let (txv, rxv) = channel(sim.ctx(), 64, "x");
    let (ty_in, ry_in) = channel(sim.ctx(), 64, "y_in");
    let (ty_out, ry_out) = channel(sim.ctx(), 64, "y_out");
    helpers::read_matrix(&mut sim, &a_buf, GEMV_N, GEMV_N, cfg.a_tiling(), ta, 1);
    helpers::read_vector_replayed(&mut sim, &x_buf, txv, cfg.x_repetitions());
    helpers::read_vector(&mut sim, &y_buf, ty_in);
    cfg.attach(&mut sim, 1.3, 0.7, ra, rxv, ry_in, ty_out);
    helpers::write_vector(&mut sim, &out_buf, cfg.y_len(), ry_out);
    let t0 = Instant::now();
    sim.run().expect("gemv composition runs");
    let wall = t0.elapsed().as_secs_f64();
    Sample {
        elements: cfg.io_ops(),
        model_cycles: cfg.cost::<f64>().cycles(),
        wall,
        result_bits: bits(&out_buf.to_host()),
    }
}

/// The composed GEMVER application (two GERs, two GEMVs, fan-out,
/// replay-through-memory) — the heaviest multi-module pipeline.
fn run_gemver() -> Sample {
    let n = GEMVER_N;
    let tuning = GemvTuning::new(32, 32, 8);
    let fpga = Fpga::new(Device::Stratix10Gx2800);
    let a_buf = fpga.alloc_from("a", seq(n * n, 1.0));
    let [u1, v1, u2, v2, y, z] = [
        ("u1", 2.0),
        ("v1", 3.0),
        ("u2", 4.0),
        ("v2", 5.0),
        ("y", 6.0),
        ("z", 7.0),
    ]
    .map(|(name, seed)| fpga.alloc_from(name, seq(n, seed)));
    let b_out = fpga.alloc::<f64>("b_out", n * n);
    let x_out = fpga.alloc::<f64>("x_out", n);
    let w_out = fpga.alloc::<f64>("w_out", n);
    let t0 = Instant::now();
    let report = gemver_streaming(
        &fpga, n, 1.1, 0.9, &a_buf, &u1, &v1, &u2, &v2, &y, &z, &b_out, &x_out, &w_out, &tuning,
    )
    .expect("gemver composition runs");
    let wall = t0.elapsed().as_secs_f64();
    // The same modeled composition cost gemver_streaming uses: component
    // 1 (two GERs + transposed GEMV in pipeline parallel) plus the
    // second GEMV pass.
    let tu = tuning.clamped(n, n);
    let ger = Ger::new(n, n, tu.tn, tu.tm, tu.w);
    let gemv_t = Gemv::new(GemvVariant::TransRowStreamed, n, n, tu.tn, tu.tm, tu.w);
    let gemv2 = Gemv::new(GemvVariant::RowStreamed, n, n, tu.tn, tu.tm, tu.w);
    let comp1 = streamed_cycles(&[ger.cost::<f64>(), ger.cost::<f64>(), gemv_t.cost::<f64>()]);
    Sample {
        elements: report.io_elements,
        model_cycles: comp1 + gemv2.cost::<f64>().cycles(),
        wall,
        result_bits: bits(&w_out.to_host()),
    }
}
