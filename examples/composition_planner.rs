//! Automatic composition planning — the paper's future work
//! ("a full general case analysis of MDAGs, deriving valid FBLAS
//! compositions", Sec. VIII) implemented.
//!
//! Describe a linear-algebra program over named operands; the planner
//! chooses GEMV streaming variants, validates the MDAG, and either
//! derives the required channel depths or splits the program into
//! sequential multitree components communicating through DRAM.
//!
//! ```text
//! cargo run --release --example composition_planner
//! ```

use std::collections::HashMap;

use fblas_core::composition::{execute_plan, plan, ExecOptions, Op, PlannerConfig, Program};
use fblas_core::host::DeviceBuffer;

fn main() {
    let n = 4096usize;

    // ---------------- ATAX: y = A^T (A x) ----------------
    let mut atax = Program::new();
    atax.matrix("A", n, n)
        .vector("x", n)
        .vector("t", n)
        .vector("y", n);
    atax.op(Op::Gemv {
        alpha: 1.0,
        beta: 0.0,
        a: "A".into(),
        transposed: false,
        x: "x".into(),
        y: None,
        out: "t".into(),
    });
    atax.op(Op::Gemv {
        alpha: 1.0,
        beta: 0.0,
        a: "A".into(),
        transposed: true,
        x: "t".into(),
        y: None,
        out: "y".into(),
    });

    println!("=== ATAX, deep channels forbidden (paper fix b) ===");
    let p = plan(&atax, &PlannerConfig::default()).unwrap();
    print!("{}", p.describe(&atax));
    println!("total off-chip I/O: {} elements\n", p.io_elements());

    println!("=== ATAX, deep channels allowed (paper fix a) ===");
    let cfg = PlannerConfig {
        allow_deep_channels: true,
        ..Default::default()
    };
    let p = plan(&atax, &cfg).unwrap();
    print!("{}", p.describe(&atax));
    println!("total off-chip I/O: {} elements\n", p.io_elements());

    // ---------------- GEMVER (paper Fig. 9) ----------------
    let mut gemver = Program::new();
    gemver
        .matrix("A", n, n)
        .matrix("B1", n, n)
        .matrix("B", n, n);
    for v in ["u1", "v1", "u2", "v2", "y", "z", "x", "w"] {
        gemver.vector(v, n);
    }
    gemver.op(Op::Ger {
        alpha: 1.0,
        a: "A".into(),
        x: "u1".into(),
        y: "v1".into(),
        out: "B1".into(),
    });
    gemver.op(Op::Ger {
        alpha: 1.0,
        a: "B1".into(),
        x: "u2".into(),
        y: "v2".into(),
        out: "B".into(),
    });
    gemver.op(Op::Gemv {
        alpha: 0.9,
        beta: 1.0,
        a: "B".into(),
        transposed: true,
        x: "y".into(),
        y: Some("z".into()),
        out: "x".into(),
    });
    gemver.op(Op::Gemv {
        alpha: 1.1,
        beta: 0.0,
        a: "B".into(),
        transposed: false,
        x: "x".into(),
        y: None,
        out: "w".into(),
    });

    println!("=== GEMVER: the planner rediscovers the paper's Fig. 9 schedule ===");
    let p = plan(&gemver, &PlannerConfig::default()).unwrap();
    print!("{}", p.describe(&gemver));
    println!(
        "total off-chip I/O: {} elements (host layer: {} = 8N^2 + 10N)\n",
        p.io_elements(),
        8 * (n as u64) * (n as u64) + 10 * n as u64
    );

    // ---------------- Derive AND run ----------------
    // The executor instantiates each planned component on the dataflow
    // simulator — deriving a valid composition is not just analysis.
    println!("=== Executing the derived AXPYDOT plan on the simulator ===");
    let en = 512usize;
    let mut prog = Program::new();
    prog.vector("w", en)
        .vector("v", en)
        .vector("u", en)
        .vector("z", en)
        .scalar("beta");
    prog.op(Op::Axpy {
        alpha: -0.5,
        x: "v".into(),
        y: "w".into(),
        out: "z".into(),
    });
    prog.op(Op::Dot {
        x: "z".into(),
        y: "u".into(),
        out: "beta".into(),
    });
    let cfg = PlannerConfig {
        tn: 64,
        tm: 64,
        ..Default::default()
    };
    let the_plan = plan(&prog, &cfg).unwrap();

    let mut bufs: HashMap<String, DeviceBuffer<f32>> = HashMap::new();
    bufs.insert("w".into(), DeviceBuffer::from_vec("w", vec![2.0; en], 0));
    bufs.insert("v".into(), DeviceBuffer::from_vec("v", vec![1.0; en], 1));
    bufs.insert("u".into(), DeviceBuffer::from_vec("u", vec![3.0; en], 2));
    bufs.insert("z".into(), DeviceBuffer::from_vec("z", vec![0.0; en], 3));

    let out = execute_plan::<f32>(&prog, &the_plan, &cfg, &bufs, &ExecOptions::default()).unwrap();
    // z = 2 - 0.5*1 = 1.5 everywhere; beta = 1.5 * 3 * 512.
    println!("z[0] = {} (expected 1.5)", bufs["z"].get(0));
    println!(
        "beta = {} (expected {})",
        out.scalars["beta"],
        1.5 * 3.0 * en as f32
    );
}
