//! Property-based tests (proptest) on the core invariants:
//! channel FIFO semantics, tiling permutations, streaming routines vs
//! the CPU oracle over random inputs and configurations, and the
//! rotation constructors' algebraic properties.

#![allow(clippy::needless_range_loop)] // explicit indices mirror the math

use proptest::prelude::*;

use fblas_core::routines::gemv::{Gemv, GemvVariant};
use fblas_core::routines::{Dot, Scal};
use fblas_core::tiling::{TileOrder, Tiling};
use fblas_hlssim::{channel, ModuleKind, SimContext, Simulation};
use fblas_refblas as refblas;

// ---------------- channels ----------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// FIFO order is preserved for arbitrary payloads and capacities.
    #[test]
    fn channel_preserves_order(data in prop::collection::vec(any::<u32>(), 0..200), cap in 1usize..32) {
        let ctx = SimContext::new();
        let (tx, rx) = channel::<u32>(&ctx, cap, "ch");
        let expected = data.clone();
        std::thread::scope(|s| {
            s.spawn(move || {
                for v in data {
                    tx.push(v).unwrap();
                }
            });
            let got = rx.drain().unwrap();
            prop_assert_eq!(got, expected);
            Ok(())
        })?;
    }

    /// Occupancy never exceeds capacity.
    #[test]
    fn channel_occupancy_bounded(n in 0usize..300, cap in 1usize..16) {
        let ctx = SimContext::new();
        let (tx, rx) = channel::<usize>(&ctx, cap, "ch");
        std::thread::scope(|s| {
            s.spawn(move || tx.push_iter(0..n).unwrap());
            let v = rx.pop_n(n).unwrap();
            prop_assert_eq!(v.len(), n);
            prop_assert!(rx.stats().max_occupancy <= cap);
            Ok(())
        })?;
    }
}

// ---------------- tiling ----------------

fn tile_order_strategy() -> impl Strategy<Value = TileOrder> {
    prop_oneof![
        Just(TileOrder::RowTilesRowMajor),
        Just(TileOrder::RowTilesColMajor),
        Just(TileOrder::ColTilesRowMajor),
        Just(TileOrder::ColTilesColMajor),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every tiling order yields a permutation of all matrix indices.
    #[test]
    fn stream_indices_is_a_permutation(
        n in 1usize..20,
        m in 1usize..20,
        tn in 1usize..8,
        tm in 1usize..8,
        order in tile_order_strategy(),
    ) {
        let t = Tiling::new(tn, tm, order);
        let idx = t.stream_indices(n, m);
        prop_assert_eq!(idx.len(), n * m);
        let set: std::collections::HashSet<_> = idx.iter().copied().collect();
        prop_assert_eq!(set.len(), n * m);
        for (r, c) in idx {
            prop_assert!(r < n && c < m);
        }
    }

    /// Tiles-by-rows I/O decreases (weakly) as T_N grows.
    #[test]
    fn gemv_io_monotone_in_tile_size(n in 1usize..512, m in 1usize..512, t in 1usize..64) {
        use fblas_core::tiling::gemv_io_tiles_by_rows;
        let small = gemv_io_tiles_by_rows(n, m, t);
        let large = gemv_io_tiles_by_rows(n, m, 2 * t);
        prop_assert!(large <= small);
    }
}

// ---------------- streaming routines vs oracle ----------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Streaming DOT equals the reference dot for arbitrary inputs and
    /// widths.
    #[test]
    fn dot_matches_oracle(
        xs in prop::collection::vec(-100.0f64..100.0, 0..128),
        w in 1usize..32,
    ) {
        let n = xs.len();
        let ys: Vec<f64> = xs.iter().map(|v| v * 0.5 + 1.0).collect();
        let expected = refblas::level1::dot(&xs, &ys);

        let mut sim = Simulation::new();
        let (tx, rx) = channel(sim.ctx(), 64, "x");
        let (ty, ry) = channel(sim.ctx(), 64, "y");
        let (tr, rr) = channel(sim.ctx(), 1, "r");
        let xs2 = xs.clone();
        sim.add_module("sx", ModuleKind::Interface, move || tx.push_slice(&xs2));
        sim.add_module("sy", ModuleKind::Interface, move || ty.push_slice(&ys));
        Dot::new(n, w).attach(&mut sim, rx, ry, tr);
        let out = std::sync::Arc::new(parking_lot_mutex());
        let out2 = out.clone();
        sim.add_module("res", ModuleKind::Interface, move || {
            *out2.lock().unwrap() = rr.pop()?;
            Ok(())
        });
        sim.run().unwrap();
        let got = *out.lock().unwrap();
        prop_assert!((got - expected).abs() < 1e-6 * (1.0 + expected.abs()));
    }

    /// Streaming SCAL equals the reference for arbitrary widths.
    #[test]
    fn scal_matches_oracle(
        xs in prop::collection::vec(-50.0f64..50.0, 0..200),
        alpha in -4.0f64..4.0,
        w in 1usize..16,
    ) {
        let n = xs.len();
        let mut expected = xs.clone();
        refblas::level1::scal(alpha, &mut expected);

        let mut sim = Simulation::new();
        let (tx, rx) = channel(sim.ctx(), 32, "x");
        let (to, ro) = channel(sim.ctx(), 32, "o");
        let xs2 = xs.clone();
        sim.add_module("src", ModuleKind::Interface, move || tx.push_slice(&xs2));
        Scal::new(n, w).attach(&mut sim, alpha, rx, to);
        let out = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let out2 = out.clone();
        sim.add_module("sink", ModuleKind::Interface, move || {
            *out2.lock().unwrap() = ro.pop_n(n)?;
            Ok(())
        });
        sim.run().unwrap();
        let got = out.lock().unwrap().clone();
        prop_assert_eq!(got, expected);
    }

    /// All four GEMV streaming variants agree with the oracle for random
    /// shapes, tiles, and widths.
    #[test]
    fn gemv_variants_match_oracle(
        n in 1usize..14,
        m in 1usize..14,
        tn in 1usize..6,
        tm in 1usize..6,
        w in 1usize..8,
        variant_ix in 0usize..4,
    ) {
        use fblas_core::helpers::writers::replay_vector_through_memory;
        use fblas_core::helpers::{read_matrix, read_vector, read_vector_replayed, write_vector};
        use fblas_core::host::DeviceBuffer;

        let variant = [
            GemvVariant::RowStreamed,
            GemvVariant::ColStreamed,
            GemvVariant::TransRowStreamed,
            GemvVariant::TransColStreamed,
        ][variant_ix];
        let cfg = Gemv::new(variant, n, m, tn, tm, w);

        let a: Vec<f64> = (0..n * m).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let x: Vec<f64> = (0..cfg.x_len()).map(|i| ((i * 5 % 11) as f64) * 0.5).collect();
        let y: Vec<f64> = (0..cfg.y_len()).map(|i| ((i * 3 % 7) as f64) - 3.0).collect();
        let (alpha, beta) = (1.25f64, 0.75f64);

        let rt = if variant.transposed() { refblas::Trans::Yes } else { refblas::Trans::No };
        let mut expected = y.clone();
        refblas::level2::gemv(rt, n, m, alpha, &a, &x, beta, &mut expected);

        let mut sim = Simulation::new();
        let a_buf = DeviceBuffer::from_vec("a", a, 0);
        let x_buf = DeviceBuffer::from_vec("x", x, 0);
        let y_buf = DeviceBuffer::from_vec("y", y, 0);
        let out_buf = DeviceBuffer::<f64>::zeroed("out", cfg.y_len(), 0);
        let (ta, ra) = channel(sim.ctx(), 64, "a");
        let (txv, rxv) = channel(sim.ctx(), 64, "x");
        let (tyi, ryi) = channel(sim.ctx(), 64, "yi");
        let (tyo, ryo) = channel(sim.ctx(), 64, "yo");
        read_matrix(&mut sim, &a_buf, n, m, cfg.a_tiling(), ta, 1);
        read_vector_replayed(&mut sim, &x_buf, txv, cfg.x_repetitions());
        cfg.attach(&mut sim, alpha, beta, ra, rxv, ryi, tyo);
        if cfg.y_rounds() == 1 {
            read_vector(&mut sim, &y_buf, tyi);
            write_vector(&mut sim, &out_buf, cfg.y_len(), ryo);
        } else {
            replay_vector_through_memory(&mut sim, &y_buf, &out_buf, cfg.y_len(), cfg.y_rounds(), tyi, ryo);
        }
        sim.run().unwrap();
        let got = out_buf.to_host();
        for i in 0..got.len() {
            prop_assert!(
                (got[i] - expected[i]).abs() < 1e-9 * (1.0 + expected[i].abs()),
                "{:?} idx {}: {} vs {}", variant, i, got[i], expected[i]
            );
        }
    }
}

fn parking_lot_mutex() -> std::sync::Mutex<f64> {
    std::sync::Mutex::new(0.0)
}

// ---------------- rotations ----------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// rotg produces an orthonormal rotation that annihilates b.
    #[test]
    fn rotg_is_orthonormal(a in -1.0e3f64..1.0e3, b in -1.0e3f64..1.0e3) {
        let g = refblas::level1::rotg(a, b);
        // c² + s² = 1 (unless both inputs are zero).
        if a != 0.0 || b != 0.0 {
            prop_assert!((g.c * g.c + g.s * g.s - 1.0).abs() < 1e-9);
            // Rotation annihilates the second component.
            prop_assert!((-g.s * a + g.c * b).abs() < 1e-8 * (1.0 + a.abs() + b.abs()));
            // r preserves the magnitude.
            prop_assert!((g.r.abs() - (a * a + b * b).sqrt()).abs() < 1e-8 * (1.0 + a.abs() + b.abs()));
        }
    }

    /// rotmg's transform annihilates the second scaled component and
    /// preserves the weighted norm.
    #[test]
    fn rotmg_annihilates(
        d1 in 0.01f64..100.0,
        d2 in 0.01f64..100.0,
        x1 in -10.0f64..10.0,
        y1 in -10.0f64..10.0,
    ) {
        prop_assume!(x1.abs() > 1e-6 && y1.abs() > 1e-6);
        let r = refblas::level1::rotmg(d1, d2, x1, y1);
        let mut xv = [x1];
        let mut yv = [y1];
        refblas::level1::rotm(&mut xv, &mut yv, &r.param);
        prop_assert!(yv[0].abs() < 1e-6 * (1.0 + x1.abs() + y1.abs()),
            "residual {} for ({d1},{d2},{x1},{y1})", yv[0]);
        let before = d1 * x1 * x1 + d2 * y1 * y1;
        let after = r.d1 * r.x1 * r.x1 + r.d2 * yv[0] * yv[0];
        prop_assert!((before - after).abs() < 1e-6 * (1.0 + before.abs()));
    }
}

// ---------------- streaming TRSV vs oracle ----------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Streaming TRSV solves every (uplo, trans, diag) case for random
    /// well-conditioned triangles.
    #[test]
    fn trsv_matches_oracle(
        n in 1usize..12,
        w in 1usize..6,
        case in 0usize..8,
    ) {
        use fblas_core::helpers::{read_vector, write_vector};
        use fblas_core::host::DeviceBuffer;
        use fblas_core::routines::trsv::{read_triangle, Trsv};
        use fblas_core::routines::{Diag, Trans, Uplo};

        let uplo = if case & 1 == 0 { Uplo::Upper } else { Uplo::Lower };
        let trans = if case & 2 == 0 { Trans::No } else { Trans::Yes };
        let diag = if case & 4 == 0 { Diag::NonUnit } else { Diag::Unit };

        // Well-conditioned triangle in full storage.
        let mut a = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..n {
                let stored = match uplo {
                    Uplo::Upper => j >= i,
                    Uplo::Lower => j <= i,
                };
                if stored {
                    a[i * n + j] = 0.05 * ((i * 3 + j * 5) % 7) as f64 + 0.1;
                }
            }
            a[i * n + i] += 2.0;
        }
        let b: Vec<f64> = (0..n).map(|i| ((i * 11 % 13) as f64) - 6.0).collect();

        // Oracle.
        let (ru, rt, rd) = (
            match uplo { Uplo::Upper => refblas::Uplo::Upper, Uplo::Lower => refblas::Uplo::Lower },
            match trans { Trans::No => refblas::Trans::No, Trans::Yes => refblas::Trans::Yes },
            match diag { Diag::Unit => refblas::Diag::Unit, Diag::NonUnit => refblas::Diag::NonUnit },
        );
        let mut expected = b.clone();
        refblas::level2::trsv(ru, rt, rd, n, &a, &mut expected);

        // Streaming module.
        let cfg = Trsv::new(n, w, uplo, trans, diag);
        let mut sim = Simulation::new();
        let a_buf = DeviceBuffer::from_vec("a", a, 0);
        let b_buf = DeviceBuffer::from_vec("b", b, 0);
        let x_buf = DeviceBuffer::<f64>::zeroed("x", n, 0);
        let (ta, ra) = channel(sim.ctx(), 64, "a");
        let (tb, rb) = channel(sim.ctx(), 64, "b");
        let (txx, rxx) = channel(sim.ctx(), 64, "x");
        read_triangle(&mut sim, &a_buf, n, uplo, cfg.reverse_rows(), ta);
        read_vector(&mut sim, &b_buf, tb);
        cfg.attach(&mut sim, ra, rb, txx);
        write_vector(&mut sim, &x_buf, n, rxx);
        sim.run().unwrap();
        let got = x_buf.to_host();
        for i in 0..n {
            prop_assert!(
                (got[i] - expected[i]).abs() < 1e-8 * (1.0 + expected[i].abs()),
                "{uplo:?}/{trans:?}/{diag:?} idx {i}: {} vs {}", got[i], expected[i]
            );
        }
    }
}

// ---------------- codegen total function over valid specs ----------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every syntactically valid spec either generates or returns a
    /// typed error — never panics — and generated estimates are sane.
    #[test]
    fn codegen_never_panics(
        name_ix in 0usize..24,
        prec in 0usize..2,
        width in 0usize..512,
        tiles in proptest::option::of((1usize..256, 1usize..256)),
        uplo_ix in 0usize..3,
        systolic in proptest::option::of((1usize..16, 1usize..16)),
    ) {
        use fblas_core::codegen::{generate, RoutineKind, RoutineSpec};
        let base = if name_ix < 22 {
            let kind = RoutineKind::ALL[name_ix];
            match kind {
                RoutineKind::Sdsdot => "sdsdot".to_string(),
                RoutineKind::Iamax => format!("i{}amax", if prec == 0 { 's' } else { 'd' }),
                _ => format!("{}{}", if prec == 0 { 's' } else { 'd' }, kind.base_name()),
            }
        } else if name_ix == 22 {
            "zgemm".to_string() // unknown precision prefix
        } else {
            "sbogus".to_string() // unknown routine
        };
        let mut spec = RoutineSpec::named(base);
        spec.width = width;
        if let Some((tn, tm)) = tiles {
            spec.tile_n = Some(tn);
            spec.tile_m = Some(tm);
        }
        spec.uplo = match uplo_ix {
            0 => None,
            1 => Some("upper".into()),
            _ => Some("lower".into()),
        };
        if let Some((pr, pc)) = systolic {
            spec.systolic_rows = Some(pr);
            spec.systolic_cols = Some(pc);
        }
        match generate(&spec) {
            Ok(k) => {
                prop_assert!(k.estimate.latency > 0);
                prop_assert!(!k.source.is_empty());
                prop_assert!(k.width >= 1);
            }
            Err(e) => {
                prop_assert!(!e.to_string().is_empty());
            }
        }
    }
}

// ---------------- planner totality ----------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random chains of vector ops always plan into valid components
    /// whose op sets partition the program in topological order.
    #[test]
    fn planner_partitions_random_chains(
        n in 1usize..64,
        ops_code in prop::collection::vec(0usize..3, 1..10),
        allow_deep in proptest::bool::ANY,
    ) {
        use fblas_core::composition::{plan, Op, PlannerConfig, Program};
        let mut p = Program::new();
        p.vector("v0", n);
        p.vector("aux", n);
        let mut prev = "v0".to_string();
        for (i, &code) in ops_code.iter().enumerate() {
            let out = format!("v{}", i + 1);
            p.vector(&out, n);
            let op = match code {
                0 => Op::Copy { x: prev.clone(), out: out.clone() },
                1 => Op::Scal { alpha: 1.5, x: prev.clone(), out: out.clone() },
                _ => Op::Axpy { alpha: 0.5, x: prev.clone(), y: "aux".into(), out: out.clone() },
            };
            p.op(op);
            prev = out;
        }
        let cfg = PlannerConfig { allow_deep_channels: allow_deep, ..Default::default() };
        let plan = plan(&p, &cfg).unwrap();
        // A pure chain is always a single multitree component.
        prop_assert_eq!(plan.components.len(), 1);
        let c = &plan.components[0];
        prop_assert_eq!(c.ops.len(), ops_code.len());
        prop_assert!(c.deep_channels.is_empty());
        prop_assert!(plan.io_elements() > 0);
    }
}

// ---------------- planner + executor vs interpreter ----------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random straight-line programs over the full planner op set,
    /// planned and executed on the dataflow simulator, must agree with
    /// the sequential reference interpreter — for both planner modes.
    #[test]
    fn executed_plans_match_interpreter(
        n in 2usize..10,
        m in 2usize..10,
        op_codes in prop::collection::vec(0usize..6, 1..6),
        tn in 1usize..5,
        tm in 1usize..5,
        allow_deep in proptest::bool::ANY,
    ) {
        use std::collections::HashMap;
        use fblas_core::composition::{
            execute_plan, interpret, plan, ExecOptions, Op, PlannerConfig, Program,
        };
        use fblas_core::host::DeviceBuffer;

        let mut p = Program::new();
        let mut inputs: HashMap<String, Vec<f64>> = HashMap::new();
        let mut buffers: HashMap<String, DeviceBuffer<f64>> = HashMap::new();

        let declare_vec = |p: &mut Program,
                               inputs: &mut HashMap<String, Vec<f64>>,
                               buffers: &mut HashMap<String, DeviceBuffer<f64>>,
                               name: String,
                               len: usize,
                               seed: f64,
                               is_input: bool| {
            p.vector(&name, len);
            let data: Vec<f64> = if is_input {
                (0..len).map(|i| ((i as f64 + seed) * 0.591).sin()).collect()
            } else {
                vec![0.0; len]
            };
            if is_input {
                inputs.insert(name.clone(), data.clone());
            }
            buffers.insert(name.clone(), DeviceBuffer::from_vec(name, data, 0));
        };

        // Seed operands.
        declare_vec(&mut p, &mut inputs, &mut buffers, "vn0".into(), n, 0.0, true);
        declare_vec(&mut p, &mut inputs, &mut buffers, "vm0".into(), m, 1.0, true);
        let a0: Vec<f64> = (0..n * m).map(|i| ((i as f64) * 0.313).cos()).collect();
        p.matrix("A0", n, m);
        inputs.insert("A0".into(), a0.clone());
        buffers.insert("A0".into(), DeviceBuffer::from_vec("A0", a0, 0));

        // Latest operand of each shape, used as inputs for later ops.
        let mut last_n = "vn0".to_string();
        let mut last_m = "vm0".to_string();
        let mut last_mat = "A0".to_string();
        let mut scalar_names = Vec::new();

        for (i, &code) in op_codes.iter().enumerate() {
            match code {
                0 => {
                    let out = format!("c{i}");
                    declare_vec(&mut p, &mut inputs, &mut buffers, out.clone(), n, 0.0, false);
                    p.op(Op::Copy { x: last_n.clone(), out: out.clone() });
                    last_n = out;
                }
                1 => {
                    let out = format!("s{i}");
                    declare_vec(&mut p, &mut inputs, &mut buffers, out.clone(), m, 0.0, false);
                    p.op(Op::Scal { alpha: 1.25, x: last_m.clone(), out: out.clone() });
                    last_m = out;
                }
                2 => {
                    let out = format!("ax{i}");
                    declare_vec(&mut p, &mut inputs, &mut buffers, out.clone(), n, 0.0, false);
                    p.op(Op::Axpy {
                        alpha: -0.5,
                        x: last_n.clone(),
                        y: "vn0".into(),
                        out: out.clone(),
                    });
                    last_n = out;
                }
                3 => {
                    let out = format!("d{i}");
                    p.scalar(&out);
                    p.op(Op::Dot { x: last_n.clone(), y: "vn0".into(), out: out.clone() });
                    scalar_names.push(out);
                }
                4 => {
                    // y_out = A x (length n) or transposed (length m),
                    // alternating to exercise both shapes.
                    if i % 2 == 0 {
                        let out = format!("g{i}");
                        declare_vec(&mut p, &mut inputs, &mut buffers, out.clone(), n, 0.0, false);
                        p.op(Op::Gemv {
                            alpha: 0.75,
                            beta: 0.0,
                            a: last_mat.clone(),
                            transposed: false,
                            x: last_m.clone(),
                            y: None,
                            out: out.clone(),
                        });
                        last_n = out;
                    } else {
                        let out = format!("gt{i}");
                        declare_vec(&mut p, &mut inputs, &mut buffers, out.clone(), m, 0.0, false);
                        p.op(Op::Gemv {
                            alpha: 0.6,
                            beta: 0.0,
                            a: last_mat.clone(),
                            transposed: true,
                            x: last_n.clone(),
                            y: None,
                            out: out.clone(),
                        });
                        last_m = out;
                    }
                }
                _ => {
                    let out = format!("B{i}");
                    p.matrix(&out, n, m);
                    buffers.insert(out.clone(), DeviceBuffer::from_vec(out.clone(), vec![0.0; n * m], 0));
                    // GER's row operand must be DRAM-resident: use the
                    // seed vector, which is always a source.
                    p.op(Op::Ger {
                        alpha: 0.4,
                        a: last_mat.clone(),
                        x: last_n.clone(),
                        y: "vm0".into(),
                        out: out.clone(),
                    });
                    last_mat = out;
                }
            }
        }

        let cfg = PlannerConfig { tn, tm, allow_deep_channels: allow_deep, ..Default::default() };
        let the_plan = plan(&p, &cfg).unwrap();
        let outcome = execute_plan::<f64>(&p, &the_plan, &cfg, &buffers, &ExecOptions::default()).unwrap();
        let expected = interpret(&p, &inputs).unwrap();

        for (name, buf) in &buffers {
            if !expected.contains_key(name) {
                continue;
            }
            let got = buf.to_host();
            let exp = &expected[name];
            for i in 0..got.len() {
                prop_assert!(
                    (got[i] - exp[i]).abs() < 1e-9 * (1.0 + exp[i].abs()),
                    "{name}[{i}]: {} vs {} (plan: {})",
                    got[i],
                    exp[i],
                    the_plan.describe(&p)
                );
            }
        }
        for sn in &scalar_names {
            let got = outcome.scalars[sn];
            let exp = expected[sn][0];
            prop_assert!((got - exp).abs() < 1e-9 * (1.0 + exp.abs()), "{sn}: {got} vs {exp}");
        }
    }
}

// ---------------- reference BLAS self-consistency ----------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Parallel CPU kernels equal the serial ones.
    #[test]
    fn parallel_matches_serial(
        n in 1usize..200,
        threads in 1usize..8,
    ) {
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.73).cos()).collect();
        let serial = refblas::level1::dot(&x, &y);
        let par = refblas::parallel::dot(&x, &y, threads);
        prop_assert!((serial - par).abs() < 1e-9 * (1.0 + serial.abs()));
    }

    /// TRSM really solves: op(A)·X == α·B after trsm(B).
    #[test]
    fn trsm_left_solves(m in 1usize..10, n in 1usize..8) {
        let mut a = vec![0.0f64; m * m];
        for i in 0..m {
            for j in i..m {
                a[i * m + j] = 0.1 + 0.07 * (i + j) as f64;
            }
            a[i * m + i] += 2.0;
        }
        let x: Vec<f64> = (0..m * n).map(|i| ((i % 9) as f64) - 4.0).collect();
        let mut b = vec![0.0f64; m * n];
        refblas::level3::gemm(refblas::Trans::No, refblas::Trans::No, m, n, m, 1.0, &a, &x, 0.0, &mut b);
        refblas::level3::trsm(
            refblas::Side::Left,
            refblas::Uplo::Upper,
            refblas::Trans::No,
            refblas::Diag::NonUnit,
            m, n, 1.0, &a, &mut b,
        );
        for i in 0..m * n {
            prop_assert!((b[i] - x[i]).abs() < 1e-7 * (1.0 + x[i].abs()));
        }
    }
}
