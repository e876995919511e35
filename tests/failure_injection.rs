//! Failure injection: the simulation substrate and host API must
//! surface broken configurations as typed errors — never hangs, never
//! silent corruption.

use fblas_arch::Device;
use fblas_core::host::{blas, DeviceBuffer, Fpga};
use fblas_core::routines::{Dot, Scal};
use fblas_hlssim::{channel, ModuleKind, SimError, Simulation};
use std::time::{Duration, Instant};

#[test]
fn undercounting_producer_is_a_disconnect() {
    // Module expects 100 elements; producer sends 60.
    let mut sim = Simulation::new();
    let (tx, rx) = channel::<f32>(sim.ctx(), 16, "short_stream");
    let (tr, rr) = channel::<f32>(sim.ctx(), 1, "res");
    sim.add_module("src", ModuleKind::Interface, move || {
        tx.push_iter((0..60).map(|i| i as f32))
    });
    // Second operand: a generator that also stops early — the first
    // disconnect wins either way.
    let (ty, ry) = channel::<f32>(sim.ctx(), 16, "y");
    sim.add_module("src_y", ModuleKind::Interface, move || {
        ty.push_iter((0..60).map(|_| 1.0f32))
    });
    Dot::new(100, 4).attach(&mut sim, rx, ry, tr);
    drop(rr);
    match sim.run() {
        Err(SimError::Disconnected { channel }) => {
            assert!(channel == "short_stream" || channel == "y");
        }
        other => panic!("unexpected: {other:?}"),
    }
}

#[test]
fn overcounting_producer_blocks_then_disconnects() {
    // Producer sends 100; consumer takes 50 and exits: the producer
    // must observe the dropped receiver, not hang.
    let mut sim = Simulation::new();
    let (tx, rx) = channel::<f32>(sim.ctx(), 8, "over");
    sim.add_module("src", ModuleKind::Interface, move || {
        tx.push_iter((0..100).map(|i| i as f32))
    });
    sim.add_module("sink", ModuleKind::Compute, move || {
        let _ = rx.pop_n(50)?;
        Ok(())
    });
    match sim.run() {
        Err(SimError::Disconnected { channel }) => assert_eq!(channel, "over"),
        other => panic!("unexpected: {other:?}"),
    }
}

#[test]
fn module_panic_reported_and_never_hangs() {
    let start = Instant::now();
    let mut sim = Simulation::new();
    let (tx, rx) = channel::<f32>(sim.ctx(), 4, "ch");
    sim.add_module("panicker", ModuleKind::Compute, move || {
        let _ = &tx;
        panic!("injected failure");
    });
    sim.add_module("waiter", ModuleKind::Compute, move || {
        // Waits on the panicker's channel; the drop must wake it.
        match rx.pop() {
            Err(_) => Ok(()),
            Ok(_) => Err(SimError::module("waiter", "unexpected data")),
        }
    });
    match sim.run() {
        Err(SimError::Module { module, detail }) => {
            assert_eq!(module, "panicker");
            assert!(detail.contains("panicked"));
        }
        other => panic!("unexpected: {other:?}"),
    }
    assert!(start.elapsed() < Duration::from_secs(10), "must not hang");
}

#[test]
fn external_poison_cancels_a_running_simulation() {
    let mut sim = Simulation::new();
    let ctx = sim.ctx().clone();
    let (tx, rx) = channel::<u64>(sim.ctx(), 1, "slow");
    sim.add_module("src", ModuleKind::Interface, move || {
        // Pushes forever (capacity 1, consumer slower).
        let mut i = 0u64;
        loop {
            tx.push(i)?;
            i += 1;
        }
    });
    sim.add_module("sink", ModuleKind::Compute, move || loop {
        let _ = rx.pop()?;
    });
    // Cancel from outside after a moment.
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(50));
        ctx.poison();
    });
    match sim.run() {
        // Both modules exit with Poisoned, which the runner treats as a
        // cascade; with no primary failure the run errors with the first
        // non-poison error... here there is none, so the cascade itself
        // must not be reported as success.
        Ok(report) => panic!("poisoned run must not succeed: {report:?}"),
        Err(e) => {
            // Either a stall (if the watchdog saw the freeze first) or a
            // propagated poison-induced disconnect.
            let msg = e.to_string();
            assert!(!msg.is_empty());
        }
    }
    killer.join().unwrap();
}

#[test]
#[should_panic(expected = "gemv: A must be n*m")]
fn host_api_rejects_wrong_buffer_sizes_up_front() {
    let fpga = Fpga::new(Device::Stratix10Gx2800);
    // GEMV with an A buffer of the wrong size: the host layer checks
    // dimensions before building the module graph (API misuse is a
    // programming error, like passing a bad `lda` to classic BLAS).
    let a = fpga.alloc_from("a", vec![1.0f32; 9]); // claims 4x4 below
    let x = fpga.alloc_from("x", vec![1.0f32; 4]);
    let y = fpga.alloc_from("y", vec![0.0f32; 4]);
    let _ = blas::gemv(
        &fpga,
        fblas_core::routines::Trans::No,
        4,
        4,
        1.0,
        &a,
        &x,
        0.0,
        &y,
        &fblas_core::host::GemvTuning::new(2, 2, 2),
    );
}

#[test]
fn mid_graph_size_mismatch_is_a_module_error() {
    // When the mismatch is only visible inside the dataflow (a reader
    // asked to stream more than its buffer holds), it surfaces as a
    // typed module error rather than a panic or a hang.
    let mut sim = Simulation::new();
    let buf = DeviceBuffer::from_vec("a", vec![1.0f32; 9], 0);
    let (ta, ra) = channel::<f32>(sim.ctx(), 8, "a");
    fblas_core::helpers::read_matrix(
        &mut sim,
        &buf,
        4,
        4,
        fblas_core::tiling::Tiling::new(2, 2, fblas_core::tiling::TileOrder::RowTilesRowMajor),
        ta,
        1,
    );
    drop(ra);
    match sim.run() {
        Err(SimError::Module { detail, .. }) => assert!(detail.contains("expected 16")),
        other => panic!("unexpected: {other:?}"),
    }
}

#[test]
fn scal_on_empty_buffer_is_fine() {
    let fpga = Fpga::new(Device::Arria10Gx1150);
    let x = fpga.alloc_from("x", Vec::<f64>::new());
    let t = blas::scal(&fpga, 2.0, &x, 8).unwrap();
    assert!(t.seconds >= 0.0);
    assert!(x.to_host().is_empty());
}

#[test]
fn stall_detection_bounded_even_with_many_modules() {
    // A ring of N modules each waiting on the previous one: genuinely
    // deadlocked; the last module to park must declare it regardless
    // of module count.
    let n = 24usize;
    let start = Instant::now();
    let mut sim = Simulation::new();
    let mut senders = Vec::new();
    let mut receivers = Vec::new();
    for i in 0..n {
        let (t, r) = channel::<u8>(sim.ctx(), 1, format!("ring{i}"));
        senders.push(Some(t));
        receivers.push(Some(r));
    }
    for i in 0..n {
        let rx = receivers[i].take().unwrap();
        let tx = senders[(i + 1) % n].take().unwrap();
        sim.add_module(format!("node{i}"), ModuleKind::Compute, move || {
            let v = rx.pop()?; // nobody ever sends first
            tx.push(v)?;
            Ok(())
        });
    }
    match sim.run() {
        Err(SimError::Stall { .. }) => {}
        other => panic!("expected stall, got {other:?}"),
    }
    assert!(start.elapsed() < Duration::from_secs(10));
}

#[test]
fn disconnect_in_one_branch_fails_the_whole_composition() {
    // AXPY feeding DOT, but the DOT's second operand dies early: the
    // error must propagate through the composition, not deadlock it.
    let n = 64;
    let mut sim = Simulation::new();
    let (tw, rw) = channel::<f64>(sim.ctx(), 8, "w");
    let (tv, rv) = channel::<f64>(sim.ctx(), 8, "v");
    let (tz, rz) = channel::<f64>(sim.ctx(), 8, "z");
    let (tu, ru) = channel::<f64>(sim.ctx(), 8, "u_short");
    let (tb, rb) = channel::<f64>(sim.ctx(), 1, "beta");
    sim.add_module("read_w", ModuleKind::Interface, move || {
        tw.push_iter((0..n).map(|i| i as f64))
    });
    sim.add_module("read_v", ModuleKind::Interface, move || {
        tv.push_iter((0..n).map(|i| i as f64))
    });
    sim.add_module("read_u", ModuleKind::Interface, move || {
        tu.push_iter((0..n / 2).map(|i| i as f64)) // too short!
    });
    fblas_core::routines::Axpy::new(n, 4).attach(&mut sim, -1.0, rv, rw, tz);
    Dot::new(n, 4).attach(&mut sim, rz, ru, tb);
    drop(rb);
    match sim.run() {
        // The root cause is `u_short`, but the disconnect cascades
        // backwards through the pipeline (dot drops z, axpy drops w/v);
        // whichever module's error is collected first names its own
        // channel. Any of the cascade channels is a correct report.
        Err(SimError::Disconnected { channel }) => {
            assert!(
                ["u_short", "z", "w", "v"].contains(&channel.as_str()),
                "{channel}"
            );
        }
        other => panic!("unexpected: {other:?}"),
    }
}

#[test]
fn device_buffer_isolation_between_failed_runs() {
    // A failed run must not corrupt buffers it never wrote.
    let buf = DeviceBuffer::from_vec("keep", vec![1.0f32, 2.0, 3.0], 0);
    let mut sim = Simulation::new();
    let (tx, rx) = channel::<f32>(sim.ctx(), 2, "ch");
    let b2 = buf.clone();
    sim.add_module("would_write", ModuleKind::Interface, move || {
        let v = rx.pop_n(3)?; // producer dies after 1
        b2.from_host(&v);
        Ok(())
    });
    sim.add_module("dies", ModuleKind::Interface, move || {
        tx.push(9.0)?;
        Err(SimError::module("dies", "injected"))
    });
    assert!(sim.run().is_err());
    assert_eq!(buf.to_host(), vec![1.0, 2.0, 3.0], "buffer untouched");
}

#[test]
fn width_larger_than_problem_still_correct() {
    // Degenerate configuration: W far beyond N.
    let mut sim = Simulation::new();
    let (tx, rx) = channel::<f64>(sim.ctx(), 4, "x");
    let (to, ro) = channel::<f64>(sim.ctx(), 4, "o");
    sim.add_module("src", ModuleKind::Interface, move || {
        tx.push_slice(&[1.0, 2.0, 3.0])
    });
    Scal::new(3, 1024).attach(&mut sim, 2.0, rx, to);
    let out = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let out2 = out.clone();
    sim.add_module("sink", ModuleKind::Interface, move || {
        *out2.lock().unwrap() = ro.pop_n(3)?;
        Ok(())
    });
    sim.run().unwrap();
    assert_eq!(*out.lock().unwrap(), vec![2.0, 4.0, 6.0]);
}

#[test]
fn alveo_device_models_are_coherent() {
    // The future-work device obeys the same invariants as the paper's.
    let m = Device::AlveoU280.model();
    assert!(m.available.alms <= m.total.alms);
    assert!(m.dram_banks == 32, "HBM pseudo-channels");
    assert!(m.total_dram_bandwidth() > 4.0 * 19.2e9, "HBM beats 4xDDR");
    // Host API works on it end to end.
    let fpga = Fpga::new(Device::AlveoU280);
    let x = fpga.alloc_from("x", vec![2.0f32; 128]);
    let y = fpga.alloc_from("y", vec![3.0f32; 128]);
    let (d, t) = blas::dot(&fpga, &x, &y, 16).unwrap();
    assert_eq!(d, 768.0);
    assert!(t.freq_hz > 200.0e6);
}
