//! Chunked-transport semantics: the batched channel primitives must be
//! observationally identical to element-wise transfers — same element
//! sequences, same `ChannelStats`, and the same stall forensics when a
//! composition deadlocks mid-chunk.

use fblas_hlssim::{channel, ChannelStats, ModuleKind, SimError, Simulation, WaitDirection};

/// A chunk larger than the FIFO splits at capacity and blocks; with no
/// consumer making progress the simulator must declare a stall,
/// with the producer registered in the wait-for graph as blocked on the
/// full channel.
#[test]
fn chunk_split_at_capacity_is_seen_by_watchdog_as_stall() {
    let mut sim = Simulation::new();
    let (tx, rx) = channel::<u32>(sim.ctx(), 4, "narrow");
    let (never_tx, never_rx) = channel::<u8>(sim.ctx(), 1, "never");

    sim.add_module("bulk_producer", ModuleKind::Compute, move || {
        let mut buf: Vec<u32> = (0..64).collect();
        tx.push_chunk(&mut buf)?; // 4 transfer, 60 wait forever
        never_tx.push(1)?; // unreachable; keeps `never`'s sender alive
        Ok(())
    });
    // The consumer drains a little, then blocks on a channel nobody
    // feeds — progress stops with the producer mid-chunk.
    sim.add_module("stuck_consumer", ModuleKind::Compute, move || {
        let mut out = Vec::new();
        while out.len() < 2 {
            rx.pop_chunk(&mut out, 2)?;
        }
        never_rx.pop()?; // never arrives
        Ok(())
    });

    match sim.run() {
        Err(SimError::Stall { report }) => {
            let b = report
                .blocked_on("bulk_producer")
                .expect("producer must appear in the wait-for graph");
            assert_eq!(b.channel, "narrow");
            assert_eq!(b.direction, WaitDirection::Full);
            assert_eq!(b.occupancy, b.capacity, "blocked on a full FIFO");
            assert!(report.blocked_on("stuck_consumer").is_some());
        }
        other => panic!("expected stall, got {other:?}"),
    }
}

/// Element-wise and chunked transfers of the same seeded stream must
/// produce identical `ChannelStats` — including the stall counters —
/// when the transfer schedule is deterministic (single thread, bursts
/// bounded by capacity, drained between bursts).
#[test]
fn elementwise_and_chunked_stats_are_identical_on_seeded_streams() {
    const CAP: usize = 16;
    let data: Vec<u64> = (0..4096u64).map(|i| i.wrapping_mul(0x9e3779b9)).collect();
    // Deterministic burst sizes seeded from the data itself.
    let bursts: Vec<usize> = data.iter().map(|v| (*v as usize % CAP) + 1).collect();

    let run = |chunked: bool| -> (ChannelStats, Vec<u64>) {
        let ctx = fblas_hlssim::SimContext::new();
        let (tx, rx) = channel::<u64>(&ctx, CAP, "seeded");
        let mut got = Vec::with_capacity(data.len());
        let mut it = data.iter().copied();
        'outer: for &burst in &bursts {
            let mut chunk: Vec<u64> = Vec::with_capacity(burst);
            for _ in 0..burst {
                match it.next() {
                    Some(v) => chunk.push(v),
                    None => break,
                }
            }
            if chunk.is_empty() {
                break 'outer;
            }
            let want = chunk.len();
            if chunked {
                tx.push_chunk(&mut chunk).unwrap();
                let n0 = got.len();
                while got.len() - n0 < want {
                    let need = want - (got.len() - n0);
                    rx.pop_chunk(&mut got, need).unwrap();
                }
            } else {
                for v in chunk {
                    tx.push(v).unwrap();
                }
                for _ in 0..want {
                    got.push(rx.pop().unwrap());
                }
            }
        }
        (rx.stats(), got)
    };

    let (st_elem, got_elem) = run(false);
    let (st_chunk, got_chunk) = run(true);
    assert_eq!(got_elem, got_chunk, "same element sequence");
    assert_eq!(got_elem.len(), data.len());
    assert_eq!(st_elem, st_chunk, "all four stat counters identical");
    assert_eq!(st_elem.transferred, data.len() as u64);
    assert_eq!(st_elem.full_stalls, 0, "bursts never exceed capacity");
    assert_eq!(st_elem.empty_stalls, 0, "pops only after pushes");
    assert!(st_elem.max_occupancy <= CAP);
}

/// The watchdog's progress epoch counts elements, not lock rounds: a
/// full composition moved through chunked helpers reports the same
/// transfer totals as the element-wise implementation would.
#[test]
fn simulation_report_transfer_totals_count_elements_not_chunks() {
    let n = 10_000u64;
    let mut sim = Simulation::new();
    let (tx, rx) = channel::<u64>(sim.ctx(), 64, "bulk");
    sim.add_module("src", ModuleKind::Interface, move || tx.push_iter(0..n));
    sim.add_module("sink", ModuleKind::Interface, move || {
        let got = rx.pop_n(n as usize)?;
        assert_eq!(got.len(), n as usize);
        Ok(())
    });
    let report = sim.run().unwrap();
    // One push + one pop per element.
    assert_eq!(report.transfers, 2 * n);
}
