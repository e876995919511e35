//! No lost wake-ups: a parked channel waiter is woken by its peer's
//! transfer, never by its timed re-check.
//!
//! Transfers notify the condvar only when the other side is parked, so a
//! miscounted parked side would leave a waiter asleep until its wait
//! slice expires. This binary sets `FBLAS_WAIT_SLICE_US` to 60 s before
//! the first channel exists, so the timed re-check cannot mask a skipped
//! notify: a lost wake-up freezes the pipeline and surfaces as a stall
//! or deadline error instead of a 2 ms hiccup.
//!
//! Each test streams 10^5 elements through a depth-1 and a depth-64
//! channel, mixing `push`, `push_chunk`, `pop` and `pop_chunk`, and
//! checks element order and counts.

use std::sync::Once;
use std::time::Duration;

use fblas_hlssim::{channel, ModuleKind, SimError, Simulation};

const N: u64 = 100_000;

/// Far above any healthy run; only a hang reaches it.
const DEADLINE: Duration = Duration::from_secs(600);

fn long_wait_slice() {
    static INIT: Once = Once::new();
    INIT.call_once(|| std::env::set_var("FBLAS_WAIT_SLICE_US", "60000000"));
    assert_eq!(fblas_hlssim::env::wait_slice(), Duration::from_secs(60));
}

/// How a module moves elements through a channel end.
#[derive(Clone, Copy, Debug)]
enum Style {
    Element,
    Chunk(usize),
}

/// `src` → `narrow` (depth 1) → `relay` → `wide` (depth 64) → `sink`,
/// with `src`, the relay and the sink each using their own style. A
/// chunked relay pushes everything its last `pop_chunk` took.
fn stream(src: Style, relay: Style, sink: Style) -> Result<(), SimError> {
    long_wait_slice();
    let mut sim = Simulation::new();
    sim.set_deadline(DEADLINE);
    let (tx_n, rx_n) = channel::<u64>(sim.ctx(), 1, "narrow");
    let (tx_w, rx_w) = channel::<u64>(sim.ctx(), 64, "wide");
    sim.add_module("src", ModuleKind::Interface, move || {
        match src {
            Style::Element => (0..N).try_for_each(|i| tx_n.push(i))?,
            Style::Chunk(c) => {
                let mut buf = Vec::with_capacity(c);
                for start in (0..N).step_by(c) {
                    buf.extend(start..(start + c as u64).min(N));
                    tx_n.push_chunk(&mut buf)?;
                }
            }
        }
        Ok(())
    });
    sim.add_module("relay", ModuleKind::Compute, move || {
        let mut moved = 0u64;
        let mut buf = Vec::new();
        while moved < N {
            match relay {
                Style::Element => {
                    let v = rx_n.pop()?;
                    tx_w.push(v)?;
                    moved += 1;
                }
                Style::Chunk(c) => {
                    moved += rx_n.pop_chunk(&mut buf, c)? as u64;
                    tx_w.push_chunk(&mut buf)?;
                }
            }
        }
        Ok(())
    });
    sim.add_module("sink", ModuleKind::Interface, move || {
        let mut got = Vec::with_capacity(N as usize);
        while (got.len() as u64) < N {
            match sink {
                Style::Element => got.push(rx_w.pop()?),
                Style::Chunk(c) => {
                    rx_w.pop_chunk(&mut got, c)?;
                }
            }
        }
        assert_eq!(got.len() as u64, N, "sink count");
        assert!(
            got.iter().zip(0..N).all(|(&v, i)| v == i),
            "elements out of order"
        );
        assert!(
            matches!(rx_w.pop(), Err(SimError::Disconnected { .. })),
            "nothing beyond the stream"
        );
        Ok(())
    });
    let report = sim.run()?;
    for (name, st) in &report.channel_stats {
        assert_eq!(st.transferred, N, "{name} transferred");
    }
    Ok(())
}

#[test]
fn element_ops_on_both_depths() {
    stream(Style::Element, Style::Element, Style::Element).expect("element-wise stream completes");
}

#[test]
fn chunk_ops_on_both_depths() {
    stream(Style::Chunk(64), Style::Chunk(7), Style::Chunk(256)).expect("chunked stream completes");
}

#[test]
fn element_pushes_into_chunk_pops() {
    // narrow: push → pop_chunk; wide: push_chunk → pop.
    stream(Style::Element, Style::Chunk(5), Style::Element).expect("mixed stream completes");
}

#[test]
fn chunk_pushes_into_element_pops() {
    // narrow: push_chunk → pop; wide: push → pop_chunk.
    stream(Style::Chunk(256), Style::Element, Style::Chunk(3)).expect("mixed stream completes");
}
