//! DRAM-writing interface modules.

use fblas_hlssim::{default_chunk, ChunkReader, ModuleKind, Receiver, Sender, Simulation};

use crate::host::buffer::DeviceBuffer;
use crate::scalar::Scalar;
use crate::tiling::Tiling;

/// Add an interface module popping `count` elements into `buf`.
///
/// The module fails if the buffer does not hold exactly `count` elements.
pub fn write_vector<T: Scalar>(
    sim: &mut Simulation,
    buf: &DeviceBuffer<T>,
    count: usize,
    rx: Receiver<T>,
) {
    let buf = buf.clone();
    let name = format!("write_{}", buf.name());
    sim.add_module(name.clone(), ModuleKind::Interface, move || {
        if buf.len() != count {
            return Err(fblas_hlssim::SimError::module(
                name,
                format!(
                    "output buffer holds {} elements, expected {count}",
                    buf.len()
                ),
            ));
        }
        let data = rx.pop_n(count)?;
        buf.from_host(&data);
        Ok(())
    });
}

/// Add an interface module popping a single scalar result into `buf[0]`.
pub fn write_scalar<T: Scalar>(sim: &mut Simulation, buf: &DeviceBuffer<T>, rx: Receiver<T>) {
    let buf = buf.clone();
    let name = format!("write_{}", buf.name());
    sim.add_module(name, ModuleKind::Interface, move || {
        let v = rx.pop()?;
        buf.with_write(|d| d[0] = v);
        Ok(())
    });
}

/// Add an interface module popping an `n × m` matrix in the element order
/// of `tiling` and scattering it into the row-major `buf`.
pub fn write_matrix<T: Scalar>(
    sim: &mut Simulation,
    buf: &DeviceBuffer<T>,
    n: usize,
    m: usize,
    tiling: Tiling,
    rx: Receiver<T>,
) {
    let buf = buf.clone();
    let name = format!("write_{}", buf.name());
    sim.add_module(name.clone(), ModuleKind::Interface, move || {
        if buf.len() != n * m {
            return Err(fblas_hlssim::SimError::module(
                name,
                format!(
                    "matrix buffer holds {} elements, expected {}",
                    buf.len(),
                    n * m
                ),
            ));
        }
        let mut out = vec![T::ZERO; n * m];
        let mut rd = ChunkReader::new(&rx);
        for seg in tiling.segments(n, m) {
            for i in seg.indices() {
                out[i] = rd.next()?;
            }
        }
        buf.from_host(&out);
        Ok(())
    });
}

/// Add an interface module consuming and discarding `count` elements —
/// a sink for streams whose values are not needed (scaling studies with
/// generated data, Sec. VI-B).
pub fn sink<T: Scalar>(
    sim: &mut Simulation,
    name: impl Into<String>,
    count: usize,
    rx: Receiver<T>,
) {
    sim.add_module(name.into(), ModuleKind::Interface, move || {
        let chunk = default_chunk();
        let mut buf: Vec<T> = Vec::with_capacity(chunk);
        let mut remaining = count;
        while remaining > 0 {
            buf.clear();
            remaining -= rx.pop_chunk(&mut buf, remaining.min(chunk))?;
        }
        Ok(())
    });
}

/// Replay an updated vector through DRAM: the interface pattern of
/// tiles-by-columns GEMV, where `y` "must be replayed: since each block
/// is updated multiple times, we need to output it and re-read it
/// ⌈M/T_M⌉ times" (paper Sec. III-B).
///
/// The interface streams `initial` once into `to_module`; then
/// `rounds − 1` times re-sends the updated elements arriving on
/// `from_module`; the final round's `n` elements land in `result`.
/// With `rounds == 1` it degenerates to a read-then-write pair.
///
/// DRAM does not backpressure the way a FIFO does: a partial written in
/// round `r` is available for the round-`r+1` read as soon as it lands,
/// element by element. The helper therefore consists of *two* interface
/// modules (the write side and the read side) joined by an internal
/// channel of capacity `n` — the DRAM staging buffer. A single
/// push-everything-then-drain module would deadlock against a consumer
/// that interleaves its pops and pushes block-wise (as the
/// tiles-by-columns GEMV does).
pub fn replay_vector_through_memory<T: Scalar>(
    sim: &mut Simulation,
    initial: &DeviceBuffer<T>,
    result: &DeviceBuffer<T>,
    n: usize,
    rounds: usize,
    to_module: Sender<T>,
    from_module: Receiver<T>,
) {
    assert!(rounds >= 1, "replay needs at least one round");
    let initial = initial.clone();
    let result = result.clone();
    let base = format!("replay_{}", initial.name());
    let (loop_tx, loop_rx) = crate_channel::<T>(sim, n.max(1), format!("{base}_dram"));

    let name_in = format!("{base}_read");
    let init2 = initial.clone();
    sim.add_module(name_in.clone(), ModuleKind::Interface, move || {
        if init2.len() != n {
            return Err(fblas_hlssim::SimError::module(
                name_in,
                format!(
                    "replay initial buffer must hold {n} elements (got {})",
                    init2.len()
                ),
            ));
        }
        to_module.push_slice(&init2.to_host())?;
        // Chunked relay: each popped chunk is forwarded immediately, so
        // no element is withheld from the feedback loop while blocked.
        let chunk = default_chunk();
        let mut buf: Vec<T> = Vec::with_capacity(chunk);
        for _ in 0..rounds - 1 {
            let mut i = 0;
            while i < n {
                buf.clear();
                let got = loop_rx.pop_chunk(&mut buf, (n - i).min(chunk))?;
                to_module.push_chunk(&mut buf)?;
                i += got;
            }
        }
        Ok(())
    });

    let name_out = format!("{base}_write");
    sim.add_module(name_out.clone(), ModuleKind::Interface, move || {
        if result.len() != n {
            return Err(fblas_hlssim::SimError::module(
                name_out,
                format!(
                    "replay result buffer must hold {n} elements (got {})",
                    result.len()
                ),
            ));
        }
        let chunk = default_chunk();
        let mut buf: Vec<T> = Vec::with_capacity(chunk);
        for _ in 0..rounds - 1 {
            let mut i = 0;
            while i < n {
                buf.clear();
                let got = from_module.pop_chunk(&mut buf, (n - i).min(chunk))?;
                loop_tx.push_chunk(&mut buf)?;
                i += got;
            }
        }
        let final_vals = from_module.pop_n(n)?;
        result.from_host(&final_vals);
        Ok(())
    });
}

/// Create a channel against a simulation's context (local alias to keep
/// the helper self-contained).
fn crate_channel<T: Send + 'static>(
    sim: &Simulation,
    capacity: usize,
    name: String,
) -> (Sender<T>, Receiver<T>) {
    fblas_hlssim::channel(sim.ctx(), capacity, name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiling::TileOrder;
    use fblas_hlssim::channel;

    #[test]
    fn vector_writer_stores_stream() {
        let mut sim = Simulation::new();
        let buf = DeviceBuffer::<f32>::zeroed("out", 3, 0);
        let (tx, rx) = channel(sim.ctx(), 4, "ch");
        sim.add_module("src", ModuleKind::Compute, move || {
            tx.push_slice(&[1.0, 2.0, 3.0])
        });
        write_vector(&mut sim, &buf, 3, rx);
        sim.run().unwrap();
        assert_eq!(buf.to_host(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn scalar_writer_stores_one_value() {
        let mut sim = Simulation::new();
        let buf = DeviceBuffer::<f64>::zeroed("res", 1, 0);
        let (tx, rx) = channel(sim.ctx(), 1, "ch");
        sim.add_module("src", ModuleKind::Compute, move || tx.push(42.0));
        write_scalar(&mut sim, &buf, rx);
        sim.run().unwrap();
        assert_eq!(buf.get(0), 42.0);
    }

    #[test]
    fn matrix_writer_inverts_reader_order() {
        let mut sim = Simulation::new();
        let tiling = Tiling::new(1, 1, TileOrder::ColTilesRowMajor);
        let buf = DeviceBuffer::<f32>::zeroed("a", 4, 0);
        let (tx, rx) = channel(sim.ctx(), 4, "ch");
        // Column-order stream of [[1,2],[3,4]] is 1,3,2,4.
        sim.add_module("src", ModuleKind::Compute, move || {
            tx.push_slice(&[1.0, 3.0, 2.0, 4.0])
        });
        write_matrix(&mut sim, &buf, 2, 2, tiling, rx);
        sim.run().unwrap();
        assert_eq!(buf.to_host(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn replay_round_trips_updates() {
        // A compute module that increments every element each round;
        // after 3 rounds the result should be initial + 3.
        let n = 4;
        let rounds = 3;
        let mut sim = Simulation::new();
        let initial = DeviceBuffer::from_vec("y", vec![10.0f64, 20.0, 30.0, 40.0], 0);
        let result = DeviceBuffer::<f64>::zeroed("y_out", n, 0);
        let (tx_in, rx_in) = channel(sim.ctx(), 4, "to_mod");
        let (tx_out, rx_out) = channel(sim.ctx(), 4, "from_mod");
        sim.add_module("incr", ModuleKind::Compute, move || {
            for _ in 0..rounds {
                for _ in 0..n {
                    let v: f64 = rx_in.pop()?;
                    tx_out.push(v + 1.0)?;
                }
            }
            Ok(())
        });
        replay_vector_through_memory(&mut sim, &initial, &result, n, rounds, tx_in, rx_out);
        sim.run().unwrap();
        assert_eq!(result.to_host(), vec![13.0, 23.0, 33.0, 43.0]);
    }

    #[test]
    fn sink_discards() {
        let mut sim = Simulation::new();
        let (tx, rx) = channel(sim.ctx(), 2, "ch");
        sim.add_module("src", ModuleKind::Compute, move || {
            tx.push_iter((0..10).map(|i| i as f32))
        });
        sink(&mut sim, "sink", 10, rx);
        sim.run().unwrap();
    }

    #[test]
    fn wrong_output_size_is_module_error() {
        let mut sim = Simulation::new();
        let buf = DeviceBuffer::<f32>::zeroed("out", 2, 0);
        let (tx, rx) = channel::<f32>(sim.ctx(), 4, "ch");
        drop(tx);
        write_vector(&mut sim, &buf, 5, rx);
        match sim.run() {
            Err(fblas_hlssim::SimError::Module { detail, .. }) => {
                assert!(detail.contains("expected 5"));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }
}
