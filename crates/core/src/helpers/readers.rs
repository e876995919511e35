//! DRAM-reading interface modules.

use fblas_hlssim::{ModuleKind, Sender, Simulation};

use crate::host::buffer::DeviceBuffer;
use crate::scalar::Scalar;
use crate::tiling::Tiling;

/// Add an interface module streaming the contents of `buf` once.
pub fn read_vector<T: Scalar>(sim: &mut Simulation, buf: &DeviceBuffer<T>, tx: Sender<T>) {
    read_vector_replayed(sim, buf, tx, 1);
}

/// Add an interface module streaming the contents of `buf` `repetitions`
/// times back to back, in place: the module holds a read guard on the
/// buffer while it streams (see [`read_matrix`]).
///
/// Replaying from DRAM is how a vector operand is re-sent when a routine's
/// tiling requires it (e.g. `x` in tiles-by-rows GEMV is replayed
/// `⌈N/T_N⌉` times, Sec. III-B). Only *interface* modules may replay —
/// a computational module cannot re-produce its own output stream
/// (Sec. V, edge-validity condition 1).
pub fn read_vector_replayed<T: Scalar>(
    sim: &mut Simulation,
    buf: &DeviceBuffer<T>,
    tx: Sender<T>,
    repetitions: usize,
) {
    let buf = buf.clone();
    let name = format!("read_{}", buf.name());
    sim.add_module(name, ModuleKind::Interface, move || {
        let data = buf.read();
        for _ in 0..repetitions {
            tx.push_slice(&data)?;
        }
        Ok(())
    });
}

/// Add an interface module streaming an `n × m` row-major matrix from
/// `buf` in the element order of `tiling`, `repetitions` times.
///
/// The module streams in place, holding a read guard on the buffer
/// until its last push. A writer of the same storage in the same
/// simulation (an in-place host routine, such as `ger` reading and
/// writing `A`) waits on that lock. Every writer module takes its write
/// lock as its last step, after its last channel operation, so a writer
/// waiting on the lock holds up no channel.
///
/// # Panics (inside the module)
/// The module fails if `buf` does not hold exactly `n·m` elements.
pub fn read_matrix<T: Scalar>(
    sim: &mut Simulation,
    buf: &DeviceBuffer<T>,
    n: usize,
    m: usize,
    tiling: Tiling,
    tx: Sender<T>,
    repetitions: usize,
) {
    let buf = buf.clone();
    let name = format!("read_{}", buf.name());
    sim.add_module(name.clone(), ModuleKind::Interface, move || {
        let data = buf.read();
        if data.len() != n * m {
            return Err(fblas_hlssim::SimError::module(
                name,
                format!(
                    "matrix buffer holds {} elements, expected {}",
                    data.len(),
                    n * m
                ),
            ));
        }
        // Source module: gather each chunk from the tile order, walked
        // run by run, and push it in one batched transfer.
        let chunk = fblas_hlssim::default_chunk();
        let mut out: Vec<T> = Vec::with_capacity(chunk);
        for _ in 0..repetitions {
            for seg in tiling.segments(n, m) {
                for i in seg.indices() {
                    out.push(data[i]);
                    if out.len() == chunk {
                        tx.push_chunk(&mut out)?;
                    }
                }
            }
            tx.push_chunk(&mut out)?;
        }
        Ok(())
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiling::TileOrder;
    use fblas_hlssim::channel;

    #[test]
    fn vector_reader_streams_contents() {
        let mut sim = Simulation::new();
        let buf = DeviceBuffer::from_vec("x", vec![1.0f32, 2.0, 3.0], 0);
        let (tx, rx) = channel(sim.ctx(), 8, "ch");
        read_vector(&mut sim, &buf, tx);
        sim.add_module("check", ModuleKind::Compute, move || {
            assert_eq!(rx.pop_n(3)?, vec![1.0, 2.0, 3.0]);
            Ok(())
        });
        sim.run().unwrap();
    }

    #[test]
    fn replay_sends_multiple_rounds() {
        let mut sim = Simulation::new();
        let buf = DeviceBuffer::from_vec("x", vec![7.0f64, 8.0], 0);
        let (tx, rx) = channel(sim.ctx(), 2, "ch");
        read_vector_replayed(&mut sim, &buf, tx, 3);
        sim.add_module("check", ModuleKind::Compute, move || {
            assert_eq!(rx.pop_n(6)?, vec![7.0, 8.0, 7.0, 8.0, 7.0, 8.0]);
            Ok(())
        });
        sim.run().unwrap();
    }

    #[test]
    fn matrix_reader_respects_tile_order() {
        let mut sim = Simulation::new();
        // 2x2 matrix [[1,2],[3,4]] streamed with 1x1 tiles by columns:
        // 1, 3, 2, 4.
        let buf = DeviceBuffer::from_vec("a", vec![1.0f32, 2.0, 3.0, 4.0], 0);
        let (tx, rx) = channel(sim.ctx(), 4, "ch");
        read_matrix(
            &mut sim,
            &buf,
            2,
            2,
            Tiling::new(1, 1, TileOrder::ColTilesRowMajor),
            tx,
            1,
        );
        sim.add_module("check", ModuleKind::Compute, move || {
            assert_eq!(rx.pop_n(4)?, vec![1.0, 3.0, 2.0, 4.0]);
            Ok(())
        });
        sim.run().unwrap();
    }

    #[test]
    fn matrix_reader_and_writer_follow_every_tile_order() {
        let (n, m) = (5, 7);
        let data: Vec<f64> = (0..n * m).map(|i| i as f64).collect();
        for order in [
            TileOrder::RowTilesRowMajor,
            TileOrder::RowTilesColMajor,
            TileOrder::ColTilesRowMajor,
            TileOrder::ColTilesColMajor,
        ] {
            // Ragged edge tiles on both axes.
            let tiling = Tiling::new(2, 3, order);
            let want: Vec<f64> = tiling
                .stream_indices(n, m)
                .into_iter()
                .map(|(r, c)| (r * m + c) as f64)
                .collect();
            let mut sim = Simulation::new();
            let src = DeviceBuffer::from_vec("a", data.clone(), 0);
            let dst = DeviceBuffer::<f64>::zeroed("b", n * m, 0);
            let (tx, rx) = channel(sim.ctx(), 4, "ch");
            let (tx_b, rx_b) = channel(sim.ctx(), 4, "ch_b");
            read_matrix(&mut sim, &src, n, m, tiling, tx, 2);
            sim.add_module("check", ModuleKind::Compute, move || {
                assert_eq!(rx.pop_n(n * m)?, want, "{order:?} first round");
                let second = rx.pop_n(n * m)?;
                assert_eq!(second, want, "{order:?} replayed round");
                tx_b.push_slice(&second)
            });
            crate::helpers::writers::write_matrix(&mut sim, &dst, n, m, tiling, rx_b);
            sim.run().unwrap();
            assert_eq!(dst.to_host(), data, "{order:?}: writer inverts the reader");
        }
    }

    #[test]
    fn wrong_matrix_size_is_module_error() {
        let mut sim = Simulation::new();
        let buf = DeviceBuffer::from_vec("a", vec![1.0f32; 3], 0);
        let (tx, rx) = channel::<f32>(sim.ctx(), 4, "ch");
        read_matrix(
            &mut sim,
            &buf,
            2,
            2,
            Tiling::new(2, 2, TileOrder::RowTilesRowMajor),
            tx,
            1,
        );
        drop(rx);
        match sim.run() {
            Err(fblas_hlssim::SimError::Module { detail, .. }) => {
                assert!(detail.contains("expected 4"));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }
}
