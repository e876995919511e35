//! Chunked (batched) stream access on top of the channel primitives.
//!
//! The hardware model moves one element per cycle, but the software
//! simulation pays a lock acquisition and a trace event per transfer,
//! plus a backoff (and, if that runs out, a condvar park) whenever the
//! FIFO is full or empty — so simulated wall-clock scales with lock
//! traffic, not with modeled cycles. [`ChunkReader`] and [`ChunkWriter`] amortize that cost
//! by moving [`default_chunk`] elements per lock acquisition while
//! presenting the same element-at-a-time interface to routine bodies,
//! which keeps arithmetic order (and therefore results) byte-identical.
//!
//! # Deadlock safety
//!
//! Chunked *reads* are always safe: [`Receiver::pop_chunk`] blocks only
//! until one element is available, then takes what is queued — a reader
//! never holds back elements the producer needs it to consume.
//!
//! Chunked *writes* buffer output locally, which is only safe when the
//! module holds no buffered output while blocked on an input that
//! (transitively) depends on that output being visible. The safe
//! patterns used in this codebase:
//!
//! - **relay**: pop a chunk, compute, push the whole result chunk before
//!   popping again (nothing is buffered while blocked on input);
//! - **flush at tile boundaries**: [`ChunkWriter::flush`] before any
//!   blocking read that a downstream consumer's progress depends on.
//!
//! Routines with *two* output streams consumed by independent readers
//! (e.g. `Swap`, `Rot`) keep element-wise interleaved pushes: batching
//! one output while the other's consumer is starved can deadlock when
//! FIFO depths are smaller than the chunk.
//!
//! `ChunkWriter` has no *blocking* `Drop` flush — a real flush can
//! block and fail, and neither is expressible in `drop`. Callers must
//! [`flush`](ChunkWriter::flush) explicitly. A writer dropped with
//! buffered elements (forgotten flush, or a panic unwinding through
//! the owning module) makes a non-blocking best-effort salvage via
//! [`Sender::try_push_chunk`] and prints a warning naming the channel
//! and how many elements could not be delivered — a silent truncated
//! stream is the one failure mode worse than a loud one.

use crate::channel::{Receiver, Sender};
use crate::error::SimError;

/// Default number of elements moved per lock acquisition.
pub const DEFAULT_CHUNK: usize = 256;

/// The configured chunk size: `FBLAS_CHUNK` if set to a positive
/// integer, [`DEFAULT_CHUNK`] otherwise.
///
/// Read from the environment on every call (not cached) so benchmarks
/// can sweep chunk sizes within one process. `FBLAS_CHUNK=1` degrades
/// every bulk helper to honest element-wise transfers. Delegates to
/// [`crate::env::chunk`], which warns once on an invalid value.
pub fn default_chunk() -> usize {
    crate::env::chunk()
}

/// Parse an `FBLAS_CHUNK`-style value; invalid or non-positive input
/// falls back to [`DEFAULT_CHUNK`].
pub fn parse_chunk(raw: Option<&str>) -> usize {
    raw.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|n| *n >= 1)
        .unwrap_or(DEFAULT_CHUNK)
}

/// Element-at-a-time reader that refills from the channel in chunks.
///
/// `T: Copy` because refills move elements into an internal buffer and
/// hand out copies; every stream element in this codebase is a scalar.
pub struct ChunkReader<'a, T: Send + 'static> {
    rx: &'a Receiver<T>,
    buf: Vec<T>,
    pos: usize,
    chunk: usize,
}

impl<'a, T: Copy + Send + 'static> ChunkReader<'a, T> {
    /// Reader over `rx` using the configured [`default_chunk`] size.
    pub fn new(rx: &'a Receiver<T>) -> Self {
        Self::with_chunk(rx, default_chunk())
    }

    /// Reader over `rx` with an explicit chunk size (≥ 1).
    pub fn with_chunk(rx: &'a Receiver<T>, chunk: usize) -> Self {
        let chunk = chunk.max(1);
        ChunkReader {
            rx,
            buf: Vec::with_capacity(chunk),
            pos: 0,
            chunk,
        }
    }

    /// Next element, refilling from the channel when the local buffer
    /// is exhausted. Semantically identical to `rx.pop()` per element.
    ///
    /// Not an [`Iterator`]: disconnect is an error to propagate with
    /// `?`, never an expected end-of-stream.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn next(&mut self) -> Result<T, SimError> {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
            self.rx.pop_chunk(&mut self.buf, self.chunk)?;
        }
        let v = self.buf[self.pos];
        self.pos += 1;
        Ok(v)
    }

    /// Append the next `n` elements to `out`, copying whole runs of the
    /// local buffer. It refills exactly where `n` calls to
    /// [`next`](Self::next) would, so the channel sees the same
    /// transfers.
    pub fn read_into(&mut self, out: &mut Vec<T>, n: usize) -> Result<(), SimError> {
        let mut left = n;
        while left > 0 {
            if self.pos == self.buf.len() {
                self.buf.clear();
                self.pos = 0;
                self.rx.pop_chunk(&mut self.buf, self.chunk)?;
            }
            let take = (self.buf.len() - self.pos).min(left);
            out.extend_from_slice(&self.buf[self.pos..self.pos + take]);
            self.pos += take;
            left -= take;
        }
        Ok(())
    }
}

/// Element-at-a-time writer that flushes to the channel in chunks.
///
/// `T: Send + 'static` (already required to construct the channel) so
/// the drop salvage can attempt a non-blocking delivery of the tail.
pub struct ChunkWriter<'a, T: Send + 'static> {
    tx: &'a Sender<T>,
    buf: Vec<T>,
    chunk: usize,
}

impl<'a, T: Send + 'static> ChunkWriter<'a, T> {
    /// Writer into `tx` using the configured [`default_chunk`] size.
    pub fn new(tx: &'a Sender<T>) -> Self {
        Self::with_chunk(tx, default_chunk())
    }

    /// Writer into `tx` with an explicit chunk size (≥ 1).
    pub fn with_chunk(tx: &'a Sender<T>, chunk: usize) -> Self {
        let chunk = chunk.max(1);
        ChunkWriter {
            tx,
            buf: Vec::with_capacity(chunk),
            chunk,
        }
    }

    /// Buffer one element, pushing the whole chunk once full.
    #[inline]
    pub fn push(&mut self, value: T) -> Result<(), SimError> {
        self.buf.push(value);
        if self.buf.len() >= self.chunk {
            self.tx.push_chunk(&mut self.buf)?;
        }
        Ok(())
    }

    /// Buffer `values` in order, pushing each chunk as it fills: the
    /// same transfers as pushing them one by one.
    pub fn push_slice(&mut self, values: &[T]) -> Result<(), SimError>
    where
        T: Copy,
    {
        let mut rest = values;
        while !rest.is_empty() {
            let take = self.chunk.saturating_sub(self.buf.len()).min(rest.len());
            self.buf.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if self.buf.len() >= self.chunk {
                self.tx.push_chunk(&mut self.buf)?;
            }
        }
        Ok(())
    }

    /// Push any buffered elements now. Must be called before a blocking
    /// read that downstream progress depends on, and once at the end of
    /// the stream (see module docs on deadlock safety).
    pub fn flush(&mut self) -> Result<(), SimError> {
        self.tx.push_chunk(&mut self.buf)
    }
}

impl<T: Send + 'static> Drop for ChunkWriter<'_, T> {
    /// Flush-or-warn: a writer dropped with buffered elements attempts
    /// a non-blocking salvage and reports anything that could not be
    /// delivered. Blocking or panicking here is off the table (drop
    /// runs during unwinding), so a full FIFO still loses the tail —
    /// but loudly, with the channel named, instead of silently.
    fn drop(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let buffered = self.buf.len();
        let unwinding = std::thread::panicking();
        let _ = self.tx.try_push_chunk(&mut self.buf);
        let context = if unwinding {
            "dropped during panic unwind"
        } else {
            "dropped without flush()"
        };
        if self.buf.is_empty() {
            eprintln!(
                "fblas: warning: ChunkWriter for channel `{}` {context} with {buffered} buffered element(s); delivered best-effort",
                self.tx.name(),
            );
        } else {
            eprintln!(
                "fblas: warning: ChunkWriter for channel `{}` {context}; {} of {buffered} buffered element(s) lost",
                self.tx.name(),
                self.buf.len(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{channel, SimContext};
    use std::thread;

    #[test]
    fn parse_chunk_accepts_positive_integers_only() {
        assert_eq!(parse_chunk(None), DEFAULT_CHUNK);
        assert_eq!(parse_chunk(Some("16")), 16);
        assert_eq!(parse_chunk(Some(" 1 ")), 1);
        assert_eq!(parse_chunk(Some("0")), DEFAULT_CHUNK);
        assert_eq!(parse_chunk(Some("-4")), DEFAULT_CHUNK);
        assert_eq!(parse_chunk(Some("2.5")), DEFAULT_CHUNK);
        assert_eq!(parse_chunk(Some("lots")), DEFAULT_CHUNK);
        assert_eq!(parse_chunk(Some("")), DEFAULT_CHUNK);
    }

    #[test]
    fn reader_yields_the_exact_element_sequence() {
        let ctx = SimContext::new();
        let (tx, rx) = channel::<u32>(&ctx, 8, "ch");
        thread::scope(|s| {
            s.spawn(move || tx.push_iter(0..1000).unwrap());
            let mut reader = ChunkReader::with_chunk(&rx, 7);
            for want in 0..1000 {
                assert_eq!(reader.next().unwrap(), want);
            }
        });
    }

    #[test]
    fn reader_reports_disconnect_at_end_of_stream() {
        let ctx = SimContext::new();
        let (tx, rx) = channel::<u32>(&ctx, 8, "ch_end");
        tx.push_slice(&[1, 2]).unwrap();
        drop(tx);
        let mut reader = ChunkReader::new(&rx);
        assert_eq!(reader.next().unwrap(), 1);
        assert_eq!(reader.next().unwrap(), 2);
        assert!(matches!(reader.next(), Err(SimError::Disconnected { .. })));
    }

    #[test]
    fn bulk_reads_yield_the_exact_element_sequence() {
        let ctx = SimContext::new();
        let (tx, rx) = channel::<u32>(&ctx, 8, "ch_bulk");
        thread::scope(|s| {
            s.spawn(move || tx.push_iter(0..1000).unwrap());
            let mut reader = ChunkReader::with_chunk(&rx, 7);
            let mut got = Vec::new();
            // Runs shorter and longer than the chunk, mixed with
            // element reads.
            for n in (0..).map(|k| k % 19) {
                if got.len() + n > 999 {
                    break;
                }
                reader.read_into(&mut got, n).unwrap();
                got.push(reader.next().unwrap());
            }
            let left = 1000 - got.len();
            reader.read_into(&mut got, left).unwrap();
            assert_eq!(got, (0..1000).collect::<Vec<_>>());
        });
    }

    #[test]
    fn bulk_writes_push_the_same_chunks() {
        let ctx = SimContext::new();
        let (tx, rx) = channel::<u32>(&ctx, 64, "ch_bulk_w");
        let mut writer = ChunkWriter::with_chunk(&tx, 4);
        writer.push(0).unwrap();
        writer.push_slice(&[1, 2, 3, 4, 5, 6, 7, 8, 9]).unwrap();
        // Two full chunks of 4 are visible; the tail of 2 is buffered.
        let mut got = Vec::new();
        rx.pop_chunk(&mut got, 64).unwrap();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
        writer.flush().unwrap();
        rx.pop_chunk(&mut got, 64).unwrap();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn writer_flushes_full_chunks_and_explicit_tail() {
        let ctx = SimContext::new();
        let (tx, rx) = channel::<u32>(&ctx, 64, "ch");
        let mut writer = ChunkWriter::with_chunk(&tx, 4);
        for v in 0..10 {
            writer.push(v).unwrap();
        }
        // Two full chunks of 4 are visible; the tail of 2 is buffered.
        let mut got = Vec::new();
        rx.pop_chunk(&mut got, 64).unwrap();
        assert_eq!(got.len(), 8);
        writer.flush().unwrap();
        rx.pop_chunk(&mut got, 64).unwrap();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn dropped_writer_salvages_the_buffered_tail_when_it_fits() {
        let ctx = SimContext::new();
        let (tx, rx) = channel::<u32>(&ctx, 8, "ch_drop");
        {
            let mut writer = ChunkWriter::with_chunk(&tx, 16);
            for v in 0..5 {
                writer.push(v).unwrap();
            }
            // No flush: drop must deliver the tail best-effort (and
            // warn on stderr).
        }
        drop(tx);
        assert_eq!(rx.drain().unwrap(), vec![0, 1, 2, 3, 4]);
    }
}
