//! The operand streams of the Level-2 kernels.
//!
//! A GEMV or GER kernel pulls its matrix a row segment at a time in
//! tile order — the `W`-lane rows the modelled datapath streams — and
//! its vectors block by block, replaying them as the tiling demands.
//! The threaded module takes each stream from a FIFO fed by another
//! module. Tile replay on the calling thread reads the operand buffers
//! through the cursors below ([`TiledReader`], [`Cycle`]), which visit
//! exactly the elements an interface reader would have streamed, in the
//! same order. A row segment of a buffer is handed out in place; one
//! from a FIFO, or one that straddles the buffer's runs, is gathered
//! into scratch space. Both run one kernel through these ports, so the
//! arithmetic — and every result bit — is the kernel's alone.

use std::ops::Range;

use fblas_hlssim::{ChunkReader, ChunkWriter, Receiver, SimError};

use crate::tiling::{Segment, Tiling};

fn exhausted(what: &str) -> SimError {
    SimError::module("tile-replay", format!("{what} stream exhausted"))
}

/// A matrix input, a run of elements at a time in tile order.
pub(crate) enum MatrixIn<'a, T: Send + 'static> {
    Channel(ChunkReader<'a, T>),
    Buffer(TiledReader<'a, T>),
}

impl<T: Copy + Send + 'static> MatrixIn<'_, T> {
    /// The next `len` elements in stream order: in place when they lie
    /// in one run of a buffer, gathered into `scratch` otherwise.
    #[inline]
    pub(crate) fn run<'s>(
        &'s mut self,
        len: usize,
        scratch: &'s mut Vec<T>,
    ) -> Result<&'s [T], SimError> {
        scratch.clear();
        match self {
            MatrixIn::Channel(rd) => rd.read_into(scratch, len)?,
            MatrixIn::Buffer(rd) => {
                if let Some(run) = rd.run(len) {
                    return Ok(run);
                }
                for _ in 0..len {
                    scratch.push(rd.next()?);
                }
            }
        }
        Ok(scratch)
    }
}

/// A vector input, block by block.
pub(crate) enum VectorIn<'a, T> {
    Channel(&'a Receiver<T>),
    Buffer(Cycle<'a, T>),
}

impl<T: Copy + Send + 'static> VectorIn<'_, T> {
    /// The next `len` elements.
    pub(crate) fn block(&mut self, len: usize) -> Result<Vec<T>, SimError> {
        match self {
            VectorIn::Channel(rx) => rx.pop_n(len),
            VectorIn::Buffer(c) => c.block(len),
        }
    }
}

/// A matrix output, a run of elements at a time in tile order.
pub(crate) enum MatrixOut<'a, T: Send + 'static> {
    Channel {
        wr: ChunkWriter<'a, T>,
        scratch: Vec<T>,
    },
    Buffer(TiledWriter<'a, T>),
}

impl<'a, T: Copy + Default + Send + 'static> MatrixOut<'a, T> {
    /// An output streamed to a channel.
    pub(crate) fn channel(wr: ChunkWriter<'a, T>) -> Self {
        MatrixOut::Channel {
            wr,
            scratch: Vec::new(),
        }
    }

    /// Store the next `len` elements in stream order, which `fill`
    /// writes: in place when they lie in one run of a buffer, through
    /// scratch space otherwise.
    #[inline]
    pub(crate) fn run_mut(
        &mut self,
        len: usize,
        fill: impl FnOnce(&mut [T]),
    ) -> Result<(), SimError> {
        match self {
            MatrixOut::Channel { wr, scratch } => {
                scratch.clear();
                scratch.resize(len, T::default());
                fill(scratch);
                wr.push_slice(scratch)
            }
            MatrixOut::Buffer(wr) => {
                if let Some(run) = wr.run_mut(len) {
                    fill(run);
                    return Ok(());
                }
                let mut run = vec![T::default(); len];
                fill(&mut run);
                run.into_iter().try_for_each(|v| wr.push(v))
            }
        }
    }

    /// A tile is complete: a channel writer flushes, so no output waits
    /// in its buffer across the next blocking vector read.
    pub(crate) fn end_tile(&mut self) -> Result<(), SimError> {
        match self {
            MatrixOut::Channel { wr, .. } => wr.flush(),
            MatrixOut::Buffer(_) => Ok(()),
        }
    }
}

/// A tiling's runs over a matrix. The cursors walk them as contiguous
/// ranges, so elements must be row-major within a tile.
type Rows = Box<dyn Iterator<Item = Segment>>;

/// Reads a row-major matrix in a tiling's stream order.
pub(crate) struct TiledReader<'a, T> {
    data: &'a [T],
    segs: Rows,
    cur: &'a [T],
}

impl<'a, T: Copy> TiledReader<'a, T> {
    /// Reader over `data`, an `n × m` row-major matrix.
    pub(crate) fn new(data: &'a [T], n: usize, m: usize, tiling: Tiling) -> Self {
        TiledReader {
            data,
            segs: Box::new(tiling.segments(n, m)),
            cur: &[],
        }
    }

    /// The next `len` elements in stream order, if they lie in one run.
    /// `None` consumes nothing.
    #[inline]
    pub(crate) fn run(&mut self, len: usize) -> Option<&'a [T]> {
        if self.cur.is_empty() {
            self.cur = &self.data[self.segs.next()?.range()];
        }
        let cur = self.cur;
        let (run, rest) = cur.split_at_checked(len)?;
        self.cur = rest;
        Some(run)
    }

    /// Next element in stream order.
    #[inline]
    pub(crate) fn next(&mut self) -> Result<T, SimError> {
        loop {
            if let Some((&v, rest)) = self.cur.split_first() {
                self.cur = rest;
                return Ok(v);
            }
            let seg = self.segs.next().ok_or_else(|| exhausted("matrix"))?;
            self.cur = &self.data[seg.range()];
        }
    }
}

/// Writes a row-major matrix in a tiling's stream order.
pub(crate) struct TiledWriter<'a, T> {
    data: &'a mut [T],
    segs: Rows,
    cur: Range<usize>,
}

impl<'a, T> TiledWriter<'a, T> {
    /// Writer into `data`, an `n × m` row-major matrix.
    pub(crate) fn new(data: &'a mut [T], n: usize, m: usize, tiling: Tiling) -> Self {
        TiledWriter {
            data,
            segs: Box::new(tiling.segments(n, m)),
            cur: 0..0,
        }
    }

    /// The next `len` elements in stream order, if they lie in one run.
    /// `None` consumes nothing.
    #[inline]
    pub(crate) fn run_mut(&mut self, len: usize) -> Option<&mut [T]> {
        if self.cur.is_empty() {
            self.cur = self.segs.next()?.range();
        }
        if self.cur.len() < len {
            return None;
        }
        let start = self.cur.start;
        self.cur.start += len;
        Some(&mut self.data[start..start + len])
    }

    /// Store the next element in stream order.
    #[inline]
    pub(crate) fn push(&mut self, v: T) -> Result<(), SimError> {
        let i = loop {
            if let Some(i) = self.cur.next() {
                break i;
            }
            self.cur = self
                .segs
                .next()
                .ok_or_else(|| exhausted("matrix output"))?
                .range();
        };
        self.data[i] = v;
        Ok(())
    }
}

/// A vector streamed block by block and replayed from the start once
/// it runs out — what an interface reader sends for an `x` that the
/// tiling consumes several times. Blocks never straddle a replay.
pub(crate) struct Cycle<'a, T> {
    data: &'a [T],
    pos: usize,
}

impl<'a, T: Copy> Cycle<'a, T> {
    pub(crate) fn new(data: &'a [T]) -> Self {
        Cycle { data, pos: 0 }
    }

    /// The next `len` elements.
    pub(crate) fn block(&mut self, len: usize) -> Result<Vec<T>, SimError> {
        let block = self
            .data
            .get(self.pos..self.pos + len)
            .ok_or_else(|| exhausted("vector"))?
            .to_vec();
        self.pos = (self.pos + len) % self.data.len().max(1);
        Ok(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiling::TileOrder;

    /// Runs of every length, in place or straddling the tiling's runs,
    /// read and written through the ports, visit exactly the stream
    /// order.
    #[test]
    fn runs_of_any_length_follow_the_stream_order() {
        let (n, m) = (7, 11);
        let data: Vec<usize> = (0..n * m).collect();
        for order in [TileOrder::RowTilesRowMajor, TileOrder::ColTilesRowMajor] {
            let tiling = Tiling::new(3, 4, order);
            let want: Vec<usize> = tiling
                .stream_indices(n, m)
                .into_iter()
                .map(|(r, c)| r * m + c)
                .collect();
            for len in 1..=9 {
                let mut rd = MatrixIn::Buffer(TiledReader::new(&data, n, m, tiling));
                let mut out = vec![0; n * m];
                let mut wr = MatrixOut::Buffer(TiledWriter::new(&mut out, n, m, tiling));
                let (mut seen, mut scratch) = (Vec::new(), Vec::new());
                while seen.len() < n * m {
                    let len = len.min(n * m - seen.len());
                    let run = rd.run(len, &mut scratch).unwrap();
                    wr.run_mut(len, |dst| dst.copy_from_slice(run)).unwrap();
                    seen.extend_from_slice(run);
                }
                assert!(rd.run(1, &mut scratch).is_err(), "{order:?} len {len}");
                drop(wr);
                assert_eq!(seen, want, "{order:?} len {len}");
                assert_eq!(out, data, "{order:?} len {len}");
            }
        }
    }
}
