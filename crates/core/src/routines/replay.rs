//! Slice-backed streams for tile replay.
//!
//! A Level-2 module's kernel pulls its matrix element by element in
//! tile order and its vectors block by block, replaying them as the
//! tiling demands. The threaded module feeds the kernel from channels;
//! tile replay feeds the *same* kernel from the operand buffers through
//! these cursors, which visit exactly the elements the interface
//! readers would have streamed, in the same order.

use std::ops::Range;

use fblas_hlssim::SimError;

use crate::tiling::{Segment, Tiling};

fn exhausted(what: &str) -> SimError {
    SimError::module("tile-replay", format!("{what} stream exhausted"))
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
