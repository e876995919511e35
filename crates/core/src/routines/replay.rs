//! The operand streams of the Level-2 kernels.
//!
//! A GEMV or GER kernel pulls its matrix element by element in tile
//! order and its vectors block by block, replaying them as the tiling
//! demands. Each stream comes from one of two places: a FIFO fed by
//! another module, or an operand buffer read in place through the
//! cursors below ([`TiledReader`], [`Cycle`]), which visit exactly the
//! elements an interface reader would have streamed, in the same
//! order. The threaded module, a module that reads its DRAM operands in
//! place, and tile replay on the calling thread all run one kernel
//! through these ports, so the arithmetic — and every result bit — is
//! the kernel's alone.

use std::ops::Range;

use fblas_hlssim::{ChunkReader, ChunkWriter, Receiver, SimError};
use parking_lot::RwLockReadGuard;

use crate::host::buffer::DeviceBuffer;
use crate::tiling::{Segment, Tiling};

fn exhausted(what: &str) -> SimError {
    SimError::module("tile-replay", format!("{what} stream exhausted"))
}

/// Where a Level-2 module reads one of its inputs from.
pub enum Input<T> {
    /// A FIFO fed by another module (an interface reader, a producer,
    /// a fan-out stage).
    Channel(Receiver<T>),
    /// An operand buffer, read in place: the module holds the buffer's
    /// read guard for its whole run and streams from it what an
    /// interface reader would have sent — a matrix in the module's tile
    /// order, a vector replayed as often as the tiling consumes it.
    Buffer(DeviceBuffer<T>),
}

impl<T> From<Receiver<T>> for Input<T> {
    fn from(rx: Receiver<T>) -> Self {
        Input::Channel(rx)
    }
}

impl<T: Copy + Send + Sync + 'static> Input<T> {
    /// Open the input for the module's run.
    pub(crate) fn open(&self) -> Opened<'_, T> {
        match self {
            Input::Channel(rx) => Opened::Channel(rx),
            Input::Buffer(buf) => Opened::Buffer(buf.read()),
        }
    }
}

/// An [`Input`] open for a module's run: the channel, or the buffer
/// under its read guard.
pub(crate) enum Opened<'a, T> {
    Channel(&'a Receiver<T>),
    Buffer(RwLockReadGuard<'a, Vec<T>>),
}

impl<T: Copy + Send + 'static> Opened<'_, T> {
    /// An `n × m` matrix in `tiling`'s stream order.
    pub(crate) fn matrix(
        &self,
        module: &str,
        n: usize,
        m: usize,
        tiling: Tiling,
    ) -> Result<MatrixIn<'_, T>, SimError> {
        Ok(match self {
            Opened::Channel(rx) => MatrixIn::Channel(ChunkReader::new(rx)),
            Opened::Buffer(data) => {
                sized(module, "matrix", data.len(), n * m)?;
                MatrixIn::Buffer(TiledReader::new(data, n, m, tiling))
            }
        })
    }

    /// A vector of `len` elements, block by block, replayed from the
    /// start once it runs out.
    pub(crate) fn vector(&self, module: &str, len: usize) -> Result<VectorIn<'_, T>, SimError> {
        Ok(match self {
            Opened::Channel(rx) => VectorIn::Channel(rx),
            Opened::Buffer(data) => {
                sized(module, "vector", data.len(), len)?;
                VectorIn::Buffer(Cycle::new(data))
            }
        })
    }
}

fn sized(module: &str, what: &str, got: usize, want: usize) -> Result<(), SimError> {
    if got == want {
        return Ok(());
    }
    Err(SimError::module(
        module,
        format!("{what} buffer holds {got} elements, expected {want}"),
    ))
}

/// A matrix input, element by element in tile order.
pub(crate) enum MatrixIn<'a, T: Send + 'static> {
    Channel(ChunkReader<'a, T>),
    Buffer(TiledReader<'a, T>),
}

impl<T: Copy + Send + 'static> MatrixIn<'_, T> {
    /// Next element in stream order.
    #[inline]
    pub(crate) fn next(&mut self) -> Result<T, SimError> {
        match self {
            MatrixIn::Channel(rd) => rd.next(),
            MatrixIn::Buffer(rd) => rd.next(),
        }
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

/// A matrix output, element by element in tile order.
pub(crate) enum MatrixOut<'a, T: Send + 'static> {
    Channel(ChunkWriter<'a, T>),
    Buffer(TiledWriter<'a, T>),
}

impl<T: Send + 'static> MatrixOut<'_, T> {
    /// Store the next element in stream order.
    #[inline]
    pub(crate) fn push(&mut self, v: T) -> Result<(), SimError> {
        match self {
            MatrixOut::Channel(wr) => wr.push(v),
            MatrixOut::Buffer(wr) => wr.push(v),
        }
    }

    /// A tile is complete: a channel writer flushes, so no output waits
    /// in its buffer across the next blocking vector read.
    pub(crate) fn end_tile(&mut self) -> Result<(), SimError> {
        match self {
            MatrixOut::Channel(wr) => wr.flush(),
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
