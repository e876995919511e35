//! 2D matrix tiling and streaming orders (paper Sec. III-B).
//!
//! Matrices cross FBLAS streaming interfaces in tiles: both the order of
//! tiles and the order of elements within a tile can be scheduled by rows
//! or by columns, giving four streaming modes. The chosen mode determines
//! which vector operands must be *replayed* (re-sent) and therefore the
//! I/O complexity of a routine — the paper's GEMV example yields
//! `NM + M·⌈N/T_N⌉ + 2N` I/O operations for tiles-by-rows (x replayed)
//! versus `NM + M + 2N·⌈M/T_M⌉` for tiles-by-columns (y replayed).

use serde::{Deserialize, Serialize};

/// The four matrix streaming modes: tiles ordered by rows or columns of
/// tiles, elements within each tile in row-major or column-major order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TileOrder {
    /// Tiles scheduled left-to-right then top-to-bottom; elements within
    /// a tile row-major. The order of paper Fig. 2 (left).
    RowTilesRowMajor,
    /// Tiles by rows; elements within a tile column-major.
    RowTilesColMajor,
    /// Tiles scheduled top-to-bottom then left-to-right (Fig. 2 right);
    /// elements within a tile row-major.
    ColTilesRowMajor,
    /// Tiles by columns; elements within a tile column-major.
    ColTilesColMajor,
}

impl TileOrder {
    /// Are tiles scheduled row-of-tiles first?
    pub fn tiles_by_rows(self) -> bool {
        matches!(
            self,
            TileOrder::RowTilesRowMajor | TileOrder::RowTilesColMajor
        )
    }

    /// Are elements within a tile streamed row-major?
    pub fn elements_row_major(self) -> bool {
        matches!(
            self,
            TileOrder::RowTilesRowMajor | TileOrder::ColTilesRowMajor
        )
    }

    /// The streaming order obtained when this stream is interpreted as
    /// the transpose of the matrix: rows and columns swap at both levels.
    pub fn transposed(self) -> TileOrder {
        match self {
            TileOrder::RowTilesRowMajor => TileOrder::ColTilesColMajor,
            TileOrder::RowTilesColMajor => TileOrder::ColTilesRowMajor,
            TileOrder::ColTilesRowMajor => TileOrder::RowTilesColMajor,
            TileOrder::ColTilesColMajor => TileOrder::RowTilesRowMajor,
        }
    }
}

/// A tiling of an `n × m` matrix into `tn × tm` tiles streamed in a given
/// order. Edge tiles are allowed to be ragged (the paper's routines
/// accept arbitrary input sizes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Tiling {
    /// Tile height (rows per tile), `T_N`.
    pub tn: usize,
    /// Tile width (columns per tile), `T_M`.
    pub tm: usize,
    /// Streaming order.
    pub order: TileOrder,
}

impl Tiling {
    /// Create a tiling; tile dimensions must be ≥ 1.
    ///
    /// # Panics
    /// Panics if a tile dimension is zero.
    pub fn new(tn: usize, tm: usize, order: TileOrder) -> Self {
        assert!(tn >= 1 && tm >= 1, "tile dimensions must be at least 1");
        Tiling { tn, tm, order }
    }

    /// Square tiling with the paper's default Fig. 2 order.
    pub fn square(t: usize, order: TileOrder) -> Self {
        Tiling::new(t, t, order)
    }

    /// Number of tile rows covering `n` matrix rows.
    pub fn tile_rows(&self, n: usize) -> usize {
        n.div_ceil(self.tn)
    }

    /// Number of tile columns covering `m` matrix columns.
    pub fn tile_cols(&self, m: usize) -> usize {
        m.div_ceil(self.tm)
    }

    /// The `(row, col)` element coordinates of an `n × m` matrix in
    /// streaming order. Every element appears exactly once.
    pub fn stream_indices(&self, n: usize, m: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(n * m);
        let trows = self.tile_rows(n);
        let tcols = self.tile_cols(m);
        let emit_tile = |bi: usize, bj: usize, out: &mut Vec<(usize, usize)>| {
            let r0 = bi * self.tn;
            let c0 = bj * self.tm;
            let r1 = (r0 + self.tn).min(n);
            let c1 = (c0 + self.tm).min(m);
            if self.order.elements_row_major() {
                for r in r0..r1 {
                    for c in c0..c1 {
                        out.push((r, c));
                    }
                }
            } else {
                for c in c0..c1 {
                    for r in r0..r1 {
                        out.push((r, c));
                    }
                }
            }
        };
        if self.order.tiles_by_rows() {
            for bi in 0..trows {
                for bj in 0..tcols {
                    emit_tile(bi, bj, &mut out);
                }
            }
        } else {
            for bj in 0..tcols {
                for bi in 0..trows {
                    emit_tile(bi, bj, &mut out);
                }
            }
        }
        out
    }

    /// The stream of an `n × m` row-major matrix as runs, in streaming
    /// order: one run per row of each tile when elements are row-major
    /// within a tile, one per column of each tile otherwise.
    /// Concatenated, the runs visit exactly
    /// [`stream_indices`](Self::stream_indices). The runs are computed
    /// as they are consumed, so walking a matrix holds one run at a time.
    pub(crate) fn segments(&self, n: usize, m: usize) -> impl Iterator<Item = Segment> {
        let t = *self;
        let (trows, tcols) = (t.tile_rows(n), t.tile_cols(m));
        (0..trows * tcols).flat_map(move |k| {
            let (bi, bj) = if t.order.tiles_by_rows() {
                (k / tcols, k % tcols)
            } else {
                (k % trows, k / trows)
            };
            let (r0, c0) = (bi * t.tn, bj * t.tm);
            let (rows, cols) = ((r0 + t.tn).min(n) - r0, (c0 + t.tm).min(m) - c0);
            // (runs, step between run starts, run length, element stride)
            let (runs, step, len, stride) = if t.order.elements_row_major() {
                (rows, m, cols, 1)
            } else {
                (cols, 1, rows, m)
            };
            (0..runs).map(move |i| Segment {
                start: r0 * m + c0 + i * step,
                len,
                stride,
            })
        })
    }
}

/// One run of a matrix stream over its row-major buffer: `len`
/// elements from index `start`, `stride` apart — a tile row (stride 1)
/// or a tile column (stride `m`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Segment {
    pub(crate) start: usize,
    pub(crate) len: usize,
    pub(crate) stride: usize,
}

impl Segment {
    /// Buffer indices of the run, in stream order.
    pub(crate) fn indices(self) -> impl Iterator<Item = usize> {
        (0..self.len).map(move |i| self.start + i * self.stride)
    }

    /// The run as one contiguous index range.
    ///
    /// # Panics
    /// Panics if the run is strided (a tile column of a matrix wider
    /// than one).
    pub(crate) fn range(self) -> std::ops::Range<usize> {
        assert!(
            self.stride == 1 || self.len <= 1,
            "a tile column is not a contiguous range"
        );
        self.start..self.start + self.len
    }
}

/// I/O operations of GEMV with `A` received in tiles by rows
/// (paper Sec. III-B): `NM + M·⌈N/T_N⌉ + 2N` — the matrix once, `x`
/// replayed once per row of tiles, `y` read and written once.
pub fn gemv_io_tiles_by_rows(n: usize, m: usize, tn: usize) -> u64 {
    (n as u64) * (m as u64) + (m as u64) * (n.div_ceil(tn) as u64) + 2 * n as u64
}

/// I/O operations of GEMV with `A` received in tiles by columns
/// (paper Sec. III-B): `NM + M + 2N·⌈M/T_M⌉` — the matrix once, `x`
/// once, `y` replayed (written and re-read) once per column of tiles.
pub fn gemv_io_tiles_by_cols(n: usize, m: usize, tm: usize) -> u64 {
    (n as u64) * (m as u64) + m as u64 + 2 * (n as u64) * (m.div_ceil(tm) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn every_order_covers_all_elements_exactly_once() {
        for order in [
            TileOrder::RowTilesRowMajor,
            TileOrder::RowTilesColMajor,
            TileOrder::ColTilesRowMajor,
            TileOrder::ColTilesColMajor,
        ] {
            let t = Tiling::new(3, 2, order);
            let idx = t.stream_indices(7, 5); // ragged edges on both axes
            assert_eq!(idx.len(), 35, "{order:?}");
            let set: HashSet<_> = idx.iter().copied().collect();
            assert_eq!(set.len(), 35, "{order:?}: duplicates");
        }
    }

    #[test]
    fn segments_concatenate_to_the_stream_order() {
        for order in [
            TileOrder::RowTilesRowMajor,
            TileOrder::RowTilesColMajor,
            TileOrder::ColTilesRowMajor,
            TileOrder::ColTilesColMajor,
        ] {
            for (tn, tm) in [(3, 2), (7, 5), (2, 9), (1, 1)] {
                for (n, m) in [(7, 5), (1, 6), (6, 1), (0, 3)] {
                    let t = Tiling::new(tn, tm, order);
                    let flat: Vec<usize> = t.segments(n, m).flat_map(Segment::indices).collect();
                    let want: Vec<usize> = t
                        .stream_indices(n, m)
                        .into_iter()
                        .map(|(r, c)| r * m + c)
                        .collect();
                    assert_eq!(flat, want, "{order:?} {tn}x{tm} tiles of {n}x{m}");
                    if order.elements_row_major() {
                        let ranges: Vec<usize> =
                            t.segments(n, m).flat_map(Segment::range).collect();
                        assert_eq!(ranges, want, "{order:?}: rows are contiguous");
                    }
                }
            }
        }
    }

    #[test]
    fn row_tiles_row_major_order_matches_fig2_left() {
        // 4x4 matrix, 2x2 tiles: tile (0,0) streams first, row-major.
        let t = Tiling::square(2, TileOrder::RowTilesRowMajor);
        let idx = t.stream_indices(4, 4);
        assert_eq!(
            &idx[..8],
            &[
                (0, 0),
                (0, 1),
                (1, 0),
                (1, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3)
            ]
        );
        // Second row of tiles starts after the first row of tiles.
        assert_eq!(idx[8], (2, 0));
    }

    #[test]
    fn col_tiles_order_matches_fig2_right() {
        let t = Tiling::square(2, TileOrder::ColTilesRowMajor);
        let idx = t.stream_indices(4, 4);
        // First the (0,0) tile, then the (1,0) tile below it.
        assert_eq!(
            &idx[..8],
            &[
                (0, 0),
                (0, 1),
                (1, 0),
                (1, 1),
                (2, 0),
                (2, 1),
                (3, 0),
                (3, 1)
            ]
        );
        assert_eq!(idx[8], (0, 2));
    }

    #[test]
    fn col_major_elements_within_tile() {
        let t = Tiling::new(2, 2, TileOrder::RowTilesColMajor);
        let idx = t.stream_indices(2, 2);
        assert_eq!(idx, vec![(0, 0), (1, 0), (0, 1), (1, 1)]);
    }

    #[test]
    fn transpose_round_trips() {
        for order in [
            TileOrder::RowTilesRowMajor,
            TileOrder::RowTilesColMajor,
            TileOrder::ColTilesRowMajor,
            TileOrder::ColTilesColMajor,
        ] {
            assert_eq!(order.transposed().transposed(), order);
        }
        assert_eq!(
            TileOrder::RowTilesRowMajor.transposed(),
            TileOrder::ColTilesColMajor
        );
    }

    #[test]
    fn transposed_stream_is_the_transpose_elementwise() {
        // Streaming A with order O must visit (i, j) in the same sequence
        // as streaming Aᵀ with O.transposed() visits (j, i).
        let (n, m) = (6, 4);
        let t = Tiling::new(2, 3, TileOrder::RowTilesRowMajor);
        let tt = Tiling::new(3, 2, t.order.transposed());
        let a: Vec<_> = t.stream_indices(n, m);
        let b: Vec<_> = tt.stream_indices(m, n);
        let swapped: Vec<_> = b.into_iter().map(|(r, c)| (c, r)).collect();
        assert_eq!(a, swapped);
    }

    #[test]
    fn tile_counts_with_ragged_edges() {
        let t = Tiling::new(4, 4, TileOrder::RowTilesRowMajor);
        assert_eq!(t.tile_rows(8), 2);
        assert_eq!(t.tile_rows(9), 3);
        assert_eq!(t.tile_cols(1), 1);
    }

    #[test]
    fn gemv_io_formulas_match_paper() {
        // Paper Sec. III-B with exact divisibility.
        let (n, m, t) = (1024usize, 2048usize, 256usize);
        assert_eq!(
            gemv_io_tiles_by_rows(n, m, t),
            (n * m + m * (n / t) + 2 * n) as u64
        );
        assert_eq!(
            gemv_io_tiles_by_cols(n, m, t),
            (n * m + m + 2 * n * (m / t)) as u64
        );
        // Larger T_N strictly reduces tiles-by-rows I/O.
        assert!(gemv_io_tiles_by_rows(n, m, 512) < gemv_io_tiles_by_rows(n, m, 128));
    }

    #[test]
    fn io_formulas_converge_to_nm_for_huge_tiles() {
        let (n, m) = (512usize, 512usize);
        let by_rows = gemv_io_tiles_by_rows(n, m, n);
        assert_eq!(by_rows, (n * m + m + 2 * n) as u64);
        let by_cols = gemv_io_tiles_by_cols(n, m, m);
        assert_eq!(by_cols, (n * m + m + 2 * n) as u64);
    }

    #[test]
    #[should_panic(expected = "tile dimensions")]
    fn zero_tile_rejected() {
        let _ = Tiling::new(0, 4, TileOrder::RowTilesRowMajor);
    }
}
