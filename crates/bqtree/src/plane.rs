//! The two sides of a tile's bitplanes, each worked on a word at a time.
//!
//! Encoding loads one plane at a time into a padded square [`Bitmap`].
//! Every region the quadtree visits is an aligned power-of-two square, so
//! each of its rows is either whole words (side ≥ 64) or one run of `side`
//! bits inside a single word: a uniformity check or a 4×4 literal is one
//! masked word operation per row, at every region size. Loading a plane
//! gathers bit `plane` of four cells per multiply.
//!
//! Decoding never builds a plane. [`PlaneCells`] ORs each quadtree leaf
//! straight into the `u16` cells it covers, cropped to the tile: a one-leaf
//! is a run of cells per row, a literal is four 4-bit row nibbles spread
//! onto four cells each, and a zero-leaf writes nothing.

/// A `side × side` binary image (side a power of two), bit-packed per row
/// into `u64` words. Bit `(r, c)` is word `r * words_per_row + c/64`, bit
/// `c % 64`. When `side < 64` each row is the low `side` bits of one word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    side: usize,
    words_per_row: usize,
    words: Vec<u64>,
}

/// Bit 0 of each 16-bit lane.
const LANE_LSBS: u64 = 0x0001_0001_0001_0001;
/// Multiplier that moves bit `16k` of a lane word to bit `48 + k`: each lane
/// bit meets the multiplier bit at `48 - 15k`, and no two partial products
/// share a position, so no carries reach bits 48..52.
const GATHER_LANES: u64 = (1 << 48) | (1 << 33) | (1 << 18) | (1 << 3);

/// Bit `plane` of four consecutive cells, as the low 4 bits.
#[inline]
fn gather4(cells: &[u16; 4], plane: u32) -> u64 {
    let lanes = u64::from(cells[0])
        | u64::from(cells[1]) << 16
        | u64::from(cells[2]) << 32
        | u64::from(cells[3]) << 48;
    (((lanes >> plane) & LANE_LSBS).wrapping_mul(GATHER_LANES) >> 48) & 0xF
}

impl Bitmap {
    /// All-zero bitmap. `side` must be a power of two and ≥ 4 (the literal
    /// leaf size).
    pub fn zero(side: usize) -> Self {
        assert!(
            side.is_power_of_two() && side >= 4,
            "side must be a power of two ≥ 4"
        );
        let words_per_row = side.div_ceil(64);
        Bitmap {
            side,
            words_per_row,
            words: vec![0; words_per_row * side],
        }
    }

    /// Smallest legal bitmap side covering a `rows × cols` tile.
    pub fn side_for(rows: usize, cols: usize) -> usize {
        rows.max(cols).max(4).next_power_of_two()
    }

    /// Overwrite this bitmap with bitplane `plane` of a row-major `u16`
    /// tile; the padding beyond `rows × cols` is zero. The tile must be
    /// non-empty and fit.
    pub fn load_plane(&mut self, values: &[u16], rows: usize, cols: usize, plane: u32) {
        assert!(
            rows <= self.side && cols <= self.side,
            "tile exceeds bitmap"
        );
        assert_eq!(values.len(), rows * cols);
        debug_assert!(plane < 16);
        let wpr = self.words_per_row;
        let (loaded, padding) = self.words.split_at_mut(rows * wpr);
        padding.fill(0);
        for (row, out) in values.chunks_exact(cols).zip(loaded.chunks_exact_mut(wpr)) {
            out.fill(0);
            let (quads, tail) = row.as_chunks::<4>();
            for (i, quad) in quads.iter().enumerate() {
                out[i / 16] |= gather4(quad, plane) << (i % 16 * 4);
            }
            for (c, &v) in (cols - tail.len()..).zip(tail) {
                out[c / 64] |= u64::from((v >> plane) & 1) << (c % 64);
            }
        }
    }

    #[inline]
    pub fn side(&self) -> usize {
        self.side
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> bool {
        debug_assert!(r < self.side && c < self.side);
        (self.words[r * self.words_per_row + c / 64] >> (c % 64)) & 1 == 1
    }

    /// Classify the aligned square region `(r0..r0+size, c0..c0+size)`:
    /// `Some(false)` all zeros, `Some(true)` all ones, `None` mixed. Each
    /// row of the region is `n` whole words, or the bits of `mask` in one.
    pub fn region_uniform(&self, r0: usize, c0: usize, size: usize) -> Option<bool> {
        debug_assert!(size.is_power_of_two() && c0.is_multiple_of(size));
        debug_assert!(r0 + size <= self.side && c0 + size <= self.side);
        let (w0, n, mask) = if size >= 64 {
            (c0 / 64, size / 64, u64::MAX)
        } else {
            (c0 / 64, 1, ((1u64 << size) - 1) << (c0 % 64))
        };
        let wpr = self.words_per_row;
        let want = self.words[r0 * wpr + w0] & mask;
        if want != 0 && want != mask {
            return None;
        }
        let rows = self.words[r0 * wpr..(r0 + size) * wpr].chunks_exact(wpr);
        for row in rows {
            if row[w0..w0 + n].iter().any(|&w| w & mask != want) {
                return None;
            }
        }
        Some(want != 0)
    }

    /// Pack the 4×4 region at `(r0, c0)` into 16 bits, row-major LSB-first:
    /// four 4-bit row nibbles.
    pub fn literal16(&self, r0: usize, c0: usize) -> u16 {
        debug_assert!(c0.is_multiple_of(4) && r0 + 4 <= self.side && c0 + 4 <= self.side);
        let (wpr, shift) = (self.words_per_row, c0 % 64);
        let mut out = 0u16;
        for dr in 0..4 {
            let nibble = (self.words[(r0 + dr) * wpr + c0 / 64] >> shift) & 0xF;
            out |= (nibble as u16) << (dr * 4);
        }
        out
    }
}

/// `SPREAD4[n][k]` is bit `k` of nibble `n`: a literal row as four cells.
static SPREAD4: [[u16; 4]; 16] = {
    let mut table = [[0u16; 4]; 16];
    let mut n = 0;
    while n < 16 {
        let mut k = 0;
        while k < 4 {
            table[n][k] = ((n >> k) & 1) as u16;
            k += 1;
        }
        n += 1;
    }
    table
};

/// One bitplane being decoded into a row-major `u16` tile. Each leaf ORs
/// bit `plane` into the cells of its region that lie inside the tile; the
/// padding is never stored. The cells must hold zero in this plane's bit
/// beforehand, so a tile decodes by running every plane over one zeroed
/// buffer.
#[derive(Debug)]
pub struct PlaneCells<'a> {
    values: &'a mut [u16],
    rows: usize,
    cols: usize,
    plane: u32,
}

impl<'a> PlaneCells<'a> {
    pub fn new(values: &'a mut [u16], rows: usize, cols: usize, plane: u32) -> Self {
        assert_eq!(values.len(), rows * cols);
        debug_assert!(plane < 16);
        PlaneCells {
            values,
            rows,
            cols,
            plane,
        }
    }

    /// The rows and columns of the square region at `(r0, c0)` that lie
    /// inside the tile, or `None` if it is all padding.
    #[inline]
    fn crop(&self, r0: usize, c0: usize, size: usize) -> Option<(usize, usize)> {
        (r0 < self.rows && c0 < self.cols)
            .then(|| ((self.rows - r0).min(size), (self.cols - c0).min(size)))
    }

    /// Set the plane's bit in every tile cell of the square region.
    #[inline]
    pub fn fill_ones(&mut self, r0: usize, c0: usize, size: usize) {
        let Some((h, w)) = self.crop(r0, c0, size) else {
            return;
        };
        let bit = 1u16 << self.plane;
        let cols = self.cols;
        for row in self.values[r0 * cols..(r0 + h) * cols].chunks_exact_mut(cols) {
            for v in &mut row[c0..c0 + w] {
                *v |= bit;
            }
        }
    }

    /// OR a [`Bitmap::literal16`] into the tile cells of the 4×4 region at
    /// `(r0, c0)`, one row nibble at a time.
    #[inline]
    pub fn or_literal16(&mut self, r0: usize, c0: usize, bits: u16) {
        match self.crop(r0, c0, 4) {
            // Most literals lie wholly inside the tile; the constant extent
            // lets the row loops unroll.
            Some((4, 4)) => self.or_literal_rows(r0, c0, bits, 4, 4),
            Some((h, w)) => self.or_literal_rows(r0, c0, bits, h, w),
            None => {}
        }
    }

    #[inline(always)]
    fn or_literal_rows(&mut self, r0: usize, c0: usize, bits: u16, h: usize, w: usize) {
        let cols = self.cols;
        for dr in 0..h {
            let start = (r0 + dr) * cols + c0;
            let spread = &SPREAD4[usize::from((bits >> (dr * 4)) & 0xF)];
            for (v, &b) in self.values[start..start + w].iter_mut().zip(spread) {
                *v |= b << self.plane;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A bitmap with bit `(r, c)` set where `f(r, c)`.
    fn bitmap_from(side: usize, f: impl Fn(usize, usize) -> bool) -> Bitmap {
        let values: Vec<u16> = (0..side * side)
            .map(|i| u16::from(f(i / side, i % side)))
            .collect();
        let mut bm = Bitmap::zero(side);
        bm.load_plane(&values, side, side, 0);
        bm
    }

    #[test]
    fn side_for_covers_and_pads() {
        assert_eq!(Bitmap::side_for(1, 1), 4);
        assert_eq!(Bitmap::side_for(4, 4), 4);
        assert_eq!(Bitmap::side_for(5, 3), 8);
        assert_eq!(Bitmap::side_for(360, 360), 512);
        assert_eq!(Bitmap::side_for(100, 300), 512);
    }

    #[test]
    fn plane_extraction() {
        // Values chosen so plane 0 and plane 3 differ.
        let values = vec![0b0001u16, 0b1000, 0b1001, 0b0000];
        let mut bm0 = Bitmap::zero(4);
        bm0.load_plane(&values, 2, 2, 0);
        let mut bm3 = Bitmap::zero(4);
        bm3.load_plane(&values, 2, 2, 3);
        assert!(bm0.get(0, 0) && !bm0.get(0, 1) && bm0.get(1, 0) && !bm0.get(1, 1));
        assert!(!bm3.get(0, 0) && bm3.get(0, 1) && bm3.get(1, 0) && !bm3.get(1, 1));
        // Padding is zero.
        assert!(!bm0.get(3, 3));
    }

    #[test]
    fn load_plane_matches_per_cell_bits_across_words() {
        // 131 columns: two whole words and a 3-cell tail, padded to 256.
        let (rows, cols) = (5, 131);
        let values: Vec<u16> = (0..rows * cols).map(|i| (i * 40503) as u16).collect();
        let mut bm = Bitmap::zero(Bitmap::side_for(rows, cols));
        for plane in 0..16 {
            // Reloading overwrites the previous plane, padding included.
            bm.load_plane(&values, rows, cols, plane);
            for r in 0..bm.side() {
                for c in 0..bm.side() {
                    let want = r < rows && c < cols && (values[r * cols + c] >> plane) & 1 == 1;
                    assert_eq!(bm.get(r, c), want, "plane {plane} ({r}, {c})");
                }
            }
        }
    }

    #[test]
    fn region_uniform_detection() {
        let bm = bitmap_from(8, |r, c| r < 4 && c < 4);
        assert_eq!(bm.region_uniform(0, 0, 4), Some(true));
        assert_eq!(bm.region_uniform(4, 4, 4), Some(false));
        assert_eq!(bm.region_uniform(0, 0, 8), None);
        assert_eq!(Bitmap::zero(8).region_uniform(0, 0, 8), Some(false));
        assert_eq!(
            bitmap_from(8, |_, _| true).region_uniform(0, 0, 8),
            Some(true)
        );
    }

    #[test]
    fn region_uniform_large_aligned() {
        let bm = bitmap_from(128, |r, c| r < 64 && c >= 64);
        assert_eq!(bm.region_uniform(0, 64, 64), Some(true));
        assert_eq!(bm.region_uniform(0, 0, 64), Some(false));
        assert_eq!(bm.region_uniform(64, 64, 64), Some(false));
        assert_eq!(bm.region_uniform(0, 0, 128), None);
    }

    #[test]
    fn region_uniform_sees_one_odd_bit() {
        // A single differing cell anywhere in a sub-word region breaks it.
        for (r, c) in [(16, 32), (16, 47), (31, 32), (31, 47), (20, 40)] {
            let bm = bitmap_from(64, |rr, cc| (rr, cc) == (r, c));
            assert_eq!(bm.region_uniform(16, 32, 16), None, "({r}, {c})");
            assert_eq!(bm.region_uniform(16, 48, 16), Some(false));
            assert_eq!(bm.region_uniform(0, 32, 16), Some(false));
        }
    }

    #[test]
    fn literal_at_word_offsets() {
        // Columns 60..64 sit at the top of a word; 64..68 at the bottom of
        // the next.
        let bm = bitmap_from(128, |r, c| (r + c) % 3 == 0);
        for c0 in [0, 60, 64, 124] {
            let bits = bm.literal16(8, c0);
            for dr in 0..4 {
                for dc in 0..4 {
                    assert_eq!((bits >> (dr * 4 + dc)) & 1 == 1, bm.get(8 + dr, c0 + dc));
                }
            }
        }
    }

    #[test]
    fn plane_cells_fill_crops_to_the_tile() {
        // A 5×7 tile padded to 8: leaves overlapping the padding write only
        // the cells inside the tile, and all-padding leaves write nothing.
        let (rows, cols) = (5, 7);
        for (r0, c0, size) in [(0, 0, 8), (4, 4, 4), (4, 0, 4), (0, 4, 4), (6, 6, 2)] {
            let mut values = vec![0u16; rows * cols];
            PlaneCells::new(&mut values, rows, cols, 9).fill_ones(r0, c0, size);
            for r in 0..rows {
                for c in 0..cols {
                    let inside = (r0..r0 + size).contains(&r) && (c0..c0 + size).contains(&c);
                    let want = if inside { 1 << 9 } else { 0 };
                    assert_eq!(
                        values[r * cols + c],
                        want,
                        "({r0},{c0},{size}) at ({r},{c})"
                    );
                }
            }
        }
    }

    #[test]
    fn plane_cells_literal_roundtrips_through_bitmap() {
        // Literals read from a bitmap and written back as cells reproduce
        // it, including one that straddles the tile's last row and column.
        let (rows, cols) = (6, 7);
        let values: Vec<u16> = (0..rows * cols).map(|i| (i * 40503) as u16).collect();
        let mut bm = Bitmap::zero(8);
        let mut recon = vec![0u16; rows * cols];
        for plane in 0..16 {
            bm.load_plane(&values, rows, cols, plane);
            let mut cells = PlaneCells::new(&mut recon, rows, cols, plane);
            for (r0, c0) in [(0, 0), (0, 4), (4, 0), (4, 4)] {
                cells.or_literal16(r0, c0, bm.literal16(r0, c0));
            }
        }
        assert_eq!(recon, values);
    }
}
