//! The two sides of a tile's bitplanes, each worked on a word at a time.
//!
//! Encoding loads one plane at a time into a padded square [`Bitmap`].
//! Every region the quadtree visits is an aligned power-of-two square, so
//! each of its rows is either whole words (side ≥ 64) or one run of `side`
//! bits inside a single word: a uniformity check or a 4×4 literal is one
//! masked word operation per row, at every region size. Loading a plane
//! gathers bit `plane` of four cells per multiply.
//!
//! Decoding never builds a padded plane. `PlaneBuf` holds all 16 planes
//! of the tile's own cells, 16 bytes per cell row and 8-column group (about
//! 2 bytes per cell): every quadtree node of side 8 or more covers whole
//! bytes of it, so a one-leaf stores `0xFF` per row and group, a mixed 8×8
//! node stores its four 4×4 literals as one byte per row, and a zero-leaf
//! writes nothing. Each group then becomes its 8 cells through two 8×8 bit
//! transposes, so a cell is written once per tile, not once per plane.

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

/// A tile's 16 bitplanes as the decoder reads them, bounded by the tile:
/// for each cell row and 8-column group, 16 bytes, byte `p` holding plane
/// `p` of the group's cells (bit `k` is column `8g + k`). Leaves set bits
/// here, one byte per row per group; [`PlaneBuf::write_cells`] then turns
/// each group's two 8-plane words into its 8 cells with a bit transpose,
/// so every cell is written once, not once per plane. Leaves are cropped
/// to the tile's rows and groups; bits of the padding columns inside the
/// last group are never written out.
#[derive(Debug, Default)]
pub(crate) struct PlaneBuf {
    /// `rows × width` groups, row-major.
    groups: Vec<[u8; 16]>,
    rows: usize,
    cols: usize,
    /// 8-column groups per row.
    width: usize,
}

/// The four 4×4 [`Bitmap::literal16`]s of an 8×8 region, in quadrant order
/// (top-left, top-right, bottom-left, bottom-right), as one byte per row.
#[inline]
pub(crate) fn block8(literals: [u16; 4]) -> u64 {
    // Row nibble `k` of a literal to the low half of byte `k`.
    let spread = |x: u16| {
        let x = u64::from(x);
        let x = (x | x << 8) & 0x00FF_00FF;
        (x | x << 4) & 0x0F0F_0F0F
    };
    let [tl, tr, bl, br] = literals.map(spread);
    (tl | tr << 4) | (bl | br << 4) << 32
}

/// Transpose an 8×8 bit matrix held row by row in the bytes of a word:
/// bit `k` of byte `p` moves to bit `p` of byte `k`. Three delta-swaps
/// exchange the off-diagonal 1×1, 2×2 and 4×4 blocks.
#[inline]
fn transpose8(mut x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^ t ^ (t << 28)
}

/// The 8 cells of one group: cell `k` takes plane `p` from bit `k` of
/// byte `p`, and every plane of `ones`.
#[inline]
fn group_cells(group: &[u8; 16], ones: u16) -> [u16; 8] {
    let (lo, hi) = group.split_at(8);
    let lo = transpose8(u64::from_le_bytes(lo.try_into().expect("8 bytes")));
    let hi = transpose8(u64::from_le_bytes(hi.try_into().expect("8 bytes")));
    let ones = u64::from(ones) * 0x0001_0001_0001_0001;
    let quad = |shift: u32| widen(lo >> shift) | widen(hi >> shift) << 8 | ones;
    let (a, b) = (quad(0), quad(32));
    std::array::from_fn(|k| ((if k < 4 { a } else { b }) >> (16 * (k % 4))) as u16)
}

/// The low 4 bytes of `x`, each in the low byte of a 16-bit lane.
#[inline]
fn widen(x: u64) -> u64 {
    let x = x & 0xFFFF_FFFF;
    let x = (x | x << 16) & 0x0000_FFFF_0000_FFFF;
    (x | x << 8) & 0x00FF_00FF_00FF_00FF
}

impl PlaneBuf {
    /// Clear the buffer for a `rows × cols` tile: every plane bit zero.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        let width = cols.div_ceil(8);
        self.groups.clear();
        self.groups.resize(rows * width, [0; 16]);
        (self.rows, self.cols, self.width) = (rows, cols, width);
    }

    /// The tile rows of the square region at `(r0, c0)`, or `None` if it
    /// is all padding.
    #[inline]
    fn rows_in(&self, r0: usize, c0: usize, size: usize) -> Option<usize> {
        (r0 < self.rows && c0 < self.cols).then(|| (self.rows - r0).min(size))
    }

    /// Set bit `plane` of every tile cell of the aligned square region.
    #[inline]
    pub fn fill_ones(&mut self, plane: usize, r0: usize, c0: usize, size: usize) {
        debug_assert!(size >= 8 && c0.is_multiple_of(8));
        let Some(h) = self.rows_in(r0, c0, size) else {
            return;
        };
        let w = self.width;
        let (g0, g1) = (c0 / 8, (c0 / 8 + size / 8).min(w));
        for row in r0..r0 + h {
            for group in &mut self.groups[row * w + g0..row * w + g1] {
                group[plane] = 0xFF;
            }
        }
    }

    /// Store bit `plane` of the 8×8 region at `(r0, c0)` from a
    /// [`block8`]: byte `k` is region row `k`.
    #[inline]
    pub fn set_block8(&mut self, plane: usize, r0: usize, c0: usize, block: u64) {
        let Some(h) = self.rows_in(r0, c0, 8) else {
            return;
        };
        let w = self.width;
        for (k, row) in (r0..r0 + h).enumerate() {
            self.groups[row * w + c0 / 8][plane] = (block >> (8 * k)) as u8;
        }
    }

    /// Write every cell of the `rows × cols` tile: plane `p` from its
    /// group's byte `p`, and every plane of `ones` set.
    pub fn write_cells(&self, values: &mut [u16], ones: u16) {
        assert_eq!(values.len(), self.rows * self.cols);
        if values.is_empty() {
            return;
        }
        let rows = self.groups.chunks_exact(self.width);
        for (groups, out) in rows.zip(values.chunks_exact_mut(self.cols)) {
            // Whole groups store 8 cells at once; only the last may be cut.
            let (whole, tail) = out.as_chunks_mut::<8>();
            let n = whole.len();
            for (group, cells) in groups.iter().zip(whole) {
                *cells = group_cells(group, ones);
            }
            if let Some(group) = groups.get(n) {
                for (cell, v) in tail.iter_mut().zip(group_cells(group, ones)) {
                    *cell = v;
                }
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
    fn plane_buf_fill_crops_to_the_tile() {
        // Tiles padded to 8 and 32: leaves overlapping the padding set only
        // the cells inside the tile, all-padding leaves set nothing, and
        // every other cell is written as zero.
        let cases = [
            ((5, 7), vec![(0, 0, 8)]),
            (
                (3, 20),
                vec![(0, 0, 32), (0, 16, 16), (0, 8, 8), (0, 24, 8), (8, 0, 8)],
            ),
            ((20, 3), vec![(16, 0, 16), (0, 8, 8)]),
        ];
        let mut planes = PlaneBuf::default();
        for ((rows, cols), leaves) in cases {
            for (r0, c0, size) in leaves {
                planes.reset(rows, cols);
                planes.fill_ones(9, r0, c0, size);
                let mut values = vec![0xA5A5u16; rows * cols];
                planes.write_cells(&mut values, 0);
                for r in 0..rows {
                    for c in 0..cols {
                        let inside = (r0..r0 + size).contains(&r) && (c0..c0 + size).contains(&c);
                        let want = if inside { 1 << 9 } else { 0 };
                        assert_eq!(
                            values[r * cols + c],
                            want,
                            "{rows}x{cols} ({r0},{c0},{size}) at ({r},{c})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn plane_buf_literal_roundtrips_through_bitmap() {
        // Literals read from a bitmap and written back as 8×8 blocks
        // reproduce it, including blocks that straddle the tile's last
        // rows and columns.
        let (rows, cols) = (11, 13);
        let values: Vec<u16> = (0..rows * cols).map(|i| (i * 40503) as u16).collect();
        let mut bm = Bitmap::zero(16);
        let mut planes = PlaneBuf::default();
        planes.reset(rows, cols);
        for plane in 0..16 {
            bm.load_plane(&values, rows, cols, plane);
            for (r0, c0) in [(0, 0), (0, 8), (8, 0), (8, 8)] {
                let quadrants = [(0, 0), (0, 4), (4, 0), (4, 4)];
                let literals = quadrants.map(|(dr, dc)| bm.literal16(r0 + dr, c0 + dc));
                planes.set_block8(plane as usize, r0, c0, block8(literals));
            }
        }
        let mut recon = vec![0u16; rows * cols];
        planes.write_cells(&mut recon, 0);
        assert_eq!(recon, values);
        // Planes in `ones` read as set whatever the buffer holds.
        planes.write_cells(&mut recon, 0x8001);
        let want: Vec<u16> = values.iter().map(|v| v | 0x8001).collect();
        assert_eq!(recon, want);
    }
}
