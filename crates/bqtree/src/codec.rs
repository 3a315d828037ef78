//! Per-tile BQ-Tree encode/decode.
//!
//! The encoder reuses one padded [`Bitmap`] per tile: it loads a plane,
//! walks its quadtree, and reloads the bitmap for the next plane. The
//! decoder walks each plane's quadtree into one `PlaneBuf` of the tile's
//! 16 planes, then writes every cell once through a bit transpose. A plane
//! whose bits equal the tile shape's all-ones stream, computed once per
//! shape by the encoder's own `encode_region`, is consumed in one read.

use crate::bits::{BitReader, BitWriter};
use crate::plane::{block8, Bitmap, PlaneBuf};
use bytes::{Buf, Bytes};
use std::cell::RefCell;
use zonal_raster::TileData;

/// Node codes in the quadtree bitstream.
const CODE_ZERO: u32 = 0;
const CODE_ONE: u32 = 1;
const CODE_MIXED: u32 = 2;

/// Leaf side at which mixed regions switch to literal bitmaps.
const LITERAL_SIDE: usize = 4;

/// Side of the nodes whose rows are whole bytes of a [`PlaneBuf`] group.
const BLOCK_SIDE: usize = 2 * LITERAL_SIDE;

/// Number of bitplanes in a `u16` tile.
const PLANES: u32 = 16;

fn encode_region(bm: &Bitmap, w: &mut BitWriter, r0: usize, c0: usize, size: usize) {
    match bm.region_uniform(r0, c0, size) {
        Some(false) => w.put(CODE_ZERO, 2),
        Some(true) => w.put(CODE_ONE, 2),
        None => {
            w.put(CODE_MIXED, 2);
            if size == LITERAL_SIDE {
                w.put(bm.literal16(r0, c0) as u32, 16);
            } else {
                let h = size / 2;
                encode_region(bm, w, r0, c0, h);
                encode_region(bm, w, r0, c0 + h, h);
                encode_region(bm, w, r0 + h, c0, h);
                encode_region(bm, w, r0 + h, c0 + h, h);
            }
        }
    }
}

/// Decode the node of the aligned `size` square at `(r0, c0)` into bit
/// `plane` of `planes`.
fn decode_region(
    planes: &mut PlaneBuf,
    plane: usize,
    r: &mut BitReader<'_>,
    r0: usize,
    c0: usize,
    size: usize,
) {
    match size {
        // Only a tile of at most 4×4 cells has a literal-level root; it is
        // the top-left quadrant of a block.
        LITERAL_SIDE => {
            let literal = decode_literal_node(r);
            planes.set_block8(plane, r0, c0, block8([literal, 0, 0, 0]));
        }
        BLOCK_SIDE => decode_block_node(planes, plane, r, r0, c0),
        _ => match r.get(2) {
            CODE_ZERO => {}
            CODE_ONE => planes.fill_ones(plane, r0, c0, size),
            CODE_MIXED => {
                let h = size / 2;
                for (dr, dc) in [(0, 0), (0, h), (h, 0), (h, h)] {
                    // Most nodes sit at or below the block level, where a
                    // full recursive call costs about as much as the
                    // node's work.
                    if h == BLOCK_SIDE {
                        decode_block_node(planes, plane, r, r0 + dr, c0 + dc);
                    } else {
                        decode_region(planes, plane, r, r0 + dr, c0 + dc, h);
                    }
                }
            }
            other => corrupt_code(other),
        },
    }
}

/// An 8×8 node: a uniform leaf, or code 2 and four literal-level nodes,
/// stored as one byte per row.
#[inline(always)]
fn decode_block_node(
    planes: &mut PlaneBuf,
    plane: usize,
    r: &mut BitReader<'_>,
    r0: usize,
    c0: usize,
) {
    let block = match r.get(2) {
        CODE_ZERO => return,
        CODE_ONE => u64::MAX,
        CODE_MIXED => block8([(); 4].map(|()| decode_literal_node(r))),
        other => corrupt_code(other),
    };
    planes.set_block8(plane, r0, c0, block);
}

/// A node at literal size as its 4×4 bits: none set for code 0, all for
/// code 1, the 16 literal bits after code 2. While 18 bits remain, it
/// decodes without branching on the code, which is data and mispredicts.
#[inline(always)]
fn decode_literal_node(r: &mut BitReader<'_>) -> u16 {
    let Some(bits) = r.peek(2 + 16) else {
        return match r.get(2) {
            CODE_ZERO => 0,
            CODE_ONE => u16::MAX,
            CODE_MIXED => r.get(16) as u16,
            other => corrupt_code(other),
        };
    };
    let code = (bits & 3) as u32;
    if code > CODE_MIXED {
        corrupt_code(code);
    }
    let mixed = code == CODE_MIXED;
    r.skip(2 + 16 * u32::from(mixed));
    let literal = (bits >> 2) as u16 & 0u16.wrapping_sub(u16::from(mixed));
    literal | 0u16.wrapping_sub(u16::from(code == CODE_ONE))
}

#[cold]
fn corrupt_code(code: u32) -> ! {
    panic!("corrupt BQ-Tree stream: node code {code}")
}

/// Encode a tile into a self-contained byte buffer.
///
/// ```
/// use zonal_bqtree::{decode_tile, encode_tile};
/// use zonal_raster::TileData;
///
/// let tile = TileData::filled(1200, 64, 64);          // constant elevation
/// let encoded = encode_tile(&tile);
/// assert_eq!(encoded.len(), 8, "constant 64x64 tile: header + 16 leaf codes");
/// assert_eq!(decode_tile(&encoded), tile, "lossless");
/// ```
pub fn encode_tile(tile: &TileData) -> Bytes {
    assert!(
        tile.rows > 0 && tile.cols > 0,
        "cannot encode an empty tile"
    );
    assert!(
        tile.rows <= u16::MAX as usize && tile.cols <= u16::MAX as usize,
        "tile dimension exceeds the u16 header"
    );
    let side = Bitmap::side_for(tile.rows, tile.cols);
    let mut bm = Bitmap::zero(side);
    let mut w = BitWriter::new();
    for plane in 0..PLANES {
        bm.load_plane(&tile.values, tile.rows, tile.cols, plane);
        encode_region(&bm, &mut w, 0, 0, side);
    }
    let payload = w.finish();
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(tile.rows as u16).to_be_bytes());
    out.extend_from_slice(&(tile.cols as u16).to_be_bytes());
    out.extend_from_slice(&payload);
    Bytes::from(out)
}

/// The `(rows, cols)` header of an encoded tile, consumed from `data`.
fn header(data: &mut &[u8]) -> (usize, usize) {
    assert!(data.len() >= 4, "truncated BQ-Tree tile header");
    (data.get_u16() as usize, data.get_u16() as usize)
}

/// Decode a tile previously produced by [`encode_tile`].
pub fn decode_tile(data: &[u8]) -> TileData {
    let (rows, cols) = header(&mut &data[..]);
    let mut values = vec![0u16; rows * cols];
    decode_tile_into(data, &mut values);
    TileData::new(values, rows, cols)
}

/// Decode a tile previously produced by [`encode_tile`] into `values`,
/// which must hold exactly the header's `rows × cols` cells. Every cell is
/// overwritten.
pub(crate) fn decode_tile_into(mut data: &[u8], values: &mut [u16]) {
    let (rows, cols) = header(&mut data);
    assert_eq!(
        values.len(),
        rows * cols,
        "BQ-Tree tile header {rows}x{cols} does not match its buffer"
    );
    let side = Bitmap::side_for(rows, cols);
    DECODER.with_borrow_mut(|d| {
        let ones = d.ones_stream(rows, cols);
        d.planes.reset(rows, cols);
        let mut r = BitReader::new(data);
        let mut ones_mask = 0u16;
        for plane in 0..PLANES as usize {
            if let Some((bits, len)) = ones {
                if r.peek(len) == Some(bits) {
                    r.skip(len);
                    ones_mask |= 1 << plane;
                    continue;
                }
            }
            decode_region(&mut d.planes, plane, &mut r, 0, 0, side);
        }
        d.planes.write_cells(values, ones_mask);
    });
}

/// Longest all-ones stream [`BitReader::peek`] can compare in one read.
const MAX_ONES_BITS: usize = 56;

/// One thread's decode scratch, kept across tiles.
#[derive(Debug, Default)]
struct Decoder {
    planes: PlaneBuf,
    /// The last shape decoded and its [`ones_stream`]; (0, 0) has none.
    shape: (usize, usize),
    ones: Option<(u64, u32)>,
}

impl Decoder {
    fn ones_stream(&mut self, rows: usize, cols: usize) -> Option<(u64, u32)> {
        if self.shape != (rows, cols) {
            self.shape = (rows, cols);
            self.ones = ones_stream(rows, cols);
        }
        self.ones
    }
}

thread_local! {
    static DECODER: RefCell<Decoder> = RefCell::default();
}

/// The encoded plane of a `rows × cols` tile whose cells all have the bit
/// set, as `(bits, length)`, when it is at most [`MAX_ONES_BITS`] long.
/// Shapes whose padded square exceeds 16 times their cells are skipped:
/// the bitmap would outgrow the tile, and their ragged edge makes the
/// stream far longer than a peek anyway.
fn ones_stream(rows: usize, cols: usize) -> Option<(u64, u32)> {
    let side = Bitmap::side_for(rows, cols);
    if rows == 0 || cols == 0 || side * side > 16 * rows * cols {
        return None;
    }
    let mut bm = Bitmap::zero(side);
    bm.load_plane(&vec![1; rows * cols], rows, cols, 0);
    let mut w = BitWriter::new();
    encode_region(&bm, &mut w, 0, 0, side);
    let len = w.bit_len();
    if len > MAX_ONES_BITS {
        return None;
    }
    let mut word = [0u8; 8];
    let bytes = w.finish();
    word[..bytes.len()].copy_from_slice(&bytes);
    Some((u64::from_le_bytes(word), len as u32))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(tile: &TileData) -> usize {
        let enc = encode_tile(tile);
        let dec = decode_tile(&enc);
        assert_eq!(&dec, tile);
        enc.len()
    }

    #[test]
    fn constant_tile_compresses_to_header_plus_codes() {
        let tile = TileData::filled(1234, 64, 64);
        let n = roundtrip(&tile);
        // 16 planes × 2 bits + 4-byte header = 8 bytes. Far below raw 8 KiB.
        assert_eq!(n, 4 + 4);
    }

    #[test]
    fn zero_tile() {
        let tile = TileData::filled(0, 32, 32);
        assert_eq!(roundtrip(&tile), 8);
    }

    #[test]
    fn all_nodata_tile() {
        let tile = TileData::filled(u16::MAX, 128, 128);
        assert_eq!(roundtrip(&tile), 8, "all-ones planes are single nodes");
    }

    #[test]
    fn ragged_tile_roundtrip() {
        let tile = TileData::new((0..35u16).collect(), 5, 7);
        roundtrip(&tile);
    }

    #[test]
    fn single_cell_tile() {
        let tile = TileData::new(vec![0xABCD], 1, 1);
        roundtrip(&tile);
    }

    #[test]
    fn random_tile_roundtrip_and_size() {
        // Worst case: white noise. Must still round-trip; size may exceed raw.
        let mut state = 0x1234_5678_u32;
        let values: Vec<u16> = (0..64 * 64)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                (state >> 16) as u16
            })
            .collect();
        let tile = TileData::new(values, 64, 64);
        let n = roundtrip(&tile);
        let raw = 64 * 64 * 2;
        // Noise costs ≈ (2 + 16)/16 bits per cell per plane ≈ 1.13× raw + tree overhead.
        assert!(
            n < raw * 2,
            "even noise stays under 2× raw, got {n} vs {raw}"
        );
    }

    #[test]
    fn smooth_gradient_compresses_well() {
        // DEM-like: smooth horizontal gradient 0..255 over a 256-wide tile.
        let rows = 128;
        let cols = 256;
        let values: Vec<u16> = (0..rows * cols).map(|i| (i % cols) as u16).collect();
        let tile = TileData::new(values, rows, cols);
        let enc = encode_tile(&tile);
        let raw = rows * cols * 2;
        let ratio = enc.len() as f64 / raw as f64;
        assert!(
            ratio < 0.35,
            "gradient should compress to <35% of raw, got {ratio:.2}"
        );
        assert_eq!(decode_tile(&enc), tile);
    }

    #[test]
    fn structured_tile_roundtrip() {
        // Half water (NODATA) / half terrace values: exercises large
        // one-leaves, multi-word rows and mixed nodes.
        let rows = 96;
        let cols = 80;
        let values: Vec<u16> = (0..rows)
            .flat_map(|r| {
                (0..cols).map(move |c| {
                    if c < cols / 2 {
                        u16::MAX
                    } else {
                        ((r / 8) * 100) as u16
                    }
                })
            })
            .collect();
        roundtrip(&TileData::new(values, rows, cols));
    }

    #[test]
    fn decode_overwrites_a_dirty_buffer() {
        // A ragged tile with NODATA (all-ones planes) and noise, and a
        // power-of-two one: no cell may keep what the target held.
        let mut state = 0x2545_F491_u32;
        let ragged: Vec<u16> = (0..12 * 5)
            .map(|i| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                if i % 3 == 0 {
                    u16::MAX
                } else {
                    (state >> 16) as u16
                }
            })
            .collect();
        let tiles = [
            TileData::new(ragged, 12, 5),
            TileData::new((0..256u16).map(|i| i * 7).collect(), 16, 16),
            TileData::filled(0, 6, 6),
        ];
        for tile in &tiles {
            let enc = encode_tile(tile);
            for dirt in [0xFFFF, 0xA5A5] {
                let mut values = vec![dirt; tile.len()];
                decode_tile_into(&enc, &mut values);
                assert_eq!(values, decode_tile(&enc).values, "dirt {dirt:#x}");
                assert_eq!(values, tile.values);
            }
        }
    }

    #[test]
    fn ones_stream_is_the_encoded_all_ones_plane() {
        // 12×12 (the 120-cpd tile) fits a peek; 6×6 (60 cpd) needs 58
        // bits, a 12×5 edge tile two literals, and a thin 1×100 tile is
        // skipped.
        for (rows, cols) in [(12, 12), (16, 16), (8, 12)] {
            let enc = encode_tile(&TileData::filled(1, rows, cols));
            let (bits, len) = ones_stream(rows, cols).expect("fits a peek");
            let mut r = BitReader::new(&enc[4..]);
            assert_eq!(r.peek(len), Some(bits), "{rows}x{cols}");
        }
        assert_eq!(ones_stream(6, 6), None);
        assert_eq!(ones_stream(12, 5), None);
        assert_eq!(ones_stream(1, 100), None);
    }

    #[test]
    #[should_panic(expected = "truncated")]
    fn truncated_header_panics() {
        let _ = decode_tile(&[0u8, 1]);
    }
}
