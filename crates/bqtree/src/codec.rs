//! Per-tile BQ-Tree encode/decode.
//!
//! The encoder reuses one padded [`Bitmap`] per tile: it loads a plane,
//! walks its quadtree, and reloads the bitmap for the next plane. The
//! decoder holds no plane at all: [`PlaneCells`] ORs each leaf straight
//! into the tile's cells as the stream is read.

use crate::bits::{BitReader, BitWriter};
use crate::plane::{Bitmap, PlaneCells};
use bytes::{Buf, Bytes};
use zonal_raster::TileData;

/// Node codes in the quadtree bitstream.
const CODE_ZERO: u32 = 0;
const CODE_ONE: u32 = 1;
const CODE_MIXED: u32 = 2;

/// Leaf side at which mixed regions switch to literal bitmaps.
const LITERAL_SIDE: usize = 4;

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

fn decode_region(
    cells: &mut PlaneCells<'_>,
    r: &mut BitReader<'_>,
    r0: usize,
    c0: usize,
    size: usize,
) {
    if size == LITERAL_SIDE {
        return decode_literal_node(cells, r, r0, c0);
    }
    match r.get(2) {
        CODE_ZERO => {}
        CODE_ONE => cells.fill_ones(r0, c0, size),
        CODE_MIXED => {
            let h = size / 2;
            for (dr, dc) in [(0, 0), (0, h), (h, 0), (h, h)] {
                // Most nodes sit at the literal level. A small
                // non-recursive decoder handles them, since a full
                // recursive call costs about as much as the node's work.
                if h == LITERAL_SIDE {
                    decode_literal_node(cells, r, r0 + dr, c0 + dc);
                } else {
                    decode_region(cells, r, r0 + dr, c0 + dc, h);
                }
            }
        }
        other => corrupt_code(other),
    }
}

/// A node at literal size: a uniform leaf, or code 2 and a 4×4 literal.
#[inline]
fn decode_literal_node(cells: &mut PlaneCells<'_>, r: &mut BitReader<'_>, r0: usize, c0: usize) {
    match r.get(2) {
        CODE_ZERO => {}
        CODE_ONE => cells.fill_ones(r0, c0, LITERAL_SIDE),
        CODE_MIXED => cells.or_literal16(r0, c0, r.get(16) as u16),
        other => corrupt_code(other),
    }
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
/// which must be all zero and hold exactly the header's `rows × cols`
/// cells (the decoder ORs each plane's bits in).
pub(crate) fn decode_tile_into(mut data: &[u8], values: &mut [u16]) {
    let (rows, cols) = header(&mut data);
    assert_eq!(
        values.len(),
        rows * cols,
        "BQ-Tree tile header {rows}x{cols} does not match its buffer"
    );
    debug_assert!(values.iter().all(|&v| v == 0), "decode target not zeroed");
    let side = Bitmap::side_for(rows, cols);
    let mut r = BitReader::new(data);
    for plane in 0..PLANES {
        let mut cells = PlaneCells::new(values, rows, cols, plane);
        decode_region(&mut cells, &mut r, 0, 0, side);
    }
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
    #[should_panic(expected = "truncated")]
    fn truncated_header_panics() {
        let _ = decode_tile(&[0u8, 1]);
    }
}
