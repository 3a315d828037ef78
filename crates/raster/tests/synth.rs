//! Terrain synthesis: pinned digests of the full catalog and property
//! tests of the tile and strip generators against the per-point
//! `elevation` oracle, on arbitrary grids and on blocks placed across
//! coastlines.
//!
//! The synthetic SRTM terrain is every workload's input, so its bits are
//! pinned: the BQ-Tree bitstream goldens, the Table 2 counted rows and the
//! served answers all derive from it.

use proptest::prelude::*;
use zonal_raster::srtm::{elevation, SrtmCatalog, SyntheticSrtm, NODATA};
use zonal_raster::{GeoTransform, Tile, TileGrid, TileSource, TileView};

/// Terrain seed of the pinned catalog (the benchmark's terrain).
const GOLDEN_SEED: u64 = 20140519;

/// The paper's tile size.
const TILE_DEG: f64 = 0.1;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(cells: &[u16]) -> u64 {
    cells
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .fold(FNV_OFFSET, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
        })
}

/// Paste tile `t`'s cells into the row-major raster buffer `cells`.
fn paste(cells: &mut [u16], cols: usize, t: Tile, tile: TileView) {
    assert_eq!((tile.rows, tile.cols), (t.rows, t.cols));
    for (dr, row) in tile.values.chunks_exact(t.cols).enumerate() {
        let at = (t.row0 + dr) * cols + t.col0;
        cells[at..at + t.cols].copy_from_slice(row);
    }
}

/// Every tile of `src`, pasted into one row-major buffer.
fn assemble_tiles(src: &SyntheticSrtm) -> Vec<u16> {
    let grid = src.grid();
    let cols = grid.raster_cols();
    let mut cells = vec![0u16; grid.raster_rows() * cols];
    for t in grid.iter() {
        paste(&mut cells, cols, t, src.tile(t.tx, t.ty).view());
    }
    cells
}

/// Every tile of `src`, generated in strips of `strip_rows` tile rows (the
/// last strip takes what is left) and pasted into one row-major buffer.
fn assemble_strips(src: &SyntheticSrtm, strip_rows: usize) -> Vec<u16> {
    let grid = src.grid();
    let cols = grid.raster_cols();
    let mut cells = vec![0u16; grid.raster_rows() * cols];
    for ty0 in (0..grid.tiles_y()).step_by(strip_rows) {
        let strip = src.strip(ty0..(ty0 + strip_rows).min(grid.tiles_y()));
        assert_eq!(
            strip.len(),
            strip_rows.min(grid.tiles_y() - ty0) * grid.tiles_x()
        );
        for (b, tile) in strip.tiles().enumerate() {
            let t = grid.tile(b % grid.tiles_x(), ty0 + b / grid.tiles_x());
            paste(&mut cells, cols, t, tile);
        }
    }
    cells
}

/// Assert that every tile of `src` equals `elevation()` at each of its
/// cell centers, and that `to_raster()` and strips of `strip_rows` tile
/// rows (the last one partial) equal the tiles.
fn assert_matches_oracle(src: &SyntheticSrtm, strip_rows: usize) {
    let gt = *src.grid().transform();
    for t in src.grid().iter() {
        let tile = src.tile(t.tx, t.ty);
        assert_eq!((tile.rows, tile.cols), (t.rows, t.cols));
        for dr in 0..t.rows {
            for dc in 0..t.cols {
                let p = gt.cell_center(t.row0 + dr, t.col0 + dc);
                assert_eq!(
                    tile.get(dr, dc),
                    elevation(src.seed(), p.x, p.y),
                    "tile ({},{}) cell ({dr},{dc}) at ({}, {})",
                    t.tx,
                    t.ty,
                    p.x,
                    p.y
                );
            }
        }
    }
    let whole = src.to_raster();
    assert_eq!(whole.data(), &assemble_tiles(src)[..]);
    assert_eq!(whole.data(), &assemble_strips(src, strip_rows)[..]);
}

/// Whether the cell centered at `(x, y)` is land.
fn is_land(seed: u64, x: f64, y: f64) -> bool {
    elevation(seed, x, y) != NODATA
}

/// A column `q` such that exactly one of the cells `q` and `q + 1` is
/// land, on the row of cell centers at `y` whose column `c` is centered at
/// `x0 + (c + 0.5) * s`, searched eastward over 360°: `None` when the row
/// is all land or all water there.
fn coast(seed: u64, x0: f64, y: f64, s: f64) -> Option<usize> {
    let land = |c: usize| is_land(seed, x0 + (c as f64 + 0.5) * s, y);
    let step = ((0.25 / s) as usize).max(1);
    let first = land(0);
    let mut hi = (1..=(360.0 / 0.25) as usize)
        .map(|k| k * step)
        .find(|&c| land(c) != first)?;
    let mut lo = hi - step;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if land(mid) == first {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

/// Tile rows per strip in the digest check: the pipeline's default, which
/// leaves a partial last strip on most catalog partitions.
const STRIP_ROWS: usize = 4;

/// FNV-1a of every partition of the catalog at `cpd`, row-major. Each
/// partition is synthesized three times, whole through `to_raster()`, tile
/// by tile through `tile()` and in strips of [`STRIP_ROWS`] tile rows
/// through `strip()`, and all three must agree.
fn catalog_digests(cpd: u32) -> Vec<u64> {
    SrtmCatalog::new(cpd)
        .partitions()
        .iter()
        .map(|part| {
            let src = SyntheticSrtm::new(part.grid(TILE_DEG), GOLDEN_SEED);
            let whole = src.to_raster();
            let digest = fnv1a(whole.data());
            assert_eq!(
                fnv1a(&assemble_tiles(&src)),
                digest,
                "{} ({}, {}): tiles disagree with to_raster()",
                part.raster_name,
                part.sub_row,
                part.sub_col
            );
            assert_eq!(
                fnv1a(&assemble_strips(&src, STRIP_ROWS)),
                digest,
                "{} ({}, {}): strips disagree with to_raster()",
                part.raster_name,
                part.sub_row,
                part.sub_col
            );
            digest
        })
        .collect()
}

#[test]
fn catalog_terrain_golden_20cpd() {
    assert_eq!(catalog_digests(20), GOLDEN_20CPD);
}

#[test]
#[ignore = "synthesizes 5.6 M cells three times; run in release"]
fn catalog_terrain_golden_60cpd() {
    assert_eq!(catalog_digests(60), GOLDEN_60CPD);
}

#[test]
#[ignore = "synthesizes 22.4 M cells three times; run in release"]
fn catalog_terrain_golden_120cpd() {
    assert_eq!(catalog_digests(120), GOLDEN_120CPD);
}

/// Per-partition digests, in catalog order, at 20 cells/degree.
const GOLDEN_20CPD: [u64; 36] = [
    0x07c51e2b701b84ab,
    0xd4ee2c0241dffe45,
    0xfe73de71d606599d,
    0x3cbbacc8a4e5a8e0,
    0xc462beb8be0ad1d8,
    0xbf4727367789468f,
    0xc96004194d76a726,
    0x049d267915d0c367,
    0x36b075fba2925ca7,
    0x2dc25de5b837a559,
    0xe786c0524b8d0ac3,
    0xbb913c0602a2167b,
    0x12ec08e63eef5408,
    0xe3a89e64e37d5071,
    0x0ace3a17efea1a02,
    0xf21b3720bbb8aadb,
    0xd9ddc8b076b2fb1b,
    0xf7d7cce7128c4cb3,
    0x9abfd1592da4fb9c,
    0xf763e515d6a36653,
    0xfa5164b1ed460417,
    0xef3df09f835dc35f,
    0xd1938166994b07c7,
    0x5beb6fb96549b3eb,
    0xca0b731dac5610aa,
    0x22770f3ca9f24bf7,
    0x030a1c8b6f67812d,
    0xa543203be100106f,
    0x516ccd069bff940d,
    0xb8ee963bb3d6292b,
    0xdf245f7fe5449269,
    0xaaed2843c4748a58,
    0x43bead782d8a02f6,
    0xc1075f99b2eadde4,
    0x1ccba62b3a947672,
    0x79a8271dc1bb25dc,
];

/// Per-partition digests, in catalog order, at 60 cells/degree.
const GOLDEN_60CPD: [u64; 36] = [
    0xbe9ecfecb00eb2d4,
    0x3ebea6023dcc6545,
    0x9f74202522b338fa,
    0xa47617bf0d2bdcda,
    0xb5e8aa3e14afb88e,
    0x2a974f372283c14a,
    0xc352effd8bff27e6,
    0xbf989f3a2b979ba5,
    0x0b1793d723deaf11,
    0x846e9bf0447eb041,
    0x061381183fd19359,
    0x010a2251e50ed07b,
    0x68fa7f55b5f5315b,
    0xe36edb3f7367dee1,
    0x69c368bb2ff1beee,
    0x5d5ec30705692ba3,
    0x9a75e1b32cc1a992,
    0x40a23d5f6c30f410,
    0x7320b916011219ee,
    0xc6b9668f478c28d8,
    0xdd7365145135052d,
    0x419064cf33b24262,
    0x4c3e6dcd0937dac7,
    0x70206b9bc7378531,
    0xf693252b8f9d524c,
    0x2947ebd6849acb47,
    0x8a8af38ea705021c,
    0x4073977ed14fe2ce,
    0x146a846b1aac6ba3,
    0x6c23610386bd73b4,
    0x4187199742b5a238,
    0x8ee2aaa5a3f1d2cc,
    0x4ed70a0ddfc5b863,
    0x25a5c7dbb01047e1,
    0xe8c2ab1b32fe5730,
    0xcf2c2147f0cac52d,
];

/// Per-partition digests, in catalog order, at 120 cells/degree.
const GOLDEN_120CPD: [u64; 36] = [
    0x4dfd817b0a06d6e3,
    0xbf989f3a2b979ba5,
    0xe4cff070945055be,
    0xfe6f3c2041543619,
    0xe573c440ca8e25e0,
    0xba1b121bbd39a72f,
    0x6170234c55025d0c,
    0xb651d3259ae86125,
    0x179cb0984f69eadf,
    0x25ada64d0e120bfd,
    0x0dadcf4467031a44,
    0x8ec4809993d3e2de,
    0x599d2754b85d718b,
    0xbfb223993136c466,
    0xcd4fb50eac94c993,
    0x433f8f1d626280ad,
    0x5294e32bfab4595d,
    0x28fc7187a32c907a,
    0x21eb2e9640199e56,
    0x80e7f292f912db3d,
    0x7f7387ef4bfe9b66,
    0xb81d3ca6a0b6ab2c,
    0x3d59b18ebaef6554,
    0x103f6ab4293e50b2,
    0x8cce9fc065844037,
    0x51b598491ce1302d,
    0xcdaafde82b604459,
    0xbd3de9c3aaa682c2,
    0x80b0ea4ed6eabfde,
    0x65021dea056a7644,
    0x850d610a1a00fb9c,
    0x2feb84fe24a4a26b,
    0x65a952165b90a526,
    0x321026b19722b7c4,
    0xc2787676b30d7940,
    0xd5170b9a9d0ce6a0,
];

/// A grid origin coordinate. Kinds: arbitrary, a whole degree, a cell
/// center on a whole degree (so center coordinates sit on the lattice
/// lines of the micro-relief and, at 0, of every octave), and zero.
fn origin(kind: u8, whole: i64, frac: f64, cell: f64) -> f64 {
    match kind {
        0 => whole as f64 + frac,
        1 => whole as f64,
        2 => whole as f64 - cell / 2.0,
        _ => 0.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `tile()` equals per-cell `elevation()` at every cell center, for
    /// arbitrary seeds, origins (negative and lattice-aligned included),
    /// cell sizes from 1/3600° to 1° and tile sizes from 1 to 40 cells with
    /// ragged edge tiles; `to_raster()` equals the tiles, and so do strips
    /// of 1 to 4 tile rows, the last one partial.
    #[test]
    fn tiles_match_elevation_oracle(
        seed in any::<u64>(),
        xs in (0u8..4, -200i64..200, 0.0f64..1.0),
        ys in (0u8..4, -90i64..90, 0.0f64..1.0),
        log_cpd in 0.0f64..1.0,
        shape in (1usize..60, 1usize..60, 1usize..41),
        strip_rows in 1usize..5,
    ) {
        let (rows, cols, tile_cells) = shape;
        let (kx, wx, fx) = xs;
        let (ky, wy, fy) = ys;
        // Log-uniform over 1..=3600 cells/degree; odd resolutions use
        // non-square cells, to catch swapped axes.
        let cpd = 3600f64.powf(log_cpd).round() as u32;
        let sx = 1.0 / cpd as f64;
        let sy = if cpd.is_multiple_of(2) { sx } else { sx * 0.75 };
        let gt = GeoTransform::new(origin(kx, wx, fx, sx), origin(ky, wy, fy, sy), sx, sy);
        let src = SyntheticSrtm::new(TileGrid::new(rows, cols, tile_cells, gt), seed);
        assert_matches_oracle(&src, strip_rows);
    }

    /// `tile()`, `strip()` and `to_raster()` equal `elevation()` on blocks
    /// placed across a coastline, where the generator's land spans begin
    /// and end: the coast falls at the boundary between two tiles, after
    /// the first column of a tile whose `col0` is not 0, before its last
    /// column, or inside it, with tiles 1 to 5 cells wide (1-column tiles
    /// included) and a ragged last tile. The rows above and below the
    /// coast's row, and rows searched where no coast exists, are often
    /// all land or all water.
    #[test]
    fn coastline_blocks_match_elevation_oracle(
        seed in any::<u64>(),
        start in (-180.0f64..180.0, -60.0f64..60.0),
        log_cpd in 0.0f64..1.0,
        tile_cells in 1usize..6,
        place in (0usize..4, 0usize..5, 0usize..11),
        strip_rows in 1usize..4,
    ) {
        let (x_start, y) = start;
        let (at, ragged, row) = place;
        let s = 1.0 / 3600f64.powf(log_cpd).round();
        let t = tile_cells;
        // The raster column of `q`: the last of tile 0, the first of tile
        // 1, the one before tile 1's last, or inside tile 1.
        let lead = [t - 1, t, 2 * t - 2, t + t / 2][at];
        let q = coast(seed, x_start, y, s).unwrap_or(lead);
        let (rows, cols) = (2 * t + 1, 3 * t - ragged % t);
        let row = row % rows;
        let gt = GeoTransform::new(
            x_start + (q as f64 - lead as f64) * s,
            y - (row as f64 + 0.5) * s,
            s,
            s,
        );
        let src = SyntheticSrtm::new(TileGrid::new(rows, cols, t, gt), seed);
        assert_matches_oracle(&src, strip_rows);
    }
}

/// One-cell land spans and one-cell water gaps, found at 1 cell/degree
/// where the coastline is ragged at cell scale, placed at every column of
/// a tile whose `col0` is not 0, including 1-column tiles: `tile()`,
/// `strip()` and `to_raster()` equal `elevation()`.
#[test]
fn one_cell_spans_match_elevation_oracle() {
    for pattern in [[false, true, false], [true, false, true]] {
        let (lon, lat) = (-60i32..60)
            .flat_map(|lat| (-180i32..177).map(move |lon| (lon, lat)))
            .find(|&(lon, lat)| {
                (0..3).all(|k| {
                    is_land(GOLDEN_SEED, (lon + k) as f64 + 0.5, lat as f64 + 0.5)
                        == pattern[k as usize]
                })
            })
            .expect("a one-cell span at 1 cell/degree");
        for t in 1..=4 {
            for offset in 0..t {
                // The one-cell span is raster column `t + offset`, in tile 1.
                let c = t + offset;
                let gt = GeoTransform::new((lon + 1) as f64 - c as f64, lat as f64 - 1.0, 1.0, 1.0);
                let src = SyntheticSrtm::new(TileGrid::new(3, 3 * t, t, gt), GOLDEN_SEED);
                let whole = src.to_raster();
                let land: Vec<bool> = (c - 1..=c + 1).map(|c| whole.get(1, c) != NODATA).collect();
                assert_eq!(land, pattern, "the span sits at column {c}");
                assert_matches_oracle(&src, 1);
            }
        }
    }
}
