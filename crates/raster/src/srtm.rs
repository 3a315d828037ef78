//! Synthetic SRTM-like elevation data and the Table 1 raster catalog.
//!
//! The paper's raster input is the NASA SRTM 30 m DEM over CONUS:
//! 20,165,760,000 cells in 6 rasters, further split into 36 partitions for
//! the cluster experiment (Table 1). That data is tens of gigabytes and not
//! shippable, so this module provides:
//!
//! * [`elevation`] — a deterministic fractional-Brownian-motion terrain
//!   function with an ocean/no-data mask, producing an SRTM-like value
//!   distribution (most cells below 5000 m, spatially correlated values,
//!   no-data over water). Spatial correlation matters: it reproduces the
//!   atomic-update collision profile of Step 1 (neighbouring cells tend to
//!   hit the same histogram bin, as in real DEMs). It evaluates one point
//!   and is the oracle for the block generator below.
//! * [`SyntheticSrtm`] — a [`TileSource`] that materializes tiles of that
//!   terrain on demand, so experiments never hold a full raster in memory.
//!   Tiles, strips and whole rasters come from one block generator,
//!   bit-identical to [`elevation`]; see `SyntheticSrtm::block_rows`.
//! * [`SrtmCatalog`] — a reconstruction of the paper's Table 1: six
//!   disjoint rasters covering a CONUS-plus-margin region whose cell counts
//!   sum to **exactly 20,165,760,000** at 3600 cells/degree, with the 36-way
//!   partition schema. (The per-raster dimensions in the available paper
//!   text are garbled; the catalog here is a self-consistent reconstruction
//!   honouring every legible total: 6 rasters, 36 partitions,
//!   20,165,760,000 cells, 0.1°-aligned extents.) A `cells_per_degree`
//!   scale knob runs the same geometry at reduced resolution.

use crate::geotransform::GeoTransform;
use crate::partition::Partition;
use crate::tile::TileGrid;
use crate::{TileData, TileSource, TileStrip};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::ops::Range;
use zonal_geo::Mbr;

/// No-data marker (ocean / voids). SRTM uses -32768 in i16; we store cells
/// as u16 with the maximum value reserved.
pub const NODATA: u16 = u16::MAX;

/// Largest elevation the generator produces; the paper sets 5000 histogram
/// bins because "the majority of raster cells have values less than 5000".
pub const MAX_ELEVATION: u16 = 4999;

// ---------------------------------------------------------------------------
// Deterministic value-noise terrain
// ---------------------------------------------------------------------------

#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash of lattice row `iy`, shared by every corner on that row.
#[inline]
fn row_hash(iy: i64) -> u64 {
    splitmix64(iy as u64 ^ 0xA5A5_5A5A)
}

/// Lattice corner `ix` of the row hashed to `row`, in [0, 1).
#[inline]
fn corner(seed: u64, ix: i64, row: u64) -> f64 {
    let h = splitmix64(seed ^ splitmix64((ix as u64) ^ row));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The four corners `[v00, v10, v01, v11]` of the lattice cell at column
/// `ix` between the rows hashed to `r0` and `r1`.
#[inline]
fn corners(seed: u64, ix: i64, [r0, r1]: [u64; 2]) -> [f64; 4] {
    [
        corner(seed, ix, r0),
        corner(seed, ix + 1, r0),
        corner(seed, ix, r1),
        corner(seed, ix + 1, r1),
    ]
}

/// Quintic smoothstep (C2-continuous), the standard value-noise fade.
#[inline]
fn fade(t: f64) -> f64 {
    t * t * t * (t * (t * 6.0 - 15.0) + 10.0)
}

/// A noise coordinate split into its lattice index and faded fraction.
#[derive(Debug, Clone, Copy, Default)]
struct Axis {
    i: i64,
    f: f64,
}

#[inline]
fn axis(t: f64) -> Axis {
    let i = t.floor();
    Axis {
        i: i as i64,
        f: fade(t - i),
    }
}

/// Bilinear blend of a lattice cell's corners `[v00, v10, v01, v11]`.
#[inline]
fn blend(v: [f64; 4], fx: f64, fy: f64) -> f64 {
    let a = v[0] + (v[1] - v[0]) * fx;
    let b = v[2] + (v[3] - v[2]) * fx;
    a + (b - a) * fy
}

/// Single-octave value noise in [0, 1).
#[inline]
fn value_noise(seed: u64, x: f64, y: f64) -> f64 {
    let (x, y) = (axis(x), axis(y));
    let rows = [row_hash(y.i), row_hash(y.i + 1)];
    blend(corners(seed, x.i, rows), x.f, y.f)
}

/// The octaves of an fBm sum as `(seed, amplitude, frequency)`: amplitude
/// halves and frequency doubles from `base_freq` at each step.
fn octave_steps(seed: u64, octaves: u32, base_freq: f64) -> impl Iterator<Item = (u64, f64, f64)> {
    (0..octaves).scan((1.0, base_freq), move |(amp, freq), o| {
        let step = (seed.wrapping_add(o as u64 * 0x9E37), *amp, *freq);
        *amp *= 0.5;
        *freq *= 2.0;
        Some(step)
    })
}

/// Fractional Brownian motion: `octaves` octaves of value noise, normalized
/// back to [0, 1).
pub fn fbm(seed: u64, x: f64, y: f64, octaves: u32, base_freq: f64) -> f64 {
    let mut sum = 0.0;
    let mut norm = 0.0;
    for (seed, amp, freq) in octave_steps(seed, octaves, base_freq) {
        sum += amp * value_noise(seed, x * freq, y * freq);
        norm += amp;
    }
    sum / norm
}

/// One fBm field of the terrain model, sampled at `(x * scale, y * scale)`.
#[derive(Debug, Clone, Copy)]
struct Field {
    /// XORed into the terrain seed.
    tag: u64,
    octaves: u32,
    base_freq: f64,
    scale: f64,
}

impl Field {
    /// The field at world point `(x, y)`: the per-point oracle.
    fn at(&self, seed: u64, x: f64, y: f64) -> f64 {
        fbm(
            seed ^ self.tag,
            x * self.scale,
            y * self.scale,
            self.octaves,
            self.base_freq,
        )
    }
}

/// Continent mask: below [`OCEAN_LEVEL`] is water.
const CONTINENT: Field = Field {
    tag: 0x434F_4E54, // "CONT"
    octaves: 3,
    base_freq: 0.045,
    scale: 1.0,
};

/// Mountain-range mask: broad, slowly varying amplitude modulation.
const RANGE: Field = Field {
    tag: 0x524E_4745, // "RNGE"
    octaves: 2,
    base_freq: 0.09,
    scale: 1.0,
};

/// Local relief.
const TERRAIN: Field = Field {
    tag: 0x5445_5252, // "TERR"
    octaves: 5,
    base_freq: 0.35,
    scale: 1.0,
};

/// Cell-scale micro-relief (a few meters): real SRTM is noisy in its low
/// bits, which is what bounds BQ-Tree compression to ~18% of raw rather
/// than the ~2% a smooth field would give. Two short-wavelength octaves,
/// ±6 m total.
const MICRO: Field = Field {
    tag: 0x4D49_4352, // "MICR"
    octaves: 2,
    base_freq: 1.0,
    scale: 900.0,
};

/// Every field, in the order a cell evaluates them.
const FIELDS: [Field; 4] = [CONTINENT, RANGE, TERRAIN, MICRO];

/// The indices of `FIELDS[f]`'s octaves in the octave table.
const fn field_octaves(f: usize) -> Range<usize> {
    let mut start = 0;
    let mut i = 0;
    while i < f {
        start += FIELDS[i].octaves as usize;
        i += 1;
    }
    start..start + FIELDS[f].octaves as usize
}

const CONTINENT_OCTAVES: Range<usize> = field_octaves(0);
const RANGE_OCTAVES: Range<usize> = field_octaves(1);
const TERRAIN_OCTAVES: Range<usize> = field_octaves(2);
const MICRO_OCTAVES: Range<usize> = field_octaves(3);

/// Octaves over all of [`FIELDS`].
const OCTAVES: usize = MICRO_OCTAVES.end;

/// Fraction of the continent-noise range treated as water.
const OCEAN_LEVEL: f64 = 0.40;

/// Elevation (meters) at world point `(x, y)` degrees, or [`NODATA`] over
/// water. Pure function of `(seed, x, y)` — the same cell evaluates to the
/// same value no matter which tile, partition or node asks.
///
/// This is the per-point oracle; [`SyntheticSrtm`] generates whole blocks
/// row by row and must return exactly these values.
pub fn elevation(seed: u64, x: f64, y: f64) -> u16 {
    let continent = CONTINENT.at(seed, x, y);
    if continent < OCEAN_LEVEL {
        return NODATA;
    }
    land(
        continent,
        RANGE.at(seed, x, y),
        TERRAIN.at(seed, x, y),
        MICRO.at(seed, x, y),
    )
}

/// Elevation of a land cell from its four field values.
#[inline]
fn land(continent: f64, range: f64, terrain: f64, micro: f64) -> u16 {
    // Coastal cells ramp up from sea level; interiors get the full range.
    let coast = ((continent - OCEAN_LEVEL) / (1.0 - OCEAN_LEVEL)).clamp(0.0, 1.0);
    let elev = terrain.powf(1.3) * (250.0 + 4300.0 * range * range) * (0.25 + 0.75 * coast);
    let micro = (micro - 0.5) * 12.0;
    ((elev + micro).max(0.0) as u32).min(MAX_ELEVATION as u32) as u16
}

/// One octave of [`FIELDS`], with the terrain seed applied.
#[derive(Debug, Clone, Copy, Default)]
struct Octave {
    seed: u64,
    amp: f64,
    freq: f64,
    scale: f64,
}

/// Every octave of [`FIELDS`] in order, and each field's normalizer.
fn octave_table(seed: u64) -> ([Octave; OCTAVES], [f64; FIELDS.len()]) {
    let mut table = [Octave::default(); OCTAVES];
    let mut norms = [0.0; FIELDS.len()];
    let mut slots = table.iter_mut();
    for (field, norm) in FIELDS.iter().zip(&mut norms) {
        for (seed, amp, freq) in octave_steps(seed ^ field.tag, field.octaves, field.base_freq) {
            *slots.next().expect("OCTAVES counts every octave") = Octave {
                seed,
                amp,
                freq,
                scale: field.scale,
            };
            *norm += amp;
        }
    }
    (table, norms)
}

/// A maximal run `start..end` of block columns whose lattice column in
/// one octave is `ix`: on any row they share that octave's four corners,
/// which the segment keeps for the lattice row `iy` they were hashed on.
#[derive(Debug, Clone, Copy)]
struct Segment {
    ix: i64,
    start: usize,
    end: usize,
    iy: Option<i64>,
    corners: [f64; 4],
}

/// The block generator's working memory, kept per thread so that a call
/// allocates nothing but its output.
#[derive(Debug, Default)]
struct Scratch {
    /// Every octave's faded column fraction, octave-major: octave `o` of
    /// block column `c` is at `o * cols + c`.
    fx: Vec<f64>,
    /// The micro-relief octaves' lattice columns, octave-major from the
    /// first of them (the other octaves' are in their segments).
    ix: Vec<i64>,
    /// The column segments of every octave before the micro-relief's.
    segments: [Vec<Segment>; MICRO_OCTAVES.start],
    /// One block row's octave sums per field, in [`FIELDS`] order; the
    /// fields after the continent are summed on land columns only.
    sums: [Vec<f64>; FIELDS.len()],
    /// The row's land spans: maximal column ranges not under water.
    spans: Vec<Range<usize>>,
    /// The row's cells, handed to the caller.
    row: Vec<u16>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

impl Scratch {
    /// Lay out every octave's lattice column and fade, and the segments,
    /// for the raster columns `cols` under transform `gt`.
    fn lay_out(&mut self, octaves: &[Octave; OCTAVES], gt: &GeoTransform, cols: Range<usize>) {
        self.fx.clear();
        self.ix.clear();
        for (o, oct) in octaves.iter().enumerate() {
            // `None` for the micro-relief octaves, which have no segments.
            let mut segments = self.segments.get_mut(o);
            if let Some(segments) = segments.as_deref_mut() {
                segments.clear();
            }
            for (c, col) in cols.clone().enumerate() {
                let x = axis((gt.cell_center(0, col).x * oct.scale) * oct.freq);
                self.fx.push(x.f);
                match segments.as_deref_mut() {
                    None => self.ix.push(x.i),
                    Some(segments) => match segments.last_mut() {
                        Some(s) if s.ix == x.i => s.end = c + 1,
                        _ => segments.push(Segment {
                            ix: x.i,
                            start: c,
                            end: c + 1,
                            iy: None,
                            corners: [0.0; 4],
                        }),
                    },
                }
            }
        }
        for sum in &mut self.sums {
            sum.resize(cols.len(), 0.0);
        }
        self.row.resize(cols.len(), NODATA);
    }
}

/// One octave's lattice row on a block row: its index `iy`, the faded
/// fraction, and the hashes of the lattice rows `iy` and `iy + 1`.
#[derive(Debug, Clone, Copy)]
struct LatticeRow {
    iy: i64,
    fy: f64,
    hashes: [u64; 2],
}

impl LatticeRow {
    #[inline]
    fn at(y: f64) -> Self {
        let y = axis(y);
        LatticeRow {
            iy: y.i,
            fy: y.f,
            hashes: [row_hash(y.i), row_hash(y.i + 1)],
        }
    }
}

/// Add `amp * noise` of octave `o` to `sum` over the block columns `span`,
/// walking the octave's column segments: a segment's corners are hashed
/// only when its lattice row changes, then blended with the fade of each
/// of its columns in a straight loop.
#[inline]
fn add_octave(
    sum: &mut [f64],
    o: &Octave,
    segments: &mut [Segment],
    fx: &[f64],
    lat: LatticeRow,
    span: Range<usize>,
) {
    let first = segments.partition_point(|s| s.end <= span.start);
    for s in &mut segments[first..] {
        if s.start >= span.end {
            break;
        }
        if s.iy != Some(lat.iy) {
            s.iy = Some(lat.iy);
            s.corners = corners(o.seed, s.ix, lat.hashes);
        }
        let cols = s.start.max(span.start)..s.end.min(span.end);
        for (v, &f) in sum[cols.clone()].iter_mut().zip(&fx[cols]) {
            *v += o.amp * blend(s.corners, f, lat.fy);
        }
    }
}

/// A [`TileSource`] generating synthetic SRTM tiles on demand.
#[derive(Debug, Clone)]
pub struct SyntheticSrtm {
    grid: TileGrid,
    seed: u64,
}

impl SyntheticSrtm {
    pub fn new(grid: TileGrid, seed: u64) -> Self {
        SyntheticSrtm { grid, seed }
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Materialize the whole raster (tests / small workloads only).
    pub fn to_raster(&self) -> crate::Raster {
        let (rows, cols) = (self.grid.raster_rows(), self.grid.raster_cols());
        crate::Raster::new(
            rows,
            cols,
            self.block(0, 0, rows, cols),
            *self.grid.transform(),
            Some(NODATA),
        )
    }

    /// The `rows × cols` block of cells from `(row0, col0)`, row-major.
    fn block(&self, row0: usize, col0: usize, rows: usize, cols: usize) -> Vec<u16> {
        let mut out = Vec::with_capacity(rows * cols);
        self.block_rows(row0, col0, rows, cols, |_, row| out.extend_from_slice(row));
        out
    }

    /// Generate the `rows × cols` block of cells from `(row0, col0)` and
    /// hand each of its rows, in order, to `emit` with its index in the
    /// block: [`elevation`] at every cell center, bit for bit, generated
    /// one row, and within a row one octave, at a time. DESIGN.md
    /// ("Octave-major terrain synthesis") gives the layout and why its
    /// cells are bit-identical to the oracle.
    fn block_rows(
        &self,
        row0: usize,
        col0: usize,
        rows: usize,
        cols: usize,
        mut emit: impl FnMut(usize, &[u16]),
    ) {
        let gt = self.grid.transform();
        let (octaves, norms) = octave_table(self.seed);
        SCRATCH.with_borrow_mut(|s| {
            s.lay_out(&octaves, gt, col0..col0 + cols);
            let Scratch {
                fx,
                ix,
                segments,
                sums: [continent, range, terrain, micro],
                spans,
                row,
            } = s;
            let fx = |o: usize| &fx[o * cols..(o + 1) * cols];
            let ix = |o: usize| &ix[(o - MICRO_OCTAVES.start) * cols..][..cols];
            for r in row0..row0 + rows {
                let y = gt.cell_center(r, 0).y;
                let lat: [LatticeRow; OCTAVES] = std::array::from_fn(|o| {
                    LatticeRow::at((y * octaves[o].scale) * octaves[o].freq)
                });

                let mut add = |sum: &mut [f64], o: usize, span: Range<usize>| {
                    add_octave(sum, &octaves[o], &mut segments[o], fx(o), lat[o], span);
                };

                // The continent field over the whole row, and its land spans.
                continent.fill(0.0);
                for o in CONTINENT_OCTAVES {
                    add(continent, o, 0..cols);
                }
                for v in continent.iter_mut() {
                    *v /= norms[0];
                }
                spans.clear();
                let water = |c: usize| continent[c] < OCEAN_LEVEL;
                let mut c = 0;
                while let Some(start) = (c..cols).find(|&c| !water(c)) {
                    c = (start..cols).find(|&c| water(c)).unwrap_or(cols);
                    spans.push(start..c);
                }

                row.fill(NODATA);
                for span in spans.iter() {
                    for (sum, octs) in [
                        (&mut *range, RANGE_OCTAVES),
                        (&mut *terrain, TERRAIN_OCTAVES),
                    ] {
                        sum[span.clone()].fill(0.0);
                        for o in octs {
                            add(sum, o, span.clone());
                        }
                    }
                    // A micro-relief lattice cell is at most 1/900° wide, so
                    // below 900 cells/degree every column is in its own. The
                    // sums get a pass of their own: with `land`'s `powf` call
                    // in the same loop, synthesis ran about 10% slower.
                    for c in span.clone() {
                        let mut sum = 0.0;
                        for o in MICRO_OCTAVES {
                            let v = corners(octaves[o].seed, ix(o)[c], lat[o].hashes);
                            sum += octaves[o].amp * blend(v, fx(o)[c], lat[o].fy);
                        }
                        micro[c] = sum;
                    }
                    for c in span.clone() {
                        row[c] = land(
                            continent[c],
                            range[c] / norms[1],
                            terrain[c] / norms[2],
                            micro[c] / norms[3],
                        );
                    }
                }
                emit(r - row0, row);
            }
        });
    }
}

impl TileSource for SyntheticSrtm {
    fn grid(&self) -> &TileGrid {
        &self.grid
    }

    fn tile(&self, tx: usize, ty: usize) -> TileData {
        let t = self.grid.tile(tx, ty);
        TileData::new(self.block(t.row0, t.col0, t.rows, t.cols), t.rows, t.cols)
    }

    /// One block over the strip's cell rows and the whole raster width,
    /// each row pasted into the tiles it crosses: a lattice corner shared
    /// by neighbouring tiles is hashed once, not once per tile.
    fn strip(&self, tile_rows: Range<usize>) -> TileStrip {
        let row0 = tile_rows.start * self.grid.tile_cells();
        let mut strip = TileStrip::zeroed(&self.grid, tile_rows);
        let (rows, cols) = (strip.cell_rows(), self.grid.raster_cols());
        self.block_rows(row0, 0, rows, cols, |dr, row| strip.paste_row(dr, row));
        strip
    }
}

// ---------------------------------------------------------------------------
// Table 1 catalog
// ---------------------------------------------------------------------------

/// One source raster of the catalog (a row of the paper's Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CatalogRaster {
    pub name: &'static str,
    /// Western edge (degrees).
    pub lon0: f64,
    /// Southern edge (degrees).
    pub lat0: f64,
    pub width_deg: u32,
    pub height_deg: u32,
    /// Partition schema: the raster is split `part_rows × part_cols` ways.
    pub part_rows: u32,
    pub part_cols: u32,
}

impl CatalogRaster {
    pub fn rows(&self, cells_per_degree: u32) -> usize {
        (self.height_deg * cells_per_degree) as usize
    }

    pub fn cols(&self, cells_per_degree: u32) -> usize {
        (self.width_deg * cells_per_degree) as usize
    }

    pub fn cells(&self, cells_per_degree: u32) -> u64 {
        self.rows(cells_per_degree) as u64 * self.cols(cells_per_degree) as u64
    }

    pub fn n_partitions(&self) -> u32 {
        self.part_rows * self.part_cols
    }

    pub fn transform(&self, cells_per_degree: u32) -> GeoTransform {
        GeoTransform::per_degree(self.lon0, self.lat0, cells_per_degree)
    }

    pub fn extent(&self) -> Mbr {
        Mbr::new(
            self.lon0,
            self.lat0,
            self.lon0 + self.width_deg as f64,
            self.lat0 + self.height_deg as f64,
        )
    }
}

/// The six-raster catalog. Disjoint extents covering CONUS
/// (−125..−66 × 24..50) plus an 11°×2° northern strip; 1,556 square degrees
/// total, hence exactly 20,165,760,000 cells at 3600 cells/degree.
pub const CATALOG: [CatalogRaster; 6] = [
    CatalogRaster {
        name: "north-strip",
        lon0: -125.0,
        lat0: 50.0,
        width_deg: 11,
        height_deg: 2,
        part_rows: 1,
        part_cols: 2,
    },
    CatalogRaster {
        name: "west-south",
        lon0: -125.0,
        lat0: 24.0,
        width_deg: 33,
        height_deg: 16,
        part_rows: 3,
        part_cols: 4,
    },
    CatalogRaster {
        name: "west-north-a",
        lon0: -125.0,
        lat0: 40.0,
        width_deg: 16,
        height_deg: 10,
        part_rows: 2,
        part_cols: 2,
    },
    CatalogRaster {
        name: "west-north-b",
        lon0: -109.0,
        lat0: 40.0,
        width_deg: 17,
        height_deg: 10,
        part_rows: 2,
        part_cols: 2,
    },
    CatalogRaster {
        name: "east-south",
        lon0: -92.0,
        lat0: 24.0,
        width_deg: 26,
        height_deg: 13,
        part_rows: 1,
        part_cols: 7,
    },
    CatalogRaster {
        name: "east-north",
        lon0: -92.0,
        lat0: 37.0,
        width_deg: 26,
        height_deg: 13,
        part_rows: 7,
        part_cols: 1,
    },
];

/// The catalog at a chosen resolution.
///
/// `cells_per_degree = 3600` is the paper's full SRTM scale; experiments use
/// smaller values (e.g. 225 = 1/16 linear scale) and report full-scale
/// figures by analytic extrapolation of the per-cell work terms.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SrtmCatalog {
    pub cells_per_degree: u32,
}

impl SrtmCatalog {
    /// The paper's native resolution (30 m ≈ 1/3600°).
    pub const FULL_SCALE: u32 = 3600;

    pub fn new(cells_per_degree: u32) -> Self {
        assert!(cells_per_degree > 0);
        SrtmCatalog { cells_per_degree }
    }

    pub fn full_scale() -> Self {
        SrtmCatalog::new(Self::FULL_SCALE)
    }

    pub fn rasters(&self) -> &'static [CatalogRaster] {
        &CATALOG
    }

    /// Total cells over all rasters at this resolution.
    pub fn total_cells(&self) -> u64 {
        CATALOG.iter().map(|r| r.cells(self.cells_per_degree)).sum()
    }

    /// Total partitions over all rasters (36, matching the paper).
    pub fn n_partitions(&self) -> u32 {
        CATALOG.iter().map(CatalogRaster::n_partitions).sum()
    }

    /// Union extent of all rasters.
    pub fn extent(&self) -> Mbr {
        CATALOG.iter().fold(Mbr::EMPTY, |m, r| m.union(&r.extent()))
    }

    /// All 36 partitions, in catalog order.
    pub fn partitions(&self) -> Vec<Partition> {
        let mut out = Vec::with_capacity(self.n_partitions() as usize);
        for (idx, raster) in CATALOG.iter().enumerate() {
            out.extend(crate::partition::split(raster, idx, self.cells_per_degree));
        }
        out
    }

    /// Linear scale factor relative to the paper's full resolution.
    pub fn scale_factor(&self) -> f64 {
        Self::FULL_SCALE as f64 / self.cells_per_degree as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_totals_match_paper() {
        let cat = SrtmCatalog::full_scale();
        assert_eq!(
            cat.total_cells(),
            20_165_760_000,
            "Table 1 total cell count"
        );
        assert_eq!(cat.n_partitions(), 36, "Table 1 partition count");
        assert_eq!(cat.rasters().len(), 6, "Table 1 raster count");
    }

    #[test]
    fn catalog_extents_are_disjoint() {
        for (i, a) in CATALOG.iter().enumerate() {
            for b in CATALOG.iter().skip(i + 1) {
                let inter = a.extent().intersection(&b.extent());
                assert!(
                    inter.is_empty() || inter.area() == 0.0,
                    "{} and {} overlap",
                    a.name,
                    b.name
                );
            }
        }
    }

    #[test]
    fn catalog_covers_conus() {
        let conus = zonal_geo::counties::conus_extent();
        let cat = SrtmCatalog::full_scale();
        assert!(
            cat.extent().contains(&conus),
            "catalog must cover the county layer"
        );
        // Area bookkeeping: 1556 square degrees.
        let area: f64 = CATALOG.iter().map(|r| r.extent().area()).sum();
        assert!((area - 1556.0).abs() < 1e-9);
    }

    #[test]
    fn scaled_catalog_cells() {
        // 1/16 linear scale => 1/256 of the cells.
        let cat = SrtmCatalog::new(225);
        assert_eq!(cat.total_cells(), 20_165_760_000 / 256);
        assert_eq!(cat.scale_factor(), 16.0);
    }

    #[test]
    fn elevation_is_deterministic_and_bounded() {
        let mut land = 0;
        let mut water = 0;
        for i in 0..50 {
            for j in 0..50 {
                let x = -125.0 + i as f64 * 1.18;
                let y = 24.0 + j as f64 * 0.52;
                let a = elevation(42, x, y);
                let b = elevation(42, x, y);
                assert_eq!(a, b, "deterministic");
                if a == NODATA {
                    water += 1;
                } else {
                    assert!(a <= MAX_ELEVATION);
                    land += 1;
                }
            }
        }
        assert!(land > 0, "some land must exist");
        assert!(water > 0, "some water must exist");
        // Mostly land over a continental box.
        assert!(
            land * 10 > (land + water) * 4,
            "land should be a large fraction"
        );
    }

    #[test]
    fn elevation_spatially_correlated() {
        // Adjacent 30 m cells must usually differ by a few meters, not by
        // hundreds — that's what makes Step 1's atomics collide like real
        // DEM data.
        let seed = 7;
        let step = 1.0 / 3600.0;
        let mut diffs = Vec::new();
        for k in 0..2000 {
            let x = -100.0 + (k % 50) as f64 * 0.01;
            let y = 35.0 + (k / 50) as f64 * 0.01;
            let a = elevation(seed, x, y);
            let b = elevation(seed, x + step, y);
            if a != NODATA && b != NODATA {
                diffs.push((a as i32 - b as i32).abs());
            }
        }
        assert!(!diffs.is_empty());
        let mean = diffs.iter().sum::<i32>() as f64 / diffs.len() as f64;
        assert!(mean < 30.0, "neighbour elevation delta {mean} too rough");
    }

    #[test]
    fn synthetic_tiles_match_full_raster() {
        let gt = GeoTransform::new(-100.0, 35.0, 0.01, 0.01);
        let grid = TileGrid::new(25, 30, 8, gt);
        let src = SyntheticSrtm::new(grid.clone(), 99);
        let full = src.to_raster();
        for t in grid.iter() {
            let tile = src.tile(t.tx, t.ty);
            for dr in 0..t.rows {
                for dc in 0..t.cols {
                    assert_eq!(
                        tile.get(dr, dc),
                        full.get(t.row0 + dr, t.col0 + dc),
                        "tile ({},{}) cell ({dr},{dc})",
                        t.tx,
                        t.ty
                    );
                }
            }
        }
    }

    #[test]
    fn fbm_in_unit_range() {
        for k in 0..500 {
            let x = (k as f64) * 0.37 - 80.0;
            let y = (k as f64) * 0.19 + 30.0;
            let v = fbm(3, x, y, 5, 0.3);
            assert!((0.0..1.0).contains(&v), "fbm out of range: {v}");
        }
    }
}
