//! Geometry substrate for zonal histogramming.
//!
//! This crate provides the polygon-side machinery of the paper
//! *"High-Performance Zonal Histogramming on Large-Scale Geospatial Rasters
//! Using GPUs and GPU-Accelerated Clusters"* (Zhang & Wang, 2014):
//!
//! * [`Point`], [`Mbr`], [`Ring`], [`Polygon`] — object-style geometry used on
//!   the "CPU side" of the pipeline (Step 2, spatial filtering).
//! * [`FlatPolygons`] — the GPU-friendly flattened array representation
//!   (`ply_v` / `x_v` / `y_v` with `(0,0)` ring separators) used by the
//!   Step 4 cell-in-polygon kernel, exactly as in the paper's Fig. 5.
//! * [`pip`] — ray-crossing point-in-polygon tests (Franklin's algorithm and
//!   the paper's multi-ring variant), plus a winding-number reference.
//! * [`classify`] — tile-in-polygon classification into
//!   `Outside` / `Inside` / `Intersect`, the heart of Step 2.
//! * [`counties`] — a deterministic synthetic "US counties" layer: a
//!   space-filling jittered tessellation with multi-ring polygons and a
//!   configurable total vertex budget, standing in for the proprietary
//!   county boundary dataset (87,097 vertices in the paper).
//!
//! Everything is `f64`-based in "degree" coordinates to match the paper's
//! geographic (lon/lat) setting; nothing here assumes a projection.

pub mod classify;
pub mod counties;
pub mod dataset;
pub mod flat;
pub mod mbr;
pub mod pip;
pub mod point;
pub mod polygon;
pub mod ring;
pub mod segment;
pub mod simplify;
pub mod wkt;

pub use classify::{classify_box, classify_box_in_band, BandEdges, TileRelation};
pub use counties::{CountyConfig, CountyLayerStats};
pub use dataset::PolygonLayer;
pub use flat::{FlatBand, FlatPolygons};
pub use mbr::Mbr;
pub use pip::{point_in_polygon, point_in_ring};
pub use point::Point;
pub use polygon::Polygon;
pub use ring::Ring;
pub use simplify::{simplify_polygon, simplify_ring};
