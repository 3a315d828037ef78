//! Zonal histogramming: the paper's primary contribution.
//!
//! Given a polygon layer (zones) and a raster, compute for every zone a
//! histogram of the raster values whose cell centers fall inside the zone.
//! The four-step data-parallel decomposition (paper §III, Fig. 1):
//!
//! * **Step 0** ([`pipeline`]) — decode BQ-Tree-compressed raster tiles;
//! * **Step 1** ([`step1`]) — one thread block per tile builds a per-tile
//!   histogram with atomic bin updates (Fig. 2);
//! * **Step 2** ([`pairing`]) — rasterize polygon MBBs onto the tile grid
//!   and classify each (polygon, tile) pair as outside / inside /
//!   intersect; post-process with Thrust-style primitives into grouped
//!   arrays (Fig. 4 left);
//! * **Step 3** ([`step3`]) — for tiles completely inside a polygon, add
//!   the per-tile histogram into the per-polygon histogram wholesale
//!   (Fig. 4 right);
//! * **Step 4** ([`step4`]) — for boundary tiles only, run a ray-crossing
//!   cell-in-polygon test per cell and update the polygon histogram
//!   (Fig. 5).
//!
//! The crate also provides reference implementations ([`baseline`]) used
//! both as correctness oracles and as the comparison points of the
//! `tables baseline` experiment, and classic zonal statistics ([`stats`])
//! derived from the histograms.
//!
//! The pipeline streams tiles in row strips, so memory stays bounded by
//! the strip's cells plus one `n_bins` row per zone the partition touches,
//! regardless of raster size — the same reason the paper processes its
//! 20-billion-cell raster as 36 sub-rasters.

pub mod baseline;
pub mod config;
pub mod hist;
pub mod pairing;
pub mod pipeline;
pub mod simt;
pub mod stats;
pub mod step1;
pub mod step3;
pub mod step4;
pub mod timing;

pub use config::PipelineConfig;
pub use hist::{ZoneHistograms, ZoneRows};
pub use pairing::{pair_tiles, GroupedPairs, PairTable};
pub use pipeline::{run_partition, run_partitions, ZonalResult};
pub use stats::{zonal_statistics, ZonalStats};
pub use timing::{PipelineCounts, PipelineTimings, StepTiming};
