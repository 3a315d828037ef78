//! `zonal-serve` — a batched, cached, backpressured query service over
//! the zonal-histogram pipeline.
//!
//! The batch pipeline answers "histogram every zone once"; this crate
//! answers *queries*: many concurrent clients asking for zone subsets,
//! at different bin counts, against a raster that occasionally updates.
//! Three mechanisms make that efficient without ever changing an
//! answer:
//!
//! * **Admission control** ([`admission`]) — a bounded queue plus a
//!   simulated-device occupancy budget priced by the same
//!   [`CostModel`](zonal_gpusim::CostModel) the pipeline's timing
//!   reports use. Overload degrades into typed sheds
//!   ([`ServeError::QueueFull`], [`ServeError::Saturated`]), never
//!   unbounded queueing.
//! * **Batching** ([`service`]) — queries that arrive within a short
//!   window and share a plan (band, bin spec) coalesce into one
//!   `run_partitions` call (one Step 0 decode and one Step 1–4 pass per
//!   partition), fanned back out per request.
//! * **Caching** ([`cache`]) — one LRU of merged answers, keyed by
//!   (store version, plan). A cold batch fills it with the histograms
//!   `run_partitions` returns; every later query of that plan reads its
//!   rows from the entry, and a batch that arrives mid-fill waits for
//!   that pass. The version in the key makes raster updates invalidate
//!   by construction.
//!
//! The invariant the whole crate is built around: **a served answer is
//! bit-identical to the direct `run_partitions` computation** for the
//! same query, whether it was batched, cached, or computed cold. The
//! `proptest_serve` suite at the workspace root asserts this.
//!
//! ```no_run
//! use std::sync::Arc;
//! use zonal_serve::{PartitionSource, RasterStore, ServeConfig, ZonalQuery, ZonalService};
//! # fn demo(zones: zonal_core::pipeline::Zones, part: PartitionSource,
//! #         pipeline: zonal_core::PipelineConfig) {
//! let store = Arc::new(RasterStore::new(zones, vec![part]));
//! let service = ZonalService::start(store, ServeConfig::new(pipeline));
//! let answer = service.query(ZonalQuery::all_zones(64)).unwrap();
//! println!("zone 0 row: {:?}", answer.zone(0));
//! let stats = service.shutdown();
//! println!("served {} queries, {} sheds", stats.completed, stats.shed());
//! # }
//! ```

pub mod admission;
pub mod cache;
pub mod error;
pub mod loadgen;
pub mod query;
pub mod service;
pub mod store;

pub use admission::{estimate_partition_sim_secs, Admission, AdmissionController};
pub use error::ServeError;
pub use loadgen::{closed_loop, open_loop, LatencyStats, LoadReport, QueryMix};
pub use query::{PlanKey, QueryResponse, ZonalQuery, ZoneRow, ZoneSelection};
pub use service::{ServeConfig, ServeStats, Ticket, ZonalService};
pub use store::{Band, PartitionSource, RasterStore, StoreSnapshot};
