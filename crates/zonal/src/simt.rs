//! Barrier-faithful SIMT renditions of the paper's three CUDA kernels.
//!
//! The production pipeline executes Steps 1/3/4 as block launches that
//! run sequentially on the calling thread ([`zonal_gpusim::exec`]); the
//! kernels here are the paper's Fig. 2, Fig. 4, and Fig. 5 listings
//! transcribed thread-for-thread (Step 4's host route classifies a tile
//! row's cells by row crossings instead; this Fig. 5 body keeps one ray
//! test per cell)
//! and run on the
//! [`zonal_gpusim::block::SimtBlock`] emulator, where `__syncthreads()`
//! placement and atomic usage are exercised by real OS threads and real
//! barriers.
//!
//! Each kernel is exposed three ways:
//!
//! * a `*_body` builder returning the per-thread closure, so every harness
//!   runs the identical code;
//! * a `*_kernel` wrapper that runs the body on a plain [`SimtBlock`]
//!   (used by the `simt_kernels` integration tests);
//! * with the `sanitize` feature, a `*_checked` wrapper that runs the body
//!   under [`SimtBlock::run_sanitized`] and returns the kernel sanitizer's
//!   [`zonal_gpusim::BlockReport`] — the race/divergence/lint verdict for
//!   one seeded schedule.
//!
//! Device arrays are [`TrackedBufU32`]s named after the paper's device
//! pointers (`his_d_raster`, `his_d_polygon`), so sanitizer reports read
//! like the CUDA listings.

use zonal_geo::{FlatPolygons, Point};
use zonal_gpusim::block::{SimtBlock, ThreadCtx};
use zonal_gpusim::TrackedBufU32;

#[cfg(feature = "sanitize")]
use zonal_gpusim::BlockReport;

/// Fig. 2 `CellAggrKernel` body: one block derives one tile's histogram.
///
/// ```cuda
/// for (k = 0; k < hist_size; k += blockDim.x)
///     if (k + threadIdx.x < hist_size) his[idx*hist_size + k + tid] = 0;
/// __syncthreads();
/// for (k = 0; k < tile*tile; k += blockDim.x)
///     { v = raw[k + tid]; atomicAdd(&his[idx*hist_size + v], 1); }
/// ```
pub fn cell_aggr_body<'a>(
    raw: &'a [u16],
    hist: &'a TrackedBufU32,
    tile_idx: usize,
    hist_size: usize,
) -> impl Fn(ThreadCtx<'_>) + Sync + 'a {
    move |ctx| {
        // Phase 1: zero this tile's bins (lines 2-4).
        for k in ctx.strided(hist_size) {
            hist.store(tile_idx * hist_size + k, 0);
        }
        ctx.sync(); // line 5
                    // Phase 2: count cells (lines 6-11).
        for p in ctx.strided(raw.len()) {
            let v = raw[p] as usize;
            if v < hist_size {
                hist.add(tile_idx * hist_size + v, 1);
            }
        }
        ctx.sync(); // line 12
    }
}

/// Run [`cell_aggr_body`] on a plain emulated block.
pub fn cell_aggr_kernel(
    raw: &[u16],
    hist: &TrackedBufU32,
    tile_idx: usize,
    hist_size: usize,
    block_dim: usize,
) {
    SimtBlock::new(block_dim).run(cell_aggr_body(raw, hist, tile_idx, hist_size));
}

/// Run [`cell_aggr_body`] under the kernel sanitizer.
#[cfg(feature = "sanitize")]
pub fn cell_aggr_checked(
    raw: &[u16],
    hist: &TrackedBufU32,
    tile_idx: usize,
    hist_size: usize,
    block_dim: usize,
    seed: u64,
) -> BlockReport {
    SimtBlock::new(block_dim).run_sanitized(seed, cell_aggr_body(raw, hist, tile_idx, hist_size))
}

/// Fig. 4 `UpdateHistKernel` body: one block aggregates the per-tile
/// histograms of one polygon's completely-inside tiles, striding the bin
/// axis.
#[allow(clippy::too_many_arguments)]
pub fn update_hist_body<'a>(
    pid_v: &'a [u32],
    num_v: &'a [u32],
    pos_v: &'a [u32],
    tid_v: &'a [u32],
    his_raster: &'a TrackedBufU32,
    his_polygon: &'a TrackedBufU32,
    block_idx: usize,
    hist_size: usize,
) -> impl Fn(ThreadCtx<'_>) + Sync + 'a {
    let pid = pid_v[block_idx] as usize;
    let num = num_v[block_idx] as usize;
    let pos = pos_v[block_idx] as usize;
    move |ctx| {
        // The paper's outer loop advances k uniformly across the block
        // (`for (k = 0; k < hist_size; k += blockDim.x)`) so the barrier at
        // line 9 is non-divergent even when blockDim does not divide
        // hist_size — threads past the end still reach the barrier.
        let mut k = 0;
        while k < hist_size {
            ctx.sync(); // line 9
            let p = k + ctx.tid;
            if p < hist_size {
                for i in 0..num {
                    let w = tid_v[pos + i] as usize;
                    let v = his_raster.load(w * hist_size + p);
                    // Line 13: `his_d_polygon[pid*hist_size+p] += v` — each
                    // bin is owned by exactly one thread of this block, and
                    // other blocks (other polygons) touch disjoint ranges.
                    his_polygon.add(pid * hist_size + p, v);
                }
            }
            k += ctx.block_dim;
        }
    }
}

/// Run [`update_hist_body`] on a plain emulated block.
#[allow(clippy::too_many_arguments)]
pub fn update_hist_kernel(
    pid_v: &[u32],
    num_v: &[u32],
    pos_v: &[u32],
    tid_v: &[u32],
    his_raster: &TrackedBufU32,
    his_polygon: &TrackedBufU32,
    block_idx: usize,
    hist_size: usize,
    block_dim: usize,
) {
    SimtBlock::new(block_dim).run(update_hist_body(
        pid_v,
        num_v,
        pos_v,
        tid_v,
        his_raster,
        his_polygon,
        block_idx,
        hist_size,
    ));
}

/// Run [`update_hist_body`] under the kernel sanitizer.
#[cfg(feature = "sanitize")]
#[allow(clippy::too_many_arguments)]
pub fn update_hist_checked(
    pid_v: &[u32],
    num_v: &[u32],
    pos_v: &[u32],
    tid_v: &[u32],
    his_raster: &TrackedBufU32,
    his_polygon: &TrackedBufU32,
    block_idx: usize,
    hist_size: usize,
    block_dim: usize,
    seed: u64,
) -> BlockReport {
    SimtBlock::new(block_dim).run_sanitized(
        seed,
        update_hist_body(
            pid_v,
            num_v,
            pos_v,
            tid_v,
            his_raster,
            his_polygon,
            block_idx,
            hist_size,
        ),
    )
}

/// Fig. 5 `pip_test_kernel` body: one block refines one polygon's boundary
/// tile, one thread per cell, ray-crossing inner loop over
/// `ply_v`/`x_v`/`y_v`.
#[allow(clippy::too_many_arguments)]
pub fn pip_test_body<'a>(
    flat: &'a FlatPolygons,
    pid: usize,
    raw: &'a [u16],
    tile_cells: usize,
    origin: Point,
    cell: f64,
    his_polygon: &'a TrackedBufU32,
    hist_size: usize,
) -> impl Fn(ThreadCtx<'_>) + Sync + 'a {
    move |ctx| {
        for i in ctx.strided(tile_cells * tile_cells) {
            let (r, c) = (i / tile_cells, i % tile_cells);
            // Fig. 5: _x1 = (c+0.5)*scale, _y1 = (r+0.5)*scale.
            let p = Point::new(
                origin.x + (c as f64 + 0.5) * cell,
                origin.y + (r as f64 + 0.5) * cell,
            );
            if flat.contains(pid, p) {
                let v = raw[i] as usize;
                if v < hist_size {
                    his_polygon.add(pid * hist_size + v, 1);
                }
            }
        }
        ctx.sync();
    }
}

/// Run [`pip_test_body`] on a plain emulated block.
#[allow(clippy::too_many_arguments)]
pub fn pip_test_kernel(
    flat: &FlatPolygons,
    pid: usize,
    raw: &[u16],
    tile_cells: usize,
    origin: Point,
    cell: f64,
    his_polygon: &TrackedBufU32,
    hist_size: usize,
    block_dim: usize,
) {
    SimtBlock::new(block_dim).run(pip_test_body(
        flat,
        pid,
        raw,
        tile_cells,
        origin,
        cell,
        his_polygon,
        hist_size,
    ));
}

/// Run [`pip_test_body`] under the kernel sanitizer.
#[cfg(feature = "sanitize")]
#[allow(clippy::too_many_arguments)]
pub fn pip_test_checked(
    flat: &FlatPolygons,
    pid: usize,
    raw: &[u16],
    tile_cells: usize,
    origin: Point,
    cell: f64,
    his_polygon: &TrackedBufU32,
    hist_size: usize,
    block_dim: usize,
    seed: u64,
) -> BlockReport {
    SimtBlock::new(block_dim).run_sanitized(
        seed,
        pip_test_body(
            flat,
            pid,
            raw,
            tile_cells,
            origin,
            cell,
            his_polygon,
            hist_size,
        ),
    )
}
