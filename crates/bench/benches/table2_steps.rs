//! Table 2 bench: wall time of each pipeline step over one catalog
//! partition (the per-step structure whose simulated-device pricing the
//! `tables table2` harness reports).

use criterion::{criterion_group, criterion_main, Criterion};
use zonal_bench::{paper_cfg, small_zones, SEED};
use zonal_core::pairing::pair_tiles;
use zonal_core::step1::per_tile_histograms;
use zonal_core::step3::aggregate_inside;
use zonal_core::step4::refine_intersect;
use zonal_core::ZoneRows;
use zonal_gpusim::{DeviceSpec, WorkCounter};
use zonal_raster::srtm::SyntheticSrtm;
use zonal_raster::{TileData, TileSource};

const CPD: u32 = 60;

fn bench_steps(c: &mut Criterion) {
    let zones = small_zones(31, 25, 3);
    let cfg = paper_cfg(DeviceSpec::gtx_titan()).with_bins(1000);
    let part = zonal_bench::partition_of(CPD, "west-south", 0);
    let grid = part.grid(cfg.tile_deg);
    let src = SyntheticSrtm::new(grid.clone(), SEED);

    // Shared fixtures, produced once.
    let bq = zonal_bqtree::compress_source(&src);
    let tiles: Vec<TileData> = (0..grid.n_tiles())
        .map(|id| {
            let (tx, ty) = grid.tile_pos(id);
            src.tile(tx, ty)
        })
        .collect();
    let pairs = pair_tiles(&zones.layer, &grid);
    let wc = WorkCounter::new();
    let hists = per_tile_histograms(&tiles, cfg.n_bins, &wc, &wc);
    // Rows for the zones the partition pairs with, as the pipeline stores.
    let touched = pairs.touched_zones(zones.len());

    let mut g = c.benchmark_group("table2_steps");
    g.sample_size(10);

    g.bench_function("step0_decode", |b| {
        b.iter(|| {
            // Decode a band of tiles through the BQ codec.
            (0..grid.tiles_x().min(64))
                .map(|tx| bq.tile(tx, 0).values.len())
                .sum::<usize>()
        })
    });

    g.bench_function("step1_per_tile_hist", |b| {
        b.iter(|| per_tile_histograms(&tiles, cfg.n_bins, &wc, &wc).len())
    });

    g.bench_function("step2_pairing", |b| {
        b.iter(|| pair_tiles(&zones.layer, &grid).n_candidates())
    });

    g.bench_function("step3_aggregate", |b| {
        b.iter(|| {
            let zone_rows = ZoneRows::new(&touched, cfg.n_bins);
            let agg: Vec<(u32, &[(u16, u32)])> = pairs
                .inside
                .iter_pairs()
                .map(|(pid, tid)| (pid, hists[tid as usize].runs.as_slice()))
                .collect();
            aggregate_inside(&agg, &zone_rows, &wc);
            zone_rows.into_histograms().total()
        })
    });

    g.bench_function("step4_refine", |b| {
        b.iter(|| {
            let zone_rows = ZoneRows::new(&touched, cfg.n_bins);
            let rp: Vec<(u32, u32, &TileData)> = pairs
                .intersect
                .iter_pairs()
                .map(|(pid, tid)| (pid, tid, &tiles[tid as usize]))
                .collect();
            refine_intersect(&rp, &grid, &zones.flat, &zone_rows, cfg.representative, &wc)
                .cells_tested
        })
    });

    g.finish();
}

criterion_group!(benches, bench_steps);
criterion_main!(benches);
