//! Ablation A3: histogram bin count (§III.A).
//!
//! The paper chooses 5000 bins and per-block atomics over per-thread
//! private histograms because bins ≫ threads. This bench sweeps the bin
//! count through Step 1. The device kernel clears and writes back every
//! bin, so its counted work grows with the bin count; the host emits only
//! each tile's non-zero runs, so its wall time should stay nearly flat.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use zonal_bench::SEED;
use zonal_core::step1::per_tile_histograms;
use zonal_gpusim::WorkCounter;
use zonal_raster::srtm::SyntheticSrtm;
use zonal_raster::{TileData, TileSource};

fn bench_bins(c: &mut Criterion) {
    let part = zonal_bench::partition_of(120, "west-south", 0);
    let grid = part.grid(0.1);
    let src = SyntheticSrtm::new(grid.clone(), SEED);
    // One strip of real DEM tiles.
    let tiles: Vec<TileData> = (0..grid.tiles_x().min(128))
        .map(|tx| src.tile(tx, 1))
        .collect();
    let n_cells: u64 = tiles.iter().map(|t| t.len() as u64).sum();

    let mut g = c.benchmark_group("ablate_bins");
    g.sample_size(15);
    g.throughput(Throughput::Elements(n_cells));
    for n_bins in [256usize, 1024, 5000, 16384] {
        let wc = WorkCounter::new();
        g.bench_with_input(
            BenchmarkId::from_parameter(n_bins),
            &n_bins,
            |b, &n_bins| b.iter(|| per_tile_histograms(&tiles, n_bins, &wc, &wc).len()),
        );
    }
    g.finish();
}

criterion_group!(benches, bench_bins);
criterion_main!(benches);
