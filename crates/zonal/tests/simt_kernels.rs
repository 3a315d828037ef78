//! Barrier-faithful transcriptions of the paper's three CUDA kernels
//! (Fig. 2, Fig. 4, Fig. 5), executed on the SIMT block emulator with real
//! OS threads and real barriers. These tests validate that the kernels'
//! thread/barrier/atomic structure — not just the math — is sound: a
//! misplaced `__syncthreads` or a lost atomic would produce wrong counts
//! here. The kernel bodies live in [`zonal_core::simt`], shared with the
//! sanitizer harness: under `--features sanitize` the same kernels are
//! additionally run through the happens-before race detector and must come
//! back clean.

use zonal_core::simt::{cell_aggr_kernel, pip_test_kernel, update_hist_kernel};
use zonal_core::step4::refine_intersect;
use zonal_core::ZoneRows;
use zonal_geo::{FlatPolygons, Point, Polygon, Ring};
use zonal_gpusim::{TrackedBufU32, WorkCounter};
use zonal_raster::{GeoTransform, TileData, TileGrid};

#[test]
fn fig2_kernel_counts_exactly_per_block_dim() {
    let hist_size = 64usize;
    let raw: Vec<u16> = (0..1024).map(|i| ((i * 37) % 80) as u16).collect();
    let expected: Vec<u32> = {
        let mut e = vec![0u32; hist_size];
        for &v in &raw {
            if (v as usize) < hist_size {
                e[v as usize] += 1;
            }
        }
        e
    };
    for block_dim in [1usize, 7, 32, 64] {
        let hist = TrackedBufU32::labelled_from_vec("his_d_raster", vec![u32::MAX; 2 * hist_size]); // dirty
        cell_aggr_kernel(&raw, &hist, 1, hist_size, block_dim);
        let h = hist.to_vec();
        assert_eq!(&h[hist_size..], &expected[..], "block_dim {block_dim}");
        assert_eq!(h[0], u32::MAX, "other tiles' bins untouched");
    }
}

#[test]
fn fig4_kernel_aggregates_inside_tiles() {
    let hist_size = 16usize;
    // Three tiles with known histograms; polygon 2 owns tiles 0 and 2.
    let mut his_raster = vec![0u32; 3 * hist_size];
    for b in 0..hist_size {
        his_raster[b] = b as u32; // tile 0
        his_raster[hist_size + b] = 100; // tile 1 (not ours)
        his_raster[2 * hist_size + b] = 1; // tile 2
    }
    let his_raster = TrackedBufU32::labelled_from_vec("his_d_raster", his_raster);
    let (pid_v, num_v, pos_v, tid_v) = (vec![2u32], vec![2u32], vec![0u32], vec![0u32, 2]);
    for block_dim in [1usize, 5, 16, 32] {
        let his_polygon = TrackedBufU32::labelled("his_d_polygon", 3 * hist_size);
        update_hist_kernel(
            &pid_v,
            &num_v,
            &pos_v,
            &tid_v,
            &his_raster,
            &his_polygon,
            0,
            hist_size,
            block_dim,
        );
        let out = his_polygon.to_vec();
        for b in 0..hist_size {
            assert_eq!(
                out[2 * hist_size + b],
                b as u32 + 1,
                "bin {b}, bd {block_dim}"
            );
        }
        assert!(out[..2 * hist_size].iter().all(|&v| v == 0));
    }
}

#[test]
fn fig5_kernel_matches_reference_pip() {
    // Multi-ring polygon (shell + hole) over a 12×12 tile.
    let poly = Polygon::new(vec![
        Ring::circle(Point::new(0.6, 0.6), 0.5, 16),
        Ring::circle(Point::new(0.6, 0.6), 0.2, 8),
    ]);
    let flat = FlatPolygons::from_polygons(std::slice::from_ref(&poly));
    let tile_cells = 12usize;
    let cell = 0.1;
    let raw: Vec<u16> = (0..tile_cells * tile_cells)
        .map(|i| (i % 8) as u16)
        .collect();
    let hist_size = 8usize;

    // Reference: sequential object-model PIP.
    let mut expected = vec![0u32; hist_size];
    for i in 0..tile_cells * tile_cells {
        let (r, c) = (i / tile_cells, i % tile_cells);
        let p = Point::new((c as f64 + 0.5) * cell, (r as f64 + 0.5) * cell);
        if poly.contains(p) {
            expected[raw[i] as usize] += 1;
        }
    }
    assert!(
        expected.iter().sum::<u32>() > 0,
        "fixture must have inside cells"
    );

    for block_dim in [1usize, 3, 16, 64] {
        let his = TrackedBufU32::labelled("his_d_polygon", hist_size);
        pip_test_kernel(
            &flat,
            0,
            &raw,
            tile_cells,
            Point::new(0.0, 0.0),
            cell,
            &his,
            hist_size,
            block_dim,
        );
        assert_eq!(his.to_vec(), expected, "block_dim {block_dim}");
    }
}

/// The host's Step 4 classifies cells by per-row crossing parity instead
/// of one Fig. 5 ray test per cell; on the same tile, multi-ring polygon
/// and values it must build the same histogram as the kernel.
#[test]
fn fig5_kernel_matches_host_step4() {
    let poly = Polygon::new(vec![
        Ring::rect(0.05, 0.15, 1.05, 1.1),
        Ring::circle(Point::new(0.6, 0.6), 0.25, 9),
        Ring::rect(0.35, 0.75, 0.55, 0.85),
    ]);
    let flat = FlatPolygons::from_polygons(std::slice::from_ref(&poly));
    let tile_cells = 12usize;
    let cell = 0.1;
    let hist_size = 8usize;
    let raw: Vec<u16> = (0..tile_cells * tile_cells)
        .map(|i| ((i * 5) % 11) as u16)
        .collect();

    let his = TrackedBufU32::labelled("his_d_polygon", hist_size);
    pip_test_kernel(
        &flat,
        0,
        &raw,
        tile_cells,
        Point::new(0.0, 0.0),
        cell,
        &his,
        hist_size,
        32,
    );
    let kernel: Vec<u64> = his.to_vec().into_iter().map(u64::from).collect();

    let grid = TileGrid::new(
        tile_cells,
        tile_cells,
        tile_cells,
        GeoTransform::new(0.0, 0.0, cell, cell),
    );
    let tile = TileData::new(raw, tile_cells, tile_cells);
    let zone = ZoneRows::new(&[true], hist_size);
    let counts = refine_intersect(
        &[(0, 0, tile.view())],
        &grid,
        &flat,
        &zone,
        &WorkCounter::new(),
    );
    assert!(counts.cells_counted > 0, "fixture must have inside cells");
    assert!(counts.cells_inside < 144, "fixture must have outside cells");
    assert_eq!(zone.into_histograms().zone(0), &kernel[..]);
}

#[test]
fn fig2_then_fig4_composition() {
    // Drive Fig. 2 over two tiles, then Fig. 4 to fold them into a polygon
    // histogram: the aggregated result must equal a direct count.
    let hist_size = 32usize;
    let tile_a: Vec<u16> = (0..256).map(|i| (i % 30) as u16).collect();
    let tile_b: Vec<u16> = (0..256).map(|i| ((i * 3) % 31) as u16).collect();
    let his_raster = TrackedBufU32::labelled("his_d_raster", 2 * hist_size);
    cell_aggr_kernel(&tile_a, &his_raster, 0, hist_size, 16);
    cell_aggr_kernel(&tile_b, &his_raster, 1, hist_size, 16);

    let his_polygon = TrackedBufU32::labelled("his_d_polygon", hist_size);
    update_hist_kernel(
        &[0],
        &[2],
        &[0],
        &[0, 1],
        &his_raster,
        &his_polygon,
        0,
        hist_size,
        8,
    );
    let out = his_polygon.to_vec();
    let mut expected = vec![0u32; hist_size];
    for &v in tile_a.iter().chain(&tile_b) {
        expected[v as usize] += 1;
    }
    assert_eq!(out, expected);
}

/// Under `--features sanitize`, the three paper kernels must pass the full
/// detector — zero races, zero lints, zero out-of-bounds, no divergence —
/// across several block widths and schedule seeds, while still computing
/// the right histograms.
#[cfg(feature = "sanitize")]
mod sanitized {
    use zonal_core::simt::{cell_aggr_checked, pip_test_checked, update_hist_checked};
    use zonal_geo::{FlatPolygons, Point, Polygon, Ring};
    use zonal_gpusim::TrackedBufU32;

    const SEEDS: [u64; 3] = [1, 0xbeef, 0x2014_0520];

    #[test]
    fn fig2_kernel_is_sanitizer_clean() {
        let hist_size = 64usize;
        let raw: Vec<u16> = (0..1024).map(|i| ((i * 37) % 80) as u16).collect();
        for block_dim in [7usize, 32] {
            for seed in SEEDS {
                let hist = TrackedBufU32::labelled("his_d_raster", 2 * hist_size);
                let report = cell_aggr_checked(&raw, &hist, 1, hist_size, block_dim, seed);
                report.assert_clean();
                assert_eq!(report.barriers, 2, "both Fig. 2 barriers executed");
                assert!(report.accesses > 0, "the kernel was actually traced");
            }
        }
    }

    #[test]
    fn fig4_kernel_is_sanitizer_clean() {
        let hist_size = 16usize;
        let his_raster = TrackedBufU32::labelled_from_vec(
            "his_d_raster",
            (0..3 * hist_size as u32).collect::<Vec<u32>>(),
        );
        let (pid_v, num_v, pos_v, tid_v) = (vec![2u32], vec![2u32], vec![0u32], vec![0u32, 2]);
        for block_dim in [5usize, 16] {
            for seed in SEEDS {
                let his_polygon = TrackedBufU32::labelled("his_d_polygon", 3 * hist_size);
                let report = update_hist_checked(
                    &pid_v,
                    &num_v,
                    &pos_v,
                    &tid_v,
                    &his_raster,
                    &his_polygon,
                    0,
                    hist_size,
                    block_dim,
                    seed,
                );
                report.assert_clean();
                assert!(report.accesses > 0);
            }
        }
    }

    #[test]
    fn fig5_kernel_is_sanitizer_clean() {
        let poly = Polygon::new(vec![
            Ring::circle(Point::new(0.6, 0.6), 0.5, 16),
            Ring::circle(Point::new(0.6, 0.6), 0.2, 8),
        ]);
        let flat = FlatPolygons::from_polygons(std::slice::from_ref(&poly));
        let tile_cells = 12usize;
        let raw: Vec<u16> = (0..tile_cells * tile_cells)
            .map(|i| (i % 8) as u16)
            .collect();
        let hist_size = 8usize;
        for block_dim in [3usize, 16] {
            for seed in SEEDS {
                let his = TrackedBufU32::labelled("his_d_polygon", hist_size);
                let report = pip_test_checked(
                    &flat,
                    0,
                    &raw,
                    tile_cells,
                    Point::new(0.0, 0.0),
                    0.1,
                    &his,
                    hist_size,
                    block_dim,
                    seed,
                );
                report.assert_clean();
                assert!(report.accesses > 0);
            }
        }
    }
}
