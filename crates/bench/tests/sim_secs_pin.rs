//! The counted simulated seconds, pinned to the bit.
//!
//! Runs `run_partitions` over the 20-cpd encoded catalog (county layer,
//! 1,000 bins) and compares the `f64` bits of every figure priced from
//! counted work with golden values: the Step 0/1/3/4 rows, and the
//! serial, overlapped and ratio-corrected end-to-end figures, at the
//! measured scale and extrapolated to 3600 cells/degree, on the GTX Titan
//! and the Tesla K20X. Step 2's measured wall is zeroed first, so every
//! pinned value is a pure function of the input.
//!
//! A change to how counted work is recorded, summed or priced must leave
//! these bits unchanged; only a deliberate recalibration edits them.

use zonal_bench::{cell_factor, encoded_partitions, us_zones};
use zonal_core::{run_partitions, PipelineConfig, PipelineTimings};
use zonal_gpusim::DeviceSpec;

/// Compression ratio for the ratio-corrected figure: a fixed value, so the
/// pin does not depend on the native-ratio sampler.
const RATIO: f64 = 0.182;

/// Steps 0, 1, 3, 4, then serial, overlapped and ratio-corrected
/// end-to-end seconds.
fn figures(t: &PipelineTimings, f: f64) -> [f64; 7] {
    let steps = t.step_sim_secs_at_scale(f);
    [
        steps[0],
        steps[1],
        steps[3],
        steps[4],
        t.end_to_end_sim_secs_at_scale(f),
        t.end_to_end_overlapped_sim_secs_at_scale(f),
        t.end_to_end_overlapped_sim_secs_with_ratio(f, RATIO),
    ]
}

#[test]
fn counted_sim_secs_are_pinned() {
    let zones = us_zones();
    let cfg = PipelineConfig::paper(DeviceSpec::gtx_titan()).with_bins(1000);
    let mut titan = run_partitions(&cfg, &zones, &encoded_partitions(0.1, 20)).timings;
    titan.steps[2].wall_secs = 0.0;
    let k20x = titan.with_device(DeviceSpec::tesla_k20x());

    let mut got = Vec::new();
    for t in [&titan, &k20x] {
        for f in [1.0, cell_factor(20)] {
            got.push(figures(t, f).map(f64::to_bits));
        }
    }
    let want: [[u64; 7]; 4] = [
        [
            4_553_738_729_581_415_086,
            4_576_323_692_904_779_026,
            4_576_124_339_708_863_438,
            4_572_451_158_054_830_694,
            4_597_253_138_725_296_680,
            4_597_190_347_709_028_994,
            4_597_190_281_449_477_203,
        ],
        [
            4_621_235_413_720_216_703,
            4_619_906_867_918_625_497,
            4_576_124_339_708_863_438,
            4_626_601_187_022_045_736,
            4_636_314_579_751_345_980,
            4_633_220_919_092_558_173,
            4_630_469_768_967_548_732,
        ],
        [
            4_554_470_732_482_244_981,
            4_576_728_157_876_296_815,
            4_576_499_663_457_683_168,
            4_572_558_143_869_833_113,
            4_597_306_648_520_202_284,
            4_597_243_857_503_934_597,
            4_597_243_791_244_382_806,
        ],
        [
            4_621_959_195_885_343_919,
            4_620_884_214_927_994_513,
            4_576_499_663_457_683_168,
            4_627_447_461_535_248_463,
            4_636_689_688_482_127_036,
            4_633_392_952_528_712_065,
            4_631_219_986_429_110_837,
        ],
    ];
    assert_eq!(
        got, want,
        "f64 bits of [S0, S1, S3, S4, serial, overlapped, ratio] for \
         (Titan, f=1), (Titan, f=cell_factor(20)), (K20X, f=1), (K20X, f=cell_factor(20))"
    );
}
