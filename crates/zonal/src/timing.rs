//! Per-step timing, work accounting, and full-scale extrapolation.
//!
//! [`StripWork`] is the only record of counted work: the Table 2 step
//! rows and the serial end-to-end figure price its sums, the overlapped
//! figure each strip. [`StepTiming`] holds each step's host wall.

use serde::{Deserialize, Serialize};
use zonal_gpusim::{CostModel, DeviceSpec, KernelClass, KernelWork, StripCost};

/// Pipeline step identifiers in paper order.
pub const STEP_NAMES: [&str; 5] = [
    "Step 0: raster decompression",
    "Step 1: per-tile histogramming",
    "Step 2: tile-in-polygon test",
    "Step 3: inside-tile histogram aggregation",
    "Step 4: cell-in-polygon test and histogram update",
];

/// The paper's CPU-side step (Step 2, tile-in-polygon test): it counts no
/// device work, and its simulated seconds are its measured host wall.
pub const CPU_STEP: usize = 2;

/// The device steps, in the order a strip runs them.
const DEVICE_STEPS: [usize; 4] = [0, 1, 3, 4];

/// One pipeline step's measured host wall time. Its counted device work
/// is in the per-strip [`StripWork`] records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StepTiming {
    /// Real wall-clock seconds of the CPU execution.
    pub wall_secs: f64,
}

/// Workload counters the paper's §IV discussion refers to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineCounts {
    /// Tiles in the raster(s).
    pub n_tiles: u64,
    /// All raster cells.
    pub n_cells: u64,
    /// Cells with a value inside the histogram range.
    pub n_valid_cells: u64,
    /// No-data / out-of-range cells.
    pub n_nodata_cells: u64,
    /// (polygon, tile) pairs surviving MBB filtering, by class.
    pub inside_pairs: u64,
    pub intersect_pairs: u64,
    pub outside_pairs: u64,
    /// Cells individually tested in Step 4.
    pub pip_cells_tested: u64,
    /// Of those, cells found inside their polygon.
    pub pip_cells_inside: u64,
    /// Polygon edges examined across all Step 4 tests.
    pub edge_tests: u64,
    /// Compressed and raw raster bytes (Step 0 input).
    pub encoded_bytes: u64,
    pub raw_bytes: u64,
}

impl PipelineCounts {
    pub fn accumulate(&mut self, o: &PipelineCounts) {
        self.n_tiles += o.n_tiles;
        self.n_cells += o.n_cells;
        self.n_valid_cells += o.n_valid_cells;
        self.n_nodata_cells += o.n_nodata_cells;
        self.inside_pairs += o.inside_pairs;
        self.intersect_pairs += o.intersect_pairs;
        self.outside_pairs += o.outside_pairs;
        self.pip_cells_tested += o.pip_cells_tested;
        self.pip_cells_inside += o.pip_cells_inside;
        self.edge_tests += o.edge_tests;
        self.encoded_bytes += o.encoded_bytes;
        self.raw_bytes += o.raw_bytes;
    }

    /// Fraction of cells that needed an individual point-in-polygon test —
    /// the saving the paper's tiling design exists to create.
    pub fn pip_fraction(&self) -> f64 {
        if self.n_cells == 0 {
            return 0.0;
        }
        self.pip_cells_tested as f64 / self.n_cells as f64
    }
}

/// Counted work of one streaming strip: the only record of the
/// pipeline's device work and upload bytes. Step totals are sums of these
/// records ([`PipelineTimings::total_work`]).
///
/// Work is split into a **cell-proportional** part (scales with raster
/// resolution: reading/decoding/testing cells) and a **fixed** part
/// (scales with tile/polygon/bin counts, which the 0.1° tiling keeps
/// resolution-independent). The split is what makes
/// [`StripWork::step_cost`] an honest extrapolation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StripWork {
    /// Compressed raster bytes uploaded for this strip (Step 0 input).
    pub encoded_bytes: u64,
    /// Decoded raster bytes of this strip (for ratio-corrected
    /// extrapolation of the upload size).
    pub raw_bytes: u64,
    /// Cell-proportional device work per step, paper order (index
    /// [`CPU_STEP`] is always empty).
    pub cell_work: [KernelWork; 5],
    /// Resolution-independent device work per step.
    pub fixed_work: [KernelWork; 5],
}

/// Kernel class pricing each step's work, paper order.
pub const STEP_CLASSES: [KernelClass; 5] = [
    KernelClass::Decode,
    KernelClass::Histogram,
    KernelClass::Generic,
    KernelClass::Aggregate,
    KernelClass::PipTest,
];

impl StripWork {
    /// Field-wise sum. Every field is a `u64`, so summing records in
    /// stream order gives the same totals however they were grouped.
    fn merge(&self, o: &StripWork) -> StripWork {
        StripWork {
            encoded_bytes: self.encoded_bytes + o.encoded_bytes,
            raw_bytes: self.raw_bytes + o.raw_bytes,
            cell_work: std::array::from_fn(|i| self.cell_work[i].merge(&o.cell_work[i])),
            fixed_work: std::array::from_fn(|i| self.fixed_work[i].merge(&o.fixed_work[i])),
        }
    }

    /// Step `step`'s work with its cell-proportional part scaled by
    /// `cell_factor`, and its simulated kernel seconds on `m`: the one
    /// place counted work is priced.
    pub fn step_cost(&self, m: &CostModel, step: usize, cell_factor: f64) -> (KernelWork, f64) {
        let work = self.cell_work[step]
            .scale(cell_factor)
            .merge(&self.fixed_work[step]);
        (work, m.kernel_secs(STEP_CLASSES[step], &work))
    }
}

/// Complete timing record of a pipeline run on one device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineTimings {
    pub device: DeviceSpec,
    /// Measured wall of Steps 0–4, paper order.
    pub steps: [StepTiming; 5],
    /// Per-strip work records in stream order: the only record of counted
    /// work and raster upload bytes.
    pub strips: Vec<StripWork>,
    /// Host→device polygon-array bytes: resolution-independent.
    pub fixed_input_bytes: u64,
    /// Device→host zone-histogram bytes: resolution-independent.
    pub output_bytes: u64,
}

impl PipelineTimings {
    pub fn new(device: DeviceSpec) -> Self {
        PipelineTimings {
            device,
            steps: [StepTiming::default(); 5],
            strips: Vec::new(),
            fixed_input_bytes: 0,
            output_bytes: 0,
        }
    }

    pub fn accumulate(&mut self, other: &PipelineTimings) {
        for (a, b) in self.steps.iter_mut().zip(&other.steps) {
            a.wall_secs += b.wall_secs;
        }
        self.strips.extend(other.strips.iter().copied());
        self.fixed_input_bytes += other.fixed_input_bytes;
        self.output_bytes += other.output_bytes;
    }

    fn model(&self) -> CostModel {
        CostModel::new(self.device)
    }

    /// Re-price the same measured run on a different device. Strip
    /// records and the CPU step's wall are device-independent, so a
    /// single execution yields Table 2 columns for every device.
    pub fn with_device(&self, device: DeviceSpec) -> PipelineTimings {
        let mut t = self.clone();
        t.device = device;
        t
    }

    /// Counted work of the whole run: the strip records summed in stream
    /// order.
    pub fn total_work(&self) -> StripWork {
        self.strips
            .iter()
            .fold(StripWork::default(), |acc, s| acc.merge(s))
    }

    /// Simulated per-step device seconds (Table 2 rows) at measured scale.
    pub fn step_sim_secs(&self) -> [f64; 5] {
        self.step_sim_secs_at_scale(1.0)
    }

    /// Simulated per-step seconds with cell-proportional work scaled by
    /// `cell_factor` (e.g. `(3600 / cells_per_degree)²` for full-SRTM
    /// figures). Device steps price their summed work, scaled as one
    /// total; the CPU step's is its measured wall.
    pub fn step_sim_secs_at_scale(&self, cell_factor: f64) -> [f64; 5] {
        let m = self.model();
        let total = self.total_work();
        std::array::from_fn(|i| {
            if i == CPU_STEP {
                self.steps[i].wall_secs
            } else {
                total.step_cost(&m, i, cell_factor).1
            }
        })
    }

    /// Sum of the five step times ("Runtimes of 5 steps" row of Table 2).
    pub fn steps_total_sim_secs_at_scale(&self, cell_factor: f64) -> f64 {
        self.step_sim_secs_at_scale(cell_factor).iter().sum()
    }

    /// End-to-end simulated seconds: steps plus host↔device transfers
    /// ("end-to-end runtimes are larger than the total of the runtimes of
    /// the five steps due to data transfer times").
    pub fn end_to_end_sim_secs_at_scale(&self, cell_factor: f64) -> f64 {
        let m = self.model();
        let raster_bytes = self.total_work().encoded_bytes;
        let xfer = m.transfer_secs((raster_bytes as f64 * cell_factor) as u64)
            + m.transfer_secs(self.fixed_input_bytes)
            + m.transfer_secs(self.output_bytes);
        self.steps_total_sim_secs_at_scale(cell_factor) + xfer
    }

    pub fn end_to_end_sim_secs(&self) -> f64 {
        self.end_to_end_sim_secs_at_scale(1.0)
    }

    /// End-to-end simulated seconds with stream overlap: strip uploads
    /// run on the device's copy engine(s) concurrently with earlier
    /// strips' kernels ([`CostModel::overlapped_pipeline_secs`]), so most
    /// of the raster transfer hides behind compute. The CPU-side Step 2
    /// and the fixed-size polygon upload / histogram download still pay
    /// serially — they bracket the stream pipeline. With no strip
    /// records it equals the serial figure.
    ///
    /// Always ≥ the pure compute total (pipeline fill and drain are
    /// real) and ≤ the serial [`PipelineTimings::end_to_end_sim_secs_at_scale`]
    /// figure (the serial schedule is an admissible pipeline schedule).
    pub fn end_to_end_overlapped_sim_secs_at_scale(&self, cell_factor: f64) -> f64 {
        self.overlapped_e2e(cell_factor, |s| s.encoded_bytes as f64 * cell_factor)
    }

    pub fn end_to_end_overlapped_sim_secs(&self) -> f64 {
        self.end_to_end_overlapped_sim_secs_at_scale(1.0)
    }

    /// Ratio-corrected overlapped figure for full-scale extrapolation:
    /// per-strip upload bytes are taken as `raw_bytes × cell_factor ×
    /// ratio` instead of the synthetic encoder's output size, matching
    /// how the `tables` bench substitutes the native SRTM compression
    /// ratio into the serial end-to-end row.
    pub fn end_to_end_overlapped_sim_secs_with_ratio(&self, cell_factor: f64, ratio: f64) -> f64 {
        self.overlapped_e2e(cell_factor, |s| s.raw_bytes as f64 * cell_factor * ratio)
    }

    fn overlapped_e2e(&self, cell_factor: f64, strip_bytes: impl Fn(&StripWork) -> f64) -> f64 {
        let m = self.model();
        let pipeline = m.overlapped_pipeline_secs(&self.strip_costs(&m, cell_factor, strip_bytes));
        let fixed_xfer =
            m.transfer_secs(self.fixed_input_bytes) + m.transfer_secs(self.output_bytes);
        self.steps[CPU_STEP].wall_secs + pipeline + fixed_xfer
    }

    /// Per-strip upload and compute costs on `m`, uploading
    /// `strip_bytes(strip)` bytes per strip: the input of both the
    /// overlapped figure and its trace replay.
    fn strip_costs(
        &self,
        m: &CostModel,
        cell_factor: f64,
        strip_bytes: impl Fn(&StripWork) -> f64,
    ) -> Vec<StripCost> {
        self.strips
            .iter()
            .map(|s| StripCost {
                transfer_secs: m.transfer_secs_f(strip_bytes(s)),
                compute_secs: DEVICE_STEPS
                    .iter()
                    .map(|&i| s.step_cost(m, i, cell_factor).1)
                    .sum(),
            })
            .collect()
    }

    /// Total measured wall seconds across steps.
    pub fn wall_secs(&self) -> f64 {
        self.steps.iter().map(|s| s.wall_secs).sum()
    }

    /// Replay the overlapped cost-model schedule as simulated-device
    /// trace lanes (see `zonal_obs::chrome`): the CPU-side Step 2 on a
    /// host lane, per-strip H2D uploads (bracketed by the polygon upload
    /// and histogram download) on a copy-engine lane, and per-strip
    /// compute with nested per-kernel spans on a compute lane.
    ///
    /// The schedule comes from
    /// [`CostModel::overlapped_pipeline_schedule`], the same recurrence
    /// `overlapped_pipeline_secs` reports, so the exported timeline is a
    /// faithful visual audit of
    /// [`PipelineTimings::end_to_end_overlapped_sim_secs_at_scale`]:
    /// upload span durations are exactly the per-strip transfer costs,
    /// kernel span durations exactly `CostModel::kernel_secs` of that
    /// strip's step work, and the last download ends at the overlapped
    /// end-to-end figure (up to float re-association on span *edges*).
    /// Returns no spans when there are no strip records.
    pub fn sim_device_spans(&self, cell_factor: f64) -> Vec<zonal_obs::SimSpan> {
        use zonal_obs::SimSpan;

        const HOST: (u32, &str) = (0, "sim host (CPU step)");
        const COPY: (u32, &str) = (1, "sim copy engine");
        const COMPUTE: (u32, &str) = (2, "sim compute");

        if self.strips.is_empty() {
            return Vec::new();
        }
        let m = self.model();
        let strip_costs =
            self.strip_costs(&m, cell_factor, |s| s.encoded_bytes as f64 * cell_factor);
        let sched = m.overlapped_pipeline_schedule(&strip_costs);

        let mut spans = Vec::new();
        let cpu = self.steps[CPU_STEP].wall_secs;
        spans.push(SimSpan {
            tid: HOST.0,
            lane: HOST.1,
            name: STEP_NAMES[CPU_STEP].to_string(),
            start_secs: 0.0,
            dur_secs: cpu,
            args: vec![],
        });
        let poly_xfer = m.transfer_secs(self.fixed_input_bytes);
        spans.push(SimSpan {
            tid: COPY.0,
            lane: COPY.1,
            name: "polygon upload (H2D)".to_string(),
            start_secs: cpu,
            dur_secs: poly_xfer,
            args: vec![("bytes", self.fixed_input_bytes as f64)],
        });

        // The stream pipeline runs after Step 2 and the polygon upload.
        let base = cpu + poly_xfer;
        for (i, ((s, cost), work)) in sched.iter().zip(&strip_costs).zip(&self.strips).enumerate() {
            spans.push(SimSpan {
                tid: COPY.0,
                lane: COPY.1,
                name: format!("strip {i} upload (H2D)"),
                start_secs: base + s.xfer_start,
                dur_secs: cost.transfer_secs,
                args: vec![("bytes", work.encoded_bytes as f64 * cell_factor)],
            });
            spans.push(SimSpan {
                tid: COMPUTE.0,
                lane: COMPUTE.1,
                name: format!("strip {i} compute"),
                start_secs: base + s.comp_start,
                dur_secs: cost.compute_secs,
                args: vec![],
            });
            // Per-kernel spans tiling the strip's compute interval in
            // step order; durations sum (in the same order) to
            // `compute_secs`, so the tiling is exact.
            let mut at = base + s.comp_start;
            for step in DEVICE_STEPS {
                let (w, dur) = work.step_cost(&m, step, cell_factor);
                spans.push(SimSpan {
                    tid: COMPUTE.0,
                    lane: COMPUTE.1,
                    name: STEP_NAMES[step].to_string(),
                    start_secs: at,
                    dur_secs: dur,
                    args: vec![
                        ("flops", w.flops as f64),
                        ("coalesced_bytes", w.coalesced_bytes as f64),
                        ("scattered_bytes", w.scattered_bytes as f64),
                        ("atomics", w.atomics as f64),
                        ("launches", w.launches as f64),
                    ],
                });
                at += dur;
            }
        }

        let makespan = sched.last().map_or(0.0, |s| s.comp_done);
        spans.push(SimSpan {
            tid: COPY.0,
            lane: COPY.1,
            name: "zone histogram download (D2H)".to_string(),
            start_secs: base + makespan,
            dur_secs: m.transfer_secs(self.output_bytes),
            args: vec![("bytes", self.output_bytes as f64)],
        });
        spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_step_sim_is_wall() {
        let mut t = PipelineTimings::new(DeviceSpec::gtx_titan());
        t.steps[CPU_STEP].wall_secs = 0.123;
        let mut s = StripWork::default();
        s.cell_work[1].flops = 1_000_000;
        t.strips.push(s);
        assert_eq!(t.step_sim_secs()[CPU_STEP], 0.123);
        assert_eq!(
            t.step_sim_secs_at_scale(1000.0)[CPU_STEP],
            0.123,
            "CPU step does not scale"
        );
    }

    #[test]
    fn scaling_multiplies_cell_work_only() {
        let mut t = PipelineTimings::new(DeviceSpec::gtx_titan());
        let mut s = StripWork::default();
        s.cell_work[1].atomics = 1_000_000;
        s.fixed_work[1].atomics = 500_000;
        t.strips.push(s);
        let t1 = t.step_sim_secs()[1];
        let t4 = t.step_sim_secs_at_scale(4.0)[1];
        // 1.5M atomics -> 4.5M atomics: ratio 3, not 4.
        assert!((t4 / t1 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn end_to_end_exceeds_steps_total() {
        let mut t = PipelineTimings::new(DeviceSpec::gtx_titan());
        let mut s = StripWork {
            encoded_bytes: 1_000_000_000,
            ..Default::default()
        };
        s.cell_work[1].atomics = 1_000_000_000;
        t.strips.push(s);
        t.fixed_input_bytes = 1_400_000;
        t.output_bytes = 62_000_000;
        let steps = t.steps_total_sim_secs_at_scale(1.0);
        let e2e = t.end_to_end_sim_secs();
        assert!(e2e > steps, "transfers must add on top of steps");
    }

    #[test]
    fn counts_accumulate() {
        let mut a = PipelineCounts {
            n_cells: 10,
            pip_cells_tested: 2,
            ..Default::default()
        };
        let b = PipelineCounts {
            n_cells: 30,
            pip_cells_tested: 3,
            ..Default::default()
        };
        a.accumulate(&b);
        assert_eq!(a.n_cells, 40);
        assert_eq!(a.pip_cells_tested, 5);
        assert!((a.pip_fraction() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn overlapped_between_compute_total_and_serial() {
        let mut t = PipelineTimings::new(DeviceSpec::gtx_titan());
        // 8 uniform strips.
        for _ in 0..8 {
            let mut s = StripWork {
                encoded_bytes: 50_000_000,
                raw_bytes: 400_000_000,
                ..Default::default()
            };
            s.cell_work[0].flops = 3_000_000_000;
            s.cell_work[1].atomics = 200_000_000;
            s.cell_work[4].flops = 1_000_000_000;
            t.strips.push(s);
        }
        t.steps[2].wall_secs = 0.05;
        t.fixed_input_bytes = 1_400_000;
        t.output_bytes = 62_000_000;
        let serial = t.end_to_end_sim_secs();
        let overlapped = t.end_to_end_overlapped_sim_secs();
        let steps_total = t.steps_total_sim_secs_at_scale(1.0);
        assert!(
            overlapped < serial,
            "streams must hide transfer: {overlapped} vs {serial}"
        );
        assert!(
            overlapped >= steps_total,
            "fill/drain keep overlapped above pure compute: {overlapped} vs {steps_total}"
        );
    }

    #[test]
    fn overlapped_equals_serial_without_strips() {
        // Both reduce to Step 2's wall plus the fixed transfers.
        let mut t = PipelineTimings::new(DeviceSpec::gtx_titan());
        t.steps[CPU_STEP].wall_secs = 0.05;
        t.fixed_input_bytes = 1_400_000;
        t.output_bytes = 62_000_000;
        assert_eq!(t.end_to_end_overlapped_sim_secs(), t.end_to_end_sim_secs());
    }

    #[test]
    fn ratio_corrected_overlap_scales_with_ratio() {
        let mut t = PipelineTimings::new(DeviceSpec::gtx_titan());
        let mut s = StripWork {
            encoded_bytes: 1_000,
            raw_bytes: 1_000_000_000,
            ..Default::default()
        };
        s.cell_work[1].atomics = 1_000;
        t.strips = vec![s; 4];
        // Transfer-dominated: doubling the assumed compression ratio must
        // increase the priced time.
        let lo = t.end_to_end_overlapped_sim_secs_with_ratio(1.0, 0.1);
        let hi = t.end_to_end_overlapped_sim_secs_with_ratio(1.0, 0.2);
        assert!(hi > lo);
    }

    #[test]
    fn timings_accumulate() {
        let mut a = PipelineTimings::new(DeviceSpec::gtx_titan());
        let mut b = PipelineTimings::new(DeviceSpec::gtx_titan());
        b.steps[4].wall_secs = 2.5;
        b.fixed_input_bytes = 7;
        b.strips.push(StripWork {
            encoded_bytes: 100,
            ..Default::default()
        });
        a.accumulate(&b);
        a.accumulate(&b);
        assert_eq!(a.steps[4].wall_secs, 5.0);
        assert_eq!(a.total_work().encoded_bytes, 200);
        assert_eq!(a.fixed_input_bytes, 14);
        assert_eq!(a.wall_secs(), 5.0);
        assert_eq!(a.strips.len(), 2, "strip records concatenate in order");
    }

    /// Timings with varied per-strip work.
    fn strip_timings(n_strips: u64) -> PipelineTimings {
        let mut t = PipelineTimings::new(DeviceSpec::gtx_titan());
        for i in 0..n_strips {
            let mut s = StripWork {
                encoded_bytes: 40_000_000 + 5_000_000 * (i % 3),
                raw_bytes: 400_000_000,
                ..Default::default()
            };
            s.cell_work[0].flops = 2_000_000_000 + 500_000_000 * (i % 2);
            s.cell_work[1].atomics = 150_000_000;
            s.fixed_work[3].coalesced_bytes = 4_000_000;
            s.cell_work[4].flops = 900_000_000 * (i % 4);
            t.strips.push(s);
        }
        t.steps[2].wall_secs = 0.05;
        t.fixed_input_bytes = 1_400_000;
        t.output_bytes = 62_000_000;
        t
    }

    #[test]
    fn sim_spans_replay_cost_model_exactly() {
        let t = strip_timings(6);
        let m = t.model();
        let spans = t.sim_device_spans(1.0);
        // One host span, polygon upload + per-strip uploads + download on
        // the copy lane, and per strip one compute span + four kernels.
        assert_eq!(spans.len(), 1 + (1 + 6 + 1) + 6 * 5);

        // Upload span durations are exactly the per-strip transfer cost.
        for (i, s) in t.strips.iter().enumerate() {
            let name = format!("strip {i} upload (H2D)");
            let span = spans.iter().find(|x| x.name == name).unwrap();
            assert_eq!(span.dur_secs, m.transfer_secs_f(s.encoded_bytes as f64));
        }
        // Kernel span durations are exactly kernel_secs of the step work,
        // and per strip they sum to the strip's compute cost.
        let mut kernel_total = 0.0;
        for s in &t.strips {
            for &step in &[0usize, 1, 3, 4] {
                let w = s.cell_work[step].merge(&s.fixed_work[step]);
                kernel_total += m.kernel_secs(STEP_CLASSES[step], &w);
            }
        }
        let span_kernel_total: f64 = spans
            .iter()
            .filter(|x| STEP_NAMES.contains(&x.name.as_str()) && x.tid == 2)
            .map(|x| x.dur_secs)
            .sum();
        assert!((span_kernel_total - kernel_total).abs() < 1e-15);

        // The timeline ends at the overlapped end-to-end figure.
        let end = spans
            .iter()
            .map(|x| x.start_secs + x.dur_secs)
            .fold(0.0f64, f64::max);
        let e2e = t.end_to_end_overlapped_sim_secs();
        assert!(
            (end - e2e).abs() <= 1e-12 * e2e.max(1.0),
            "timeline end {end} vs overlapped e2e {e2e}"
        );

        // And the rendered trace passes structural validation (proper
        // nesting of kernel spans inside strip compute spans).
        let mut trace = zonal_obs::Trace {
            events: Vec::new(),
            lanes: Vec::new(),
            metrics: Vec::new(),
            dropped: 0,
            sim_spans: Vec::new(),
        };
        trace.push_sim_spans(spans);
        let summary = zonal_obs::validate_chrome_json(&trace.to_chrome_json()).unwrap();
        assert!(summary.has_sim_lanes);
    }

    #[test]
    fn sim_spans_scale_with_cell_factor() {
        let t = strip_timings(4);
        let m = t.model();
        let f = 9.0;
        let spans = t.sim_device_spans(f);
        let span = spans
            .iter()
            .find(|x| x.name == "strip 0 upload (H2D)")
            .unwrap();
        assert_eq!(
            span.dur_secs,
            m.transfer_secs_f(t.strips[0].encoded_bytes as f64 * f)
        );
        let end = spans
            .iter()
            .map(|x| x.start_secs + x.dur_secs)
            .fold(0.0f64, f64::max);
        let e2e = t.end_to_end_overlapped_sim_secs_at_scale(f);
        assert!((end - e2e).abs() <= 1e-12 * e2e.max(1.0));
    }

    #[test]
    fn sim_spans_empty_without_strip_records() {
        let t = PipelineTimings::new(DeviceSpec::gtx_titan());
        assert!(t.sim_device_spans(1.0).is_empty());
    }
}
