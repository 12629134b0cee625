//! The standard simulator: replay a trace through one predictor.

use std::time::Instant;

use mbp_json::Value;
use mbp_trace::TraceError;

use crate::forensics::{Forensics, ForensicsConfig};
use crate::metrics::{accuracy, mpki, BranchStat, BranchTaxonomy, Metrics, MostFailed};
use crate::timeseries::{TimeSeries, TimeSeriesBuilder};
use crate::{PredictionBits, Predictor, TableProbe, TraceSource};

/// Configuration of a simulation run.
///
/// # Examples
///
/// ```
/// use mbp_core::SimConfig;
///
/// let cfg = SimConfig {
///     warmup_instructions: 10_000_000,
///     max_instructions: Some(100_000_000),
///     ..SimConfig::default()
/// };
/// assert!(cfg.max_instructions.is_some());
/// ```
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Instructions whose mispredictions are not counted (§IV-C: "run only
    /// the first n instructions as warm-up").
    pub warmup_instructions: u64,
    /// Stop after this many instructions (`None` = exhaust the trace); the
    /// "first 100 million instructions" methodology of §VII-A.
    pub max_instructions: Option<u64>,
    /// Call `track` only for conditional branches (some predictors ignore
    /// unconditional flow; recorded in the output metadata as in Listing 1).
    pub track_only_conditional: bool,
    /// Maximum entries in the `most_failed` report.
    pub most_failed_limit: usize,
    /// Accumulate windowed time-series telemetry with this window size in
    /// instructions (`None` — the default — disables the telemetry and
    /// keeps the batched driver on its per-batch steady-state fast path).
    pub timeseries_window: Option<u64>,
    /// Capture the predictor's [`TableProbe`] reports at the end of the
    /// run (the `--introspect` flag). Off by default; probes are read once
    /// from the final table state, so this never touches the record loop.
    pub collect_probes: bool,
    /// Accumulate per-branch misprediction forensics (the `mbpsim explain`
    /// subcommand). Like the timeseries, enabling this needs per-record
    /// attribution and pins the run to the scalar fallback loop; the
    /// default `None` keeps results and throughput bit-identical to a
    /// build without forensics.
    pub forensics: Option<ForensicsConfig>,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            warmup_instructions: 0,
            max_instructions: None,
            track_only_conditional: false,
            most_failed_limit: 20,
            timeseries_window: None,
            collect_probes: false,
            forensics: None,
        }
    }
}

/// The `metadata` section of a result (Listing 1).
#[derive(Clone, Debug)]
pub struct SimMetadata {
    /// Simulator identification.
    pub simulator: &'static str,
    /// Simulator version.
    pub version: &'static str,
    /// Trace description from the source.
    pub trace: Value,
    /// Warm-up instructions configured.
    pub warmup_instr: u64,
    /// Instructions actually simulated (measured window, after warm-up).
    pub simulation_instr: u64,
    /// Whether the trace ended before `max_instructions` was reached.
    pub exhausted_trace: bool,
    /// Dynamic conditional branches measured.
    pub num_conditional_branches: u64,
    /// Distinct static branch instructions observed.
    pub num_branch_instructions: u64,
    /// Whether `track` was limited to conditional branches.
    pub track_only_conditional: bool,
    /// The predictor's self-description.
    pub predictor: Value,
}

/// The complete outcome of a simulation.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// The `metadata` section.
    pub metadata: SimMetadata,
    /// The `metrics` section.
    pub metrics: Metrics,
    /// The predictor's `predictor_statistics` section.
    pub predictor_statistics: Value,
    /// The `most_failed` section.
    pub most_failed: Vec<BranchStat>,
    /// Per-branch misprediction characterization (rendered under
    /// `metrics.branch_taxonomy`).
    pub branch_taxonomy: BranchTaxonomy,
    /// Windowed telemetry (rendered under `metrics.timeseries`); present
    /// only when [`SimConfig::timeseries_window`] was set.
    pub timeseries: Option<TimeSeries>,
    /// Table-health probes (rendered as the `introspection` section);
    /// empty unless [`SimConfig::collect_probes`] was set.
    pub table_probes: Vec<TableProbe>,
    /// Phase-sampling report (rendered as the top-level `simpoint`
    /// section); present only on results produced by
    /// [`simulate_sampled`](crate::simulate_sampled).
    pub sampling: Option<Value>,
    /// Misprediction forensic report (rendered as the top-level
    /// `forensics` section); present only when
    /// [`SimConfig::forensics`] was set.
    pub forensics: Option<Value>,
}

/// Per-record bookkeeping shared by the batched and scalar drivers.
struct SimState {
    instructions: u64,
    measured_instructions: u64,
    conditional: u64,
    mispredictions: u64,
    most_failed: MostFailed,
    exhausted: bool,
    timeseries: Option<TimeSeriesBuilder>,
    forensics: Option<Forensics>,
}

impl SimState {
    fn new(config: &SimConfig) -> Self {
        Self {
            instructions: 0,
            measured_instructions: 0,
            conditional: 0,
            mispredictions: 0,
            most_failed: MostFailed::new(),
            exhausted: true,
            timeseries: config.timeseries_window.map(TimeSeriesBuilder::new),
            forensics: config.forensics.as_ref().map(Forensics::new),
        }
    }

    fn into_result<S, P>(
        self,
        trace: &S,
        predictor: &P,
        config: &SimConfig,
        simulation_time: f64,
    ) -> SimResult
    where
        S: TraceSource + ?Sized,
        P: Predictor + ?Sized,
    {
        let timeseries = self.timeseries.map(|b| b.finish(self.instructions));
        let forensics = self
            .forensics
            .as_ref()
            .map(|f| f.report(self.measured_instructions));
        let report = self.most_failed.report(
            config.most_failed_limit,
            self.measured_instructions,
            self.mispredictions,
        );
        SimResult {
            metadata: SimMetadata {
                simulator: crate::SIMULATOR_NAME,
                version: crate::SIMULATOR_VERSION,
                trace: trace.description(),
                warmup_instr: config.warmup_instructions,
                simulation_instr: self.measured_instructions,
                exhausted_trace: self.exhausted,
                num_conditional_branches: self.conditional,
                num_branch_instructions: report.distinct_branches,
                track_only_conditional: config.track_only_conditional,
                predictor: predictor.metadata(),
            },
            metrics: Metrics {
                mpki: mpki(self.mispredictions, self.measured_instructions),
                mispredictions: self.mispredictions,
                accuracy: accuracy(self.mispredictions, self.conditional),
                num_most_failed_branches: report.half_coverage_count,
                simulation_time,
            },
            predictor_statistics: predictor.execution_statistics(),
            most_failed: report.top,
            branch_taxonomy: report.taxonomy,
            timeseries,
            table_probes: if config.collect_probes {
                predictor.table_probes()
            } else {
                Vec::new()
            },
            sampling: None,
            forensics,
        }
    }
}

/// Runs `predictor` over `trace`, pulling records in decoded blocks.
///
/// For every record: the instruction counter advances by the record's gap
/// plus one; conditional branches are predicted and trained; all branches
/// are tracked (unless [`SimConfig::track_only_conditional`]). Mispredictions
/// are only counted once the warm-up window has elapsed.
///
/// The trace is consumed through [`TraceSource::fill_batch`], so the source
/// decodes whole struct-of-arrays blocks into one reusable
/// [`BranchBatch`](mbp_trace::BranchBatch) instead of answering a virtual
/// call per record. In steady state (warm-up elapsed, no cut-off, no
/// timeseries) each block is handed to [`Predictor::predict_batch`] — one
/// virtual call per 2048 records, with vectorized kernels for the table
/// predictors — and the driver scores the returned prediction bits against
/// the batch's outcome column. Results are identical to [`simulate_scalar`]
/// (the one-record-at-a-time reference driver) on any source whose
/// `fill_batch` agrees with its `next_record` stream; the driver-equivalence
/// suite pins this byte-for-byte.
///
/// # Errors
///
/// Propagates trace decoding errors; the predictor cannot fail.
pub fn simulate<S, P>(
    trace: &mut S,
    predictor: &mut P,
    config: &SimConfig,
) -> Result<SimResult, TraceError>
where
    S: TraceSource + ?Sized,
    P: Predictor + ?Sized,
{
    let start = Instant::now();
    let stats = &mbp_stats::pipeline().sim;
    stats.runs.inc();
    // The run span closes when this guard drops — also during an unwind, so
    // a predictor panicking under a sweep's `catch_unwind` still pairs its
    // begin event with an end event.
    let _run_event = mbp_stats::events::span(mbp_stats::events::EventName::SimSimulate);
    let mut st = SimState::new(config);
    let mut records = 0u64;
    let mut batched_records = 0u64;
    let looped_before = crate::predictor::default_loop_records();
    let mut fallback_records = 0u64;
    let mut batch = mbp_trace::BranchBatch::new();
    let mut predictions = PredictionBits::new();

    'trace: loop {
        // Time the decode share separately from the whole run; one span per
        // 2048-record block keeps the instrumentation off the record loop.
        let got = {
            let _span = stats.fill_batch.span();
            let _event = mbp_stats::events::span(mbp_stats::events::EventName::SimFillBatch);
            trace.fill_batch(&mut batch)?
        };
        // Per-batch heartbeat: every N-th batch samples the pipeline gauges
        // into the event journal (throughput-over-time curves).
        mbp_stats::events::batch_tick();
        if got == 0 {
            break;
        }
        records += got as u64;
        // Steady state: once warm-up has elapsed and no cut-off is set,
        // every record of the batch is measured, so the whole block goes
        // through `predict_batch` (the kernel fast path) and the per-record
        // window checks disappear. Any record advances the counter by at
        // least one instruction, so `instructions >= warmup` here implies
        // `instructions > warmup` after each record below. Timeseries
        // accumulation needs per-record attribution, so it pins the run to
        // the slow loop; the check is per batch, keeping the default
        // (disabled) configuration at zero per-record cost.
        if config.max_instructions.is_none()
            && st.instructions >= config.warmup_instructions
            && st.timeseries.is_none()
            && st.forensics.is_none()
        {
            batched_records += got as u64;
            predictions.clear();
            predictor.predict_batch(&batch, config.track_only_conditional, &mut predictions);
            // Bookkeeping over the columns: the predictor already consumed
            // the batch, so this loop touches only pcs/gaps/taken/ops (the
            // targets column stays cold) and never calls through the
            // predictor vtable.
            let (pcs, gaps, taken, ops) = (
                &batch.pcs()[..got],
                &batch.gaps()[..got],
                &batch.taken()[..got],
                &batch.ops()[..got],
            );
            // Instruction totals vectorize as one reduction over the gaps
            // column; scoring and the per-branch table take one pass over
            // the remaining columns.
            let advanced: u64 = gaps.iter().map(|&g| g as u64).sum::<u64>() + got as u64;
            st.instructions += advanced;
            st.measured_instructions += advanced;
            let (conditional, mispredictions) =
                st.most_failed
                    .record_batch(pcs, taken, ops, predictions.words());
            st.conditional += conditional;
            st.mispredictions += mispredictions;
            continue;
        }
        fallback_records += got as u64;
        for i in 0..got {
            if let Some(max) = config.max_instructions {
                if st.instructions >= max {
                    // A record exists beyond the cut-off, so the trace was
                    // not exhausted — same contract as the scalar driver,
                    // which pulls (but does not process) one more record.
                    st.exhausted = false;
                    break 'trace;
                }
            }
            let rec = batch.record(i);
            st.instructions += rec.instructions();
            let in_measurement = st.instructions > config.warmup_instructions;
            if in_measurement {
                st.measured_instructions += rec.instructions();
            }
            let b = rec.branch;
            if b.is_conditional() {
                let prediction = predictor.predict(b.ip());
                let mispredicted = prediction != b.is_taken();
                if let Some(ts) = st.timeseries.as_mut() {
                    // Warmup branches are recorded too: seeing the warmup
                    // transient is the point of the series.
                    ts.branch(b.ip(), b.is_taken(), mispredicted);
                }
                if in_measurement {
                    st.conditional += 1;
                    st.mispredictions += mispredicted as u64;
                    st.most_failed.record(b.ip(), b.is_taken(), mispredicted);
                } else {
                    st.most_failed.note_static(b.ip());
                }
                predictor.train(&b);
                if in_measurement {
                    if let Some(f) = st.forensics.as_mut() {
                        // Blame is only valid right after a mispredicted
                        // branch's train call, which is exactly where we are.
                        let blame = if mispredicted {
                            predictor.last_mispredict_blame()
                        } else {
                            None
                        };
                        f.record(b.ip(), b.is_taken(), mispredicted, blame);
                    }
                }
            } else {
                st.most_failed.note_static(b.ip());
            }
            if !config.track_only_conditional || b.is_conditional() {
                predictor.track(&b);
            }
            if let Some(ts) = st.timeseries.as_mut() {
                ts.advance(st.instructions);
            }
        }
    }

    let elapsed = start.elapsed();
    // Batched records a predictor without a kernel ran through the trait's
    // default loop were counted there, on this thread.
    let kernel_records =
        batched_records.saturating_sub(crate::predictor::default_loop_records() - looped_before);
    stats.records.add(records);
    stats.instructions.add(st.instructions);
    stats.kernel_branches.add(kernel_records);
    stats.scalar_fallback_branches.add(fallback_records);
    // One instant per run: how much of it rode the kernel path (0 = the run
    // never left the fallback). Visible in Chrome traces next to the run's
    // `sim.simulate` span.
    mbp_stats::events::instant(
        mbp_stats::events::EventName::SimKernelBranches,
        kernel_records,
    );
    stats
        .simulate
        .record_ns(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    Ok(st.into_result(trace, predictor, config, elapsed.as_secs_f64()))
}

/// The one-record-at-a-time reference driver.
///
/// Processes the trace through [`TraceSource::next_record`] exactly as
/// [`simulate`] does through [`TraceSource::fill_batch`]; the two must
/// produce identical results (the equivalence test suite pins this). Kept
/// as the semantic baseline and for sources whose batch path is not
/// trustworthy while debugging.
///
/// # Errors
///
/// Propagates trace decoding errors; the predictor cannot fail.
pub fn simulate_scalar<S, P>(
    trace: &mut S,
    predictor: &mut P,
    config: &SimConfig,
) -> Result<SimResult, TraceError>
where
    S: TraceSource + ?Sized,
    P: Predictor + ?Sized,
{
    let start = Instant::now();
    let stats = &mbp_stats::pipeline().sim;
    stats.runs.inc();
    let _run_event = mbp_stats::events::span(mbp_stats::events::EventName::SimSimulate);
    let mut st = SimState::new(config);
    let mut records = 0u64;

    while let Some(rec) = trace.next_record()? {
        records += 1;
        if let Some(max) = config.max_instructions {
            if st.instructions >= max {
                st.exhausted = false;
                break;
            }
        }
        st.instructions += rec.instructions();
        let in_measurement = st.instructions > config.warmup_instructions;
        if in_measurement {
            st.measured_instructions += rec.instructions();
        }
        let b = rec.branch;
        if b.is_conditional() {
            let prediction = predictor.predict(b.ip());
            let mispredicted = prediction != b.is_taken();
            if let Some(ts) = st.timeseries.as_mut() {
                ts.branch(b.ip(), b.is_taken(), mispredicted);
            }
            if in_measurement {
                st.conditional += 1;
                st.mispredictions += mispredicted as u64;
                st.most_failed.record(b.ip(), b.is_taken(), mispredicted);
            } else {
                st.most_failed.note_static(b.ip());
            }
            predictor.train(&b);
            if in_measurement {
                if let Some(f) = st.forensics.as_mut() {
                    let blame = if mispredicted {
                        predictor.last_mispredict_blame()
                    } else {
                        None
                    };
                    f.record(b.ip(), b.is_taken(), mispredicted, blame);
                }
            }
        } else {
            st.most_failed.note_static(b.ip());
        }
        if !config.track_only_conditional || b.is_conditional() {
            predictor.track(&b);
        }
        if let Some(ts) = st.timeseries.as_mut() {
            ts.advance(st.instructions);
        }
    }

    let elapsed = start.elapsed();
    stats.records.add(records);
    stats.instructions.add(st.instructions);
    stats.scalar_fallback_branches.add(records);
    stats
        .simulate
        .record_ns(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    Ok(st.into_result(trace, predictor, config, elapsed.as_secs_f64()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SliceSource;
    use mbp_json::json;
    use mbp_trace::{Branch, BranchRecord, Opcode};

    /// Predicts taken; counts interface calls.
    #[derive(Default)]
    struct Spy {
        predicts: u64,
        trains: u64,
        tracks: u64,
    }

    impl Predictor for Spy {
        fn predict(&mut self, _ip: u64) -> bool {
            self.predicts += 1;
            true
        }
        fn train(&mut self, _b: &Branch) {
            self.trains += 1;
        }
        fn track(&mut self, _b: &Branch) {
            self.tracks += 1;
        }
        fn metadata(&self) -> Value {
            json!({"name": "spy"})
        }
        fn execution_statistics(&self) -> Value {
            json!({"tracks": self.tracks})
        }
    }

    fn cond(ip: u64, taken: bool, gap: u32) -> BranchRecord {
        BranchRecord::new(
            Branch::new(ip, 0x9000, Opcode::conditional_direct(), taken),
            gap,
        )
    }

    fn uncond(ip: u64, gap: u32) -> BranchRecord {
        BranchRecord::new(
            Branch::new(ip, 0x9000, Opcode::unconditional_direct(), true),
            gap,
        )
    }

    #[test]
    fn call_discipline_matches_paper() {
        // train before track, train only for conditional, track for all.
        let recs = vec![cond(0x10, true, 0), uncond(0x20, 0), cond(0x10, false, 0)];
        let mut spy = Spy::default();
        let r = simulate(
            &mut SliceSource::new(&recs),
            &mut spy,
            &SimConfig::default(),
        )
        .unwrap();
        assert_eq!(spy.predicts, 2);
        assert_eq!(spy.trains, 2);
        assert_eq!(spy.tracks, 3);
        assert_eq!(r.metadata.num_conditional_branches, 2);
        assert_eq!(r.metadata.num_branch_instructions, 2, "distinct static ips");
        assert_eq!(r.metrics.mispredictions, 1);
        assert_eq!(r.metrics.accuracy, 0.5);
    }

    #[test]
    fn track_only_conditional_skips_unconditional() {
        let recs = vec![cond(0x10, true, 0), uncond(0x20, 0)];
        let mut spy = Spy::default();
        let cfg = SimConfig {
            track_only_conditional: true,
            ..SimConfig::default()
        };
        let r = simulate(&mut SliceSource::new(&recs), &mut spy, &cfg).unwrap();
        assert_eq!(spy.tracks, 1);
        assert!(r.metadata.track_only_conditional);
    }

    #[test]
    fn warmup_excludes_early_mispredictions() {
        // Each record advances 10 instructions; warm up past the first two.
        let recs = vec![
            cond(0x10, false, 9), // would mispredict, but in warm-up
            cond(0x10, false, 9),
            cond(0x10, false, 9), // measured
        ];
        let cfg = SimConfig {
            warmup_instructions: 20,
            ..SimConfig::default()
        };
        let mut spy = Spy::default();
        let r = simulate(&mut SliceSource::new(&recs), &mut spy, &cfg).unwrap();
        assert_eq!(spy.trains, 3, "training happens during warm-up too");
        assert_eq!(r.metrics.mispredictions, 1);
        assert_eq!(r.metadata.simulation_instr, 10);
        assert_eq!(r.metrics.mpki, 100.0);
    }

    #[test]
    fn max_instructions_stops_early() {
        let recs: Vec<_> = (0..100).map(|i| cond(0x10 + i, true, 9)).collect();
        let cfg = SimConfig {
            max_instructions: Some(50),
            ..SimConfig::default()
        };
        let mut spy = Spy::default();
        let r = simulate(&mut SliceSource::new(&recs), &mut spy, &cfg).unwrap();
        assert!(!r.metadata.exhausted_trace);
        assert_eq!(r.metadata.simulation_instr, 50);
        assert_eq!(spy.predicts, 5);
    }

    #[test]
    fn exhausted_flag_set_when_trace_ends() {
        let recs = vec![cond(0x10, true, 0)];
        let mut spy = Spy::default();
        let r = simulate(
            &mut SliceSource::new(&recs),
            &mut spy,
            &SimConfig::default(),
        )
        .unwrap();
        assert!(r.metadata.exhausted_trace);
    }

    #[test]
    fn predictor_sections_embedded() {
        let recs = vec![cond(0x10, true, 0)];
        let mut spy = Spy::default();
        let r = simulate(
            &mut SliceSource::new(&recs),
            &mut spy,
            &SimConfig::default(),
        )
        .unwrap();
        assert_eq!(r.metadata.predictor["name"], Value::from("spy"));
        assert_eq!(r.predictor_statistics["tracks"], Value::from(1));
    }

    #[test]
    fn most_failed_populated() {
        let recs = vec![
            cond(0x10, false, 0),
            cond(0x10, false, 0),
            cond(0x20, true, 0),
        ];
        let mut spy = Spy::default();
        let r = simulate(
            &mut SliceSource::new(&recs),
            &mut spy,
            &SimConfig::default(),
        )
        .unwrap();
        assert_eq!(r.metrics.num_most_failed_branches, 1);
        assert_eq!(r.most_failed[0].ip, 0x10);
        assert_eq!(r.most_failed[0].mispredictions, 2);
        assert_eq!(r.most_failed[0].occurrences, 2);
    }

    #[test]
    fn timeseries_and_probes_off_by_default() {
        let recs = vec![cond(0x10, true, 9)];
        let mut spy = Spy::default();
        let r = simulate(
            &mut SliceSource::new(&recs),
            &mut spy,
            &SimConfig::default(),
        )
        .unwrap();
        assert!(r.timeseries.is_none());
        assert!(r.table_probes.is_empty());
    }

    #[test]
    fn timeseries_buckets_the_run_and_includes_warmup() {
        // 6 records x 10 instructions, window 20 => 3 windows of 2 branches.
        let recs: Vec<_> = (0..6).map(|i| cond(0x10, i % 2 == 0, 9)).collect();
        let cfg = SimConfig {
            warmup_instructions: 20,
            timeseries_window: Some(20),
            ..SimConfig::default()
        };
        let mut spy = Spy::default();
        let r = simulate(&mut SliceSource::new(&recs), &mut spy, &cfg).unwrap();
        let ts = r.timeseries.expect("enabled");
        assert_eq!(ts.window_size, 20);
        assert_eq!(ts.windows.len(), 3);
        for w in &ts.windows {
            assert_eq!(w.instructions, 20);
            assert_eq!(w.conditional, 2, "warmup branches are in the series");
            assert_eq!(w.mispredictions, 1, "spy predicts taken");
            assert_eq!(w.unique_branches, 1);
        }
        // Aggregate metrics still exclude warmup.
        assert_eq!(r.metadata.simulation_instr, 40);
        assert_eq!(r.metrics.mispredictions, 2);
    }

    #[test]
    fn probes_collected_when_requested() {
        struct Probed;
        impl Predictor for Probed {
            fn predict(&mut self, _ip: u64) -> bool {
                true
            }
            fn train(&mut self, _b: &Branch) {}
            fn track(&mut self, _b: &Branch) {}
            fn table_probes(&self) -> Vec<crate::TableProbe> {
                vec![crate::TableProbe::new("t", 4)]
            }
        }
        let recs = vec![cond(0x10, true, 0)];
        let cfg = SimConfig {
            collect_probes: true,
            ..SimConfig::default()
        };
        let r = simulate(&mut SliceSource::new(&recs), &mut Probed, &cfg).unwrap();
        assert_eq!(r.table_probes.len(), 1);
        assert_eq!(r.table_probes[0].name, "t");
    }
}
