//! The benchmark's workloads, their oracle references, and the timed loop.
//!
//! Each workload is one closed loop on one thread of control: a run starts
//! only after the previous one finished (the sweeps use the library's two
//! workers inside each run). A pass runs every predictor of the workload
//! over every trace once; the timed phase repeats whole passes.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use cbp5_sim::{run_framework, run_framework_text, Cbp5Result, McbpAdapter};
use mbp_bench::PredictorFactory;
use mbp_compress::{decompress, DecompressReader};
use mbp_core::{
    simulate, simulate_many, simulate_sampled, simulate_scalar, PhasesDoc, Predictor, SimConfig,
    SimResult, SliceSource, SweepConfig, SweepResult, TraceError,
};
use mbp_trace::sbbt::SbbtReader;

use crate::oracle::{self, Fingerprint};
use crate::spans::{Open, PredCounters, SpanLog, TimedPredictor, TimedSource};
use crate::stats::median;
use crate::suite::TraceInput;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One fresh predictor per trace through `SbbtReader::from_bytes` and
    /// `simulate` with the default `SimConfig`, each run paired with
    /// `run_framework` on BT9+MGZ of the same trace.
    Table3,
    /// `simulate_many` with `jobs` = 2 under a warm-up window and an
    /// instruction cap shorter than the trace (§VII-A); each call is
    /// paired with CBP5 framework runs of all its predictors on the trace.
    Championship,
    /// `simulate_many` with `jobs` = 2 over a phase-sampling plan, paired
    /// with framework runs as for [`Kind::Championship`].
    Sampled,
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Indices into `mbp_bench::table3_predictors()`.
    pub predictors: &'static [usize],
}

/// The eight stock predictors in `table3_predictors()` order: the display
/// name each factory must carry, and the key of its per-layer metric.
pub const PREDICTORS: [(&str, &str); 8] = [
    ("Bimodal", "bimodal"),
    ("Two-Level", "two-level"),
    ("GShare", "gshare"),
    ("Tournament", "tournament"),
    ("2bc-gskew", "gskew"),
    ("Hashed Perc", "perceptron"),
    ("TAGE", "tage"),
    ("BATAGE", "batage"),
];

const ALL_EIGHT: &[usize] = &[0, 1, 2, 3, 4, 5, 6, 7];

// Each `Moves` note names the layer metrics a change to that layer should
// move on the workload and, after the arrow, the throughput figures they
// feed: absolute `sim_minstr_per_s`/`run_ns_per_instr_*` (traced run) and
// the host-independent `cbp5_speedup`/`run_speedup_*` (end to end).
pub const WORKLOADS: [Workload; 4] = [
    // Why: simulator overhead dominates simple predictors (Table III's
    // 18.4× for bimodal). A GShare pass splits into MZST inflate, SBBT
    // decode, `predict_batch` kernel and the simulator's bookkeeping in
    // comparable parts, so gains in `compress`, `trace` and `core` show here.
    // Moves: compress.inflate_ns_per_instr/inflate_share, trace.decode_*,
    // trace.batches, predictors.{bimodal,two-level,gshare}.ns_per_branch,
    // core.driver_self_ns_per_record/driver_share -> sim_minstr_per_s,
    // run_ns_per_instr_*, cbp5_speedup, run_speedup_*.
    Workload {
        name: "table3-simple",
        kind: Kind::Table3,
        predictors: &[0, 1, 2],
    },
    // Why: the predictor layer is most of each run (TAGE spends nearly all
    // of its run inside `predict_batch`'s default loop), so predictor work
    // shows here and inflate/decode/bookkeeping gains are diluted.
    // Moves: predictors.{perceptron,tage,batage}.ns_per_branch and
    // predictors.share -> sim_minstr_per_s, run_ns_per_instr_*,
    // cbp5_speedup, run_speedup_* (diluted: the framework runs the same
    // predictor code).
    Workload {
        name: "table3-hard",
        kind: Kind::Table3,
        predictors: &[5, 6, 7],
    },
    // Why: the instruction cap pins every record to `simulate`'s
    // per-record fallback loop (`predict`/`train`/`track`, never
    // `predict_batch`), so a fast-path gain that slows the fallback shows
    // here; sweep scheduling matters because TAGE and BATAGE dominate the
    // cumulative time of the two workers.
    // Moves: predictors.*.ns_per_branch (fallback), core.driver_*,
    // compress.*, trace.*, json.*, core.sweep.decode_s/parallel_speedup/
    // worker_idle_share -> sim_minstr_per_s, run_ns_per_instr_*, and,
    // since the whole call's wall time is set against the framework's
    // single-threaded runs of the same predictors, cbp5_speedup,
    // run_speedup_*.
    Workload {
        name: "sweep-championship",
        kind: Kind::Championship,
        predictors: ALL_EIGHT,
    },
    // Why: the only workload that runs `core::simpoint` slice replay, the
    // path a unification of the record loops rewrites; it trades accuracy
    // for speed.
    // Moves: core.simpoint.replay_ns_per_record,
    // core.simpoint.simulated_fraction, core.sweep.* -> sim_minstr_per_s,
    // run_ns_per_instr_*, cbp5_speedup, run_speedup_*;
    // sampled_mpki_rel_error (per layer: deterministic for a seed) shows
    // what the speed costs.
    Workload {
        name: "sweep-sampled",
        kind: Kind::Sampled,
        predictors: ALL_EIGHT,
    },
];

/// Worker threads of every sweep: the benchmark keeps to two cores.
const SWEEP_JOBS: usize = 2;
/// Fewest untraced passes whose median is reported.
const MIN_PASSES: usize = 3;
/// Fewest traced and untraced passes of a traced run.
const MIN_TRACED_PASSES: usize = 2;
/// Fewest runs behind the run percentiles (a p10 or p90 tail needs 100).
const MIN_RUN_SAMPLES: usize = 100;
/// A run stops adding passes after this long, whatever else holds.
const HARD_LIMIT_S: f64 = 120.0;

/// The championship window for a trace of `instructions`: warm-up, then
/// a cap shorter than the trace.
fn championship_config(instructions: u64) -> SimConfig {
    SimConfig {
        warmup_instructions: instructions / 5,
        max_instructions: Some(instructions * 3 / 4),
        ..SimConfig::default()
    }
}

/// The `simulate_many` configuration of a sweep workload on one trace.
pub fn sweep_config(kind: Kind, instructions: u64, phases: Option<PhasesDoc>) -> SweepConfig {
    SweepConfig {
        sim: if kind == Kind::Championship {
            championship_config(instructions)
        } else {
            SimConfig::default()
        },
        jobs: SWEEP_JOBS,
        phases,
        ..SweepConfig::default()
    }
}

/// One untraced MBPlib run as a user makes it: open SBBT+MZST, simulate
/// with the default `SimConfig`, render the JSON result.
pub fn single_run(
    bytes: Vec<u8>,
    predictor: &mut Box<dyn Predictor + Send>,
) -> Result<SimResult, TraceError> {
    SbbtReader::from_bytes(bytes)
        .and_then(|mut reader| simulate(&mut reader, predictor, &SimConfig::default()))
        .inspect(|r| {
            black_box(r.to_json().to_string());
        })
}

/// One untraced `simulate_many` call over SBBT+MZST, rendering its
/// leaderboard.
pub fn sweep_call(
    bytes: Vec<u8>,
    predictors: Vec<(String, Box<dyn Predictor + Send>)>,
    config: &SweepConfig,
) -> Result<SweepResult, TraceError> {
    SbbtReader::from_bytes(bytes)
        .and_then(|mut reader| simulate_many(&mut reader, predictors, config))
        .inspect(|r| {
            black_box(r.to_json().to_string());
        })
}

/// Instructions `simulate` processes before the cap stops it: records are
/// consumed while the running count is below `max`.
fn capped_instructions(tr: &TraceInput, max: u64) -> u64 {
    let mut n = 0u64;
    for r in &tr.records {
        if n >= max {
            break;
        }
        n += r.instructions();
    }
    n
}

/// Oracle references of one predictor on one trace, computed by paths
/// independent of the one measured.
pub struct Reference {
    /// What the workload's own result must be: table3 — `simulate_scalar`
    /// over the records; championship — `simulate_scalar` under the same
    /// window; sampled — single-predictor `simulate_sampled` on the same
    /// plan.
    pub expected: Fingerprint,
    /// `simulate_scalar` over the whole trace with the default `SimConfig`,
    /// which every CBP5 framework run must match (§VII-C).
    pub full: Fingerprint,
    /// Sampled only: (full-run MPKI, sampled MPKI).
    pub mpki: (f64, f64),
}

/// Oracle references, computed once per run before the timed phase.
pub struct References {
    /// `[trace][slot]`.
    pub runs: Vec<Vec<Reference>>,
    /// Per trace, the instructions one predictor's result stands for: the
    /// capped window for championship, the whole trace otherwise.
    pub represented: Vec<u64>,
}

fn trace_references(w: &Workload, tr: &TraceInput) -> Vec<Reference> {
    let scalar = |make: &PredictorFactory, config: &SimConfig| {
        let mut predictor = make();
        let mut source = SliceSource::new(&tr.records);
        let r = simulate_scalar(&mut source, &mut predictor, config)
            .expect("in-memory simulation cannot fail");
        (Fingerprint::of(&r), r.metrics.mpki)
    };
    w.predictors
        .iter()
        .map(|&p| {
            let make = mbp_bench::table3_predictors().swap_remove(p).1;
            let (full, full_mpki) = scalar(&make, &SimConfig::default());
            match w.kind {
                Kind::Table3 => Reference {
                    expected: full.clone(),
                    full,
                    mpki: (0.0, 0.0),
                },
                Kind::Championship => Reference {
                    expected: scalar(&make, &championship_config(tr.instructions)).0,
                    full,
                    mpki: (0.0, 0.0),
                },
                Kind::Sampled => {
                    let phases = tr.phases.as_ref().expect("sampled set-up builds plans");
                    let sampled =
                        simulate_sampled(&tr.records, &mut make(), phases, &SimConfig::default());
                    Reference {
                        expected: Fingerprint::of(&sampled),
                        full,
                        mpki: (full_mpki, sampled.metrics.mpki),
                    }
                }
            }
        })
        .collect()
}

/// Every trace's references, serially: about two seconds for the
/// heaviest workload, against runs of twenty.
pub fn references(w: &Workload, traces: &[TraceInput]) -> References {
    References {
        runs: traces.iter().map(|tr| trace_references(w, tr)).collect(),
        represented: traces
            .iter()
            .map(|tr| match w.kind {
                Kind::Championship => capped_instructions(
                    tr,
                    championship_config(tr.instructions)
                        .max_instructions
                        .expect("the championship window is capped"),
                ),
                Kind::Table3 | Kind::Sampled => tr.instructions,
            })
            .collect(),
    }
}

/// Mean of |sampled − full| / full MPKI over every predictor and trace.
pub fn sampled_mpki_rel_error(refs: &References) -> f64 {
    let errors: Vec<f64> = refs
        .runs
        .iter()
        .flatten()
        .map(|r| r.mpki)
        .filter(|(full, _)| *full > 0.0)
        .map(|(full, sampled)| (sampled - full).abs() / full)
        .collect();
    errors.iter().sum::<f64>() / errors.len().max(1) as f64
}

/// Oracle outcomes: one attempt per single-predictor result.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("perfbench: oracle mismatch: {what}: {e}");
        }
    }
}

/// Per-layer accumulators, filled by traced passes only.
#[derive(Default)]
pub struct Layers {
    pub passes: u64,
    /// Table3: the MBPlib run spans. Sweeps: the whole sweep-call spans.
    pub wall_ns: f64,
    /// Instructions of the traces the traced MBPlib runs or sweeps opened.
    pub instructions: f64,
    pub inflate_ns: f64,
    pub open_ns: f64,
    /// Table3: `simulate` spans. Sweeps: `simulate_many` spans.
    pub simulate_ns: f64,
    pub emit_ns: f64,
    pub results: f64,
    /// `fill_batch` spans and their records and batches.
    pub decode_ns: f64,
    pub records: f64,
    pub batches: f64,
    pub sweep_decode_s: f64,
    pub sweep_wall_s: f64,
    pub cumulative_sim_s: f64,
    pub worker_capacity_s: f64,
    pub replay_records: f64,
    pub simulated_instr: f64,
    pub represented_instr: f64,
    pub cbp5_inflate_ns: f64,
    pub cbp5_parse_ns: f64,
    pub cbp5_instr: f64,
}

/// End-to-end accumulators, filled by untraced passes (throughput also by
/// traced ones, for the tracing overhead).
#[derive(Default)]
pub struct EndToEnd {
    pub pass_minstr: Vec<f64>,
    pub traced_pass_minstr: Vec<f64>,
    /// CBP5 framework time over MBPlib time for the same runs, per
    /// untraced pass (the Table III "Average" ratio).
    pub pass_cbp5_speedup: Vec<f64>,
    /// Per run, ns per instruction its results stand for. A run is one
    /// single-predictor run (table3) or one `simulate_many` call, whose
    /// eight entries are one result for the user (sweeps).
    pub run_ns_per_instr: Vec<f64>,
    /// Per run, the paired CBP5 framework time over the MBPlib time for
    /// the same instructions: a table3 run against its pairing; a sweep
    /// call's wall time against its predictors' framework runs.
    pub run_speedup: Vec<f64>,
}

pub struct Runner<'a> {
    w: &'static Workload,
    traces: &'a [TraceInput],
    refs: &'a References,
    factories: Vec<PredictorFactory>,
    pub log: Arc<SpanLog>,
    /// Per stock predictor, shared by every traced instance of it.
    pub counters: Vec<Arc<PredCounters>>,
    pub tally: Tally,
    pub e2e: EndToEnd,
    pub layers: Layers,
}

impl<'a> Runner<'a> {
    pub fn new(w: &'static Workload, traces: &'a [TraceInput], refs: &'a References) -> Self {
        Self {
            w,
            traces,
            refs,
            factories: mbp_bench::table3_predictors()
                .into_iter()
                .map(|(_, f)| f)
                .collect(),
            log: Arc::new(SpanLog::new()),
            counters: (0..PREDICTORS.len()).map(|_| Arc::default()).collect(),
            tally: Tally::default(),
            e2e: EndToEnd::default(),
            layers: Layers::default(),
        }
    }

    /// The timed phase: whole passes until `seconds` have elapsed and
    /// enough passes and runs exist for medians and the tail percentile.
    /// With `trace_mode`, untraced and traced passes alternate.
    pub fn run(&mut self, seconds: f64, trace_mode: bool) {
        let start = Instant::now();
        for pass in 0.. {
            let traced = trace_mode && pass % 2 == 1;
            let minstr = match self.w.kind {
                Kind::Table3 => self.table3_pass(traced),
                Kind::Championship | Kind::Sampled => self.sweep_pass(traced),
            };
            if traced {
                self.layers.passes += 1;
                self.e2e.traced_pass_minstr.push(minstr);
            } else {
                self.e2e.pass_minstr.push(minstr);
            }
            let elapsed = start.elapsed().as_secs_f64();
            let enough = if trace_mode {
                self.e2e.pass_minstr.len() >= MIN_TRACED_PASSES
                    && self.e2e.traced_pass_minstr.len() >= MIN_TRACED_PASSES
            } else {
                self.e2e.pass_minstr.len() >= MIN_PASSES
                    && self.e2e.run_speedup.len() >= MIN_RUN_SAMPLES
            };
            if (elapsed >= seconds && enough) || elapsed >= HARD_LIMIT_S {
                break;
            }
        }
    }

    fn predictor(&self, p: usize) -> Box<dyn Predictor + Send> {
        (self.factories[p])()
    }

    /// Instructions a sweep entry's predictor processed: its capped window,
    /// or for a sampled entry the measured slices plus their warm-up replay.
    fn simulated(&self, result: &SimResult, per_predictor: u64) -> u64 {
        match self.w.kind {
            Kind::Sampled => result.metadata.simulation_instr + result.metadata.warmup_instr,
            _ => per_predictor,
        }
    }

    /// Traced `SbbtReader::from_bytes`: inflate and open timed apart.
    fn traced_open(
        &mut self,
        bytes: &[u8],
        parent: u32,
        instructions: u64,
    ) -> Result<SbbtReader, TraceError> {
        let log = Arc::clone(&self.log);
        let span = log.open("compress.inflate", parent);
        let raw = decompress(bytes);
        self.layers.inflate_ns += log.close(span, instructions) as f64;
        let span = log.open("trace.open", parent);
        let reader = raw
            .map_err(TraceError::from)
            .and_then(SbbtReader::from_decompressed);
        self.layers.open_ns += log.close(span, 0) as f64;
        reader
    }

    /// Accounts one traced library call that decoded through `source`.
    fn traced_call<S>(&mut self, span: Open, source: &TimedSource<'_, S>) {
        self.layers.simulate_ns += self.log.close(span, source.records) as f64;
        self.layers.decode_ns += source.decode_ns as f64;
        self.layers.records += source.records as f64;
        self.layers.batches += source.batches as f64;
    }

    /// Traced JSON emission of a document holding `results` results.
    fn traced_emit(&mut self, parent: u32, results: usize, render: impl FnOnce() -> String) {
        let span = self.log.open("json.emit", parent);
        black_box(render());
        self.layers.emit_ns += self.log.close(span, results as u64) as f64;
        self.layers.results += results as f64;
    }

    /// Closes a traced run's root span and returns its nanoseconds.
    fn traced_root(&mut self, root: Open, instructions: u64) -> f64 {
        let ns = self.log.close(root, instructions) as f64;
        self.layers.wall_ns += ns;
        self.layers.instructions += instructions as f64;
        ns
    }

    /// One MBPlib run: open SBBT+MZST, simulate, emit the JSON result.
    /// Returns the run's nanoseconds; the predictor is built outside them.
    fn mbplib_run(
        &mut self,
        p: usize,
        tr: &TraceInput,
        traced: bool,
    ) -> (f64, Result<SimResult, TraceError>) {
        let bytes = tr.sbbt_mzst.clone();
        let mut predictor = self.predictor(p);
        if !traced {
            let start = Instant::now();
            let result = single_run(bytes, &mut predictor);
            return (start.elapsed().as_nanos() as f64, result);
        }
        let log = Arc::clone(&self.log);
        let root = log.open("mbplib.run", 0);
        let result = self
            .traced_open(&bytes, root.id, tr.instructions)
            .and_then(|reader| {
                let span = log.open("core.simulate", root.id);
                let mut source = TimedSource::new(reader, &log, span.id);
                let counters = Arc::clone(&self.counters[p]);
                let mut predictor =
                    TimedPredictor::new(predictor, counters, Some((Arc::clone(&log), span.id)));
                let result = simulate(&mut source, &mut predictor, &SimConfig::default());
                self.traced_call(span, &source);
                result
            });
        if let Ok(r) = &result {
            self.traced_emit(root.id, 1, || r.to_json().to_string());
        }
        (self.traced_root(root, tr.instructions), result)
    }

    /// One CBP5 framework run over BT9+MGZ, emitting its result document.
    /// Traced, the framework's inflate and parse+simulate are timed apart
    /// (`DecompressReader`, then `run_framework_text`), which is what
    /// `run_framework` does in one call.
    fn cbp5_run(
        &mut self,
        p: usize,
        tr: &TraceInput,
        traced: bool,
    ) -> (f64, Result<Cbp5Result, String>) {
        let mut predictor = McbpAdapter::new(self.predictor(p));
        if !traced {
            let start = Instant::now();
            let result = run_framework(&tr.bt9_mgz[..], &mut predictor).inspect(|r| {
                black_box(r.to_json().to_string());
            });
            return (
                start.elapsed().as_nanos() as f64,
                result.map_err(|e| e.to_string()),
            );
        }
        let log = Arc::clone(&self.log);
        let root = log.open("cbp5.run", 0);
        let span = log.open("cbp5.inflate", root.id);
        let text =
            DecompressReader::from_bytes(tr.bt9_mgz.clone()).map(DecompressReader::into_bytes);
        self.layers.cbp5_inflate_ns += log.close(span, tr.instructions) as f64;
        let span = log.open("cbp5.parse_sim", root.id);
        let result = match text {
            Ok(bytes) => String::from_utf8(bytes)
                .map_err(|_| "BT9 text is not UTF-8".to_string())
                .and_then(|text| {
                    run_framework_text(&text, &mut predictor).map_err(|e| e.to_string())
                }),
            Err(e) => Err(e.to_string()),
        };
        self.layers.cbp5_parse_ns += log.close(span, tr.instructions) as f64;
        self.layers.cbp5_instr += tr.instructions as f64;
        if let Ok(r) = &result {
            black_box(r.to_json().to_string());
        }
        (log.close(root, tr.instructions) as f64, result)
    }

    /// Every predictor of the workload over every trace, each MBPlib run
    /// paired with a CBP5 framework run (alternating which goes first).
    /// Returns the pass's MBPlib Minstr/s.
    fn table3_pass(&mut self, traced: bool) -> f64 {
        let traces = self.traces;
        let (mut instr, mut mbp_ns, mut cbp5_ns) = (0.0, 0.0, 0.0);
        for (slot, &p) in self.w.predictors.iter().enumerate() {
            for (t, tr) in traces.iter().enumerate() {
                let framework_first = (slot * traces.len() + t) % 2 == 1;
                let early = framework_first.then(|| self.cbp5_run(p, tr, traced));
                let (ns, result) = self.mbplib_run(p, tr, traced);
                let (fw_ns, framework) = match early {
                    Some(run) => run,
                    None => self.cbp5_run(p, tr, traced),
                };
                let what = format!("{} on {}", PREDICTORS[p].0, tr.name);
                let reference = &self.refs.runs[t][slot];
                let outcome = match (&result, &framework) {
                    (Ok(r), Ok(fw)) => oracle::check(&Fingerprint::of(r), &reference.expected)
                        .and_then(|()| oracle::check_framework(fw, &reference.full)),
                    (Err(e), _) => Err(format!("MBPlib run failed: {e}")),
                    (_, Err(e)) => Err(format!("CBP5 framework run failed: {e}")),
                };
                self.tally.record(&what, outcome);
                instr += tr.instructions as f64;
                mbp_ns += ns;
                cbp5_ns += fw_ns;
                if !traced {
                    self.e2e.run_ns_per_instr.push(ns / tr.instructions as f64);
                    self.e2e.run_speedup.push(fw_ns / ns);
                }
            }
        }
        if !traced {
            self.e2e.pass_cbp5_speedup.push(cbp5_ns / mbp_ns);
        }
        instr * 1e3 / mbp_ns
    }

    /// One `simulate_many` call per trace. Returns the pass's Minstr/s:
    /// instructions every predictor's result stands for, over the calls'
    /// wall time.
    ///
    /// Each call is paired with a CBP5 framework run of every predictor of
    /// the workload over the same trace, one after the other on one thread
    /// (alternating whether the call or the framework goes first). A run's
    /// Table III ratio is the framework's total time, scaled to the
    /// instructions each sweep entry stands for (the framework has no
    /// window, so it simulates the whole trace), over the wall time of the
    /// whole sweep call: inflate, the single decode, scheduling on the two
    /// workers and JSON emission all fall inside it.
    fn sweep_pass(&mut self, traced: bool) -> f64 {
        let traces = self.traces;
        let (mut represented, mut wall_ns, mut framework_ns) = (0.0, 0.0, 0.0);
        for (t, tr) in traces.iter().enumerate() {
            let config = sweep_config(self.w.kind, tr.instructions, tr.phases.clone());
            let per_predictor = self.refs.represented[t];
            let predictors: Vec<(String, Box<dyn Predictor + Send>)> = self
                .w
                .predictors
                .iter()
                .map(|&p| {
                    let inner = self.predictor(p);
                    let boxed: Box<dyn Predictor + Send> = if traced {
                        Box::new(TimedPredictor::new(
                            inner,
                            Arc::clone(&self.counters[p]),
                            None,
                        ))
                    } else {
                        inner
                    };
                    (PREDICTORS[p].0.to_string(), boxed)
                })
                .collect();
            let framework_first = t % 2 == 1;
            let early = framework_first.then(|| self.sweep_framework_runs(t, tr, traced));
            let (ns, result) = self.sweep_run(tr, predictors, &config, traced);
            let fw_ns = early.unwrap_or_else(|| self.sweep_framework_runs(t, tr, traced));
            let call_instr = (per_predictor * self.w.predictors.len() as u64) as f64;
            let call_fw_ns = fw_ns * per_predictor as f64 / tr.instructions as f64;
            wall_ns += ns;
            represented += call_instr;
            framework_ns += call_fw_ns;
            if !traced {
                self.e2e.run_ns_per_instr.push(ns / call_instr);
                self.e2e.run_speedup.push(call_fw_ns / ns);
            }
            let sweep = match result {
                Ok(sweep) => sweep,
                Err(e) => {
                    self.tally.attempted += self.w.predictors.len() as u64;
                    self.tally.failed += self.w.predictors.len() as u64;
                    eprintln!("perfbench: sweep over {} failed: {e}", tr.name);
                    continue;
                }
            };
            for f in &sweep.failures {
                self.tally.record(
                    &format!("{} on {}", f.name, tr.name),
                    Err(f.message.clone()),
                );
            }
            for e in &sweep.entries {
                let Some(slot) = self
                    .w
                    .predictors
                    .iter()
                    .position(|&p| PREDICTORS[p].0 == e.name)
                else {
                    self.tally
                        .record(&e.name, Err("unknown predictor in sweep".into()));
                    continue;
                };
                let what = format!("{} on {}", e.name, tr.name);
                self.tally.record(
                    &what,
                    oracle::check(
                        &Fingerprint::of(&e.result),
                        &self.refs.runs[t][slot].expected,
                    ),
                );
                if traced {
                    self.layers.simulated_instr += self.simulated(&e.result, per_predictor) as f64;
                    self.layers.represented_instr += per_predictor as f64;
                    if let Some(phases) = &tr.phases {
                        self.layers.replay_records += phases
                            .phases
                            .iter()
                            .map(|ph| (ph.num_records + ph.warmup_records) as f64)
                            .sum::<f64>();
                    }
                }
            }
            if traced {
                self.layers.sweep_decode_s += sweep.decode_time;
                self.layers.sweep_wall_s += sweep.wall_time;
                self.layers.cumulative_sim_s += sweep.cumulative_sim_time;
                self.layers.worker_capacity_s += sweep.wall_time * sweep.workers_used as f64;
            }
        }
        if !traced {
            self.e2e.pass_cbp5_speedup.push(framework_ns / wall_ns);
        }
        represented * 1e3 / wall_ns
    }

    /// The CBP5 framework runs paired with one sweep call: every predictor
    /// of the workload over trace `t`, each checked against the full-trace
    /// reference. Returns their total nanoseconds.
    fn sweep_framework_runs(&mut self, t: usize, tr: &TraceInput, traced: bool) -> f64 {
        let mut total_ns = 0.0;
        for (slot, &p) in self.w.predictors.iter().enumerate() {
            let (ns, framework) = self.cbp5_run(p, tr, traced);
            total_ns += ns;
            let what = format!("CBP5 framework {} on {}", PREDICTORS[p].0, tr.name);
            let outcome = framework
                .and_then(|fw| oracle::check_framework(&fw, &self.refs.runs[t][slot].full));
            self.tally.record(&what, outcome);
        }
        total_ns
    }

    /// One `simulate_many` call over SBBT+MZST, emitting its leaderboard.
    fn sweep_run(
        &mut self,
        tr: &TraceInput,
        predictors: Vec<(String, Box<dyn Predictor + Send>)>,
        config: &SweepConfig,
        traced: bool,
    ) -> (f64, Result<SweepResult, TraceError>) {
        let bytes = tr.sbbt_mzst.clone();
        if !traced {
            let start = Instant::now();
            let result = sweep_call(bytes, predictors, config);
            return (start.elapsed().as_nanos() as f64, result);
        }
        let log = Arc::clone(&self.log);
        let root = log.open("sweep.run", 0);
        let result = self
            .traced_open(&bytes, root.id, tr.instructions)
            .and_then(|reader| {
                let span = log.open("core.sweep", root.id);
                let mut source = TimedSource::new(reader, &log, span.id);
                let result = simulate_many(&mut source, predictors, config);
                self.traced_call(span, &source);
                result
            });
        if let Ok(r) = &result {
            self.traced_emit(root.id, r.entries.len(), || r.to_json().to_string());
        }
        (self.traced_root(root, tr.instructions), result)
    }
}

/// The median of a non-empty sample, or 0 for an empty one.
pub fn median_or_zero(values: &[f64]) -> f64 {
    median(values).unwrap_or(0.0)
}
