//! Layered benchmark of the MBPlib simulator.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans-out <file>]
//! ```
//!
//! (`--memory-probe 1` is the child side of the `peak_rss_mb` measurement.)
//!
//! Set-up generates a CBP5-training-like suite from `--seed` and encodes
//! it (repeated [`SETUP_REPS`] times; the median, in seconds of the
//! reference host, is `setup_s`), then the oracle references are computed
//! by independent paths, then the timed phase repeats whole passes of the
//! workload for at least `--seconds`. `peak_rss_mb` comes from child
//! processes that each make one run's calls on one trace (see [`memory`]).
//! Every single-predictor result of every pass goes through the exact
//! output oracle. The last line of standard output is one JSON object:
//! with `--trace 0` the end-to-end metrics of untraced passes (timings as
//! ratios to the CBP5 framework runs paired with them), with `--trace 1`
//! the per-layer metrics of traced passes and the absolute throughput of
//! the untraced passes alternated with them (their gap is
//! `tracing.overhead_pct`).

mod memory;
mod oracle;
mod spans;
mod stats;
mod suite;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;

use suite::{SetupTimes, TraceInput};
use workloads::{median_or_zero, Kind, Runner, Workload, PREDICTORS, WORKLOADS};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<String>,
    /// Child mode of the `peak_rss_mb` measurement.
    memory_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut spans_out = None;
    let mut memory_probe = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--spans-out" => spans_out = Some(value),
            "--memory-probe" => {
                memory_probe = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--memory-probe takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        spans_out,
        memory_probe,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median of each set-up layer across the repetitions.
fn setup_medians(reps: &[SetupTimes]) -> (SetupTimes, f64) {
    let pick = |f: fn(&SetupTimes) -> f64| median_or_zero(&reps.iter().map(f).collect::<Vec<_>>());
    (
        SetupTimes {
            generate_s: pick(|t| t.generate_s),
            encode_s: pick(|t| t.encode_s),
            compress_s: pick(|t| t.compress_s),
            extract_s: pick(|t| t.extract_s),
        },
        pick(SetupTimes::total),
    )
}

/// Builds the suite [`SETUP_REPS`] times, each replacing the previous one
/// so only one suite is alive at a time. Returns the last suite, whether
/// every repetition built identical inputs, and each repetition's layer
/// times in seconds of the reference host: the measured time scaled by
/// the calibration work timed on both sides of it, so the host's speed at
/// that moment cancels out.
fn timed_setups(seed: u64, with_phases: bool) -> (Vec<TraceInput>, bool, Vec<SetupTimes>) {
    let mut reps = Vec::with_capacity(SETUP_REPS);
    let mut digests = Vec::with_capacity(SETUP_REPS);
    let mut traces = Vec::new();
    let mut before = suite::calibration_s();
    for _ in 0..SETUP_REPS {
        drop(std::mem::take(&mut traces));
        let (built, times) = suite::build(seed, with_phases);
        let after = suite::calibration_s();
        reps.push(times.scaled(2.0 * suite::CALIBRATION_REFERENCE_S / (before + after)));
        eprintln!(
            "perfbench: set-up {:.3} s measured, calibration {:.4} s / {:.4} s",
            times.total(),
            before,
            after
        );
        before = after;
        digests.push(suite::digest(&built));
        traces = built;
    }
    let deterministic = digests.iter().all(|d| *d == digests[0]);
    (traces, deterministic, reps)
}

/// The median of per-run samples and the highest (`upper`) or lowest
/// percentile that keeps ten samples beyond it, with that percentile.
fn run_percentiles(runs: &[f64], upper: bool) -> (f64, f64, f64) {
    let tail = stats::tail_percentile(runs.len());
    let tail = if upper { tail } else { 100.0 - tail };
    let q = |p: f64| stats::quantile(runs, p / 100.0).unwrap_or(0.0);
    (q(50.0), q(tail), tail)
}

/// Sample counts and the percentiles actually taken, printed on stderr.
fn sample_note(runner: &Runner) -> String {
    let e = &runner.e2e;
    let (_, speedup_tail, lower) = run_percentiles(&e.run_speedup, false);
    let (_, ns_tail, upper) = run_percentiles(&e.run_ns_per_instr, true);
    format!(
        "{} untraced passes, {} traced; {} runs: run_speedup p{lower} {speedup_tail:.3} \
         (reported as run_speedup_p10), run_ns_per_instr p{upper} {ns_tail:.3} \
         (reported as run_ns_per_instr_p90)",
        e.pass_minstr.len(),
        e.traced_pass_minstr.len(),
        e.run_speedup.len(),
    )
}

/// The end-to-end metrics. Every timing is a ratio to the CBP5 framework
/// run paired with it, measured moments apart on the same host, so the
/// host's speed cancels out; absolute throughput is per layer.
fn end_to_end(runner: &Runner, setup_s: f64, peak_rss_mb: f64) -> Vec<Metric> {
    let (p50, p10, _) = run_percentiles(&runner.e2e.run_speedup, false);
    vec![
        metric(
            "cbp5_speedup",
            median_or_zero(&runner.e2e.pass_cbp5_speedup),
            "x",
        ),
        metric("run_speedup_p50", p50, "x"),
        metric("run_speedup_p10", p10, "x"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
    ]
}

fn per_layer(runner: &Runner, kind: Kind, setup: &SetupTimes, sampled_error: f64) -> Vec<Metric> {
    let l = &runner.layers;
    let pred_ns: f64 = runner.counters.iter().map(|c| c.estimated_ns()).sum();
    let pred_branches: f64 = runner.counters.iter().map(|c| c.branches() as f64).sum();
    // Time along the run's layers: the MBPlib run spans for single runs;
    // for sweeps, the main thread's layers plus both workers' simulation.
    let (busy_ns, core_self_ns) = match kind {
        Kind::Table3 => (l.wall_ns, l.simulate_ns - l.decode_ns - pred_ns),
        Kind::Championship | Kind::Sampled => {
            let sim_ns = l.cumulative_sim_s * 1e9;
            (
                l.inflate_ns + l.open_ns + l.decode_ns + sim_ns + l.emit_ns,
                sim_ns - pred_ns,
            )
        }
    };
    let untraced = median_or_zero(&runner.e2e.pass_minstr);
    let traced = median_or_zero(&runner.e2e.traced_pass_minstr);
    let (ns_p50, ns_p90, _) = run_percentiles(&runner.e2e.run_ns_per_instr, true);
    let mut out = vec![
        metric("sim_minstr_per_s", untraced, "Minstr/s"),
        metric("run_ns_per_instr_p50", ns_p50, "ns"),
        metric("run_ns_per_instr_p90", ns_p90, "ns"),
        metric(
            "compress.inflate_ns_per_instr",
            ratio(l.inflate_ns, l.instructions),
            "ns",
        ),
        metric(
            "compress.inflate_share",
            ratio(l.inflate_ns, busy_ns),
            "ratio",
        ),
        metric(
            "trace.decode_ns_per_record",
            ratio(l.decode_ns, l.records),
            "ns",
        ),
        metric("trace.decode_share", ratio(l.decode_ns, busy_ns), "ratio"),
        metric("trace.batches", ratio(l.batches, l.passes as f64), "count"),
    ];
    for (i, (_, key)) in PREDICTORS.iter().enumerate() {
        let c = &runner.counters[i];
        out.push(metric(
            format!("predictors.{key}.ns_per_branch"),
            ratio(c.estimated_ns(), c.branches() as f64),
            "ns",
        ));
    }
    out.extend([
        metric("predictors.share", ratio(pred_ns, busy_ns), "ratio"),
        metric(
            "core.driver_self_ns_per_record",
            ratio(core_self_ns, pred_branches),
            "ns",
        ),
        metric("core.driver_share", ratio(core_self_ns, busy_ns), "ratio"),
        metric(
            "core.sweep.decode_s",
            ratio(l.sweep_decode_s, l.passes as f64),
            "s",
        ),
        metric(
            "core.sweep.parallel_speedup",
            ratio(l.cumulative_sim_s, l.sweep_wall_s),
            "x",
        ),
        metric(
            "core.sweep.worker_idle_share",
            if l.worker_capacity_s > 0.0 {
                1.0 - l.cumulative_sim_s / l.worker_capacity_s
            } else {
                0.0
            },
            "ratio",
        ),
        metric(
            "core.simpoint.replay_ns_per_record",
            if kind == Kind::Sampled {
                ratio(l.cumulative_sim_s * 1e9, l.replay_records)
            } else {
                0.0
            },
            "ns",
        ),
        metric(
            "core.simpoint.simulated_fraction",
            if kind == Kind::Sampled {
                ratio(l.simulated_instr, l.represented_instr)
            } else {
                0.0
            },
            "ratio",
        ),
        metric("sampled_mpki_rel_error", sampled_error, "ratio"),
        metric("json.emit_ns_per_result", ratio(l.emit_ns, l.results), "ns"),
        metric(
            "cbp5.inflate_ns_per_instr",
            ratio(l.cbp5_inflate_ns, l.cbp5_instr),
            "ns",
        ),
        metric(
            "cbp5.parse_sim_ns_per_instr",
            ratio(l.cbp5_parse_ns, l.cbp5_instr),
            "ns",
        ),
        metric("workloads.generate_s", setup.generate_s, "s"),
        metric("trace.encode_s", setup.encode_s, "s"),
        metric("compress.compress_s", setup.compress_s, "s"),
        metric("core.simpoint.extract_s", setup.extract_s, "s"),
        metric(
            "tracing.overhead_pct",
            ratio(untraced - traced, untraced) * 100.0,
            "%",
        ),
        metric(
            "tracing.unaccounted_pct",
            ratio(
                l.wall_ns - l.inflate_ns - l.open_ns - l.simulate_ns - l.emit_ns,
                l.wall_ns,
            ) * 100.0,
            "%",
        ),
    ]);
    out
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        // JSON has no NaN or infinity; a degenerate ratio reads as 0.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = mbp_bench::table3_predictors()
        .iter()
        .map(|(n, _)| *n)
        .collect();
    if names != PREDICTORS.map(|(n, _)| n) {
        eprintln!("perfbench: table3_predictors() no longer lists {PREDICTORS:?}");
        return ExitCode::from(1);
    }
    let w = args.workload;
    if args.memory_probe {
        return match memory::probe(w) {
            Ok(mb) => {
                println!("{mb}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: memory probe: {e}");
                ExitCode::from(1)
            }
        };
    }

    let (mut traces, deterministic, setups) = timed_setups(args.seed, w.kind == Kind::Sampled);
    if !deterministic {
        eprintln!(
            "perfbench: set-up is not deterministic for seed {}",
            args.seed
        );
    }
    let (setup, setup_s) = setup_medians(&setups);

    let refs_start = std::time::Instant::now();
    let refs = workloads::references(w, &traces);
    eprintln!(
        "perfbench: oracle references computed in {:.2} s",
        refs_start.elapsed().as_secs_f64()
    );
    // The reference with the longest most_failed list, so the self-test
    // can perturb an entry (a trivially predictable trace has none).
    let self_test = refs
        .runs
        .iter()
        .flatten()
        .max_by_key(|r| r.expected.most_failed.len())
        .map_or(Err("no oracle reference".to_string()), |r| {
            oracle::self_test(&r.expected, &r.full)
        });
    if let Err(e) = &self_test {
        eprintln!("perfbench: oracle self-test failed: {e}");
    }
    let sampled_error = if w.kind == Kind::Sampled {
        workloads::sampled_mpki_rel_error(&refs)
    } else {
        0.0
    };
    let instructions: u64 = traces.iter().map(|t| t.instructions).sum();
    // The timed phase reads only the encodings; the records fed the
    // references.
    for tr in &mut traces {
        tr.records = Vec::new();
    }
    let peak_rss_mb = if args.trace {
        0.0
    } else {
        match memory::median_peak_rss_mb(w, &traces) {
            Ok(mb) => mb,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(1);
            }
        }
    };

    let mut runner = Runner::new(w, &traces, &refs);
    runner.run(args.seconds, args.trace);

    let correct = deterministic && self_test.is_ok() && runner.tally.failed == 0;
    eprintln!(
        "perfbench: {} seed {}: {} traces, {instructions} instructions; set-up {setup_s:.3} s; \
         oracle {} attempted, {} failed (failed_runs); self-test {}",
        w.name,
        args.seed,
        traces.len(),
        runner.tally.attempted,
        runner.tally.failed,
        if self_test.is_ok() {
            "caught the perturbed count"
        } else {
            "FAILED"
        },
    );
    if w.kind == Kind::Sampled {
        eprintln!("perfbench: sampled_mpki_rel_error {sampled_error:.5} (deterministic per seed)");
    }
    let metrics = if args.trace {
        if let Some(path) = &args.spans_out {
            let written = std::fs::File::create(path)
                .map(std::io::BufWriter::new)
                .and_then(|mut f| {
                    runner.log.write_jsonl(&mut f)?;
                    std::io::Write::flush(&mut f)
                });
            if let Err(e) = written {
                eprintln!("perfbench: cannot write spans to {path}: {e}");
                return ExitCode::from(1);
            }
        }
        per_layer(&runner, w.kind, &setup, sampled_error)
    } else {
        end_to_end(&runner, setup_s, peak_rss_mb)
    };
    eprintln!("perfbench: {}", sample_note(&runner));
    for m in &metrics {
        eprintln!("perfbench:   {:<40} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        result_line(
            correct,
            runner.tally.attempted,
            runner.tally.failed,
            &metrics
        )
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbp_core::Value;
    use workloads::References;

    /// (name, unit) of every metric `key` of BENCHMARK.json declares.
    fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
        let field = |m: &Value, f: &str| m.get(f).and_then(Value::as_str).unwrap().to_string();
        let mut out: Vec<_> = doc
            .get(key)
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect();
        out.sort();
        out
    }

    fn printed(metrics: &[Metric]) -> Vec<(String, String)> {
        let mut out: Vec<_> = metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect();
        out.sort();
        out
    }

    #[test]
    fn printed_metrics_are_the_declared_ones() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc: Value = std::fs::read_to_string(path).unwrap().parse().unwrap();
        let refs = References {
            runs: Vec::new(),
            represented: Vec::new(),
        };
        for w in &WORKLOADS {
            let runner = Runner::new(w, &[], &refs);
            assert_eq!(
                printed(&end_to_end(&runner, 1.0, 1.0)),
                declared(&doc, "end_to_end")
            );
            assert_eq!(
                printed(&per_layer(&runner, w.kind, &SetupTimes::default(), 0.0)),
                declared(&doc, "per_layer")
            );
        }
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(names, WORKLOADS.map(|w| w.name));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(true, 3, 0, &[metric("x", f64::NAN, "s")]);
        let doc: Value = line.parse().unwrap();
        assert_eq!(doc.get("attempted").and_then(Value::as_u64), Some(3));
        assert_eq!(
            doc.get("metrics")
                .and_then(|m| m.get("x"))
                .and_then(|x| x.get("value"))
                .and_then(Value::as_f64),
            Some(0.0)
        );
    }
}
