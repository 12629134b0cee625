//! Prometheus/OpenMetrics text exposition of stats snapshots.
//!
//! This is the wire format of the live telemetry plane's `/metrics`
//! endpoint: the static [`crate::pipeline`] domains and the process-wide
//! [`crate::registry`] rendered as `# TYPE`-annotated metric families.
//! The renderer is a pure function over snapshots, so it can be tested
//! byte-for-byte and never touches the hot path — scrape cost is one
//! registry snapshot plus string formatting, entirely on the serving
//! thread.
//!
//! Formatting rules, chosen for diffability:
//!
//! * counters render as monotonic `_total` series, `u64` values printed as
//!   exact integers (never through `f64`, which loses precision past 2^53);
//! * timers render as a `_seconds_total` counter (exact decimal built from
//!   integer nanoseconds) plus a `_spans_total` counter;
//! * histograms render with cumulative `_bucket{le="..."}` semantics, a
//!   trailing `+Inf` bucket, `_sum` and `_count`;
//! * families appear in a fixed order (pipeline domains first, then the
//!   registry sorted by sanitized name), so repeat scrapes of an idle
//!   process are byte-identical.

use std::fmt::Write as _;

use crate::metric::HistogramSnapshot;
use crate::pipeline::{PipelineSnapshot, TimerSnapshot};
use crate::registry::{Snapshot, SnapshotValue};

/// Rewrites `name` into the OpenMetrics metric-name charset
/// `[a-zA-Z0-9_:]` (first character additionally `[a-zA-Z_:]`). Invalid
/// characters become `_`; an empty input becomes a single `_`.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let valid =
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if valid { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// One predictor's live hard-to-predict summary, rendered as the
/// `mbp_h2p_*` labeled gauge family.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct H2pRow {
    /// Value of the `predictor` label.
    pub predictor: String,
    /// Address of the predictor's currently worst (most-mispredicted)
    /// branch; `None` before any misprediction.
    pub worst_ip: Option<u64>,
    /// Misprediction count of that branch (0 when `worst_ip` is `None`).
    pub worst_mispredictions: u64,
}

/// Escapes a label value per the OpenMetrics text format: backslash,
/// double quote and newline.
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Emits the `mbp_h2p_*` family: per-predictor worst-branch gauges. Every
/// row renders a misprediction count (so a predictor with no misses yet is
/// still visible as `0`); the address gauge appears once a worst branch
/// exists.
fn h2p_family(out: &mut String, rows: &[H2pRow]) {
    if rows.is_empty() {
        return;
    }
    let _ = writeln!(out, "# TYPE mbp_h2p_worst_branch_mispredictions gauge");
    for r in rows {
        let _ = writeln!(
            out,
            "mbp_h2p_worst_branch_mispredictions{{predictor=\"{}\"}} {}",
            escape_label_value(&r.predictor),
            r.worst_mispredictions
        );
    }
    if rows.iter().any(|r| r.worst_ip.is_some()) {
        let _ = writeln!(out, "# TYPE mbp_h2p_worst_branch_ip gauge");
        for r in rows {
            if let Some(ip) = r.worst_ip {
                let _ = writeln!(
                    out,
                    "mbp_h2p_worst_branch_ip{{predictor=\"{}\"}} {ip}",
                    escape_label_value(&r.predictor)
                );
            }
        }
    }
}

/// Emits one counter family: `# TYPE` line plus a `_total` sample.
fn counter(out: &mut String, name: &str, value: u64) {
    let _ = writeln!(out, "# TYPE {name} counter");
    let _ = writeln!(out, "{name}_total {value}");
}

/// Emits one gauge sample with its `# TYPE` line.
fn gauge(out: &mut String, name: &str, value: u64) {
    let _ = writeln!(out, "# TYPE {name} gauge");
    let _ = writeln!(out, "{name} {value}");
}

/// Emits a timer as `_seconds_total` (exact decimal seconds from integer
/// nanoseconds) and `_spans_total` counters.
fn timer(out: &mut String, name: &str, total_ns: u64, spans: u64) {
    let _ = writeln!(out, "# TYPE {name}_seconds counter");
    let _ = writeln!(
        out,
        "{name}_seconds_total {}.{:09}",
        total_ns / 1_000_000_000,
        total_ns % 1_000_000_000
    );
    let _ = writeln!(out, "# TYPE {name}_spans counter");
    let _ = writeln!(out, "{name}_spans_total {spans}");
}

/// Emits a histogram family with cumulative buckets, `+Inf`, sum and count.
fn histogram(out: &mut String, name: &str, h: &HistogramSnapshot) {
    let _ = writeln!(out, "# TYPE {name} histogram");
    let cumulative = h.cumulative_counts();
    for (bound, cum) in h.bounds.iter().zip(&cumulative) {
        let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cum}");
    }
    // cumulative_counts always appends the +Inf bucket (== count).
    let inf = cumulative.last().copied().unwrap_or(0);
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {inf}");
    let _ = writeln!(out, "{name}_sum {}", h.sum());
    let _ = writeln!(out, "{name}_count {}", h.count);
}

/// Renders the pipeline snapshot, the registry snapshot, the event
/// journal's drop counter and the per-predictor H2P rows as one
/// OpenMetrics text document.
///
/// Pipeline families come first in a fixed order, then the `mbp_h2p_*`
/// family (omitted when `h2p` is empty), then registry entries prefixed
/// `mbp_registry_` and sorted by sanitized name. Rendering the same
/// snapshots twice yields byte-identical output.
pub fn render_openmetrics(
    registry: &Snapshot,
    pipeline: &PipelineSnapshot,
    dropped_events: u64,
    h2p: &[H2pRow],
) -> String {
    let mut out = String::with_capacity(4096);
    let p = pipeline;
    let t = |out: &mut String, name: &str, ts: &TimerSnapshot| {
        timer(out, name, ts.total_ns, ts.spans);
    };

    counter(&mut out, "mbp_trace_bytes_read", p.trace_bytes_read);
    counter(
        &mut out,
        "mbp_trace_packets_decoded",
        p.trace_packets_decoded,
    );
    counter(&mut out, "mbp_trace_batches", p.trace_batches);
    t(&mut out, "mbp_trace_decode", &p.trace_decode);

    counter(&mut out, "mbp_compress_blocks", p.compress_blocks);
    counter(&mut out, "mbp_compress_bytes_in", p.compress_bytes_in);
    counter(&mut out, "mbp_compress_bytes_out", p.compress_bytes_out);
    t(&mut out, "mbp_compress_inflate", &p.compress_inflate);
    histogram(
        &mut out,
        "mbp_compress_block_ratio_pct",
        &p.compress_block_ratio_pct,
    );

    counter(&mut out, "mbp_sim_runs", p.sim_runs);
    counter(&mut out, "mbp_sim_records", p.sim_records);
    counter(&mut out, "mbp_sim_instructions", p.sim_instructions);
    counter(&mut out, "mbp_sim_kernel_branches", p.sim_kernel_branches);
    counter(
        &mut out,
        "mbp_sim_default_loop_branches",
        p.sim_default_loop_branches,
    );
    counter(
        &mut out,
        "mbp_sim_scalar_fallback_branches",
        p.sim_scalar_fallback_branches,
    );
    t(&mut out, "mbp_sim_fill_batch", &p.sim_fill_batch);
    t(&mut out, "mbp_sim_simulate", &p.sim_simulate);

    counter(&mut out, "mbp_sweep_workers", p.sweep_workers);
    counter(&mut out, "mbp_sweep_predictors", p.sweep_predictors);
    counter(&mut out, "mbp_sweep_faults", p.sweep_faults);
    counter(&mut out, "mbp_sweep_trace_errors", p.sweep_trace_errors);
    t(&mut out, "mbp_sweep_worker_busy", &p.sweep_worker_busy);
    histogram(&mut out, "mbp_sweep_predictor_us", &p.sweep_predictor_us);
    counter(
        &mut out,
        "mbp_sweep_checkpoint_writes",
        p.sweep_checkpoint_writes,
    );
    counter(&mut out, "mbp_sweep_resume_skips", p.sweep_resume_skips);
    counter(&mut out, "mbp_sweep_deadline_fired", p.sweep_deadline_fired);
    counter(
        &mut out,
        "mbp_sweep_deadline_extensions",
        p.sweep_deadline_extensions,
    );
    counter(
        &mut out,
        "mbp_sweep_admission_waits",
        p.sweep_admission_waits,
    );
    counter(
        &mut out,
        "mbp_sweep_shutdown_drains",
        p.sweep_shutdown_drains,
    );
    counter(&mut out, "mbp_sweep_sampled_slices", p.sweep_sampled_slices);
    counter(
        &mut out,
        "mbp_sweep_sampled_instructions",
        p.sweep_sampled_instructions,
    );
    counter(
        &mut out,
        "mbp_sweep_replayed_instructions",
        p.sweep_replayed_instructions,
    );

    counter(&mut out, "mbp_workload_records", p.workload_records);
    counter(&mut out, "mbp_workload_refills", p.workload_refills);
    t(&mut out, "mbp_workload_generate", &p.workload_generate);

    counter(&mut out, "mbp_events_dropped", dropped_events);

    h2p_family(&mut out, h2p);

    // Registry entries arrive sorted by raw name; sanitization can reorder
    // (or collide — last writer wins is fine for a scrape surface), so
    // re-sort by the emitted family name to keep the document stable.
    let mut entries: Vec<(String, &SnapshotValue)> = registry
        .entries
        .iter()
        .map(|(name, value)| {
            (
                format!("mbp_registry_{}", sanitize_metric_name(name)),
                value,
            )
        })
        .collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    for (name, value) in entries {
        match value {
            SnapshotValue::Counter(v) => counter(&mut out, &name, *v),
            SnapshotValue::Gauge { value, high_water } => {
                gauge(&mut out, &name, *value);
                gauge(&mut out, &format!("{name}_high_water"), *high_water);
            }
            SnapshotValue::Timer { total_ns, spans } => timer(&mut out, &name, *total_ns, *spans),
            SnapshotValue::Histogram(h) => histogram(&mut out, &name, h),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineStats;
    use crate::registry::Registry;

    #[test]
    fn sanitize_replaces_invalid_characters() {
        assert_eq!(sanitize_metric_name("trace.packets"), "trace_packets");
        assert_eq!(sanitize_metric_name("a-b c/d"), "a_b_c_d");
        assert_eq!(sanitize_metric_name("ok_name:sub"), "ok_name:sub");
        assert_eq!(sanitize_metric_name("9lives"), "_lives");
        assert_eq!(sanitize_metric_name("x9"), "x9");
        assert_eq!(sanitize_metric_name(""), "_");
    }

    #[test]
    fn counters_render_exact_u64_beyond_f64_range() {
        let stats = PipelineStats::new();
        // 2^53 + 1 is not representable in f64; the text must round-trip.
        let big = (1u64 << 53) + 1;
        stats.sim.instructions.add(big);
        let text = render_openmetrics(&Snapshot::default(), &stats.snapshot(), 0, &[]);
        assert!(
            text.contains(&format!("mbp_sim_instructions_total {big}\n")),
            "expected exact integer rendering, got:\n{text}"
        );
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_capped_by_inf() {
        let stats = PipelineStats::new();
        stats.sweep.predictor_us.record(5);
        stats.sweep.predictor_us.record(1_000_000_000);
        let text = render_openmetrics(&Snapshot::default(), &stats.snapshot(), 0, &[]);
        let inf = text
            .lines()
            .find(|l| l.starts_with("mbp_sweep_predictor_us_bucket{le=\"+Inf\"}"))
            .expect("+Inf bucket");
        assert!(inf.ends_with(" 2"), "bad +Inf bucket: {inf}");
        // Cumulative counts never decrease down the bucket list.
        let mut last = 0u64;
        for line in text
            .lines()
            .filter(|l| l.starts_with("mbp_sweep_predictor_us_bucket"))
        {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "buckets not monotone: {line}");
            last = v;
        }
    }

    #[test]
    fn empty_registry_renders_pipeline_only_and_is_byte_stable() {
        let stats = PipelineStats::new();
        let reg = Registry::new();
        let a = render_openmetrics(&reg.snapshot(), &stats.snapshot(), 0, &[]);
        let b = render_openmetrics(&reg.snapshot(), &stats.snapshot(), 0, &[]);
        assert_eq!(a, b, "idle scrapes must be byte-identical");
        assert!(!a.contains("mbp_registry_"));
        assert!(a.contains("# TYPE mbp_sim_instructions counter"));
        assert!(a.lines().all(|l| l.starts_with("# TYPE") || !l.is_empty()));
    }

    #[test]
    fn registry_kinds_render_with_type_lines() {
        let stats = PipelineStats::new();
        let reg = Registry::new();
        reg.counter("jobs.done").add(3);
        reg.gauge("queue depth").set(7);
        reg.timer("phase.time").record_ns(1_500_000_000);
        reg.histogram("sizes", &[8, 64]).record(9);
        let text = render_openmetrics(&reg.snapshot(), &stats.snapshot(), 2, &[]);
        assert!(text
            .contains("# TYPE mbp_registry_jobs_done counter\nmbp_registry_jobs_done_total 3\n"));
        assert!(text.contains("mbp_registry_queue_depth 7\n"));
        assert!(text.contains("mbp_registry_queue_depth_high_water 7\n"));
        assert!(text.contains("mbp_registry_phase_time_seconds_total 1.500000000\n"));
        assert!(text.contains("mbp_registry_phase_time_spans_total 1\n"));
        assert!(text.contains("mbp_registry_sizes_bucket{le=\"64\"} 1\n"));
        assert!(text.contains("mbp_registry_sizes_sum 9\n"));
        assert!(text.contains("mbp_events_dropped_total 2\n"));
    }

    #[test]
    fn empty_histogram_renders_zero_count_and_only_inf_populated() {
        let stats = PipelineStats::new();
        let reg = Registry::new();
        // Declared but never recorded into.
        let _ = reg.histogram("never.recorded", &[1, 10]);
        let text = render_openmetrics(&reg.snapshot(), &stats.snapshot(), 0, &[]);
        assert!(text.contains("# TYPE mbp_registry_never_recorded histogram"));
        assert!(text.contains("mbp_registry_never_recorded_bucket{le=\"1\"} 0\n"));
        assert!(text.contains("mbp_registry_never_recorded_bucket{le=\"10\"} 0\n"));
        assert!(text.contains("mbp_registry_never_recorded_bucket{le=\"+Inf\"} 0\n"));
        assert!(text.contains("mbp_registry_never_recorded_sum 0\n"));
        assert!(text.contains("mbp_registry_never_recorded_count 0\n"));
    }

    #[test]
    fn sanitized_name_collision_renders_both_samples_under_one_name() {
        // "a.b" and "a b" both sanitize to "a_b". Distinct registry entries
        // survive as distinct samples of the same family name; scrapers see
        // the duplicate, which is the documented (and diffable) behavior.
        let stats = PipelineStats::new();
        let reg = Registry::new();
        reg.counter("a.b").add(1);
        reg.counter("a b").add(2);
        let text = render_openmetrics(&reg.snapshot(), &stats.snapshot(), 0, &[]);
        let samples: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("mbp_registry_a_b_total"))
            .collect();
        assert_eq!(
            samples,
            ["mbp_registry_a_b_total 2", "mbp_registry_a_b_total 1"],
            "both colliding entries render, in name-sorted snapshot order"
        );
    }

    #[test]
    fn h2p_family_renders_labels_with_escaping() {
        let stats = PipelineStats::new();
        let rows = [
            H2pRow {
                predictor: "tage".into(),
                worst_ip: Some(0x40),
                worst_mispredictions: 17,
            },
            H2pRow {
                predictor: "we\"ird\\nm\ne".into(),
                worst_ip: None,
                worst_mispredictions: 0,
            },
        ];
        let text = render_openmetrics(&Snapshot::default(), &stats.snapshot(), 0, &rows);
        assert!(text.contains("# TYPE mbp_h2p_worst_branch_mispredictions gauge"));
        assert!(text.contains("mbp_h2p_worst_branch_mispredictions{predictor=\"tage\"} 17\n"));
        assert!(
            text.contains(
                "mbp_h2p_worst_branch_mispredictions{predictor=\"we\\\"ird\\\\nm\\ne\"} 0\n"
            ),
            "label escaping, got:\n{text}"
        );
        assert!(text.contains("mbp_h2p_worst_branch_ip{predictor=\"tage\"} 64\n"));
        assert!(
            !text.contains("mbp_h2p_worst_branch_ip{predictor=\"we"),
            "no ip sample for a predictor without a worst branch"
        );

        // Empty rows: family omitted entirely.
        let text = render_openmetrics(&Snapshot::default(), &stats.snapshot(), 0, &[]);
        assert!(!text.contains("mbp_h2p_"));
    }
}
