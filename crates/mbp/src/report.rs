//! Rendering of [`mbp_stats`] pipeline snapshots: a JSON `"metrics"`
//! object for machines, a one-screen summary for stderr.
//!
//! The schema (documented field-by-field in `DESIGN.md`) has five fixed
//! sections — `decode`, `compress`, `simulate`, `sweep`, `generation` —
//! mirroring the [`mbp_stats::PipelineSnapshot`] domains. Sections for
//! stages that did not run are still present with zero counts, so consumers
//! can index unconditionally.

use mbp_json::{json, Value};
use mbp_stats::{HistogramSnapshot, PipelineSnapshot};

/// Renders a histogram as `{bounds, counts, overflow, count, mean}`.
fn histogram_json(h: &HistogramSnapshot) -> Value {
    json!({
        "bounds": h.bounds.clone(),
        "counts": h.counts.clone(),
        "overflow": h.overflow,
        "count": h.count,
        "mean": h.mean(),
    })
}

/// Renders a pipeline snapshot as the `"metrics"` JSON object emitted by
/// `mbpsim --metrics`.
pub fn pipeline_json(snap: &PipelineSnapshot) -> Value {
    json!({
        "decode": {
            "bytes_read": snap.trace_bytes_read,
            "packets_decoded": snap.trace_packets_decoded,
            "batches": snap.trace_batches,
            "time_s": snap.trace_decode.seconds(),
            "packets_per_second": snap.packets_per_second(),
        },
        "compress": {
            "blocks_inflated": snap.compress_blocks,
            "compressed_bytes": snap.compress_bytes_in,
            "inflated_bytes": snap.compress_bytes_out,
            "inflate_ratio": snap.inflate_ratio(),
            "time_s": snap.compress_inflate.seconds(),
            "block_ratio_pct": histogram_json(&snap.compress_block_ratio_pct),
        },
        "simulate": {
            "runs": snap.sim_runs,
            "records": snap.sim_records,
            "instructions": snap.sim_instructions,
            "kernel_branches": snap.sim_kernel_branches,
            "default_loop_branches": snap.sim_default_loop_branches,
            "scalar_fallback_branches": snap.sim_scalar_fallback_branches,
            "fill_batch_time_s": snap.sim_fill_batch.seconds(),
            "time_s": snap.sim_simulate.seconds(),
            "branches_per_second": snap.branches_per_second(),
            "instructions_per_second": snap.instructions_per_second(),
        },
        "sweep": {
            "workers": snap.sweep_workers,
            "predictors": snap.sweep_predictors,
            "faults": snap.sweep_faults,
            "trace_errors": snap.sweep_trace_errors,
            "worker_busy_s": snap.sweep_worker_busy.seconds(),
            "predictor_time_us": histogram_json(&snap.sweep_predictor_us),
            "checkpoint_writes": snap.sweep_checkpoint_writes,
            "resume_skips": snap.sweep_resume_skips,
            "deadline_fired": snap.sweep_deadline_fired,
            "deadline_extensions": snap.sweep_deadline_extensions,
            "admission_waits": snap.sweep_admission_waits,
            "shutdown_drains": snap.sweep_shutdown_drains,
            "sampled_slices": snap.sweep_sampled_slices,
            "sampled_instructions": snap.sweep_sampled_instructions,
            "replayed_instructions": snap.sweep_replayed_instructions,
        },
        "generation": {
            "records_generated": snap.workload_records,
            "refills": snap.workload_refills,
            "time_s": snap.workload_generate.seconds(),
        },
    })
}

/// `1234567` → `"1.2M"`; keeps the summary lines one screen wide.
fn count(n: u64) -> String {
    match n {
        0..=9_999 => format!("{n}"),
        10_000..=999_999 => format!("{:.1}k", n as f64 / 1e3),
        _ => format!("{:.1}M", n as f64 / 1e6),
    }
}

/// `1234567` bytes → `"1.2 MB"`.
fn bytes(n: u64) -> String {
    match n {
        0..=9_999 => format!("{n} B"),
        10_000..=999_999 => format!("{:.1} kB", n as f64 / 1e3),
        _ => format!("{:.1} MB", n as f64 / 1e6),
    }
}

/// Events per second → `"3.9M/s"`.
fn rate(r: f64) -> String {
    if r >= 1e6 {
        format!("{:.1}M/s", r / 1e6)
    } else if r >= 1e3 {
        format!("{:.1}k/s", r / 1e3)
    } else {
        format!("{r:.0}/s")
    }
}

/// Renders the one-screen human summary printed to stderr by
/// `mbpsim --metrics`. Stages that never ran are shown as `(idle)`.
pub fn human_summary(snap: &PipelineSnapshot) -> String {
    let mut out = String::from("── pipeline metrics ──────────────────────────────\n");
    if snap.trace_packets_decoded > 0 {
        out.push_str(&format!(
            "decode:    {} packets, {} in {:.3} s ({})\n",
            count(snap.trace_packets_decoded),
            bytes(snap.trace_bytes_read),
            snap.trace_decode.seconds(),
            rate(snap.packets_per_second()),
        ));
    } else {
        out.push_str("decode:    (idle)\n");
    }
    if snap.compress_blocks > 0 {
        out.push_str(&format!(
            "compress:  {} blocks, {} -> {} ({:.2}x) in {:.3} s\n",
            count(snap.compress_blocks),
            bytes(snap.compress_bytes_in),
            bytes(snap.compress_bytes_out),
            snap.inflate_ratio(),
            snap.compress_inflate.seconds(),
        ));
    } else {
        out.push_str("compress:  (idle)\n");
    }
    if snap.sim_runs > 0 {
        out.push_str(&format!(
            "simulate:  {} run(s), {} branches ({} kernel / {} default loop / {} scalar), {} instr in {:.3} s ({} branches)\n",
            snap.sim_runs,
            count(snap.sim_records),
            count(snap.sim_kernel_branches),
            count(snap.sim_default_loop_branches),
            count(snap.sim_scalar_fallback_branches),
            count(snap.sim_instructions),
            snap.sim_simulate.seconds(),
            rate(snap.branches_per_second()),
        ));
    } else {
        out.push_str("simulate:  (idle)\n");
    }
    if snap.sweep_predictors > 0 {
        out.push_str(&format!(
            "sweep:     {} predictor(s) on {} worker(s), busy {:.3} s, {} fault(s), {} trace error(s)\n",
            snap.sweep_predictors,
            snap.sweep_workers,
            snap.sweep_worker_busy.seconds(),
            snap.sweep_faults,
            snap.sweep_trace_errors,
        ));
    } else {
        out.push_str("sweep:     (idle)\n");
    }
    if snap.workload_records > 0 {
        out.push_str(&format!(
            "generate:  {} records in {} refill(s), {:.3} s\n",
            count(snap.workload_records),
            snap.workload_refills,
            snap.workload_generate.seconds(),
        ));
    } else {
        out.push_str("generate:  (idle)\n");
    }
    out.push_str("──────────────────────────────────────────────────");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PipelineSnapshot {
        let stats = mbp_stats::PipelineStats::new();
        stats.trace.bytes_read.add(32 * 2048);
        stats.trace.packets_decoded.add(2048);
        stats.trace.batches.inc();
        stats.trace.decode.record_ns(1_000_000);
        stats.sim.runs.inc();
        stats.sim.records.add(2048);
        stats.sim.instructions.add(10_240);
        stats.sim.kernel_branches.add(1500);
        stats.sim.default_loop_branches.add(500);
        stats.sim.scalar_fallback_branches.add(48);
        stats.sim.simulate.record_ns(2_000_000);
        stats.snapshot()
    }

    #[test]
    fn json_has_all_five_sections() {
        let doc = pipeline_json(&sample());
        let keys: Vec<&str> = doc.as_object().unwrap().keys().collect();
        assert_eq!(
            keys,
            ["decode", "compress", "simulate", "sweep", "generation"]
        );
        assert_eq!(doc["decode"]["packets_decoded"], Value::from(2048));
        assert_eq!(doc["simulate"]["runs"], Value::from(1));
        assert_eq!(doc["simulate"]["kernel_branches"], Value::from(1500));
        assert_eq!(doc["simulate"]["default_loop_branches"], Value::from(500));
        assert_eq!(doc["simulate"]["scalar_fallback_branches"], Value::from(48));
        assert_eq!(doc["sweep"]["predictors"], Value::from(0));
        // The document parses back.
        let reparsed: Value = doc.to_pretty_string().parse().unwrap();
        assert_eq!(reparsed, doc);
    }

    #[test]
    fn summary_is_one_screen_and_marks_idle_stages() {
        let text = human_summary(&sample());
        assert!(text.lines().count() <= 10, "one screen");
        assert!(text.contains("decode:"));
        assert!(text.contains("sweep:     (idle)"));
        assert!(text.contains("generate:  (idle)"));
    }

    #[test]
    fn unit_formatting() {
        assert_eq!(count(999), "999");
        assert_eq!(count(1_234_567), "1.2M");
        assert_eq!(bytes(512), "512 B");
        assert_eq!(bytes(2_500_000), "2.5 MB");
        assert_eq!(rate(3_900_000.0), "3.9M/s");
    }
}
