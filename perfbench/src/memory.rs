//! `peak_rss_mb`: the peak resident size of a fresh process that makes one
//! timed run's MBPlib calls on one trace.
//!
//! The benchmark's own process has generated, encoded and checked the
//! whole suite by then, and its heap keeps the layout that work left, so
//! its `VmHWM` would mostly measure the harness. Instead a child started
//! from the same executable with `--memory-probe 1` receives one encoded
//! trace on standard input, makes the calls a timed run makes on it
//! (every predictor of a table3 workload in turn, or one sweep call) and
//! prints its `VmHWM` in MB.
//!
//! Input, on the child's standard input: the trace's instructions and the
//! length of its SBBT+MZST bytes (little-endian u64 each), those bytes,
//! then the phase plan's JSON text for the sampled workload.

use std::io::{Read, Write};
use std::process::{Command, Stdio};

use mbp_core::{PhasesDoc, Predictor, Value};

use crate::stats;
use crate::suite::TraceInput;
use crate::workloads::{self, Kind, Workload, PREDICTORS};

fn encode(tr: &TraceInput) -> Vec<u8> {
    let mut input = Vec::with_capacity(16 + tr.sbbt_mzst.len());
    input.extend(tr.instructions.to_le_bytes());
    input.extend((tr.sbbt_mzst.len() as u64).to_le_bytes());
    input.extend(&tr.sbbt_mzst);
    if let Some(phases) = &tr.phases {
        input.extend(phases.to_json().to_string().into_bytes());
    }
    input
}

/// The decoded input: instructions, SBBT+MZST bytes, phase plan.
fn decode(input: &[u8]) -> Result<(u64, Vec<u8>, Option<PhasesDoc>), String> {
    let word = |at: usize| -> Result<u64, String> {
        let bytes = input.get(at..at + 8).ok_or("truncated probe input")?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("eight bytes")))
    };
    let instructions = word(0)?;
    let end = 16 + usize::try_from(word(8)?).map_err(|_| "bad trace length")?;
    let sbbt = input.get(16..end).ok_or("truncated probe input")?.to_vec();
    let phases = if end == input.len() {
        None
    } else {
        let text = std::str::from_utf8(&input[end..]).map_err(|_| "phase plan is not UTF-8")?;
        let doc: Value = text.parse().map_err(|e| format!("phase plan: {e:?}"))?;
        Some(PhasesDoc::from_json(&doc)?)
    };
    Ok((instructions, sbbt, phases))
}

/// The child's side: reads one trace from standard input, makes the
/// workload's MBPlib calls on it and returns the process's peak resident
/// size in MB.
pub fn probe(w: &Workload) -> Result<f64, String> {
    let mut input = Vec::new();
    std::io::stdin()
        .read_to_end(&mut input)
        .map_err(|e| format!("reading probe input: {e}"))?;
    let (instructions, sbbt, phases) = decode(&input)?;
    drop(input);
    let make = |p: usize| -> Box<dyn Predictor + Send> {
        (mbp_bench::table3_predictors().swap_remove(p).1)()
    };
    match w.kind {
        Kind::Table3 => {
            for &p in w.predictors {
                workloads::single_run(sbbt.clone(), &mut make(p)).map_err(|e| e.to_string())?;
            }
        }
        Kind::Championship | Kind::Sampled => {
            let predictors = w
                .predictors
                .iter()
                .map(|&p| (PREDICTORS[p].0.to_string(), make(p)))
                .collect();
            let config = workloads::sweep_config(w.kind, instructions, phases);
            let sweep =
                workloads::sweep_call(sbbt, predictors, &config).map_err(|e| e.to_string())?;
            if let Some(f) = sweep.failures.first() {
                return Err(format!("{} failed: {}", f.name, f.message));
            }
        }
    }
    stats::peak_rss_mb().ok_or_else(|| "VmHWM is not readable".to_string())
}

/// Runs one child per trace and returns the median of their peaks.
pub fn median_peak_rss_mb(w: &Workload, traces: &[TraceInput]) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut peaks = Vec::with_capacity(traces.len());
    for tr in traces {
        let mut child = Command::new(&exe)
            .args(["--workload", w.name, "--memory-probe", "1"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting the memory probe: {e}"))?;
        // The child reads all of its input before it writes anything.
        let written = child
            .stdin
            .take()
            .expect("stdin is piped")
            .write_all(&encode(tr));
        let out = child
            .wait_with_output()
            .map_err(|e| format!("waiting for the memory probe: {e}"))?;
        written.map_err(|e| format!("feeding the memory probe: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "memory probe on {} exited with {}",
                tr.name, out.status
            ));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        peaks.push(
            text.trim()
                .parse::<f64>()
                .map_err(|_| format!("memory probe printed {text:?}"))?,
        );
    }
    stats::median(&peaks).ok_or_else(|| "no traces".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_input_round_trips() {
        let tr = TraceInput {
            name: "t".into(),
            records: Vec::new(),
            instructions: 1234,
            sbbt_mzst: vec![1, 2, 3],
            bt9_mgz: Vec::new(),
            phases: None,
        };
        let (instructions, sbbt, phases) = decode(&encode(&tr)).unwrap();
        assert_eq!(
            (instructions, sbbt, phases.is_none()),
            (1234, vec![1, 2, 3], true)
        );
        assert!(decode(&encode(&tr)[..10]).is_err());
    }
}
