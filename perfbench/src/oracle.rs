//! The output oracle: exact comparison of the integer fields of a result
//! against an independently computed reference.
//!
//! Only integer fields are compared. `metrics.simulation_time` and the
//! sweep's `wall_time`/`decode_time`/`cumulative_sim_time` are host timings,
//! so any comparison of JSON text or of a hash of it would fail every run.

use cbp5_sim::Cbp5Result;
use mbp_core::SimResult;

/// The integer outcome of one single-predictor run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub mispredictions: u64,
    pub conditional_branches: u64,
    pub simulation_instr: u64,
    pub exhausted_trace: bool,
    /// `most_failed` as (ip, occurrences, mispredictions), in report order.
    pub most_failed: Vec<(u64, u64, u64)>,
}

impl Fingerprint {
    pub fn of(result: &SimResult) -> Self {
        Self {
            mispredictions: result.metrics.mispredictions,
            conditional_branches: result.metadata.num_conditional_branches,
            simulation_instr: result.metadata.simulation_instr,
            exhausted_trace: result.metadata.exhausted_trace,
            most_failed: result
                .most_failed
                .iter()
                .map(|b| (b.ip, b.occurrences, b.mispredictions))
                .collect(),
        }
    }
}

/// Compares `got` with the reference `want`, naming the first field that
/// differs.
pub fn check(got: &Fingerprint, want: &Fingerprint) -> Result<(), String> {
    let fields = [
        ("mispredictions", got.mispredictions, want.mispredictions),
        (
            "conditional_branches",
            got.conditional_branches,
            want.conditional_branches,
        ),
        (
            "simulation_instr",
            got.simulation_instr,
            want.simulation_instr,
        ),
        (
            "exhausted_trace",
            got.exhausted_trace as u64,
            want.exhausted_trace as u64,
        ),
        (
            "most_failed.len",
            got.most_failed.len() as u64,
            want.most_failed.len() as u64,
        ),
    ];
    for (name, g, w) in fields {
        if g != w {
            return Err(format!("{name}: got {g}, want {w}"));
        }
    }
    for (i, (g, w)) in got.most_failed.iter().zip(&want.most_failed).enumerate() {
        if g != w {
            return Err(format!(
                "most_failed[{i}] (ip, occurrences, mispredictions): got {g:?}, want {w:?}"
            ));
        }
    }
    Ok(())
}

/// Checks a CBP5 framework run against the full-trace reference of the
/// same predictor and trace (§VII-C: both simulators must agree exactly).
/// The framework reports no `most_failed` list.
pub fn check_framework(framework: &Cbp5Result, want: &Fingerprint) -> Result<(), String> {
    let fields = [
        (
            "mispredictions",
            framework.mispredictions,
            want.mispredictions,
        ),
        (
            "conditional_branches",
            framework.num_conditional_branches,
            want.conditional_branches,
        ),
        (
            "instructions",
            framework.instructions,
            want.simulation_instr,
        ),
        ("exhausted_trace", 1, want.exhausted_trace as u64),
    ];
    for (name, g, w) in fields {
        if g != w {
            return Err(format!("{name}: CBP5 framework {g}, reference {w}"));
        }
    }
    Ok(())
}

/// Feeds the oracle a copy of `reference` with one count perturbed by one,
/// and a framework run off by one from the full-trace reference `full`,
/// and confirms both are rejected; run once per benchmark run on a real
/// reference, so an oracle that stopped comparing would be noticed.
pub fn self_test(reference: &Fingerprint, full: &Fingerprint) -> Result<(), String> {
    let mut perturbed = reference.clone();
    perturbed.mispredictions += 1;
    if check(&perturbed, reference).is_ok() {
        return Err("oracle accepted a misprediction count off by one".into());
    }
    let mut perturbed = reference.clone();
    match perturbed.most_failed.first_mut() {
        Some(entry) => entry.2 += 1,
        None => return Err("reference has an empty most_failed list".into()),
    }
    if check(&perturbed, reference).is_ok() {
        return Err("oracle accepted a perturbed most_failed entry".into());
    }
    check(reference, reference).map_err(|e| format!("oracle rejected an exact copy: {e}"))?;
    let framework = Cbp5Result {
        instructions: full.simulation_instr,
        num_conditional_branches: full.conditional_branches,
        mispredictions: full.mispredictions + 1,
        ..Cbp5Result::default()
    };
    if check_framework(&framework, full).is_ok() {
        return Err("oracle accepted a CBP5 framework run off by one misprediction".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Fingerprint {
        Fingerprint {
            mispredictions: 10,
            conditional_branches: 100,
            simulation_instr: 1000,
            exhausted_trace: true,
            most_failed: vec![(0x40, 50, 7), (0x80, 20, 3)],
        }
    }

    #[test]
    fn self_test_passes_on_a_real_fingerprint() {
        assert_eq!(self_test(&sample(), &sample()), Ok(()));
    }

    #[test]
    fn framework_runs_are_compared_on_every_count() {
        let want = sample();
        let exact = Cbp5Result {
            instructions: 1000,
            num_conditional_branches: 100,
            mispredictions: 10,
            ..Cbp5Result::default()
        };
        assert_eq!(check_framework(&exact, &want), Ok(()));
        let perturbations: [fn(&mut Cbp5Result); 3] = [
            |f| f.instructions += 1,
            |f| f.num_conditional_branches -= 1,
            |f| f.mispredictions += 1,
        ];
        for perturb in perturbations {
            let mut got = exact.clone();
            perturb(&mut got);
            assert!(check_framework(&got, &want).is_err(), "{got:?}");
        }
        let capped = Fingerprint {
            exhausted_trace: false,
            ..want
        };
        assert!(check_framework(&exact, &capped).is_err());
    }

    #[test]
    fn every_field_is_compared() {
        let want = sample();
        let perturbations: [fn(&mut Fingerprint); 6] = [
            |f| f.mispredictions += 1,
            |f| f.conditional_branches -= 1,
            |f| f.simulation_instr += 1,
            |f| f.exhausted_trace = false,
            |f| f.most_failed[1].0 += 4,
            |f| {
                f.most_failed.pop();
            },
        ];
        for perturb in perturbations {
            let mut got = want.clone();
            perturb(&mut got);
            assert!(check(&got, &want).is_err(), "{got:?}");
        }
    }
}
