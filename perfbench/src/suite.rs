//! Seeded trace suites and the timed set-up that encodes them.
//!
//! The suite mirrors the CBP5 training set's categories (SHORT/LONG ×
//! MOBILE/SERVER plus MEDIA, long traces four times the short length, media
//! twice) from the `ProgramParams` presets. Every trace seed is derived from
//! the benchmark's `--seed`; the library only ever sees the generated
//! records and their encodings.
//!
//! Trace lengths are fixed in branch records, not instructions: a seed
//! then changes which programs run but not how much data each run moves,
//! so set-up time and memory do not swing with the instructions-per-branch
//! ratio of the programs a seed happens to draw.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use mbp_compress::{compress, Codec};
use mbp_core::{extract_phases_with_warmup, BranchRecord, PhasesDoc};
use mbp_trace::translate;
use mbp_workloads::{ProgramParams, TraceGenerator};

/// Category name, program preset and length in units of the short length.
type Category = (&'static str, fn() -> ProgramParams, u64);

const CATEGORIES: [Category; 5] = [
    ("SHORT_MOBILE", ProgramParams::mobile, 1),
    ("SHORT_SERVER", ProgramParams::server, 1),
    ("LONG_MOBILE", ProgramParams::mobile, 4),
    ("LONG_SERVER", ProgramParams::server, 4),
    ("MEDIA", ProgramParams::media, 2),
];

/// SBBT is stored with MZST at the paper's level 22, BT9 with MGZ as the
/// CBP5 distribution did.
const SBBT_MZST_LEVEL: u32 = 22;
const BT9_MGZ_LEVEL: u32 = 6;

/// Phase-sampling plan shape: windows per trace, clusters, and warm-up
/// windows replayed before each representative (the CI gate's shape).
const WINDOWS_PER_TRACE: u64 = 64;
const CLUSTERS: usize = 8;
const WARMUP_WINDOWS: usize = 2;

/// Copies of each category, and branch records in a short trace. Many
/// short programs rather than a few long ones: a generated program's cost
/// varies widely with its seed, and a workload's figures average over its
/// programs.
const REPS: u64 = 12;
const SHORT_RECORDS: usize = 7_500;

/// One generated trace with the encodings the workloads read.
pub struct TraceInput {
    pub name: String,
    pub records: Vec<BranchRecord>,
    pub instructions: u64,
    /// SBBT compressed with MZST, read by every MBPlib run.
    pub sbbt_mzst: Vec<u8>,
    /// BT9 text compressed with MGZ, read by the CBP5 framework.
    pub bt9_mgz: Vec<u8>,
    /// Phase-sampling plan, built only for the sampled workload.
    pub phases: Option<PhasesDoc>,
}

/// Seconds spent in each set-up layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub encode_s: f64,
    pub compress_s: f64,
    pub extract_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.generate_s + self.encode_s + self.compress_s + self.extract_s
    }

    /// Every layer multiplied by `factor`.
    pub fn scaled(&self, factor: f64) -> Self {
        Self {
            generate_s: self.generate_s * factor,
            encode_s: self.encode_s * factor,
            compress_s: self.compress_s * factor,
            extract_s: self.extract_s * factor,
        }
    }
}

/// Seconds [`calibration_s`] took on the host the benchmark was tuned on
/// (2 vCPU x86-64 VM), the unit set-up times are reported in.
pub const CALIBRATION_REFERENCE_S: f64 = 0.08;

/// Times a fixed piece of work that uses none of the library: sorting a
/// vector of pseudo-random numbers. Measured next to each set-up, it tells
/// how fast the host runs at that moment, so set-up time can be reported
/// in seconds of the reference host.
pub fn calibration_s() -> f64 {
    let start = Instant::now();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut values: Vec<u32> = (0..1 << 21)
        .map(|_| {
            x = mix(x);
            x as u32
        })
        .collect();
    values.sort_unstable();
    std::hint::black_box(&values);
    start.elapsed().as_secs_f64()
}

/// SplitMix64: decorrelates the per-trace seeds drawn from one `--seed`.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One trace of the suite: name, generator and length in records.
struct Spec {
    name: String,
    params: ProgramParams,
    seed: u64,
    records: usize,
}

fn specs(seed: u64) -> Vec<Spec> {
    let mut out = Vec::new();
    for rep in 0..REPS {
        for (ci, (category, params, length)) in CATEGORIES.iter().enumerate() {
            out.push(Spec {
                name: format!("{category}-{}", rep + 1),
                params: params(),
                seed: mix(mix(seed) ^ (rep * CATEGORIES.len() as u64 + ci as u64)),
                records: SHORT_RECORDS * *length as usize,
            });
        }
    }
    out
}

fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let value = f();
    *acc += start.elapsed().as_secs_f64();
    value
}

/// Generates and encodes the suite, timing each layer.
pub fn build(seed: u64, with_phases: bool) -> (Vec<TraceInput>, SetupTimes) {
    let mut t = SetupTimes::default();
    let mut traces = Vec::new();
    for spec in specs(seed) {
        let records = timed(&mut t.generate_s, || {
            TraceGenerator::from_params(&spec.params, spec.seed).take_records(spec.records)
        });
        let (sbbt, bt9) = timed(&mut t.encode_s, || {
            (
                translate::records_to_sbbt(&records).expect("generated records encode"),
                translate::records_to_bt9(&records),
            )
        });
        let (sbbt_mzst, bt9_mgz) = timed(&mut t.compress_s, || {
            (
                compress(&sbbt, Codec::Mzst, SBBT_MZST_LEVEL).expect("level valid"),
                compress(bt9.as_bytes(), Codec::Mgz, BT9_MGZ_LEVEL).expect("level valid"),
            )
        });
        let instructions: u64 = records.iter().map(|r| r.instructions()).sum();
        let phases = with_phases.then(|| {
            timed(&mut t.extract_s, || {
                extract_phases_with_warmup(
                    &records,
                    (instructions / WINDOWS_PER_TRACE).max(1),
                    CLUSTERS,
                    WARMUP_WINDOWS,
                )
            })
        });
        traces.push(TraceInput {
            name: spec.name,
            records,
            instructions,
            sbbt_mzst,
            bt9_mgz,
            phases,
        });
    }
    (traces, t)
}

/// A digest of everything a set-up hands to the library, so repeated
/// set-ups can be compared without keeping more than one suite alive.
pub fn digest(traces: &[TraceInput]) -> u64 {
    let mut h = DefaultHasher::new();
    for t in traces {
        t.instructions.hash(&mut h);
        t.sbbt_mzst.hash(&mut h);
        t.bt9_mgz.hash(&mut h);
        t.phases.as_ref().map(PhasesDoc::doc_hash).hash(&mut h);
    }
    h.finish()
}
