//! Metric accumulation: MPKI, accuracy and the most-failed-branches report.

/// Aggregate metrics of a simulation (the `metrics` section of Listing 1).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics {
    /// Mispredictions per kilo-instruction over the measured window.
    pub mpki: f64,
    /// Mispredicted conditional branches (post-warmup).
    pub mispredictions: u64,
    /// Correct predictions / measured conditional branches.
    pub accuracy: f64,
    /// Minimum number of static branches that account, on their own, for
    /// half of all mispredictions.
    pub num_most_failed_branches: u64,
    /// Wall-clock simulation time in seconds.
    pub simulation_time: f64,
}

/// Per-static-branch statistics (an entry of the `most_failed` list).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BranchStat {
    /// Address of the branch instruction.
    pub ip: u64,
    /// Measured dynamic occurrences.
    pub occurrences: u64,
    /// Mispredictions attributed to this branch.
    pub mispredictions: u64,
    /// Taken outcomes among the measured occurrences.
    pub taken: u64,
    /// This branch's contribution to MPKI.
    pub mpki: f64,
    /// Prediction accuracy on this branch alone.
    pub accuracy: f64,
    /// Shannon entropy of the branch's direction (0 = perfectly biased,
    /// 1 = 50/50).
    pub direction_entropy: f64,
    /// Fraction of consecutive occurrences whose outcomes differ
    /// (0 = constant, 1 = strictly alternating).
    pub transition_rate: f64,
}

/// Aggregated counts of one taxonomy class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassStat {
    /// Static branches in the class.
    pub branches: u64,
    /// Their dynamic occurrences.
    pub occurrences: u64,
    /// Their mispredictions.
    pub mispredictions: u64,
}

/// Entropy-class boundaries: `strongly_biased` H < 0.1, `biased` < 0.5,
/// `mixed` < 0.9, `unbiased` ≥ 0.9.
pub const ENTROPY_CLASSES: [&str; 4] = ["strongly_biased", "biased", "mixed", "unbiased"];
/// Transition-class boundaries: `stable` rate < 0.2, `irregular` < 0.8,
/// `alternating` ≥ 0.8.
pub const TRANSITION_CLASSES: [&str; 3] = ["stable", "irregular", "alternating"];

/// Per-static-branch misprediction characterization: how biased each
/// branch's direction is (entropy) and how often it flips (transition
/// rate), aggregated into fixed classes. The lens of the workload-
/// characterization literature: a high-MPKI predictor losing on
/// `unbiased`/`alternating` branches needs history; one losing on
/// `strongly_biased` branches has a capacity or aliasing problem.
///
/// Derived purely from outcome counts, so two drivers that process the
/// same record stream produce byte-identical taxonomies.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BranchTaxonomy {
    /// Static branches with at least one measured occurrence.
    pub measured_branches: u64,
    /// Occurrence-weighted mean direction entropy.
    pub mean_direction_entropy: f64,
    /// Occurrence-weighted mean transition rate.
    pub mean_transition_rate: f64,
    /// Per-class stats, in [`ENTROPY_CLASSES`] order.
    pub entropy_classes: [ClassStat; 4],
    /// Per-class stats, in [`TRANSITION_CLASSES`] order.
    pub transition_classes: [ClassStat; 3],
}

/// Shannon entropy of a branch taken `taken` times in `occurrences`.
pub(crate) fn direction_entropy(taken: u64, occurrences: u64) -> f64 {
    if occurrences == 0 || taken == 0 || taken == occurrences {
        return 0.0;
    }
    let p = taken as f64 / occurrences as f64;
    -(p * p.log2() + (1.0 - p) * (1.0 - p).log2())
}

/// Transition rate over `occurrences` outcomes with `transitions` flips.
pub(crate) fn transition_rate(transitions: u64, occurrences: u64) -> f64 {
    if occurrences < 2 {
        0.0
    } else {
        transitions as f64 / (occurrences - 1) as f64
    }
}

fn entropy_class(h: f64) -> usize {
    match h {
        h if h < 0.1 => 0,
        h if h < 0.5 => 1,
        h if h < 0.9 => 2,
        _ => 3,
    }
}

fn transition_class(rate: f64) -> usize {
    match rate {
        r if r < 0.2 => 0,
        r if r < 0.8 => 1,
        _ => 2,
    }
}

/// The [`ENTROPY_CLASSES`] label for direction entropy `h`.
pub(crate) fn entropy_class_name(h: f64) -> &'static str {
    ENTROPY_CLASSES[entropy_class(h)]
}

/// The [`TRANSITION_CLASSES`] label for transition rate `rate`.
pub(crate) fn transition_class_name(rate: f64) -> &'static str {
    TRANSITION_CLASSES[transition_class(rate)]
}

/// Branch addresses are below 2^51 (SBBT packet layout), so `u64::MAX`
/// can mark an empty slot. A record at that address from another source
/// is not counted.
const EMPTY: u64 = u64::MAX;

/// Exact per-branch outcome totals.
#[derive(Clone, Copy, Debug)]
struct Counts {
    occurrences: u64,
    mispredictions: u64,
    taken: u64,
    transitions: u64,
    /// Latest measured outcome (0/1), or [`NO_OUTCOME`] before the first.
    last_taken: u8,
}

/// Sentinel for "no previous outcome observed" in [`Counts::last_taken`].
const NO_OUTCOME: u8 = 2;

const NO_COUNTS: Counts = Counts {
    occurrences: 0,
    mispredictions: 0,
    taken: 0,
    transitions: 0,
    last_taken: NO_OUTCOME,
};

impl Counts {
    /// Adds one measured occurrence; both operands are 0 or 1.
    #[inline(always)]
    fn add(&mut self, taken: u64, mispredicted: u64) {
        self.occurrences += 1;
        self.mispredictions += mispredicted;
        self.taken += taken;
        self.transitions += (self.last_taken as u64 == taken ^ 1) as u64;
        self.last_taken = taken as u8;
    }

    fn to_stat(self, ip: u64, instructions: u64) -> BranchStat {
        BranchStat {
            ip,
            occurrences: self.occurrences,
            mispredictions: self.mispredictions,
            taken: self.taken,
            mpki: mpki(self.mispredictions, instructions),
            accuracy: if self.occurrences == 0 {
                1.0
            } else {
                (self.occurrences - self.mispredictions) as f64 / self.occurrences as f64
            },
            direction_entropy: direction_entropy(self.taken, self.occurrences),
            transition_rate: transition_rate(self.transitions, self.occurrences),
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Slot {
    ip: u64,
    counts: Counts,
}

const EMPTY_SLOT: Slot = Slot {
    ip: EMPTY,
    counts: NO_COUNTS,
};

/// log2 of a new table's slot count: room for 64 static branches, which
/// covers most generated programs without a rehash while the table stays
/// a few kilobytes, cheap to create per run.
const INITIAL_BITS: u32 = 7;

/// The first slot probed for `ip` in a table of `2^bits` slots.
#[inline(always)]
fn home(ip: u64, bits: u32) -> usize {
    // Fibonacci hashing: one multiply, top bits as the index.
    (ip.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
}

/// Accumulates per-branch outcomes and derives the most-failed report.
///
/// One open-addressing table, probed linearly and kept at most half full,
/// holds every static branch: almost every dynamic occurrence finds its
/// branch in the first slot it probes and costs a few additions. The
/// table grows with the static branch count and never evicts, so every
/// count, each branch's outcome chain included, is exact whatever the
/// branches' addresses.
#[derive(Clone, Debug)]
pub struct MostFailed {
    slots: Vec<Slot>,
    /// log2 of `slots.len()`.
    bits: u32,
    /// Occupied slots.
    len: usize,
}

impl Default for MostFailed {
    fn default() -> Self {
        Self {
            slots: vec![EMPTY_SLOT; 1 << INITIAL_BITS],
            bits: INITIAL_BITS,
            len: 0,
        }
    }
}

/// Everything a run reports from its per-branch table, derived in one
/// pass over it.
#[derive(Clone, Debug, PartialEq)]
pub struct MostFailedReport {
    /// Number of distinct branch addresses seen (measured or noted).
    pub distinct_branches: u64,
    /// The minimum number of branches whose mispredictions sum to at least
    /// half of the run's mispredictions (the paper's
    /// `num_most_failed_branches`).
    pub half_coverage_count: u64,
    /// The most-mispredicted measured branches, most first; ties break
    /// toward lower addresses so output is deterministic.
    pub top: Vec<BranchStat>,
    /// Every measured branch characterized into the taxonomy classes.
    pub taxonomy: BranchTaxonomy,
}

impl MostFailed {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counts of `ip`, inserted empty on its first occurrence.
    #[inline(always)]
    fn slot(&mut self, ip: u64) -> &mut Counts {
        let mask = self.slots.len() - 1;
        let mut index = home(ip, self.bits);
        loop {
            let held = self.slots[index].ip;
            if held == ip {
                return &mut self.slots[index].counts;
            }
            if held == EMPTY {
                return self.insert(index, ip);
            }
            index = (index + 1) & mask;
        }
    }

    /// Claims the empty slot `index` (the end of `ip`'s probe sequence)
    /// for `ip`, first doubling the table if that would fill it past half.
    #[cold]
    fn insert(&mut self, mut index: usize, ip: u64) -> &mut Counts {
        if 2 * (self.len + 1) > self.slots.len() {
            self.bits += 1;
            let old = std::mem::replace(&mut self.slots, vec![EMPTY_SLOT; 1 << self.bits]);
            for slot in old.into_iter().filter(|s| s.ip != EMPTY) {
                let at = self.vacancy(slot.ip);
                self.slots[at] = slot;
            }
            index = self.vacancy(ip);
        }
        self.len += 1;
        self.slots[index] = Slot {
            ip,
            counts: NO_COUNTS,
        };
        &mut self.slots[index].counts
    }

    /// The first empty slot of `ip`'s probe sequence.
    fn vacancy(&self, ip: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut index = home(ip, self.bits);
        while self.slots[index].ip != EMPTY {
            index = (index + 1) & mask;
        }
        index
    }

    /// Records one measured conditional branch outcome.
    #[inline]
    pub fn record(&mut self, ip: u64, taken: bool, mispredicted: bool) {
        self.slot(ip).add(taken as u64, mispredicted as u64);
    }

    /// Notes a static branch address without attributing an outcome
    /// (unconditional branches, or warm-up occurrences).
    #[inline]
    pub fn note_static(&mut self, ip: u64) {
        self.slot(ip);
    }

    /// Scores one measured batch over its columns: the record at `i` is
    /// conditional when bit 0 of `ops[i]` is set, and conditional records
    /// take their predictions, in order, from the LSB-first words of a
    /// [`PredictionBits`](crate::PredictionBits). Each record is then
    /// recorded as by [`record`](MostFailed::record) or noted as by
    /// [`note_static`](MostFailed::note_static). Returns
    /// `(conditional, mispredictions)`.
    ///
    /// # Panics
    ///
    /// Panics if `predictions` holds fewer bits than there are conditional
    /// records.
    pub(crate) fn record_batch(
        &mut self,
        pcs: &[u64],
        taken: &[u8],
        ops: &[u8],
        predictions: &[u64],
    ) -> (u64, u64) {
        let n = pcs.len().min(taken.len()).min(ops.len());
        let (pcs, taken, ops) = (&pcs[..n], &taken[..n], &ops[..n]);
        let mut bit = 0usize;
        let mut mispredictions = 0u64;
        for i in 0..n {
            let counts = self.slot(pcs[i]);
            if ops[i] & 1 != 0 {
                let outcome = (taken[i] != 0) as u64;
                let mispredicted = ((predictions[bit / 64] >> (bit % 64)) & 1) ^ outcome;
                counts.add(outcome, mispredicted);
                mispredictions += mispredicted;
                bit += 1;
            }
        }
        (bit as u64, mispredictions)
    }

    /// Derives the run's report from the per-branch totals: `limit`
    /// bounds the `top` list, `instructions` is the measured instruction
    /// count behind each branch's MPKI, and `total_mispredictions` the
    /// run's total behind the half-coverage count.
    pub fn report(
        &self,
        limit: usize,
        instructions: u64,
        total_mispredictions: u64,
    ) -> MostFailedReport {
        let mut entries: Vec<(u64, Counts)> = self
            .slots
            .iter()
            .filter(|s| s.ip != EMPTY)
            .map(|s| (s.ip, s.counts))
            .collect();
        entries.sort_unstable_by_key(|&(ip, _)| ip);

        // Address order: the taxonomy's floating-point means then do not
        // depend on where the table put each branch.
        let taxonomy = taxonomy(&entries);

        // Stable on address order, so ties stay toward lower addresses.
        entries.sort_by_key(|&(_, c)| std::cmp::Reverse(c.mispredictions));
        let half_coverage_count = if total_mispredictions == 0 {
            0
        } else {
            let mut acc = 0u64;
            entries
                .iter()
                .position(|(_, c)| {
                    acc += c.mispredictions;
                    2 * acc >= total_mispredictions
                })
                .map_or(entries.len(), |i| i + 1) as u64
        };
        let top = entries
            .iter()
            .filter(|(_, c)| c.occurrences > 0)
            .take(limit)
            .map(|&(ip, c)| c.to_stat(ip, instructions))
            .collect();
        MostFailedReport {
            distinct_branches: entries.len() as u64,
            half_coverage_count,
            top,
            taxonomy,
        }
    }
}

/// Characterizes every measured branch of `entries` (in address order)
/// into the taxonomy classes.
fn taxonomy(entries: &[(u64, Counts)]) -> BranchTaxonomy {
    let mut tax = BranchTaxonomy::default();
    let mut weighted_entropy = 0.0;
    let mut weighted_transition = 0.0;
    let mut occurrences = 0u64;
    for (_, c) in entries {
        if c.occurrences == 0 {
            continue; // never measured (warm-up only or unconditional)
        }
        let h = direction_entropy(c.taken, c.occurrences);
        let rate = transition_rate(c.transitions, c.occurrences);
        tax.measured_branches += 1;
        occurrences += c.occurrences;
        weighted_entropy += h * c.occurrences as f64;
        weighted_transition += rate * c.occurrences as f64;
        for (class, stat) in [
            (entropy_class(h), &mut tax.entropy_classes[..]),
            (transition_class(rate), &mut tax.transition_classes[..]),
        ] {
            stat[class].branches += 1;
            stat[class].occurrences += c.occurrences;
            stat[class].mispredictions += c.mispredictions;
        }
    }
    if occurrences > 0 {
        tax.mean_direction_entropy = weighted_entropy / occurrences as f64;
        tax.mean_transition_rate = weighted_transition / occurrences as f64;
    }
    tax
}

/// Computes MPKI from raw counts.
pub fn mpki(mispredictions: u64, instructions: u64) -> f64 {
    if instructions == 0 {
        0.0
    } else {
        mispredictions as f64 * 1000.0 / instructions as f64
    }
}

/// Computes accuracy from raw counts.
pub fn accuracy(mispredictions: u64, conditional_branches: u64) -> f64 {
    if conditional_branches == 0 {
        1.0
    } else {
        (conditional_branches - mispredictions) as f64 / conditional_branches as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mpki_and_accuracy_formulas() {
        assert_eq!(mpki(5, 1000), 5.0);
        assert_eq!(mpki(0, 0), 0.0);
        assert_eq!(accuracy(25, 100), 0.75);
        assert_eq!(accuracy(0, 0), 1.0);
    }

    #[test]
    fn half_coverage_single_dominant_branch() {
        let mut mf = MostFailed::new();
        for _ in 0..60 {
            mf.record(0xA, true, true);
        }
        for i in 0..40 {
            mf.record(0xB + i % 4, true, true);
        }
        // 0xA holds 60 of 100 mispredictions: one branch suffices.
        assert_eq!(mf.report(0, 0, 100).half_coverage_count, 1);
    }

    #[test]
    fn half_coverage_uniform_spread() {
        let mut mf = MostFailed::new();
        for ip in 0..10u64 {
            for _ in 0..10 {
                mf.record(ip, true, true);
            }
        }
        assert_eq!(mf.report(0, 0, 100).half_coverage_count, 5);
    }

    #[test]
    fn half_coverage_zero_mispredictions() {
        let mut mf = MostFailed::new();
        mf.record(1, true, false);
        assert_eq!(mf.report(0, 0, 0).half_coverage_count, 0);
    }

    #[test]
    fn top_sorts_by_mispredictions_then_ip() {
        let mut mf = MostFailed::new();
        for _ in 0..3 {
            mf.record(0x30, true, true);
        }
        for _ in 0..3 {
            mf.record(0x10, true, true);
        }
        for _ in 0..5 {
            mf.record(0x20, true, true);
        }
        mf.record(0x40, true, false);
        let top = mf.report(10, 1000, 0).top;
        assert_eq!(top[0].ip, 0x20);
        assert_eq!(top[1].ip, 0x10, "tie broken toward lower ip");
        assert_eq!(top[2].ip, 0x30);
        assert_eq!(top[3].ip, 0x40);
        assert_eq!(top[0].mpki, 5.0);
        assert_eq!(top[3].accuracy, 1.0);
    }

    #[test]
    fn top_respects_limit() {
        let mut mf = MostFailed::new();
        for ip in 0..20u64 {
            mf.record(ip, true, true);
        }
        assert_eq!(mf.report(5, 100, 0).top.len(), 5);
        assert_eq!(mf.report(0, 0, 0).distinct_branches, 20);
    }

    #[test]
    fn entropy_extremes() {
        // Always-taken branch: zero entropy, zero transitions.
        let mut mf = MostFailed::new();
        for _ in 0..100 {
            mf.record(0xA, true, false);
        }
        // Alternating branch: maximal entropy and transition rate.
        for i in 0..100 {
            mf.record(0xB, i % 2 == 0, true);
        }
        let top = mf.report(10, 1000, 0).top;
        let a = top.iter().find(|s| s.ip == 0xA).unwrap();
        let b = top.iter().find(|s| s.ip == 0xB).unwrap();
        assert_eq!(a.direction_entropy, 0.0);
        assert_eq!(a.transition_rate, 0.0);
        assert_eq!(a.taken, 100);
        assert!((b.direction_entropy - 1.0).abs() < 1e-12, "50/50 → H = 1");
        assert_eq!(b.transition_rate, 1.0, "strict alternation");
        assert_eq!(b.taken, 50);
    }

    #[test]
    fn taxonomy_classes_and_means() {
        let mut mf = MostFailed::new();
        for _ in 0..50 {
            mf.record(0x10, true, false); // strongly biased + stable
        }
        for i in 0..50 {
            mf.record(0x20, i % 2 == 0, true); // unbiased + alternating
        }
        let tax = mf.report(0, 0, 0).taxonomy;
        assert_eq!(tax.measured_branches, 2);
        assert_eq!(tax.entropy_classes[0].branches, 1, "strongly_biased");
        assert_eq!(tax.entropy_classes[3].branches, 1, "unbiased");
        assert_eq!(tax.transition_classes[0].branches, 1, "stable");
        assert_eq!(tax.transition_classes[2].branches, 1, "alternating");
        assert_eq!(tax.entropy_classes[3].mispredictions, 50);
        assert!((tax.mean_direction_entropy - 0.5).abs() < 1e-9);
        // 49 transitions over 49 consecutive pairs on 0x20, none on 0x10;
        // weighted by occurrences: (0*50 + 1*50) / 100.
        assert!((tax.mean_transition_rate - 0.5).abs() < 1e-9);
    }

    #[test]
    fn taxonomy_survives_slot_eviction() {
        // Two addresses with the same home slot: the second probes past
        // the first, and both keep exact totals.
        let a = 0x100;
        let mut b = 0x101;
        while home(b, INITIAL_BITS) != home(a, INITIAL_BITS) {
            b += 1;
        }
        let mut mf = MostFailed::new();
        for i in 0..40 {
            mf.record(a, true, false);
            mf.record(b, i % 2 == 0, true);
        }
        let tax = mf.report(0, 0, 0).taxonomy;
        assert_eq!(tax.measured_branches, 2);
        let top = mf.report(10, 1000, 0).top;
        let sa = top.iter().find(|s| s.ip == a).unwrap();
        let sb = top.iter().find(|s| s.ip == b).unwrap();
        assert_eq!(sa.occurrences, 40);
        assert_eq!(sa.taken, 40);
        assert_eq!(sb.occurrences, 40);
        assert_eq!(sb.taken, 20);
        // Each keeps its own outcome chain: b alternates strictly.
        assert_eq!(sb.transition_rate, 1.0);
        assert_eq!(sa.transition_rate, 0.0);
    }

    #[test]
    fn colliding_branches_match_a_hash_map_reference() {
        // Three alternating branches share a home slot, and 600 more
        // branches make the table grow past its initial size while they
        // run. Every count, transitions included, must equal a plain
        // per-address map's.
        let a = 0x4000;
        let mut b = a + 4;
        while home(b, INITIAL_BITS) != home(a, INITIAL_BITS) {
            b += 4;
        }
        let mut c = b + 4;
        while home(c, INITIAL_BITS) != home(a, INITIAL_BITS) {
            c += 4;
        }
        let mut mf = MostFailed::new();
        // ip -> (occurrences, mispredictions, taken, transitions, last)
        let mut reference: std::collections::HashMap<u64, (u64, u64, u64, u64, Option<bool>)> =
            std::collections::HashMap::new();
        let mut rng = mbp_utils::Xorshift64::new(7);
        for i in 0..6000u64 {
            let r = rng.next_u64();
            let (ip, taken) = match i % 4 {
                0 => (a, i % 8 == 0),
                1 => (b, (i / 4) % 2 == 1),
                2 => (c, r & 1 == 0),
                _ => (0x10_0000 + (r >> 40) % 600 * 4, r & 2 == 0),
            };
            let mispredicted = r & 0xc == 0;
            if r & 0x30 == 0 {
                mf.note_static(ip); // an unmeasured occurrence between outcomes
                reference.entry(ip).or_insert((0, 0, 0, 0, None));
                continue;
            }
            mf.record(ip, taken, mispredicted);
            let e = reference.entry(ip).or_insert((0, 0, 0, 0, None));
            e.0 += 1;
            e.1 += mispredicted as u64;
            e.2 += taken as u64;
            e.3 += (e.4 == Some(!taken)) as u64;
            e.4 = Some(taken);
        }
        let report = mf.report(usize::MAX, 1000, 0);
        assert_eq!(report.distinct_branches, reference.len() as u64);
        let measured = reference.values().filter(|e| e.0 > 0).count();
        assert_eq!(report.top.len(), measured);
        for stat in &report.top {
            let (occurrences, mispredictions, taken, transitions, _) = reference[&stat.ip];
            assert_eq!(stat.occurrences, occurrences, "{:#x}", stat.ip);
            assert_eq!(stat.mispredictions, mispredictions, "{:#x}", stat.ip);
            assert_eq!(stat.taken, taken, "{:#x}", stat.ip);
            assert_eq!(
                stat.transition_rate,
                transition_rate(transitions, occurrences),
                "{:#x}",
                stat.ip
            );
        }
    }

    #[test]
    fn batch_scoring_matches_per_record_calls() {
        // Unconditional records in every position of a word, including
        // after the last prediction, with predictions crossing words.
        let n = 300usize;
        let mut rng = mbp_utils::Xorshift64::new(11);
        let pcs: Vec<u64> = (0..n).map(|_| 0x100 + (rng.next_u64() % 40) * 4).collect();
        let taken: Vec<u8> = (0..n).map(|_| (rng.next_u64() & 1) as u8).collect();
        let mut ops: Vec<u8> = (0..n)
            .map(|_| !rng.next_u64().is_multiple_of(3) as u8)
            .collect();
        ops[n - 1] = 0;
        let mut predictions = crate::PredictionBits::new();
        let mut per_record = MostFailed::new();
        let (mut conditional, mut mispredictions) = (0, 0);
        for i in 0..n {
            if ops[i] & 1 == 0 {
                per_record.note_static(pcs[i]);
                continue;
            }
            let predicted = rng.next_u64() & 1 == 1;
            predictions.push(predicted);
            let mispredicted = predicted != (taken[i] != 0);
            per_record.record(pcs[i], taken[i] != 0, mispredicted);
            conditional += 1;
            mispredictions += mispredicted as u64;
        }
        let mut batched = MostFailed::new();
        let totals = batched.record_batch(&pcs, &taken, &ops, predictions.words());
        assert_eq!(totals, (conditional, mispredictions));
        assert_eq!(
            batched.report(50, 1000, mispredictions),
            per_record.report(50, 1000, mispredictions)
        );
    }

    #[test]
    fn taxonomy_empty() {
        let mf = MostFailed::new();
        assert_eq!(mf.report(0, 0, 0).taxonomy, BranchTaxonomy::default());
    }
}
