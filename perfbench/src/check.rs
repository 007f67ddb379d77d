//! Exactness checks: golden values for the default seed, and the tally of
//! simulate calls that returned `Ok` and passed every check.

use std::collections::BTreeMap;
use std::time::Instant;

/// Golden outputs, one `workload key value` line each (`#` starts a comment).
const GOLDEN: &str = include_str!("../golden.txt");

/// The seed the golden values were recorded with.
pub const DEFAULT_SEED: u64 = 1;

/// What a run compares its deterministic outputs against.
#[derive(Debug)]
pub enum Expect {
    /// Compare every output with its recorded value.
    Golden(BTreeMap<String, u64>),
    /// A held-out seed: only the counter identities are checked.
    IdentitiesOnly,
    /// Record mode: compare nothing; the caller prints the outputs as
    /// golden lines.
    Record,
}

impl Expect {
    /// Golden values of `workload`, if `seed` is the one they were recorded
    /// with (or the workload's outputs do not depend on the seed).
    pub fn for_run(workload: &str, seed: u64, seed_independent: bool) -> Expect {
        if seed != DEFAULT_SEED && !seed_independent {
            return Expect::IdentitiesOnly;
        }
        let values = GOLDEN
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .filter_map(|l| {
                let mut parts = l.split_whitespace();
                let (w, key, value) = (parts.next()?, parts.next()?, parts.next()?);
                (w == workload).then(|| (key.to_string(), value.parse().ok()))
            })
            .map(|(key, value)| (key, value.expect("golden values are whole numbers")))
            .collect();
        Expect::Golden(values)
    }
}

/// Outcome of one pass over a workload's simulate calls.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Simulate calls made.
    pub attempted: u64,
    /// Calls that returned `Ok` and passed every check.
    pub ok: u64,
    /// Calls that failed in the documented way (a known defect).
    pub known_defects: u64,
    /// Calls that failed any other way: an unexpected error, a broken
    /// identity or a golden mismatch.
    pub failed: u64,
    /// Simulated translation requests, summed over the returned results.
    pub requests: u64,
    /// Simulated cycles summed over the design-point calls.
    pub model_cycles: u64,
    /// The paper's normalized-performance metric for the pass.
    pub norm_perf: f64,
    /// Every deterministic output, by key (compared across passes too).
    pub outputs: BTreeMap<String, u64>,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// Host seconds of each simulate call, in call order (the same order
    /// every pass).
    pub op_s: Vec<f64>,
}

impl Tally {
    /// Runs one simulate call and records its host time.
    pub fn timed<T>(&mut self, call: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = call();
        self.op_s.push(start.elapsed().as_secs_f64());
        out
    }

    /// Records one simulate call. `values` are its deterministic outputs
    /// (checked against `expect`), `identities` its named counter
    /// identities; the call counts as ok only if everything holds.
    pub fn op(
        &mut self,
        expect: &Expect,
        key: &str,
        values: &[(&str, u64)],
        identities: &[(&str, bool)],
    ) {
        self.attempted += 1;
        let mut ok = true;
        for &(name, holds) in identities {
            if !holds {
                ok = false;
                self.problems.push(format!("{key}: identity {name} broken"));
            }
        }
        for &(name, value) in values {
            let full = format!("{key}/{name}");
            match expect {
                Expect::Golden(golden) => {
                    if golden.get(&full) != Some(&value) {
                        ok = false;
                        self.problems.push(format!(
                            "{full}: got {value}, recorded {:?}",
                            golden.get(&full)
                        ));
                    }
                }
                Expect::IdentitiesOnly | Expect::Record => {}
            }
            self.outputs.insert(full, value);
        }
        if ok {
            self.ok += 1;
        } else {
            self.failed += 1;
        }
    }

    /// Records a call that returned an unexpected error.
    pub fn error(&mut self, key: &str, error: &dyn std::fmt::Display) {
        self.attempted += 1;
        self.failed += 1;
        self.problems.push(format!("{key}: {error}"));
    }

    /// Records a call that failed the documented way.
    pub fn known_defect(&mut self) {
        self.attempted += 1;
        self.known_defects += 1;
    }
}

/// Geometric mean of a non-empty list of positive ratios.
pub fn geomean(ratios: &[f64]) -> f64 {
    assert!(!ratios.is_empty(), "geomean of no ratios");
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}
