//! Named per-layer numbers summed across jobs.

use std::collections::BTreeMap;

fn is_time(name: &str) -> bool {
    name.ends_with("_s")
}

/// Named sums. Names ending in `_s` are host times in seconds; every
/// other entry is a count, which must repeat exactly across runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally(BTreeMap<&'static str, f64>);

impl Tally {
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_insert(0.0) += value;
    }

    /// Adds a count. Counts stay exact in an `f64` up to 2^53.
    pub fn count(&mut self, name: &'static str, value: u64) {
        self.add(name, value as f64);
    }

    pub fn merge(&mut self, other: &Tally) {
        self.merge_scaled(other, 1.0);
    }

    /// Adds `other`, its host times multiplied by `factor`.
    pub fn merge_scaled(&mut self, other: &Tally, factor: f64) {
        for (&name, &v) in &other.0 {
            self.add(name, if is_time(name) { v * factor } else { v });
        }
    }

    /// The entry, 0 when absent.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// The count entries (everything but host times).
    pub fn counts(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0
            .iter()
            .filter(|(n, _)| !is_time(n))
            .map(|(&n, &v)| (n, v))
    }
}
