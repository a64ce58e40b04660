//! The expected-outcome record: one line per job at the default seed,
//! `<job key> <Outcome::record fields>`, kept in `expected/<workload>.txt`.

use std::collections::HashMap;
use std::path::PathBuf;

use crate::workload::Workload;

fn path(w: Workload) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(format!("{}.txt", w.name()))
}

/// The record of `w`, keyed by job.
pub fn load(w: Workload) -> Result<HashMap<String, String>, String> {
    let p = path(w);
    let text = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
    Ok(text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .map(|(k, v)| (k.to_owned(), v.to_owned()))
        .collect())
}

/// Writes `lines` (`(key, fields)`, sorted by key) as the record of `w`.
pub fn store(w: Workload, seed: u64, mut lines: Vec<(String, String)>) -> Result<(), String> {
    lines.sort();
    let mut text = format!(
        "# Expected outcomes of {} at seed {seed}; regenerate with --write-record.\n",
        w.name()
    );
    for (k, v) in lines {
        text.push_str(&format!("{k} {v}\n"));
    }
    let p = path(w);
    std::fs::write(&p, text).map_err(|e| format!("{}: {e}", p.display()))
}
