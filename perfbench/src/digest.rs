//! Output digests, reference digests and request-conservation checks.

use std::collections::BTreeMap;

use pim_core::{CellValue, ExperimentOutput, Table};

/// Reference digests recorded from this tree, one line per operation:
/// `<workload> <seed|*> <op> <digest>`; `*` marks an operation whose
/// output does not depend on the seed.
const REFERENCE: &str = include_str!("../reference.txt");

/// FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// Digest of an experiment's simulated output: its tables and
/// histograms exactly as `--format json` serializes them. Notes are
/// prose and left out.
pub fn digest(out: &ExperimentOutput) -> u64 {
    let tables = serde_json::to_string(&out.tables).expect("tables serialize");
    let hists = serde_json::to_string(&out.histograms).expect("histograms serialize");
    fnv1a(format!("{tables}\n{hists}").as_bytes())
}

/// Reference digests for one workload at one seed, keyed by operation.
#[derive(Debug, Default)]
pub struct References {
    by_op: BTreeMap<String, u64>,
}

impl References {
    /// The recorded digests that apply to `workload` at `seed`:
    /// seed-invariant ones plus those recorded for this seed.
    pub fn load(workload: &str, seed: u64) -> References {
        Self::parse(REFERENCE, workload, seed)
    }

    fn parse(text: &str, workload: &str, seed: u64) -> References {
        let seed = seed.to_string();
        let mut by_op = BTreeMap::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let f: Vec<&str> = line.split_whitespace().collect();
            if let [w, s, op, d] = f[..] {
                if w == workload && (s == "*" || s == seed) {
                    let d = u64::from_str_radix(d, 16).expect("reference digests are hex");
                    by_op.insert(op.to_string(), d);
                }
            }
        }
        References { by_op }
    }

    /// The reference digest of `op`, if one was recorded.
    pub fn get(&self, op: &str) -> Option<u64> {
        self.by_op.get(op).copied()
    }

    /// Number of operations with a reference.
    pub fn len(&self) -> usize {
        self.by_op.len()
    }
}

fn column(t: &Table, name: &str) -> Option<usize> {
    t.columns.iter().position(|c| c.name == name)
}

fn uint(v: &CellValue) -> u64 {
    match v {
        CellValue::UInt(n) => *n,
        other => panic!("request counts are unsigned integers, got {other:?}"),
    }
}

/// The offered-load multiplier of every load-point row that carries
/// request counts, and the rows among them that break
/// `requests == completed + rejected (+ timed out)`.
pub fn check_conservation(out: &ExperimentOutput) -> (Vec<f64>, Vec<String>) {
    let mut loads = Vec::new();
    let mut violations = Vec::new();
    for t in &out.tables {
        let (Some(load), Some(req), Some(done), Some(rej)) = (
            column(t, "load"),
            column(t, "requests"),
            column(t, "completed"),
            column(t, "rejected"),
        ) else {
            continue;
        };
        let timed_out = column(t, "timed out");
        for (i, row) in t.rows.iter().enumerate() {
            let CellValue::Float(l) = row[load] else {
                panic!("load multipliers are floats, got {:?}", row[load]);
            };
            loads.push(l);
            let offered = uint(&row[req]);
            let accounted =
                uint(&row[done]) + uint(&row[rej]) + timed_out.map_or(0, |c| uint(&row[c]));
            if offered != accounted {
                violations.push(format!(
                    "{} row {i}: {offered} requests but {accounted} accounted",
                    out.experiment
                ));
            }
        }
    }
    (loads, violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_core::Column;

    #[test]
    fn references_select_workload_and_seed() {
        let text = "# comment\nw 1 a 0f\nw * b ff\nw 2 a 10\nv 1 a 11\n";
        let r = References::parse(text, "w", 1);
        assert_eq!(r.get("a"), Some(0x0f));
        assert_eq!(r.get("b"), Some(0xff));
        assert_eq!(r.len(), 2);
        assert_eq!(References::parse(text, "w", 3).get("a"), None);
    }

    #[test]
    fn conservation_flags_unaccounted_requests() {
        let mut out = ExperimentOutput::new("resilience", "");
        let mut t = Table::new(
            "t",
            vec![
                Column::float("load", 2),
                Column::uint("requests"),
                Column::uint("completed"),
                Column::uint("rejected"),
                Column::uint("timed out"),
            ],
        );
        t.push(vec![
            0.5.into(),
            10u64.into(),
            7u64.into(),
            2u64.into(),
            1u64.into(),
        ]);
        t.push(vec![
            1.5.into(),
            10u64.into(),
            7u64.into(),
            2u64.into(),
            0u64.into(),
        ]);
        out.tables.push(t);
        let (loads, bad) = check_conservation(&out);
        assert_eq!(loads, vec![0.5, 1.5]);
        assert_eq!(bad.len(), 1);
        assert!(bad[0].contains("row 1"));
    }

    #[test]
    fn digest_ignores_notes_but_not_rows() {
        let mut a = ExperimentOutput::new("x", "");
        let mut t = Table::new("t", vec![Column::uint("n")]);
        t.push(vec![1u64.into()]);
        a.tables.push(t);
        let mut b = a.clone();
        b.notes.push("prose".to_string());
        assert_eq!(digest(&a), digest(&b));
        b.tables[0].rows[0][0] = 2u64.into();
        assert_ne!(digest(&a), digest(&b));
    }
}
