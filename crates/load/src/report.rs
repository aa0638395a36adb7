//! The snapshot writer: `BENCH_serving.json`, one `"id": value` row per
//! counter, in the shape the `counters` bin writes `BENCH_counters.json`.
//!
//! Every row is a pure function of the code and the seeded schedule, so
//! the committed file is the expectation: CI regenerates it in place and
//! `git diff --exit-code` is the gate.

use std::path::{Path, PathBuf};

/// One snapshot row: a counter and its value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// Counter id within the group, e.g. `counters/phase1/cache_hits`.
    pub id: String,
    /// The recorded value.
    pub value: u64,
}

impl Row {
    /// Shorthand constructor.
    pub fn new(id: impl Into<String>, value: u64) -> Row {
        Row { id: id.into(), value }
    }
}

/// Render the snapshot JSON for `group`.
pub fn snapshot_json(group: &str, rows: &[Row]) -> String {
    let mut body = format!("{{\n  \"group\": \"{group}\",\n  \"benchmarks\": {{\n");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        body.push_str(&format!("    \"{}\": {}{comma}\n", row.id, row.value));
    }
    body.push_str("  }\n}\n");
    body
}

/// Write `BENCH_<group>.json` under `dir` and return its path.
pub fn write_snapshot(dir: &Path, group: &str, rows: &[Row]) -> std::io::Result<PathBuf> {
    let path = dir.join(format!("BENCH_{group}.json"));
    std::fs::write(&path, snapshot_json(group, rows))?;
    Ok(path)
}

/// The snapshot directory: `CVOPT_BENCH_DIR`, defaulting to the current
/// directory (same contract as the `counters` bin).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(std::env::var("CVOPT_BENCH_DIR").unwrap_or_else(|_| ".".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_shape_matches_the_bench_harness() {
        let rows =
            [Row::new("counters/phase1/cache_hits", 17), Row::new("counters/phase2/evictions", 3)];
        let json = snapshot_json("serving", &rows);
        assert!(json.contains("\"group\": \"serving\""));
        assert!(json.contains("    \"counters/phase1/cache_hits\": 17,\n"));
        // Valid JSON seam: last row carries no trailing comma.
        assert!(json.ends_with("    \"counters/phase2/evictions\": 3\n  }\n}\n"));
    }

    #[test]
    fn write_snapshot_names_the_file_after_the_group() {
        let dir = std::env::temp_dir().join(format!("cvopt_load_report_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = write_snapshot(&dir, "serving", &[Row::new("counters/x", 1)]).unwrap();
        assert_eq!(path.file_name().unwrap(), "BENCH_serving.json");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"counters/x\""));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
