//! Shared rendering helpers for the bench artifacts.
//!
//! Every `BENCH_*.json` artifact prints an aligned `|`-separated table
//! plus a handful of histogram summaries; before this module each
//! report hand-rolled its own `write!` column formatting
//! ([`configure`], [`federation`]). [`TextTable`] centralises the
//! alignment so new artifacts get identical table style for free, and
//! the histogram helpers keep the quantile cells ([`p99_us`]) and the
//! shard-attributed queue-wait summaries ([`shard_wait_summary`])
//! consistent across reports.
//!
//! [`configure`]: crate::configure
//! [`federation`]: crate::federation

use std::fmt::Write as _;
use ubiqos_runtime::{PowHistogram, StageTimes};

/// Cell alignment within a [`TextTable`] column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    /// Pad on the right (labels).
    Left,
    /// Pad on the left (numbers).
    Right,
}

/// An aligned `|`-separated text table: the header row is emitted on
/// construction, each [`TextTable::row`] call appends one padded line,
/// and [`TextTable::finish`] hands the rendered block back. Column
/// widths are the max of the header and the declared width, so headers
/// and cells always line up.
#[derive(Debug)]
pub struct TextTable {
    widths: Vec<usize>,
    aligns: Vec<Align>,
    out: String,
}

impl TextTable {
    /// Starts a table from `(header, min_width, alignment)` columns and
    /// writes the header row.
    pub fn new(cols: &[(&str, usize, Align)]) -> Self {
        let widths = cols.iter().map(|(h, w, _)| (*w).max(h.len())).collect();
        let aligns = cols.iter().map(|&(_, _, a)| a).collect();
        let mut table = TextTable {
            widths,
            aligns,
            out: String::new(),
        };
        let headers: Vec<String> = cols.iter().map(|(h, _, _)| (*h).to_string()).collect();
        table.row(&headers);
        table
    }

    /// Appends one row. Cell count must match the header.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.widths.len(), "row arity matches header");
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                self.out.push_str(" | ");
            }
            let w = self.widths[i];
            match self.aligns[i] {
                Align::Left => {
                    let _ = write!(self.out, "{cell:<w$}");
                }
                Align::Right => {
                    let _ = write!(self.out, "{cell:>w$}");
                }
            }
        }
        self.out.push('\n');
    }

    /// The rendered table.
    pub fn finish(self) -> String {
        self.out
    }
}

/// The quantile cell the artifacts print for a latency histogram: the
/// upper bound of the bucket containing the 99th percentile, in the
/// histogram's native unit (µs for queue waits).
pub fn p99_us(hist: &PowHistogram) -> u64 {
    hist.quantile_upper(0.99)
}

/// The match/drift cell for byte-identity columns.
pub fn match_cell(matches: bool) -> &'static str {
    if matches {
        "=="
    } else {
        "DRIFT"
    }
}

/// Renders the shard-attributed queue-wait breakdown of a
/// [`StageTimes`]: one `s<idx>:p99=<us>µs(<n>)` clause per non-empty
/// shard slot, or `"(no shard queues)"` when nothing was recorded —
/// the per-shard view behind the merged [`p99_us`] cell.
pub fn shard_wait_summary(stages: &StageTimes) -> String {
    let mut clauses: Vec<String> = stages
        .shard_queue_wait_us
        .iter()
        .enumerate()
        .filter(|(_, h)| h.total() > 0)
        .map(|(s, h)| format!("s{s}:p99={}µs({})", p99_us(h), h.total()))
        .collect();
    if clauses.is_empty() {
        return "(no shard queues)".to_string();
    }
    let mut out = clauses.remove(0);
    for clause in clauses {
        let _ = write!(out, " {clause}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_headers_and_cells() {
        let mut t = TextTable::new(&[
            ("name", 4, Align::Left),
            ("n", 5, Align::Right),
            ("speedup", 3, Align::Right),
        ]);
        t.row(&["a".into(), "12".into(), "1.50x".into()]);
        let out = t.finish();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "name |     n | speedup");
        assert_eq!(lines[1], "a    |    12 |   1.50x");
        // Every row is the same width: headers widen narrow columns.
        assert_eq!(lines[0].len(), lines[1].len());
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn table_rejects_mismatched_rows() {
        TextTable::new(&[("a", 1, Align::Left)]).row(&[]);
    }

    #[test]
    fn shard_summary_reports_only_active_slots() {
        let mut stages = StageTimes::default();
        assert_eq!(shard_wait_summary(&stages), "(no shard queues)");
        stages.record_shard_queue_wait(1, 100);
        stages.record_shard_queue_wait(1, 200);
        let summary = shard_wait_summary(&stages);
        assert!(summary.starts_with("s1:p99="), "{summary}");
        assert!(summary.contains("(2)"), "{summary}");
        assert!(!summary.contains("s0:"), "slot 0 is empty: {summary}");
        assert_eq!(
            p99_us(&stages.queue_wait_us),
            p99_us(&stages.shard_queue_wait_us[1])
        );
    }

    #[test]
    fn match_cells() {
        assert_eq!(match_cell(true), "==");
        assert_eq!(match_cell(false), "DRIFT");
    }
}
