//! # ubiqos-bench
//!
//! Benchmark and reproduction harness for the *ubiqos* reproduction of
//! Gu & Nahrstedt, ICDCS 2002. Each Criterion bench regenerates one
//! artifact of the paper's evaluation section before timing its kernel:
//!
//! | Bench target | Paper artifact |
//! |---|---|
//! | `table1_quality` | Table 1 — heuristic vs random vs optimal quality |
//! | `fig3_qos` | Figure 3 — end-to-end QoS of four configuration events |
//! | `fig4_overhead` | Figure 4 — per-event overhead breakdown |
//! | `fig5_success` | Figure 5 — success rate of fixed/random/heuristic |
//! | `scaling` | The O(V+E) / polynomial complexity claims + ablations |
//! | `osd_solver` | Branch-and-bound bound ablation + serial vs parallel |
//!
//! Run everything with `cargo bench --workspace`; each bench prints the
//! reproduced rows/series to stdout, then reports Criterion timings. The
//! shared reproduction entry points live in this library so integration
//! tests can assert on the same data the benches print.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod configure;
pub mod federation;
pub mod hist;
pub mod osd;

use ubiqos_runtime::FaultCampaignConfig;
use ubiqos_sim::{Fig5Config, Fig5Outcome, Table1Config, Table1Report, WorkloadConfig};

/// The Table 1 configuration used by the reproduction harness: the
/// paper's 150 graphs with ablation rows enabled.
pub fn table1_config() -> Table1Config {
    Table1Config {
        include_ablations: true,
        ..Table1Config::default()
    }
}

/// Runs the full Table 1 reproduction.
pub fn reproduce_table1() -> Table1Report {
    ubiqos_sim::run_table1(&table1_config())
}

/// The Figure 5 configuration used by the reproduction harness: the
/// paper's full 5000-request, 1000-hour workload.
pub fn fig5_config() -> Fig5Config {
    Fig5Config::default()
}

/// A scaled-down Figure 5 configuration for timing kernels (same shape,
/// ~20x less work).
pub fn fig5_config_small() -> Fig5Config {
    Fig5Config {
        workload: WorkloadConfig {
            requests: 250,
            horizon_h: 50.0,
            ..WorkloadConfig::default()
        },
        window_h: 10.0,
        ..Fig5Config::default()
    }
}

/// Runs the full Figure 5 reproduction.
pub fn reproduce_fig5() -> Fig5Outcome {
    ubiqos_sim::scenario::run_fig5(&fig5_config())
}

/// The fault-injection campaign the `repro -- faults` artifact runs: a
/// larger space and longer horizon than the unit-test default, with
/// correlated crash scopes and flapping links enabled, still fast in
/// release builds.
pub fn faults_config() -> FaultCampaignConfig {
    FaultCampaignConfig {
        seed: 0x1cdc_2002,
        devices: 6,
        requests: 800,
        horizon_h: 48.0,
        faults: 320,
        min_factor: 0.25,
        scope_max: 2,
        flapping_links: 1,
        ..FaultCampaignConfig::default()
    }
}

/// The same campaign with staged recovery disabled (drop-on-fault, the
/// pre-ladder behaviour). The `repro -- faults` artifact runs both and
/// reports the drop-count delta — the degradation ladder's payoff at an
/// identical admission workload.
pub fn faults_config_strict() -> FaultCampaignConfig {
    FaultCampaignConfig {
        staged_recovery: false,
        ..faults_config()
    }
}

/// An imperfect-detection variant of [`faults_config`]: the identical
/// seed, workload, and fault budget, plus network partitions, seeded
/// heartbeat loss, and a nonzero suspicion grace window. The
/// `repro -- faults` artifact runs one campaign per grace rung and
/// reports the resulting detection-lag ladder in `BENCH_faults.json`.
pub fn faults_config_imperfect(grace_h: f64) -> FaultCampaignConfig {
    FaultCampaignConfig {
        detection_grace_h: grace_h,
        heartbeat_period_h: 0.25,
        partitions: 4,
        partition_max: 2,
        heartbeat_loss: 0.1,
        ..faults_config()
    }
}

/// Writes reproduction data as pretty JSON under `target/repro/`, so
/// figure data survives the bench run for plotting. Failures are
/// reported but never abort a bench.
pub fn dump_json<T: serde::Serialize>(file: &str, data: &T) {
    let dir = std::path::Path::new("target").join("repro");
    let path = dir.join(file);
    let result = std::fs::create_dir_all(&dir)
        .map_err(|e| e.to_string())
        .and_then(|()| serde_json::to_string_pretty(data).map_err(|e| e.to_string()))
        .and_then(|json| std::fs::write(&path, json).map_err(|e| e.to_string()));
    match result {
        Ok(()) => println!("(figure data written to {})", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The CI `perfect-detection` job's baseline pin: the default
    /// `repro -- faults` campaign runs in perfect-detection mode and
    /// must keep reproducing the artifact digest recorded when the
    /// campaign was introduced. Imperfect-detection machinery (leases,
    /// heartbeats, partitions) must stay invisible at grace zero.
    #[test]
    fn repro_faults_baseline_digest_is_pinned() {
        let cfg = faults_config();
        assert!(cfg.perfect_detection(), "the artifact baseline is grace-0");
        let outcome =
            ubiqos_runtime::run_fault_campaign(&cfg).expect("campaign holds its invariants");
        assert_eq!(
            outcome.report.log_digest, 0xe410_69cc_6f8b_564d,
            "BENCH_faults.json baseline digest drifted"
        );
        assert_eq!(outcome.report.schema_version, ubiqos::BENCH_SCHEMA_VERSION);
        assert_eq!(outcome.report.suspicions, 0);
        assert_eq!(outcome.report.stale_views, 0);
    }

    #[test]
    fn configs_are_paper_scale() {
        let t1 = table1_config();
        assert_eq!(t1.graphs, 150);
        assert!(t1.include_ablations);
        let f5 = fig5_config();
        assert_eq!(f5.workload.requests, 5000);
        assert_eq!(f5.workload.horizon_h, 1000.0);
        assert_eq!(f5.window_h, 50.0);
        assert!(fig5_config_small().workload.requests < 1000);
    }
}
