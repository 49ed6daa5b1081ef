//! `repro` — regenerate every table and figure of the paper's evaluation
//! in one run, without Criterion.
//!
//! ```sh
//! cargo run --release -p ubiqos-bench --bin repro            # everything
//! cargo run --release -p ubiqos-bench --bin repro -- table1  # one artifact
//! ```
//!
//! Valid artifact names are the keys of [`ARTIFACTS`]. Figure data is
//! also written as JSON under `target/repro/`; the `osd` solver
//! benchmark additionally writes `BENCH_osd.json`, the `faults`
//! campaign `BENCH_faults.json`, the `configure` cache/warm-start
//! benchmark `BENCH_configure.json`, and the `federation` shard sweep
//! `BENCH_federation.json` in the working directory. `federation` reads
//! `UBIQOS_FED_ARRIVALS` (default 20000) plus `UBIQOS_FED_SHARDS` (a
//! comma-separated shard-count list, default `1,2,4,8`),
//! `UBIQOS_FED_LOSS` (comma-separated drop rates), and
//! `UBIQOS_FED_LOSS_SHARDS` (shard count of the loss and crash sweeps,
//! default `min(max(UBIQOS_FED_SHARDS), 4)`), plus `UBIQOS_FED_CRASHES`
//! (comma-separated `crashes@loss` cells, default `4@0.0,4@0.1`) so CI
//! smoke runs can shrink the sweeps without touching the full nightly
//! campaigns. `osd` reads `UBIQOS_OSD_INSTANCES` (default 25),
//! `UBIQOS_OSD_LARGE_INSTANCES` (default 3), `UBIQOS_OSD_LARGE_NODES`
//! (a comma-separated node-count list, default `48,64,100`) and
//! `UBIQOS_OSD_BUDGET` (default 1000000, the raised-limit exhaustive
//! run's node cap) — and *asserts* the large-graph claims: certified
//! gap ≤ 2%, ≥ 10× fewer expanded nodes than the budgeted exhaustive.

use ubiqos_sim::{Fig5Config, Policy};

/// The artifact dispatch table: one `(name, runner)` row per
/// reproduction. Adding an artifact means adding a row here — `main`'s
/// argument handling and the usage message derive from this table.
const ARTIFACTS: &[(&str, fn())] = &[
    ("table1", table1),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("multi-seed", multi_seed),
    ("osd", osd),
    ("faults", faults),
    ("configure", configure),
    ("federation", federation),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let known = |arg: &str| ARTIFACTS.iter().any(|&(name, _)| name == arg);
    if let Some(unknown) = args.iter().find(|a| !known(a)) {
        let names: Vec<&str> = ARTIFACTS.iter().map(|&(name, _)| name).collect();
        eprintln!(
            "unknown artifact {unknown:?}; expected one of: {}",
            names.join(" ")
        );
        std::process::exit(2);
    }
    for &(name, run) in ARTIFACTS {
        if args.is_empty() || args.iter().any(|a| a == name) {
            run();
        }
    }
}

/// Writes a headline artifact next to the sources so the claim is
/// inspectable without digging through `target/`.
fn write_bench<T: serde::Serialize>(file: &str, report: &T) {
    match serde_json::to_string_pretty(report) {
        Ok(json) => match std::fs::write(file, json) {
            Ok(()) => println!("(benchmark written to {file})"),
            Err(e) => eprintln!("warning: could not write {file}: {e}"),
        },
        Err(e) => eprintln!("warning: could not serialize {file}: {e}"),
    }
}

fn table1() {
    println!("================ Table 1 ================");
    let report = ubiqos_bench::reproduce_table1();
    println!("{}", report.render());
    println!(
        "paper: random 25%/0%, heuristic 91%/60%, optimal 100%/100% ({} infeasible graphs skipped)\n",
        report.skipped_infeasible
    );
    ubiqos_bench::dump_json("table1.json", &report);
}

fn fig3() {
    println!("================ Figure 3 ================");
    let reports = ubiqos_runtime::scenario::run_prototype_scenario().expect("scenario configures");
    for r in &reports {
        print!("{}", r.render());
    }
    println!();
    ubiqos_bench::dump_json("fig3.json", &reports);
}

fn fig4() {
    println!("================ Figure 4 ================");
    let reports = ubiqos_runtime::scenario::run_prototype_scenario().expect("scenario configures");
    println!(
        "{:<5} | {:>12} | {:>12} | {:>12} | {:>14} | {:>9}",
        "event", "composition", "distribution", "downloading", "init/handoff", "total"
    );
    for r in &reports {
        let o = &r.overhead;
        println!(
            "{:<5} | {:>10.0}ms | {:>10.0}ms | {:>10.0}ms | {:>12.0}ms | {:>7.0}ms",
            r.label,
            o.composition_ms,
            o.distribution_ms,
            o.downloading_ms,
            o.init_or_handoff_ms,
            o.total_ms()
        );
    }
    println!();
    ubiqos_bench::dump_json("fig4.json", &reports);
}

fn fig5() {
    println!("================ Figure 5 ================");
    let outcome = ubiqos_bench::reproduce_fig5();
    println!("{}", outcome.render());
    for policy in [
        Policy::Fixed,
        Policy::FixedPlanned,
        Policy::Random,
        Policy::Heuristic,
    ] {
        let c = outcome.curve(policy);
        println!("overall [{:>13}]: {:.1}%", c.policy, c.overall * 100.0);
    }
    println!();
    ubiqos_bench::dump_json("fig5.json", &outcome);
}

fn multi_seed() {
    println!("================ Figure 5 robustness (5 seeds) ================");
    let cfg = Fig5Config {
        workload: ubiqos_sim::WorkloadConfig {
            requests: 1000,
            horizon_h: 200.0,
            ..ubiqos_sim::WorkloadConfig::default()
        },
        ..Fig5Config::default()
    };
    let summaries = ubiqos_sim::run_fig5_multi(&cfg, &[1, 7, 42, 1001, 0x1cdc_2002]);
    println!(
        "{:<14} | {:>6} | {:>6} | {:>6}",
        "policy", "mean", "min", "max"
    );
    for s in &summaries {
        println!(
            "{:<14} | {:>5.1}% | {:>5.1}% | {:>5.1}%",
            s.policy,
            s.mean * 100.0,
            s.min * 100.0,
            s.max * 100.0
        );
    }
    println!();
    ubiqos_bench::dump_json("fig5_multi_seed.json", &summaries);
}

fn osd() {
    println!("================ OSD solver benchmark ================");
    let instances = std::env::var("UBIQOS_OSD_INSTANCES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(25);
    let large_instances = std::env::var("UBIQOS_OSD_LARGE_INSTANCES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    let large_nodes: Vec<usize> = std::env::var("UBIQOS_OSD_LARGE_NODES")
        .ok()
        .map(|v| {
            v.split(',')
                .map(|s| {
                    s.trim()
                        .parse()
                        .expect("UBIQOS_OSD_LARGE_NODES is a comma-separated list of node counts")
                })
                .collect()
        })
        .unwrap_or_else(|| vec![48, 64, 100]);
    let budget = std::env::var("UBIQOS_OSD_BUDGET")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000);
    let mut report = ubiqos_bench::osd::run_osd_bench(instances);
    report.large_cases =
        ubiqos_bench::osd::run_osd_large_bench(large_instances, &large_nodes, budget);
    println!("{}", report.render());
    if !report.speedup_ok(2.0) {
        eprintln!("warning: suffix-bound speedup below 2x on the 20-node/3-device rung");
    }
    // The large-graph acceptance gates are hard asserts: the artifact is
    // the claim, so a drifting gap or a lost node-count advantage must
    // fail the reproduction, not just reshape the JSON.
    assert!(
        report.large_gap_ok(0.02),
        "hierarchical route exceeded the 2% certified-gap ceiling: {:?}",
        report
            .large_cases
            .iter()
            .map(|c| (c.nodes, c.max_gap))
            .collect::<Vec<_>>()
    );
    assert!(
        report.large_expansion_ok(10.0),
        "hierarchical route expanded fewer than 10x fewer nodes than the budgeted \
         exhaustive run: {:?}",
        report
            .large_cases
            .iter()
            .map(|c| (c.nodes, c.expansion_ratio))
            .collect::<Vec<_>>()
    );
    println!();
    ubiqos_bench::dump_json("osd.json", &report);
    write_bench("BENCH_osd.json", &report);
}

/// One rung of the detection-lag ladder in `BENCH_faults.json`: the
/// imperfect-detection campaign at a fixed suspicion grace window.
#[derive(serde::Serialize)]
struct DetectionLagRow {
    /// Suspicion grace window (hours of missed renewals before the lease
    /// expires).
    grace_h: f64,
    /// Heartbeat renewal period (hours).
    heartbeat_period_h: f64,
    /// Worst-case detection lag the soundness invariant enforces:
    /// `grace + heartbeat period`.
    max_detection_lag_h: f64,
    suspicions: u32,
    false_suspected: u32,
    reinstatements: u32,
    stale_views: u32,
    parked: u32,
    readmitted: u32,
    dropped: u32,
    completed: u32,
    log_digest: u64,
}

/// Runs one campaign; on an invariant violation, shrinks the fault
/// schedule to a 1-minimal reproducer before aborting, so the artifact
/// failure is immediately debuggable.
fn run_or_shrink(cfg: &ubiqos_runtime::FaultCampaignConfig) -> ubiqos_runtime::CampaignOutcome {
    match ubiqos_runtime::run_fault_campaign(cfg) {
        Ok(outcome) => outcome,
        Err(violation) => {
            eprintln!("invariant violated: {violation}");
            eprintln!("shrinking the fault schedule to a minimal reproducer...");
            let schedule = ubiqos_runtime::campaign_schedule(cfg);
            if let Some(minimal) = ubiqos_runtime::shrink_schedule(&schedule, |candidate| {
                ubiqos_runtime::run_fault_campaign_with(cfg, candidate)
                    .err()
                    .map(|v| v.to_string())
            }) {
                eprintln!(
                    "minimal schedule: {} of {} faults ({} probes): {}",
                    minimal.schedule.len(),
                    schedule.len(),
                    minimal.probes,
                    minimal.violation
                );
                for f in &minimal.schedule {
                    eprintln!("  t={:.4}h {:?}", f.at_h, f.kind);
                }
            }
            panic!("fault campaign violated an invariant: {violation}");
        }
    }
}

fn faults() {
    println!("================ Fault-injection campaign ================");
    let cfg = ubiqos_bench::faults_config();
    let first = run_or_shrink(&cfg);
    // Re-run the identical campaign and require a byte-identical trace:
    // the determinism guarantee is part of the artifact, not a side note.
    let second = run_or_shrink(&cfg);
    assert_eq!(
        first.log.render(),
        second.log.render(),
        "same seed must reproduce a byte-identical event log"
    );
    assert_eq!(first.report, second.report, "and the same summary report");
    println!("{}", first.report.render());
    println!(
        "determinism: two runs, byte-identical logs ({} lines, digest {:#018x})",
        first.log.lines().len(),
        first.report.log_digest
    );

    // The staged-recovery payoff: the identical seed, workload, and fault
    // schedule with the ladder and retry queue disabled (drop-on-fault).
    let strict = run_or_shrink(&ubiqos_bench::faults_config_strict());
    println!();
    println!("---- staged recovery vs drop-on-fault (same seed & schedule) ----");
    println!(
        "{:<18} | {:>8} | {:>9} | {:>8} | {:>6} | {:>10} | {:>7}",
        "mode", "admitted", "completed", "degraded", "parked", "readmitted", "dropped"
    );
    for (label, r) in [
        ("staged (default)", &first.report),
        ("drop-on-fault", &strict.report),
    ] {
        println!(
            "{:<18} | {:>8} | {:>9} | {:>8} | {:>6} | {:>10} | {:>7}",
            label, r.admitted, r.completed, r.degraded, r.parked, r.readmitted, r.dropped
        );
    }
    // The arrival sequence is seed-derived and identical in both modes;
    // admission counts may differ slightly because dropping sessions
    // frees capacity that staged recovery keeps serving (degraded or
    // re-placed sessions stay live to completion).
    assert_eq!(
        first.report.arrivals, strict.report.arrivals,
        "both modes must face the identical arrival workload"
    );
    assert!(
        first.report.dropped < strict.report.dropped,
        "staged recovery must drop fewer sessions than drop-on-fault"
    );
    println!(
        "staged recovery drops {} session(s) instead of {} and completes {} vs {}",
        first.report.dropped,
        strict.report.dropped,
        first.report.completed,
        strict.report.completed
    );
    // The detection-lag ladder: the identical workload under imperfect
    // failure detection (partitions, lossy heartbeats) at three grace
    // windows. Longer grace tolerates longer network blips but widens
    // the stale window in which placements land on dead devices.
    println!();
    println!(
        "---- imperfect detection: detection-lag ladder (grace + {:.2}h heartbeat) ----",
        ubiqos_bench::faults_config_imperfect(0.5).heartbeat_period_h
    );
    println!(
        "{:>7} | {:>9} | {:>10} | {:>5} | {:>9} | {:>10} | {:>6} | {:>10} | {:>7}",
        "grace h",
        "lag bound",
        "suspicions",
        "false",
        "reinstate",
        "staleviews",
        "parked",
        "readmitted",
        "dropped"
    );
    let mut ladder: Vec<DetectionLagRow> = Vec::new();
    for grace_h in [0.5, 1.0, 2.0] {
        let cfg = ubiqos_bench::faults_config_imperfect(grace_h);
        let outcome = run_or_shrink(&cfg);
        let r = &outcome.report;
        let row = DetectionLagRow {
            grace_h,
            heartbeat_period_h: cfg.heartbeat_period_h,
            max_detection_lag_h: grace_h + cfg.heartbeat_period_h,
            suspicions: r.suspicions,
            false_suspected: r.false_suspected,
            reinstatements: r.reinstatements,
            stale_views: r.stale_views,
            parked: r.parked,
            readmitted: r.readmitted,
            dropped: r.dropped,
            completed: r.completed,
            log_digest: r.log_digest,
        };
        println!(
            "{:>7.2} | {:>8.2}h | {:>10} | {:>5} | {:>9} | {:>10} | {:>6} | {:>10} | {:>7}",
            row.grace_h,
            row.max_detection_lag_h,
            row.suspicions,
            row.false_suspected,
            row.reinstatements,
            row.stale_views,
            row.parked,
            row.readmitted,
            row.dropped
        );
        assert_eq!(
            r.parked_at_end, 0,
            "imperfect campaigns must converge (grace {grace_h}h)"
        );
        ladder.push(row);
    }

    println!();
    ubiqos_bench::dump_json("faults.json", &first.report);
    ubiqos_bench::dump_json("faults_strict.json", &strict.report);
    // BENCH_faults.json keeps the perfect-detection report's top-level
    // keys byte-for-byte (the nightly drift gate pins them) and grows a
    // `detection_lag` array with the ladder rows.
    let merged = serde_json::to_value(&first.report).and_then(|mut value| {
        if let serde_json::Value::Object(pairs) = &mut value {
            pairs.push(("detection_lag".to_owned(), serde_json::to_value(&ladder)?));
        }
        Ok(value)
    });
    match merged {
        Ok(value) => write_bench("BENCH_faults.json", &value),
        Err(e) => eprintln!("warning: could not serialize the fault report: {e}"),
    }
}

fn configure() {
    println!("================ Configuration cache + warm start ================");
    let report = ubiqos_bench::configure::run_configure_bench(300, 4);
    println!("{}", report.render());
    // Cache invisibility is part of the artifact, not a side note: the
    // cache and the warm seeds must never change an observable output.
    assert!(
        report.determinism_ok(),
        "cache/warm-start determinism violated: {report:?}"
    );
    if !report.cache_ok(2.0) {
        eprintln!("warning: cache speedup below 2x on the configure pipeline");
    }
    if !report.warm_ok(2.0) {
        eprintln!("warning: warm starts save less than 2x OSD nodes on re-placement");
    }
    println!();
    ubiqos_bench::dump_json("configure.json", &report);
    write_bench("BENCH_configure.json", &report);
}

fn federation() {
    println!("================ Sharded federation scaling ================");
    let arrivals = std::env::var("UBIQOS_FED_ARRIVALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000);
    let shard_counts: Vec<usize> = std::env::var("UBIQOS_FED_SHARDS")
        .ok()
        .map(|v| {
            v.split(',')
                .map(|s| {
                    s.trim()
                        .parse()
                        .expect("UBIQOS_FED_SHARDS is a comma-separated list of shard counts")
                })
                .collect()
        })
        .unwrap_or_else(|| vec![1, 2, 4, 8]);
    let losses: Vec<f64> = std::env::var("UBIQOS_FED_LOSS")
        .ok()
        .map(|v| {
            v.split(',')
                .map(|s| {
                    s.trim()
                        .parse()
                        .expect("UBIQOS_FED_LOSS is a comma-separated list of drop rates")
                })
                .collect()
        })
        .unwrap_or_else(|| vec![0.01, 0.1, 0.3]);
    let loss_shards = std::env::var("UBIQOS_FED_LOSS_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| *shard_counts.iter().max().unwrap_or(&4).min(&4));
    let crash_cells: Vec<(usize, f64)> = std::env::var("UBIQOS_FED_CRASHES")
        .ok()
        .map(|v| {
            v.split(',')
                .map(|pair| {
                    let (n, loss) = pair
                        .split_once('@')
                        .expect("UBIQOS_FED_CRASHES cells are crashes@loss, e.g. 4@0.1");
                    (
                        n.trim().parse().expect("crash count"),
                        loss.trim().parse().expect("loss rate"),
                    )
                })
                .collect()
        })
        .unwrap_or_else(|| vec![(4, 0.0), (4, 0.1)]);
    let report = ubiqos_bench::federation::run_federation_bench(
        arrivals,
        &shard_counts,
        loss_shards,
        &losses,
        &crash_cells,
    );
    println!("{}", report.render());
    // Byte-identity of the 1-shard cell to the serial reference is part
    // of the artifact, not a side note: sharding may only ever change
    // wall-clock and which shard logs what, never the merged behaviour.
    assert!(
        report.one_shard_matches_serial,
        "the 1-shard federation cell diverged from the serial digest {:#018x}",
        report.serial_digest
    );
    // The lossy sweep's convergence contract is equally hard: every
    // seeded drop/dup/reorder schedule must drain to the exact digests
    // of the perfect run.
    assert!(
        report.lossy_converges,
        "a lossy federation run diverged from the perfect digests"
    );
    // So is the durability contract: every seeded shard-crash schedule
    // (with or without loss on top) rebuilds its shards from snapshot +
    // WAL and drains to the crash-free run's exact digests.
    assert!(
        report.crashes_converge,
        "a crashed federation run diverged from the crash-free digests"
    );
    // Sharding shrinks the discovery/placement share of each admission
    // but not its composition share, so the sweep saturates well below
    // linear; 1.2x is the regression floor, not the aspiration.
    if !report.scale_ok(1.2) {
        eprintln!("warning: best shard-sweep speedup below 1.2x over serial");
    }
    println!();
    ubiqos_bench::dump_json("federation.json", &report);
    write_bench("BENCH_federation.json", &report);
}
