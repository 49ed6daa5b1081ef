//! Workspace-level equivalence suite for the campaign loop's caches.
//!
//! `FaultCampaignConfig::config_cache` switches on the composition memo,
//! the discovery memo and the loop's denial memo (a denial reused for
//! later arrivals of the same template and client until the next
//! mutating event). Their whole contract is *byte identity*: the event
//! log, its digest and every report counter must match the uncached run
//! exactly — the caches may only ever change wall-clock time. This file
//! checks that contract across random fault schedules (detector
//! suspicion, partitions and lossy heartbeats included) and pins the
//! absolute baseline digests under both flag values, so neither the
//! caches nor the hot-path optimizations of the loop (the once-per-instant
//! lease sweep, the event-log formatting fast path) can drift the runtime.

use proptest::prelude::*;
use ubiqos_runtime::{run_fault_campaign, CampaignOutcome, FaultCampaignConfig};

/// Runs `cfg` with the configuration caches forced to `config_cache`.
fn run(cfg: &FaultCampaignConfig, config_cache: bool, label: &str) -> CampaignOutcome {
    let cfg = FaultCampaignConfig {
        config_cache,
        ..cfg.clone()
    };
    run_fault_campaign(&cfg)
        .unwrap_or_else(|v| panic!("{label} cache={config_cache}: invariant violated: {v}"))
}

fn assert_cache_is_invisible(cfg: &FaultCampaignConfig, label: &str) {
    let cached = run(cfg, true, label);
    let uncached = run(cfg, false, label);
    assert_eq!(
        cached.log.render(),
        uncached.log.render(),
        "{label}: event logs diverged"
    );
    assert_eq!(cached.report, uncached.report, "{label}: reports diverged");
    assert_eq!(
        cached.report.log_digest,
        cached.log.digest(),
        "{label}: reported digest is not the log's"
    );
    let stats = cached.pipeline.expect("campaigns carry memo stats");
    assert_eq!(
        stats.adopted + stats.inline_speculated,
        u64::from(cached.report.arrivals),
        "{label}: arrival accounting leaked"
    );
    let off = uncached.pipeline.expect("campaigns carry memo stats");
    assert_eq!(
        off.adopted, 0,
        "{label}: the memo must be off without the cache"
    );
    assert_eq!(off.inline_speculated, u64::from(uncached.report.arrivals));
}

/// The absolute anchors: baseline digests captured when each campaign
/// mode was introduced. The loop, the hoisted lease sweep, the
/// formatting fast path and the denial memo must all keep reproducing
/// them byte-for-byte, with the caches on and off.
#[test]
fn baseline_digests_are_pinned_with_and_without_config_cache() {
    // Perfect detection (the digest tests/fault_injection.rs pins).
    let perfect = FaultCampaignConfig::default();
    // Imperfect detection with every detector feature active (the
    // lease-sweep hot path: heartbeats cluster lease checks at shared
    // instants, so the once-per-instant hoist is exercised heavily).
    let imperfect = FaultCampaignConfig {
        detection_grace_h: 1.0,
        heartbeat_period_h: 0.25,
        partitions: 2,
        partition_max: 2,
        heartbeat_loss: 0.3,
        scope_max: 2,
        ..FaultCampaignConfig::default()
    };
    for (cfg, pinned, label) in [
        (&perfect, 0x2385_725a_4716_6d1b_u64, "perfect"),
        (&imperfect, 0x01d0_6fd1_1ed1_9085_u64, "imperfect"),
    ] {
        for config_cache in [true, false] {
            let report = run(cfg, config_cache, label).report;
            assert_eq!(
                report.log_digest, pinned,
                "{label} cache={config_cache}: baseline digest drifted"
            );
            assert_eq!(
                report.suspicions > 0,
                label == "imperfect",
                "{label}: the detector fires exactly in imperfect mode"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random perfect-detection schedules: crashes, correlated scopes,
    /// flapping links, fluctuations — cached ≡ uncached.
    #[test]
    fn denial_memo_matches_uncached_across_random_fault_schedules(
        seed in 0u64..u64::MAX,
        scope in 1usize..3,
        flapping in 0usize..2,
    ) {
        let cfg = FaultCampaignConfig {
            seed,
            devices: 4,
            requests: 60,
            horizon_h: 24.0,
            faults: 24,
            scope_max: scope,
            flapping_links: flapping,
            ..FaultCampaignConfig::default()
        };
        assert_cache_is_invisible(&cfg, "perfect");
    }

    /// Random imperfect-detection schedules: suspicion, false suspicion,
    /// reinstatement and stale views must leave no memoized denial
    /// behind that the uncached run would not also raise, and stale
    /// views must be counted once per arrival either way.
    #[test]
    fn denial_memo_matches_uncached_under_detector_suspicion(
        seed in 0u64..u64::MAX,
        loss in 0.0f64..0.6,
    ) {
        let cfg = FaultCampaignConfig {
            seed,
            devices: 4,
            requests: 60,
            horizon_h: 24.0,
            faults: 24,
            scope_max: 2,
            detection_grace_h: 0.5,
            heartbeat_period_h: 0.25,
            partitions: 2,
            partition_max: 2,
            heartbeat_loss: loss,
            ..FaultCampaignConfig::default()
        };
        assert_cache_is_invisible(&cfg, "imperfect");
    }
}
