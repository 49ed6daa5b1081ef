//! The three benchmark workloads: how each is built from the seed, which
//! public campaign entry point runs it, and what a correct run looks like.
//!
//! The seed reaches the program through `FaultCampaignConfig::seed` (the
//! campaign generates its request trace internally). Every other input —
//! device faults, mobility waves, shard crashes, shard partitions and the
//! loss schedule — is derived from the same seed and handed to the
//! `_with` / `_lossy` entry points: device faults by the runtime's own
//! `campaign_schedule`, the rest from independent salted streams.
//!
//! `steady` injects one device fault per simulated hour. Fault state
//! persists (a crashed device stays down until a recovery event), so with
//! far fewer faults the admitted share swings widely from seed to seed.

use std::hint::black_box;
use ubiqos::FaultReport;
use ubiqos_runtime::{
    campaign_schedule, run_fault_campaign_batched_with, run_fault_campaign_with,
    run_federation_campaign_lossy, CampaignOutcome, EventLog, FaultCampaignConfig,
    FederationConfig, FederationOutcome, InvariantViolation, LossConfig, LossStats, PipelineConfig,
    PipelineStats, ShardPartition, StageTimes,
};
use ubiqos_sim::{MobilityWaveConfig, ShardCrashPlan, TimedFault};

/// The batched engine every single-server workload runs: one worker
/// thread, so a run fits a two-core host next to its parent process.
pub const PIPELINE: PipelineConfig = PipelineConfig {
    batch_size: 32,
    threads: 1,
};

/// Salts separating the schedule streams derived from one seed.
const MOBILITY_SALT: u64 = 0x0b11_0000_0000_0002;
const CRASH_SALT: u64 = 0xc4a5_0000_0000_0003;
const PARTITION_SALT: u64 = 0x9a27_0000_0000_0004;
const LOSS_SALT: u64 = 0x1055_0000_0000_0005;

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// ~28% admission under seeded device faults: composition, placement,
    /// the invariant sweep and recovery carry the load.
    Steady,
    /// ~0.1% admission, no faults: denial reuse, DES dispatch and the
    /// event log carry the load; placement is nearly idle.
    Overload,
    /// Four lossy, crashing shards with mobility waves: the federation
    /// protocol, the reliable transport and WAL/snapshot/replay.
    Federation,
}

impl Kind {
    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "steady" => Some(Kind::Steady),
            "overload" => Some(Kind::Overload),
            "federation" => Some(Kind::Federation),
            _ => None,
        }
    }

    /// The admitted share of arrivals a correct run of this workload must
    /// land in, as `[low, high)`. Keeps a resized workload from quietly
    /// turning into a different benchmark (e.g. a denial benchmark).
    pub fn admission_band(self) -> (f64, f64) {
        match self {
            Kind::Steady | Kind::Federation => (0.20, 0.80),
            // At least one admission in the full run's 10⁵ arrivals.
            Kind::Overload => (1e-5, 0.01),
        }
    }
}

/// Run size: `Full` is what the benchmark measures, `Tiny` what the smoke
/// test runs (same arrival density, so the same admission band).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A size that finishes in well under a second.
    Tiny,
}

/// The inputs of one timed campaign call.
// A run holds a handful of these, so the variants' size gap costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Setup {
    /// A single-server campaign.
    Campaign {
        /// Campaign config (carries the seed of the request trace).
        cfg: FaultCampaignConfig,
        /// `campaign_schedule(&cfg)`: device faults seeded from `cfg.seed`.
        schedule: Vec<TimedFault>,
        /// The batched pipeline, or `None` for the serial DES reference.
        pipeline: Option<PipelineConfig>,
    },
    /// A sharded campaign over a lossy transport.
    Federation {
        /// Federation config (shards, mobility, crashes, durability).
        cfg: FederationConfig,
        /// `cfg.schedule()`: mobility waves merged with the shard crashes.
        schedule: Vec<TimedFault>,
        /// Seeded loss schedule with partition-aligned bursts.
        loss: LossConfig,
    },
}

/// SplitMix64 step: one independent stream per salt from one seed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn stream(seed: u64, salt: u64) -> u64 {
    splitmix64(seed ^ salt)
}

/// Two seeded shard partitions of a quarter hour each.
fn shard_partitions(seed: u64, shards: usize, horizon_h: f64) -> Vec<ShardPartition> {
    let mut state = stream(seed, PARTITION_SALT);
    (0..2)
        .map(|_| {
            state = splitmix64(state);
            let shard = (state % shards as u64) as usize;
            state = splitmix64(state);
            let from_h = (state >> 11) as f64 / (1u64 << 53) as f64 * horizon_h * 0.9;
            ShardPartition {
                shard,
                from_h,
                to_h: from_h + 0.25,
            }
        })
        .collect()
}

/// Builds the workload's configs and schedules from the seed — the work
/// `setup_s` times.
pub fn setup(kind: Kind, seed: u64, size: Size) -> Setup {
    let tiny = size == Size::Tiny;
    match kind {
        Kind::Steady | Kind::Overload => {
            let (requests, horizon_h, faults) = match (kind, tiny) {
                (Kind::Steady, false) => (100_000, 2_000.0, 2_000),
                (Kind::Steady, true) => (4_000, 80.0, 80),
                (_, false) => (100_000, 2.0, 0),
                (_, true) => (20_000, 0.4, 0),
            };
            let cfg = FaultCampaignConfig {
                seed,
                devices: 6,
                requests,
                horizon_h,
                faults,
                invariant_stride: 64,
                ..FaultCampaignConfig::default()
            };
            let schedule = campaign_schedule(&cfg);
            Setup::Campaign {
                cfg,
                schedule,
                pipeline: Some(PIPELINE),
            }
        }
        Kind::Federation => {
            let (requests, horizon_h, moves, crashes) = if tiny {
                (2_000, 10.0, 16, 2)
            } else {
                (20_000, 100.0, 64, 4)
            };
            let shards = 4;
            let devices = 24;
            let base = FaultCampaignConfig {
                seed,
                devices,
                requests,
                horizon_h,
                faults: 0,
                invariant_stride: 64,
                ..FaultCampaignConfig::default()
            };
            let mobility = MobilityWaveConfig {
                seed: stream(seed, MOBILITY_SALT),
                moves,
                waves: 4,
                horizon_h,
                devices,
                ..MobilityWaveConfig::default()
            };
            let crashes = ShardCrashPlan {
                seed: stream(seed, CRASH_SALT),
                crashes,
                shards,
                horizon_h,
                outage_h: 0.5,
            };
            let cfg = FederationConfig {
                shard_partitions: shard_partitions(seed, shards, horizon_h),
                base,
                shards,
                mobility,
                crashes,
                ..FederationConfig::default()
            };
            cfg.validate();
            let schedule = cfg.schedule();
            let loss = LossConfig::lossy(stream(seed, LOSS_SALT), 0.01)
                .align_bursts(&cfg.shard_partitions);
            loss.validate();
            Setup::Federation {
                cfg,
                schedule,
                loss,
            }
        }
    }
}

impl Setup {
    /// Arrivals the campaign's request trace holds.
    pub fn requests(&self) -> usize {
        match self {
            Setup::Campaign { cfg, .. } => cfg.requests,
            Setup::Federation { cfg, .. } => cfg.base.requests,
        }
    }

    /// Worker threads of the batched pipeline; `None` when the engine has
    /// no pipeline.
    pub fn pipeline_threads(&self) -> Option<usize> {
        match self {
            Setup::Campaign { pipeline, .. } => pipeline.map(|p| p.threads),
            Setup::Federation { .. } => None,
        }
    }

    /// The timed call: the workload's public campaign entry point.
    pub fn run(&self) -> Result<Outcome, InvariantViolation> {
        match self {
            Setup::Campaign {
                cfg,
                schedule,
                pipeline: Some(pipeline),
            } => run_fault_campaign_batched_with(black_box(cfg), black_box(schedule), pipeline)
                .map(Outcome::Campaign),
            Setup::Campaign {
                cfg,
                schedule,
                pipeline: None,
            } => {
                run_fault_campaign_with(black_box(cfg), black_box(schedule)).map(Outcome::Campaign)
            }
            Setup::Federation {
                cfg,
                schedule,
                loss,
            } => run_federation_campaign_lossy(
                black_box(cfg),
                black_box(schedule),
                black_box(loss.clone()),
            )
            .map(|(outcome, stats)| Outcome::Federation(outcome, stats)),
        }
    }

    /// The same inputs through the serial DES reference; `None` for the
    /// federation, which has no batched engine.
    pub fn serial_twin(&self) -> Option<Setup> {
        let Setup::Campaign { cfg, schedule, .. } = self else {
            return None;
        };
        Some(Setup::Campaign {
            cfg: cfg.clone(),
            schedule: schedule.clone(),
            pipeline: None,
        })
    }

    /// The same inputs with the invariant sweep switched off.
    pub fn without_sweeps(&self) -> Setup {
        let mut twin = self.clone();
        match &mut twin {
            Setup::Campaign { cfg, .. } => cfg.invariant_stride = usize::MAX,
            Setup::Federation { cfg, .. } => cfg.base.invariant_stride = usize::MAX,
        }
        twin
    }

    /// The federation without its shard crashes (same loss), and that
    /// crash-free run with durability off. `None` for single-server
    /// workloads.
    pub fn crash_free_twins(&self) -> Option<(Setup, Setup)> {
        let Setup::Federation { cfg, loss, .. } = self else {
            return None;
        };
        let mut crash_free = cfg.clone();
        crash_free.crashes.crashes = 0;
        let schedule = crash_free.schedule();
        let mut no_wal = crash_free.clone();
        no_wal.durability.enabled = false;
        Some((
            Setup::Federation {
                cfg: crash_free,
                schedule: schedule.clone(),
                loss: loss.clone(),
            },
            Setup::Federation {
                cfg: no_wal,
                schedule,
                loss: loss.clone(),
            },
        ))
    }
}

/// A finished timed call.
#[derive(Debug)]
pub enum Outcome {
    /// A single-server campaign.
    Campaign(CampaignOutcome),
    /// A federated campaign and what the lossy transport injected.
    Federation(FederationOutcome, LossStats),
}

impl Outcome {
    /// The per-server reports (one, or one per shard).
    pub fn reports(&self) -> Vec<&FaultReport> {
        match self {
            Outcome::Campaign(o) => vec![&o.report],
            Outcome::Federation(o, _) => o.shards.iter().map(|s| &s.report).collect(),
        }
    }

    /// The per-server event logs.
    pub fn logs(&self) -> Vec<&EventLog> {
        match self {
            Outcome::Campaign(o) => vec![&o.log],
            Outcome::Federation(o, _) => o.shards.iter().map(|s| &s.log).collect(),
        }
    }

    /// Per-server log digests as the program reported them.
    pub fn digests(&self) -> Vec<u64> {
        self.reports().iter().map(|r| r.log_digest).collect()
    }

    /// Stage profile summed over servers.
    pub fn stages(&self) -> StageTimes {
        match self {
            Outcome::Campaign(o) => o.stages.clone(),
            Outcome::Federation(o, _) => {
                let mut total = StageTimes::default();
                for (s, shard) in o.shards.iter().enumerate() {
                    total.absorb_shard(s, &shard.stages);
                }
                total
            }
        }
    }

    /// Pipeline counters (batched single-server runs only).
    pub fn pipeline(&self) -> Option<&PipelineStats> {
        match self {
            Outcome::Campaign(o) => o.pipeline.as_ref(),
            Outcome::Federation(..) => None,
        }
    }

    /// Sums one report counter over servers.
    pub fn sum(&self, field: impl Fn(&FaultReport) -> u32) -> u64 {
        self.reports()
            .into_iter()
            .map(|r| u64::from(field(r)))
            .sum()
    }

    /// Whether every session's fate is accounted for.
    pub fn fates_balance(&self) -> bool {
        match self {
            Outcome::Campaign(o) => o.report.session_fates_balance(),
            Outcome::Federation(o, _) => o.fates_balance(),
        }
    }

    /// One number pinning every deterministic output of the run: the
    /// reports (log digests included) and, for a federation, its
    /// protocol and transport counters.
    pub fn fingerprint(&self) -> u64 {
        let text = match self {
            Outcome::Campaign(o) => format!("{:?}", o.report),
            Outcome::Federation(o, loss) => {
                format!("{:?}{:?}{:?}", o.shard_digests(), o.stats, loss)
                    + &self
                        .reports()
                        .iter()
                        .map(|r| format!("{r:?}"))
                        .collect::<String>()
            }
        };
        ubiqos::fault_report::fnv1a(text.as_bytes())
    }
}

/// The checks every timed call must pass; each failure is one message.
pub fn check(kind: Kind, setup: &Setup, outcome: &Outcome) -> Vec<String> {
    let mut errors = Vec::new();
    let arrivals = outcome.sum(|r| r.arrivals);
    let admitted = outcome.sum(|r| r.admitted);
    let denied = outcome.sum(|r| r.denied);
    if arrivals != setup.requests() as u64 {
        errors.push(format!(
            "{arrivals} arrivals processed, {} requested",
            setup.requests()
        ));
    }
    if admitted + denied != arrivals {
        errors.push(format!(
            "{admitted} admitted + {denied} denied != {arrivals} arrivals"
        ));
    }
    if !outcome.fates_balance() {
        errors.push("session fates do not balance".to_string());
    }
    let share = admitted as f64 / arrivals.max(1) as f64;
    let (low, high) = kind.admission_band();
    if !(low..high).contains(&share) {
        errors.push(format!(
            "admitted share {share:.4} outside the workload's band [{low}, {high})"
        ));
    }
    errors
}
