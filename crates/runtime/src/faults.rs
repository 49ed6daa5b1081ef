//! Deterministic fault-injection harness for the smart-space runtime.
//!
//! This module replays a seeded schedule of §3.3 reconfiguration events
//! ([`ubiqos_sim::faultgen`]) against a live [`DomainServer`] while the
//! Figure 5 request workload ([`ubiqos_sim::workload`]) arrives and
//! departs around it. After **every** event the harness sweeps the full
//! invariant set of the paper's model:
//!
//! * **Capacity bounds** — no device's residual availability is negative
//!   or above its current capacity; no link's residual bandwidth is
//!   negative or above the shared pool (Definition 3.4).
//! * **Conservation** — residual equals capacity minus the sum of every
//!   live session's charge, per device dimension and per link pair: no
//!   charge is ever leaked or double-refunded.
//! * **QoS consistency** — every live session's concrete service graph
//!   still satisfies Equation 1 (`diagnose(..).is_consistent()`).
//! * **Placement sanity** — every live cut respects its pins, and no
//!   component sits on a crashed device.
//! * **Discovery hygiene** — no service instance hosted on (pinned to) a
//!   crashed device is ever visible to discovery; crashed hosts'
//!   instances are unregistered until recovery.
//! * **Witnessed drops** — a session is only ever dropped together with
//!   the [`ConfigureError`](ubiqos::ConfigureError) that proves it was
//!   unplaceable when its retry budget ran out, and session fates balance
//!   exactly (admitted = completed + dropped + live + parked).
//!
//! Recovery runs the staged degrade → park → retry → drop pipeline of
//! [`crate::recovery`]: sessions untouched by a fault keep their
//! placement (incremental re-placement, O(affected) per fault), affected
//! sessions walk the QoS degradation ladder before being parked, and the
//! retry queue re-admits parked sessions as capacity returns.
//! [`FaultCampaignConfig::staged_recovery`]` = false` reverts to the
//! strict drop-on-first-failure baseline for comparison.
//!
//! # Imperfect failure detection
//!
//! By default the harness is a *perfect* detector: every crash is
//! observed the instant it happens (the crash arm immediately zeroes the
//! device and re-places its sessions). Setting
//! [`FaultCampaignConfig::detection_grace_h`] `> 0` switches to the
//! realistic model: devices renew registry **leases** through periodic
//! heartbeats (DES events), a crashed or partitioned device silently
//! stops renewing, and only when its lease has been expired for the
//! grace window does the detector *suspect* it — zeroing its capacity,
//! hiding its hosted instances from discovery, and parking its sessions.
//! Between failure and suspicion the control plane acts on a stale view:
//! placements onto the dead device fail witnessed at activation time
//! ([`ubiqos::ConfigureError::StaleView`]) and the arrival parks into
//! the retry queue instead of being denied. Partitions and heartbeat
//! jams make healthy devices look dead (*false suspicion*), which a
//! later heartbeat must cleanly undo — the conservation invariants
//! above keep running after every event, so any leaked or double-
//! refunded charge under false suspicion aborts the campaign.
//!
//! Two extra invariants guard the detector itself: **soundness after
//! grace** (a ground-unreachable device is suspected within grace +
//! heartbeat period) and **eventual completeness** (after the horizon,
//! the retry queue is pumped dry — an eventually-healed schedule ends
//! with zero permanently parked sessions).
//!
//! The whole campaign is a pure function of
//! [`FaultCampaignConfig::seed`]: the event log renders byte-identically
//! across runs and across `UBIQOS_THREADS` settings, which
//! `tests/fault_injection.rs` and `repro -- faults` both assert. With
//! `detection_grace_h = 0` (and no partition/jam overlays) the campaign
//! reproduces the perfect-detection logs and digests byte-identically —
//! no heartbeat events exist, no extra RNG draws happen, no new log
//! lines appear.

use crate::cost_model::LinkKind;
use crate::domain_server::{DomainServer, PlacementStrategy, SessionId};
use crate::profiler::StageTimes;
use crate::recovery::RecoveryReport;
use crate::retry_queue::RetryPolicy;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fmt::Write as _;
use ubiqos::{ConfigureError, FaultReport};
use ubiqos_composition::{diagnose, DegradationLadder};
use ubiqos_discovery::{DeviceProperties, ServiceDescriptor};
use ubiqos_distribution::{Device, Environment};
use ubiqos_graph::{
    AbstractComponentSpec, AbstractServiceGraph, ComponentRole, DeviceId, PinHint, ServiceComponent,
};
use ubiqos_model::{QosDimension, QosValue, QosVector, ResourceVector};
use ubiqos_sim::{EventQueue, FaultKind, FaultScheduleConfig, Request, TimedFault, WorkloadConfig};

/// Mix constant separating the fault-schedule RNG stream from the
/// workload stream (both derive from the campaign seed).
const FAULT_STREAM_SALT: u64 = 0x5eed_fa17_0000_0001;

/// Numerical slack for conservation checks (charges are f64 sums).
const EPS: f64 = 1e-6;

/// Parameters of one fault-injection campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCampaignConfig {
    /// Master seed: workload, fault schedule, and client-device draws
    /// all derive from it, so one `u64` pins the whole campaign.
    pub seed: u64,
    /// Number of devices in the generated smart space (≥ 2).
    pub devices: usize,
    /// Number of application requests in the workload.
    pub requests: usize,
    /// Campaign horizon in hours.
    pub horizon_h: f64,
    /// Number of injected fault events.
    pub faults: usize,
    /// Smallest capacity fraction a fluctuation may leave.
    pub min_factor: f64,
    /// Largest correlated crash scope (`1` = independent crashes only).
    pub scope_max: usize,
    /// Number of flapping-link patterns overlaid on the fault schedule
    /// (each adds periodic degrade/restore events on one link, *on top
    /// of* `faults`).
    pub flapping_links: usize,
    /// Full degrade→restore period of each flapping link, in hours.
    pub flap_period_h: f64,
    /// Whether the staged degrade → park → retry → drop pipeline is
    /// active. `false` reverts to the strict baseline (no degradation
    /// ladder, no parking: re-placement failure drops immediately) for
    /// side-by-side comparison at the same admission workload.
    pub staged_recovery: bool,
    /// Whether the configuration caches (composition memo, discovery
    /// memo and the campaign loop's denial memo) are active. The caches
    /// are specified to be invisible to every observable output, so
    /// campaigns with and without them must produce byte-identical logs
    /// and digests — which `repro -- configure` and
    /// `tests/pipeline_equivalence.rs` assert by flipping this flag.
    pub config_cache: bool,
    /// Failure-detection grace window in hours. `0.0` (the default) is
    /// **perfect detection**: crashes are observed instantly, no
    /// heartbeats or leases exist, and the campaign reproduces the
    /// pre-detector logs byte-identically. `> 0.0` enables the
    /// lease/heartbeat detector: a device is suspected only after its
    /// lease has gone unrenewed for this long.
    pub detection_grace_h: f64,
    /// Heartbeat period in hours (each device renews its lease this
    /// often while reachable). Only read when `detection_grace_h > 0`.
    pub heartbeat_period_h: f64,
    /// Number of partition/heal pairs overlaid on the fault schedule
    /// (device groups cut off from the domain server while still
    /// running; every partition heals inside the horizon).
    pub partitions: usize,
    /// Largest device-group size a partition may cut off.
    pub partition_max: usize,
    /// Probability in `[0, 1]` of seeded heartbeat-jam windows (detector
    /// signal lost while the device stays healthy). `0.0` draws nothing
    /// from the RNG.
    pub heartbeat_loss: f64,
    /// Run the full invariant sweep every N-th event (default `1`:
    /// after every event, the behavior every pinned digest was captured
    /// under). Large campaigns raise this — the sweep is O(live
    /// sessions × cut parts) and would otherwise dominate 10⁵-arrival
    /// runs. Values < 1 are treated as 1; skipped sweeps emit nothing,
    /// so the stride never perturbs logs or digests, only
    /// `invariant_checks`.
    pub invariant_stride: usize,
    /// Distribution-tier strategy every domain server in the campaign
    /// places with. The default ([`PlacementStrategy::Heuristic`]) is
    /// what every pinned digest was captured under; switching to
    /// [`PlacementStrategy::Portfolio`] exercises the exact/hierarchical
    /// solver portfolio under the same fault schedule.
    pub placement: PlacementStrategy,
}

impl FaultCampaignConfig {
    /// Whether this campaign runs the perfect detector (no grace window,
    /// no leases, no heartbeats) — the mode whose logs and digests are
    /// pinned by `tests/fault_injection.rs` and the CI baseline.
    pub fn perfect_detection(&self) -> bool {
        self.detection_grace_h <= 0.0
    }
}

impl Default for FaultCampaignConfig {
    fn default() -> Self {
        FaultCampaignConfig {
            seed: 0x1cdc_2002,
            devices: 5,
            requests: 120,
            horizon_h: 48.0,
            faults: 40,
            min_factor: 0.25,
            scope_max: 1,
            flapping_links: 0,
            flap_period_h: 8.0,
            staged_recovery: true,
            config_cache: true,
            detection_grace_h: 0.0,
            heartbeat_period_h: 0.25,
            partitions: 0,
            partition_max: 1,
            heartbeat_loss: 0.0,
            invariant_stride: 1,
            placement: PlacementStrategy::default(),
        }
    }
}

/// A deterministic, append-only log of everything the campaign did.
///
/// Rendering is byte-stable: every line is formatted with fixed float
/// precision at push time, so two campaigns agree iff their logs agree.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventLog {
    lines: Vec<String>,
}

impl EventLog {
    /// Appends one line; its index is the number of lines before it.
    pub(crate) fn push(&mut self, at_h: f64, text: &str) {
        self.push_args(at_h, format_args!("{text}"));
    }

    /// Formats one line straight into its final String — prefix and text
    /// in a single pass, no intermediate allocation. This is the event
    /// loop's hot path: at 10⁵ arrivals the naive
    /// `format!("[{idx:04}] t={at_h:010.4}h {text}")` over a separately
    /// formatted `text` costs more than the admission work it records.
    pub(crate) fn push_args(&mut self, at_h: f64, args: fmt::Arguments<'_>) {
        let mut line = String::with_capacity(128);
        line.push('[');
        push_padded_int(&mut line, self.lines.len() as u64, 4);
        line.push_str("] t=");
        push_hours(&mut line, at_h);
        line.push_str("h ");
        if let Some(text) = args.as_str() {
            line.push_str(text);
        } else {
            use fmt::Write as _;
            let _ = line.write_fmt(args);
        }
        self.lines.push(line);
    }

    /// Appends lines rendered by [`EventLog::push_args`] verbatim (the
    /// write-ahead log's replay path).
    pub(crate) fn extend_rendered(&mut self, lines: &[String]) {
        self.lines.extend_from_slice(lines);
    }

    /// The log lines, in event order.
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// Renders the log to one newline-joined string (the byte sequence
    /// the determinism digest is computed over).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    /// FNV-1a digest of [`EventLog::render`], streamed line by line so
    /// the multi-megabyte joined string is never materialized.
    pub fn digest(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for line in &self.lines {
            eat(line.as_bytes());
            eat(b"\n");
        }
        hash
    }
}

/// Appends `value` in decimal, zero-padded to at least `width` digits —
/// the bytes `format!("{value:0width$}")` produces, without the
/// formatting machinery.
fn push_padded_int(out: &mut String, value: u64, width: usize) {
    let mut buf = [0u8; 20];
    let mut n = 0;
    let mut v = value;
    loop {
        buf[n] = b'0' + (v % 10) as u8;
        v /= 10;
        n += 1;
        if v == 0 {
            break;
        }
    }
    for _ in n..width {
        out.push('0');
    }
    for i in (0..n).rev() {
        out.push(buf[i] as char);
    }
}

/// Appends `at_h` as `format!("{at_h:010.4}")` would. The fast path
/// formats the scaled integer directly; values whose fourth decimal sits
/// near a rounding boundary (where a naive `* 1e4` could round the other
/// way than the exact decimal expansion `{:.4}` works from), negative
/// values, and values too wide for the `010` pad all fall back to the
/// std formatter. The `fast_hours_matches_std_formatting` test sweeps
/// both paths against `format!` to keep every digest byte-stable.
fn push_hours(out: &mut String, at_h: f64) {
    use fmt::Write as _;
    let scaled = at_h * 1e4;
    // Fast-path guard: in-range, and ≥ 10 ulps clear of the x.5 rounding
    // boundary of the fourth decimal (ulp(1e9) ≈ 1.2e-7 ≪ 1e-5).
    if !(0.0..=999_999_999.0).contains(&scaled) || (scaled.fract() - 0.5).abs() <= 1e-5 {
        let _ = write!(out, "{at_h:010.4}");
        return;
    }
    let r = scaled.round() as u64;
    push_padded_int(out, r / 10_000, 5);
    out.push('.');
    push_padded_int(out, r % 10_000, 4);
}

/// An invariant broken mid-campaign: where, during what, and how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Simulation time of the offending event, in hours.
    pub at_h_milli: u64,
    /// The log line of the event being processed.
    pub event: String,
    /// What went wrong.
    pub violation: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invariant violated at t={}h during `{}`: {}",
            self.at_h_milli as f64 / 1000.0,
            self.event,
            self.violation
        )
    }
}

impl std::error::Error for InvariantViolation {}

/// A finished campaign: the summary report plus the full event log.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Aggregate counters and the log digest.
    pub report: FaultReport,
    /// The deterministic event log.
    pub log: EventLog,
    /// Wall-clock stage profile captured from the domain server at the
    /// end of the run. Never feeds logs or digests.
    pub stages: StageTimes,
    /// Denial-memo counters; always `Some`. The `Option` is kept only for
    /// the benchmark worker, which still reads it under its old name; a
    /// benchmark change that moves the worker off it lets this field
    /// become a plain [`PipelineStats`] (or go).
    pub pipeline: Option<PipelineStats>,
}

/// Former knobs of the batched pipeline runtime, which no longer exists:
/// both fields are ignored. Kept only because the benchmark worker still
/// names them; a benchmark change that moves the worker to
/// [`run_fault_campaign_with`] lets this type be deleted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Ignored.
    pub batch_size: usize,
    /// Ignored.
    pub threads: usize,
}

/// Counters of the campaign loop's denial memo (see
/// [`FaultCampaignConfig::config_cache`]). The type and field names are
/// those of the deleted batched pipeline, kept because the benchmark
/// worker reads them; a benchmark change that stops reading them lets
/// them be renamed or deleted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Denials stored in the memo.
    pub primed: u64,
    /// Arrivals that ran the configurator (memo misses).
    pub inline_speculated: u64,
    /// Arrivals answered by a memoized denial (memo hits).
    pub adopted: u64,
    /// Memo clears that dropped at least one entry.
    pub invalidations: u64,
}

/// Reuses an arrival's denial for later arrivals of the same
/// `(application template, client device)` until the next event that
/// can change a configuration outcome: an admission, a departure, a
/// fault, a reinstatement, a lease sweep that suspected something, or a
/// retry-queue pass that moved a session. Between two such events the
/// configurator is a pure function of the key, so a reused denial is
/// exactly the error a fresh [`DomainServer::start_session`] would
/// raise. [`ConfigureError::StaleView`] is never stored: it parks the
/// arrival and bumps the server's `stale_views` counter, so each one
/// must run the configurator.
#[derive(Default)]
struct DenialMemo {
    denials: BTreeMap<(usize, usize), ConfigureError>,
    stats: PipelineStats,
}

impl DenialMemo {
    /// Drops every stored denial after an event that changed
    /// configuration inputs.
    fn clear(&mut self) {
        if !self.denials.is_empty() {
            self.stats.invalidations += 1;
            self.denials.clear();
        }
    }
}

/// One event in the merged campaign timeline.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CampaignEvent {
    /// Request `i` of the workload arrives.
    Arrival(usize),
    /// Request `i`'s lifetime ends.
    Departure(usize),
    /// Fault `j` of the schedule fires.
    Fault(usize),
    /// Device `d` sends its periodic heartbeat (imperfect mode only;
    /// lost while the device is down, partitioned, or jammed).
    Heartbeat(usize),
    /// The anti-entropy sweep scheduled `grace` after a lease renewal:
    /// any lease now expired turns into a suspicion (imperfect only).
    /// Carries the renewing device, which a federation routes to its
    /// domain; the sweep itself covers the whole domain.
    LeaseCheck(usize),
}

/// Ground-truth bookkeeping the imperfect detector is *not* allowed to
/// read — only the harness (playing the role of physical reality) does.
/// Clone + equality exist for the durability layer: the detector state
/// is part of a shard's durable image, snapshotted and compared against
/// the write-ahead-log replay on every crash recovery.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DetectorState {
    /// Nesting depth of partitions covering each device (> 0 = cut off).
    pub(crate) partition_depth: Vec<u32>,
    /// Heartbeats from each device are lost until this hour.
    pub(crate) jam_until_h: Vec<f64>,
    /// Hour each currently-unreachable device became unreachable, for
    /// the soundness-after-grace invariant.
    pub(crate) unreachable_since: BTreeMap<usize, f64>,
}

impl DetectorState {
    pub(crate) fn new(devices: usize) -> Self {
        DetectorState {
            partition_depth: vec![0; devices],
            jam_until_h: vec![0.0; devices],
            unreachable_since: BTreeMap::new(),
        }
    }
}

/// Builds the campaign's smart space: `devices` devices with cycling
/// capacity profiles, mixed wired/wireless links, and a registry
/// offering a WAV pipeline plus an MPEG pipeline whose sink only accepts
/// WAV (so composing it exercises transcoder insertion).
///
/// Besides the space-wide (unpinned) instances, every device *hosts* a
/// pinned `wav-source` instance. Hosted instances are what the registry
/// churn path exercises: when a device crashes its instances vanish from
/// discovery (re-composition falls back to survivors or the space-wide
/// source), and they re-register on recovery.
pub fn build_space(devices: usize) -> DomainServer {
    assert!(devices >= 2, "fault campaigns need at least 2 devices");
    let profiles = [
        ResourceVector::mem_cpu(256.0, 300.0),
        ResourceVector::mem_cpu(192.0, 220.0),
        ResourceVector::mem_cpu(128.0, 160.0),
        ResourceVector::mem_cpu(96.0, 120.0),
    ];
    let mut builder = Environment::builder().default_bandwidth_mbps(40.0);
    for i in 0..devices {
        builder = builder.device(Device::new(
            format!("dev{i}"),
            profiles[i % profiles.len()].clone(),
        ));
    }
    let env = builder.link_mbps(0, 1, 80.0).build();
    let links: Vec<LinkKind> = (0..devices)
        .map(|i| {
            if i % 2 == 0 {
                LinkKind::Ethernet
            } else {
                LinkKind::Wireless
            }
        })
        .collect();
    let props = DeviceProperties {
        screen_pixels: 1_920_000.0,
        compute_factor: 4.0,
    };
    let mut server = DomainServer::new(env, links, vec![props; devices]);

    server.registry_mut().register(ServiceDescriptor::new(
        "wav-source@space",
        "wav-source",
        ServiceComponent::builder("wav-source")
            .role(ComponentRole::Source)
            .qos_out(
                QosVector::new()
                    .with(QosDimension::Format, QosValue::token("WAV"))
                    .with(QosDimension::FrameRate, QosValue::exact(30.0)),
            )
            .capability(QosDimension::FrameRate, QosValue::range(1.0, 30.0))
            .resources(ResourceVector::mem_cpu(24.0, 30.0))
            .build(),
    ));
    server.registry_mut().register(ServiceDescriptor::new(
        "wav-sink@space",
        "wav-sink",
        ServiceComponent::builder("wav-sink")
            .role(ComponentRole::Sink)
            .qos_in(
                QosVector::new()
                    .with(QosDimension::Format, QosValue::token("WAV"))
                    .with(QosDimension::FrameRate, QosValue::range(5.0, 30.0)),
            )
            .resources(ResourceVector::mem_cpu(10.0, 14.0))
            .build(),
    ));
    for i in 0..devices {
        server.registry_mut().register(ServiceDescriptor::new(
            format!("wav-source@dev{i}"),
            "wav-source",
            ServiceComponent::builder("wav-source")
                .role(ComponentRole::Source)
                .qos_out(
                    QosVector::new()
                        .with(QosDimension::Format, QosValue::token("WAV"))
                        .with(QosDimension::FrameRate, QosValue::exact(30.0)),
                )
                .capability(QosDimension::FrameRate, QosValue::range(1.0, 30.0))
                .resources(ResourceVector::mem_cpu(24.0, 30.0))
                .pinned_to(DeviceId::from_index(i))
                .build(),
        ));
    }
    server.registry_mut().register(ServiceDescriptor::new(
        "mpeg-source@space",
        "mpeg-source",
        ServiceComponent::builder("mpeg-source")
            .role(ComponentRole::Source)
            .qos_out(
                QosVector::new()
                    .with(QosDimension::Format, QosValue::token("MPEG"))
                    .with(QosDimension::FrameRate, QosValue::exact(24.0)),
            )
            .capability(QosDimension::FrameRate, QosValue::range(5.0, 24.0))
            .resources(ResourceVector::mem_cpu(40.0, 50.0))
            .build(),
    ));
    server.registry_mut().register(ServiceDescriptor::new(
        "pcm-player@space",
        "pcm-player",
        ServiceComponent::builder("pcm-player")
            .role(ComponentRole::Sink)
            .qos_in(
                QosVector::new()
                    .with(QosDimension::Format, QosValue::token("WAV"))
                    .with(QosDimension::FrameRate, QosValue::range(5.0, 24.0)),
            )
            .resources(ResourceVector::mem_cpu(12.0, 16.0))
            .build(),
    ));
    server
}

/// The campaign's application templates: index 0 is a consistent WAV
/// pipeline, index 1 an MPEG source feeding a WAV-only player (forcing
/// the composer to insert the catalog's MPEG→WAV transcoder).
pub fn app_template(graph_index: usize) -> (&'static str, AbstractServiceGraph) {
    let mut g = AbstractServiceGraph::new();
    if graph_index.is_multiple_of(2) {
        let s = g.add_spec(AbstractComponentSpec::new("wav-source"));
        let p = g.add_spec(AbstractComponentSpec::new("wav-sink").with_pin(PinHint::ClientDevice));
        g.add_edge(s, p, 1.2).expect("template edge");
    } else {
        let s = g.add_spec(AbstractComponentSpec::new("mpeg-source"));
        let p =
            g.add_spec(AbstractComponentSpec::new("pcm-player").with_pin(PinHint::ClientDevice));
        g.add_edge(s, p, 2.5).expect("template edge");
    }
    (app_name(graph_index), g)
}

/// The name of [`app_template`]`(graph_index)`, without building its
/// graph.
fn app_name(graph_index: usize) -> &'static str {
    if graph_index.is_multiple_of(2) {
        "wav-audio"
    } else {
        "mpeg-audio"
    }
}

/// SplitMix64 step — used to derive per-request client devices from the
/// campaign seed without consuming the workload RNG stream.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Runs one fault-injection campaign to completion.
///
/// Returns the outcome, or the first [`InvariantViolation`] encountered
/// (the campaign aborts at the first broken invariant so the offending
/// event is always the last log line).
///
/// # Panics
///
/// Panics when the config is structurally invalid (fewer than 2 devices,
/// non-positive horizon) — the same construction errors the underlying
/// generators reject.
pub fn run_fault_campaign(
    cfg: &FaultCampaignConfig,
) -> Result<CampaignOutcome, InvariantViolation> {
    run_fault_campaign_with(cfg, &campaign_schedule(cfg))
}

/// The exact fault schedule [`run_fault_campaign`] derives from `cfg`
/// (seeded off a salted stream so it never perturbs the workload RNG).
///
/// Exposed so callers that hit an [`InvariantViolation`] can hand this
/// schedule to [`crate::shrink::shrink_schedule`] and replay shrunken
/// candidates through [`run_fault_campaign_with`].
pub fn campaign_schedule(cfg: &FaultCampaignConfig) -> Vec<TimedFault> {
    FaultScheduleConfig {
        seed: cfg.seed ^ FAULT_STREAM_SALT,
        events: cfg.faults,
        horizon_h: cfg.horizon_h,
        devices: cfg.devices,
        min_factor: cfg.min_factor,
        scope_max: cfg.scope_max,
        flapping_links: cfg.flapping_links,
        flap_period_h: cfg.flap_period_h,
        partitions: cfg.partitions,
        partition_max: cfg.partition_max,
        heartbeat_loss: cfg.heartbeat_loss,
    }
    .generate()
}

/// [`run_fault_campaign_with`]; `pipeline` is ignored. The batched
/// pipeline this used to select is gone. Kept only because the benchmark
/// worker still calls it; a benchmark change that moves the worker to
/// [`run_fault_campaign_with`] lets it be deleted.
///
/// # Errors
///
/// Returns the first [`InvariantViolation`].
///
/// # Panics
///
/// See [`run_fault_campaign`].
pub fn run_fault_campaign_batched_with(
    cfg: &FaultCampaignConfig,
    schedule: &[TimedFault],
    _pipeline: &PipelineConfig,
) -> Result<CampaignOutcome, InvariantViolation> {
    run_fault_campaign_with(cfg, schedule)
}

/// Runs one campaign against an *explicit* fault schedule instead of the
/// config-derived one — the replay hook [`crate::shrink`] uses to probe
/// shrunken schedules. [`run_fault_campaign`] is exactly this with the
/// seeded schedule.
///
/// The loop is one [`Shard`] driven off the shared [`Timeline`] queue,
/// plus the denial memo (serial-only; see [`DenialMemo`]).
///
/// # Panics
///
/// See [`run_fault_campaign`].
pub fn run_fault_campaign_with(
    cfg: &FaultCampaignConfig,
    schedule: &[TimedFault],
) -> Result<CampaignOutcome, InvariantViolation> {
    let mut shard = Shard::new(cfg.clone());
    let mut queue: EventQueue<CampaignEvent> = EventQueue::new();
    let tl = Timeline::seed(cfg, schedule, &mut queue);
    let mut memo = DenialMemo::default();
    // Reused across arrivals: the reachable-device scratch buffer.
    let mut up: Vec<usize> = Vec::with_capacity(cfg.devices);

    while let Some((at_h, event)) = queue.pop() {
        shard.advance(at_h);
        match event {
            CampaignEvent::Arrival(i) => {
                shard.report.events += 1;
                let graph_index = tl.trace[i].graph_index;
                up.clear();
                shard.extend_up(0, &mut up);
                let client = draw_client(cfg.seed, i, &up);
                // A denial memoized since the last mutation is exactly
                // what `start_session` would raise again (see
                // `DenialMemo`).
                let key = (graph_index, client);
                let outcome = if let Some(denial) = memo.denials.get(&key) {
                    memo.stats.adopted += 1;
                    Err(denial.clone())
                } else {
                    memo.stats.inline_speculated += 1;
                    let outcome = shard.start(i, graph_index, client);
                    if let Err(e) = &outcome {
                        if cfg.config_cache && !matches!(e, ConfigureError::StaleView { .. }) {
                            memo.stats.primed += 1;
                            memo.denials.insert(key, e.clone());
                        }
                    }
                    outcome
                };
                match shard.settle_arrival(i, graph_index, client, client, "", outcome, at_h) {
                    Admission::Admitted(_) => memo.clear(),
                    Admission::Parked(_) => {}
                    Admission::Refused(e) => {
                        shard.deny_arrival(i, graph_index, client, "", &e, at_h);
                    }
                }
            }
            CampaignEvent::Departure(i) => {
                // A completed departure's refund changed residual
                // capacity.
                if shard.depart(i, at_h).is_some() {
                    memo.clear();
                }
            }
            CampaignEvent::Fault(j) => {
                // Conservatively treat every fault as a mutation (even
                // skipped ones — the check costs nothing).
                memo.clear();
                shard.fault(&schedule[j], at_h);
            }
            CampaignEvent::Heartbeat(d) => {
                if let Some(reinstated) = shard.heartbeat(d, at_h, tl.grace_ms, &mut ()) {
                    if reinstated {
                        memo.clear();
                    }
                    queue.schedule(at_h + cfg.detection_grace_h, CampaignEvent::LeaseCheck(d));
                }
            }
            CampaignEvent::LeaseCheck(_) => {
                if shard.lease_check(at_h, tl.hb_end_h, &mut ()) == Some(true) {
                    memo.clear();
                }
            }
        }
        if shard.end_event(at_h, tl.hb_end_h, &mut ())? {
            memo.clear();
        }
    }
    shard.finalize(&mut ())?;
    // Everything still live or parked at the horizon is neither
    // completed nor dropped; fates must balance exactly.
    debug_assert!(
        shard.report.session_fates_balance(),
        "fates balance: {:?}",
        shard.report
    );
    Ok(CampaignOutcome {
        stages: shard.server.stage_times(),
        report: shard.report,
        log: shard.log,
        pipeline: Some(memo.stats),
    })
}

/// The client device request `i` runs on: a seeded draw over the
/// reachable devices `up` that never consumes the workload RNG stream.
pub(crate) fn draw_client(seed: u64, i: usize, up: &[usize]) -> usize {
    up[(splitmix64(seed ^ i as u64) % up.len() as u64) as usize]
}

/// What both campaign drivers derive from the config before the first
/// event: the request trace, the detection grace, and the heartbeat
/// horizon. [`Timeline::seed`] also fills the DES queue in the reference
/// order, so a one-domain federation pops exactly the serial sequence.
pub(crate) struct Timeline {
    /// The workload's requests, by index.
    pub(crate) trace: Vec<Request>,
    /// The detection grace in milliseconds (every lease's length).
    pub(crate) grace_ms: f64,
    /// Hour of the last scheduled heartbeat. The detector lives exactly
    /// as long as the heartbeat stream: lease checks after it are
    /// ignored (otherwise every healthy device would be "suspected" at
    /// the end of the campaign simply because its renewals stopped with
    /// the schedule), and [`Shard::finalize`] reconciles whatever is
    /// still unreachable at that point.
    pub(crate) hb_end_h: f64,
}

impl Timeline {
    /// Derives the timeline of `cfg` and schedules, in order: arrival
    /// and departure per request, each fault by schedule index, and
    /// (imperfect detection only) every device's heartbeats,
    /// device-major over `cfg.devices`.
    pub(crate) fn seed<E: From<CampaignEvent>>(
        cfg: &FaultCampaignConfig,
        schedule: &[TimedFault],
        queue: &mut EventQueue<E>,
    ) -> Timeline {
        let workload = WorkloadConfig::overload(cfg.requests, cfg.horizon_h);
        let trace = workload.generate(&mut StdRng::seed_from_u64(cfg.seed));
        let imperfect = !cfg.perfect_detection();
        let hb_steps = if imperfect {
            assert!(
                cfg.heartbeat_period_h > 0.0,
                "imperfect detection needs a positive heartbeat period"
            );
            (cfg.horizon_h / cfg.heartbeat_period_h).floor() as usize
        } else {
            0
        };
        for (i, r) in trace.iter().enumerate() {
            queue.schedule(r.arrival_h, CampaignEvent::Arrival(i).into());
            queue.schedule(r.departure_h(), CampaignEvent::Departure(i).into());
        }
        for (j, f) in schedule.iter().enumerate() {
            queue.schedule(f.at_h, CampaignEvent::Fault(j).into());
        }
        if imperfect {
            // Multiples of the period (not an accumulating sum) so the
            // last heartbeat lands exactly on the horizon when it
            // divides evenly.
            for d in 0..cfg.devices {
                for k in 0..=hb_steps {
                    queue.schedule(
                        k as f64 * cfg.heartbeat_period_h,
                        CampaignEvent::Heartbeat(d).into(),
                    );
                }
            }
        }
        Timeline {
            trace,
            grace_ms: cfg.detection_grace_h * 3_600_000.0,
            hb_end_h: hb_steps as f64 * cfg.heartbeat_period_h,
        }
    }
}

/// How an arrival's admission attempt resolved (see
/// [`Shard::settle_arrival`]).
pub(crate) enum Admission {
    /// Admitted as a live session.
    Admitted(SessionId),
    /// Parked on a stale view (counted admitted; its fate resolves
    /// later).
    Parked(SessionId),
    /// Refused. Nothing is booked yet: the caller denies the arrival (a
    /// federation may first try another domain).
    Refused(ConfigureError),
}

/// The fate a recovery pass gave a session (see [`Custody::claim`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Swept {
    Dropped,
    Parked,
    Readmitted,
}

/// Claims on sessions a shard's server holds outside the shard's fate
/// ledger, consulted whenever a recovery pass is absorbed. The serial
/// driver holds none (`()`). A federation holds handoff reservations
/// this way, and records which sessions each pass untracked (its
/// write-ahead log replays exactly those edits).
pub(crate) trait Custody {
    /// Whether session `id`, swept to `fate` by a recovery pass, is held
    /// for someone else — it then stays out of the shard's counters and
    /// session tables.
    fn claim(&mut self, _id: SessionId, _fate: Swept) -> bool {
        false
    }
    /// A recovery pass is about to be absorbed.
    fn begin_pass(&mut self) {}
    /// The pass dropped request `req`'s session `id`, and the shard
    /// untracked it.
    fn untracked(&mut self, _req: usize, _id: SessionId) {}
}

impl Custody for () {}

/// One domain's campaign state: a [`DomainServer`] plus the bookkeeping
/// the campaign keeps around it. The serial driver runs one; a
/// federation runs one per domain and routes each event to the shard
/// that owns it. Every per-domain arm — admission, departure, faults,
/// heartbeats, lease sweeps, the per-event epilogue and the end-of-run
/// phase — lives here once, so the two drivers cannot drift apart.
/// Fields are crate-visible so the durability layer can snapshot,
/// replay, and fingerprint them.
pub(crate) struct Shard {
    pub(crate) server: DomainServer,
    /// The campaign config with `devices` set to this domain's size.
    pub(crate) cfg: FaultCampaignConfig,
    pub(crate) log: EventLog,
    pub(crate) report: FaultReport,
    /// Ground truth: the devices that are physically down.
    pub(crate) down: BTreeSet<usize>,
    pub(crate) det: DetectorState,
    /// Request index → tracked (live or parked) session, and the
    /// reverse (for drop handling).
    pub(crate) active: BTreeMap<usize, SessionId>,
    pub(crate) by_session: BTreeMap<SessionId, usize>,
    /// The shard clock, in hours.
    pub(crate) last_h: f64,
    /// Events finished so far (the invariant stride counts these).
    pub(crate) iterations: u64,
    /// Hour of the last anti-entropy sweep: consecutive lease checks at
    /// one instant share a single sweep (see [`Shard::lease_check`]).
    pub(crate) last_sweep_h: Option<f64>,
}

impl Shard {
    /// A fresh domain of `cfg.devices` devices ([`build_space`]), with
    /// the strict ladder and retry policy when staged recovery is off,
    /// and the config's cache and placement settings.
    pub(crate) fn new(cfg: FaultCampaignConfig) -> Shard {
        let mut server = build_space(cfg.devices);
        if !cfg.staged_recovery {
            server.set_ladder(DegradationLadder::strict());
            server.set_retry_policy(RetryPolicy::strict());
        }
        server.set_config_cache(cfg.config_cache);
        server.set_placement_strategy(cfg.placement);
        Shard {
            server,
            log: EventLog::default(),
            report: FaultReport {
                seed: cfg.seed,
                ..FaultReport::default()
            },
            down: BTreeSet::new(),
            det: DetectorState::new(cfg.devices),
            active: BTreeMap::new(),
            by_session: BTreeMap::new(),
            last_h: 0.0,
            iterations: 0,
            last_sweep_h: None,
            cfg,
        }
    }

    /// Moves the shard clock forward to `at_h` (never backwards).
    pub(crate) fn advance(&mut self, at_h: f64) {
        let delta_h = (at_h - self.last_h).max(0.0);
        self.server.play(delta_h * 3600.0);
        self.last_h = at_h;
    }

    /// Appends this shard's ground-truth reachable devices to `up`,
    /// numbered from `offset`.
    pub(crate) fn extend_up(&self, offset: usize, up: &mut Vec<usize>) {
        up.extend(
            (0..self.cfg.devices)
                .filter(|d| !self.down.contains(d))
                .map(|d| offset + d),
        );
    }

    /// The tracked sessions that currently hold a live placement
    /// (parked ones have none), in session order.
    pub(crate) fn live_sessions(&self) -> impl Iterator<Item = SessionId> + '_ {
        self.by_session
            .keys()
            .copied()
            .filter(|&id| self.server.session(id).is_some())
    }

    fn track(&mut self, req: usize, id: SessionId) {
        self.active.insert(req, id);
        self.by_session.insert(id, req);
    }

    /// Runs the configurator for request `i` (template `graph_index`)
    /// on local client device `client_local`.
    pub(crate) fn start(
        &mut self,
        i: usize,
        graph_index: usize,
        client_local: usize,
    ) -> Result<SessionId, ConfigureError> {
        let (name, graph) = app_template(graph_index);
        self.server.start_session(
            format!("{name}-{i}"),
            graph,
            QosVector::new(),
            DeviceId::from_index(client_local),
        )
    }

    /// Books request `i`'s admission `outcome`. An admission is tracked
    /// and logged. A stale view — the view said yes, reality said no at
    /// activation, so nothing was charged — parks the session (counted
    /// admitted) instead of denying it. Any other error comes back
    /// unbooked. `client` is the device as the log names it, and `via`
    /// tags a forwarded arrival (`""` for none).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn settle_arrival(
        &mut self,
        i: usize,
        graph_index: usize,
        client_local: usize,
        client: usize,
        via: &str,
        outcome: Result<SessionId, ConfigureError>,
        at_h: f64,
    ) -> Admission {
        let name = app_name(graph_index);
        match outcome {
            Ok(id) => {
                self.report.arrivals += 1;
                self.report.admitted += 1;
                self.track(i, id);
                self.log.push_args(
                    at_h,
                    format_args!(
                        "arrive  req{i} {name} client=dev{client}{via} -> admitted as {id}"
                    ),
                );
                Admission::Admitted(id)
            }
            Err(e @ ConfigureError::StaleView { .. }) => {
                self.report.arrivals += 1;
                self.report.admitted += 1;
                self.report.parked += 1;
                let (_, graph) = app_template(graph_index);
                let id = self.server.park_arrival(
                    format!("{name}-{i}"),
                    graph,
                    QosVector::new(),
                    DeviceId::from_index(client_local),
                    None,
                    e,
                );
                self.track(i, id);
                self.log.push_args(
                    at_h,
                    format_args!(
                        "arrive  req{i} {name} client=dev{client}{via} -> parked on stale view as {id}"
                    ),
                );
                Admission::Parked(id)
            }
            Err(e) => Admission::Refused(e),
        }
    }

    /// Denies request `i` with `err` (arguments as in
    /// [`Shard::settle_arrival`]).
    pub(crate) fn deny_arrival(
        &mut self,
        i: usize,
        graph_index: usize,
        client: usize,
        via: &str,
        err: &dyn fmt::Display,
        at_h: f64,
    ) {
        self.report.arrivals += 1;
        self.report.denied += 1;
        let name = app_name(graph_index);
        self.log.push_args(
            at_h,
            format_args!("arrive  req{i} {name} client=dev{client}{via} -> denied ({err})"),
        );
    }

    /// Request `i`'s lifetime ends: its session, if it still has one,
    /// stops with an exact refund. Returns the completed session.
    pub(crate) fn depart(&mut self, i: usize, at_h: f64) -> Option<SessionId> {
        self.report.events += 1;
        let Some(id) = self.active.remove(&i) else {
            self.log
                .push_args(at_h, format_args!("depart  req{i} -> already gone"));
            return None;
        };
        self.by_session.remove(&id);
        let stopped = self.server.stop_session(id);
        debug_assert!(stopped.is_some(), "active map tracks live sessions");
        self.report.completed += 1;
        self.log
            .push_args(at_h, format_args!("depart  req{i} -> completed ({id})"));
        Some(id)
    }

    /// One scheduled (shard-local) fault: applied and logged.
    pub(crate) fn fault(&mut self, fault: &TimedFault, at_h: f64) {
        self.report.events += 1;
        let line = self.apply_fault(fault);
        self.log.push(at_h, &line);
    }

    /// Device `d`'s periodic heartbeat. Returns `None` when it is lost
    /// (the device is down, partitioned, or jammed). Otherwise it renews
    /// the device's lease, and a heartbeat from a *suspected* device
    /// withdraws the stale suspicion (heal or recovery); returns whether
    /// it did.
    pub(crate) fn heartbeat(
        &mut self,
        d: usize,
        at_h: f64,
        grace_ms: f64,
        custody: &mut impl Custody,
    ) -> Option<bool> {
        let lost = self.down.contains(&d)
            || self.det.partition_depth[d] > 0
            || at_h < self.det.jam_until_h[d];
        if lost {
            return None;
        }
        let Some(rec) = self.server.heartbeat(DeviceId::from_index(d), grace_ms) else {
            return Some(false);
        };
        self.report.reinstatements += 1;
        self.count_pass(&rec);
        let tail = self.absorb(&rec, custody);
        self.log.push_args(
            at_h,
            format_args!("detect  reinstate dev{d} (lease renewed) -> {tail}"),
        );
        Some(true)
    }

    /// The anti-entropy sweep scheduled `grace` after a lease renewal:
    /// *every* overdue lease turns into a suspicion, not just the
    /// renewing device's. Returns whether it suspected anything, or
    /// `None` when skipped:
    ///
    /// * after the heartbeat horizon `hb_end_h` the detector is
    ///   decommissioned ([`Shard::finalize`] reconciles the rest);
    /// * a second check at the instant of the last sweep is hoisted.
    ///   Heartbeats land on shared period multiples, so their lease
    ///   checks cluster at identical instants and pop consecutively.
    ///   The first check already swept and revoked *every* overdue
    ///   lease, and nothing between two same-instant checks can make a
    ///   new one overdue, so the repeat sweep is provably empty — no
    ///   lines, no counters, digests byte-identical to sweeping again.
    pub(crate) fn lease_check(
        &mut self,
        at_h: f64,
        hb_end_h: f64,
        custody: &mut impl Custody,
    ) -> Option<bool> {
        if at_h > hb_end_h + 1e-9 || self.last_sweep_h == Some(at_h) {
            return None;
        }
        self.last_sweep_h = Some(at_h);
        let mut swept = false;
        for (device, rec) in self.server.expire_overdue_leases() {
            swept = true;
            self.report.suspicions += 1;
            let ground_up = !self.down.contains(&device.index());
            if ground_up {
                self.report.false_suspected += 1;
            }
            self.count_pass(&rec);
            let tail = self.absorb(&rec, custody);
            let tag = if ground_up { " (falsely)" } else { "" };
            self.log.push_args(
                at_h,
                format_args!(
                    "detect  suspect dev{}{tag} (lease expired) -> {tail}",
                    device.index()
                ),
            );
        }
        Some(swept)
    }

    /// The per-event epilogue. Drains parked-session retries that came
    /// due as virtual time advanced (recovery passes drain their own;
    /// this catches time passing through arrivals, departures and
    /// switches). Then, every `invariant_stride`-th event, sweeps the
    /// invariants and — while the detector runs (up to `hb_end_h`) —
    /// its soundness after grace. Returns whether the drain moved a
    /// session.
    pub(crate) fn end_event(
        &mut self,
        at_h: f64,
        hb_end_h: f64,
        custody: &mut impl Custody,
    ) -> Result<bool, InvariantViolation> {
        let retries = self.server.process_retries();
        let moved = !retries.is_empty();
        if moved {
            let tail = self.absorb(&retries, custody);
            self.log
                .push_args(at_h, format_args!("retry   parked queue -> {tail}"));
        }
        self.iterations += 1;
        if !self
            .iterations
            .is_multiple_of(self.cfg.invariant_stride.max(1) as u64)
        {
            return Ok(moved);
        }
        let imperfect = !self.cfg.perfect_detection();
        // Cloned lazily — only checked events pay for the violation
        // context.
        let event_line = self.log.lines().last().cloned().unwrap_or_default();
        self.report.invariant_checks += 1;
        let observed: BTreeSet<usize> = if imperfect {
            self.server.suspected_devices().clone()
        } else {
            self.down.clone()
        };
        if let Err(violation) = check_invariants(&self.server, &observed) {
            return Err(InvariantViolation {
                at_h_milli: (at_h * 1000.0).round() as u64,
                event: event_line,
                violation,
            });
        }
        if imperfect && at_h <= hb_end_h + 1e-9 {
            // Detector soundness after grace: once a device has been
            // unreachable longer than grace + one heartbeat period, some
            // lease check must have suspected it. Only enforceable while
            // the heartbeat stream (and thus the detector) is running.
            let lag = self.cfg.detection_grace_h + self.cfg.heartbeat_period_h + 1e-6;
            for (&d, &since) in &self.det.unreachable_since {
                if at_h > since + lag && !self.server.is_suspected(DeviceId::from_index(d)) {
                    return Err(InvariantViolation {
                        at_h_milli: (at_h * 1000.0).round() as u64,
                        event: event_line,
                        violation: format!(
                            "detector unsound: dev{d} unreachable since t={since:.4}h \
                             still unsuspected at t={at_h:.4}h (grace {:.4}h)",
                            self.cfg.detection_grace_h
                        ),
                    });
                }
            }
        }
        Ok(moved)
    }

    /// The end-of-run phase. Under imperfect detection, a last
    /// anti-entropy sweep suspects every device still unreachable whose
    /// lease check has not fired, so the convergence drain sees the true
    /// capacity. The drain then pumps the retry queue dry (eventual
    /// completeness): every parked session re-admits (the schedule
    /// eventually healed) or exhausts its finite retry budget and drops
    /// witnessed — nothing stays parked forever. Finally the report's
    /// end-of-run fields and the log digest are filled in.
    pub(crate) fn finalize(
        &mut self,
        custody: &mut impl Custody,
    ) -> Result<(), InvariantViolation> {
        if !self.cfg.perfect_detection() {
            for d in 0..self.cfg.devices {
                let unreachable = self.down.contains(&d) || self.det.partition_depth[d] > 0;
                if unreachable && !self.server.is_suspected(DeviceId::from_index(d)) {
                    self.report.suspicions += 1;
                    if !self.down.contains(&d) {
                        self.report.false_suspected += 1;
                    }
                    let rec = self.server.suspect_many(&[DeviceId::from_index(d)]);
                    self.count_pass(&rec);
                    let tail = self.absorb(&rec, custody);
                    let at_h = self.last_h;
                    self.log.push_args(
                        at_h,
                        format_args!("detect  suspect dev{d} (final sweep) -> {tail}"),
                    );
                }
            }
            while self.server.parked_count() > 0 {
                let next_ms = self
                    .server
                    .parked_sessions()
                    .map(|(_, p)| p.next_retry_ms)
                    .fold(f64::INFINITY, f64::min);
                if next_ms > self.server.now_ms() {
                    self.server.play((next_ms - self.server.now_ms()) / 1000.0);
                }
                let rec = self.server.process_retries();
                let drain_h = self.server.now_ms() / 3_600_000.0;
                let tail = self.absorb(&rec, custody);
                self.log
                    .push_args(drain_h, format_args!("drain   parked queue -> {tail}"));
                self.last_h = self.last_h.max(drain_h);
                self.report.invariant_checks += 1;
                let observed: BTreeSet<usize> = self.server.suspected_devices().clone();
                if let Err(violation) = check_invariants(&self.server, &observed) {
                    return Err(InvariantViolation {
                        at_h_milli: (drain_h * 1000.0).round() as u64,
                        event: "drain   parked queue".to_owned(),
                        violation,
                    });
                }
            }
        }
        self.report.live_at_end = self.server.session_count() as u32;
        self.report.parked_at_end = self.server.parked_count() as u32;
        self.report.stale_views = self.server.stale_view_count() as u32;
        self.report.log_digest = self.log.digest();
        Ok(())
    }

    /// Applies one shard-local fault to the server, updating the
    /// bookkeeping, and returns the log line describing what actually
    /// happened (the caller logs it; write-ahead replay discards it).
    pub(crate) fn apply_fault(&mut self, fault: &TimedFault) -> String {
        let imperfect = !self.cfg.perfect_detection();
        match fault.kind {
            FaultKind::Crash { device } => {
                // The schedule's up/down state machine ran in generation
                // order; after time-sorting, a crash may arrive while the
                // device is already down or is the last survivor. Skip
                // those (logged), so the space never fully blacks out.
                if self.down.contains(&device) {
                    return format!("fault   crash dev{device} -> skipped (already down)");
                }
                if self.down.len() + 1 >= self.cfg.devices {
                    return format!("fault   crash dev{device} -> skipped (last device up)");
                }
                self.report.crashes += 1;
                self.down.insert(device);
                if imperfect {
                    // Ground truth only: the detector learns nothing
                    // until the device's lease expires.
                    self.server
                        .set_reachable(DeviceId::from_index(device), false);
                    self.det
                        .unreachable_since
                        .entry(device)
                        .or_insert(fault.at_h);
                    return format!(
                        "fault   crash dev{device} -> undetected (awaiting lease expiry)"
                    );
                }
                let rec = self.server.handle_crash(DeviceId::from_index(device));
                let tail = self.pass(&rec);
                format!("fault   crash dev{device} -> {tail}")
            }
            FaultKind::CrashScope { first, count } => {
                // Same skip rules as single crashes, applied member-wise,
                // and the whole group shrinks (from the back) until a
                // survivor remains outside it.
                let mut members: Vec<usize> = (first..first + count)
                    .filter(|d| !self.down.contains(d))
                    .collect();
                while !members.is_empty() && self.down.len() + members.len() >= self.cfg.devices {
                    members.pop();
                }
                let Some(&last) = members.last() else {
                    return format!(
                        "fault   crash-scope dev{first}+{count} -> skipped (no member can go down)"
                    );
                };
                self.report.crashes += members.len() as u32;
                if members.len() >= 2 {
                    self.report.correlated_crashes += 1;
                }
                self.down.extend(members.iter().copied());
                let n = members.len();
                if imperfect {
                    for &d in &members {
                        self.server.set_reachable(DeviceId::from_index(d), false);
                        self.det.unreachable_since.entry(d).or_insert(fault.at_h);
                    }
                    return format!(
                        "fault   crash-scope dev{first}..dev{last} ({n} members) -> undetected (awaiting lease expiry)"
                    );
                }
                let ids: Vec<DeviceId> = members.iter().map(|&d| DeviceId::from_index(d)).collect();
                let rec = self.server.handle_crash_many(&ids);
                let tail = self.pass(&rec);
                format!("fault   crash-scope dev{first}..dev{last} ({n} members) -> {tail}")
            }
            FaultKind::Recover { device } => {
                if !self.down.contains(&device) {
                    return format!("fault   recover dev{device} -> skipped (already up)");
                }
                self.report.device_recoveries += 1;
                self.down.remove(&device);
                if imperfect {
                    // Ground truth restored; if the crash was never even
                    // suspected (shorter than the grace window) the blip
                    // is tolerated invisibly, otherwise the next
                    // heartbeat renews the lease and reinstates the
                    // device.
                    if self.det.partition_depth[device] == 0 {
                        self.server
                            .set_reachable(DeviceId::from_index(device), true);
                        self.det.unreachable_since.remove(&device);
                    }
                    return format!(
                        "fault   recover dev{device} -> reachable (awaiting heartbeat)"
                    );
                }
                let rec = self.server.recover_device(DeviceId::from_index(device));
                let tail = self.pass(&rec);
                format!("fault   recover dev{device} -> {tail}")
            }
            FaultKind::Fluctuate { device, factor } => {
                if self.down.contains(&device) {
                    return format!("fault   fluctuate dev{device} -> skipped (down)");
                }
                if self.server.is_suspected(DeviceId::from_index(device)) {
                    // A suspected device's capacity is held at zero by
                    // the detector; applying the fluctuation would
                    // overwrite it. Physically the fluctuation happens on
                    // the (healthy) device, but the domain server cannot
                    // observe it.
                    return format!("fault   fluctuate dev{device} -> skipped (suspected)");
                }
                self.report.fluctuations += 1;
                let pristine = self
                    .server
                    .pristine()
                    .device(device)
                    .expect("schedule device indexes the space")
                    .availability()
                    .clone();
                let scaled = pristine
                    .scaled_by(&vec![factor; pristine.dim()])
                    .expect("factor vector matches dimension");
                let rec = self.server.fluctuate(DeviceId::from_index(device), scaled);
                let tail = self.pass(&rec);
                format!("fault   fluctuate dev{device} x{factor:.3} -> {tail}")
            }
            FaultKind::DegradeLink { a, b, factor } => {
                if self.down.contains(&a) || self.down.contains(&b) {
                    return format!(
                        "fault   degrade-link dev{a}-dev{b} -> skipped (endpoint down)"
                    );
                }
                self.report.link_fluctuations += 1;
                let mbps = self.server.pristine().bandwidth().get(a, b) * factor;
                let rec = self.server.degrade_link(
                    DeviceId::from_index(a),
                    DeviceId::from_index(b),
                    mbps,
                );
                let tail = self.pass(&rec);
                format!("fault   degrade-link dev{a}-dev{b} x{factor:.3} -> {tail}")
            }
            FaultKind::SwitchDevice { pick, to } | FaultKind::MoveUser { pick, to } => {
                let is_move = matches!(fault.kind, FaultKind::MoveUser { .. });
                let ids: Vec<SessionId> = self.live_sessions().collect();
                if ids.is_empty() {
                    return format!(
                        "fault   {} -> skipped (no live session)",
                        move_label(is_move)
                    );
                }
                let id = ids[(pick % ids.len() as u64) as usize];
                self.relocate(id, is_move, to, to)
            }
            FaultKind::Partition { first, count } => {
                if !imperfect {
                    return format!(
                        "fault   partition dev{first}+{count} -> skipped (perfect detection)"
                    );
                }
                self.report.partitions += 1;
                let hi = (first + count).min(self.cfg.devices);
                for d in first..hi {
                    self.det.partition_depth[d] += 1;
                    if self.det.partition_depth[d] == 1 && !self.down.contains(&d) {
                        self.server.set_reachable(DeviceId::from_index(d), false);
                        self.det.unreachable_since.entry(d).or_insert(fault.at_h);
                    }
                }
                format!(
                    "fault   partition dev{first}+{} -> cut off from the domain server",
                    hi - first
                )
            }
            FaultKind::Heal { first, count } => {
                if !imperfect {
                    return format!(
                        "fault   heal dev{first}+{count} -> skipped (perfect detection)"
                    );
                }
                self.report.heals += 1;
                let hi = (first + count).min(self.cfg.devices);
                for d in first..hi {
                    self.det.partition_depth[d] = self.det.partition_depth[d].saturating_sub(1);
                    if self.det.partition_depth[d] == 0 && !self.down.contains(&d) {
                        self.server.set_reachable(DeviceId::from_index(d), true);
                        self.det.unreachable_since.remove(&d);
                    }
                }
                format!(
                    "fault   heal dev{first}+{} -> rejoined (awaiting heartbeat)",
                    hi - first
                )
            }
            FaultKind::JamHeartbeats { device, until_h } => {
                if !imperfect {
                    return format!(
                        "fault   jam-heartbeats dev{device} -> skipped (perfect detection)"
                    );
                }
                self.report.heartbeat_jams += 1;
                self.det.jam_until_h[device] = self.det.jam_until_h[device].max(until_h);
                format!("fault   jam-heartbeats dev{device} until t={until_h:010.4}h")
            }
            // Domain-server crashes only exist at the federation level;
            // the serial harness runs the one immortal server these
            // events cannot reach (the federated engine intercepts them
            // before this dispatch).
            FaultKind::ShardCrash { shard } => {
                format!("fault   shard-crash shard{shard} -> skipped (serial harness)")
            }
            FaultKind::ShardRestart { shard } => {
                format!("fault   shard-restart shard{shard} -> skipped (serial harness)")
            }
        }
    }

    /// Moves the user of live session `id` (`is_move`) or switches its
    /// output device to local device `to_local`; `to` is the device as
    /// the log names it. Returns the log line. A failure keeps the old
    /// configuration.
    pub(crate) fn relocate(
        &mut self,
        id: SessionId,
        is_move: bool,
        to_local: usize,
        to: usize,
    ) -> String {
        let label = move_label(is_move);
        let target = DeviceId::from_index(to_local);
        let result = if is_move {
            self.report.moves += 1;
            self.server.move_user(id, None, target)
        } else {
            self.report.switches += 1;
            self.server.switch_device(id, target)
        };
        match result {
            Ok(plan) => format!(
                "fault   {label} {id} -> dev{to} (resume at {:.4}s)",
                plan.resume_position_s()
            ),
            Err(e) => {
                if is_move {
                    self.report.move_failures += 1;
                } else {
                    self.report.switch_failures += 1;
                }
                format!("fault   {label} {id} -> dev{to} failed ({e}), old config kept")
            }
        }
    }

    /// A fault arm's recovery pass: counted, then absorbed without
    /// custody (fault replay re-runs the whole arm, so nothing needs
    /// recording).
    fn pass(&mut self, rec: &RecoveryReport) -> String {
        self.count_pass(rec);
        self.absorb(rec, &mut ())
    }

    /// Counts one recovery pass's O(affected)-vs-O(considered) work
    /// (fault, detector and final-sweep passes — the retry-queue drain
    /// is not a pass).
    fn count_pass(&mut self, rec: &RecoveryReport) {
        self.report.recovery_passes += 1;
        self.report.recovery_considered += rec.considered as u32;
        self.report.recovery_affected += rec.affected as u32;
    }

    /// Folds a [`RecoveryReport`] into the shard's bookkeeping and
    /// renders its log tail. Re-placements (full-quality or degraded)
    /// count as replacements; parked sessions stay tracked (a later
    /// departure reaches them through `stop_session`); dropped ones are
    /// untracked, and every drop must carry its witnessing error
    /// (asserted). Sessions `custody` claims stay out of the counters
    /// and tables, but the tail always describes the whole pass.
    fn absorb(&mut self, rec: &RecoveryReport, custody: &mut impl Custody) -> String {
        assert_eq!(
            rec.dropped.len(),
            rec.drop_errors.len(),
            "every drop carries the error witnessing unplaceability"
        );
        custody.begin_pass();
        let mut dropped = 0u32;
        for (id, (witness_id, _)) in rec.dropped.iter().zip(&rec.drop_errors) {
            assert_eq!(id, witness_id, "drop witnesses line up");
            if custody.claim(*id, Swept::Dropped) {
                continue;
            }
            dropped += 1;
            let req = self
                .by_session
                .remove(id)
                .expect("dropped sessions were tracked");
            self.active.remove(&req);
            custody.untracked(req, *id);
        }
        let mut parked = 0u32;
        for &id in &rec.parked {
            if !custody.claim(id, Swept::Parked) {
                parked += 1;
            }
        }
        let mut readmitted = 0u32;
        for &id in &rec.readmitted {
            if !custody.claim(id, Swept::Readmitted) {
                readmitted += 1;
            }
        }
        self.report.replacements += rec.replacements() as u32;
        self.report.degraded += rec.degraded.len() as u32;
        self.report.parked += parked;
        self.report.readmitted += readmitted;
        self.report.dropped += dropped;
        let mut tail = format!(
            "re-placed {} ({} degraded), parked {}, readmitted {}, dropped {}; affected {}/{}",
            rec.replacements(),
            rec.degraded.len(),
            rec.parked.len(),
            rec.readmitted.len(),
            rec.dropped.len(),
            rec.affected,
            rec.considered,
        );
        for (id, err) in &rec.drop_errors {
            let _ = write!(tail, "; {id} unplaceable ({err})");
        }
        tail
    }
}

/// The log label of a portal switch (`false`) or a user move (`true`).
pub(crate) fn move_label(is_move: bool) -> &'static str {
    if is_move {
        "move-user"
    } else {
        "switch-device"
    }
}

/// Sweeps every invariant over the server's current state. Returns the
/// first violation found, described.
pub fn check_invariants(server: &DomainServer, down: &BTreeSet<usize>) -> Result<(), String> {
    let env = server.env();
    let capacity = server.capacity();

    // (1) Capacity bounds per device dimension.
    for (d, (residual, cap)) in env.devices().iter().zip(capacity.devices()).enumerate() {
        for (k, (&r, &c)) in residual
            .availability()
            .amounts()
            .iter()
            .zip(cap.availability().amounts())
            .enumerate()
        {
            if r < -EPS {
                return Err(format!("device {d} dim {k}: negative residual {r}"));
            }
            if r > c + EPS {
                return Err(format!(
                    "device {d} dim {k}: residual {r} exceeds capacity {c}"
                ));
            }
        }
    }

    // (2) Conservation: capacity - Σ live charges == residual, per
    // device dimension. Recompute the charges from the live cuts.
    let dim = capacity.device(0).map_or(0, |dev| dev.availability().dim());
    let mut charged = vec![ResourceVector::zero(dim); capacity.device_count()];
    for (_, s) in server.sessions() {
        let graph = &s.configuration.app.graph;
        let cut = &s.configuration.cut;
        for (part, charge) in charged.iter_mut().enumerate().take(cut.parts()) {
            let used = cut
                .part_resource_sum(graph, part)
                .map_err(|e| format!("session cut dimension mismatch: {e}"))?;
            *charge = charge
                .checked_add(&used)
                .map_err(|e| format!("charge accumulation mismatch: {e}"))?;
        }
    }
    for (d, used) in charged.iter().enumerate() {
        let cap = capacity.device(d).expect("index in range").availability();
        let res = env.device(d).expect("index in range").availability();
        for k in 0..dim {
            let expect = cap.amounts()[k] - used.amounts()[k];
            let got = res.amounts()[k];
            if (expect - got).abs() > EPS {
                return Err(format!(
                    "device {d} dim {k}: residual {got} != capacity-charges {expect}"
                ));
            }
        }
    }

    // (3) Link-bandwidth bounds and conservation over the shared pool.
    let mut link_charged: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    for (_, s) in server.sessions() {
        let graph = &s.configuration.app.graph;
        let t = s.configuration.cut.inter_part_throughput(graph);
        for (i, row) in t.iter().enumerate() {
            for (j, &mbps) in row.iter().enumerate().skip(i + 1) {
                let both = mbps + t[j][i];
                if both > 0.0 {
                    *link_charged.entry((i, j)).or_insert(0.0) += both;
                }
            }
        }
    }
    for (i, j, cap_mbps) in capacity.bandwidth().pairs() {
        if !cap_mbps.is_finite() {
            continue;
        }
        let res_mbps = env.bandwidth().get(i, j);
        if res_mbps < -EPS {
            return Err(format!("link {i}-{j}: negative residual {res_mbps}"));
        }
        let used = link_charged.get(&(i, j)).copied().unwrap_or(0.0);
        let expect = cap_mbps - used;
        if (expect - res_mbps).abs() > EPS {
            return Err(format!(
                "link {i}-{j}: residual {res_mbps} != capacity-charges {expect}"
            ));
        }
    }

    // (4) Discovery hygiene: no registered instance is pinned to a down
    // device — crashed hosts' instances must stay unregistered until
    // recovery re-registers them. Checked through the registry's
    // host index, which also exercises it under churn.
    for &d in down {
        if let Some(desc) = server.registry().hosted_on(d).first() {
            return Err(format!(
                "discovery: instance `{}` visible while host dev{d} is down",
                desc.instance_id
            ));
        }
    }

    // (5) Per-session checks: Eq. 1 consistency, pins, crashed devices
    // host nothing.
    for (id, s) in server.sessions() {
        let graph = &s.configuration.app.graph;
        let cut = &s.configuration.cut;
        if !diagnose(graph).is_consistent() {
            return Err(format!("{id}: live graph is not QoS-consistent (Eq. 1)"));
        }
        match cut.respects_pins(graph) {
            Ok(true) => {}
            Ok(false) => return Err(format!("{id}: cut violates a component pin")),
            Err(e) => return Err(format!("{id}: malformed cut ({e})")),
        }
        for &d in down {
            if d < cut.parts() {
                let used = cut
                    .part_resource_sum(graph, d)
                    .map_err(|e| format!("{id}: cut dimension mismatch ({e})"))?;
                if !used.is_zero() {
                    return Err(format!("{id}: components placed on crashed device {d}"));
                }
            }
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ubiqos::fault_report::fnv1a;

    /// The event-log fast path must reproduce `format!` byte-for-byte —
    /// every campaign digest depends on it. Sweeps exact representables,
    /// rounding boundaries (which must take the fallback), pathological
    /// values, and a seeded random cloud.
    #[test]
    fn fast_hours_matches_std_formatting() {
        let mut cases: Vec<f64> = vec![
            0.0,
            0.0001,
            0.00005,
            0.00014999999,
            0.12345,
            1.0 / 3.0,
            2.5,
            41.9999999,
            47.99995,
            1000.0,
            99_999.999_9,
            99_999.999_99,
            100_000.0,
            1e12,
            -1.5,
            f64::NAN,
            f64::INFINITY,
        ];
        let mut x = 0x1cdc_2002_u64;
        for _ in 0..20_000 {
            x = splitmix64(x);
            // Hours in [0, 1049): the magnitude every campaign uses.
            cases.push((x % (1 << 20)) as f64 / 1000.0 + (splitmix64(x) % 1000) as f64 * 1e-7);
        }
        for at_h in cases {
            let mut fast = String::new();
            push_hours(&mut fast, at_h);
            assert_eq!(fast, format!("{at_h:010.4}"), "at_h = {at_h:?}");
        }
        let mut s = String::new();
        push_padded_int(&mut s, 7, 4);
        s.push(' ');
        push_padded_int(&mut s, 123_456, 4);
        assert_eq!(s, "0007 123456");
    }

    /// The streamed digest must agree with hashing the rendered log.
    #[test]
    fn streamed_digest_matches_rendered_digest() {
        let mut log = EventLog::default();
        log.push(0.25, "arrive  req0");
        log.push_args(17.333333, format_args!("depart  req{} -> gone", 0));
        assert_eq!(log.digest(), fnv1a(log.render().as_bytes()));
        assert!(log.lines()[1].starts_with("[0001] t=00017.3333h "));
    }

    #[test]
    fn campaign_completes_and_balances() {
        let outcome = run_fault_campaign(&FaultCampaignConfig::default()).expect("no violations");
        let r = &outcome.report;
        assert!(r.session_fates_balance(), "{r:?}");
        assert_eq!(r.arrivals, 120);
        assert!(r.admitted > 0, "some sessions must be admitted");
        assert!(r.invariant_checks >= r.events);
        assert_eq!(r.log_digest, outcome.log.digest());
    }

    #[test]
    fn campaign_is_deterministic() {
        let cfg = FaultCampaignConfig::default();
        let a = run_fault_campaign(&cfg).expect("no violations");
        let b = run_fault_campaign(&cfg).expect("no violations");
        assert_eq!(a.log.render(), b.log.render(), "byte-identical logs");
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn different_seeds_diverge() {
        let a = run_fault_campaign(&FaultCampaignConfig::default()).expect("no violations");
        let b = run_fault_campaign(&FaultCampaignConfig {
            seed: 7,
            ..FaultCampaignConfig::default()
        })
        .expect("no violations");
        assert_ne!(a.log.render(), b.log.render());
        assert_ne!(a.report.log_digest, b.report.log_digest);
    }

    #[test]
    fn faults_actually_fire() {
        let outcome = run_fault_campaign(&FaultCampaignConfig::default()).expect("no violations");
        let r = &outcome.report;
        assert!(r.crashes > 0, "schedule should include crashes: {r}");
        assert!(r.fluctuations > 0, "and fluctuations: {r}");
        assert_eq!(
            r.events,
            r.arrivals * 2 + 40,
            "arrival+departure per request plus every fault"
        );
    }

    #[test]
    fn staged_recovery_drops_fewer_sessions_than_strict() {
        // Dense enough that capacity actually contends: ~4 devices carry
        // several concurrent sessions while faults shrink them.
        let staged_cfg = FaultCampaignConfig {
            devices: 4,
            requests: 400,
            faults: 80,
            scope_max: 2,
            flapping_links: 1,
            ..FaultCampaignConfig::default()
        };
        let strict_cfg = FaultCampaignConfig {
            staged_recovery: false,
            ..staged_cfg.clone()
        };
        let staged = run_fault_campaign(&staged_cfg)
            .expect("no violations")
            .report;
        let strict = run_fault_campaign(&strict_cfg)
            .expect("no violations")
            .report;
        // Same seed, same schedule, same arrival stream: the comparison
        // is at equal admission workload.
        assert_eq!(staged.arrivals, strict.arrivals);
        assert_eq!(staged.crashes, strict.crashes);
        assert!(
            staged.dropped < strict.dropped,
            "staged pipeline must shed fewer sessions: staged {} vs strict {}",
            staged.dropped,
            strict.dropped
        );
        assert!(
            staged.degraded + staged.readmitted > 0,
            "the ladder/retry path must actually fire: {staged:?}"
        );
        // The incremental pass does strictly less work than a full
        // O(sessions) re-placement would have.
        assert!(staged.recovery_affected <= staged.recovery_considered);
        assert!(staged.recovery_passes > 0);
    }

    #[test]
    fn correlated_and_flapping_events_fire() {
        let outcome = run_fault_campaign(&FaultCampaignConfig {
            scope_max: 3,
            flapping_links: 1,
            ..FaultCampaignConfig::default()
        })
        .expect("no violations");
        let r = &outcome.report;
        assert!(
            r.events > r.arrivals * 2 + 40,
            "flapping overlays add events beyond the base schedule: {r}"
        );
        assert!(r.link_fluctuations > 0, "flapping links degrade/restore");
    }

    #[test]
    fn templates_cover_both_pipelines() {
        let (wav, g0) = app_template(0);
        let (mpeg, g1) = app_template(1);
        assert_eq!(wav, "wav-audio");
        assert_eq!(mpeg, "mpeg-audio");
        assert_eq!(g0.spec_count(), 2);
        assert_eq!(g1.spec_count(), 2);
    }

    #[test]
    fn invariants_pass_on_a_fresh_space() {
        let server = build_space(4);
        assert_eq!(check_invariants(&server, &BTreeSet::new()), Ok(()));
    }

    /// An imperfect-detection campaign config with every detector
    /// feature active: a 1 h grace window, partitions, and lossy
    /// heartbeats on top of the usual crash/flap schedule.
    fn imperfect_cfg() -> FaultCampaignConfig {
        FaultCampaignConfig {
            detection_grace_h: 1.0,
            heartbeat_period_h: 0.25,
            partitions: 2,
            partition_max: 2,
            heartbeat_loss: 0.3,
            scope_max: 2,
            ..FaultCampaignConfig::default()
        }
    }

    #[test]
    fn imperfect_detection_converges_and_balances() {
        let outcome = run_fault_campaign(&imperfect_cfg()).expect("no violations");
        let r = &outcome.report;
        assert!(r.session_fates_balance(), "{r:?}");
        assert!(r.partitions > 0, "partition overlay must fire: {r}");
        assert_eq!(r.heals, r.partitions, "every partition heals in-horizon");
        assert!(
            r.suspicions > 0,
            "crashes/partitions must be suspected: {r}"
        );
        assert!(
            r.false_suspected > 0,
            "partitioned-but-healthy devices must be falsely suspected: {r}"
        );
        assert!(
            r.reinstatements > 0,
            "healed/recovered devices must be reinstated by a heartbeat: {r}"
        );
        // Eventual completeness: the convergence drain leaves nothing
        // permanently parked.
        assert_eq!(
            r.parked_at_end, 0,
            "converged schedules park nothing forever: {r}"
        );
    }

    #[test]
    fn imperfect_detection_is_deterministic() {
        let cfg = imperfect_cfg();
        let a = run_fault_campaign(&cfg).expect("no violations");
        let b = run_fault_campaign(&cfg).expect("no violations");
        assert_eq!(a.log.render(), b.log.render(), "byte-identical logs");
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn partitions_without_crashes_only_false_suspect_and_fully_reinstate() {
        // No crashes at all: every suspicion is of a healthy device, and
        // every one must be cleanly undone by a post-heal heartbeat.
        let cfg = FaultCampaignConfig {
            faults: 0,
            detection_grace_h: 0.5,
            heartbeat_period_h: 0.25,
            partitions: 3,
            partition_max: 2,
            ..FaultCampaignConfig::default()
        };
        let r = run_fault_campaign(&cfg).expect("no violations").report;
        assert_eq!(r.crashes, 0);
        assert!(r.suspicions > 0, "partitions outlast the grace window: {r}");
        assert_eq!(
            r.false_suspected, r.suspicions,
            "all suspicions are false: {r}"
        );
        assert_eq!(
            r.reinstatements, r.suspicions,
            "all suspicions are undone: {r}"
        );
        assert_eq!(r.parked_at_end, 0, "{r}");
        assert!(r.session_fates_balance(), "{r:?}");
    }

    #[test]
    fn grace_zero_reproduces_the_perfect_detection_bytes() {
        // The equivalence the CI baseline job pins: detector knobs at
        // their defaults (grace 0, no partitions, no loss) are not
        // merely *similar* to the pre-detector harness — the logs are
        // byte-identical, because no heartbeat events exist, no extra
        // RNG draws happen, and no new log lines fire.
        let cfg = FaultCampaignConfig {
            detection_grace_h: 0.0,
            heartbeat_period_h: 0.125, // ignored when grace is zero
            partitions: 0,
            partition_max: 3, // ignored when partitions is zero
            heartbeat_loss: 0.0,
            ..FaultCampaignConfig::default()
        };
        assert!(cfg.perfect_detection());
        let explicit = run_fault_campaign(&cfg).expect("no violations");
        let default = run_fault_campaign(&FaultCampaignConfig::default()).expect("no violations");
        assert_eq!(explicit.log.render(), default.log.render());
        assert_eq!(explicit.report, default.report);
    }

    #[test]
    fn stale_view_parks_surface_in_the_log_and_report() {
        // A long grace window and plenty of partitions maximize the
        // window where placement acts on a stale view; some arrival or
        // re-placement must hit it.
        let cfg = FaultCampaignConfig {
            requests: 300,
            detection_grace_h: 2.0,
            heartbeat_period_h: 0.5,
            partitions: 4,
            partition_max: 2,
            scope_max: 2,
            ..FaultCampaignConfig::default()
        };
        let outcome = run_fault_campaign(&cfg).expect("no violations");
        let r = &outcome.report;
        assert!(
            r.stale_views > 0,
            "stale-view activations must be witnessed: {r}"
        );
        assert!(r.session_fates_balance(), "{r:?}");
    }
}
