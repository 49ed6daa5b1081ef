//! Durable shard state: a per-shard virtual-time write-ahead log plus
//! periodic snapshot checkpoints, backing crash/restart fault injection
//! in the federated engine ([`crate::federation`]).
//!
//! ## Model
//!
//! Every state mutation a shard performs while handling federated
//! events is journaled as a typed [`WalRecord`] *before* (or, for
//! outcome-dependent bookkeeping, within the same atomic event as) the
//! mutation itself: clock advances, session-table track/untrack edits,
//! every [`DomainServer`] call (admissions, parks, refunds via
//! `stop_session`, lease renewals, lease expiries, retry drains,
//! moves/switches), and every injected device fault. Periodic
//! checkpoints capture a [`ShardSnapshot`] and truncate the record
//! tail, bounding both replay work and journal memory.
//!
//! The rendered event log is the one part of a shard that only ever
//! grows, so the WAL keeps it apart from the records: [`ShardWal`] owns
//! an append-only durable transcript, and each event-boundary
//! [`WalRecord::Mark`] copies the lines appended since the previous
//! mark into it, so every line is written to the WAL exactly once. A
//! mark and a snapshot then need only the transcript length at that
//! point: every line before it is already in the transcript, and no
//! line is ever rewritten, so `transcript[..len]` is the log as it
//! stood. A checkpoint costs the shard's other state, not the length
//! of the run.
//!
//! On a scheduled `ShardCrash` the engine rebuilds the shard from
//! `snapshot + tail` replay, asserts the rebuilt state equals the
//! pre-crash state **field by field** (transcript bytes, report,
//! session tables, detector state, clock, and the domain server's own
//! [`state fingerprint`](DomainServer::state_fingerprint)), and swaps
//! the rebuilt shard in — so a replay bug surfaces twice: once in the
//! hard equality assert and once downstream as a per-shard digest
//! divergence.
//!
//! ## Replay determinism
//!
//! Replay re-executes recorded [`ServerCall`]s against the restored
//! server — it never duplicates handler branch logic. A call whose
//! live-side bookkeeping depended on the *outcome* (which recovered
//! session ids were reservation custody at absorb time) carries the
//! raw session ids actually untracked, so replay applies the same map
//! edits without consulting crash-time engine state. Aggregate
//! counters, the iteration count, the sweep cursor, and the transcript
//! length are coalesced into [`WalRecord::Mark`] records emitted at
//! event boundaries (the crash instant is itself a boundary). Everything
//! the counters summarize is already individually journaled by the typed
//! records around them, and lines never leave the shard, so nothing
//! outside it can observe a line before its mark. Recovery reads only
//! what the WAL owns (snapshot, tail and transcript), never the crashed
//! shard.
//!
//! Volatile profiling state (wall-clock stage times, solver-portfolio
//! telemetry, composition-cache contents) is checkpointed by value but
//! not journaled: a crash loses the profiling tail since the last
//! checkpoint. It is excluded from [`shard_fingerprint`], and the
//! cache-on ≡ cache-off contract (PR 4) makes a cold composition
//! cache semantically invisible.

use crate::domain_server::SessionId;
use crate::faults::{EventLog, Shard};
use serde::{Deserialize, Serialize};
use ubiqos::fault_report::fnv1a;
use ubiqos::{ConfigureError, FaultReport};
use ubiqos_graph::{AbstractServiceGraph, DeviceId};
use ubiqos_model::QosVector;
use ubiqos_sim::TimedFault;

/// Durability knobs of the federated engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DurabilityConfig {
    /// Whether shards journal at all. Crash faults require `true`
    /// (enforced by [`FederationConfig::validate`]); journaling never
    /// touches shard state, so a crash-free run is byte-identical
    /// either way.
    ///
    /// [`FederationConfig::validate`]: crate::federation::FederationConfig::validate
    pub enabled: bool,
    /// Checkpoint cadence: a fresh snapshot is captured (and the log
    /// tail truncated) once the tail reaches this many records.
    pub checkpoint_every: usize,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            enabled: true,
            checkpoint_every: 256,
        }
    }
}

/// One journaled [`DomainServer`](crate::DomainServer) call. Replay
/// re-executes the call verbatim; the `removed` lists carry the raw
/// session ids the live run untracked when absorbing the call's
/// recovery report (reservation-custody ids are *not* untracked, so
/// they are absent from the lists by construction).
#[derive(Debug, Clone)]
pub(crate) enum ServerCall {
    /// `start_session` — an admission attempt (arrival, forwarded
    /// arrival, reservation, or late-commit re-admission).
    Start {
        name: String,
        graph: AbstractServiceGraph,
        qos: QosVector,
        client_local: usize,
    },
    /// `park_arrival` — a session parked into the retry queue with a
    /// witnessed error.
    Park {
        name: String,
        graph: AbstractServiceGraph,
        qos: QosVector,
        client_local: usize,
        err: ConfigureError,
    },
    /// `stop_session` — a departure, refund, release, or lease expiry.
    Stop { sid: u64 },
    /// `move_user` to a shard-local device.
    Move { sid: u64, to_local: usize },
    /// `switch_device` to a shard-local device.
    Switch { sid: u64, to_local: usize },
    /// `heartbeat` (lease renewal); `removed` are the raw ids the
    /// reinstatement pass untracked.
    Heartbeat { device: usize, removed: Vec<u64> },
    /// `expire_overdue_leases` (anti-entropy sweep); one `removed`
    /// list per suspected device, in sweep order.
    ExpireLeases { removed: Vec<Vec<u64>> },
    /// `process_retries` (per-event retry drain); `removed` as above.
    Retries { removed: Vec<u64> },
}

/// One write-ahead log record.
#[derive(Debug, Clone)]
pub(crate) enum WalRecord {
    /// Monotone clock advance to `at_h` (the serial `play` step).
    Advance { at_h: f64 },
    /// Request `req` tracked as live session `sid` in the shard's
    /// `active`/`by_session` tables.
    Track { req: usize, sid: u64 },
    /// Request `req` / session `sid` untracked.
    Untrack { req: usize, sid: u64 },
    /// A journaled domain-server call.
    Call(ServerCall),
    /// A shard-local device fault, replayed through the shared
    /// [`Shard::apply_fault`] arm (which re-absorbs its recovery
    /// internally).
    Fault(TimedFault),
    /// Event-boundary coalescence of aggregate state: the full
    /// counter report, the per-shard iteration count, the sweep
    /// cursor, and the durable transcript's length once the lines
    /// appended since the previous mark were copied into it (replay
    /// extends the log to `transcript[..log_len]`). Emitted at every
    /// event epilogue and at the crash instant itself, so replay lands
    /// exactly on the pre-crash values.
    Mark {
        report: Box<FaultReport>,
        iterations: u64,
        last_sweep_h: Option<f64>,
        log_len: usize,
    },
}

/// A checkpoint of one shard without its event log, which the WAL's
/// transcript already holds: `log_len` is the log's length at capture,
/// and the log restores as `transcript[..log_len]`. The domain server
/// is captured via
/// [`clone_for_checkpoint`](crate::DomainServer::clone_for_checkpoint)
/// (fresh event bus, cold composition cache, profiling copied by
/// value).
pub(crate) struct ShardSnapshot {
    /// The shard, its `log` left empty.
    shard: Shard,
    log_len: usize,
}

impl ShardSnapshot {
    /// Captures shard `s` as of now; its log lines must already be in
    /// the transcript.
    pub(crate) fn capture(shard: &Shard) -> Self {
        ShardSnapshot {
            shard: checkpoint_copy(shard, EventLog::default()),
            log_len: shard.log.lines().len(),
        }
    }

    /// Materializes a fresh shard from the checkpoint, its log read
    /// back from `transcript`.
    pub(crate) fn restore(&self, transcript: &[String]) -> Shard {
        let mut log = EventLog::default();
        log.extend_rendered(&transcript[..self.log_len]);
        checkpoint_copy(&self.shard, log)
    }

    /// Log lines the snapshot itself holds (none: they live in the
    /// transcript).
    #[cfg(test)]
    fn held_lines(&self) -> usize {
        self.shard.log.lines().len()
    }
}

/// A copy of `shard` with `log` in place of its event log.
fn checkpoint_copy(shard: &Shard, log: EventLog) -> Shard {
    Shard {
        server: shard.server.clone_for_checkpoint(),
        cfg: shard.cfg.clone(),
        log,
        report: shard.report.clone(),
        down: shard.down.clone(),
        det: shard.det.clone(),
        active: shard.active.clone(),
        by_session: shard.by_session.clone(),
        last_h: shard.last_h,
        iterations: shard.iterations,
        last_sweep_h: shard.last_sweep_h,
    }
}

/// One shard's write-ahead log: the last checkpoint, the typed record
/// tail appended since, and the durable transcript of every log line
/// marked so far.
pub(crate) struct ShardWal {
    enabled: bool,
    checkpoint_every: usize,
    snapshot: Option<ShardSnapshot>,
    pub(crate) tail: Vec<WalRecord>,
    /// The shard's rendered log lines up to its last mark or
    /// checkpoint. Append-only and never truncated, so snapshots and
    /// marks refer to a prefix of it by length.
    transcript: Vec<String>,
    /// Records appended over the shard's lifetime (across checkpoint
    /// truncations).
    pub(crate) appended: u64,
    /// Records replayed by crash recoveries.
    pub(crate) replayed: u64,
    /// Snapshot restores performed by crash recoveries.
    pub(crate) restores: u64,
}

impl ShardWal {
    /// A journal for `shard`, capturing the initial checkpoint when
    /// durability is enabled.
    pub(crate) fn new(cfg: &DurabilityConfig, shard: &Shard) -> Self {
        let mut wal = ShardWal {
            enabled: cfg.enabled,
            checkpoint_every: cfg.checkpoint_every.max(1),
            snapshot: None,
            tail: Vec::new(),
            transcript: Vec::new(),
            appended: 0,
            replayed: 0,
            restores: 0,
        };
        wal.checkpoint(shard);
        wal
    }

    /// Appends one record (no-op when durability is disabled).
    pub(crate) fn push(&mut self, rec: WalRecord) {
        if self.enabled {
            self.tail.push(rec);
            self.appended += 1;
        }
    }

    /// Journals an event-boundary [`WalRecord::Mark`] for `shard`: its
    /// counter report, epilogue cursors, and the transcript length once
    /// the log lines appended since the previous mark are copied into
    /// the transcript (no-op when durability is disabled).
    pub(crate) fn mark(&mut self, shard: &Shard) {
        if !self.enabled {
            return;
        }
        self.sync_transcript(shard);
        self.push(WalRecord::Mark {
            report: Box::new(shard.report.clone()),
            iterations: shard.iterations,
            last_sweep_h: shard.last_sweep_h,
            log_len: self.transcript.len(),
        });
    }

    /// Copies the lines `shard` logged since the last sync into the
    /// transcript, each line once.
    fn sync_transcript(&mut self, shard: &Shard) {
        self.transcript
            .extend_from_slice(&shard.log.lines()[self.transcript.len()..]);
    }

    /// Whether the tail has reached the checkpoint cadence.
    pub(crate) fn due_checkpoint(&self) -> bool {
        self.enabled && self.tail.len() >= self.checkpoint_every
    }

    /// Captures a fresh checkpoint of `shard` and truncates the tail.
    pub(crate) fn checkpoint(&mut self, shard: &Shard) {
        if self.enabled {
            self.sync_transcript(shard);
            self.snapshot = Some(ShardSnapshot::capture(shard));
            self.tail.clear();
        }
    }

    /// Rebuilds the shard from `snapshot + tail` replay, its log from
    /// the transcript. `grace_ms` is the engine's detection grace (the
    /// one live heartbeat calls used).
    pub(crate) fn recover(&mut self, grace_ms: f64) -> Shard {
        let n = self.tail.len();
        let shard = self.replay_prefix(grace_ms, n);
        self.replayed += n as u64;
        self.restores += 1;
        shard
    }

    /// Rebuilds the shard from the snapshot plus the first `n` tail
    /// records — a recovery that itself crashed after `n` records and
    /// restarted is exactly a second `replay_prefix(n)` call, so the
    /// prefix-idempotence property tests drive this directly.
    pub(crate) fn replay_prefix(&self, grace_ms: f64, n: usize) -> Shard {
        let snapshot = self
            .snapshot
            .as_ref()
            .expect("recovery requires durability to be enabled");
        let mut shard = snapshot.restore(&self.transcript);
        for rec in &self.tail[..n] {
            apply_record(&mut shard, rec, grace_ms, &self.transcript);
        }
        shard
    }
}

/// Untracks raw session id `raw` from the shard's session tables (the
/// replay arm of a live-side absorb removal).
fn untrack_raw(shard: &mut Shard, raw: u64) {
    let sid = SessionId::from_raw(raw);
    if let Some(req) = shard.by_session.remove(&sid) {
        shard.active.remove(&req);
    }
}

/// Applies one journal record to a shard under reconstruction; a
/// `Mark` extends its log from `transcript`.
fn apply_record(shard: &mut Shard, rec: &WalRecord, grace_ms: f64, transcript: &[String]) {
    match rec {
        WalRecord::Advance { at_h } => {
            let delta_h = (at_h - shard.last_h).max(0.0);
            shard.server.play(delta_h * 3600.0);
            shard.last_h = *at_h;
        }
        WalRecord::Track { req, sid } => {
            let sid = SessionId::from_raw(*sid);
            shard.active.insert(*req, sid);
            shard.by_session.insert(sid, *req);
        }
        WalRecord::Untrack { req, sid } => {
            shard.active.remove(req);
            shard.by_session.remove(&SessionId::from_raw(*sid));
        }
        WalRecord::Call(call) => apply_call(shard, call, grace_ms),
        WalRecord::Fault(fault) => {
            // Re-executes the shared serial fault arm — counter bumps,
            // ground-truth flips, and recovery absorption all replay
            // inside it. Counters are overwritten by the next `Mark`
            // anyway; the ground truth (`down`, `det`) and the server
            // mutations are what matter here.
            let _line = shard.apply_fault(fault);
        }
        WalRecord::Mark {
            report,
            iterations,
            last_sweep_h,
            log_len,
        } => {
            shard.report = report.as_ref().clone();
            shard.iterations = *iterations;
            shard.last_sweep_h = *last_sweep_h;
            let logged = shard.log.lines().len();
            shard.log.extend_rendered(&transcript[logged..*log_len]);
        }
    }
}

/// Re-executes one journaled server call.
fn apply_call(shard: &mut Shard, call: &ServerCall, grace_ms: f64) {
    match call {
        ServerCall::Start {
            name,
            graph,
            qos,
            client_local,
        } => {
            let _ = shard.server.start_session(
                name.clone(),
                graph.clone(),
                qos.clone(),
                DeviceId::from_index(*client_local),
            );
        }
        ServerCall::Park {
            name,
            graph,
            qos,
            client_local,
            err,
        } => {
            let _ = shard.server.park_arrival(
                name.clone(),
                graph.clone(),
                qos.clone(),
                DeviceId::from_index(*client_local),
                None,
                err.clone(),
            );
        }
        ServerCall::Stop { sid } => {
            let _ = shard.server.stop_session(SessionId::from_raw(*sid));
        }
        ServerCall::Move { sid, to_local } => {
            let _ = shard.server.move_user(
                SessionId::from_raw(*sid),
                None,
                DeviceId::from_index(*to_local),
            );
        }
        ServerCall::Switch { sid, to_local } => {
            let _ = shard
                .server
                .switch_device(SessionId::from_raw(*sid), DeviceId::from_index(*to_local));
        }
        ServerCall::Heartbeat { device, removed } => {
            let rec = shard
                .server
                .heartbeat(DeviceId::from_index(*device), grace_ms);
            debug_assert!(
                rec.is_some() || removed.is_empty(),
                "a replayed heartbeat diverged from the recorded reinstatement"
            );
            for &raw in removed {
                untrack_raw(shard, raw);
            }
        }
        ServerCall::ExpireLeases { removed } => {
            let recs = shard.server.expire_overdue_leases();
            assert_eq!(
                recs.len(),
                removed.len(),
                "a replayed lease sweep diverged from the recorded one"
            );
            for list in removed {
                for &raw in list {
                    untrack_raw(shard, raw);
                }
            }
        }
        ServerCall::Retries { removed } => {
            let _ = shard.server.process_retries();
            for &raw in removed {
                untrack_raw(shard, raw);
            }
        }
    }
}

/// A deterministic digest of every durable field of a shard: the
/// transcript (digest and length), the counter report, ground truth
/// and detector state, session tables, the virtual clock (exact bits),
/// and the domain server's own state fingerprint. Volatile profiling
/// state is excluded by construction.
pub(crate) fn shard_fingerprint(shard: &Shard) -> u64 {
    let mut s = String::new();
    use std::fmt::Write as _;
    let _ = write!(
        s,
        "log={:016x}/{}|report={:?}|down={:?}|det={:?}|active={:?}|by={:?}|last_h={:016x}|it={}|sweep={:?}|server={:016x}",
        shard.log.digest(),
        shard.log.lines().len(),
        shard.report,
        shard.down,
        shard.det,
        shard.active,
        shard.by_session,
        shard.last_h.to_bits(),
        shard.iterations,
        shard.last_sweep_h.map(f64::to_bits),
        shard.server.state_fingerprint(),
    );
    fnv1a(s.as_bytes())
}

/// Asserts a rebuilt shard equals the live one it replaces,
/// field by field (better diagnostics than one combined digest).
pub(crate) fn assert_recovered_equal(live: &Shard, rebuilt: &Shard, s: usize) {
    assert_eq!(
        rebuilt.log.lines(),
        live.log.lines(),
        "shard{s} recovery replayed a different transcript"
    );
    assert_eq!(
        rebuilt.report, live.report,
        "shard{s} recovery replayed different counters"
    );
    assert_eq!(
        rebuilt.down, live.down,
        "shard{s} recovery lost ground truth"
    );
    assert_eq!(
        rebuilt.det, live.det,
        "shard{s} recovery lost detector state"
    );
    assert_eq!(
        rebuilt.active, live.active,
        "shard{s} recovery lost the session table"
    );
    assert_eq!(
        rebuilt.by_session, live.by_session,
        "shard{s} recovery lost the reverse session table"
    );
    assert_eq!(
        rebuilt.last_h.to_bits(),
        live.last_h.to_bits(),
        "shard{s} recovery drifted the virtual clock"
    );
    assert_eq!(
        (rebuilt.iterations, rebuilt.last_sweep_h.map(f64::to_bits)),
        (live.iterations, live.last_sweep_h.map(f64::to_bits)),
        "shard{s} recovery lost the event epilogue cursors"
    );
    assert_eq!(
        rebuilt.server.state_fingerprint(),
        live.server.state_fingerprint(),
        "shard{s} recovery rebuilt a different domain server"
    );
    debug_assert_eq!(shard_fingerprint(rebuilt), shard_fingerprint(live));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultCampaignConfig;

    fn tiny_shard() -> Shard {
        Shard::new(FaultCampaignConfig {
            devices: 3,
            ..FaultCampaignConfig::default()
        })
    }

    fn start_call(i: usize) -> WalRecord {
        let (name, graph) = crate::faults::app_template(i % 5);
        WalRecord::Call(ServerCall::Start {
            name: format!("{name}-{i}"),
            graph,
            qos: QosVector::new(),
            client_local: i % 3,
        })
    }

    #[test]
    fn snapshot_restore_preserves_the_fingerprint() {
        let mut shard = tiny_shard();
        shard.server.play(10.0);
        shard.last_h = 10.0 / 3600.0;
        shard.log.push(0.0, "arrive  req0 -> admitted");
        let transcript = shard.log.lines().to_vec();
        let snap = ShardSnapshot::capture(&shard);
        assert_eq!((snap.held_lines(), snap.log_len), (0, 1));
        let rebuilt = snap.restore(&transcript);
        assert_recovered_equal(&shard, &rebuilt, 0);
        assert_eq!(shard_fingerprint(&shard), shard_fingerprint(&rebuilt));
    }

    #[test]
    fn disabled_wal_is_inert() {
        let shard = tiny_shard();
        let mut wal = ShardWal::new(
            &DurabilityConfig {
                enabled: false,
                checkpoint_every: 4,
            },
            &shard,
        );
        wal.push(WalRecord::Advance { at_h: 1.0 });
        assert!(wal.tail.is_empty() && wal.appended == 0 && !wal.due_checkpoint());
    }

    #[test]
    fn replay_reconstructs_live_mutations() {
        let mut shard = tiny_shard();
        let mut wal = ShardWal::new(&DurabilityConfig::default(), &shard);

        // Live side: advance, admit, track, log — journaling each
        // mutation exactly as the engine does (the mark copies the
        // lines into the transcript).
        let recs = vec![
            WalRecord::Advance { at_h: 0.25 },
            start_call(0),
            WalRecord::Track { req: 0, sid: 0 },
            WalRecord::Advance { at_h: 0.5 },
            WalRecord::Call(ServerCall::Stop { sid: 0 }),
            WalRecord::Untrack { req: 0, sid: 0 },
        ];
        for rec in recs {
            wal.push(rec.clone());
            apply_record(&mut shard, &rec, 180_000.0, &[]);
        }
        shard.report = FaultReport {
            events: 2,
            arrivals: 1,
            admitted: 1,
            completed: 1,
            ..FaultReport::default()
        };
        shard.iterations = 2;
        shard.log.push(0.25, "arrive  req0 -> admitted as s0");
        shard.log.push(0.5, "depart  req0 -> completed");
        wal.mark(&shard);
        let rebuilt = wal.recover(180_000.0);
        assert_recovered_equal(&shard, &rebuilt, 0);
        assert_eq!(wal.replayed, 7);
        assert_eq!(wal.restores, 1);
    }

    #[test]
    fn prefix_replay_is_idempotent_and_composable() {
        let shard = tiny_shard();
        let mut wal = ShardWal::new(&DurabilityConfig::default(), &shard);
        for i in 0..6 {
            wal.push(WalRecord::Advance {
                at_h: 0.1 * (i + 1) as f64,
            });
            wal.push(start_call(i));
            wal.push(WalRecord::Track {
                req: i,
                sid: i as u64,
            });
        }
        for n in 0..=wal.tail.len() {
            // A recovery that crashed after `n` records and restarted
            // lands on the same state as one that never crashed.
            let once = wal.replay_prefix(180_000.0, n);
            let twice = wal.replay_prefix(180_000.0, n);
            assert_eq!(shard_fingerprint(&once), shard_fingerprint(&twice));
            // Checkpointing at `n` and replaying the rest composes to
            // the full replay.
            let mut resumed = ShardSnapshot::capture(&once).restore(&wal.transcript);
            for rec in &wal.tail[n..] {
                apply_record(&mut resumed, rec, 180_000.0, &wal.transcript);
            }
            let full = wal.replay_prefix(180_000.0, wal.tail.len());
            assert_eq!(shard_fingerprint(&resumed), shard_fingerprint(&full));
        }
    }

    #[test]
    fn transcript_spans_checkpoints_and_snapshots_hold_no_lines() {
        let mut shard = tiny_shard();
        let mut wal = ShardWal::new(
            &DurabilityConfig {
                enabled: true,
                checkpoint_every: 4,
            },
            &shard,
        );
        // One event at a time, as the engine journals it: an advance,
        // one to three log lines, then the epilogue mark. Two records
        // per event, so every second event checkpoints.
        let event = |shard: &mut Shard, wal: &mut ShardWal, i: usize, lines: usize| {
            let at_h = 0.1 * (i + 1) as f64;
            let rec = WalRecord::Advance { at_h };
            wal.push(rec.clone());
            apply_record(shard, &rec, 180_000.0, &[]);
            for k in 0..lines {
                shard.log.push(at_h, &format!("event{i} line{k}"));
            }
            shard.report.events += 1;
            shard.iterations += 1;
        };
        let mut checkpoints = 0;
        for i in 0..9 {
            event(&mut shard, &mut wal, i, 1 + i % 3);
            wal.mark(&shard);
            let snap = wal.snapshot.as_ref().expect("durability is on");
            assert_eq!(snap.held_lines(), 0, "a snapshot copied log lines");
            // Every prefix rebuilds the log up to the last mark at or
            // before it (the snapshot's length when there is none).
            for n in 0..=wal.tail.len() {
                let marked = wal.tail[..n]
                    .iter()
                    .rev()
                    .find_map(|rec| match rec {
                        WalRecord::Mark { log_len, .. } => Some(*log_len),
                        _ => None,
                    })
                    .unwrap_or(snap.log_len);
                let rebuilt = wal.replay_prefix(180_000.0, n);
                assert_eq!(rebuilt.log.lines().len(), marked);
                assert_eq!(rebuilt.log.lines(), &shard.log.lines()[..marked]);
            }
            if wal.due_checkpoint() {
                wal.checkpoint(&shard);
                checkpoints += 1;
            }
        }
        assert!(checkpoints >= 3, "only {checkpoints} checkpoints");
        // Crash mid-event, between checkpoints: the crash boundary
        // marks the partial event, and recovery rebuilds from the WAL.
        event(&mut shard, &mut wal, 9, 2);
        shard.report.shard_crashes += 1;
        wal.mark(&shard);
        assert_eq!(wal.tail.len(), 4);
        let rebuilt = wal.recover(180_000.0);
        assert_recovered_equal(&shard, &rebuilt, 0);
        // Each line was written to the transcript exactly once.
        assert_eq!(wal.transcript, shard.log.lines());
    }
}
