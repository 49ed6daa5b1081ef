//! Worker of the repository benchmark. `perfbench/run.py` starts one
//! process per timed run and aggregates; see `perfbench/README.md`.
//!
//! ```text
//! ubiqos-perfbench run   --workload <w> --seed <n> [--size tiny] [--corrupt-digest]
//! ubiqos-perfbench trace --workload <w> --seed <n> [--size tiny] [--spans-out <file>]
//! ubiqos-perfbench calib
//! ```
//!
//! `run` times the workload's set-up (`setup_s`), makes one timed campaign
//! call, checks it and prints one JSON line. `trace` is the
//! traced pass: spans around every call it makes, the program's own stage
//! and protocol counters, and the ablation runs behind the derived layer
//! times; it prints one JSON line of per-layer metrics. `calib` times the
//! benchmark's own reference kernel: how fast the host runs just now.

mod calib;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use ubiqos::FaultReport;
use workload::{Kind, Outcome, Setup, Size};

/// `setup_s` is the median of this many samples.
const SETUP_SAMPLES: usize = 31;
/// Shortest stretch of host time one `setup_s` sample covers.
const SETUP_BURST: Duration = Duration::from_millis(2);
/// Passes of the reference kernel per `calib` process; the fastest counts.
const CALIB_PASSES: usize = 3;
/// Rounds of the traced pass at the full size; the tiny size runs one.
const TRACE_ROUNDS: usize = 3;

struct Args {
    command: String,
    kind: Kind,
    seed: u64,
    size: Size,
    corrupt_digest: bool,
    spans_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or("missing command (run | trace | calib)")?;
    if command != "run" && command != "trace" {
        return Err(format!("unknown command `{command}`"));
    }
    let mut args = Args {
        command,
        kind: Kind::Steady,
        seed: 0,
        size: Size::Full,
        corrupt_digest: false,
        spans_out: None,
    };
    let mut kind = None;
    while let Some(flag) = argv.next() {
        if flag == "--corrupt-digest" {
            args.corrupt_digest = true;
            continue;
        }
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => args.seed = number()?,
            "--size" => {
                args.size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(format!("unknown size `{value}`")),
                }
            }
            "--spans-out" => args.spans_out = Some(value),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    args.kind = kind.ok_or("missing --workload")?;
    Ok(args)
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_errors(errors: &[String]) -> String {
    let items: Vec<String> = errors.iter().map(|e| json_str(e)).collect();
    format!("[{}]", items.join(", "))
}

/// One untraced timed run.
fn run(args: &Args) -> String {
    // One set-up takes microseconds, so each sample times a burst of
    // set-ups lasting at least SETUP_BURST and divides by its length.
    let mut setup_s = Vec::with_capacity(SETUP_SAMPLES);
    let mut setup = None;
    for _ in 0..SETUP_SAMPLES {
        let start = Instant::now();
        let mut built = 0u32;
        while built == 0 || start.elapsed() < SETUP_BURST {
            setup = Some(black_box(workload::setup(
                args.kind,
                black_box(args.seed),
                args.size,
            )));
            built += 1;
        }
        setup_s.push(start.elapsed().as_secs_f64() / f64::from(built));
    }
    let setup = setup.expect("at least one setup");
    let start = Instant::now();
    let result = setup.run();
    let call_s = start.elapsed().as_secs_f64();
    let threads = setup
        .pipeline_threads()
        .map_or_else(|| "null".to_string(), |n| n.to_string());
    let mut out = format!(
        "{{\"call_s\": {call_s}, \"setup_s\": {}, \"pipeline_threads\": {threads}",
        median(&mut setup_s)
    );
    match result {
        Err(violation) => {
            let _ = write!(
                out,
                ", \"arrivals\": {}, \"errors\": {}}}",
                setup.requests(),
                json_errors(&[format!("invariant violation: {violation}")])
            );
        }
        Ok(outcome) => {
            let errors = workload::check(args.kind, &setup, &outcome);
            let mut fingerprint = outcome.fingerprint();
            if args.corrupt_digest {
                fingerprint ^= 1;
            }
            let _ = write!(
                out,
                ", \"arrivals\": {}, \"admitted\": {}, \"denied\": {}, \"dropped\": {}, \
                 \"fingerprint\": \"{fingerprint:016x}\", \"errors\": {}}}",
                outcome.sum(|r| r.arrivals),
                outcome.sum(|r| r.admitted),
                outcome.sum(|r| r.denied),
                outcome.sum(|r| r.dropped),
                json_errors(&errors)
            );
        }
    }
    out
}

/// What every ablation run must reproduce: the workload's per-server
/// log digests and, for the serial twin, its reports.
struct Reference {
    reports: Vec<FaultReport>,
    digests: Vec<u64>,
    fingerprint: u64,
}

/// State of the traced pass: the spans, the checks that failed, and the
/// samples behind each per-layer time.
struct TracedPass<'a> {
    args: &'a Args,
    t: Tracer,
    errors: Vec<String>,
    metrics: Vec<(&'static str, f64)>,
    reference: Option<Reference>,
    /// Workload call times, ms.
    call_ms: Vec<f64>,
    /// Per workload call: discover, compose, place, engine, digest ms.
    stage_ms: [Vec<f64>; 5],
    /// Per round: pipeline saving, invariant sweep, crash recovery and
    /// journal ms.
    derived_ms: [Vec<f64>; 4],
}

impl TracedPass<'_> {
    /// One round: the workload (`variants[0]`) and every ablation, in
    /// forward order on even rounds and reverse order on odd ones.
    /// Returns false when a run broke an invariant.
    fn round(&mut self, round: usize, variants: &[(&'static str, Setup)]) -> bool {
        let mut order: Vec<usize> = (0..variants.len()).collect();
        if round % 2 == 1 {
            order.reverse();
        }
        let mut ms = vec![0.0; variants.len()];
        for i in order {
            let (name, variant) = &variants[i];
            let (result, took) = self.t.span(name, || variant.run());
            ms[i] = took;
            match result {
                Err(violation) => {
                    self.errors
                        .push(format!("{name}: invariant violation: {violation}"));
                    return false;
                }
                Ok(outcome) if i == 0 => self.observe_workload(variant, &outcome, took),
                Ok(outcome) => self.check_ablation(name, &outcome),
            }
        }
        let took = |name: &str| variants.iter().position(|(n, _)| *n == name).map(|i| ms[i]);
        let call = ms[0];
        for (samples, value) in self.derived_ms.iter_mut().zip([
            took("ablation.serial").map(|serial| serial - call),
            took("ablation.no_sweeps").map(|sweepless| call - sweepless),
            took("ablation.crash_free").map(|crash_free| call - crash_free),
            took("ablation.crash_free")
                .zip(took("ablation.durability_off"))
                .map(|(on, off)| on - off),
        ]) {
            samples.extend(value);
        }
        true
    }

    /// Times the digest re-run, checks the workload's run, and on the
    /// first one records the per-layer counts and the reference outputs.
    fn observe_workload(&mut self, setup: &Setup, outcome: &Outcome, took: f64) {
        self.call_ms.push(took);
        let (digests, digest_ms) = self.t.span("faults.digest", || {
            let logs = outcome.logs();
            logs.iter().map(|log| log.digest()).collect::<Vec<u64>>()
        });
        let stages = outcome.stages();
        for (samples, value) in self.stage_ms.iter_mut().zip([
            stages.discover_ms,
            stages.compose_ms,
            stages.place_ms,
            took - stages.total_ms(),
            digest_ms,
        ]) {
            samples.push(value);
        }
        let kind = self.args.kind;
        let reference = &self.reference;
        let (found, _) = self.t.span("check", || {
            let mut found = workload::check(kind, setup, outcome);
            if digests != outcome.digests() {
                found.push("re-computed log digests differ from the reported ones".into());
            }
            if reference
                .as_ref()
                .is_some_and(|r| r.fingerprint != outcome.fingerprint())
            {
                found.push("a repeated run of the same seed diverged".into());
            }
            found
        });
        self.errors.extend(found);
        if self.reference.is_none() {
            layer_counts(outcome, &mut self.metrics);
            self.reference = Some(Reference {
                reports: outcome.reports().into_iter().cloned().collect(),
                digests: outcome.digests(),
                fingerprint: outcome.fingerprint(),
            });
        }
    }

    /// An ablation must keep every per-server digest and balance its
    /// fates; the serial twin must also reproduce the reports.
    fn check_ablation(&mut self, name: &str, outcome: &Outcome) {
        let Some(r) = &self.reference else { return };
        let same_reports =
            name != "ablation.serial" || outcome.reports().into_iter().eq(r.reports.iter());
        if outcome.digests() != r.digests || !outcome.fates_balance() || !same_reports {
            self.errors
                .push(format!("{name}: outputs differ from the workload's"));
        }
    }

    /// The median-valued per-layer times.
    fn finish_times(&mut self) {
        let median_or_zero = |samples: &mut Vec<f64>| {
            if samples.is_empty() {
                0.0
            } else {
                median(samples)
            }
        };
        let [discover, compose, place, engine, digest] = &mut self.stage_ms;
        let [saving, invariant, recovery, journal] = &mut self.derived_ms;
        self.metrics.extend([
            ("discovery.ms", median_or_zero(discover)),
            ("composition.ms", median_or_zero(compose)),
            ("distribution.ms", median_or_zero(place)),
            ("faults.engine_ms", median_or_zero(engine)),
            ("faults.digest_ms", median_or_zero(digest)),
            ("faults.invariant_ms", median_or_zero(invariant)),
            ("pipeline.saving_ms", median_or_zero(saving)),
            ("durability.journal_ms", median_or_zero(journal)),
            ("durability.recovery_ms", median_or_zero(recovery)),
        ]);
    }
}

/// The traced pass. Each round runs the workload and every ablation once,
/// back to back and in alternating order, so host-speed drift and order
/// effects hit both sides of a derived time (workload minus ablation)
/// alike; each derived time is the median of its per-round differences.
fn trace(args: &Args) -> String {
    let mut pass = TracedPass {
        args,
        t: Tracer::new(),
        errors: Vec::new(),
        metrics: Vec::new(),
        reference: None,
        call_ms: Vec::new(),
        stage_ms: Default::default(),
        derived_ms: Default::default(),
    };
    let root = pass.t.open("run");
    let (setup, schedule_ms) = pass.t.span("sim.schedule", || {
        workload::setup(args.kind, args.seed, args.size)
    });
    pass.metrics.push(("sim.schedule_ms", schedule_ms));
    let mut variants = vec![("campaign", setup.clone())];
    if let Some(serial) = setup.serial_twin() {
        variants.push(("ablation.serial", serial));
    }
    variants.push(("ablation.no_sweeps", setup.without_sweeps()));
    if let Some((crash_free, no_wal)) = setup.crash_free_twins() {
        variants.push(("ablation.crash_free", crash_free));
        variants.push(("ablation.durability_off", no_wal));
    }
    let rounds = match args.size {
        Size::Full => TRACE_ROUNDS,
        Size::Tiny => 1,
    };
    if (0..rounds).all(|round| pass.round(round, &variants)) {
        pass.finish_times();
    }
    pass.t.close(root);

    let TracedPass {
        t,
        mut errors,
        metrics,
        mut call_ms,
        ..
    } = pass;
    if let Some(path) = &args.spans_out {
        if let Err(e) = std::fs::write(path, t.to_json()) {
            errors.push(format!("cannot write spans to {path}: {e}"));
        }
    }
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value)| format!("{}: {value}", json_str(name)))
        .collect();
    let call_s = if call_ms.is_empty() {
        0.0
    } else {
        median(&mut call_ms) / 1e3
    };
    format!(
        "{{\"call_s\": {call_s}, \"metrics\": {{{}}}, \"errors\": {}}}",
        metrics.join(", "),
        json_errors(&errors)
    )
}

/// The per-layer counts of one workload run: the program's own report,
/// pipeline, federation and transport counters.
fn layer_counts(o: &Outcome, metrics: &mut Vec<(&'static str, f64)>) {
    let arrivals = o.sum(|r| r.arrivals) as f64;
    let stages = o.stages();
    let pipeline = o.pipeline().cloned().unwrap_or_default();
    // The queue-wait histogram is the pipeline's; a federation fills it
    // with message-delivery waits instead, which are not pipeline waits.
    let wait = |q: f64| match o.pipeline() {
        Some(_) => stages.queue_wait_us.quantile_upper(q) as f64,
        None => 0.0,
    };
    let logs = o.logs();
    let (fed, loss) = match o {
        Outcome::Federation(f, loss) => (f.stats.clone(), *loss),
        Outcome::Campaign(_) => Default::default(),
    };
    metrics.extend([
        (
            "federation.remote_discoveries",
            fed.remote_discoveries as f64,
        ),
        (
            "composition.configures_per_arrival",
            stages.configures as f64 / arrivals.max(1.0),
        ),
        (
            "faults.log_lines",
            logs.iter().map(|l| l.lines().len()).sum::<usize>() as f64,
        ),
        (
            "faults.log_bytes",
            logs.iter()
                .flat_map(|l| l.lines())
                .map(|line| line.len() + 1)
                .sum::<usize>() as f64,
        ),
        (
            "faults.invariant_checks",
            o.sum(|r| r.invariant_checks) as f64,
        ),
        ("faults.parked", o.sum(|r| r.parked) as f64),
        ("faults.readmitted", o.sum(|r| r.readmitted) as f64),
        (
            "faults.recovery_passes",
            o.sum(|r| r.recovery_passes) as f64,
        ),
        ("pipeline.primed", pipeline.primed as f64),
        ("pipeline.adopted", pipeline.adopted as f64),
        (
            "pipeline.inline_speculated",
            pipeline.inline_speculated as f64,
        ),
        ("pipeline.invalidations", pipeline.invalidations as f64),
        ("pipeline.queue_wait_p50_us", wait(0.5)),
        ("pipeline.queue_wait_p99_us", wait(0.99)),
        ("federation.messages", fed.messages as f64),
        (
            "federation.handoffs_committed",
            fed.handoffs_committed as f64,
        ),
        ("federation.handoffs_aborted", fed.handoffs_aborted as f64),
        ("transport.retransmissions", fed.retransmissions as f64),
        ("transport.duplicate_drops", fed.duplicate_drops as f64),
        ("transport.acks_sent", fed.acks_sent as f64),
        ("transport.drops", loss.drops as f64),
        ("durability.wal_records", fed.wal_records as f64),
        ("durability.wal_replayed", fed.wal_replayed as f64),
        ("durability.snapshot_restores", fed.snapshot_restores as f64),
        (
            "durability.replay_depth_max",
            fed.wal_replay_depths.iter().copied().max().unwrap_or(0) as f64,
        ),
    ]);
}

/// The fastest of CALIB_PASSES passes of the reference kernel.
fn calibrate() -> String {
    let calib_s = (0..CALIB_PASSES)
        .map(|_| calib::time())
        .fold(f64::INFINITY, f64::min);
    format!("{{\"calib_s\": {calib_s}}}")
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("calib") {
        println!("{}", calibrate());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ubiqos-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let line = if args.command == "run" {
        run(&args)
    } else {
        trace(&args)
    };
    println!("{line}");
    ExitCode::SUCCESS
}
