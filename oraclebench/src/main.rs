//! The oracle benchmark: an in-process Delphi cluster over loopback TCP,
//! measured end to end, with a separate traced run that splits the CPU
//! by layer.
//!
//! ```text
//! oraclebench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `all` runs every workload `BENCHMARK.json` lists, each in a process of
//! its own.
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`). A readable table
//! goes to standard error. The exit code is nonzero on any correctness
//! violation. See `README.md` beside this file for the workloads and
//! what each metric should move.

#![forbid(unsafe_code)]

mod cluster;
mod layers;
mod procfs;
mod reader;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::process::Stdio;
use std::time::Duration;

use delphi_crypto::signing::Verifier;
use delphi_dora::round_to_epsilon;

use cluster::{RunSpec, Shape, StreamRun, DEPLOYMENT_SEED, EPSILON};
use trace::Probe;

/// Set-ups timed per run before the measured stream, each of a one-epoch
/// stream in a process of its own.
const SETUP_PROBES: usize = 30;
/// Epochs in each set-up probe stream.
const PROBE_EPOCHS: u32 = 1;
/// Linger of a set-up probe stream: its one epoch resolves on every node
/// within milliseconds, so the service default only adds idle time.
const PROBE_LINGER: Duration = Duration::from_millis(100);
/// The traced run closes only if the thread split covers this share of
/// the process CPU.
const MIN_CLOSURE: f64 = 0.9;

/// One benchmark workload.
struct Workload {
    name: &'static str,
    /// Listed in `BENCHMARK.json`, and run by `--workload all`.
    listed: bool,
    shape: Shape,
    /// Epochs per second on the reference 2-core box; a measured stream
    /// holds four times as many as its window needs at this rate.
    epochs_per_s: f64,
    /// Epochs of the sans-io replay (about two seconds of one core).
    replay_epochs: u32,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "stream-basket",
        listed: true,
        shape: Shape { n: 4, assets: 8, vector: false, serve: false },
        epochs_per_s: 10.0,
        replay_epochs: 24,
    },
    Workload {
        name: "stream-vector",
        listed: false,
        shape: Shape { n: 4, assets: 8, vector: true, serve: false },
        epochs_per_s: 10.0,
        replay_epochs: 24,
    },
    Workload {
        name: "wide-n7",
        listed: true,
        shape: Shape { n: 7, assets: 1, vector: false, serve: false },
        epochs_per_s: 16.5,
        replay_epochs: 60,
    },
    Workload {
        name: "serve-read",
        listed: false,
        shape: Shape { n: 4, assets: 8, vector: false, serve: true },
        epochs_per_s: 10.0,
        replay_epochs: 24,
    },
];

/// The parts of an untraced run. By default a run times its set-ups, each
/// in a child process that runs one (`--only setup`), then measures the
/// stream itself; the traced run's reference measures only the stream
/// (`--only stream`).
#[derive(PartialEq)]
enum Part {
    Both,
    Setup,
    Stream,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    only: Part,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, only: Part::Both };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--only" => {
                args.only = match value()?.as_str() {
                    "setup" => Part::Setup,
                    "stream" => Part::Stream,
                    other => return Err(format!("--only takes setup or stream, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if !(1.0..=600.0).contains(&args.seconds) {
        return Err("--seconds must be between 1 and 600".into());
    }
    Ok(args)
}

/// Metrics of one invocation, in output order.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn absorb(&mut self, run: &StreamRun) {
        self.attempted += run.attempted;
        self.failed += run.failed;
        self.problems.extend(run.problems.iter().cloned());
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.metrics.iter().all(|m| m.1.is_finite())
    }

    fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { format!("{value}") } else { "null".into() };
            let sep = if i == 0 { "" } else { ", " };
            let _ =
                write!(metrics, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }

    fn table(&self, workload: &str) -> String {
        let mut out = format!("== {workload}\n");
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "  {name:<36} {value:>14.4} {unit}");
        }
        for note in &self.notes {
            let _ = writeln!(out, "  {note}");
        }
        let _ = writeln!(
            out,
            "  checked {} outputs, {} failed{}",
            self.attempted,
            self.failed,
            if self.correct() { "" } else { " — INCORRECT" }
        );
        for p in self.problems.iter().take(8) {
            let _ = writeln!(out, "  violation: {p}");
        }
        out
    }
}

/// Epochs of a measured stream of `seconds`: more than the window can
/// hold at four times the workload's reference rate, so the window, not
/// the stream, ends the measurement.
fn stream_cap(w: &Workload, seconds: f64) -> u32 {
    (4.0 * seconds * w.epochs_per_s).ceil() as u32 + cluster::WINDOW as u32
}

/// A per-run seed for stream `k` of the run seeded `seed`.
fn stream_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ k.wrapping_mul(0xD1B5_4A32_D192_ED03)
}

fn ms_summary(samples: Vec<f64>) -> (f64, f64, f64) {
    stats::summarize(samples, 99.0).unwrap_or((f64::NAN, f64::NAN, 0.0))
}

/// Checks the reader's reads against node 0's agreed stream and verifies
/// every served attestation with the deployment seed alone.
fn check_reads(run: &StreamRun, shape: Shape, report: &mut Report) -> (Vec<f64>, Vec<f64>) {
    let verifier = Verifier::new(DEPLOYMENT_SEED);
    let mut latency = Vec::with_capacity(run.reads.len());
    let mut lag = Vec::with_capacity(run.reads.len());
    let agreed = |epoch: f64, asset: f64| -> Option<f64> {
        let values = run.agreed.get(epoch as usize)?.as_ref()?;
        values.get(asset as usize).copied()
    };
    for read in &run.reads {
        let verdict: Result<(), String> = match &read.body {
            Err(e) => Err(e.clone()),
            Ok(body) => (|| {
                let epoch = reader::json_number(body, "epoch").ok_or("no epoch")?;
                let asset = reader::json_number(body, "asset").ok_or("no asset")?;
                let value = reader::json_number(body, "value").ok_or("no value")?;
                let want = agreed(epoch, asset).ok_or("slot not agreed by node 0")?;
                if value != want {
                    return Err(format!("served {value}, node 0 agreed {want}"));
                }
                let wanted = match read.route {
                    reader::Route::Latest(a) | reader::Route::Attestation(a) => f64::from(a),
                };
                if asset != wanted {
                    return Err(format!("asked asset {wanted}, served {asset}"));
                }
                if let reader::Route::Attestation(_) = read.route {
                    let n = reader::json_number(body, "n").ok_or("no n")? as usize;
                    let t = reader::json_number(body, "t").ok_or("no t")? as usize;
                    let hex = reader::json_string(body, "attestation").ok_or("no attestation")?;
                    let att = delphi_api::attestation_from_hex(hex).ok_or("bad attestation hex")?;
                    if (n, t) != (shape.n, shape.t())
                        || att.epoch.0 as f64 != epoch
                        || f64::from(att.asset.0) != asset
                        || att.cert.k != round_to_epsilon(value, EPSILON)
                        || !att.verify(&verifier, n, t)
                    {
                        return Err(format!("attestation for ({epoch}, {asset}) does not verify"));
                    }
                }
                Ok(())
            })(),
        };
        report.attempted += 1;
        lag.push(read.lag_ms);
        match verdict {
            Ok(()) => latency.push(read.latency_ms),
            Err(why) => {
                report.failed += 1;
                latency.push(f64::INFINITY);
                if report.problems.len() < 8 {
                    report.problems.push(format!("read {:?}: {why}", read.route));
                }
            }
        }
    }
    (latency, lag)
}

fn block_on<T>(f: impl std::future::Future<Output = T>) -> T {
    tokio::runtime::Runtime::new().expect("runtime").block_on(f)
}

/// Times `SETUP_PROBES` set-ups of `w`, each in a fresh process of its
/// own, as a deployment starts; returns them sorted.
fn setups(w: &Workload, args: &Args, report: &mut Report) -> Result<Vec<f64>, String> {
    let mut setups = Vec::with_capacity(SETUP_PROBES);
    for k in 0..SETUP_PROBES {
        let seed = stream_seed(args.seed, 100 + k as u64);
        let line = child(w.name, seed, args.seconds, false, &["--only", "setup"], false, report)?;
        setups.push(metric_in(&line, "setup_s").ok_or("a set-up run printed no setup_s")?);
    }
    Ok(stats::sorted(setups))
}

/// The untraced run: the set-ups, each timed in a child process, then
/// the measured stream.
fn end_to_end(w: &Workload, args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    if args.only == Part::Setup {
        let run = block_on(cluster::run(&RunSpec {
            shape: w.shape,
            epochs: PROBE_EPOCHS,
            window: None,
            seed: stream_seed(args.seed, 0),
            probe: None,
            linger: PROBE_LINGER,
        }))?;
        report.absorb(&run);
        report.put("setup_s", run.setup_s, "s");
        return Ok(report);
    }
    let setups = if args.only == Part::Both { setups(w, args, &mut report)? } else { Vec::new() };
    let spec = RunSpec {
        shape: w.shape,
        epochs: stream_cap(w, args.seconds),
        window: Some(Duration::from_secs_f64(args.seconds)),
        seed: stream_seed(args.seed, 0),
        probe: None,
        linger: cluster::LINGER,
    };
    let run = block_on(cluster::run(&spec))?;
    report.absorb(&run);
    let agreements = run.agreements as f64;
    let (p50, p99, p) = ms_summary(run.decide_ms.clone());
    report.put("agreements_per_s", run.agreements_per_s(), "1/s");
    report.put("decide_ms_p50", p50, "ms");
    report.put("cpu_ms_per_agreement", run.cpu.total_ms() / agreements, "ms");
    report.put("wire_bytes_per_agreement", run.net.sent_bytes as f64 / agreements, "B");
    let setup_s = if setups.is_empty() { run.setup_s } else { stats::median(&setups) };
    report.put("setup_s", setup_s, "s");
    // The tail is printed but kept out of the result line: on a shared
    // 2-core host its run-to-run spread exceeds any bound the result line
    // may carry (see README.md).
    report.notes.push(format!("decide_ms_p{p:.2} {p99:.4} ms"));
    report.notes.push(format!(
        "{} epochs x {} assets in {:.2} s; {} decide samples",
        run.epochs,
        w.shape.assets,
        run.window_s,
        run.decide_ms.len()
    ));
    report.notes.push(format!("host.steal_share {:.4}", run.steal_share));
    report.notes.push(format!(
        "set-ups (ms): {:?}; the measured stream's own {:.1}",
        setups.iter().map(|s| (s * 1e4).round() / 10.0).collect::<Vec<_>>(),
        run.setup_s * 1e3
    ));
    report.notes.push(format!(
        "agreements/s in the window's first half {:.1}, second half {:.1}",
        run.halves.0, run.halves.1
    ));
    let attempted = report.attempted;
    let failed_triples = report.failed;
    report.notes.push(format!("failed_share {}", failed_triples as f64 / attempted.max(1) as f64));
    if w.shape.serve {
        let (latency, lag) = check_reads(&run, w.shape, &mut report);
        let reads = latency.len();
        let failed_reads = latency.iter().filter(|l| l.is_infinite()).count();
        let (r50, r99, rp) = ms_summary(latency);
        let (_, lag99, _) = ms_summary(lag);
        report.notes.push(format!(
            "reads {reads}: read_ms_p50 {r50:.3}, read_ms_p{rp:.2} {r99:.3}, lag_ms_p99 {lag99:.3}, \
             read_failed_share {}",
            failed_reads as f64 / reads.max(1) as f64
        ));
    }
    Ok(report)
}

/// The value of metric `name` in a result line this program printed.
fn metric_in(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// The count `key` (`attempted`, `failed`) in a result line.
fn count_in(line: &str, key: &str) -> Option<u64> {
    let key = format!("\"{key}\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// Runs this program on `workload` in a process of its own, with `extra`
/// arguments, so that its clusters neither inherit runtime state from
/// this process nor leave any behind in it: threads, listeners, timers.
/// Its standard error is passed on when `log` is set or it fails. Adds
/// its counts and failure to `report` and returns its result line.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    extra: &[&str],
    log: bool,
    report: &mut Report,
) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .stderr(Stdio::piped())
        .output()
        .map_err(|e| format!("{workload} run: {e}"))?;
    if log || !out.status.success() {
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("").to_string();
    let (Some(attempted), Some(failed)) = (count_in(&line, "attempted"), count_in(&line, "failed"))
    else {
        return Err(format!("the {workload} run printed no result ({})", out.status));
    };
    report.attempted += attempted;
    report.failed += failed;
    if !out.status.success() {
        report.problems.push(format!("the {workload} run failed ({})", out.status));
    }
    Ok(line)
}

/// The untraced reference for a traced run: the same stream, measured
/// in a process of its own. Returns its agreements/s and CPU ms per
/// agreement.
fn reference(
    w: &Workload,
    args: &Args,
    seconds: f64,
    report: &mut Report,
) -> Result<(f64, f64), String> {
    let line = child(w.name, args.seed, seconds, false, &["--only", "stream"], false, report)?;
    match (metric_in(&line, "agreements_per_s"), metric_in(&line, "cpu_ms_per_agreement")) {
        (Some(rate), Some(cpu)) => Ok((rate, cpu)),
        _ => Err("reference run printed no rates".into()),
    }
}

/// The traced run: an untraced reference stream, the same stream traced
/// with the thread sampler, then the single-layer replays.
fn traced(w: &Workload, args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    // The reference and the traced stream split the run's seconds.
    let seconds = args.seconds / 2.0;
    let (reference_rate, real_cpu) = reference(w, args, seconds, &mut report)?;
    let probe = Probe::new();
    let run = block_on(cluster::run(&RunSpec {
        shape: w.shape,
        epochs: stream_cap(w, seconds),
        window: Some(Duration::from_secs_f64(seconds)),
        seed: stream_seed(args.seed, 0),
        probe: Some(probe.clone()),
        linger: cluster::LINGER,
    }))?;
    report.absorb(&run);
    let split = run.split.ok_or("traced run took no CPU samples")?;
    let agreements = run.agreements as f64;
    let per_agreement_ms = |ns: u64| ns as f64 / 1e6 / agreements;

    let counts = run.counts.ok_or("traced run kept no counts")?;
    let replay = layers::sansio(w.shape, w.replay_epochs, stream_seed(args.seed, 0))?;
    let sansio_cpu = replay.cpu_ns as f64 / 1e6 / replay.agreements as f64;

    let entries_per_frame = run.net.sent_entries as f64 / run.net.sent_frames.max(1) as f64;
    let frames_per_agreement = run.net.sent_frames as f64 / agreements;
    let frame = layers::frames(
        &probe.payloads(),
        entries_per_frame.round() as usize,
        w.shape.n,
        Duration::from_millis(200),
    )?;
    let api = layers::api(&run.agreed, w.shape.assets, w.shape.t());

    let (steps, step_ns) = (counts.step_calls as f64, counts.step_ns as f64);
    report.put("core.step_calls_per_agreement", steps / agreements, "count");
    report.put("core.step_ns_per_call", step_ns / steps.max(1.0), "ns");
    report.put("core.step_ms_per_agreement", step_ns / 1e6 / agreements, "ms");
    report.put("core.rounds_per_agreement", counts.rounds as f64 / agreements, "count");
    report.put("sansio.cpu_ms_per_agreement", sansio_cpu, "ms");
    report.put(
        "sansio.core_ms_per_agreement",
        replay.step_ns as f64 / 1e6 / replay.agreements as f64,
        "ms",
    );
    report.put("sansio.real_ratio", real_cpu / sansio_cpu, "ratio");
    report.put("dispatch.cpu_ms_per_agreement", per_agreement_ms(split.dispatch.run_ns), "ms");
    report.put("dispatch.runq_ms_per_agreement", per_agreement_ms(split.dispatch.wait_ns), "ms");
    report.put("transport.cpu_ms_per_agreement", per_agreement_ms(split.transport.run_ns), "ms");
    report.put("transport.runq_ms_per_agreement", per_agreement_ms(split.transport.wait_ns), "ms");
    report.put("transport.threads", split.transport.threads as f64, "count");
    report.put(
        "transport.ctx_switches_per_agreement",
        split.transport.switches as f64 / agreements,
        "count",
    );
    report.put("bench.cpu_ms_per_agreement", per_agreement_ms(split.bench.run_ns), "ms");
    let total = split.process.user + split.process.sys;
    report.put("process.sys_share", split.process.sys as f64 / total.max(1) as f64, "ratio");
    report.put("net.frames_per_agreement", frames_per_agreement, "count");
    report.put("net.entries_per_frame", entries_per_frame, "count");
    report.put("net.macs_per_agreement", run.net.mac_ops as f64 / agreements, "count");
    report.put("net.dropped_egress", run.net.dropped_egress as f64, "count");
    report.put("net.late_entries", run.net.late_entries as f64, "count");
    report.put("frame.encode_ns_per_frame", frame.encode_ns, "ns");
    report.put("frame.verify_ns_per_frame", frame.verify_ns, "ns");
    report.put(
        "frame.ms_per_agreement",
        (frame.encode_ns + frame.verify_ns) * frames_per_agreement / 1e6,
        "ms",
    );
    report.put("epoch.stale_epochs", run.epoch.stale_epochs as f64, "count");
    report.put("epoch.peak_resident", run.epoch.peak_resident as f64, "count");
    let source_ns = layers::source(w.shape, run.epochs, stream_seed(args.seed, 0));
    let replayed = f64::from(run.epochs) * f64::from(w.shape.assets);
    report.put("workloads.source_ns_per_agreement", source_ns as f64 / replayed.max(1.0), "ns");
    report.put("api.attest_ns_per_agreement", api.attest_ns, "ns");
    report.put("api.publish_ns_per_agreement", api.publish_ns, "ns");
    if w.shape.serve {
        // Only `serve-read` has a reader. Its figures go to the log: the
        // result line carries the same metric names on every workload.
        let (latency, lag) = check_reads(&run, w.shape, &mut report);
        let reads = latency.len() as f64;
        let (r50, r99, rp) = stats::summarize(latency, 99.0).unwrap_or_default();
        let (_, lag99, _) = stats::summarize(lag, 99.0).unwrap_or_default();
        report.notes.push(format!(
            "reader.read_ms_p50 {r50:.4} ms, reader.read_ms_p{rp:.2} {r99:.4} ms, \
             reader.lag_ms_p99 {lag99:.4} ms, reader.reads_per_s {:.2}",
            reads / run.window_s.max(1e-9)
        ));
    }
    report.put("host.steal_share", run.steal_share, "ratio");
    let closure = split.closure();
    report.put("closure.share", closure, "ratio");
    report.put("trace.overhead", reference_rate / run.agreements_per_s(), "ratio");
    if closure < MIN_CLOSURE {
        report
            .problems
            .push(format!("thread CPU covers {closure:.3} of process CPU (< {MIN_CLOSURE})"));
    }
    report.notes.push(format!(
        "traced {} epochs: dispatch {:.1} ms, transport {:.1} ms, bench {:.1} ms, process {:.1} ms CPU",
        run.epochs,
        split.dispatch.run_ns as f64 / 1e6,
        split.transport.run_ns as f64 / 1e6,
        split.bench.run_ns as f64 / 1e6,
        split.process.total_ms()
    ));
    Ok(report)
}

fn run_workload(w: &Workload, args: &Args) -> Result<Report, String> {
    if args.trace {
        traced(w, args)
    } else {
        end_to_end(w, args)
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("oraclebench: {e}");
            std::process::exit(2);
        }
    };
    if args.workload == "all" {
        // Each workload in a process of its own: a closed window leaves its
        // idle cluster behind until the process exits.
        let mut all_correct = true;
        for w in WORKLOADS.iter().filter(|w| w.listed) {
            let mut report = Report::default();
            match child(w.name, args.seed, args.seconds, args.trace, &[], true, &mut report) {
                Ok(line) => {
                    println!("{line}");
                    all_correct &= report.correct();
                }
                Err(e) => {
                    eprintln!("oraclebench: {e}");
                    std::process::exit(2);
                }
            }
        }
        std::process::exit(if all_correct { 0 } else { 1 });
    }
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("oraclebench: unknown workload {:?} (one of {names:?} or all)", args.workload);
        std::process::exit(2);
    };
    match run_workload(w, &args) {
        Ok(report) => {
            eprint!("{}", report.table(w.name));
            println!("{}", report.json());
            std::process::exit(if report.correct() { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("oraclebench: {}: {e}", w.name);
            std::process::exit(2);
        }
    }
}
