//! Sustained replication benchmark for the SINTRA stack.
//!
//! ```text
//! sintra-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` is the timed run: set-up (several times, median
//! reported), one measured window under the workload's load, a drain,
//! and the end-to-end metrics. `--trace 1` is the traced run: the
//! deterministic pump with per-layer spans, per-operation timings on the
//! same keys, then a live run with a benchmark-side recorder and
//! streaming traces, analysed with the testbed's profiler. Every run
//! audits its deliveries; the last stdout line is one JSON object, and
//! the exit code is non-zero when any check failed.

mod check;
mod layers;
mod live;
mod pump;
mod recorder;
mod stats;
mod sys;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use sintra_net::ObservabilityConfig;
use sintra_telemetry::TraceStreamConfig;
use sintra_testbed::profile::{
    analyze, find_trace_files, merge_streams, Analysis, RoundProfile, BUCKETS,
};

use check::Audit;
use live::{check_conservation, deal_keys, drive, Instruments, Live, Window};
use recorder::BenchRecorder;
use stats::{mean, median, tail};
use workload::{by_name, Runtime, Schedule, Workload, PARTIES, WORKLOADS};

/// Groups per timed run, each measured for an equal share of the window.
const EPISODES: usize = 5;
/// Set-ups timed per run (the episodes' plus timing-only ones); their
/// median is `setup_s`.
const SETUP_SAMPLES: usize = 9;
/// Trace segments kept per party in the traced live run, and their size:
/// bounds the disk a flood workload's trace can take.
const TRACE_SEGMENTS: usize = 4;
const TRACE_SEGMENT_BYTES: u64 = 4 * 1024 * 1024;
/// Where traced runs keep their temporary files, under the working
/// directory (the benchmark reads and writes only inside it).
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        map.insert(flag, value);
    }
    let get = |k: &str| map.get(k).cloned().ok_or(format!("missing {k}"));
    let name = get("--workload")?;
    let workload = by_name(&name).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {names:?}")
    })?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match map.get("--trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

#[derive(Default)]
struct Report {
    /// The metrics of the result object (`BENCHMARK.json` lists them).
    metrics: Vec<Metric>,
    /// Printed beside them but left out of the result object.
    ungated: Vec<Metric>,
    audit: Audit,
    provenance: BTreeMap<&'static str, String>,
}

impl Report {
    fn add(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            note: note.into(),
        });
    }

    fn add_ungated(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        self.ungated.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note,
        });
    }

    fn merge_audit(&mut self, audit: Audit) {
        let a = &mut self.audit;
        a.attempted += audit.attempted;
        a.failed += audit.failed;
        a.missing += audit.missing;
        a.duplicated += audit.duplicated;
        a.altered += audit.altered;
        a.misordered += audit.misordered;
        a.spurious += audit.spurious;
        a.details.extend(audit.details);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result = if args.trace {
        traced(&args)
    } else {
        timed(&args)
    };
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let correct = report.audit.failed == 0;
    print_report(&args, &report, correct);
    std::process::exit(if correct { 0 } else { 1 });
}

fn print_report(args: &Args, report: &Report, correct: bool) {
    let a = &report.audit;
    println!(
        "perfbench workload={} seed={} window_s={} trace={}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for m in &report.metrics {
        println!("metric {} = {:.6} {} ({})", m.name, m.value, m.unit, m.note);
    }
    for m in &report.ungated {
        println!(
            "metric {} = {:.6} {} ({}; not in the result object)",
            m.name, m.value, m.unit, m.note
        );
    }
    println!(
        "check error_rate = {:.6} fraction ({} failed of {} attempted: missing {}, duplicated {}, altered {}, misordered {}, spurious {})",
        a.error_rate(),
        a.failed,
        a.attempted,
        a.missing,
        a.duplicated,
        a.altered,
        a.misordered,
        a.spurious
    );
    for detail in &a.details {
        println!("failure {detail}");
    }
    let provenance: Vec<String> = report
        .provenance
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    println!("provenance {{{}}}", provenance.join(","));
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        a.attempted.max(1),
        a.failed,
        metrics.join(",")
    );
}

/// A finite JSON number with all its digits.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Host and build facts every result carries.
fn provenance(args: &Args, report: &mut Report) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let p = &mut report.provenance;
    p.insert("nproc", nproc.to_string());
    p.insert("git_commit", json_string(&env("PERFBENCH_COMMIT")));
    p.insert("rustc", json_string(&env("PERFBENCH_RUSTC")));
    p.insert("workload", json_string(args.workload.name));
    p.insert("seed", args.seed.to_string());
    p.insert("window_s", json_number(args.seconds));
    p.insert("trace", u8::from(args.trace).to_string());
}

/// The latency metrics of a timed run. p50 and p90 are the median over
/// the run's groups of each group's own percentile: a group can sit in a
/// slow mode for its whole life, and the median keeps such a group from
/// deciding the run while a shift in most groups still shows. The
/// highest percentile up to p99 with at least ten samples beyond it is
/// taken over all samples. Only p50 is in the result object: on a shared
/// 2-core host the p90 of `abc-tcp-paced` spread by a fifth of its median
/// over ten seeds and the p99 by a third, too wide to bound.
fn latency_metrics(report: &mut Report, episodes: &[Window]) {
    let all: Vec<f64> = episodes
        .iter()
        .flat_map(|e| e.latencies_ms.iter().copied())
        .collect();
    let per_group = |f: &dyn Fn(&[f64]) -> f64| -> (f64, String) {
        let values: Vec<f64> = episodes.iter().map(|e| f(&e.latencies_ms)).collect();
        let note = format!(
            "median over {} groups of {values:.1?}; {} samples",
            episodes.len(),
            all.len()
        );
        (median(&values), note)
    };
    let (p50, note) = per_group(&median);
    report.add("latency_p50_ms", p50, "ms", note);
    let (p90, note) = per_group(&|v| tail(v, 0.9).map_or(0.0, |t| t.value));
    report.add_ungated("latency_p90_ms", p90, "ms", note);
    let (p99, note) = match tail(&all, 0.99) {
        Some(t) => (
            t.value,
            format!(
                "p{:.2} of {} samples, {} beyond",
                t.quantile * 100.0,
                t.count,
                t.beyond
            ),
        ),
        None => (
            all.iter().copied().fold(0.0, f64::max),
            format!("maximum of only {} samples", all.len()),
        ),
    };
    report.add_ungated("latency_p99_ms", p99, "ms", note);
}

fn lag_note(window: &Window) -> (f64, String) {
    match tail(&window.lags_ms, 0.99) {
        Some(t) => (
            t.value,
            format!("p{:.2} of {} sends", t.quantile * 100.0, t.count),
        ),
        None => (0.0, "closed loop: no schedule to lag".into()),
    }
}

fn timed(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let mut report = Report::default();
    provenance(args, &mut report);
    let schedule = Schedule::new(w, args.seed, args.seconds);
    // The window is split over freshly spawned groups; see
    // `latency_metrics` for why.
    let episode_s = args.seconds / EPISODES as f64;
    let mut setups = Vec::with_capacity(SETUP_SAMPLES);
    for _ in EPISODES..SETUP_SAMPLES {
        let (mut live, setup_s) = Live::setup(w, args.seed, &Instruments::default())?;
        setups.push(setup_s);
        live.shutdown();
    }
    let mut episodes = Vec::with_capacity(EPISODES);
    for k in 0..EPISODES {
        // The threaded runtime's conservation check needs its counters;
        // the counting recorder leaves every metered path off.
        let recorder =
            (w.runtime == Runtime::Threaded).then(|| Arc::new(BenchRecorder::counting()));
        let inst = Instruments {
            recorder: recorder.clone(),
            observability: None,
        };
        let (mut live, setup_s) = Live::setup(w, args.seed, &inst)?;
        setups.push(setup_s);
        let segment = schedule.segment(k, EPISODES, args.seconds);
        episodes.push(drive(&mut live, w, &segment, episode_s));
        if let Some(recorder) = &recorder {
            check_conservation(recorder, &mut live.ledger);
        }
        live.shutdown();
        report.merge_audit(live.ledger.audit());
    }
    let mut window = Window {
        drained: true,
        ..Window::default()
    };
    for episode in &episodes {
        window.absorb(episode);
    }

    report.add(
        "throughput_rps",
        window.committed as f64 / window.seconds,
        "req/s",
        format!("{} committed in {} s", window.committed, window.seconds),
    );
    latency_metrics(&mut report, &episodes);
    report.add(
        "cpu_ms_per_req",
        window.cpu_s * 1e3 / window.committed.max(1) as f64,
        "ms",
        format!(
            "{:.3} CPU s over {} requests",
            window.cpu_s, window.committed
        ),
    );
    report.add("peak_rss_mb", sys::peak_rss_mib(), "MiB", "VmHWM at exit");
    report.add(
        "setup_s",
        median(&setups),
        "s",
        format!("median of {SETUP_SAMPLES} set-ups: {setups:.3?}"),
    );
    let (lag, lag_note) = lag_note(&window);
    let p = &mut report.provenance;
    p.insert("latency_samples", window.latencies_ms.len().to_string());
    p.insert("submitted", window.submitted.to_string());
    p.insert("drained", window.drained.to_string());
    p.insert("generator_lag_p99_ms", json_number(lag));
    p.insert("generator_lag_note", json_string(&lag_note));
    p.insert(
        "generator_cpu_frac",
        json_number(window.generator_cpu_s / window.seconds),
    );
    p.insert("setups_s", format!("{setups:?}"));
    Ok(report)
}

fn per(value: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        value / count as f64
    }
}

fn traced(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let mut report = Report::default();
    provenance(args, &mut report);
    let out_dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {OUT_DIR}: {e}"))?;

    // 1. The pump and the per-op timings, on the workload's keys.
    let keys = deal_keys();
    let pump = pump::run(w, args.seed, &keys);
    println!("pump counts: {}", pump.counts.line());
    let spans_path = out_dir.join(format!("spans-{}.jsonl", w.name));
    pump.write_spans(&spans_path)
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
    let c = &pump.counts;
    let t = &pump.times;
    let frame_len = per(c.frame_bytes as f64, c.envelopes).round() as usize;
    let ops = layers::time_ops(&keys, frame_len, args.seed);
    report.merge_audit(Audit {
        details: pump
            .audit
            .details
            .iter()
            .map(|d| format!("pump: {d}"))
            .collect(),
        ..pump.audit.clone()
    });

    report.add("bigint.modexp_1024_us", ops.modexp_1024_us, "us", "median");
    for (name, v) in [
        ("crypto.sig_share_sign_us", ops.sig_share_sign_us),
        ("crypto.sig_share_verify_us", ops.sig_share_verify_us),
        ("crypto.sig_assemble_us", ops.sig_assemble_us),
        ("crypto.sig_verify_us", ops.sig_verify_us),
        ("crypto.coin_release_us", ops.coin_release_us),
        ("crypto.coin_verify_us", ops.coin_verify_us),
        ("crypto.coin_assemble_us", ops.coin_assemble_us),
    ] {
        report.add(name, v, "us", "median, 1024-bit keys");
    }
    report.add(
        "crypto.hmac_frame_us",
        ops.hmac_frame_us,
        "us",
        format!("median, {frame_len} B frame"),
    );
    let d = c.deliveries;
    let pump_note = format!("pump, {d} deliveries");
    report.add(
        "crypto.work_units_per_delivery",
        per(c.work_units(), d),
        "units",
        pump_note.clone(),
    );
    for f in pump::FAMILIES {
        let msgs = c.msgs.get(f).copied().unwrap_or(0);
        let ns = t.handle_ns.get(f).copied().unwrap_or(0);
        let milli = c.work_milli.get(f).copied().unwrap_or(0);
        report.add(
            format!("core.{f}.msgs_per_delivery"),
            per(msgs as f64, d),
            "count",
            pump_note.clone(),
        );
        report.add(
            format!("core.{f}.handle_us_per_delivery"),
            per(ns as f64 / 1e3, d),
            "us",
            pump_note.clone(),
        );
        report.add(
            format!("core.{f}.work_units_per_delivery"),
            per(milli as f64 / 1e3, d),
            "units",
            pump_note.clone(),
        );
    }
    report.add(
        "core.bytes_per_delivery",
        per(c.bytes as f64, d),
        "B",
        pump_note.clone(),
    );
    report.add(
        "core.payloads_per_round",
        per(d as f64, c.rounds),
        "count",
        format!("pump, distinct requests over {} rounds", c.rounds),
    );
    let env_note = format!("pump, {} envelopes", c.envelopes);
    let wire_encode = per(t.encode_ns as f64 / 1e3, c.envelopes);
    let wire_decode = per(t.decode_ns as f64 / 1e3, c.envelopes);
    let seal = per(t.seal_ns as f64 / 1e3, c.envelopes);
    let open = per(t.open_ns as f64 / 1e3, c.envelopes);
    report.add(
        "wire.encode_us_per_msg",
        wire_encode,
        "us",
        env_note.clone(),
    );
    report.add(
        "wire.decode_us_per_msg",
        wire_decode,
        "us",
        env_note.clone(),
    );
    report.add("link.seal_us_per_msg", seal, "us", env_note.clone());
    report.add("link.open_us_per_msg", open, "us", env_note);

    // 2. Untraced live window: the base of the overhead ratio.
    let half = args.seconds / 2.0;
    let schedule = Schedule::new(w, args.seed, half);
    let (mut plain_live, _) = Live::setup(w, args.seed, &Instruments::default())?;
    let plain = drive(&mut plain_live, w, &schedule, half);
    plain_live.shutdown();
    report.merge_audit(plain_live.ledger.audit());

    // 3. Traced live window: benchmark recorder plus streaming traces.
    let trace_dir = out_dir.join(format!("trace-{}-{}", w.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&trace_dir);
    std::fs::create_dir_all(&trace_dir).map_err(|e| format!("create trace dir: {e}"))?;
    let observability = ObservabilityConfig {
        dump_dir: trace_dir.clone(),
        trace: Some(TraceStreamConfig {
            rotate_bytes: TRACE_SEGMENT_BYTES,
            max_segments: TRACE_SEGMENTS,
            ..TraceStreamConfig::into_dir(&trace_dir)
        }),
        ..ObservabilityConfig::default()
    };
    let recorder = Arc::new(BenchRecorder::metered());
    let inst = Instruments {
        recorder: Some(Arc::clone(&recorder)),
        observability: Some(observability),
    };
    let (mut live, _) = Live::setup(w, args.seed, &inst)?;
    recorder.mark();
    let window_start_us = live.spawned_at.elapsed().as_micros() as u64;
    let traced = drive(&mut live, w, &schedule, half);
    if w.runtime == Runtime::Threaded {
        check_conservation(&recorder, &mut live.ledger);
    }
    live.shutdown();
    report.merge_audit(live.ledger.audit());
    let loaded = load_analysis(&trace_dir);
    let _ = std::fs::remove_dir_all(&trace_dir);
    let (analysis, trace_dropped) = loaded?;

    // Server loop, from the recorder (window and drain).
    let deliveries = traced.latencies_ms.len() as u64;
    let wall_us = traced.elapsed_s * 1e6;
    let srv = |name: &str| recorder.since_mark("server", name) as f64;
    let dnote = format!("live, {deliveries} deliveries");
    for (metric, counter) in [
        ("server.net_dispatch_us_per_delivery", "net_dispatch_us"),
        ("server.timer_dispatch_us_per_delivery", "timer_dispatch_us"),
        ("server.cmd_dispatch_us_per_delivery", "cmd_dispatch_us"),
        ("server.flush_us_per_delivery", "flush_us"),
    ] {
        report.add(metric, per(srv(counter), deliveries), "us", dnote.clone());
    }
    let busy = srv("net_dispatch_us")
        + srv("timer_dispatch_us")
        + srv("cmd_dispatch_us")
        + srv("flush_us");
    report.add(
        "server.busy_frac",
        busy / (wall_us * PARTIES as f64),
        "fraction",
        format!("dispatch+flush over {:.1} s x {PARTIES}", traced.elapsed_s),
    );
    let depth = recorder.gauge("server", "inbox_depth");
    report.add(
        "server.inbox_depth_mean",
        depth.mean(),
        "count",
        format!("{} samples", depth.count),
    );
    report.add(
        "server.inbox_depth_max",
        depth.max as f64,
        "count",
        format!("{} samples", depth.count),
    );
    report.add(
        "server.msgs_sent_per_delivery",
        per(recorder.total_since_mark("msgs_sent") as f64, deliveries),
        "count",
        dnote.clone(),
    );
    report.add(
        "server.bytes_sent_per_delivery",
        per(recorder.total_since_mark("bytes_sent") as f64, deliveries),
        "B",
        dnote.clone(),
    );
    // Little's law: mean queue length over the per-party arrival rate.
    let dispatched = recorder.total_since_mark("msgs_delivered") as f64;
    let rate_per_party_us = dispatched / (wall_us * PARTIES as f64);
    let inbox_wait = if rate_per_party_us > 0.0 {
        depth.mean() / rate_per_party_us
    } else {
        0.0
    };
    report.add(
        "server.inbox_wait_est_us",
        inbox_wait,
        "us",
        "estimate: inbox_depth mean / per-party dispatch rate (Little's law)",
    );

    // TCP links (the `link` scope).
    let link = |name: &str| recorder.since_mark("link", name) as f64;
    let frames = link("frames_sent");
    let tcp_note = if w.runtime == Runtime::Tcp {
        "live"
    } else {
        "not a TCP workload"
    };
    report.add(
        "tcp.frames_per_delivery",
        per(frames, deliveries),
        "count",
        tcp_note,
    );
    report.add(
        "tcp.retransmit_frac",
        if frames > 0.0 {
            link("retransmits") / frames
        } else {
            0.0
        },
        "fraction",
        tcp_note,
    );
    report.add("tcp.reconnects", link("reconnects"), "count", tcp_note);
    report.add(
        "tcp.backpressure_drops",
        link("backpressure_drops"),
        "count",
        tcp_note,
    );

    // Phase ledger over the window's group-critical atomic rounds.
    let rounds: Vec<&RoundProfile> = analysis
        .critical_rounds()
        .into_iter()
        .filter(|r| r.family == "atomic" && r.end_us >= window_start_us)
        .collect();
    let wall_total: u64 = rounds.iter().map(|r| r.wall_us()).sum();
    let mut bucket_totals: BTreeMap<&str, u64> = BTreeMap::new();
    for r in &rounds {
        for (b, us) in r.bucket_totals() {
            *bucket_totals.entry(b).or_default() += us;
        }
    }
    let ledger_note = if rounds.is_empty() {
        "no atomic rounds in this workload".to_string()
    } else {
        format!("{} critical rounds", rounds.len())
    };
    for b in BUCKETS {
        let share = per(
            bucket_totals.get(b).copied().unwrap_or(0) as f64,
            wall_total,
        );
        report.add(format!("phase.{b}"), share, "fraction", ledger_note.clone());
    }
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_us() as f64 / 1e3).collect();
    report.add(
        "phase.round_wall_p50_ms",
        median(&walls),
        "ms",
        ledger_note.clone(),
    );
    let coverage = rounds
        .iter()
        .map(|r| r.coverage())
        .fold(f64::INFINITY, f64::min);
    report.add(
        "phase.coverage_min",
        if rounds.is_empty() { 0.0 } else { coverage },
        "fraction",
        ledger_note.clone(),
    );
    println!(
        "outside-in link split: phase.link share {:.4} of critical-round wall; mean link hop on the critical path {:.1} us; server.inbox_wait_est_us {:.1} (estimate, Little's law)",
        per(bucket_totals.get("link").copied().unwrap_or(0) as f64, wall_total),
        mean_link_hop_us(&rounds),
        inbox_wait
    );

    // Layer-ladder reconciliation: per atomic round and party, the
    // compute the layer costs predict against the ledger's compute.
    let per_round_party = |x: f64| per(x, c.rounds) / PARTIES as f64;
    let predicted = if c.rounds == 0 {
        0.0
    } else {
        per_round_party(c.work_units()) * ops.modexp_1024_us
            + per_round_party(c.envelopes as f64) * (wire_encode + seal + open + wire_decode)
    };
    let ledger_compute = if rounds.is_empty() {
        0.0
    } else {
        let compute: u64 = bucket_totals
            .iter()
            .filter(|(b, _)| !matches!(**b, "link" | "verify-wait"))
            .map(|(_, us)| us)
            .sum();
        compute as f64 / rounds.len() as f64
    };
    let residual = if ledger_compute > 0.0 {
        (ledger_compute - predicted) / ledger_compute
    } else {
        0.0
    };
    report.add(
        "ladder.predicted_compute_us_per_round",
        predicted,
        "us",
        "pump work units x modexp + envelopes x (encode+seal+open+decode), per party",
    );
    report.add(
        "ladder.ledger_compute_us_per_round",
        ledger_compute,
        "us",
        ledger_note,
    );
    report.add(
        "ladder.residual_frac",
        residual,
        "fraction",
        "(ledger - predicted) / ledger",
    );
    println!(
        "ladder: predicted {predicted:.1} us/round/party | ledger compute {ledger_compute:.1} us/critical round | residual {:.1}% | pump measured handle time {:.1} us/round/party",
        residual * 100.0,
        per_round_party(t.handle_ns.values().sum::<u64>() as f64 / 1e3),
    );

    // The harness itself.
    let (lag, lag_note) = lag_note(&plain);
    report.add("loadgen.lag_p99_ms", lag, "ms", lag_note);
    report.add(
        "loadgen.cpu_frac",
        plain.generator_cpu_s / plain.seconds,
        "fraction",
        "generator thread CPU over the untraced window",
    );
    let plain_rps = plain.committed as f64 / plain.seconds;
    let traced_rps = traced.committed as f64 / traced.seconds;
    report.add(
        "trace.overhead_ratio",
        if plain_rps > 0.0 {
            traced_rps / plain_rps
        } else {
            0.0
        },
        "ratio",
        format!("traced {traced_rps:.2} / untraced {plain_rps:.2} req/s"),
    );
    let p = &mut report.provenance;
    p.insert(
        "latency_samples",
        (plain.latencies_ms.len() + traced.latencies_ms.len()).to_string(),
    );
    p.insert("generator_lag_p99_ms", json_number(lag));
    p.insert("spans", json_string(&spans_path.display().to_string()));
    p.insert("span_count", pump.spans.len().to_string());
    p.insert("trace_dropped_events", trace_dropped.to_string());
    Ok(report)
}

fn load_analysis(dir: &Path) -> Result<(Analysis, u64), String> {
    let files = find_trace_files(dir)?;
    let merged = merge_streams(&files)?;
    Ok((analyze(&merged), merged.dropped))
}

fn mean_link_hop_us(rounds: &[&RoundProfile]) -> f64 {
    let hops: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.segments.iter())
        .filter(|s| s.bucket == "link")
        .map(|s| s.to_us.saturating_sub(s.from_us) as f64)
        .collect();
    mean(&hops)
}
