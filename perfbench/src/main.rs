//! The DiCE campaign benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <demo27|internet-1k|defects> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload through the public `Campaign::run` for
//! `--seconds`, repeating it on freshly built systems, and reports the
//! end-to-end metrics. `--trace 1` re-composes the same campaigns from each
//! layer's public entry points under in-memory spans and reports the
//! per-layer metrics. Both print their tables, write a record under
//! `perfbench/out/`, and end with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! README.md describes the workloads and the metrics.

mod spans;
mod speed;
mod stats;
mod traced;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use dice_bench::{detection_rows, summarize_campaign, Table};
use dice_core::{CampaignReport, FaultClass};
use serde_json::{json, Map, Value};

use spans::{self_time_by_name, Recorder, Span};
use stats::{median, percentile, tail_per_mille};
use workloads::{check_outcome, Expect, Workload};

/// Repetitions every run makes at least: the determinism check compares
/// each repetition with the first, and medians need a few samples.
const MIN_REPS: usize = 3;
/// Round-time samples an end-to-end run collects at least, so that its
/// p90 has ten samples beyond it.
const MIN_ROUNDS: usize = 100;
/// Wall-clock cap on the measuring loop, well inside the 180 s a run may
/// take, should a slow host not reach the sample floors in time.
const CAP_SECONDS: f64 = 140.0;

const CLASSES: [FaultClass; 3] = [
    FaultClass::ProgrammingError,
    FaultClass::PolicyConflict,
    FaultClass::OperatorMistake,
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u32>()
                        .map_err(|e| format!("--seconds {value}: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: f64::from(seconds.unwrap_or(10).max(1)),
        trace: trace.unwrap_or(false),
    })
}

/// Everything one run produces.
#[derive(Default)]
struct Run {
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    reps: usize,
    metrics: Vec<(String, f64, &'static str)>,
    /// The end-to-end metrics from raw wall times, before scaling to
    /// reference speed.
    raw_metrics: Vec<(String, f64, &'static str)>,
    /// The raw per-repetition samples behind the end-to-end medians, and
    /// the reference-job times that scaled them.
    samples: Vec<(String, Vec<f64>)>,
    /// Deterministic work counts of one repetition, checked equal across
    /// repetitions.
    counts: Vec<(String, u64)>,
    tables: Vec<Table>,
    spans: Vec<Span>,
}

impl Run {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Record `counts` from one repetition: the first sets the reference,
    /// every later one must match it exactly.
    fn check_counts(&mut self, counts: Vec<(String, u64)>) {
        if self.counts.is_empty() {
            self.counts = counts;
        } else if let Some(((name, a), (_, b))) =
            self.counts.iter().zip(&counts).find(|(x, y)| x != y)
        {
            self.problems.push(format!(
                "count {name} differs between repetitions of one run: {a} vs {b}"
            ));
        }
    }
}

/// Rounds a campaign will run: its sweep plan times its sweeps.
fn planned_rounds(campaign: &dice_core::Campaign) -> u64 {
    let pairs: usize = campaign.sweep_plan().iter().map(|(_, p)| p.len()).sum();
    (pairs * campaign.config_ref().rounds.max(1)) as u64
}

/// The deterministic counts of an untraced campaign report (the
/// schedule-dependent pool and buffer counters are left out).
fn report_counts(label: &str, r: &CampaignReport) -> Vec<(String, u64)> {
    let p = &r.perf;
    [
        ("executions", r.executions_total as u64),
        ("validated", r.validated_total as u64),
        ("coverage_union", r.coverage_union as u64),
        ("faults", r.faults.len() as u64),
        ("nodes_recaptured", p.nodes_recaptured),
        ("delta_bytes", p.snapshot_delta_bytes),
        ("wire_bytes", p.wire_bytes),
        ("frames_dropped", p.frames_dropped),
        ("frames_duplicated", p.frames_duplicated),
        ("frames_reordered", p.frames_reordered),
        ("solver_queries", p.solver_queries),
        ("memo_hits", p.unary_memo_hits),
        ("churn_events", p.churn_events),
    ]
    .into_iter()
    .map(|(k, v)| (format!("{label}.{k}"), v))
    .collect()
}

fn keep_going(start: Instant, args: &Args, reps: usize, rounds: usize) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    elapsed < CAP_SECONDS && (elapsed < args.seconds || reps < MIN_REPS || rounds < MIN_ROUNDS)
}

/// Per-repetition wall-time samples of an end-to-end run, by series:
/// `setup_s`, `rounds_per_s`, `round_ms` and `detect_ms.<class>`.
type Series = BTreeMap<String, Vec<f64>>;

/// The end-to-end metrics of a series set; problems name any metric
/// that cannot be computed from it.
fn end_to_end(series: &Series, problems: &mut Vec<String>) -> Vec<(String, f64, &'static str)> {
    let mut out = Vec::new();
    let mut median_of = |metric: &str, series_name: &str, unit: &'static str| match series
        .get(series_name)
        .filter(|v| !v.is_empty())
    {
        Some(v) => out.push((metric.to_string(), median(v), unit)),
        None => problems.push(format!("no samples for {metric}")),
    };
    median_of("setup_s", "setup_s", "s");
    median_of("rounds_per_s", "rounds_per_s", "1/s");
    median_of("round_ms_p50", "round_ms", "ms");
    for class in CLASSES {
        let name = format!("detect_ms.{class}");
        median_of(&name, &name, "ms");
    }
    let rounds = series.get("round_ms").map_or(&[][..], Vec::as_slice);
    if tail_per_mille(rounds.len()).is_some_and(|p| p >= 900) {
        out.insert(
            3,
            ("round_ms_p90".to_string(), percentile(rounds, 900), "ms"),
        );
    } else {
        problems.push(format!(
            "{} round samples cannot support a p90",
            rounds.len()
        ));
    }
    out
}

/// End-to-end run: the workload through `Campaign::run`, tracing off.
/// Wall times are reported at reference speed (see [`speed`]); the raw
/// figures go to the record.
fn measure(args: &Args, workers: usize) -> Run {
    let mut run = Run::default();
    let mut raw = Series::new();
    let mut first_reports: Vec<String> = Vec::new();
    let mut summary = Table::new(
        &format!(
            "{} — campaigns of the first repetition",
            args.workload.name()
        ),
        &["campaign", "metric", "value"],
    );
    let mut host = speed::Host::new();
    let mut peak_mb = 0.0;
    let start = Instant::now();
    while keep_going(
        start,
        args,
        run.reps,
        raw.get("round_ms").map_or(0, Vec::len),
    ) {
        let t = Instant::now();
        let mut prepared = args.workload.prepare(args.seed, workers, false);
        let mut rep = Series::new();
        rep.insert("setup_s".into(), vec![t.elapsed().as_secs_f64()]);

        let (mut rep_rounds, mut rep_wall_us) = (0usize, 0u64);
        let mut reports = Vec::new();
        let mut counts = Vec::new();
        for p in &mut prepared {
            let planned = planned_rounds(&p.campaign);
            run.attempted += planned;
            let report = match p.campaign.run(&mut p.live) {
                Ok(report) => report,
                Err(e) => {
                    run.failed += planned;
                    run.problems
                        .push(format!("{}: campaign failed: {e}", p.label));
                    continue;
                }
            };
            if let Some(why) = check_outcome(p.expect, &report) {
                run.problems.push(format!("{}: {why}", p.label));
                if matches!(p.expect, Expect::Healthy) {
                    run.failed += report
                        .rounds
                        .iter()
                        .filter(|r| !r.faults.is_empty())
                        .count() as u64;
                }
            }
            rep_rounds += report.rounds.len();
            rep_wall_us += report.wall_us;
            rep.entry("round_ms".into())
                .or_default()
                .extend(report.rounds.iter().map(|r| r.wall_us as f64 / 1e3));
            for class in CLASSES {
                // A healthy campaign's verdict on every class is its clean
                // finish; a defect campaign's is the first detection of the
                // class it was built to expose.
                let at_us = match p.expect {
                    Expect::Healthy => Some(report.wall_us),
                    Expect::Detects(c, _) if c == class => report
                        .detection
                        .iter()
                        .find(|d| d.class == class)
                        .map(|d| d.wall_us_cum),
                    Expect::Detects(..) => None,
                };
                if let Some(us) = at_us {
                    rep.insert(format!("detect_ms.{class}"), vec![us as f64 / 1e3]);
                }
            }
            if run.reps == 0 {
                summarize_campaign(&mut summary, p.label, &report);
                detection_rows(&mut summary, p.label, &report);
            }
            counts.extend(report_counts(p.label, &report));
            reports.push(serde_json::to_string(&report.normalized()).expect("reports serialize"));
        }
        rep.insert(
            "rounds_per_s".into(),
            vec![rep_rounds as f64 * 1e6 / rep_wall_us.max(1) as f64],
        );
        host.sample();
        for (name, values) in rep {
            raw.entry(name).or_default().extend(values);
        }
        if run.reps == 0 {
            first_reports = reports;
        } else if reports != first_reports {
            run.problems.push(format!(
                "normalized report of repetition {} differs from the first",
                run.reps + 1
            ));
        }
        run.check_counts(counts);
        run.reps += 1;
        if run.reps == MIN_REPS {
            // Peak memory over a fixed amount of work: later repetitions
            // only fragment the heap further, and how many fit in the run
            // depends on the host's speed.
            peak_mb = peak_rss_mb();
        }
    }

    run.raw_metrics = end_to_end(&raw, &mut run.problems);
    let factor = host.factor();
    run.metrics = run
        .raw_metrics
        .iter()
        .map(|(name, value, unit)| {
            // Times scale by the factor, rates by its inverse.
            let scaled = if *unit == "1/s" {
                value / factor
            } else {
                value * factor
            };
            (name.clone(), scaled, *unit)
        })
        .collect();
    run.metric("peak_rss_mb", peak_mb, "MB");
    run.tables.push(summary);
    raw.insert("reference_s".into(), host.samples().to_vec());
    run.samples = raw.into_iter().collect();
    run
}

/// Traced run: an untraced sequential `Campaign::run` as the reference,
/// then the same campaigns re-composed layer by layer under spans.
fn measure_traced(args: &Args) -> Run {
    let mut run = Run::default();
    let mut wall_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut self_ms: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut per_unit: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut counts = traced::Counts::default();
    let mut host = speed::Host::new();
    let start = Instant::now();
    // The round floor is for the end-to-end percentiles only.
    while keep_going(start, args, run.reps, MIN_ROUNDS) {
        let mut reference = args.workload.prepare(args.seed, 1, false);
        let mut outcomes = Vec::new();
        let t = Instant::now();
        for p in &mut reference {
            outcomes.push(
                p.campaign
                    .run(&mut p.live)
                    .map(|r| traced::Outcome::of_report(&r)),
            );
        }
        untraced_ms.push(t.elapsed().as_secs_f64() * 1e3);
        host.sample();

        let mut prepared = args.workload.prepare(args.seed, 1, true);
        let mut rec = Recorder::new();
        let mut ordinal = 0u64;
        let mut rep_counts = traced::Counts::default();
        let mut valid = true;
        for (p, reference) in prepared.iter_mut().zip(outcomes) {
            let planned = planned_rounds(&p.campaign);
            run.attempted += planned;
            let registry = p.registry.as_ref().expect("prepared for tracing");
            let traced = traced::run(&mut rec, &mut p.live, &p.campaign, registry, &mut ordinal);
            let problem = match (traced, reference) {
                (Ok((got, n)), Ok(want)) if got == want => {
                    rep_counts.add(&n);
                    None
                }
                (Ok((got, _)), Ok(want)) => Some(format!(
                    "traced run is invalid: its results differ from Campaign::run\n  traced: {got:?}\n  campaign: {want:?}"
                )),
                (Err(e), _) | (_, Err(e)) => Some(format!("campaign failed: {e}")),
            };
            if let Some(problem) = problem {
                run.failed += planned;
                run.problems.push(format!("{}: {problem}", p.label));
                valid = false;
            }
        }
        run.reps += 1;
        if !valid {
            // An open span or a different program: nothing to time.
            break;
        }
        let spans = rec.into_spans();
        let wall: u64 = spans
            .iter()
            .filter(|s| s.name == "core.campaign")
            .map(Span::duration_ns)
            .sum();
        let by_name = self_time_by_name(&spans);
        let accounted: u64 = by_name.values().sum();
        if accounted != wall {
            run.problems.push(format!(
                "span self times sum to {accounted} ns, not the traced wall {wall} ns"
            ));
        }
        host.sample();
        wall_ms.push(wall as f64 / 1e6);
        for layer in LAYERS {
            let ns = by_name.get(layer).copied().unwrap_or(0);
            self_ms.entry(layer).or_default().push(ns as f64 / 1e6);
        }
        for s in &spans {
            per_unit
                .entry(s.name)
                .or_default()
                .push(s.duration_ns() as f64 / 1e6);
        }
        let other: u64 = wall - LAYERS.iter().filter_map(|l| by_name.get(l)).sum::<u64>();
        self_ms.entry("other").or_default().push(other as f64 / 1e6);
        run.check_counts(
            count_rows(&rep_counts)
                .into_iter()
                .map(|(name, value, _)| (name.to_string(), value))
                .collect(),
        );
        counts = rep_counts;
        run.spans = spans;
    }
    if run.spans.is_empty() {
        return run;
    }

    let total = |layer: &str| median(&self_ms[layer]);
    let unit = |name: &str| per_unit.get(name).map_or(0.0, |v| median(v));
    let n = counts;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    run.metric("core.snapshot.cut_ms", unit("core.snapshot"), "ms");
    run.metric("core.snapshot.cut_ms_total", total("core.snapshot"), "ms");
    run.metric("netsim.acquire_ms", unit("netsim.acquire"), "ms");
    run.metric("netsim.acquire_ms_total", total("netsim.acquire"), "ms");
    run.metric("netsim.run_ms", unit("netsim.run"), "ms");
    run.metric("netsim.run_ms_total", total("netsim.run"), "ms");
    run.metric("concolic.explore_ms", unit("concolic.explore"), "ms");
    run.metric("concolic.explore_ms_total", total("concolic.explore"), "ms");
    for (name, value, unit) in count_rows(&n) {
        run.metric(name, value as f64, unit);
    }
    run.metric(
        "netsim.reuse_ratio",
        ratio(n.clones_reset, n.clones),
        "ratio",
    );
    run.metric(
        "concolic.useful_ratio",
        ratio(n.useful_executions, n.executions),
        "ratio",
    );
    run.metric("core.sut.plan_ms_total", total("core.sut.plan"), "ms");
    run.metric("core.check.check_ms_total", total("core.check"), "ms");
    run.metric("core.campaign.other_ms", total("other"), "ms");
    run.metric("core.campaign.wall_ms", median(&wall_ms), "ms");
    run.metric("core.campaign.untraced_ms", median(&untraced_ms), "ms");
    let overhead: Vec<f64> = wall_ms
        .iter()
        .zip(&untraced_ms)
        .map(|(t, u)| t / u)
        .collect();
    run.metric("core.campaign.tracing_overhead", median(&overhead), "ratio");
    // Span times at reference speed, as for the end-to-end metrics.
    run.raw_metrics = run.metrics.clone();
    let factor = host.factor();
    run.samples = vec![("reference_s".to_string(), host.samples().to_vec())];
    for (_, value, unit) in &mut run.metrics {
        if *unit == "ms" {
            *value *= factor;
        }
    }

    let wall = median(&wall_ms);
    let mut shares = Table::new(
        &format!(
            "{} — traced self time per layer (median of {} repetitions)",
            args.workload.name(),
            run.reps
        ),
        &["layer", "self ms (raw)", "share of traced wall"],
    );
    for layer in LAYERS.iter().chain(&["other"]) {
        let ms = total(layer);
        shares.row(vec![
            layer.to_string(),
            format!("{ms:.1}"),
            format!("{:.1}%", 100.0 * ms / wall),
        ]);
    }
    run.tables.push(shares);
    run
}

/// The layer spans whose self times the traced run reports; every other
/// span's self time is campaign bookkeeping, reported as `other`.
const LAYERS: [&str; 6] = [
    "core.snapshot",
    "netsim.acquire",
    "netsim.run",
    "concolic.explore",
    "core.sut.plan",
    "core.check",
];

/// The traced run's deterministic counts: metric name, value, unit.
fn count_rows(n: &traced::Counts) -> [(&'static str, u64, &'static str); 19] {
    [
        ("core.snapshot.cuts", n.cuts, "count"),
        ("core.snapshot.live_events", n.live_events, "count"),
        (
            "core.snapshot.nodes_recaptured",
            n.nodes_recaptured,
            "count",
        ),
        ("core.snapshot.delta_bytes", n.delta_bytes, "bytes"),
        ("netsim.clones", n.clones, "count"),
        ("netsim.clones_reset", n.clones_reset, "count"),
        ("netsim.run_events", n.run_events, "count"),
        ("netsim.run_timeouts", n.run_timeouts, "count"),
        ("netsim.wire_bytes", n.wire_bytes, "bytes"),
        ("netsim.frames_dropped", n.frames_dropped, "count"),
        ("netsim.frames_duplicated", n.frames_duplicated, "count"),
        ("netsim.frames_reordered", n.frames_reordered, "count"),
        ("concolic.executions", n.executions, "count"),
        ("concolic.useful_executions", n.useful_executions, "count"),
        ("concolic.solver_queries", n.solver_queries, "count"),
        ("concolic.solver_sat", n.solver_sat, "count"),
        ("concolic.solver_steps", n.solver_steps, "count"),
        ("concolic.memo_hits", n.memo_hits, "count"),
        ("core.check.verdicts", n.verdicts, "count"),
    ]
}

/// Peak resident set of this process (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checkout's git revision, read from `.git` in the working directory
/// without leaving it; "unknown" outside a git checkout.
fn git_revision() -> String {
    let git = Path::new(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Digest of the running executable: two records with the same digest
/// come from the same code.
fn binary_digest() -> String {
    std::env::current_exe()
        .and_then(std::fs::read)
        .map(|bytes| dice_core::interface::short_digest(&dice_core::sha256(&bytes)))
        .unwrap_or_else(|_| "unknown".into())
}

fn record_path(args: &Args) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "{}-seed{}-trace{}.json",
            args.workload.name(),
            args.seed,
            u8::from(args.trace)
        ))
}

/// Flag any count that differs from an earlier record of the same binary
/// at the same workload, seed and mode.
fn compare_with_previous(run: &mut Run, path: &Path, digest: &str) {
    let Some(prev) = std::fs::read_to_string(path)
        .ok()
        .and_then(|s| serde_json::parse_value(&s).ok())
    else {
        return;
    };
    if prev["binary"] != *digest {
        return;
    }
    for (name, value) in &run.counts {
        let before = &prev["counts"][name.as_str()];
        if *before != Value::U64(*value) {
            run.problems.push(format!(
                "count {name} differs from an earlier run of the same binary: {before:?} vs {value}"
            ));
        }
    }
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some(speed::REFERENCE_FLAG) {
        println!("{}", speed::reference_child());
        return;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: dice-perfbench --workload <demo27|internet-1k|defects> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let workers = args.workload.workers(cores);
    let mut run = if args.trace {
        measure_traced(&args)
    } else {
        measure(&args, workers)
    };

    let digest = binary_digest();
    let path = record_path(&args);
    compare_with_previous(&mut run, &path, &digest);
    let correct = run.problems.is_empty() && !run.metrics.is_empty();

    let mut table = Table::new(
        &format!(
            "{} — seed {} (held-out seed {}), trace {}, {} repetitions, {} cores, {} workers, rev {}",
            args.workload.name(),
            args.seed,
            args.workload.held_out_seed(),
            u8::from(args.trace),
            run.reps,
            cores,
            if args.trace { 1 } else { workers },
            git_revision()
        ),
        &["metric", "value", "unit"],
    );
    let mut metrics = Map::new();
    for (name, value, unit) in &run.metrics {
        table.row(vec![name.clone(), format!("{value:.4}"), unit.to_string()]);
        metrics.insert(name.clone(), json!({ "value": *value, "unit": *unit }));
    }
    let mut counts_table = Table::new("deterministic work counts", &["count", "value"]);
    for (name, value) in &run.counts {
        counts_table.row(vec![name.clone(), value.to_string()]);
    }
    for t in run.tables.iter().chain([&table, &counts_table]) {
        t.print();
    }
    for p in &run.problems {
        eprintln!("problem: {p}");
    }

    let record = json!({
        "workload": args.workload.name(),
        "seed": args.seed,
        "held_out_seed": args.workload.held_out_seed(),
        "trace": args.trace,
        "cores": cores,
        "workers": if args.trace { 1 } else { workers },
        "git_rev": git_revision(),
        "binary": digest,
        "repetitions": run.reps,
        "correct": correct,
        "problems": Value::Array(run.problems.iter().map(|p| json!(p)).collect()),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": Value::Object(metrics.clone()),
        "raw_metrics": Value::Object(
            run.raw_metrics
                .iter()
                .map(|(k, v, u)| (k.clone(), json!({ "value": *v, "unit": *u })))
                .collect(),
        ),
        "counts": Value::Object(run.counts.iter().map(|(k, v)| (k.clone(), json!(*v))).collect()),
        "samples": Value::Object(
            run.samples
                .iter()
                .map(|(k, v)| (k.clone(), Value::Array(v.iter().map(|x| json!(*x)).collect())))
                .collect(),
        ),
        "tables": Value::Array(run.tables.iter().chain([&table]).map(Table::to_json).collect()),
        "spans": Value::Array(run.spans.iter().map(|s| json!({
            "name": s.name,
            "trace": s.trace,
            "parent": s.parent.map_or(Value::Null, |p| json!(p)),
            "start_ns": s.start_ns,
            "end_ns": s.end_ns,
        })).collect()),
    });
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| {
            std::fs::write(
                &path,
                serde_json::to_string_pretty(&record).expect("record serializes"),
            )
        });
    if let Err(e) = written {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }

    let result = json!({
        "correct": correct,
        "attempted": run.attempted.max(1),
        "failed": run.failed,
        "metrics": Value::Object(metrics),
    });
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );
}
