//! The repo's benchmark: five named workloads, end-to-end metrics measured
//! with tracing off, and a separate traced run that attributes time to
//! layers. See `README.md` for what each number means and which layer is
//! expected to move it.

mod compare;
mod harness;
mod probes;
mod reference;
mod statements;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use cvopt_serve::Json;

use harness::{latency_summary, median, peak_rss_mb, window, Recorder, Scale, Tally, Workload};
use workloads::WARMUP_ROUND;

const USAGE: &str = "usage:
  benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out-dir DIR]
  benchmark compare A.json B.json [--bounds BENCHMARK.json]
workloads: cold_sample exact_scan serve_cached remote_cold ingest_maintain";

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    /// Where `trace.json` goes.
    out_dir: String,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        quick: false,
        out_dir: "benchmark/out".into(),
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => args.quick = true,
            "--out-dir" => args.out_dir = value("--out-dir")?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    if !(args.seconds >= 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds {} is out of range", args.seconds));
    }
    Ok(args)
}

/// `(name, value, unit)` in report order.
type Metrics = Vec<(&'static str, f64, &'static str)>;

struct Outcome {
    metrics: Metrics,
    tally: Tally,
    /// Lines for the operator that are not metrics of the contract.
    notes: Vec<String>,
}

/// Set up `repeats` times, keeping one instance; the set-up times come back
/// with it.
fn set_up<W: Workload>(scale: &Scale, seed: u64, repeats: usize) -> (W, Vec<f64>) {
    let mut times = Vec::with_capacity(repeats);
    let mut kept = None;
    for _ in 0..repeats.max(1) {
        // One instance at a time, so peak memory is that of a single set-up.
        drop(kept.take());
        let t = Instant::now();
        kept = Some(W::setup(scale, seed));
        times.push(t.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up"), times)
}

fn error_metrics(rec: &Recorder) -> (f64, f64, f64) {
    let mean = rec.err_terms.iter().sum::<f64>() / rec.err_terms.len().max(1) as f64;
    let worst_statement =
        rec.stmt_errs.values().map(|(sum, n)| sum / *n as f64).fold(0.0, f64::max);
    let worst_group = rec.err_terms.iter().copied().fold(0.0, f64::max);
    (mean * 100.0, worst_statement * 100.0, worst_group * 100.0)
}

/// The end-to-end run: tracing off.
fn run_untraced<W: Workload>(args: &Args, scale: &Scale) -> Outcome {
    let (mut w, setups) = set_up::<W>(scale, args.seed, scale.setup_repeats);
    let mut warm = Recorder::new(false);
    w.prepare(&mut warm);
    w.round(WARMUP_ROUND, &mut warm);

    let mut result = window(&mut w, 0, args.seconds, scale.min_primary_ops, false);
    w.finish(&mut result.rec);
    let mut tally = warm.tally;
    tally.absorb(std::mem::take(&mut result.rec.tally));
    let rec = &result.rec;

    let (p50, p95) = latency_summary(&rec.latencies_ms);
    let (mean_err, worst_stmt_err, worst_group_err) = error_metrics(rec);
    let metrics = vec![
        ("setup_s", median(&setups), "s"),
        ("ops_per_s", median(&result.round_rates), "1/s"),
        ("p50_ms", p50, "ms"),
        ("p95_ms", p95, "ms"),
        ("mean_rel_err_pct", mean_err, "%"),
        ("max_rel_err_pct", worst_stmt_err, "%"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    let notes = vec![
        format!("rounds {}", result.rounds),
        format!("window_s {:.3}", result.seconds),
        format!(
            "latency_samples {} (p95 needs {})",
            rec.latencies_ms.len(),
            harness::samples_needed(0.95)
        ),
        format!("failed_share {}", tally.failed as f64 / tally.attempted.max(1) as f64),
        format!("worst_group_rel_err_pct {worst_group_err:.3}"),
        format!("scored_error_terms {}", rec.err_terms.len()),
    ];
    Outcome { metrics, tally, notes }
}

/// The traced run: half a window with spans off, half with spans on (their
/// difference is the tracing overhead), then the layer probes.
fn run_traced<W: Workload>(name: &str, args: &Args, scale: &Scale) -> Outcome {
    let (mut w, _) = set_up::<W>(scale, args.seed, 1);
    let mut warm = Recorder::new(false);
    w.prepare(&mut warm);
    w.round(WARMUP_ROUND, &mut warm);

    let half = args.seconds / 2.0;
    let min_ops = scale.min_primary_ops.div_ceil(2);
    let plain = window(&mut w, 0, half, min_ops, false);
    let before = w.engine_counters();
    let mut traced = window(&mut w, plain.rounds, half, min_ops, true);
    let after = w.engine_counters();
    let per_round = |i: usize| (after[i] - before[i]) as f64 / traced.rounds as f64;

    let (plain_p50, _) = latency_summary(&plain.rec.latencies_ms);
    let (traced_p50, _) = latency_summary(&traced.rec.latencies_ms);
    let mut metrics: Metrics = vec![
        ("core.engine.cache_hits", per_round(0), "count"),
        ("core.engine.cache_misses", per_round(1), "count"),
        ("core.engine.reuse_hits", per_round(2), "count"),
        ("core.engine.stats_passes", per_round(3), "count"),
        ("core.engine.cache_bytes_held", after[4] as f64, "bytes"),
        ("trace.overhead_pct", (traced_p50 - plain_p50) / plain_p50 * 100.0, "%"),
    ];

    let mut tracer = traced.rec.tracer.take().expect("the traced window records spans");
    let mut notes = vec![format!("rounds {} + {}", plain.rounds, traced.rounds)];
    for (span, (count, total_ns, self_ns)) in trace::totals_by_name(tracer.spans()) {
        notes.push(format!(
            "span {span} count {count} total_ms {:.3} self_ms {:.3}",
            total_ns as f64 / 1e6,
            self_ns as f64 / 1e6
        ));
    }
    let mut tally = warm.tally;
    tally.absorb(plain.rec.tally);
    tally.absorb(traced.rec.tally);
    drop(w);

    let probed = probes::run(scale, args.seed);
    metrics.extend(probed.metrics);
    notes.extend(probed.notes);
    tally.absorb(probed.tally);
    tracer.absorb(probed.tracer);
    let spans = tracer.spans();
    let path = std::path::Path::new(&args.out_dir).join("trace.json");
    let written = std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&path, trace::to_json(name, spans)));
    match written {
        Ok(()) => notes.push(format!("{} spans written to {}", spans.len(), path.display())),
        Err(e) => notes.push(format!("trace.json not written: {e}")),
    }
    Outcome { metrics, tally, notes }
}

fn run<W: Workload>(args: &Args, scale: &Scale) -> Outcome {
    if args.trace {
        run_traced::<W>(&args.workload, args, scale)
    } else {
        run_untraced::<W>(args, scale)
    }
}

fn result_json(outcome: &Outcome) -> String {
    let metrics = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                *name,
                Json::object(vec![("value", Json::Number(*value)), ("unit", Json::string(*unit))]),
            )
        })
        .collect();
    Json::object(vec![
        ("correct", Json::Bool(outcome.tally.failed == 0)),
        ("attempted", Json::Int(outcome.tally.attempted as i64)),
        ("failed", Json::Int(outcome.tally.failed as i64)),
        ("metrics", Json::object(metrics)),
    ])
    .to_string()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare::main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scale = if args.quick { harness::QUICK } else { harness::FULL };
    // `--quick` is one round of everything.
    let args = Args { seconds: if args.quick { 0.0 } else { args.seconds }, ..args };
    let outcome = match args.workload.as_str() {
        "cold_sample" => run::<workloads::cold_sample::ColdSample>(&args, &scale),
        "exact_scan" => run::<workloads::exact_scan::ExactScan>(&args, &scale),
        "serve_cached" => run::<workloads::serve_cached::ServeCached>(&args, &scale),
        "remote_cold" => run::<workloads::remote_cold::RemoteCold>(&args, &scale),
        "ingest_maintain" => run::<workloads::ingest_maintain::IngestMaintain>(&args, &scale),
        _ => unreachable!("parse_args admits only known workloads"),
    };

    for (name, value, unit) in &outcome.metrics {
        println!("{} {name} {value} {unit}", args.workload);
    }
    for note in &outcome.notes {
        println!("{} # {note}", args.workload);
    }
    for failure in &outcome.tally.failures {
        println!("{} # FAILED {failure}", args.workload);
    }
    println!("{}", result_json(&outcome));
    ExitCode::SUCCESS
}
