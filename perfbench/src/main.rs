//! `perfbench`: the end-to-end and per-layer benchmark of the two4one
//! serving stack.
//!
//! ```text
//! perfbench --workload <warm-hit|cold-miss|tier0-churn> --seed <n>
//!           --seconds <s> --trace <0|1> [--repeat <runs>]
//! ```
//!
//! A run sets the workload up several times (reporting the median set-up
//! time), warms up, then drives it from one closed-loop client for
//! `--seconds` and checks every delivered image against the reference
//! interpreter. With `--trace 0` it prints the end-to-end metrics; with
//! `--trace 1` it alternates traced and untraced blocks of the same loop,
//! then probes each layer, and prints the per-layer metrics. The last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. With `--repeat N` it runs itself N times on
//! seeds `seed..seed+N` and prints each metric's median and quartile
//! spread.

mod client;
mod cpu;
mod gen;
mod probe;
mod rec;
mod subject;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use rec::{geomean, host_ref, median, percentile, quartiles, Rec, REF_US};

/// Set-ups before an untraced run's warm-up; `setup_s` is their median.
const SETUPS: usize = 5;
/// Untimed warm-up before measuring: the first second of a process runs
/// slower, and caches and lazy state settle here.
const WARMUP: Duration = Duration::from_millis(1000);
/// Length of each traced and each untraced block in a traced run.
const TRACE_BLOCK: Duration = Duration::from_millis(250);
/// How often the host reference loop is sampled between the measured
/// window's operations.
const HOST_EVERY: Duration = Duration::from_millis(100);
/// Measured cycles after which `peak_rss_mb` is read. The program's
/// resident set grows with the specializations it serves (every one mints
/// fresh names), so a peak read at the end of the window would follow how
/// many operations the host's speed allowed; a fixed count does not.
const RSS_CYCLES: u64 = 400;
/// Fewest samples a read class may have.
const MIN_SAMPLES: usize = 100;
/// The largest share of a class's untraced median read latency that its
/// independently measured per-layer times (medians, summed) may leave
/// unexplained or overshoot.
const RECONCILE_MARGIN: f64 = 0.25;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut repeat = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: `{v}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?.max(1)),
            "--trace" => trace = Some(num(&value)? != 0),
            "--repeat" => repeat = Some(num(&value)? as usize),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        repeat,
    })
}

/// A metric as reported: value and unit.
type Metrics = BTreeMap<String, (f64, &'static str)>;

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(n) = args.repeat {
        return match repeat(&args, n) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if let Some(cpu) = cpu::pin() {
        println!("# pinned to cpu {cpu}");
    }
    let result = two4one::with_stack(move || run(&args));
    match result {
        Ok(out) => {
            let metrics: Vec<String> = out
                .metrics
                .iter()
                .map(|(name, (v, unit))| {
                    format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
                })
                .collect();
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
                out.correct,
                out.attempted,
                out.failed,
                metrics.join(", ")
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    println!("# fingerprint {}", rec::fingerprint());
    println!(
        "# workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    // Before the first set-up: let the process's slow start pass.
    let until = Instant::now() + Duration::from_millis(300);
    while Instant::now() < until {
        host_ref(1);
    }

    // Set-ups run one after another, each shut down before the next, so
    // the peak resident set is one workload's. Each set-up time is
    // brought to the nominal host speed by reference samples taken just
    // before it.
    let mut setups = Vec::new();
    let mut raw_setups = Vec::new();
    let mut w = None;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        if let Some(old) = w.take() {
            workloads::Workload::shutdown(old);
        }
        let scale = REF_US / host_ref(3);
        let t = Instant::now();
        w = Some(workloads::setup(&args.workload, args.seed)?);
        let secs = t.elapsed().as_secs_f64();
        raw_setups.push(secs);
        setups.push(secs * scale);
    }
    let mut w: Box<dyn workloads::Workload> = w.expect("at least one set-up");

    let mut rec = Rec::new(&w.read_classes(), &w.write_classes());
    let until = Instant::now() + WARMUP;
    while Instant::now() < until {
        w.cycle(&mut rec)?;
    }
    if let Some(e) = rec.failures.first() {
        return Err(format!("warm-up failed: {e}"));
    }

    w.begin();
    rec.measuring = true;
    let start = Instant::now();
    rec.start = start;
    let deadline = start + Duration::from_secs(args.seconds);
    let mut next_host = start;
    let mut cycles = 0u64;
    let mut peak_rss = None;
    loop {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        if now >= next_host {
            rec.host.sample(now.duration_since(start).as_secs_f64());
            next_host = now + HOST_EVERY;
        }
        if args.trace {
            let block = now.duration_since(start).as_millis() / TRACE_BLOCK.as_millis();
            rec.tracing = block.is_multiple_of(2);
        }
        w.cycle(&mut rec)?;
        cycles += 1;
        if cycles == RSS_CYCLES {
            peak_rss = Some(rec::peak_rss_mb()?);
        }
    }
    rec.measuring = false;
    let peak_rss = match peak_rss {
        Some(mb) => mb,
        None => {
            println!("# peak_rss_mb read at the end of the window, after {cycles} of {RSS_CYCLES} cycles");
            rec::peak_rss_mb()?
        }
    };
    let counts = w.finish()?;
    let host = rec.host.values();
    println!(
        "# host.ref_us median={:.2} min={:.2} max={:.2} samples={}",
        median(&host),
        host.iter().copied().fold(f64::INFINITY, f64::min),
        host.iter().copied().fold(0.0, f64::max),
        host.len()
    );
    println!("# window {counts:?}");
    println!(
        "# drift {}",
        rec::drift(&rec.classes)
            .iter()
            .map(|d| format!("{d:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    );

    for c in &rec.classes {
        if c.lat.len() < MIN_SAMPLES || (args.trace && c.traced_lat.len() < MIN_SAMPLES) {
            return Err(format!(
                "class {} has {} untraced and {} traced samples; each needs {MIN_SAMPLES}",
                c.name,
                c.lat.len(),
                c.traced_lat.len()
            ));
        }
        if c.exec.is_empty() {
            return Err(format!("class {} has no exec samples", c.name));
        }
        println!(
            "# class {:<14} n={:<6} p50_us={:<10.2} p90_us={:<10.2} exec_n={:<5} exec_us={:<10.2} raw_p50_us={:<10.2} raw_p90_us={:<10.2} raw_exec_us={:.2}",
            c.name,
            c.lat.len(),
            c.lat_p(50.0, &rec.host),
            c.lat_p(90.0, &rec.host),
            c.exec.len(),
            c.exec_p50(&rec.host),
            percentile(&c.lat, 50.0),
            percentile(&c.lat, 90.0),
            percentile(&c.exec, 50.0)
        );
    }
    for c in &rec.writes {
        if !args.trace && c.lat.is_empty() {
            return Err(format!("write class {} has no samples", c.name));
        }
        println!(
            "# write {:<14} n={:<6} p50_us={:<10.2} raw_p50_us={:.2}",
            c.name,
            c.lat.len(),
            c.lat_p(50.0, &rec.host),
            percentile(&c.lat, 50.0)
        );
    }
    for f in rec.failures.iter().take(10) {
        println!("# FAILED {f}");
    }

    let failed = rec.attempted - rec.ok;
    let mut metrics = Metrics::new();
    if args.trace {
        let probed = probe::run(&w.probe_set(), &mut rec.tracer)?;
        traced_metrics(&rec, &counts, probed, &host, &mut metrics)?;
        let path = PathBuf::from(format!(
            "perfbench/out/trace-{}-seed{}.jsonl",
            args.workload, args.seed
        ));
        rec.tracer
            .write(&path, &rec.class_names())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("# spans written to {}", path.display());
    } else {
        let per_class = |f: &dyn Fn(&rec::ClassStats) -> f64| {
            geomean(&rec.classes.iter().map(f).collect::<Vec<_>>())
        };
        let busy = rec.busy.iter().sum::<f64>();
        println!(
            "# raw latency_p50_us={:.2} throughput_rps={:.1} setup_s={:.5} (as measured, not scaled to the nominal host speed)",
            per_class(&|c| percentile(&c.lat, 50.0)),
            rec.ok as f64 / busy,
            median(&raw_setups)
        );
        let mut put = |name: &str, v: f64, unit: &'static str| {
            metrics.insert(name.to_string(), (v, unit));
        };
        put(
            "latency_p50_us",
            per_class(&|c| c.lat_p(50.0, &rec.host)),
            "us",
        );
        put(
            "latency_p90_us",
            per_class(&|c| c.lat_p(90.0, &rec.host)),
            "us",
        );
        put("throughput_rps", rec.ok as f64 / rec.busy_scaled(), "1/s");
        put(
            "write_p50_us",
            geomean(
                &rec.writes
                    .iter()
                    .map(|c| c.lat_p(50.0, &rec.host))
                    .collect::<Vec<_>>(),
            ),
            "us",
        );
        put("exec_us", per_class(&|c| c.exec_p50(&rec.host)), "us");
        put(
            "code_instrs",
            rec.code_sum as f64 / rec.code_n.max(1) as f64,
            "count",
        );
        put(
            "ok_frac",
            rec.ok as f64 / rec.attempted.max(1) as f64,
            "ratio",
        );
        put("peak_rss_mb", peak_rss, "MiB");
        put("setup_s", median(&setups), "s");
        println!(
            "# setup_s samples: {}",
            setups
                .iter()
                .map(|s| format!("{s:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
    w.shutdown();
    if let Some((name, _)) = metrics.iter().find(|(_, (v, _))| !v.is_finite()) {
        return Err(format!("metric {name} is not a finite number"));
    }
    Ok(Outcome {
        correct: failed == 0 && rec.failures.is_empty(),
        attempted: rec.attempted,
        failed,
        metrics,
    })
}

/// The traced run's metrics: loop-derived ones (class figures, tracing
/// cost, reconciliation, window ratios) plus the probe's layer figures.
fn traced_metrics(
    rec: &Rec,
    counts: &workloads::Counts,
    probed: BTreeMap<&'static str, f64>,
    host: &[f64],
    metrics: &mut Metrics,
) -> Result<(), String> {
    let mut overhead = Vec::new();
    let mut worst: f64 = 0.0;
    for c in &rec.classes {
        let untraced = percentile(&c.lat, 50.0);
        let traced = percentile(&c.traced_lat, 50.0);
        overhead.push(traced / untraced);
        let parts: Vec<String> = c
            .layers
            .iter()
            .map(|(name, v)| format!("{name}={:.2}", median(v)))
            .collect();
        // The layers are measured apart from the read they explain, so
        // their sum can miss or double-count time; the gap is the error.
        let sum: f64 = c.layers.values().map(|v| median(v)).sum();
        let err = (untraced - sum).abs() / untraced;
        worst = worst.max(err);
        println!(
            "# reconcile {:<14} untraced_p50_us={untraced:.2} traced_p50_us={traced:.2} layers_sum_us={sum:.2} unexplained={:.3} [{}]",
            c.name,
            (untraced - sum) / untraced,
            parts.join(" ")
        );
    }
    if worst > RECONCILE_MARGIN {
        return Err(format!(
            "per-layer times of some class differ from its untraced median by {worst:.3}, beyond the margin {RECONCILE_MARGIN}"
        ));
    }
    let mut put = |name: &str, v: f64, unit: &'static str| {
        metrics.insert(name.to_string(), (v, unit));
    };
    put("trace.overhead_frac", geomean(&overhead) - 1.0, "ratio");
    put("reconcile.max_err_frac", worst, "ratio");
    put("host.ref_us", median(host), "us");
    let reads = counts.reads.max(1) as f64;
    put(
        "server.hit_ratio",
        counts.hits as f64 / (counts.hits + counts.misses).max(1) as f64,
        "ratio",
    );
    put(
        "server.spec_runs_per_read",
        counts.spec_runs as f64 / reads,
        "count",
    );
    put(
        "server.invalidated_per_write",
        counts.invalidated as f64 / counts.writes.max(1) as f64,
        "count",
    );
    for (name, v) in probed {
        let unit = match name.rsplit_once('_').map(|(_, u)| u) {
            Some("us") => "us",
            Some("ms") => "ms",
            Some("frac") => "ratio",
            _ => "count",
        };
        put(name, v, unit);
    }
    Ok(())
}

/// Runs this benchmark `n` times on consecutive seeds and prints each
/// metric's median and quartile spread ((q3 - q1) / median).
fn repeat(args: &Args, n: usize) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for i in 0..n {
        let seed = args.seed + i as u64;
        let out = Command::new(&exe)
            .args([
                "--workload",
                &args.workload,
                "--seed",
                &seed.to_string(),
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .output()
            .map_err(|e| format!("spawning run {i}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or("");
        if !out.status.success() || !last.contains("\"correct\": true") {
            return Err(format!(
                "run with seed {seed} failed ({}): {}{}",
                out.status,
                last,
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        let mut row = Vec::new();
        for (name, v) in parse_metrics(last)
            .into_iter()
            .chain(stdout.lines().flat_map(parse_report_row))
        {
            row.push(format!("{name}={v:.4}"));
            values.entry(name).or_default().push(v);
        }
        eprintln!("run {}/{n} seed {seed}: {}", i + 1, row.join(" "));
    }
    println!(
        "{:<30} {:>14} {:>14} {:>14} {:>8}",
        "metric", "median", "q1", "q3", "spread"
    );
    for (name, v) in &values {
        let (q1, q2, q3) = quartiles(v);
        println!(
            "{name:<30} {q2:>14.4} {q1:>14.4} {q3:>14.4} {:>8.4}",
            (q3 - q1) / q2
        );
    }
    Ok(())
}

/// Reads a `# class` report row into `class.<name>.<figure>` values, and
/// the host reference row into `host.ref_us`.
fn parse_report_row(line: &str) -> Vec<(String, f64)> {
    if let Some(row) = line.strip_prefix("# host.ref_us median=") {
        let v = row.split_whitespace().next().and_then(|v| v.parse().ok());
        return v
            .map(|v| ("host.ref_us".to_string(), v))
            .into_iter()
            .collect();
    }
    let Some(row) = line.strip_prefix("# class ") else {
        return Vec::new();
    };
    let mut fields = row.split_whitespace();
    let class = fields.next().unwrap_or("?");
    fields
        .filter_map(|f| f.split_once('='))
        .filter(|(k, _)| k.ends_with("_us"))
        .filter_map(|(k, v)| Some((format!("class.{class}.{k}"), v.parse().ok()?)))
        .collect()
}

/// Reads `"name": {"value": v, ...}` pairs from a result line.
fn parse_metrics(line: &str) -> Vec<(String, f64)> {
    let Some(body) = line.split_once("\"metrics\": {").map(|(_, b)| b) else {
        return Vec::new();
    };
    body.split("}, ")
        .filter_map(|item| {
            let (name, rest) = item
                .trim_start_matches('"')
                .split_once("\": {\"value\": ")?;
            let value = rest.split(',').next()?.trim().parse().ok()?;
            Some((name.to_string(), value))
        })
        .collect()
}
