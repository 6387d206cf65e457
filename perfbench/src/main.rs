//! Host-time benchmark of the dataflow-pim simulator.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--threads <n>]
//! perfbench --workload <name> --record <first>-<last>
//! ```
//!
//! An untraced run (`--trace 0`) measures the end-to-end metrics; a
//! traced run (`--trace 1`) records spans around calls into each layer
//! and reports the per-layer metrics. Either run checks every output
//! against the reference digests in `reference.txt` and prints, as its
//! last line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `--record` prints reference lines for a range of seeds.

mod digest;
mod replay;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use digest::References;
use trace::Tracer;
use workloads::{run_pass, setup, PassResult, Workload, SCENARIO_THREADS};

/// Set-up repetitions a run makes at least, for a steady median.
const MIN_SETUPS: usize = 5;
/// Set-up time a run accumulates at least, unless it hits [`MAX_SETUPS`].
const MIN_SETUP_SECS: f64 = 0.2;
/// Upper bound on set-up repetitions.
const MAX_SETUPS: usize = 2000;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
    record: Option<(u64, u64)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut threads = SCENARIO_THREADS;
    let mut record = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--threads" => {
                threads = value()?.parse().map_err(|e| format!("--threads: {e}"))?;
                if threads == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
            }
            "--record" => {
                let v = value()?;
                let (a, b) = v.split_once('-').ok_or("--record takes <first>-<last>")?;
                let a = a.parse().map_err(|e| format!("--record: {e}"))?;
                let b = b.parse().map_err(|e| format!("--record: {e}"))?;
                record = Some((a, b));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        threads,
        record,
    })
}

/// Peak resident set of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Correctness bookkeeping over every operation of a run.
#[derive(Debug)]
struct Checker {
    refs: References,
    /// First digest seen per operation: later passes must repeat it.
    seen: BTreeMap<String, u64>,
    attempted: u64,
    failed: u64,
    referenced: u64,
    messages: Vec<String>,
}

impl Checker {
    fn new(workload: Workload, seed: u64) -> Checker {
        Checker {
            refs: References::load(workload.name(), seed),
            seen: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            referenced: 0,
            messages: Vec::new(),
        }
    }

    fn check(&mut self, pass: &PassResult) {
        for op in &pass.ops {
            self.attempted += 1;
            let mut problems = op.violations.clone();
            match &op.digest {
                Err(e) => problems.push(e.clone()),
                Ok(d) => {
                    if let Some(r) = self.refs.get(&op.key) {
                        self.referenced += 1;
                        if r != *d {
                            problems.push(format!("digest {d:016x} != reference {r:016x}"));
                        }
                    }
                    let first = *self.seen.entry(op.key.clone()).or_insert(*d);
                    if first != *d {
                        problems.push(format!("digest {d:016x} != earlier pass {first:016x}"));
                    }
                }
            }
            if !problems.is_empty() {
                self.failed += 1;
                self.messages
                    .push(format!("{}: {}", op.key, problems.join("; ")));
            }
        }
    }
}

/// Metric name -> (value, unit), printed in insertion order.
type Metrics = Vec<(String, f64, &'static str)>;

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// What the timed phase of a run produced.
#[derive(Debug)]
struct Measured {
    /// Set-up times, seconds.
    setups: Vec<f64>,
    /// Untraced passes.
    plain: Vec<PassResult>,
    /// Traced passes.
    traced: Vec<PassResult>,
}

/// Sets up and runs passes until `seconds` of passes have elapsed,
/// alternating with traced passes when a tracer is given.
fn measure(
    args: &Args,
    tracer: Option<&Tracer>,
    checker: &mut Checker,
) -> Result<Measured, String> {
    let mut setups = Vec::new();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    while start.elapsed() < budget || plain.is_empty() || (tracer.is_some() && traced.is_empty()) {
        let t0 = Instant::now();
        let pass = setup(args.workload, args.seed, setups.len(), args.threads)?;
        setups.push(t0.elapsed().as_secs_f64());
        let use_tracer = tracer.filter(|_| traced.len() < plain.len());
        let result = run_pass(pass, use_tracer);
        checker.check(&result);
        if use_tracer.is_some() {
            traced.push(result);
        } else {
            plain.push(result);
        }
    }
    // Cheap set-ups repeat until their median is steady.
    while setups.len() < MIN_SETUPS
        || (setups.iter().sum::<f64>() < MIN_SETUP_SECS && setups.len() < MAX_SETUPS)
    {
        let t0 = Instant::now();
        drop(setup(args.workload, args.seed, setups.len(), args.threads)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    Ok(Measured {
        setups,
        plain,
        traced,
    })
}

fn end_to_end(setups: &[f64], passes: &[PassResult]) -> Result<Metrics, String> {
    let walls: Vec<f64> = passes.iter().map(|p| p.secs).collect();
    let busy: f64 = walls.iter().sum();
    // A cell is one scenario run, the unit a client waits for: a
    // design-space cell, the whole `all` scenario, or a serving sweep.
    // Its host time is its median over the run's passes, so the
    // percentiles rank cells, not pass-to-pass jitter.
    let mut per_cell: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for pass in passes {
        let mut ms: BTreeMap<&str, f64> = BTreeMap::new();
        for op in &pass.ops {
            *ms.entry(&op.scenario).or_insert(0.0) += op.secs * 1e3;
        }
        for (cell, v) in ms {
            per_cell.entry(cell).or_default().push(v);
        }
    }
    let runs: usize = per_cell.values().map(Vec::len).sum();
    let mut cell_ms: Vec<f64> = per_cell.values().map(|v| stats::median(v)).collect();
    cell_ms.sort_by(f64::total_cmp);
    let requests: f64 = passes
        .iter()
        .flat_map(|p| p.ops.iter().map(|o| o.sim_requests))
        .sum();
    let n = cell_ms.len();
    println!(
        "{runs} cell runs in {} passes; {n} distinct cells; tail percentile with >= {} \
         beyond: {}",
        passes.len(),
        stats::MIN_BEYOND,
        stats::tail_percentile(n).map_or("none".to_string(), |p| format!("p{p}")),
    );
    Ok(vec![
        ("setup_s".to_string(), stats::median(setups), "s"),
        ("wall_s".to_string(), stats::median(&walls), "s"),
        ("cells_per_s".to_string(), runs as f64 / busy, "1/s"),
        (
            "cell_p50_ms".to_string(),
            stats::percentile(&cell_ms, 50.0),
            "ms",
        ),
        (
            "cell_p90_ms".to_string(),
            stats::percentile(&cell_ms, 90.0),
            "ms",
        ),
        ("sim_requests_per_s".to_string(), requests / busy, "1/s"),
        ("peak_rss_mb".to_string(), peak_rss_mb()?, "MB"),
    ])
}

fn record(args: &Args, first: u64, last: u64) -> Result<(), String> {
    let mut per_seed: Vec<(u64, BTreeMap<String, u64>)> = Vec::new();
    for seed in first..=last {
        let pass = setup(args.workload, seed, 0, args.threads)?;
        let mut digests = BTreeMap::new();
        for op in run_pass(pass, None).ops {
            let d = op
                .digest
                .map_err(|e| format!("seed {seed} {}: {e}", op.key))?;
            if let Some(v) = op.violations.first() {
                return Err(format!("seed {seed} {}: {v}", op.key));
            }
            digests.insert(op.key, d);
        }
        per_seed.push((seed, digests));
    }
    let name = args.workload.name();
    let (_, base) = &per_seed[0];
    for (key, d) in base {
        if per_seed.iter().all(|(_, m)| m.get(key) == Some(d)) && per_seed.len() > 2 {
            println!("{name} * {key} {d:016x}");
        } else {
            for (seed, m) in &per_seed {
                println!("{name} {seed} {key} {:016x}", m[key]);
            }
        }
    }
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    if let Some((first, last)) = args.record {
        return record(args, first, last);
    }
    let mut checker = Checker::new(args.workload, args.seed);
    let tracer = args.trace.then(Tracer::default);
    let Measured {
        setups,
        plain,
        traced,
    } = measure(args, tracer.as_ref(), &mut checker)?;
    let metrics = if let Some(t) = &tracer {
        let untraced = stats::median(&plain.iter().map(|p| p.secs).collect::<Vec<_>>());
        let traced_wall = stats::median(&traced.iter().map(|p| p.secs).collect::<Vec<_>>());
        let mut m = replay::per_layer(args, t, &traced, &mut checker)?;
        m.push((
            "trace.overhead_ratio".to_string(),
            traced_wall / untraced,
            "ratio",
        ));
        let path = format!(
            ".bench_trace/{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        );
        std::fs::create_dir_all(".bench_trace").map_err(|e| e.to_string())?;
        std::fs::write(&path, trace::to_json_lines(&t.spans())).map_err(|e| e.to_string())?;
        println!("spans written to {path}");
        m
    } else {
        end_to_end(&setups, &plain)?
    };
    for msg in &checker.messages {
        println!("FAILED {msg}");
    }
    let error_rate = checker.failed as f64 / checker.attempted as f64;
    println!(
        "workload {} seed {}: {} operations, {} failed (error_rate {error_rate}), {} checked \
         against {} reference digests",
        args.workload.name(),
        args.seed,
        checker.attempted,
        checker.failed,
        checker.referenced,
        checker.refs.len(),
    );
    for (name, value, unit) in &metrics {
        println!("{name:<32} {value:>16.6} {unit}");
    }
    println!(
        "{}",
        result_line(
            checker.failed == 0,
            checker.attempted,
            checker.failed,
            &metrics
        )
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| run(&args));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
