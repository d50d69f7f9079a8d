//! `perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <tile512|suite128|chip64|serve-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each workload drives the public entry
//! points of `eval`, `chip` or `serve`, checks every output against a
//! reference, and prints one `metric <name> <value> <unit>` line per
//! metric, an `env` record, and — as the last line — a JSON result.
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the same work untraced and traced and prints the
//! per-layer ledger. `--bless` rewrites the workload's reference under
//! `perfbench/ref/` from the current code. See `perfbench/BENCHMARK.md`.

mod chip_flow;
mod eval_flow;
mod ledger;
mod serve_flow;
mod stats;

use stats::UnitStatus;
use std::fmt::Write as _;
use std::time::Instant;

/// CircleOpt quality of one unit, in the paper's four metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Quality {
    /// Squared L2 of the nominal print vs the target, nm².
    pub l2: f64,
    /// Process-variation band, nm².
    pub pvb: f64,
    /// EPE violations.
    pub epe: f64,
    /// Circular shots.
    pub shots: f64,
}

/// One finished unit of work: a case, a chip or a job.
#[derive(Debug, Clone)]
pub struct Unit {
    /// Target pixels the unit finished (N² for a tile, the chip raster
    /// for a chip).
    pub px: f64,
    /// Wall time of the unit (for jobs: submit → `result`).
    pub wall_s: f64,
    /// CircleOpt quality.
    pub opt: Quality,
    /// MultiILT + CircleRule quality, where the flow runs it.
    pub rule: Option<Quality>,
    /// Process-window fraction, where the flow measures it.
    pub window: Option<f64>,
    /// How the unit ended.
    pub status: UnitStatus,
}

/// One pass over a workload's inputs.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Wall time of the whole pass.
    pub wall_s: f64,
    /// Every unit attempted, in input order.
    pub units: Vec<Unit>,
    /// The pass's deterministic output (timing stripped); two passes
    /// over the same inputs must agree byte for byte.
    pub body: String,
    /// Correctness findings (reference drift, errors).
    pub problems: Vec<String>,
    /// Client-side observations of the serve workload.
    pub serve: Option<serve_flow::ServeObservations>,
}

/// A workload: repeatable set-up plus passes over seeded inputs.
pub trait Flow {
    /// Builds the workload's simulators and targets (timed, repeated).
    fn setup(&mut self) -> Result<(), String>;
    /// One pass of the workload.
    fn pass(&mut self) -> Result<Pass, String>;
    /// One pass with `seconds` of wall time left: a workload whose
    /// passes are open-ended fills the time, the others ignore it.
    fn sized_pass(&mut self, _seconds: f64) -> Result<Pass, String> {
        self.pass()
    }
    /// A pass doing exactly the work `like` did (for the traced run).
    fn repeat(&mut self, _like: &Pass) -> Result<Pass, String> {
        self.pass()
    }
    /// Correctness checks run once per invocation, outside timing.
    fn extra_checks(&mut self) -> Vec<(String, UnitStatus)> {
        Vec::new()
    }
    /// The per-layer ledger of a traced pass (after tracing is off).
    fn ledger(&mut self, traced: &Pass, trace: &ledger::Trace) -> ledger::Ledger;
    /// The reference file this workload's outputs are checked against,
    /// written by `--bless`.
    fn bless(&self, pass: &Pass) -> Option<(String, String)>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
}

const WORKLOADS: [&str; 4] = ["tile512", "suite128", "chip64", "serve-mix"];

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        bless: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                }
            }
            "--bless" => args.bless = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Set-up is timed in windows spread over the run: one of at least
/// [`SETUP_REPEATS`] set-ups and [`SETUP_FIRST_SECONDS`] before the
/// first pass, and one of at least [`SETUP_SHARE`] of each pass's wall
/// time after it. `setup_s` is the median of every sample. The host's
/// speed drifts over seconds, and a set-up of a few milliseconds feels
/// that more than the long passes do; windows spread like this see the
/// same mix of fast and slow stretches as the timings beside them.
const SETUP_REPEATS: usize = 9;
const SETUP_FIRST_SECONDS: f64 = 0.5;
const SETUP_SHARE: f64 = 0.05;

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Pin the pool to the machine before anything touches it.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::set_var("CFAOPC_THREADS", nproc.to_string());

    match run(&args, nproc) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn make_flow(args: &Args) -> Result<Box<dyn Flow>, String> {
    Ok(match args.workload.as_str() {
        "tile512" => Box::new(eval_flow::EvalFlow::tile512()?),
        "suite128" => Box::new(eval_flow::EvalFlow::suite128()?),
        "chip64" => Box::new(chip_flow::ChipFlow::new()?),
        "serve-mix" => Box::new(serve_flow::ServeFlow::new(args.seed)),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// Times set-ups until there are `repeats` of them and `seconds` have
/// passed, adding each sample to `setups`.
fn set_up(
    flow: &mut dyn Flow,
    repeats: usize,
    seconds: f64,
    setups: &mut Vec<f64>,
) -> Result<(), String> {
    let started = Instant::now();
    let mut done = 0;
    while done < repeats || started.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        flow.setup()?;
        setups.push(t.elapsed().as_secs_f64());
        done += 1;
    }
    Ok(())
}

/// Passes until they have spent `seconds` of wall time (at least one),
/// each followed by a set-up window. The windows do not count against
/// `seconds`, so they never change how many passes a run makes.
fn timed(flow: &mut dyn Flow, seconds: f64, setups: &mut Vec<f64>) -> Result<Vec<Pass>, String> {
    let mut spent = 0.0;
    let mut passes = Vec::new();
    loop {
        let pass = flow.sized_pass(seconds - spent)?;
        set_up(flow, 1, SETUP_SHARE * pass.wall_s, setups)?;
        spent += pass.wall_s;
        passes.push(pass);
        if spent >= seconds {
            return Ok(passes);
        }
    }
}

/// Runs one invocation; `Ok(true)` when every check passed.
fn run(args: &Args, nproc: usize) -> Result<bool, String> {
    let mut flow = make_flow(args)?;

    let mut setups = Vec::new();
    set_up(
        flow.as_mut(),
        SETUP_REPEATS,
        SETUP_FIRST_SECONDS,
        &mut setups,
    )?;

    let (passes, layer) = if args.trace {
        // Untraced, traced, untraced again: the first pass also warms
        // the process, so the overhead compares the last two.
        let first = flow.sized_pass(args.seconds)?;
        cfaopc_trace::reset();
        cfaopc_trace::set_enabled(true);
        let traced = flow.repeat(&first);
        cfaopc_trace::set_enabled(false);
        let traced = traced?;
        let trace = ledger::Trace::snapshot();
        cfaopc_trace::reset();
        let untraced = flow.repeat(&first)?;
        let mut ledger = flow.ledger(&traced, &trace);
        ledger.finish(&traced, &untraced, stats::median(&setups).unwrap_or(0.0));
        (vec![first, traced, untraced], Some(ledger))
    } else {
        (timed(flow.as_mut(), args.seconds, &mut setups)?, None)
    };
    let setup_s = stats::median(&setups).unwrap_or(0.0);

    let mut problems: Vec<String> = Vec::new();
    let mut statuses: Vec<UnitStatus> = Vec::new();
    for (i, pass) in passes.iter().enumerate() {
        problems.extend(pass.problems.iter().cloned());
        statuses.extend(pass.units.iter().map(|u| u.status));
        if pass.body != passes[0].body {
            problems.push(format!(
                "pass {i} output differs from pass 0 (determinism contract)"
            ));
        }
    }
    for (problem, status) in flow.extra_checks() {
        if status != UnitStatus::Ok {
            problems.push(problem);
        }
        statuses.push(status);
    }
    let (attempted, failed) = stats::count_failed(&statuses);

    if args.bless {
        match flow.bless(&passes[0]) {
            // Reference drift is what blessing replaces; errors are not.
            Some((path, text))
                if passes[0]
                    .problems
                    .iter()
                    .all(|p| p.starts_with("reference")) =>
            {
                std::fs::write(&path, text).map_err(|e| format!("{path}: {e}"))?;
                eprintln!("perfbench: wrote {path}");
            }
            Some(_) => return Err("not blessing a pass that failed".into()),
            None => return Err(format!("{} has no reference to bless", args.workload)),
        }
    }

    let units: Vec<&Unit> = passes.iter().flat_map(|p| p.units.iter()).collect();
    let env = env_record(args, nproc);
    let metrics = match &layer {
        Some(ledger) => ledger.rows.clone(),
        None => end_to_end(&passes, &units, setup_s),
    };
    let failed_frac = stats::failed_frac(&statuses);
    let correct =
        problems.is_empty() && failed == 0 && metrics.iter().all(|(_, v, _)| v.is_finite());

    let mut out = String::new();
    let _ = writeln!(
        out,
        "perfbench {} seed={} trace={} passes={} units={}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        passes.len(),
        units.len()
    );
    let _ = writeln!(out, "env {env}");
    let walls: Vec<String> = passes.iter().map(|p| format!("{:.3}", p.wall_s)).collect();
    let _ = writeln!(out, "pass_wall_s {}", walls.join(" "));
    problems.sort();
    problems.dedup();
    for p in &problems {
        let _ = writeln!(out, "problem {p}");
    }
    for (name, value, unit) in &metrics {
        let _ = writeln!(out, "metric {name} {value} {unit}");
    }
    if !args.trace {
        for (name, value, unit) in path_quality(&units) {
            let _ = writeln!(out, "quality {name} {value} {unit}");
        }
        let _ = writeln!(out, "quality failed_frac {failed_frac} fraction");
        if let Some(t) = stats::tail(&units.iter().map(|u| u.wall_s).collect::<Vec<_>>()) {
            let _ = writeln!(
                out,
                "tail unit_s_p90 is p{:.1} of {} samples, {} beyond",
                t.percentile, t.samples, t.beyond
            );
        }
    } else if let Some(ledger) = &layer {
        for (name, value, unit) in &ledger.workload_rows {
            let _ = writeln!(out, "layer {name} {value} {unit}");
        }
        for line in &ledger.notes {
            let _ = writeln!(out, "ledger {line}");
        }
    }
    let result = result_json(correct, attempted, failed, &metrics);
    write_record(args, &env, &result);
    print!("{out}");
    println!("{result}");
    Ok(correct)
}

/// The end-to-end metrics of the timed passes, in `BENCHMARK.json` order.
fn end_to_end(passes: &[Pass], units: &[&Unit], setup_s: f64) -> Vec<(String, f64, &'static str)> {
    // Throughput is the median over passes, so one pass caught by a
    // noisy neighbour does not move it.
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| p.units.iter().map(|u| u.px).sum::<f64>() / 1e6 / p.wall_s)
        .collect();
    let walls: Vec<f64> = units.iter().map(|u| u.wall_s).collect();
    let mean = |f: fn(&Quality) -> f64| {
        units.iter().map(|u| f(&u.opt)).sum::<f64>() / units.len().max(1) as f64
    };
    vec![
        ("setup_s".into(), setup_s, "s"),
        (
            "mpx_per_s".into(),
            stats::median(&rates).unwrap_or(f64::NAN),
            "Mpx/s",
        ),
        (
            "unit_s_p50".into(),
            stats::median(&walls).unwrap_or(f64::NAN),
            "s",
        ),
        (
            "unit_s_p90".into(),
            stats::tail(&walls).map_or(f64::NAN, |t| t.value),
            "s",
        ),
        ("l2_nm2".into(), mean(|q| q.l2), "nm2"),
        ("pvb_nm2".into(), mean(|q| q.pvb), "nm2"),
        ("epe".into(), mean(|q| q.epe), "count"),
        ("shots".into(), mean(|q| q.shots), "count"),
        ("peak_rss_mb".into(), peak_rss_mb(), "MiB"),
    ]
}

/// Quality of the paths only some flows run (rule baseline, process
/// window); printed, and guarded by the reference checks.
fn path_quality(units: &[&Unit]) -> Vec<(String, f64, &'static str)> {
    let mut out = Vec::new();
    let rules: Vec<Quality> = units.iter().filter_map(|u| u.rule).collect();
    if !rules.is_empty() {
        let n = rules.len() as f64;
        out.push((
            "rule_l2_nm2".into(),
            rules.iter().map(|q| q.l2).sum::<f64>() / n,
            "nm2",
        ));
        out.push((
            "rule_shots".into(),
            rules.iter().map(|q| q.shots).sum::<f64>() / n,
            "count",
        ));
    }
    let windows: Vec<f64> = units.iter().filter_map(|u| u.window).collect();
    if !windows.is_empty() {
        let n = windows.len() as f64;
        out.push((
            "window_frac".into(),
            windows.iter().sum::<f64>() / n,
            "fraction",
        ));
    }
    out
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn json_str(s: &str) -> String {
    cfaopc_eval::Json::Str(s.to_string()).to_string_compact()
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn env_record(args: &Args, nproc: usize) -> String {
    format!(
        "{{\"workload\":{},\"seed\":{},\"trace\":{},\"seconds\":{},\"workers\":{},\"nproc\":{},\
         \"cfaopc_threads\":{},\"avx2\":{},\"git_rev\":{}}}",
        json_str(&args.workload),
        args.seed,
        u8::from(args.trace),
        json_num(args.seconds),
        cfaopc_fft::parallel::worker_count(),
        nproc,
        json_str(&std::env::var("CFAOPC_THREADS").unwrap_or_default()),
        cfaopc_fft::simd::avx2_available(),
        json_str(&git_rev()),
    )
}

/// The checkout's commit, read from `.git` without running git; the
/// benchmark also runs in exported trees, which record `unknown`.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
        None => head,
    }
}

fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

/// Keeps the environment record beside the result, outside the metric
/// values, under `.perfbench/` in the working directory.
fn write_record(args: &Args, env: &str, result: &str) {
    let dir = std::path::Path::new(".perfbench");
    let name = format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let text = format!("{{\"env\":{env},\"result\":{result}}}\n");
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(dir.join(name), text))
    {
        eprintln!("perfbench: could not write the run record: {e}");
    }
}
