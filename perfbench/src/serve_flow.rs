//! `serve-mix`: an in-process daemon (`Server::spawn`, default config)
//! and one client connection keeping [`IN_FLIGHT`] jobs in flight, a
//! closed loop. Jobs come in periods of [`PERIOD`]: a fixed multiset of
//! (benchmark case, grid) pairs — one job in four at 256², the rest at
//! 128² — whose order and streaming flags the seed shuffles per period.
//! Passes end on a period boundary, so every pass scores the same
//! multiset and the quality means do not depend on the seed.

use crate::ledger::{ratio, time_ms, Ledger, Trace};
use crate::stats::{self, UnitStatus};
use crate::{Flow, Pass, Quality, Unit};
use cfaopc_eval::{Json, Tolerance};
use cfaopc_fft::parallel::{with_worker_limit, worker_count, worker_shares};
use cfaopc_layouts::benchmark_case;
use cfaopc_litho::{LithoConfig, LithoSimulator};
use cfaopc_metrics::{evaluate_mask, EpeConfig};
use cfaopc_serve::{ServeConfig, Server, ServerHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Jobs the client keeps submitted but unfinished.
pub const IN_FLIGHT: usize = 4;
/// Jobs per period.
pub const PERIOD: usize = 8;
/// The period's `(case, size)` multiset, as two quarters-at-256² halves.
/// Each half is shuffled on its own, so every four jobs hold one 256² job
/// and the load the queue sees depends less on the seed.
const MIX: [(usize, usize); PERIOD] = [
    (1, 256),
    (2, 128),
    (3, 128),
    (4, 128),
    (6, 256),
    (5, 128),
    (7, 128),
    (8, 128),
];
/// Jobs per period that stream `iter` telemetry.
const STREAMED: usize = PERIOD / 2;
const REFERENCE: &str = "perfbench/ref/serve-mix.json";

/// What the client saw besides the results.
#[derive(Debug, Clone, Default)]
pub struct ServeObservations {
    /// Submit → `ack`, ms, every job.
    pub ack_ms: Vec<f64>,
    /// `ack` → first `iter` line, ms, streamed jobs.
    pub queue_wait_ms: Vec<f64>,
    /// `iter` lines per streamed job.
    pub stream_lines: Vec<f64>,
    /// Simulators the daemon built during the pass.
    pub cache_misses: usize,
    /// Whole periods the pass ran.
    pub periods: usize,
}

struct Daemon {
    handle: ServerHandle,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Daemon {
    fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("serve socket: {e}"))
    }

    fn recv(&mut self) -> Result<Json, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("serve socket closed".into()),
            Ok(_) => Json::parse(line.trim()).map_err(|e| format!("serve line {line:?}: {e}")),
            Err(e) => Err(format!("serve socket: {e}")),
        }
    }

    /// Sends `line` and waits for the reply of `kind`.
    fn request(&mut self, line: &str, kind: &str) -> Result<Json, String> {
        self.send(line)?;
        loop {
            let reply = self.recv()?;
            if reply.get("kind").and_then(Json::as_str) == Some(kind) {
                return Ok(reply);
            }
            if reply.get("kind").and_then(Json::as_str) == Some("error") {
                return Err(format!("serve error: {}", reply.to_string_compact()));
            }
        }
    }

    fn cached_sims(&mut self) -> Result<usize, String> {
        self.request(r#"{"cmd":"status"}"#, "status")?
            .get("cached_sims")
            .and_then(Json::as_usize)
            .ok_or_else(|| "status without cached_sims".to_string())
    }

    fn shutdown(mut self) -> Result<(), String> {
        self.request(r#"{"cmd":"shutdown"}"#, "shutting_down")?;
        drop(self.writer);
        drop(self.reader);
        self.handle.join().map_err(|e| format!("serve join: {e}"))
    }
}

/// The serve workload.
pub struct ServeFlow {
    seed: u64,
    daemon: Option<Daemon>,
    reference: Result<HashMap<(usize, usize), Quality>, String>,
    next_id: usize,
}

impl ServeFlow {
    /// A serve workload whose job order follows `seed`.
    pub fn new(seed: u64) -> ServeFlow {
        ServeFlow {
            seed,
            daemon: None,
            reference: load_reference(),
            next_id: 0,
        }
    }

    /// Period `p`'s jobs in submission order: `(case, size, stream)`.
    fn period(&self, p: usize) -> Vec<(usize, usize, bool)> {
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ (p as u64).wrapping_mul(0xA24B_AED4_963E_E407));
        let mut order = MIX;
        let mut stream = [false; PERIOD];
        stream[..STREAMED].iter_mut().for_each(|s| *s = true);
        // Fisher–Yates within each half, then over the streaming flags.
        for half in order.chunks_mut(PERIOD / 2) {
            for i in (1..half.len()).rev() {
                half.swap(i, rng.gen_range(0..=i));
            }
        }
        for i in (1..PERIOD).rev() {
            stream.swap(i, rng.gen_range(0..=i));
        }
        order
            .iter()
            .zip(stream)
            .map(|(&(case, size), s)| (case, size, s))
            .collect()
    }

    /// Runs whole periods: `periods` of them, or as many as start
    /// within `seconds`.
    fn run_mix(&mut self, seconds: f64, periods: Option<usize>) -> Result<Pass, String> {
        let mut daemon = self.daemon.take().ok_or("setup runs before any pass")?;
        let result = self.drive(&mut daemon, seconds, periods);
        self.daemon = Some(daemon);
        result
    }

    fn drive(
        &mut self,
        daemon: &mut Daemon,
        seconds: f64,
        periods: Option<usize>,
    ) -> Result<Pass, String> {
        struct Job {
            index: usize,
            case: usize,
            size: usize,
            stream: bool,
            submitted: Instant,
            acked: Option<Instant>,
            first_iter: Option<Instant>,
            lines: usize,
        }
        let sims_before = daemon.cached_sims()?;
        let start = Instant::now();
        let may_submit = |k: usize| match periods {
            Some(n) => k < n * PERIOD,
            None => !k.is_multiple_of(PERIOD) || start.elapsed().as_secs_f64() < seconds,
        };
        let mut order: Vec<(usize, usize, bool)> = Vec::new();
        let mut in_flight: HashMap<String, Job> = HashMap::new();
        let mut finished: Vec<(usize, Unit, String)> = Vec::new();
        let mut obs = ServeObservations::default();
        let mut problems = Vec::new();
        let mut next = 0usize;
        loop {
            while in_flight.len() < IN_FLIGHT && may_submit(next) {
                if next.is_multiple_of(PERIOD) {
                    order.extend(self.period(next / PERIOD));
                }
                let (case, size, stream) = order[next];
                let id = format!("j{}", self.next_id);
                self.next_id += 1;
                let submitted = Instant::now();
                daemon.send(&format!(
                    r#"{{"cmd":"submit","id":"{id}","case":{case},"size":{size},"stream":{stream}}}"#
                ))?;
                in_flight.insert(
                    id,
                    Job {
                        index: next,
                        case,
                        size,
                        stream,
                        submitted,
                        acked: None,
                        first_iter: None,
                        lines: 0,
                    },
                );
                next += 1;
            }
            if in_flight.is_empty() {
                break;
            }
            let line = daemon.recv()?;
            let now = Instant::now();
            if let Some(id) = line.get("job").and_then(Json::as_str) {
                if let Some(job) = in_flight.get_mut(id) {
                    job.first_iter.get_or_insert(now);
                    job.lines += 1;
                }
                continue;
            }
            let kind = line.get("kind").and_then(Json::as_str).unwrap_or("");
            let Some(id) = line.get("id").and_then(Json::as_str) else {
                problems.push(format!(
                    "error: unexpected line {}",
                    line.to_string_compact()
                ));
                continue;
            };
            if kind == "ack" {
                if let Some(job) = in_flight.get_mut(id) {
                    job.acked = Some(now);
                    obs.ack_ms.push((now - job.submitted).as_secs_f64() * 1e3);
                }
                continue;
            }
            let Some(job) = in_flight.remove(id) else {
                problems.push(format!("error: line for unknown job {id}"));
                continue;
            };
            let mut unit = Unit {
                px: (job.size * job.size) as f64,
                wall_s: (now - job.submitted).as_secs_f64(),
                opt: Quality::default(),
                rule: None,
                window: None,
                status: UnitStatus::Ok,
            };
            let mut body = String::new();
            match kind {
                "result" => {
                    let num = |k: &str| line.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
                    unit.opt = Quality {
                        l2: num("l2"),
                        pvb: num("pvb"),
                        epe: num("epe"),
                        shots: num("shots"),
                    };
                    body = format!(
                        "case{}@{} l2 {} pvb {} epe {} shots {} iterations {}",
                        job.case,
                        job.size,
                        unit.opt.l2,
                        unit.opt.pvb,
                        unit.opt.epe,
                        unit.opt.shots,
                        num("iterations")
                    );
                    if let Some(problem) = self.check(job.case, job.size, &unit.opt) {
                        problems.push(problem);
                        unit.status = UnitStatus::CheckFailed;
                    }
                    if job.stream {
                        obs.stream_lines.push(job.lines as f64);
                        if let (Some(a), Some(f)) = (job.acked, job.first_iter) {
                            obs.queue_wait_ms.push((f - a).as_secs_f64() * 1e3);
                        }
                    }
                }
                "rejected" => unit.status = UnitStatus::Rejected,
                "cancelled" => unit.status = UnitStatus::Cancelled,
                _ => unit.status = UnitStatus::Errored,
            }
            if unit.status != UnitStatus::Ok && unit.status != UnitStatus::CheckFailed {
                problems.push(format!("error: job {id}: {}", line.to_string_compact()));
            }
            finished.push((job.index, unit, body));
        }
        let wall_s = start.elapsed().as_secs_f64();
        obs.periods = next / PERIOD;
        obs.cache_misses = daemon.cached_sims()?.saturating_sub(sims_before);

        finished.sort_by_key(|(i, ..)| *i);
        // Identical (case, size) jobs must agree to the bit, whatever ran
        // beside them: the daemon's determinism contract.
        let mut first: HashMap<(usize, usize), String> = HashMap::new();
        for ((case, size, _), (_, _, body)) in order.iter().zip(&finished) {
            if body.is_empty() {
                continue;
            }
            let seen = first.entry((*case, *size)).or_insert_with(|| body.clone());
            if seen != body {
                problems.push(format!(
                    "determinism: case{case}@{size} gave {body} after {seen}"
                ));
            }
        }
        let mut lines: Vec<&String> = first.values().collect();
        lines.sort();
        let body = lines.iter().map(|l| format!("{l}\n")).collect();
        Ok(Pass {
            wall_s,
            units: finished.into_iter().map(|(_, u, _)| u).collect(),
            body,
            problems,
            serve: Some(obs),
        })
    }

    fn check(&self, case: usize, size: usize, got: &Quality) -> Option<String> {
        let reference = match &self.reference {
            Ok(r) => r,
            Err(e) => return Some(e.clone()),
        };
        let Some(want) = reference.get(&(case, size)) else {
            return Some(format!("reference: no entry for case{case}@{size}"));
        };
        let tol = Tolerance::default();
        let pairs = [
            ("l2", want.l2, got.l2),
            ("pvb", want.pvb, got.pvb),
            ("epe", want.epe, got.epe),
            ("shots", want.shots, got.shots),
        ];
        let drifts: Vec<String> = pairs
            .iter()
            .filter(|(_, w, g)| {
                let drift = (g - w).abs();
                drift.is_nan() || drift > tol.allowed(*w)
            })
            .map(|(m, w, g)| format!("{m} {g} vs {w}"))
            .collect();
        (!drifts.is_empty()).then(|| format!("reference: case{case}@{size}: {}", drifts.join(", ")))
    }
}

/// The reference: one `{"case", "size", "l2", "pvb", "epe", "shots"}`
/// object per line of the mix.
fn load_reference() -> Result<HashMap<(usize, usize), Quality>, String> {
    let text =
        std::fs::read_to_string(REFERENCE).map_err(|e| format!("reference {REFERENCE}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("reference {REFERENCE}: {e}"))?;
    let mut out = HashMap::new();
    for entry in json.get("jobs").and_then(Json::as_array).unwrap_or(&[]) {
        let num = |k: &str| entry.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        out.insert(
            (num("case") as usize, num("size") as usize),
            Quality {
                l2: num("l2"),
                pvb: num("pvb"),
                epe: num("epe"),
                shots: num("shots"),
            },
        );
    }
    Ok(out)
}

fn spawn_daemon() -> Result<Daemon, String> {
    let handle = Server::spawn(ServeConfig::default()).map_err(|e| format!("serve bind: {e}"))?;
    let stream = TcpStream::connect(handle.addr()).map_err(|e| format!("serve connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    // A daemon that stops answering fails the run instead of hanging it.
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut daemon = Daemon {
        handle,
        writer: stream,
        reader,
    };
    daemon.request(r#"{"cmd":"ping"}"#, "pong")?;
    Ok(daemon)
}

impl Flow for ServeFlow {
    /// Binds a fresh daemon, connects, and has it build the simulators
    /// of both grids with one zero-iteration job each.
    fn setup(&mut self) -> Result<(), String> {
        if let Some(old) = self.daemon.take() {
            old.shutdown()?;
        }
        let mut daemon = spawn_daemon()?;
        for size in [128, 256] {
            let id = format!("warm{size}");
            let reply = daemon.request(
                &format!(
                    r#"{{"cmd":"submit","id":"{id}","case":1,"size":{size},"init_iters":0,"iters":0}}"#
                ),
                "result",
            );
            if let Err(e) = reply {
                let _ = daemon.shutdown();
                return Err(e);
            }
        }
        self.daemon = Some(daemon);
        Ok(())
    }

    fn pass(&mut self) -> Result<Pass, String> {
        self.run_mix(0.0, Some(1))
    }

    fn sized_pass(&mut self, seconds: f64) -> Result<Pass, String> {
        self.run_mix(seconds, None)
    }

    fn repeat(&mut self, like: &Pass) -> Result<Pass, String> {
        let periods = like.serve.as_ref().map_or(1, |o| o.periods);
        self.run_mix(0.0, Some(periods))
    }

    fn ledger(&mut self, traced: &Pass, trace: &Trace) -> Ledger {
        let workers = worker_count();
        let runners = workers.min(4);
        let busy = runners as f64 * traced.wall_s;
        let jobs = traced.units.len() as f64;
        let mean_px = traced.units.iter().map(|u| u.px).sum::<f64>() / jobs.max(1.0);
        let mut ledger = Ledger::new(trace, traced, busy, mean_px);
        let obs = traced.serve.clone().unwrap_or_default();
        ledger.set(
            "serve.ack_ms_p50",
            stats::median(&obs.ack_ms).unwrap_or(0.0),
        );
        ledger.set(
            "serve.queue_wait_ms_p50",
            stats::median(&obs.queue_wait_ms).unwrap_or(0.0),
        );
        ledger.set(
            "serve.queue_wait_ms_p90",
            stats::tail(&obs.queue_wait_ms).map_or(0.0, |t| t.value),
        );
        ledger.set(
            "serve.cache_hit_ratio",
            1.0 - ratio(obs.cache_misses as f64, jobs),
        );
        ledger.set(
            "serve.stream_lines_per_job",
            stats::median(&obs.stream_lines).unwrap_or(0.0),
        );

        // Per-job layers outside the optimizer span, at a runner's share.
        let share = worker_shares(workers, runners)[0];
        let (setup_ms, evaluate) = with_worker_limit(share, || {
            let mut setup_ms = 0.0;
            let mut evaluate = HashMap::new();
            for size in [128usize, 256] {
                let config = LithoConfig {
                    size,
                    kernel_count: 6,
                    ..LithoConfig::default()
                };
                setup_ms += time_ms(3, || LithoSimulator::new(config.clone()));
                let Ok(sim) = LithoSimulator::new(config) else {
                    continue;
                };
                let target = benchmark_case(MIX[0].0).map(|l| l.rasterize(size));
                if let Ok(target) = target {
                    evaluate.insert(
                        size,
                        time_ms(3, || {
                            evaluate_mask(&sim, &target, &target, &EpeConfig::default())
                        }),
                    );
                }
            }
            (setup_ms, evaluate)
        });
        ledger.set("litho.setup_ms", setup_ms);
        ledger.set(
            "metrics.evaluate_ms",
            evaluate.get(&128).copied().unwrap_or(0.0),
        );
        let evaluate_s: f64 = traced
            .units
            .iter()
            .map(|u| {
                evaluate
                    .get(&(u.px.sqrt() as usize))
                    .copied()
                    .unwrap_or(0.0)
                    * 1e-3
            })
            .sum();
        ledger.layer(
            &format!("metrics.evaluate (replayed, {jobs} calls)"),
            evaluate_s,
        );
        ledger
    }

    fn bless(&self, pass: &Pass) -> Option<(String, String)> {
        let mut seen: Vec<(usize, usize)> = Vec::new();
        let mut entries = Vec::new();
        for line in pass.body.lines() {
            // "case{c}@{s} l2 {l2} pvb {pvb} epe {epe} shots {shots} …"
            let f: Vec<&str> = line.split_whitespace().collect();
            let (c, s) = f[0].trim_start_matches("case").split_once('@')?;
            let key = (c.parse().ok()?, s.parse().ok()?);
            if seen.contains(&key) {
                continue;
            }
            seen.push(key);
            entries.push(format!(
                "    {{\"case\": {}, \"size\": {}, \"l2\": {}, \"pvb\": {}, \"epe\": {}, \"shots\": {}}}",
                key.0, key.1, f[2], f[4], f[6], f[8]
            ));
        }
        let text = format!(
            "{{\n  \"schema\": \"perfbench-serve/1\",\n  \"jobs\": [\n{}\n  ]\n}}\n",
            entries.join(",\n")
        );
        Some((REFERENCE.to_string(), text))
    }
}

impl Drop for ServeFlow {
    fn drop(&mut self) {
        if let Some(daemon) = self.daemon.take() {
            if let Err(e) = daemon.shutdown() {
                eprintln!("perfbench: {e}");
            }
        }
    }
}
