//! `tile512` and `suite128`: `cfaopc_eval::run_suite_timed` on a
//! `SuiteSpec`, one unit per testcase.

use crate::ledger::{ratio, time_ms, Ledger, Trace};
use crate::stats::UnitStatus;
use crate::{Flow, Pass, Quality, Unit};
use cfaopc_eval::{
    compare_reports, run_suite_timed, CaseSource, EvalReport, MethodOutcome, SuiteSpec, Tolerance,
};
use cfaopc_fft::parallel::{with_worker_limit, worker_count, worker_shares};
use cfaopc_fracture::circle_rule;
use cfaopc_grid::{dilate, BitGrid, Point, Structuring};
use cfaopc_ilt::{downsample_majority, run_engine, IltEngine, UpdateDomain};
use cfaopc_layouts::{Layout, TILE_NM};
use cfaopc_litho::{bossung_surface, CdAxis, CdProbe, LithoConfig, LithoSimulator};
use cfaopc_metrics::{evaluate_mask, EpeConfig};
use std::time::Instant;

/// One eval workload.
pub struct EvalFlow {
    spec: SuiteSpec,
    /// Where the reference report lives; `None` for a reference the
    /// benchmark must not rewrite (the committed golden suite).
    bless_path: Option<&'static str>,
    reference: Result<EvalReport, String>,
    inputs: Option<Inputs>,
}

/// What the harness builds before optimizing: one simulator and one
/// target raster per case.
struct Inputs {
    layouts: Vec<Layout>,
    sims: Vec<LithoSimulator>,
    targets: Vec<BitGrid>,
}

/// Reads a reference report written by `to_json_string`.
pub fn load<T>(path: &str, parse: fn(&str) -> Result<T, String>) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reference {path}: {e}"))?;
    parse(&text).map_err(|e| format!("reference {path}: {e}"))
}

impl EvalFlow {
    /// Benchmark tile 3 plus generator tile 11 at 512², with the `small`
    /// suite's budgets and focus–exposure sweep.
    pub fn tile512() -> Result<EvalFlow, String> {
        let small = SuiteSpec::named("small").ok_or("no small suite")?;
        let spec = SuiteSpec {
            name: "tile512".into(),
            size: 512,
            cases: vec![CaseSource::Benchmark(3), CaseSource::Generated(11)],
            ..small
        };
        let path = "perfbench/ref/tile512.json";
        Ok(EvalFlow {
            spec,
            bless_path: Some(path),
            reference: load(path, EvalReport::from_json_str),
            inputs: None,
        })
    }

    /// The committed `small` suite, checked against `eval/golden.json`.
    pub fn suite128() -> Result<EvalFlow, String> {
        Ok(EvalFlow {
            spec: SuiteSpec::named("small").ok_or("no small suite")?,
            bless_path: None,
            reference: load("eval/golden.json", EvalReport::from_json_str),
            inputs: None,
        })
    }

    fn inputs(&self) -> &Inputs {
        self.inputs.as_ref().expect("setup runs before any pass")
    }
}

fn quality(m: &MethodOutcome) -> Quality {
    Quality {
        l2: m.l2,
        pvb: m.pvb,
        epe: m.epe as f64,
        shots: m.shots as f64,
    }
}

/// The pass's units, checked against `reference` (drifts fail the case
/// they name, structural drifts fail every case).
fn checked_units(
    report: &EvalReport,
    reference: &Result<EvalReport, String>,
    problems: &mut Vec<String>,
) -> Vec<Unit> {
    let mut failed_cases: Vec<String> = Vec::new();
    let mut all_failed = false;
    match reference {
        Ok(golden) => {
            for d in compare_reports(golden, report, &Tolerance::default()) {
                problems.push(format!("reference: {d}"));
                if d.case == "<report>" {
                    all_failed = true;
                }
                failed_cases.push(d.case);
            }
        }
        Err(e) => {
            problems.push(e.clone());
            all_failed = true;
        }
    }
    let px = (report.size * report.size) as f64;
    report
        .cases
        .iter()
        .map(|c| Unit {
            px,
            wall_s: c.wall_ms.unwrap_or(f64::NAN) * 1e-3,
            opt: quality(&c.opt),
            rule: Some(quality(&c.rule)),
            window: Some(c.opt.window),
            status: if all_failed || failed_cases.contains(&c.name) {
                UnitStatus::CheckFailed
            } else {
                UnitStatus::Ok
            },
        })
        .collect()
}

impl Flow for EvalFlow {
    fn setup(&mut self) -> Result<(), String> {
        let layouts: Vec<Layout> = self
            .spec
            .cases
            .iter()
            .map(|c| c.layout().map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        let sims = layouts
            .iter()
            .map(|_| LithoSimulator::new(self.spec.litho_config()).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        let targets = layouts
            .iter()
            .map(|l| l.rasterize(self.spec.size))
            .collect();
        self.inputs = Some(Inputs {
            layouts,
            sims,
            targets,
        });
        Ok(())
    }

    fn pass(&mut self) -> Result<Pass, String> {
        let t = Instant::now();
        let result = run_suite_timed(&self.spec);
        let wall_s = t.elapsed().as_secs_f64();
        let mut report = match result {
            Ok(r) => r,
            Err(e) => {
                return Ok(Pass {
                    wall_s,
                    units: self
                        .spec
                        .cases
                        .iter()
                        .map(|_| Unit {
                            px: (self.spec.size * self.spec.size) as f64,
                            wall_s,
                            opt: Quality::default(),
                            rule: None,
                            window: None,
                            status: UnitStatus::Errored,
                        })
                        .collect(),
                    body: String::new(),
                    problems: vec![format!("error: {e}")],
                    serve: None,
                })
            }
        };
        let mut problems = Vec::new();
        let units = checked_units(&report, &self.reference, &mut problems);
        for c in &mut report.cases {
            c.wall_ms = None;
        }
        Ok(Pass {
            wall_s,
            units,
            body: report.to_json_string(),
            problems,
            serve: None,
        })
    }

    fn ledger(&mut self, traced: &Pass, trace: &Trace) -> Ledger {
        let workers = worker_count();
        let busy: f64 = traced.units.iter().map(|u| u.wall_s).sum();
        let cases = traced.units.len() as f64;
        let n = self.spec.size as f64;
        let mut ledger = Ledger::new(trace, traced, busy, n * n);
        ledger.set(
            "eval.shard_efficiency",
            ratio(busy, workers as f64 * traced.wall_s),
        );
        ledger.set(
            "eval.case_s_max",
            traced.units.iter().map(|u| u.wall_s).fold(0.0, f64::max),
        );

        // Replays run at the per-case worker share the harness uses.
        let share = worker_shares(workers, workers.min(self.spec.cases.len()).max(1))[0];
        let spec = self.spec.clone();
        let inputs = self.inputs();
        let target = &inputs.targets[0];
        let sim = &inputs.sims[0];
        let (multi, setup_ms, rule_ms, evaluate_ms, window_ms) = with_worker_limit(share, || {
            let targets: Vec<&BitGrid> = inputs.targets.iter().collect();
            let multi = replay_multiilt(sim.config(), &targets);
            let setup_ms = time_ms(3, || LithoSimulator::new(spec.litho_config()));
            let mask = run_engine(sim, target, IltEngine::MultiIltLike, spec.rule_iterations)
                .map_or_else(|_| target.clone(), |p| p.mask_binary);
            let pixel_nm = sim.config().pixel_nm();
            let rule_config = spec.circleopt_config().rule;
            let rule_ms = time_ms(3, || circle_rule(&mask, &rule_config, pixel_nm));
            let evaluate_ms = time_ms(3, || {
                evaluate_mask(sim, &mask, target, &EpeConfig::default())
            });
            let window_ms = match window_probe(&inputs.layouts[0], spec.size) {
                Some((probe, _)) => time_ms(3, || {
                    bossung_surface(
                        sim,
                        &mask,
                        &probe,
                        &spec.window_defocus_nm,
                        &spec.window_doses,
                    )
                }),
                None => 0.0,
            };
            (multi, setup_ms, rule_ms, evaluate_ms, window_ms)
        });
        ledger.set("litho.setup_ms", setup_ms);
        ledger.set("grid.dilate_ms", multi.dilate_ms);
        ledger.set(
            "grid.dilate_share",
            ratio(multi.dilate_ms * 1e-3 * cases, busy),
        );
        ledger.set("fracture.circle_rule_ms", rule_ms);
        ledger.set("metrics.evaluate_ms", evaluate_ms);
        ledger.set("litho.window_ms", window_ms);
        ledger.part(
            "grid.dilate (replayed, inside ilt.pixel)",
            multi.dilate_ms * 1e-3 * cases,
        );
        ledger.replayed("litho.setup", setup_ms, cases);
        ledger.replayed(
            "litho.setup (MultiILT coarse levels)",
            multi.coarse_setup_ms,
            cases,
        );
        ledger.replayed("fracture.circle_rule", rule_ms, cases);
        ledger.replayed("metrics.evaluate", evaluate_ms, 2.0 * cases);
        ledger.replayed("litho.window", window_ms, 2.0 * cases);
        ledger
    }

    fn bless(&self, pass: &Pass) -> Option<(String, String)> {
        self.bless_path.map(|p| (p.to_string(), pass.body.clone()))
    }
}

/// What one `MultiIltLike` run does outside its `ilt.pixel` spans
/// (coarse-level simulator builds) and inside them but unspanned (the
/// `Disk` dilation of each level's update domain), timed per run.
pub struct MultiIltReplay {
    /// Simulator builds for the coarse levels, ms per run.
    pub coarse_setup_ms: f64,
    /// Domain dilations of every level, ms per run, averaged over the
    /// targets (the sweep exits early on a hit, so its cost depends on
    /// the layout).
    pub dilate_ms: f64,
}

/// Replays the level structure of `cfaopc_ilt::run_engine(…,
/// MultiIltLike, …)` on each of `targets` at `config`'s grid: levels at
/// n/4 and n/2 while they are at least 64 px, then n.
pub fn replay_multiilt(config: &LithoConfig, targets: &[&BitGrid]) -> MultiIltReplay {
    let n = config.size;
    let halo_nm = match IltEngine::MultiIltLike.config(1).domain {
        UpdateDomain::NearTarget { halo_nm } => halo_nm,
        UpdateDomain::Full => 0.0,
    };
    let mut out = MultiIltReplay {
        coarse_setup_ms: 0.0,
        dilate_ms: 0.0,
    };
    for f in [4usize, 2, 1] {
        if n / f < 64 && f > 1 {
            continue;
        }
        let level = LithoConfig {
            size: n / f,
            ..config.clone()
        };
        if f > 1 {
            out.coarse_setup_ms += time_ms(3, || LithoSimulator::new(level.clone()));
        }
        if halo_nm > 0.0 {
            let halo_px = level.nm_to_px(halo_nm).round().max(1.0) as i32;
            let repeats = if n / f >= 512 { 1 } else { 3 };
            for &target in targets {
                let level_target =
                    downsample_majority(target, f).unwrap_or_else(|_| target.clone());
                out.dilate_ms += time_ms(repeats, || {
                    dilate(&level_target, Structuring::Disk(halo_px))
                }) / targets.len().max(1) as f64;
            }
        }
    }
    out
}

/// The process-window probe the eval harness uses: the centre of the
/// largest rectangle, measuring across its short side.
fn window_probe(layout: &Layout, size: usize) -> Option<(CdProbe, f64)> {
    let rect = layout.rects.iter().max_by_key(|r| {
        (
            i64::from(r.width()) * i64::from(r.height()),
            -i64::from(r.y0),
            -i64::from(r.x0),
        )
    })?;
    let to_px = |nm: i32| (i64::from(nm) * size as i64 / i64::from(TILE_NM)) as i32;
    let at = Point::new(
        to_px((rect.x0 + rect.x1) / 2),
        to_px((rect.y0 + rect.y1) / 2),
    );
    let axis = if rect.width() <= rect.height() {
        CdAxis::Horizontal
    } else {
        CdAxis::Vertical
    };
    Some((
        CdProbe { at, axis },
        f64::from(rect.width().min(rect.height())),
    ))
}
