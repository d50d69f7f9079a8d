//! `chip64`: the `chip-small` suite (49 owned 64-px tiles in 128² halo
//! windows), one unit per chip. The pass is `run_chip_suite`'s own loop —
//! one shared window simulator, `run_chip_case_full` per chip — with the
//! simulator built in set-up so each chip can be timed.

use crate::eval_flow::{load, replay_multiilt};
use crate::ledger::{ratio, time_ms, Ledger, Trace};
use crate::stats::UnitStatus;
use crate::{Flow, Pass, Quality, Unit};
use cfaopc_chip::{
    accumulate_window, axis_weights, compare_chip_reports, extract_window_into, merge_tile_shots,
    normalize_blend, run_chip_case_full, run_chip_suite, ChipGeometry, ChipMethodOutcome,
    ChipReport, ChipSpec,
};
use cfaopc_eval::Tolerance;
use cfaopc_fft::parallel::{with_worker_limit, worker_count};
use cfaopc_fracture::{circle_rule, CircleShot, CircularMask};
use cfaopc_grid::BitGrid;
use cfaopc_ilt::{run_engine, IltEngine};
use cfaopc_layouts::ChipLayout;
use cfaopc_litho::LithoSimulator;
use std::time::Instant;

const REFERENCE: &str = "perfbench/ref/chip64.json";

/// The chip workload.
pub struct ChipFlow {
    spec: ChipSpec,
    reference: Result<ChipReport, String>,
    inputs: Option<(LithoSimulator, Vec<ChipLayout>)>,
    /// The last pass's merged `(rule, opt)` masks per chip, for the
    /// merge replay.
    last_masks: Vec<(CircularMask, CircularMask)>,
}

impl ChipFlow {
    /// The committed `chip-small` suite.
    pub fn new() -> Result<ChipFlow, String> {
        Ok(ChipFlow {
            spec: ChipSpec::named("chip-small").ok_or("no chip-small suite")?,
            reference: load(REFERENCE, ChipReport::from_json_str),
            inputs: None,
            last_masks: Vec::new(),
        })
    }
}

fn quality(m: &ChipMethodOutcome) -> Quality {
    Quality {
        l2: m.l2,
        pvb: m.pvb,
        epe: m.epe as f64,
        shots: m.shots as f64,
    }
}

/// Window targets of one chip, in tile order.
fn windows(spec: &ChipSpec, chip: &ChipLayout) -> (ChipGeometry, Vec<BitGrid>) {
    let geom = spec.geometry(chip);
    let target = chip.rasterize(spec.tile_px);
    let win = geom.window_px();
    let windows = (0..geom.tile_count())
        .map(|i| {
            let (tx, ty) = geom.tile_at(i);
            let mut w = BitGrid::new(win, win);
            extract_window_into(&target, geom.window_origin(tx, ty), &mut w);
            w
        })
        .collect();
    (geom, windows)
}

impl Flow for ChipFlow {
    fn setup(&mut self) -> Result<(), String> {
        let sim = LithoSimulator::new(self.spec.litho_config()).map_err(|e| e.to_string())?;
        let chips = self.spec.chips.iter().map(|c| c.chip()).collect();
        self.inputs = Some((sim, chips));
        Ok(())
    }

    fn pass(&mut self) -> Result<Pass, String> {
        let (sim, chips) = self.inputs.as_ref().expect("setup runs before any pass");
        let start = Instant::now();
        let mut records = Vec::with_capacity(chips.len());
        let mut units = Vec::with_capacity(chips.len());
        let mut problems = Vec::new();
        self.last_masks.clear();
        for chip in chips {
            let t = Instant::now();
            let outcome = run_chip_case_full(&self.spec, sim, chip);
            let wall_s = t.elapsed().as_secs_f64();
            let geom = self.spec.geometry(chip);
            let px = (geom.chip_width_px() * geom.chip_height_px()) as f64;
            match outcome {
                Ok(o) => {
                    units.push(Unit {
                        px,
                        wall_s,
                        opt: quality(&o.record.opt),
                        rule: Some(quality(&o.record.rule)),
                        window: None,
                        status: UnitStatus::Ok,
                    });
                    records.push(o.record);
                    self.last_masks.push((o.rule_mask, o.opt_mask));
                }
                Err(e) => {
                    problems.push(format!("error: {e}"));
                    units.push(Unit {
                        px,
                        wall_s,
                        opt: Quality::default(),
                        rule: None,
                        window: None,
                        status: UnitStatus::Errored,
                    });
                }
            }
        }
        let wall_s = start.elapsed().as_secs_f64();
        // The report exactly as `run_chip_suite` assembles it.
        let geom = ChipGeometry::new(1, 1, self.spec.tile_px);
        let report = ChipReport {
            suite: self.spec.name.clone(),
            tile_px: self.spec.tile_px,
            window_px: geom.window_px(),
            halo_px: geom.halo_px(),
            kernel_count: self.spec.kernel_count,
            chips: records,
        };
        match &self.reference {
            Ok(golden) => {
                for d in compare_chip_reports(golden, &report, &Tolerance::default()) {
                    problems.push(format!("reference: {d}"));
                    for (unit, chip) in units.iter_mut().zip(chips) {
                        if d.case == chip.name || d.case == "<report>" {
                            unit.status = UnitStatus::CheckFailed;
                        }
                    }
                }
            }
            Err(e) => {
                problems.push(e.clone());
                for unit in &mut units {
                    unit.status = UnitStatus::CheckFailed;
                }
            }
        }
        Ok(Pass {
            wall_s,
            units,
            body: report.to_json_string(),
            problems,
            serve: None,
        })
    }

    /// The committed chip golden (`chip-tiny`) through the public suite
    /// entry point, once per invocation.
    fn extra_checks(&mut self) -> Vec<(String, UnitStatus)> {
        let check = || -> Result<Vec<String>, String> {
            let spec = ChipSpec::named("chip-tiny").ok_or("no chip-tiny suite")?;
            let golden = load("eval/golden_chip.json", ChipReport::from_json_str)?;
            let report = run_chip_suite(&spec).map_err(|e| e.to_string())?;
            Ok(
                compare_chip_reports(&golden, &report, &Tolerance::default())
                    .iter()
                    .map(|d| format!("golden chip-tiny: {d}"))
                    .collect(),
            )
        };
        match check() {
            Ok(drifts) if drifts.is_empty() => vec![(String::new(), UnitStatus::Ok)],
            Ok(drifts) => vec![(drifts.join("; "), UnitStatus::CheckFailed)],
            Err(e) => vec![(format!("golden chip-tiny: {e}"), UnitStatus::Errored)],
        }
    }

    fn ledger(&mut self, traced: &Pass, trace: &Trace) -> Ledger {
        let workers = worker_count() as f64;
        let busy = workers * traced.wall_s;
        let win = self.spec.litho_config().size as f64;
        let mut ledger = Ledger::new(trace, traced, busy, win * win);
        let (sim, chips) = self.inputs.as_ref().expect("setup runs before any pass");

        let per_chip: Vec<(ChipGeometry, Vec<BitGrid>)> =
            chips.iter().map(|c| windows(&self.spec, c)).collect();
        let tiles: usize = per_chip.iter().map(|(g, _)| g.tile_count()).sum();
        let busy_windows: Vec<&BitGrid> = per_chip
            .iter()
            .flat_map(|(_, w)| w.iter())
            .filter(|w| !w.is_clear())
            .collect();
        let busy_tiles = busy_windows.len() as f64;
        let pipeline_s: f64 = ["ilt.pixel", "core.circleopt"]
            .iter()
            .map(|name| trace.root_total_s(name))
            .sum();
        ledger.set(
            "chip.empty_tile_share",
            1.0 - busy_tiles / tiles.max(1) as f64,
        );
        ledger.set("chip.shard_efficiency", ratio(pipeline_s, busy));

        let empty = BitGrid::new(sim.size(), sim.size());
        let window = busy_windows.first().copied().unwrap_or(&empty);
        let spec = &self.spec;
        // Tiles run at a worker share of 1; replay them the same way.
        let (multi, rule_ms, aerial_ms, setup_ms) = with_worker_limit(1, || {
            let multi = replay_multiilt(sim.config(), &busy_windows);
            let mask = run_engine(sim, window, IltEngine::MultiIltLike, spec.rule_iterations)
                .map_or_else(|_| window.clone(), |p| p.mask_binary);
            let rule_config = spec.circleopt_config().rule;
            let pixel_nm = sim.config().pixel_nm();
            let rule_ms = time_ms(3, || circle_rule(&mask, &rule_config, pixel_nm));
            let aerial_ms = time_ms(3, || sim.aerial_corners(&mask.to_real()));
            let setup_ms = time_ms(3, || LithoSimulator::new(spec.litho_config()));
            (multi, rule_ms, aerial_ms, setup_ms)
        });

        // Stitch and merge, per chip and both methods, on the pass's
        // own geometry and merged shots.
        let mut stitch_ms = 0.0;
        let mut merge_ms = 0.0;
        for ((geom, _), masks) in per_chip.iter().zip(&self.last_masks) {
            stitch_ms += 2.0 * time_ms(3, || stitch(geom));
            for mask in [&masks.0, &masks.1] {
                let per_tile = split_by_owner(geom, mask.shots());
                merge_ms += time_ms(3, || {
                    let (mut shots, mut owners) = (Vec::new(), Vec::new());
                    for (i, tile) in per_tile.iter().enumerate() {
                        merge_tile_shots(geom, i, tile, &mut shots, &mut owners);
                    }
                    (shots, owners)
                });
            }
        }
        let n_chips = chips.len() as f64;
        ledger.set("litho.setup_ms", setup_ms);
        ledger.set("grid.dilate_ms", multi.dilate_ms);
        ledger.set(
            "grid.dilate_share",
            ratio(multi.dilate_ms * 1e-3 * busy_tiles, busy),
        );
        ledger.set("fracture.circle_rule_ms", rule_ms);
        ledger.set("litho.aerial_ms", aerial_ms);
        ledger.set("chip.stitch_ms", stitch_ms / n_chips);
        ledger.set("chip.merge_ms", merge_ms / n_chips);
        ledger.part(
            "grid.dilate (replayed, inside ilt.pixel)",
            multi.dilate_ms * 1e-3 * busy_tiles,
        );
        ledger.replayed(
            "litho.setup (MultiILT coarse levels)",
            multi.coarse_setup_ms,
            busy_tiles,
        );
        ledger.replayed("fracture.circle_rule", rule_ms, busy_tiles);
        ledger.replayed(
            "litho.aerial (stitch images)",
            aerial_ms,
            2.0 * tiles as f64,
        );
        ledger.replayed("chip.stitch", stitch_ms / n_chips, n_chips);
        ledger.replayed("chip.merge", merge_ms / n_chips, n_chips);
        ledger
    }

    fn bless(&self, pass: &Pass) -> Option<(String, String)> {
        Some((REFERENCE.to_string(), pass.body.clone()))
    }
}

/// The partition-of-unity accumulation of one chip at three corners,
/// on zero images (the cost does not depend on the values).
fn stitch(geom: &ChipGeometry) -> Vec<f64> {
    let (cw, ch) = (geom.chip_width_px(), geom.chip_height_px());
    let win = geom.window_px();
    let weights = axis_weights(geom);
    let image = vec![0.0; win * win];
    let mut acc = vec![0.0; cw * ch];
    for _corner in 0..3 {
        acc.iter_mut().for_each(|a| *a = 0.0);
        let mut wsum = vec![0.0; cw * ch];
        for i in 0..geom.tile_count() {
            let (tx, ty) = geom.tile_at(i);
            accumulate_window(
                &image,
                win,
                geom.window_origin(tx, ty),
                &weights,
                &weights,
                cw,
                ch,
                &mut acc,
                &mut wsum,
            );
        }
        normalize_blend(&mut acc, &wsum);
    }
    acc
}

/// Merged chip shots handed back to their owning tiles, in window
/// coordinates — the input `merge_tile_shots` saw.
fn split_by_owner(geom: &ChipGeometry, shots: &[CircleShot]) -> Vec<Vec<CircleShot>> {
    let mut per_tile = vec![Vec::new(); geom.tile_count()];
    for s in shots {
        if let Some(i) = (0..geom.tile_count()).find(|&i| {
            let (tx, ty) = geom.tile_at(i);
            geom.owns(tx, ty, s.x, s.y)
        }) {
            let (tx, ty) = geom.tile_at(i);
            let (ox, oy) = geom.window_origin(tx, ty);
            per_tile[i].push(CircleShot {
                x: s.x - ox,
                y: s.y - oy,
                ..*s
            });
        }
    }
    per_tile
}
