//! `mission_orbit`: a radiating 32×20×4 aluminium plate flown for two
//! 90-minute LEO orbits by the adaptive trapezoidal `MissionDriver`,
//! stepped to the end with `step()`.
//!
//! Each run flies whole missions, one after another, until its time is
//! up. The seed picks each mission's dissipation from a ladder of
//! variants around 25 W; every variant's final mean and peak
//! temperatures were recorded when the benchmark was defined (see
//! [`print_references`]) and each flown mission is checked against
//! them.

use std::time::{Duration, Instant};

use aeropack_materials::Material;
use aeropack_mission::{
    AdaptiveConfig, MissionConfig, MissionDriver, MissionProfile, MissionStats, Orbit,
    RadiatingFace, Scheme, StepControl,
};
use aeropack_thermal::{Face, FvGrid, FvModel};
use aeropack_units::{Celsius, Power, SplitMix64};

use crate::stats::{median, percentile, sorted, Summary};
use crate::trace::{SpanId, Tracer};
use crate::{Metric, Outcome};

/// Orbits per mission.
const ORBITS: usize = 2;
/// Set-ups timed before each mission flown, each a driver construction
/// and its first `step()` (the first θ-system assembly and multigrid
/// set-up); `setup_s` is the median of all of a run's set-ups.
const SETUPS_PER_MISSION: usize = 3;
/// Final-state tolerance against the recorded reference, K.
const REFERENCE_TOL_K: f64 = 0.05;
/// Dissipation of variant `i`, W.
fn power_w(variant: usize) -> f64 {
    22.0 + 0.5 * variant as f64
}

/// Final `(mean, peak)` temperature in °C of each variant, recorded
/// when the benchmark was defined.
const REFERENCES: [(f64, f64); 12] = [
    (57.42236969217447, 57.8520631682529),
    (58.16107041048541, 58.60069269480126),
    (58.88903983756785, 59.33859328521075),
    (59.62386784969922, 60.08333489115691),
    (60.35171641599019, 60.82107747350991),
    (61.07785704425432, 61.55710149689014),
    (61.81289146622496, 62.30207167786709),
    (62.54414809354616, 63.04323622594572),
    (63.26990954489891, 63.778951018884555),
    (63.967907009712405, 64.48689437773845),
    (64.7015764568558, 65.23044372015248),
    (65.42565894319264, 65.96442289402314),
];

/// A 0.32 × 0.20 × 0.03 m plate dissipating `power_w(variant)` in its
/// central bottom cells, radiating from its top face (ε 0.85, α 0.3)
/// and starting at 20 °C, with adaptive trapezoidal stepping capped at
/// 60 s.
fn build_driver(variant: usize) -> Result<MissionDriver, String> {
    let grid = FvGrid::new((0.32, 0.2, 0.03), (32, 20, 4)).map_err(|e| e.to_string())?;
    let mut model = FvModel::new(grid, &Material::aluminum_6061());
    model
        .add_power_box(Power::new(power_w(variant)), (8, 5, 0), (24, 15, 1))
        .map_err(|e| e.to_string())?;
    let profile =
        MissionProfile::orbit_cycle(&Orbit::leo_90min(), ORBITS).map_err(|e| e.to_string())?;
    let config = MissionConfig::new(Scheme::Trapezoidal)
        .control(StepControl::Adaptive(AdaptiveConfig {
            dt_max: 60.0,
            ..AdaptiveConfig::default()
        }))
        .radiating_face(RadiatingFace {
            face: Face::ZMax,
            emissivity: 0.85,
            absorptivity: 0.3,
        });
    MissionDriver::new(model, profile, config, Celsius::new(20.0)).map_err(|e| e.to_string())
}

fn mission_seconds() -> f64 {
    Orbit::leo_90min().period_s * ORBITS as f64
}

/// Final `(mean, peak)` temperature of a finished driver.
fn final_state(driver: &MissionDriver) -> Result<(f64, f64), String> {
    let field = driver.field().map_err(|e| e.to_string())?;
    Ok((
        field.mean_temperature().value(),
        field.max_temperature().value(),
    ))
}

/// Counts one flown mission into `outcome`, checking its final state.
fn check(outcome: &mut Outcome, variant: usize, flown: Result<(f64, f64), String>) {
    outcome.attempted += 1;
    let (want_mean, want_peak) = REFERENCES[variant];
    match flown {
        Ok((mean, peak))
            if (mean - want_mean).abs() <= REFERENCE_TOL_K
                && (peak - want_peak).abs() <= REFERENCE_TOL_K => {}
        Ok((mean, peak)) => outcome.fail(format!(
            "variant {variant}: final mean {mean:.4} °C / peak {peak:.4} °C, \
             reference {want_mean:.4} / {want_peak:.4} (tolerance {REFERENCE_TOL_K} K)"
        )),
        Err(e) => outcome.fail(format!("variant {variant}: {e}")),
    }
}

/// Steps `driver` to the end, timing each `step()` in ms.
fn fly(driver: &mut MissionDriver, step_ms: &mut Vec<f64>) -> Result<(f64, f64), String> {
    while !driver.finished() {
        let t = Instant::now();
        driver.step().map_err(|e| e.to_string())?;
        step_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    final_state(driver)
}

/// Steps `driver` to the end inside `root`, one span per `step()`,
/// sorting each step's time by whether it rebuilt the θ-system (its
/// `MissionStats` delta) or reused it bit-unchanged.
fn fly_traced(
    driver: &mut MissionDriver,
    tracer: &mut Tracer,
    root: SpanId,
    rebuild_ms: &mut Vec<f64>,
    reuse_ms: &mut Vec<f64>,
) -> Result<(), String> {
    while !driver.finished() {
        let before = driver.stats().matrix_rebuilds;
        let span = tracer.begin("mission.step", Some(root));
        driver.step().map_err(|e| e.to_string())?;
        tracer.end(span);
        let ms = tracer.spans()[span].duration_ns() as f64 * 1e-6;
        if driver.stats().matrix_rebuilds > before {
            rebuild_ms.push(ms);
        } else {
            reuse_ms.push(ms);
        }
    }
    Ok(())
}

/// Times `count` set-ups.
fn set_up(count: usize, outcome: &mut Outcome) -> Vec<f64> {
    let mut times = Vec::with_capacity(count);
    for _ in 0..count {
        let t = Instant::now();
        let stepped =
            build_driver(0).and_then(|mut d| d.step().map(|_| d).map_err(|e| e.to_string()));
        times.push(t.elapsed().as_secs_f64());
        if let Err(e) = stepped {
            outcome.attempted += 1;
            outcome.fail(format!("set-up failed: {e}"));
            break;
        }
    }
    times
}

pub fn run(seed: u64, seconds: f64, outcome: &mut Outcome) {
    let mut rng = SplitMix64::new(seed);
    let budget = Duration::from_secs_f64(seconds);
    let mut setups = Vec::new();
    let mut step_ms = Vec::new();
    let mut mission_rates = Vec::new();
    let mut flight_s = 0.0;
    let start = Instant::now();
    while start.elapsed() < budget {
        // The set-ups are spread over the run, so their median samples
        // the host throughout it, as the missions do.
        setups.extend(set_up(SETUPS_PER_MISSION, outcome));
        let variant = (rng.next_u64() % REFERENCES.len() as u64) as usize;
        let t = Instant::now();
        let flown = build_driver(variant).and_then(|mut d| fly(&mut d, &mut step_ms));
        let s = t.elapsed().as_secs_f64();
        flight_s += s;
        mission_rates.push(mission_seconds() / s);
        check(outcome, variant, flown);
    }
    let missions = mission_rates.len();
    let setups = sorted(setups);
    let steps = sorted(step_ms);
    outcome.push(Metric::of("setup_s", "s", &setups, median(&setups)));
    outcome.push(Metric::peak_rss());
    // One operation is one simulated second: the throughput is the
    // simulated-time rate.
    let sim_rate = missions as f64 * mission_seconds() / flight_s;
    outcome.push(Metric::of("throughput", "op/s", &mission_rates, sim_rate));
    outcome.note("latency_p50_ms", Summary::of(&steps).median);
    outcome.note("latency_p90_ms", percentile(&steps, 90.0));
    outcome.note("sim_rate", sim_rate);
    outcome.note("missions", missions as f64);
    outcome.note("steps", steps.len() as f64);
}

pub fn run_traced(seed: u64, seconds: f64, outcome: &mut Outcome, tracer: &mut Tracer) {
    let mut rng = SplitMix64::new(seed);
    let budget = Duration::from_secs_f64(seconds);
    let mut first_stats: Option<MissionStats> = None;
    let mut overheads = Vec::new();
    let mut assemble_ms = Vec::new();
    let (mut rebuild_ms, mut reuse_ms) = (Vec::new(), Vec::new());
    let start = Instant::now();
    loop {
        // Each of the seed's missions is flown untraced, then traced:
        // pairing them lets the trace overhead compare the two under the
        // same host conditions.
        let variant = (rng.next_u64() % REFERENCES.len() as u64) as usize;
        let t = Instant::now();
        let flown = build_driver(variant).and_then(|mut d| fly(&mut d, &mut Vec::new()));
        let untraced_s = t.elapsed().as_secs_f64();
        check(outcome, variant, flown);

        let root = tracer.begin("bench.mission", None);
        let flown = tracer
            .time("mission.new", Some(root), || build_driver(variant))
            .and_then(|mut driver| {
                fly_traced(&mut driver, tracer, root, &mut rebuild_ms, &mut reuse_ms)?;
                Ok(driver)
            });
        tracer.end(root);
        overheads.push(tracer.spans()[root].duration_ns() as f64 * 1e-9 / untraced_s);
        let flown = flown.and_then(|driver| {
            if first_stats.is_none() {
                first_stats = Some(*driver.stats());
                // The operator assembly the driver repeats on every
                // boundary-condition change, timed on the final model.
                for _ in 0..20 {
                    let t = Instant::now();
                    std::hint::black_box(driver.model().assemble_operator());
                    assemble_ms.push(t.elapsed().as_secs_f64() * 1e3);
                }
            }
            final_state(&driver)
        });
        check(outcome, variant, flown);
        if start.elapsed() >= budget {
            break;
        }
    }
    let Some(stats) = first_stats else {
        return;
    };
    let per_solve = |v: usize| v as f64 / stats.solves as f64;
    let layer = |name: &str, unit: &'static str, samples: Vec<f64>| {
        let samples = sorted(samples);
        let value = median(&samples);
        Metric::of(name, unit, &samples, value)
    };
    outcome.push(layer("thermal.assemble_ms", "ms", assemble_ms));
    outcome.push(Metric::of(
        "solver.iterations",
        "count",
        &[],
        per_solve(stats.solver_iterations),
    ));
    outcome.push(Metric::of(
        "solver.factor_reuse_ratio",
        "ratio",
        &[],
        per_solve(stats.factor_reuses),
    ));
    outcome.push(Metric::count(
        "mission.matrix_rebuilds",
        stats.matrix_rebuilds,
    ));
    outcome.push(Metric::count(
        "mission.relinearizations",
        stats.relinearizations,
    ));
    outcome.push(Metric::count("mission.solves", stats.solves));
    outcome.push(Metric::of(
        "mission.accept_ratio",
        "ratio",
        &[],
        stats.accepted as f64 / (stats.accepted + stats.rejected) as f64,
    ));
    outcome.push(layer("mission.step_ms.rebuild", "ms", rebuild_ms));
    outcome.push(layer("mission.step_ms.reuse", "ms", reuse_ms));
    outcome.push(Metric::of(
        "obs.trace_overhead",
        "ratio",
        &overheads,
        median(&sorted(overheads.clone())),
    ));
    outcome.push(Metric::of(
        "coverage",
        "ratio",
        &[],
        tracer.coverage("bench.mission"),
    ));
    outcome.note("mission.accepted", stats.accepted as f64);
    outcome.note("mission.rejected", stats.rejected as f64);
}

/// Flies every variant once and prints its final `(mean, peak)` in the
/// form of [`REFERENCES`].
pub fn print_references() -> Result<(), String> {
    for variant in 0..REFERENCES.len() {
        let mut driver = build_driver(variant)?;
        let (mean, peak) = fly(&mut driver, &mut Vec::new())?;
        println!("    ({mean:?}, {peak:?}),");
    }
    Ok(())
}
