//! `fv_steady`: repeated steady solves of a 40³ equipment block on one
//! warm multigrid model, over a seeded sequence of power scales.
//!
//! Set-up builds the model and runs its one cold solve (the multigrid
//! hierarchy build). The measured phase is a closed loop with one
//! client calling `FvModel::solve_steady_scaled`. The traced run splits
//! each solve into its two public halves — `FvModel::assemble_operator`
//! and `solve_sparse_into` on a warm `PcgWorkspace` — so the thermal
//! and solver layers can be timed apart.

use std::time::{Duration, Instant};

use aeropack_materials::Material;
use aeropack_solver::{solve_sparse_into, CsrMatrix, PcgWorkspace, Precond, SolverConfig};
use aeropack_thermal::{Face, FaceBc, FvField, FvGrid, FvModel};
use aeropack_units::{Celsius, HeatTransferCoeff, Power, SplitMix64};

use crate::stats::{percentile, Summary};
use crate::trace::Tracer;
use crate::{Metric, Outcome};

/// Cells per side of the block.
const CELLS: usize = 40;
/// Nominal dissipation of the central source, W.
const POWER_W: f64 = 80.0;
/// Set-ups per run, spread over it: each starts a phase of the measured
/// loop on its fresh model. `setup_s` is their median.
const SETUPS: usize = 3;
/// Relative tolerance of the global energy balance check: the heat
/// leaving through the faces must equal the dissipated power.
const ENERGY_TOL: f64 = 1e-6;

/// The 0.2 m aluminium block: an 80 W source in the central 8³ cells,
/// a convective top face (50 W/(m²·K) into 40 °C), the other faces
/// adiabatic, multigrid-preconditioned CG to a relative residual of
/// 1e-10.
fn build_model() -> FvModel {
    let grid = FvGrid::new((0.2, 0.2, 0.2), (CELLS, CELLS, CELLS)).expect("valid grid");
    let mut model = FvModel::new(grid, &Material::aluminum_6061());
    let (lo, hi) = (CELLS / 2 - 4, CELLS / 2 + 4);
    model
        .add_power_box(Power::new(POWER_W), (lo, lo, lo), (hi, hi, hi))
        .expect("source box inside the grid");
    model.set_face_bc(
        Face::ZMax,
        FaceBc::Convection {
            h: HeatTransferCoeff::new(50.0),
            ambient: Celsius::new(40.0),
        },
    );
    model.set_solver_config(
        SolverConfig::new()
            .preconditioner(Precond::Multigrid)
            .tolerance(1e-10),
    );
    model
}

/// The seeded power scales, uniform in [0.5, 1.5).
fn scales(seed: u64) -> impl Iterator<Item = f64> {
    let mut rng = SplitMix64::new(seed);
    std::iter::repeat_with(move || rng.range_f64(0.5, 1.5))
}

/// Checks the global energy balance of a solved field: the heat
/// leaving through all faces equals `scale` times the model's power.
fn energy_error(model: &FvModel, field: &FvField, scale: f64) -> Result<f64, String> {
    let mut out = 0.0;
    for face in Face::ALL {
        out += model
            .boundary_heat(field, face)
            .map_err(|e| e.to_string())?
            .value();
    }
    let want = scale * model.total_power().value();
    Ok(((out - want) / want).abs())
}

/// Counts one checked solve into `outcome`.
fn check(outcome: &mut Outcome, model: &FvModel, field: Result<FvField, String>, scale: f64) {
    outcome.attempted += 1;
    match field.and_then(|f| energy_error(model, &f, scale)) {
        Ok(err) if err <= ENERGY_TOL => {}
        Ok(err) => outcome.fail(format!(
            "energy balance off by {err:.3e} (tolerance {ENERGY_TOL:e}) at scale {scale}"
        )),
        Err(e) => outcome.fail(format!("solve at scale {scale} failed: {e}")),
    }
}

/// Builds the model and runs its cold solve; returns the model and the
/// set-up time.
fn set_up(outcome: &mut Outcome) -> (FvModel, f64) {
    let t = Instant::now();
    let model = build_model();
    let field = model.solve_steady().map_err(|e| e.to_string());
    let time = t.elapsed().as_secs_f64();
    check(outcome, &model, field, 1.0);
    (model, time)
}

/// Closed loop of `solve_steady_scaled` for `budget`; returns the
/// per-solve latencies in ms and the loop's wall time.
fn closed_loop(
    model: &FvModel,
    scales: &mut impl Iterator<Item = f64>,
    budget: Duration,
    outcome: &mut Outcome,
) -> (Vec<f64>, Duration) {
    let mut latencies = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget {
        let scale = scales.next().expect("endless scale sequence");
        let t = Instant::now();
        let field = model.solve_steady_scaled(scale);
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
        check(outcome, model, field.map_err(|e| e.to_string()), scale);
    }
    (latencies, start.elapsed())
}

pub fn run(seed: u64, seconds: f64, outcome: &mut Outcome) {
    let mut scales = scales(seed);
    let phase = Duration::from_secs_f64(seconds / SETUPS as f64);
    let (mut setups, mut latencies, mut wall) = (Vec::new(), Vec::new(), Duration::ZERO);
    for _ in 0..SETUPS {
        // The previous phase's model is dropped before the next set-up.
        let (model, setup) = set_up(outcome);
        setups.push(setup);
        let (lat, w) = closed_loop(&model, &mut scales, phase, outcome);
        latencies.extend(lat);
        wall += w;
    }
    let solves = latencies.len();
    latencies.sort_by(f64::total_cmp);
    let rates: Vec<f64> = latencies.iter().map(|ms| 1e3 / ms).collect();
    outcome.push(Metric::of(
        "setup_s",
        "s",
        &setups,
        Summary::of(&setups).median,
    ));
    outcome.push(Metric::peak_rss());
    outcome.push(Metric::of(
        "throughput",
        "op/s",
        &rates,
        solves as f64 / wall.as_secs_f64(),
    ));
    outcome.note("latency_p50_ms", Summary::of(&latencies).median);
    outcome.note("latency_p90_ms", percentile(&latencies, 90.0));
    outcome.note("solves_per_s", solves as f64 / wall.as_secs_f64());
    outcome.note("solves", solves as f64);
}

/// Bytes one `spmv_into` call moves, computed from the array sizes:
/// values and column indices once each, the row offsets, one read of
/// `x` and one write of `y`. Cache reuse of `x` is ignored.
fn spmv_bytes(a: &CsrMatrix) -> f64 {
    let (n, nnz) = (a.n() as f64, a.nnz() as f64);
    let word = std::mem::size_of::<f64>() as f64;
    let index = std::mem::size_of::<usize>() as f64;
    nnz * (word + index) + (n + 1.0) * index + 2.0 * n * word
}

pub fn run_traced(seed: u64, seconds: f64, outcome: &mut Outcome, tracer: &mut Tracer) {
    let (model, _) = set_up(outcome);
    let mut scales = scales(seed);

    // The traced workspace's first solve is cold (it builds the
    // multigrid hierarchy); the timed solves after it are warm.
    let cfg = model
        .solver_config()
        .clone()
        .grid_dims(model.grid().shape());
    let n = model.grid().cell_count();
    let mut ws = PcgWorkspace::with_capacity(n);
    let (a, b) = model.assemble_operator();
    let mut x = vec![0.0; n];
    let cold = tracer.time("solver.cold_solve", None, || {
        solve_sparse_into(&mut ws, &a, &b, &mut x, &cfg)
    });
    let cold = match cold {
        Ok(stats) => stats,
        Err(e) => {
            outcome.fail(format!("cold solve failed: {e}"));
            return;
        }
    };
    let fine_nnz = a.nnz() as f64;
    let hierarchy_nnz = cold.spectral.as_ref().map_or(0, |s| s.hierarchy_nnz) as f64;

    let mut ax = vec![0.0; n];
    let (mut setup_ms, mut iterate_ms) = (Vec::new(), Vec::new());
    let (mut iterations, mut reused) = (Vec::new(), Vec::new());
    let mut spmv_s = 0.0;
    let mut spmv_bytes_total = 0.0;
    let mut untraced = Vec::new();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    while start.elapsed() < budget {
        // An untraced solve, timed as the untraced run times it, then a
        // traced one: alternating them lets the trace overhead compare
        // the two under the same host conditions.
        let scale = scales.next().expect("endless scale sequence");
        let t = Instant::now();
        let field = model.solve_steady_scaled(scale);
        untraced.push(t.elapsed().as_secs_f64() * 1e3);
        check(outcome, &model, field.map_err(|e| e.to_string()), scale);

        let scale = scales.next().expect("endless scale sequence");
        let op = tracer.begin("bench.solve", None);
        let (a, mut b) = tracer.time("thermal.assemble_operator", Some(op), || {
            model.assemble_operator()
        });
        // assemble_operator builds the nominal load; the sources scale.
        for (bi, s) in b.iter_mut().zip(model.sources()) {
            *bi += (scale - 1.0) * s;
        }
        x.fill(0.0);
        let solved = tracer.time("solver.solve_sparse_into", Some(op), || {
            solve_sparse_into(&mut ws, &a, &b, &mut x, &cfg)
        });
        tracer.end(op);

        // The checks run outside the solve's root span, as they run
        // outside the untraced loop's timing.
        let check = tracer.begin("bench.check", None);
        let t = Instant::now();
        let spmv = tracer.begin("solver.spmv_into", Some(check));
        a.spmv_into(&x, &mut ax, cfg.get_threads());
        tracer.end(spmv);
        spmv_s += t.elapsed().as_secs_f64();
        spmv_bytes_total += spmv_bytes(&a);
        let heat = tracer.begin("thermal.boundary_heat", Some(check));
        outcome.attempted += 1;
        match solved {
            Ok(stats) => {
                setup_ms.push(stats.setup_seconds * 1e3);
                iterate_ms.push(stats.iterate_seconds * 1e3);
                iterations.push(stats.iterations as f64);
                reused.push(f64::from(u8::from(
                    stats.spectral.as_ref().is_some_and(|s| s.reused),
                )));
                let residual = relative_residual(&b, &ax);
                let energy = model
                    .field_from_temperatures(x.clone())
                    .map_err(|e| e.to_string())
                    .and_then(|f| energy_error(&model, &f, scale));
                match energy {
                    Ok(err) if err <= ENERGY_TOL && residual <= 1e-9 => {}
                    Ok(err) => outcome.fail(format!(
                        "traced solve at scale {scale}: energy error {err:.3e}, residual {residual:.3e}"
                    )),
                    Err(e) => outcome.fail(e),
                }
            }
            Err(e) => outcome.fail(format!("traced solve at scale {scale} failed: {e}")),
        }
        tracer.end(heat);
        tracer.end(check);
    }
    let traced_ms = Summary::of(&tracer.durations_ms("bench.solve")).median;
    let untraced_ms = Summary::of(&untraced).median;

    let layer = |name: &str, unit: &'static str, samples: &[f64]| {
        Metric::of(name, unit, samples, Summary::of(samples).median)
    };
    outcome.push(layer(
        "thermal.assemble_ms",
        "ms",
        &tracer.durations_ms("thermal.assemble_operator"),
    ));
    outcome.push(Metric::of(
        "solver.setup_ms",
        "ms",
        &[cold.setup_seconds * 1e3],
        cold.setup_seconds * 1e3,
    ));
    outcome.push(Metric::of(
        "solver.operator_complexity",
        "ratio",
        &[],
        hierarchy_nnz / fine_nnz,
    ));
    outcome.push(layer("solver.iterate_ms", "ms", &iterate_ms));
    outcome.push(layer("solver.iterations", "count", &iterations));
    // The share of warm solves that reused the cached hierarchy.
    outcome.push(Metric::of(
        "solver.factor_reuse_ratio",
        "ratio",
        &[],
        reused.iter().sum::<f64>() / reused.len() as f64,
    ));
    outcome.push(Metric::of(
        "solver.spmv_gbs",
        "GB/s",
        &[],
        spmv_bytes_total / spmv_s / 1e9,
    ));
    outcome.push(Metric::of(
        "obs.trace_overhead",
        "ratio",
        &[],
        traced_ms / untraced_ms,
    ));
    outcome.push(Metric::of(
        "coverage",
        "ratio",
        &[],
        tracer.coverage("bench.solve"),
    ));
    outcome.note("solver.warm_setup_ms", Summary::of(&setup_ms).median);
    outcome.note("solver.cold_iterations", cold.iterations as f64);
}

fn relative_residual(b: &[f64], ax: &[f64]) -> f64 {
    let (mut r2, mut b2) = (0.0, 0.0);
    for (bi, ai) in b.iter().zip(ax) {
        r2 += (bi - ai) * (bi - ai);
        b2 += bi * bi;
    }
    (r2 / b2).sqrt()
}
