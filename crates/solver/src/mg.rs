//! Geometric multigrid V-cycle preconditioning for structured-grid
//! operators.
//!
//! The finite-volume thermal models assemble Poisson-like operators on
//! a structured `nx × ny × nz` grid (row `i = ix + nx·(iy + ny·iz)`) —
//! the textbook multigrid case. This module builds a grid hierarchy by
//! **2×2×2 cell aggregation** (ceil division per axis, so odd extents
//! coarsen cleanly), forms **smoothed-aggregation prolongation**
//! `P = (I − ω·D⁻¹A)^s·P₀` with the standard damping `ω = 4/(3·λ_max)`
//! — `s = 2` Jacobi passes on the finest transfer, `s = 1` on every
//! coarser one — assembles **Galerkin coarse operators**
//! `A_c = Pᵀ·A·P`, and solves the coarsest level (at most
//! [`COARSE_DIRECT_MAX`] unknowns) directly with the existing dense
//! Cholesky. Each
//! level smooths with a short Chebyshev polynomial targeted at the
//! upper (oscillatory) part of the spectrum — no triangular solves
//! anywhere, so unlike IC(0) the application has **no sequential
//! dependency**: every kernel is SpMV-shaped and stays bitwise
//! identical at any thread count.
//!
//! One V-cycle per PCG preconditioner application makes iteration
//! counts essentially mesh-independent, which is what lets 64³+ grids
//! win on wall clock rather than just on iteration count.
//!
//! The smoothing schedule keeps the setup cheap: a second pass below
//! the finest transfer widens every coarser Galerkin stencil again. On
//! a 64³ grid two passes everywhere measured a 27 s setup at operator
//! complexity 7.1; the fine-only schedule measures 2.0 s at 4.0 for one
//! extra PCG iteration (9 against 8; 2-core x86-64 host, one thread).
//!
//! **Numeric-only refresh.** A transient re-solves one operator pattern
//! with new values on every `dt` change or radiation relinearisation.
//! A hierarchy built with a refresh record keeps the pattern of every
//! setup product; [`MgHierarchy::refresh`] then replays only their
//! values (and the power-method λ_max estimate and the coarse factor)
//! in the build's exact order, so a refreshed hierarchy is bitwise identical
//! to a cold build on the same matrix. On the 32×20×4 mission plate
//! (2560 → 320 → 40 unknowns) a values-only re-setup measured
//! 3.0–3.5 ms against 3.8–4.5 ms for a cold build and 8.8–13.5 ms for
//! the full rebuild it replaces (solver set-up time, medians of 41,
//! five alternating runs; 2-core x86-64 host, one thread).
//!
//! The hierarchy is deterministic end to end: aggregation is a pure
//! index map, every setup product runs serially through one sparse
//! accumulator that sums each entry in a fixed order, and the
//! smoothers/transfers partition by contiguous row blocks.

use crate::cheb::{cheb_apply, estimate_high_with, ChebWork, EIG_HIGH_SAFETY, POWER_ITERS};
use crate::csr::CsrMatrix;
use crate::dense::DenseCholesky;
use crate::error::SolverError;
use crate::stats::SpectralStats;

/// Coarsest-level size at which the hierarchy stops and a dense
/// Cholesky factorisation takes over. Small enough that the dense
/// factor (n³/6 flops) and its solve (2n² per V-cycle) stay negligible
/// next to one fine-level smoothing sweep. At the former 600 the
/// 32×20×4 mission plate stopped at a 320-unknown level: its dense
/// factor took 5.2–5.8 ms of a 9.3–9.9 ms cold set-up and its solve
/// 0.32 ms of each 0.57–0.60 ms PCG iteration. At 128 the plate
/// coarsens once more, to 40 unknowns (a 0.01 ms factor): 4.6–4.9 ms
/// set-up, 0.41 ms per iteration, the same iteration count (2-core
/// x86-64 host, one thread). 128 is the largest value that still
/// stops the 40³ and 33³ grids at their former 125-unknown level, so
/// their hierarchies are unchanged.
const COARSE_DIRECT_MAX: usize = 128;
/// Hard cap on grid levels (a 2×2×2 coarsening from any practical
/// grid bottoms out far earlier).
const MAX_LEVELS: usize = 12;
/// Chebyshev steps per pre-/post-smoothing pass.
const SMOOTH_STEPS: usize = 3;
/// The smoother targets the eigenvalue interval
/// `[SMOOTH_LOW_FRACTION·λ_max, EIG_HIGH_SAFETY·λ_max]` — the upper
/// part of the spectrum that coarse-grid correction cannot see. The
/// 2×2×2 aggregates coarsen aggressively (8×), so only the lowest
/// ~eighth of the spectrum is coarse-representable and the smoother
/// covers a correspondingly wide band.
const SMOOTH_LOW_FRACTION: f64 = 1.0 / 7.0;

/// CSR triplets `(row_ptr, cols, vals)` of a sparse operand.
type SparseRows<'a> = (&'a [usize], &'a [usize], &'a [f64]);

/// An owned sparse product in CSR triplets.
#[derive(Debug, Clone)]
struct SparseParts {
    row_ptr: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl SparseParts {
    fn rows(&self) -> SparseRows<'_> {
        (&self.row_ptr, &self.cols, &self.vals)
    }
}

/// A rectangular sparse transfer operator `P` (fine rows × coarse
/// columns), stored row-major for prolongation together with its
/// transpose for restriction.
#[derive(Debug, Clone)]
struct Transfer {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
    /// Transpose layout (coarse rows → fine columns) for `Pᵀ·r`.
    t_row_ptr: Vec<usize>,
    t_cols: Vec<usize>,
    t_vals: Vec<f64>,
}

impl Transfer {
    fn nnz(&self) -> usize {
        self.vals.len()
    }

    fn rows(&self) -> SparseRows<'_> {
        (&self.row_ptr, &self.cols, &self.vals)
    }

    /// `xf += P·xc` (prolongation of a coarse correction).
    fn prolong_add(&self, xc: &[f64], xf: &mut [f64]) {
        for (i, xfi) in xf.iter_mut().enumerate().take(self.nrows) {
            let mut acc = 0.0;
            for idx in self.row_ptr[i]..self.row_ptr[i + 1] {
                acc += self.vals[idx] * xc[self.cols[idx]];
            }
            *xfi += acc;
        }
    }

    /// `rc = Pᵀ·rf` (restriction of a fine residual).
    fn restrict_into(&self, rf: &[f64], rc: &mut [f64]) {
        for (cr, rci) in rc.iter_mut().enumerate() {
            let mut acc = 0.0;
            for idx in self.t_row_ptr[cr]..self.t_row_ptr[cr + 1] {
                acc += self.t_vals[idx] * rf[self.t_cols[idx]];
            }
            *rci = acc;
        }
    }

    /// Builds the transpose layout by counting sort (deterministic:
    /// fine rows are visited ascending, so columns within each
    /// transpose row come out ascending too).
    fn with_transpose(nrows: usize, ncols: usize, p: SparseParts) -> Self {
        let SparseParts {
            row_ptr,
            cols,
            vals,
        } = p;
        let mut counts = vec![0usize; ncols + 1];
        for &c in &cols {
            counts[c + 1] += 1;
        }
        for j in 0..ncols {
            counts[j + 1] += counts[j];
        }
        let t_row_ptr = counts.clone();
        let mut cursor = counts;
        let mut t_cols = vec![0usize; cols.len()];
        let mut t_vals = vec![0.0f64; cols.len()];
        for i in 0..nrows {
            for idx in row_ptr[i]..row_ptr[i + 1] {
                let c = cols[idx];
                let slot = cursor[c];
                cursor[c] += 1;
                t_cols[slot] = i;
                t_vals[slot] = vals[idx];
            }
        }
        Self {
            nrows,
            ncols,
            row_ptr,
            cols,
            vals,
            t_row_ptr,
            t_cols,
            t_vals,
        }
    }

    /// Rewrites the transpose values after `vals` changed: the counting
    /// sort's walk of [`Transfer::with_transpose`] over the kept
    /// transpose pattern, with `cursor` as reused scratch.
    fn refresh_transpose(&mut self, cursor: &mut Vec<usize>) {
        cursor.clear();
        cursor.extend_from_slice(&self.t_row_ptr[..self.ncols]);
        for i in 0..self.nrows {
            for idx in self.row_ptr[i]..self.row_ptr[i + 1] {
                let c = self.cols[idx];
                self.t_vals[cursor[c]] = self.vals[idx];
                cursor[c] += 1;
            }
        }
    }
}

/// One grid level of the hierarchy: the operator (owned for coarse
/// levels, external for level 0), its diagonal and smoothing interval,
/// the prolongation from the next-coarser level, and warm scratch so
/// V-cycles are allocation-free.
#[derive(Debug, Clone)]
struct MgLevel {
    /// The level operator; `None` at level 0, where the caller's
    /// (possibly SELL-accelerated) fine operator is used instead.
    a: Option<CsrMatrix>,
    diag: Vec<f64>,
    /// Chebyshev smoothing interval `[smooth_low, smooth_high]`
    /// derived from the power-method λ_max estimate of `D⁻¹A` at this
    /// level.
    smooth_low: f64,
    smooth_high: f64,
    /// Prolongation from the next-coarser level into this one.
    p: Transfer,
    // V-cycle scratch, sized to this level.
    x: Vec<f64>,
    r: Vec<f64>,
    resid: Vec<f64>,
    corr: Vec<f64>,
    cheb: ChebWork,
}

/// What a values-only refresh replays at one transfer level besides
/// the level's own `P`: the right operand of every smoothing pass
/// (`P₀`, then each intermediate product) and `A·P`, the right operand
/// of the restriction product. Their patterns depend only on the fine
/// pattern; a refresh rewrites their values.
#[derive(Debug, Clone)]
struct LevelRecord {
    pass_inputs: Vec<SparseParts>,
    ap: SparseParts,
}

/// The refresh record of a hierarchy: the per-level products, the
/// coarsest Galerkin operator, and the build's scratch, all kept so a
/// refresh allocates nothing but the power-method vectors.
#[derive(Debug, Clone)]
struct Replay {
    records: Vec<LevelRecord>,
    /// The coarsest Galerkin operator; `None` when the fine operator is
    /// itself the direct level.
    coarse_a: Option<CsrMatrix>,
    /// Row-major dense copy of the coarse operator, factored in place.
    dense: Vec<f64>,
    spa: SparseAccumulator,
    cursor: Vec<usize>,
}

/// The assembled multigrid hierarchy, cached in the
/// [`PcgWorkspace`](crate::PcgWorkspace) by pattern key and value
/// snapshot. Applying it runs one V-cycle; warm applications perform
/// no heap allocation.
#[derive(Debug, Clone)]
pub(crate) struct MgHierarchy {
    levels: Vec<MgLevel>,
    chol: DenseCholesky,
    coarse_b: Vec<f64>,
    coarse_x: Vec<f64>,
    hierarchy_nnz: usize,
    fine_nnz: usize,
    fine_eig_high: f64,
    /// Present when built with a refresh record.
    replay: Option<Replay>,
}

/// The aggregate (coarse-cell) id of every fine cell under 2×2×2
/// coarsening of `dims` into `cdims`.
fn aggregate_ids(dims: (usize, usize, usize), cdims: (usize, usize, usize)) -> Vec<usize> {
    let (nx, ny, nz) = dims;
    let (cnx, cny, _) = cdims;
    let mut agg = Vec::with_capacity(nx * ny * nz);
    for iz in 0..nz {
        for iy in 0..ny {
            for ix in 0..nx {
                agg.push(ix / 2 + cnx * (iy / 2 + cny * (iz / 2)));
            }
        }
    }
    agg
}

/// The tentative prolongation `P₀[i, agg(i)] = 1`.
fn tentative_prolongation(agg: Vec<usize>) -> SparseParts {
    let n = agg.len();
    SparseParts {
        row_ptr: (0..=n).collect(),
        cols: agg,
        vals: vec![1.0; n],
    }
}

/// Jacobi-smoothing passes applied to the tentative prolongation of the
/// **finest** transfer (level 0 → 1); every coarser transfer takes one
/// pass. The second fine pass buys a noticeably better low-mode
/// interpolation (the V-cycle limiter under 8× coarsening): one pass
/// everywhere measured ρ ≈ 0.26 on 33³ Poisson. Below the finest level
/// each pass widens the next Galerkin stencil again, so one pass there
/// keeps the 64³ operator complexity at 4.0 instead of 7.1 (see the
/// module docs).
const PROLONG_SMOOTH_PASSES: usize = 2;

/// Row `i` of the Jacobi smoother `S = I − ω·D⁻¹·A`: the identity
/// entry first, then the scaled row of `A`.
fn smoother_row<'a>(
    a: &'a CsrMatrix,
    diag: &[f64],
    omega: f64,
    i: usize,
) -> impl Iterator<Item = (usize, f64)> + 'a {
    let (a_ptr, a_cols, a_vals) = (a.row_offsets(), a.col_indices(), a.values());
    let scale = -omega / diag[i];
    std::iter::once((i, 1.0))
        .chain((a_ptr[i]..a_ptr[i + 1]).map(move |idx| (a_cols[idx], scale * a_vals[idx])))
}

/// Row `i` of `A`.
fn matrix_row(a: &CsrMatrix, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
    let (a_ptr, a_cols, a_vals) = (a.row_offsets(), a.col_indices(), a.values());
    (a_ptr[i]..a_ptr[i + 1]).map(move |idx| (a_cols[idx], a_vals[idx]))
}

/// Row `cr` of `Pᵀ`.
fn transpose_row(p: &Transfer, cr: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
    (p.t_row_ptr[cr]..p.t_row_ptr[cr + 1]).map(move |t| (p.t_cols[t], p.t_vals[t]))
}

/// Builds the smoothed-aggregation prolongation
/// `P = (I − ω·D⁻¹·A)^s · P₀`, where `diag` is the diagonal `D` of `a`
/// and `s = passes`. Row `i` of `P` spans the aggregates of `i`'s
/// `s`-hop stencil neighbourhood. Returns `P` and, when `record` is
/// set, the right operand of every pass (`P₀` first) for
/// [`LevelRecord::pass_inputs`]; otherwise each is dropped as soon as
/// it is used.
fn smoothed_prolongation(
    spa: &mut SparseAccumulator,
    a: &CsrMatrix,
    diag: &[f64],
    omega: f64,
    passes: usize,
    p0: SparseParts,
    record: bool,
) -> (SparseParts, Vec<SparseParts>) {
    let mut inputs = Vec::new();
    let mut p = p0;
    for _ in 0..passes {
        let next = spa.product(a.n(), |i| smoother_row(a, diag, omega, i), p.rows());
        if record {
            inputs.push(p);
        }
        p = next;
    }
    (p, inputs)
}

/// The sparse accumulator behind every setup product: a dense value
/// array indexed by output column, a dense marker array recording which
/// output row last touched each column (membership in O(1), no scan and
/// no per-row sort of duplicate entries), and the columns the current
/// row touched. A column's contributions are summed in arrival order
/// and each row is emitted in ascending column order, so every product
/// is deterministic. Its width bounds the column count of every product
/// it runs.
#[derive(Debug, Clone)]
struct SparseAccumulator {
    vals: Vec<f64>,
    marker: Vec<usize>,
    touched: Vec<usize>,
    row: usize,
}

impl SparseAccumulator {
    fn new(ncols: usize) -> Self {
        Self {
            vals: vec![0.0; ncols],
            marker: vec![usize::MAX; ncols],
            touched: Vec::with_capacity(64),
            row: 0,
        }
    }

    /// Accumulates one output row: `left` yields the `(k, l_ik)`
    /// entries of the row of `L` in the order they are to be
    /// accumulated, `right` holds `R`. A column's first contribution is
    /// assigned and the later ones summed in arrival order.
    fn accumulate<I>(&mut self, left: I, right: SparseRows<'_>)
    where
        I: Iterator<Item = (usize, f64)>,
    {
        let (r_ptr, r_cols, r_vals) = right;
        for (k, w) in left {
            for idx in r_ptr[k]..r_ptr[k + 1] {
                let c = r_cols[idx];
                let v = w * r_vals[idx];
                if self.marker[c] == self.row {
                    self.vals[c] += v;
                } else {
                    self.marker[c] = self.row;
                    self.vals[c] = v;
                    self.touched.push(c);
                }
            }
        }
    }

    /// The sparse product `L·R` over `nrows` output rows, where
    /// `left_row(i)` yields row `i` of `L` (see
    /// [`SparseAccumulator::accumulate`]) and `right` holds `R` (whose
    /// column count is at most this accumulator's width).
    fn product<L, I>(&mut self, nrows: usize, left_row: L, right: SparseRows<'_>) -> SparseParts
    where
        L: Fn(usize) -> I,
        I: Iterator<Item = (usize, f64)>,
    {
        let mut row_ptr = Vec::with_capacity(nrows + 1);
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0);
        for i in 0..nrows {
            self.accumulate(left_row(i), right);
            self.touched.sort_unstable();
            for &c in &self.touched {
                cols.push(c);
                vals.push(self.vals[c]);
            }
            self.touched.clear();
            self.row += 1;
            row_ptr.push(cols.len());
        }
        SparseParts {
            row_ptr,
            cols,
            vals,
        }
    }

    /// Numeric replay of [`SparseAccumulator::product`] into the values
    /// of `out`, whose pattern `(out_ptr, out_cols)` is the one that
    /// product emitted for operands of the same patterns. Every
    /// contribution arrives in the same order with the same first-touch
    /// assignment, so the values are bitwise identical to a fresh
    /// product; only the per-row sort and the output growth are
    /// skipped.
    fn replay<L, I>(
        &mut self,
        left_row: L,
        right: SparseRows<'_>,
        (out_ptr, out_cols): (&[usize], &[usize]),
        out_vals: &mut [f64],
    ) where
        L: Fn(usize) -> I,
        I: Iterator<Item = (usize, f64)>,
    {
        for i in 0..out_ptr.len() - 1 {
            self.accumulate(left_row(i), right);
            for idx in out_ptr[i]..out_ptr[i + 1] {
                out_vals[idx] = self.vals[out_cols[idx]];
            }
            self.touched.clear();
            self.row += 1;
        }
    }
}

/// Assembles the Galerkin coarse operator `A_c = Pᵀ·(A·P)` as two
/// products through the shared [`SparseAccumulator`], so it is
/// deterministic. Returns `A_c` and the intermediate `A·P`.
fn galerkin_product(
    spa: &mut SparseAccumulator,
    a: &CsrMatrix,
    p: &Transfer,
) -> (CsrMatrix, SparseParts) {
    let ap = spa.product(a.n(), |i| matrix_row(a, i), p.rows());
    let c = spa.product(p.ncols, |cr| transpose_row(p, cr), ap.rows());
    (
        CsrMatrix::from_parts(p.ncols, c.row_ptr, c.cols, c.vals),
        ap,
    )
}

/// Writes the row-major dense copy of `op` into `dense` (`n²` values).
fn densify(op: &CsrMatrix, dense: &mut [f64]) {
    let n = op.n();
    dense.fill(0.0);
    for i in 0..n {
        for idx in op.row_offsets()[i]..op.row_offsets()[i + 1] {
            dense[i * n + op.col_indices()[idx]] = op.values()[idx];
        }
    }
}

impl MgHierarchy {
    /// Builds the hierarchy for the fine operator `a` on the declared
    /// grid shape. `dims` must multiply out to `a.n()` (validated by
    /// the caller). Setup is serial and allocation-heavy by design —
    /// the result is cached and every *application* is allocation-free.
    /// The intermediate products are dropped as soon as they are used,
    /// so the hierarchy cannot be refreshed (see
    /// [`MgHierarchy::build_refreshable`]).
    ///
    /// # Errors
    ///
    /// [`SolverError::Singular`] if the coarsest Galerkin operator is
    /// not positive definite.
    pub(crate) fn build(
        a: &CsrMatrix,
        dims: (usize, usize, usize),
        context: &'static str,
    ) -> Result<Self, SolverError> {
        Self::build_with(a, dims, false, context)
    }

    /// [`MgHierarchy::build`], keeping the refresh record
    /// [`MgHierarchy::refresh`] replays: the intermediate products and
    /// the build's scratch. The hierarchy itself is bitwise identical.
    pub(crate) fn build_refreshable(
        a: &CsrMatrix,
        dims: (usize, usize, usize),
        context: &'static str,
    ) -> Result<Self, SolverError> {
        Self::build_with(a, dims, true, context)
    }

    fn build_with(
        a: &CsrMatrix,
        dims: (usize, usize, usize),
        record: bool,
        context: &'static str,
    ) -> Result<Self, SolverError> {
        let mut levels: Vec<MgLevel> = Vec::new();
        let mut records: Vec<LevelRecord> = Vec::new();
        let mut hierarchy_nnz = 0usize;
        let mut fine_eig_high = 0.0f64;
        // The operator being coarsened this round: level 0 borrows
        // `a`, deeper rounds own their Galerkin product.
        let mut current: Option<CsrMatrix> = None;
        let mut cur_dims = dims;
        // One accumulator serves every setup product of the build; the
        // first coarse level is the widest. Reusing it, rather than
        // allocating per product, measured ~15 % less peak RSS on the
        // mission benchmark (fewer short-lived mid-size allocations
        // fragmenting the heap).
        let mut spa =
            SparseAccumulator::new(dims.0.div_ceil(2) * dims.1.div_ceil(2) * dims.2.div_ceil(2));
        loop {
            let op: &CsrMatrix = current.as_ref().unwrap_or(a);
            let n = op.n();
            let diag = op.diag();
            let eig_high = estimate_high_with(
                &|x: &[f64], y: &mut [f64]| op.spmv_into(x, y, 1),
                &diag,
                POWER_ITERS,
            );
            if levels.is_empty() {
                fine_eig_high = eig_high;
            }
            let (cnx, cny, cnz) = (
                cur_dims.0.div_ceil(2).max(1),
                cur_dims.1.div_ceil(2).max(1),
                cur_dims.2.div_ceil(2).max(1),
            );
            let ncoarse = cnx * cny * cnz;
            if n <= COARSE_DIRECT_MAX || ncoarse >= n || levels.len() + 1 >= MAX_LEVELS {
                // This level becomes the direct coarse solve.
                let mut dense = vec![0.0f64; n * n];
                densify(op, &mut dense);
                let chol = DenseCholesky::factor(&dense, n, context)?;
                aeropack_obs::counter!("solver.mg.setups");
                aeropack_obs::counter!("solver.mg.levels", levels.len() + 1);
                aeropack_obs::histogram!("solver.mg.coarse_unknowns", n);
                let replay = record.then(|| Replay {
                    records,
                    coarse_a: current,
                    dense,
                    spa,
                    cursor: Vec::new(),
                });
                return Ok(Self {
                    levels,
                    chol,
                    coarse_b: vec![0.0; n],
                    coarse_x: vec![0.0; n],
                    hierarchy_nnz,
                    fine_nnz: a.nnz(),
                    fine_eig_high,
                    replay,
                });
            }
            let p0 = tentative_prolongation(aggregate_ids(cur_dims, (cnx, cny, cnz)));
            let omega = 4.0 / (3.0 * eig_high.max(f64::MIN_POSITIVE));
            let passes = if levels.is_empty() {
                PROLONG_SMOOTH_PASSES
            } else {
                1
            };
            let (p, pass_inputs) =
                smoothed_prolongation(&mut spa, op, &diag, omega, passes, p0, record);
            let p = Transfer::with_transpose(n, ncoarse, p);
            let (coarse, ap) = galerkin_product(&mut spa, op, &p);
            if record {
                records.push(LevelRecord { pass_inputs, ap });
            }
            hierarchy_nnz += p.nnz() + coarse.nnz();
            levels.push(MgLevel {
                a: current.take(),
                diag,
                smooth_low: SMOOTH_LOW_FRACTION * eig_high,
                smooth_high: EIG_HIGH_SAFETY * eig_high,
                p,
                x: vec![0.0; n],
                r: vec![0.0; n],
                resid: vec![0.0; n],
                corr: vec![0.0; n],
                cheb: ChebWork::default(),
            });
            current = Some(coarse);
            cur_dims = (cnx, cny, cnz);
        }
    }

    /// Whether this hierarchy was built with a refresh record, so
    /// [`MgHierarchy::refresh`] can bring it up to new values.
    pub(crate) fn can_refresh(&self) -> bool {
        self.replay.is_some()
    }

    /// Brings the hierarchy up to `a`, which has the pattern and grid
    /// shape the hierarchy was built for but new values: redoes the
    /// power-method λ_max estimates, the values of every setup product and the
    /// coarse factor, keeping every pattern, transpose layout and
    /// scratch buffer. Each product is a replay of the build's
    /// accumulation in the same order, so the refreshed hierarchy is
    /// bitwise identical to [`MgHierarchy::build`] on `a` — the
    /// contract that keeps a checkpoint-restored mission (whose
    /// workspace builds cold) on the original trajectory.
    ///
    /// # Errors
    ///
    /// [`SolverError::Singular`] if the coarsest Galerkin operator is
    /// not positive definite; the hierarchy is then unusable and must
    /// be rebuilt.
    ///
    /// # Panics
    ///
    /// Panics if the hierarchy was built without a refresh record.
    pub(crate) fn refresh(
        &mut self,
        a: &CsrMatrix,
        context: &'static str,
    ) -> Result<(), SolverError> {
        let Replay {
            records,
            coarse_a,
            dense,
            spa,
            cursor,
        } = self
            .replay
            .as_mut()
            .expect("hierarchy built with a refresh record");
        for l in 0..self.levels.len() {
            let (head, tail) = self.levels.split_at_mut(l + 1);
            let MgLevel {
                a: level_a,
                diag,
                smooth_low,
                smooth_high,
                p,
                ..
            } = &mut head[l];
            let op: &CsrMatrix = level_a.as_ref().unwrap_or(a);
            op.diag_into(diag);
            let eig_high = estimate_high_with(
                &|x: &[f64], y: &mut [f64]| op.spmv_into(x, y, 1),
                diag,
                POWER_ITERS,
            );
            if l == 0 {
                self.fine_eig_high = eig_high;
            }
            *smooth_low = SMOOTH_LOW_FRACTION * eig_high;
            *smooth_high = EIG_HIGH_SAFETY * eig_high;
            let omega = 4.0 / (3.0 * eig_high.max(f64::MIN_POSITIVE));
            let LevelRecord { pass_inputs, ap } = &mut records[l];
            let diag: &[f64] = diag;
            let smoother = |i| smoother_row(op, diag, omega, i);
            for k in 0..pass_inputs.len() {
                let (done, rest) = pass_inputs.split_at_mut(k + 1);
                let input = done[k].rows();
                match rest.first_mut() {
                    Some(next) => {
                        spa.replay(smoother, input, (&next.row_ptr, &next.cols), &mut next.vals)
                    }
                    None => spa.replay(smoother, input, (&p.row_ptr, &p.cols), &mut p.vals),
                }
            }
            p.refresh_transpose(cursor);
            spa.replay(
                |i| matrix_row(op, i),
                p.rows(),
                (&ap.row_ptr, &ap.cols),
                &mut ap.vals,
            );
            let coarse = match tail.first_mut() {
                Some(next) => next.a.as_mut(),
                None => coarse_a.as_mut(),
            }
            .expect("coarse levels own their Galerkin operator");
            let pattern = coarse.pattern();
            spa.replay(
                |cr| transpose_row(p, cr),
                ap.rows(),
                (pattern.row_offsets(), pattern.col_indices()),
                coarse.values_mut(),
            );
        }
        let coarse: &CsrMatrix = coarse_a.as_ref().unwrap_or(a);
        if self.levels.is_empty() {
            // Direct-only: the build still ran the fine power method for
            // the reported spectral bound.
            let diag = a.diag();
            self.fine_eig_high = estimate_high_with(
                &|x: &[f64], y: &mut [f64]| a.spmv_into(x, y, 1),
                &diag,
                POWER_ITERS,
            );
        }
        densify(coarse, dense);
        self.chol.refactor(dense, context)
    }

    /// Grid levels including the direct coarse level.
    pub(crate) fn level_count(&self) -> usize {
        self.levels.len() + 1
    }

    /// Unknowns on the direct-solve coarse level.
    pub(crate) fn coarse_unknowns(&self) -> usize {
        self.coarse_b.len()
    }

    /// The metadata block reported through
    /// [`SolverStats::spectral`](crate::SolverStats).
    pub(crate) fn spectral_stats(&self, reused: bool) -> SpectralStats {
        let (low, high) = self
            .levels
            .first()
            .map(|l| (l.smooth_low, l.smooth_high))
            .unwrap_or((0.0, self.fine_eig_high));
        SpectralStats {
            levels: self.level_count(),
            smoother: "chebyshev",
            degree: SMOOTH_STEPS,
            eig_low: low,
            eig_high: high,
            coarse_unknowns: self.coarse_unknowns(),
            hierarchy_nnz: self.hierarchy_nnz,
            operator_complexity: self.hierarchy_nnz as f64 / self.fine_nnz.max(1) as f64,
            reused,
        }
    }

    /// One V-cycle: `z ≈ A⁻¹·r`. `fine_op` is the level-0 operator
    /// apply (the caller's SELL-accelerated SpMV), `threads` the worker
    /// count for the coarse-level kernels. Allocation-free on a warm
    /// hierarchy and bitwise identical at any thread count.
    pub(crate) fn apply<F>(&mut self, fine_op: &F, r: &[f64], z: &mut [f64], threads: usize)
    where
        F: Fn(&[f64], &mut [f64]),
    {
        aeropack_obs::counter!("solver.mg.vcycles");
        let nlev = self.levels.len();
        if nlev == 0 {
            // Degenerate hierarchy: the whole problem fit the direct
            // coarse solve.
            self.coarse_b.copy_from_slice(r);
            self.chol.solve_into(&self.coarse_b, &mut self.coarse_x);
            z.copy_from_slice(&self.coarse_x);
            return;
        }
        self.levels[0].r.copy_from_slice(r);
        // Downward sweep: pre-smooth, form the residual, restrict.
        for l in 0..nlev {
            let (head, tail) = self.levels.split_at_mut(l + 1);
            let lvl = &mut head[l];
            let MgLevel {
                a,
                diag,
                smooth_low,
                smooth_high,
                p,
                x,
                r,
                resid,
                corr: _,
                cheb,
            } = lvl;
            let a: &Option<CsrMatrix> = a;
            let op = |v: &[f64], y: &mut [f64]| match a {
                None => fine_op(v, y),
                Some(m) => m.spmv_into(v, y, threads),
            };
            cheb_apply(
                &op,
                diag,
                *smooth_low,
                *smooth_high,
                SMOOTH_STEPS,
                r,
                x,
                cheb,
            );
            op(x, resid);
            for i in 0..resid.len() {
                resid[i] = r[i] - resid[i];
            }
            let next_r: &mut Vec<f64> = match tail.first_mut() {
                Some(next) => &mut next.r,
                None => &mut self.coarse_b,
            };
            p.restrict_into(resid, next_r);
        }
        self.chol.solve_into(&self.coarse_b, &mut self.coarse_x);
        // Upward sweep: prolong the correction, post-smooth.
        for l in (0..nlev).rev() {
            let (head, tail) = self.levels.split_at_mut(l + 1);
            let lvl = &mut head[l];
            let MgLevel {
                a,
                diag,
                smooth_low,
                smooth_high,
                p,
                x,
                r,
                resid,
                corr,
                cheb,
            } = lvl;
            let a: &Option<CsrMatrix> = a;
            let xc: &[f64] = match tail.first() {
                Some(next) => &next.x,
                None => &self.coarse_x,
            };
            p.prolong_add(xc, x);
            let op = |v: &[f64], y: &mut [f64]| match a {
                None => fine_op(v, y),
                Some(m) => m.spmv_into(v, y, threads),
            };
            op(x, resid);
            for i in 0..resid.len() {
                resid[i] = r[i] - resid[i];
            }
            cheb_apply(
                &op,
                diag,
                *smooth_low,
                *smooth_high,
                SMOOTH_STEPS,
                resid,
                corr,
                cheb,
            );
            for i in 0..x.len() {
                x[i] += corr[i];
            }
        }
        z.copy_from_slice(&self.levels[0].x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 7-point Poisson operator on an `nx × ny × nz` grid with
    /// Dirichlet boundaries folded into the diagonal.
    fn poisson3d(nx: usize, ny: usize, nz: usize) -> CsrMatrix {
        let idx = move |ix: usize, iy: usize, iz: usize| ix + nx * (iy + ny * iz);
        CsrMatrix::from_row_fn(nx * ny * nz, 2, move |i, row| {
            let ix = i % nx;
            let iy = (i / nx) % ny;
            let iz = i / (nx * ny);
            row.push((i, 6.0));
            if ix > 0 {
                row.push((idx(ix - 1, iy, iz), -1.0));
            }
            if ix + 1 < nx {
                row.push((idx(ix + 1, iy, iz), -1.0));
            }
            if iy > 0 {
                row.push((idx(ix, iy - 1, iz), -1.0));
            }
            if iy + 1 < ny {
                row.push((idx(ix, iy + 1, iz), -1.0));
            }
            if iz > 0 {
                row.push((idx(ix, iy, iz - 1), -1.0));
            }
            if iz + 1 < nz {
                row.push((idx(ix, iy, iz + 1), -1.0));
            }
        })
    }

    #[test]
    fn vcycle_convergence_factor_below_0_2_on_33cubed_poisson() {
        // The stationary iteration x ← x + B(b − A·x) with B one
        // V-cycle must contract the error by at least 5× per sweep on
        // the 33³ Poisson problem (odd extents exercise the ceil
        // coarsening). The asymptotic factor is measured over late
        // iterations, after the easy error components are gone.
        let (nx, ny, nz) = (33, 33, 33);
        let a = poisson3d(nx, ny, nz);
        let n = a.n();
        let mut mg = MgHierarchy::build(&a, (nx, ny, nz), "mg test").unwrap();
        assert!(mg.level_count() >= 3, "33³ must coarsen more than once");
        let b = vec![0.0; n];
        let mut x: Vec<f64> = (0..n).map(|i| ((i * 37 + 11) % 97) as f64 / 97.0).collect();
        let fine_op = |v: &[f64], y: &mut [f64]| a.spmv_into(v, y, 1);
        let mut resid = vec![0.0; n];
        let mut z = vec![0.0; n];
        let norm = |v: &[f64]| v.iter().map(|t| t * t).sum::<f64>().sqrt();
        let mut factors = Vec::new();
        let mut prev = norm(&x);
        for _ in 0..12 {
            fine_op(&x, &mut resid);
            for i in 0..n {
                resid[i] = b[i] - resid[i];
            }
            mg.apply(&fine_op, &resid, &mut z, 1);
            for i in 0..n {
                x[i] += z[i];
            }
            let e = norm(&x);
            factors.push(e / prev);
            prev = e;
        }
        let late = &factors[factors.len() - 4..];
        let rho = late.iter().product::<f64>().powf(1.0 / late.len() as f64);
        assert!(rho < 0.2, "V-cycle convergence factor {rho} ≥ 0.2");
    }

    #[test]
    fn vcycle_is_deterministic_across_thread_counts() {
        let (nx, ny, nz) = (12, 10, 6);
        let a = poisson3d(nx, ny, nz);
        let n = a.n();
        let r: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).sin() + 1.5).collect();
        let mut reference = vec![0.0; n];
        {
            let mut mg = MgHierarchy::build(&a, (nx, ny, nz), "mg det").unwrap();
            mg.apply(
                &|v: &[f64], y: &mut [f64]| a.spmv_into(v, y, 1),
                &r,
                &mut reference,
                1,
            );
        }
        for threads in [2, 8] {
            let mut mg = MgHierarchy::build(&a, (nx, ny, nz), "mg det").unwrap();
            let mut z = vec![0.0; n];
            mg.apply(
                &|v: &[f64], y: &mut [f64]| a.spmv_into(v, y, threads),
                &r,
                &mut z,
                threads,
            );
            for (p, q) in reference.iter().zip(&z) {
                assert_eq!(p.to_bits(), q.to_bits(), "threads={threads}");
            }
        }
    }

    /// Row-major dense copy of a CSR operand.
    fn dense(nrows: usize, ncols: usize, (ptr, cols, vals): SparseRows<'_>) -> Vec<f64> {
        let mut d = vec![0.0; nrows * ncols];
        for i in 0..nrows {
            for idx in ptr[i]..ptr[i + 1] {
                d[i * ncols + cols[idx]] += vals[idx];
            }
        }
        d
    }

    /// Dense `X·Y` for row-major `X` (`m × k`) and `Y` (`k × n`).
    fn dense_mul(x: &[f64], y: &[f64], m: usize, k: usize, n: usize) -> Vec<f64> {
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for l in 0..k {
                let xil = x[i * k + l];
                if xil != 0.0 {
                    for j in 0..n {
                        out[i * n + j] += xil * y[l * n + j];
                    }
                }
            }
        }
        out
    }

    fn assert_close(label: &str, got: &[f64], want: &[f64]) {
        let scale = want.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let err = got
            .iter()
            .zip(want)
            .fold(0.0f64, |m, (g, w)| m.max((g - w).abs()));
        assert!(
            err <= 1e-12 * scale,
            "{label}: max deviation {err:.3e} vs scale {scale:.3e}"
        );
    }

    #[test]
    fn sparse_accumulator_galerkin_matches_dense_reference() {
        // The finest transfer (two smoothing passes) and a coarser one
        // (one pass) both go through the shared accumulator; each must
        // reproduce the dense (I − ω·D⁻¹A)^s·P₀ and Pᵀ·A·P.
        let (nx, ny, nz) = (12, 10, 6);
        let a = poisson3d(nx, ny, nz);
        let n = a.n();
        let (cnx, cny, cnz) = (nx / 2, ny / 2, nz / 2);
        let nc = cnx * cny * cnz;
        let agg = aggregate_ids((nx, ny, nz), (cnx, cny, cnz));
        let diag = a.diag();
        let omega = 4.0 / (3.0 * 2.0);
        let a_sparse = (a.row_offsets(), a.col_indices(), a.values());
        let a_dense = dense(n, n, a_sparse);
        for passes in [1, 2] {
            let mut spa = SparseAccumulator::new(nc);
            let p0 = tentative_prolongation(agg.clone());
            let (p, _) = smoothed_prolongation(&mut spa, &a, &diag, omega, passes, p0, false);
            let p = Transfer::with_transpose(n, nc, p);
            let mut p_ref = vec![0.0; n * nc];
            for (i, &c) in agg.iter().enumerate() {
                p_ref[i * nc + c] = 1.0;
            }
            let mut smoother = vec![0.0; n * n];
            for i in 0..n {
                smoother[i * n + i] = 1.0;
                for j in 0..n {
                    smoother[i * n + j] -= omega / diag[i] * a_dense[i * n + j];
                }
            }
            for _ in 0..passes {
                p_ref = dense_mul(&smoother, &p_ref, n, n, nc);
            }
            let p_dense = dense(n, nc, (&p.row_ptr, &p.cols, &p.vals));
            assert_close(&format!("P, {passes} pass(es)"), &p_dense, &p_ref);

            let mut pt_ref = vec![0.0; nc * n];
            for i in 0..n {
                for c in 0..nc {
                    pt_ref[c * n + i] = p_ref[i * nc + c];
                }
            }
            let ap = dense_mul(&a_dense, &p_ref, n, n, nc);
            let ac_ref = dense_mul(&pt_ref, &ap, nc, n, nc);
            let (ac, _) = galerkin_product(&mut spa, &a, &p);
            let ac_dense = dense(nc, nc, (ac.row_offsets(), ac.col_indices(), ac.values()));
            assert_close(&format!("PᵀAP, {passes} pass(es)"), &ac_dense, &ac_ref);
        }
    }

    #[test]
    fn operator_complexity_stays_below_4_5_on_32cubed_poisson() {
        let a = poisson3d(32, 32, 32);
        let mg = MgHierarchy::build(&a, (32, 32, 32), "mg complexity").unwrap();
        let stats = mg.spectral_stats(false);
        assert!(stats.levels >= 3, "32³ must coarsen more than once");
        assert!(
            stats.operator_complexity <= 4.5,
            "operator complexity {:.2} > 4.5",
            stats.operator_complexity
        );
    }

    /// `a` with `shift(i)` added to each diagonal entry, over the same
    /// pattern — the shape of a mission's values-only changes: a `dt`
    /// change moves every `C/dt` term, a radiation relinearisation the
    /// boundary coefficients of the radiating face's rows.
    fn with_diagonal_shift(a: &CsrMatrix, shift: impl Fn(usize) -> f64 + Sync) -> CsrMatrix {
        let (ptr, cols, vals) = (a.row_offsets(), a.col_indices(), a.values());
        CsrMatrix::from_pattern_row_fn(&a.pattern(), 1, |i, row| {
            for idx in ptr[i]..ptr[i + 1] {
                let c = cols[idx];
                row.push((
                    c,
                    if c == i {
                        vals[idx] + shift(i)
                    } else {
                        vals[idx]
                    },
                ));
            }
        })
    }

    /// Builds a refreshable hierarchy on Poisson over `dims`, refreshes
    /// it through two values-only changes in a row and checks each
    /// against a cold build of the same matrix: equal spectral stats
    /// and bit-equal V-cycles at 1 and 2 threads. Returns the level
    /// count.
    fn assert_refresh_matches_cold_build(dims: (usize, usize, usize)) -> usize {
        let a0 = poisson3d(dims.0, dims.1, dims.2);
        let n = a0.n();
        let r: Vec<f64> = (0..n).map(|i| (i as f64 * 0.29).cos() + 0.4).collect();
        let mut refreshed = MgHierarchy::build_refreshable(&a0, dims, "mg refresh").unwrap();
        // Warm the V-cycle scratch first: a refresh must not depend on it.
        let mut z = vec![0.0; n];
        refreshed.apply(
            &|v: &[f64], y: &mut [f64]| a0.spmv_into(v, y, 1),
            &r,
            &mut z,
            1,
        );
        let dt_change = with_diagonal_shift(&a0, |_| 0.37);
        let top_face = dims.0 * dims.1 * (dims.2 - 1);
        let relinearised =
            with_diagonal_shift(&dt_change, |i| if i >= top_face { 1.9 } else { 0.0 });
        for (label, a) in [
            ("dt change", &dt_change),
            ("relinearisation", &relinearised),
        ] {
            refreshed.refresh(a, "mg refresh").unwrap();
            let mut cold = MgHierarchy::build(a, dims, "mg cold").unwrap();
            assert_eq!(
                refreshed.spectral_stats(false),
                cold.spectral_stats(false),
                "{label}"
            );
            for threads in [1, 2] {
                let op = |v: &[f64], y: &mut [f64]| a.spmv_into(v, y, threads);
                let (mut z_refreshed, mut z_cold) = (vec![0.0; n], vec![0.0; n]);
                refreshed.apply(&op, &r, &mut z_refreshed, threads);
                cold.apply(&op, &r, &mut z_cold, threads);
                for (p, q) in z_refreshed.iter().zip(&z_cold) {
                    assert_eq!(p.to_bits(), q.to_bits(), "{label}, threads={threads}");
                }
            }
        }
        refreshed.level_count()
    }

    #[test]
    fn refresh_is_bitwise_identical_to_a_cold_build() {
        assert!(assert_refresh_matches_cold_build((16, 12, 8)) >= 3);
        // Direct-only: the refresh is a refactorisation of the operator.
        assert_eq!(assert_refresh_matches_cold_build((4, 4, 4)), 1);
    }

    #[test]
    fn degenerate_small_grid_uses_direct_solve_only() {
        let a = poisson3d(4, 4, 4);
        let mut mg = MgHierarchy::build(&a, (4, 4, 4), "mg tiny").unwrap();
        assert_eq!(mg.level_count(), 1);
        let n = a.n();
        let r = vec![1.0; n];
        let mut z = vec![0.0; n];
        mg.apply(
            &|v: &[f64], y: &mut [f64]| a.spmv_into(v, y, 1),
            &r,
            &mut z,
            1,
        );
        // The "preconditioner" is exact here: A·z must equal r.
        let az = a.spmv(&z);
        for (p, q) in az.iter().zip(&r) {
            assert!((p - q).abs() < 1e-9);
        }
    }
}
