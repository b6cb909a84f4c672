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
//! `A_c = Pᵀ·A·P`, and solves the coarsest level directly with the
//! existing dense Cholesky. Each
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
//! The hierarchy is deterministic end to end: aggregation is a pure
//! index map, every setup product runs serially through one sparse
//! accumulator that sums each entry in a fixed order, and the
//! smoothers/transfers partition by contiguous row blocks.

use crate::cheb::{cheb_apply, estimate_bounds_with, ChebWork, EIG_HIGH_SAFETY, POWER_ITERS};
use crate::csr::CsrMatrix;
use crate::dense::DenseCholesky;
use crate::error::SolverError;
use crate::stats::SpectralStats;

/// Coarsest-level size at which the hierarchy stops and a dense
/// Cholesky factorisation takes over.
const COARSE_DIRECT_MAX: usize = 600;
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
    fn with_transpose(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        cols: Vec<usize>,
        vals: Vec<f64>,
    ) -> Self {
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

/// Jacobi-smoothing passes applied to the tentative prolongation of the
/// **finest** transfer (level 0 → 1); every coarser transfer takes one
/// pass. The second fine pass buys a noticeably better low-mode
/// interpolation (the V-cycle limiter under 8× coarsening): one pass
/// everywhere measured ρ ≈ 0.26 on 33³ Poisson. Below the finest level
/// each pass widens the next Galerkin stencil again, so one pass there
/// keeps the 64³ operator complexity at 4.0 instead of 7.1 (see the
/// module docs).
const PROLONG_SMOOTH_PASSES: usize = 2;

/// Builds the smoothed-aggregation prolongation
/// `P = (I − ω·D⁻¹·A)^s · P₀` where `P₀[i, agg(i)] = 1`, `diag` is the
/// diagonal `D` of `a` and `s = passes`. Row `i` of `P` spans the
/// aggregates of `i`'s `s`-hop stencil neighbourhood.
fn smoothed_prolongation(
    spa: &mut SparseAccumulator,
    a: &CsrMatrix,
    diag: &[f64],
    agg: &[usize],
    ncoarse: usize,
    omega: f64,
    passes: usize,
) -> Transfer {
    let n = a.n();
    let mut row_ptr: Vec<usize> = (0..=n).collect();
    let mut cols: Vec<usize> = agg.to_vec();
    let mut vals: Vec<f64> = vec![1.0; n];
    let (a_ptr, a_cols, a_vals) = (a.row_offsets(), a.col_indices(), a.values());
    for _ in 0..passes {
        // Row i of S = I − ω·D⁻¹·A: the identity entry first, then the
        // scaled row of A.
        (row_ptr, cols, vals) = spa.product(
            n,
            |i| {
                let scale = -omega / diag[i];
                std::iter::once((i, 1.0)).chain(
                    (a_ptr[i]..a_ptr[i + 1]).map(move |idx| (a_cols[idx], scale * a_vals[idx])),
                )
            },
            (&row_ptr, &cols, &vals),
        );
    }
    Transfer::with_transpose(n, ncoarse, row_ptr, cols, vals)
}

/// CSR triplets `(row_ptr, cols, vals)` of a sparse operand.
type SparseRows<'a> = (&'a [usize], &'a [usize], &'a [f64]);

/// The sparse accumulator behind every setup product: a dense value
/// array indexed by output column, a dense marker array recording which
/// output row last touched each column (membership in O(1), no scan and
/// no per-row sort of duplicate entries), and the columns the current
/// row touched. A column's contributions are summed in arrival order
/// and each row is emitted in ascending column order, so every product
/// is deterministic. Its width bounds the column count of every product
/// it runs.
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

    /// The sparse product `L·R` over `nrows` output rows, where
    /// `left_row(i)` yields the `(k, l_ik)` entries of row `i` of `L`
    /// in the order they are to be accumulated and `right` holds `R`
    /// (whose column count is at most this accumulator's width).
    fn product<L, I>(
        &mut self,
        nrows: usize,
        left_row: L,
        right: SparseRows<'_>,
    ) -> (Vec<usize>, Vec<usize>, Vec<f64>)
    where
        L: Fn(usize) -> I,
        I: Iterator<Item = (usize, f64)>,
    {
        let (r_ptr, r_cols, r_vals) = right;
        let mut row_ptr = Vec::with_capacity(nrows + 1);
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0);
        for i in 0..nrows {
            for (k, w) in left_row(i) {
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
            self.touched.sort_unstable();
            for &c in &self.touched {
                cols.push(c);
                vals.push(self.vals[c]);
            }
            self.touched.clear();
            self.row += 1;
            row_ptr.push(cols.len());
        }
        (row_ptr, cols, vals)
    }
}

/// Assembles the Galerkin coarse operator `A_c = Pᵀ·(A·P)` as two
/// products through the shared [`SparseAccumulator`], so it is
/// deterministic.
fn galerkin_product(spa: &mut SparseAccumulator, a: &CsrMatrix, p: &Transfer) -> CsrMatrix {
    let nc = p.ncols;
    let (a_ptr, a_cols, a_vals) = (a.row_offsets(), a.col_indices(), a.values());
    let (ap_ptr, ap_cols, ap_vals) = spa.product(
        a.n(),
        |i| (a_ptr[i]..a_ptr[i + 1]).map(|idx| (a_cols[idx], a_vals[idx])),
        (&p.row_ptr, &p.cols, &p.vals),
    );
    let (c_ptr, c_cols, c_vals) = spa.product(
        nc,
        |cr| (p.t_row_ptr[cr]..p.t_row_ptr[cr + 1]).map(|t| (p.t_cols[t], p.t_vals[t])),
        (&ap_ptr, &ap_cols, &ap_vals),
    );
    CsrMatrix::from_parts(nc, c_ptr, c_cols, c_vals)
}

impl MgHierarchy {
    /// Builds the hierarchy for the fine operator `a` on the declared
    /// grid shape. `dims` must multiply out to `a.n()` (validated by
    /// the caller). Setup is serial and allocation-heavy by design —
    /// the result is cached and every *application* is allocation-free.
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
        let mut levels: Vec<MgLevel> = Vec::new();
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
            let bounds = estimate_bounds_with(
                &|x: &[f64], y: &mut [f64]| op.spmv_into(x, y, 1),
                &diag,
                POWER_ITERS,
            );
            if levels.is_empty() {
                fine_eig_high = bounds.high;
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
                for i in 0..n {
                    for idx in op.row_offsets()[i]..op.row_offsets()[i + 1] {
                        dense[i * n + op.col_indices()[idx]] = op.values()[idx];
                    }
                }
                let chol = DenseCholesky::factor(&dense, n, context)?;
                aeropack_obs::counter!("solver.mg.setups");
                aeropack_obs::counter!("solver.mg.levels", levels.len() + 1);
                aeropack_obs::histogram!("solver.mg.coarse_unknowns", n);
                return Ok(Self {
                    levels,
                    chol,
                    coarse_b: vec![0.0; n],
                    coarse_x: vec![0.0; n],
                    hierarchy_nnz,
                    fine_nnz: a.nnz(),
                    fine_eig_high,
                });
            }
            let agg = aggregate_ids(cur_dims, (cnx, cny, cnz));
            let omega = 4.0 / (3.0 * bounds.high.max(f64::MIN_POSITIVE));
            let passes = if levels.is_empty() {
                PROLONG_SMOOTH_PASSES
            } else {
                1
            };
            let p = smoothed_prolongation(&mut spa, op, &diag, &agg, ncoarse, omega, passes);
            let coarse = galerkin_product(&mut spa, op, &p);
            hierarchy_nnz += p.nnz() + coarse.nnz();
            levels.push(MgLevel {
                a: current.take(),
                diag,
                smooth_low: SMOOTH_LOW_FRACTION * bounds.high,
                smooth_high: EIG_HIGH_SAFETY * bounds.high,
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
            let p = smoothed_prolongation(&mut spa, &a, &diag, &agg, nc, omega, passes);
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
            let ac = galerkin_product(&mut spa, &a, &p);
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
