//! Dense direct factorisations over row-major storage: Cholesky for
//! SPD systems (thermal networks, FEM stiffness) and LU with partial
//! pivoting for general systems.

use std::time::Instant;

use crate::config::{Solution, SolverConfig};
use crate::error::SolverError;
use crate::stats::{Method, SolverStats};

/// A Cholesky factorisation `A = L·Lᵀ` of a symmetric positive-definite
/// matrix, stored as the row-major lower factor.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseCholesky {
    n: usize,
    l: Vec<f64>,
}

impl DenseCholesky {
    /// Factorises a row-major `n × n` SPD matrix (only the lower
    /// triangle is read).
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::Singular`] when the matrix is not
    /// positive definite, and [`SolverError::InvalidInput`] on a length
    /// mismatch.
    pub fn factor(a: &[f64], n: usize, context: &'static str) -> Result<Self, SolverError> {
        if a.len() != n * n {
            return Err(SolverError::invalid(format!(
                "matrix length {} does not match n²={}",
                a.len(),
                n * n
            )));
        }
        let mut chol = Self {
            n,
            l: vec![0.0; n * n],
        };
        chol.refactor(a, context)?;
        Ok(chol)
    }

    /// Refactorises in place from a new row-major matrix of the same
    /// dimension, reusing the factor's storage. Bitwise identical to
    /// [`DenseCholesky::factor`] on the same matrix. On error the
    /// factor's content is unspecified.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not `n × n` for this factor's `n`.
    pub(crate) fn refactor(&mut self, a: &[f64], context: &'static str) -> Result<(), SolverError> {
        let n = self.n;
        assert_eq!(a.len(), n * n, "matrix length mismatch");
        let l = self.l.as_mut_slice();
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[i * n + j];
                for k in 0..j {
                    sum -= l[i * n + k] * l[j * n + k];
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(SolverError::Singular { context });
                    }
                    l[i * n + j] = sum.sqrt();
                } else {
                    l[i * n + j] = sum / l[j * n + j];
                }
            }
        }
        aeropack_obs::counter!("solver.cholesky.factorizations");
        Ok(())
    }

    /// Problem dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The row-major lower factor (entries above the diagonal are
    /// zero).
    pub fn l_raw(&self) -> &[f64] {
        &self.l
    }

    /// Solves `A·x = b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` has the wrong length.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        aeropack_obs::counter!("solver.cholesky.solves");
        self.backward(&self.forward(b))
    }

    /// Allocation-free counterpart of [`DenseCholesky::solve`]: writes
    /// the solution into `x`. Bitwise identical to `solve` (the same
    /// substitution arithmetic runs in place). Used by the multigrid
    /// coarse-level solve, which must stay allocation-free on warm
    /// workspaces.
    ///
    /// # Panics
    ///
    /// Panics if `b` or `x` has the wrong length.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) {
        let n = self.n;
        assert_eq!(b.len(), n, "rhs length mismatch");
        assert_eq!(x.len(), n, "solution length mismatch");
        aeropack_obs::counter!("solver.cholesky.solves");
        x.copy_from_slice(b);
        for i in 0..n {
            for k in 0..i {
                x[i] -= self.l[i * n + k] * x[k];
            }
            x[i] /= self.l[i * n + i];
        }
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                x[i] -= self.l[k * n + i] * x[k];
            }
            x[i] /= self.l[i * n + i];
        }
    }

    /// Solves `A·X = B` for `k` right-hand sides stored contiguously in
    /// `b` (`k·n` values, one RHS after another), with a single
    /// traversal of the factor applied to all columns at each
    /// elimination step — the true multi-column substitution batched
    /// solves use. Returns the solutions in the same contiguous layout.
    ///
    /// Column `j` of the result is bitwise identical to
    /// `self.solve(&b[j*n..(j+1)*n])`: the per-column arithmetic and
    /// its order are unchanged, only the loop nest is interchanged.
    ///
    /// # Panics
    ///
    /// Panics if `b` is empty or not a multiple of `n` in length.
    pub fn solve_multi(&self, b: &[f64]) -> Vec<f64> {
        let n = self.n;
        assert!(
            n > 0 && !b.is_empty() && b.len().is_multiple_of(n),
            "rhs block length {} is not a positive multiple of n={n}",
            b.len()
        );
        let k = b.len() / n;
        aeropack_obs::counter!("solver.cholesky.solves", k);
        let mut x = b.to_vec();
        // Forward: L·Y = B, all k columns advanced together per row i.
        for i in 0..n {
            for j in 0..k {
                let col = &mut x[j * n..(j + 1) * n];
                let mut yi = col[i];
                for (m, lim) in self.l[i * n..i * n + i].iter().enumerate() {
                    yi -= lim * col[m];
                }
                col[i] = yi / self.l[i * n + i];
            }
        }
        // Backward: Lᵀ·X = Y.
        for i in (0..n).rev() {
            for j in 0..k {
                let col = &mut x[j * n..(j + 1) * n];
                let mut xi = col[i];
                for (m, &cm) in col.iter().enumerate().skip(i + 1) {
                    xi -= self.l[m * n + i] * cm;
                }
                col[i] = xi / self.l[i * n + i];
            }
        }
        x
    }

    /// Forward substitution only: solves `L·y = b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` has the wrong length.
    pub fn forward(&self, b: &[f64]) -> Vec<f64> {
        let n = self.n;
        assert_eq!(b.len(), n, "rhs length mismatch");
        let mut y = b.to_vec();
        for i in 0..n {
            for k in 0..i {
                y[i] -= self.l[i * n + k] * y[k];
            }
            y[i] /= self.l[i * n + i];
        }
        y
    }

    /// Back substitution only: solves `Lᵀ·x = b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` has the wrong length.
    pub fn backward(&self, b: &[f64]) -> Vec<f64> {
        let n = self.n;
        assert_eq!(b.len(), n, "rhs length mismatch");
        let mut x = b.to_vec();
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                x[i] -= self.l[k * n + i] * x[k];
            }
            x[i] /= self.l[i * n + i];
        }
        x
    }
}

/// An LU factorisation with partial pivoting over row-major storage.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseLu {
    n: usize,
    lu: Vec<f64>,
    pivots: Vec<usize>,
}

impl DenseLu {
    /// Factorises a row-major `n × n` matrix.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::Singular`] if a pivot underflows, and
    /// [`SolverError::InvalidInput`] on a length mismatch.
    pub fn factor(a: &[f64], n: usize, context: &'static str) -> Result<Self, SolverError> {
        if a.len() != n * n {
            return Err(SolverError::invalid(format!(
                "matrix length {} does not match n²={}",
                a.len(),
                n * n
            )));
        }
        let mut lu = a.to_vec();
        let mut pivots = vec![0usize; n];
        for k in 0..n {
            let mut p = k;
            let mut best = lu[k * n + k].abs();
            for i in (k + 1)..n {
                let v = lu[i * n + k].abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best < 1e-300 {
                return Err(SolverError::Singular { context });
            }
            pivots[k] = p;
            if p != k {
                for j in 0..n {
                    lu.swap(k * n + j, p * n + j);
                }
            }
            let inv = 1.0 / lu[k * n + k];
            for i in (k + 1)..n {
                let f = lu[i * n + k] * inv;
                lu[i * n + k] = f;
                for j in (k + 1)..n {
                    let v = lu[k * n + j];
                    lu[i * n + j] -= f * v;
                }
            }
        }
        aeropack_obs::counter!("solver.lu.factorizations");
        Ok(Self { n, lu, pivots })
    }

    /// Problem dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Solves `A·x = b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` has the wrong length.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        aeropack_obs::counter!("solver.lu.solves");
        let n = self.n;
        assert_eq!(b.len(), n, "rhs length mismatch");
        let mut x = b.to_vec();
        // Apply the full row permutation first; the stored multipliers
        // are in final (fully pivoted) row order.
        for k in 0..n {
            x.swap(k, self.pivots[k]);
        }
        for k in 0..n {
            for i in (k + 1)..n {
                x[i] -= self.lu[i * n + k] * x[k];
            }
        }
        for k in (0..n).rev() {
            for j in (k + 1)..n {
                x[k] -= self.lu[k * n + j] * x[j];
            }
            x[k] /= self.lu[k * n + k];
        }
        x
    }
}

/// Solves a dense row-major `n × n` system through the configured
/// direct method ([`Method::Cholesky`] or [`Method::Lu`]), returning
/// the solution together with its [`SolverStats`] (the achieved
/// residual is measured against the intact input matrix).
///
/// # Errors
///
/// Returns [`SolverError::Singular`] for indefinite/singular matrices,
/// and [`SolverError::InvalidInput`] for dimension mismatches or an
/// iterative method selection (use [`solve_sparse`](crate::solve_sparse)
/// for those).
pub fn solve_dense(
    a: &[f64],
    n: usize,
    b: &[f64],
    cfg: &SolverConfig,
) -> Result<Solution, SolverError> {
    if b.len() != n {
        return Err(SolverError::invalid(format!(
            "rhs length {} does not match n={n}",
            b.len()
        )));
    }
    let context = cfg.get_context();
    let start = Instant::now();
    let (x, method) = match cfg.get_method() {
        Method::Cholesky => (
            DenseCholesky::factor(a, n, context)?.solve(b),
            Method::Cholesky,
        ),
        Method::Lu => (DenseLu::factor(a, n, context)?.solve(b), Method::Lu),
        other => {
            return Err(SolverError::invalid(format!(
                "solve_dense supports Cholesky/LU, not {other}"
            )))
        }
    };
    // Relative residual against the intact matrix.
    let b_norm = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    let mut r_norm = 0.0f64;
    for i in 0..n {
        let ax: f64 = a[i * n..(i + 1) * n]
            .iter()
            .zip(&x)
            .map(|(p, q)| p * q)
            .sum();
        r_norm += (b[i] - ax).powi(2);
    }
    let final_residual = if b_norm > 0.0 {
        r_norm.sqrt() / b_norm
    } else {
        0.0
    };
    Ok(Solution {
        x,
        stats: SolverStats::direct(context, method, n, final_residual, start.elapsed()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Precond;

    #[test]
    fn cholesky_solves_spd() {
        let a = [4.0, 1.0, 1.0, 3.0];
        let x = DenseCholesky::factor(&a, 2, "test")
            .unwrap()
            .solve(&[1.0, 2.0]);
        assert!((x[0] - 1.0 / 11.0).abs() < 1e-12);
        assert!((x[1] - 7.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn solve_multi_matches_column_by_column() {
        let n = 4;
        // SPD: diagonally dominant symmetric matrix.
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                a[i * n + j] = if i == j {
                    6.0 + i as f64
                } else {
                    1.0 / (1.0 + (i as f64 - j as f64).abs())
                };
            }
        }
        let chol = DenseCholesky::factor(&a, n, "test").unwrap();
        let k = 3;
        let block: Vec<f64> = (0..k * n).map(|i| (i as f64 * 0.3).sin() + 2.0).collect();
        let multi = chol.solve_multi(&block);
        for j in 0..k {
            let single = chol.solve(&block[j * n..(j + 1) * n]);
            assert_eq!(&multi[j * n..(j + 1) * n], single.as_slice(), "column {j}");
        }
    }

    #[test]
    #[should_panic(expected = "not a positive multiple")]
    fn solve_multi_rejects_ragged_block() {
        let a = [4.0, 1.0, 1.0, 3.0];
        let chol = DenseCholesky::factor(&a, 2, "test").unwrap();
        let _ = chol.solve_multi(&[1.0; 3]);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = [1.0, 2.0, 2.0, 1.0];
        assert!(matches!(
            DenseCholesky::factor(&a, 2, "test"),
            Err(SolverError::Singular { context: "test" })
        ));
    }

    #[test]
    fn lu_solves_unsymmetric() {
        let a = [2.0, 1.0, 1.0, 1.0, 3.0, 2.0, 1.0, 0.0, 0.0];
        let x = DenseLu::factor(&a, 3, "test")
            .unwrap()
            .solve(&[4.0, 5.0, 6.0]);
        assert!((x[0] - 6.0).abs() < 1e-12);
        assert!((x[1] - 15.0).abs() < 1e-12);
        assert!((x[2] + 23.0).abs() < 1e-12);
    }

    #[test]
    fn lu_detects_singularity() {
        let a = [1.0, 2.0, 2.0, 4.0];
        assert!(DenseLu::factor(&a, 2, "test").is_err());
    }

    #[test]
    fn solve_dense_reports_stats() {
        let a = [4.0, 1.0, 1.0, 3.0];
        let cfg = SolverConfig::new()
            .method(Method::Cholesky)
            .context("stats test");
        let sol = solve_dense(&a, 2, &[1.0, 2.0], &cfg).unwrap();
        assert_eq!(sol.stats.method, Method::Cholesky);
        assert_eq!(sol.stats.preconditioner, Precond::None);
        assert_eq!(sol.stats.iterations, 0);
        assert!(sol.stats.final_residual < 1e-14);
        assert!(sol.stats.converged());
        assert!(sol.stats.to_string().contains("stats test"));
    }

    #[test]
    fn solve_dense_rejects_iterative_method() {
        let a = [1.0];
        let cfg = SolverConfig::new().method(Method::Pcg);
        assert!(matches!(
            solve_dense(&a, 1, &[1.0], &cfg),
            Err(SolverError::InvalidInput { .. })
        ));
    }
}
