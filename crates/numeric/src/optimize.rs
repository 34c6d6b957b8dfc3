//! One-dimensional minimization: golden-section search and grid scan.
//!
//! The core use downstream is locating the optimal decompression index
//! `s_d*` that minimizes the transistor cost `C_tr(s_d)` of eq. (4) — a
//! smooth unimodal function on an interval — so a derivative-free bracketing
//! method is the right tool.

use crate::error::NumericError;

/// The result of a one-dimensional minimization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Minimum {
    /// Abscissa of the located minimum.
    pub x: f64,
    /// Objective value at [`Minimum::x`].
    pub value: f64,
    /// Number of objective evaluations spent.
    pub evaluations: usize,
}

/// Minimizes a unimodal `f` on `[lo, hi]` by golden-section search.
///
/// Runs until the bracket is narrower than `tol` (absolute, in `x` units).
///
/// # Errors
///
/// Returns [`NumericError::InvalidInput`] if the interval is empty or
/// reversed, if `tol` is not strictly positive, or if `f` returns a
/// non-finite value; returns [`NumericError::NoConvergence`] if the bracket
/// fails to shrink below `tol` within 10 000 iterations (possible only for
/// pathological `tol` relative to floating-point spacing).
pub(crate) fn golden_section_min(
    lo: f64,
    hi: f64,
    tol: f64,
    mut f: impl FnMut(f64) -> f64,
) -> Result<Minimum, NumericError> {
    const ROUTINE: &str = "golden_section_min";
    const MAX_ITER: usize = 10_000;
    if !(lo.is_finite() && hi.is_finite()) || lo >= hi {
        return Err(NumericError::InvalidInput {
            routine: ROUTINE,
            reason: "interval must be finite with lo < hi",
        });
    }
    if !(tol.is_finite() && tol > 0.0) {
        return Err(NumericError::InvalidInput {
            routine: ROUTINE,
            reason: "tolerance must be positive",
        });
    }
    let inv_phi = (5f64.sqrt() - 1.0) / 2.0; // 1/φ ≈ 0.618
    let mut a = lo;
    let mut b = hi;
    let mut c = b - inv_phi * (b - a);
    let mut d = a + inv_phi * (b - a);
    let mut evaluations = 0;
    let mut eval = |x: f64, evals: &mut usize| -> Result<f64, NumericError> {
        *evals += 1;
        let v = f(x);
        if !v.is_finite() {
            return Err(NumericError::InvalidInput {
                routine: ROUTINE,
                reason: "objective returned a non-finite value",
            });
        }
        Ok(v)
    };
    let mut fc = eval(c, &mut evaluations)?;
    let mut fd = eval(d, &mut evaluations)?;
    for _ in 0..MAX_ITER {
        if (b - a).abs() <= tol {
            let (x, value) = if fc < fd { (c, fc) } else { (d, fd) };
            return Ok(Minimum {
                x,
                value,
                evaluations,
            });
        }
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - inv_phi * (b - a);
            fc = eval(c, &mut evaluations)?;
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + inv_phi * (b - a);
            fd = eval(d, &mut evaluations)?;
        }
    }
    Err(NumericError::NoConvergence {
        routine: ROUTINE,
        iterations: MAX_ITER,
    })
}

/// Minimizes `f` on `[lo, hi]` by evaluating it on a uniform grid of
/// `samples` points and returning the best sample.
///
/// Robust against multimodality (which golden section is not), at the price
/// of resolution `~ (hi-lo)/samples`. Downstream code uses a grid scan to
/// bracket the optimum, then golden section to polish it.
///
/// # Errors
///
/// Returns [`NumericError::InvalidInput`] for an empty/reversed interval,
/// fewer than two samples, or a non-finite objective value.
pub(crate) fn grid_min(
    lo: f64,
    hi: f64,
    samples: usize,
    mut f: impl FnMut(f64) -> f64,
) -> Result<Minimum, NumericError> {
    const ROUTINE: &str = "grid_min";
    if !(lo.is_finite() && hi.is_finite()) || lo >= hi {
        return Err(NumericError::InvalidInput {
            routine: ROUTINE,
            reason: "interval must be finite with lo < hi",
        });
    }
    if samples < 2 {
        return Err(NumericError::InvalidInput {
            routine: ROUTINE,
            reason: "need at least two samples",
        });
    }
    let mut best = Minimum {
        x: lo,
        value: f64::INFINITY,
        evaluations: samples,
    };
    for k in 0..samples {
        let x = lo + (hi - lo) * (k as f64) / ((samples - 1) as f64);
        let v = f(x);
        if !v.is_finite() {
            return Err(NumericError::InvalidInput {
                routine: ROUTINE,
                reason: "objective returned a non-finite value",
            });
        }
        if v < best.value {
            best.x = x;
            best.value = v;
        }
    }
    Ok(best)
}

/// Minimizes a possibly multimodal `f` on `[lo, hi]`: grid scan to locate
/// the best basin, then golden-section polish inside the bracketing cells.
///
/// # Errors
///
/// Returns [`NumericError::InvalidInput`] for an empty/reversed interval,
/// fewer than two samples, a non-positive `tol`, or a non-finite objective
/// value; [`NumericError::NoConvergence`] if the polish fails to shrink
/// below `tol`.
///
/// ```
/// use nanocost_numeric::refine_min;
///
/// let m = refine_min(0.0, 4.0, 16, 1e-9, |x| (x - 1.5).powi(2))?;
/// assert!((m.x - 1.5).abs() < 1e-6);
/// # Ok::<(), nanocost_numeric::NumericError>(())
/// ```
pub fn refine_min(
    lo: f64,
    hi: f64,
    samples: usize,
    tol: f64,
    mut f: impl FnMut(f64) -> f64,
) -> Result<Minimum, NumericError> {
    let coarse = grid_min(lo, hi, samples, &mut f)?;
    let step = (hi - lo) / ((samples - 1) as f64);
    let a = (coarse.x - step).max(lo);
    let b = (coarse.x + step).min(hi);
    let fine = golden_section_min(a, b, tol, &mut f)?;
    let (x, value) = if fine.value <= coarse.value {
        (fine.x, fine.value)
    } else {
        (coarse.x, coarse.value)
    };
    Ok(Minimum {
        x,
        value,
        evaluations: coarse.evaluations + fine.evaluations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_section_finds_parabola_vertex() {
        let m = golden_section_min(-10.0, 10.0, 1e-10, |x| (x - 3.0) * (x - 3.0) + 2.0).unwrap();
        assert!((m.x - 3.0).abs() < 1e-7);
        assert!((m.value - 2.0).abs() < 1e-12);
        assert!(m.evaluations > 10);
    }

    #[test]
    fn golden_section_handles_boundary_minimum() {
        let m = golden_section_min(1.0, 5.0, 1e-9, |x| x).unwrap();
        assert!((m.x - 1.0).abs() < 1e-6);
    }

    #[test]
    fn golden_section_validates() {
        assert!(golden_section_min(1.0, 1.0, 1e-9, |x| x).is_err());
        assert!(golden_section_min(2.0, 1.0, 1e-9, |x| x).is_err());
        assert!(golden_section_min(0.0, 1.0, 0.0, |x| x).is_err());
        assert!(golden_section_min(0.0, 1.0, 1e-9, |_| f64::NAN).is_err());
    }

    #[test]
    fn grid_min_finds_best_sample() {
        let m = grid_min(0.0, 10.0, 101, |x| (x - 7.0).abs()).unwrap();
        assert!((m.x - 7.0).abs() < 0.1 + 1e-12);
        assert_eq!(m.evaluations, 101);
    }

    #[test]
    fn refine_min_beats_grid_resolution() {
        let m = refine_min(0.0, 10.0, 21, 1e-10, |x| (x - 7.13).powi(2)).unwrap();
        assert!((m.x - 7.13).abs() < 1e-6);
    }

    #[test]
    fn refine_min_survives_multimodal_objective() {
        // Two basins; global minimum at x = 8.
        let f = |x: f64| ((x - 2.0).powi(2) + 1.0).min((x - 8.0).powi(2));
        let m = refine_min(0.0, 10.0, 201, 1e-9, f).unwrap();
        assert!((m.x - 8.0).abs() < 1e-5, "{}", m.x);
    }
}
