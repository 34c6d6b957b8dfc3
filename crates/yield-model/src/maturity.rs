//! Yield learning: defect density and systematic yield improve with
//! cumulative manufacturing volume.
//!
//! The paper stresses that yield "is a complex function of … process
//! maturity as well as volume". This module provides the standard
//! exponential learning curve for defect density and a volume-driven ramp
//! for systematic (non-defect) yield losses.

use nanocost_units::{UnitError, WaferCount, Yield};

use crate::defect::DefectDensity;

/// Exponential defect-density learning curve:
///
/// ```text
/// D0(V) = D_mature + (D_initial − D_mature) · exp(−V / learning_volume)
/// ```
///
/// where `V` is cumulative wafer volume. Every fab starts dirty and cleans
/// up as it learns; high-volume products therefore enjoy both amortized
/// design cost *and* better yield — the coupling behind the paper's
/// Figure 4(a) vs 4(b) contrast.
///
/// ```
/// use nanocost_units::WaferCount;
/// use nanocost_yield::{DefectDensity, LearningCurve};
///
/// let curve = LearningCurve::new(
///     DefectDensity::per_cm2(2.0)?,
///     DefectDensity::per_cm2(0.3)?,
///     20_000.0,
/// )?;
/// let early = curve.defect_density(WaferCount::new(1_000)?);
/// let late = curve.defect_density(WaferCount::new(100_000)?);
/// assert!(early.value() > late.value());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LearningCurve {
    initial: DefectDensity,
    mature: DefectDensity,
    learning_volume: f64,
}

impl LearningCurve {
    /// Creates a learning curve — the process-maturity dependence the
    /// paper folds into eq. 7's `Y(…, N_w)`.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] if `initial < mature` (a fab does not get
    /// dirtier with experience) or `learning_volume` is not strictly
    /// positive and finite.
    pub fn new(
        initial: DefectDensity,
        mature: DefectDensity,
        learning_volume: f64,
    ) -> Result<Self, UnitError> {
        if !learning_volume.is_finite() {
            return Err(UnitError::NonFinite {
                quantity: "learning volume",
            });
        }
        if learning_volume <= 0.0 {
            return Err(UnitError::NotPositive {
                quantity: "learning volume",
                value: learning_volume,
            });
        }
        if initial.value() < mature.value() {
            return Err(UnitError::OutOfRange {
                quantity: "initial defect density",
                value: initial.value(),
                min: mature.value(),
                max: f64::INFINITY,
            });
        }
        Ok(LearningCurve {
            initial,
            mature,
            learning_volume,
        })
    }

    /// Defect density after `volume` cumulative wafers — the maturity
    /// axis of eq. 7's `Y(N_w)`.
    #[must_use]
    pub fn defect_density(&self, volume: WaferCount) -> DefectDensity {
        let v = volume.as_f64();
        let d = self.mature.value()
            + (self.initial.value() - self.mature.value()) * (-v / self.learning_volume).exp();
        DefectDensity::per_cm2(d).expect("interpolation of valid densities is valid") // nanocost-audit: allow(R1, reason = "documented invariant: interpolation of valid densities is valid")
    }
}

/// Volume-driven systematic-yield ramp:
///
/// ```text
/// Y_sys(V) = mature_yield − (mature_yield − initial_yield) · exp(−V / ramp_volume)
/// ```
///
/// Systematic losses (lithography hotspots, etch micro-loading, parametric
/// excursions) dominate early life of nanometer processes and are fixed one
/// root-cause at a time, hence the same exponential shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystematicRamp {
    initial: Yield,
    mature: Yield,
    ramp_volume: f64,
}

impl SystematicRamp {
    /// Creates a ramp — the systematic half of the paper's "complex
    /// function of … process maturity as well as volume".
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] if `initial > mature` or `ramp_volume` is not
    /// strictly positive and finite.
    pub fn new(initial: Yield, mature: Yield, ramp_volume: f64) -> Result<Self, UnitError> {
        if !ramp_volume.is_finite() {
            return Err(UnitError::NonFinite {
                quantity: "ramp volume",
            });
        }
        if ramp_volume <= 0.0 {
            return Err(UnitError::NotPositive {
                quantity: "ramp volume",
                value: ramp_volume,
            });
        }
        if initial.value() > mature.value() {
            return Err(UnitError::OutOfRange {
                quantity: "initial systematic yield",
                value: initial.value(),
                min: 0.0,
                max: mature.value(),
            });
        }
        Ok(SystematicRamp {
            initial,
            mature,
            ramp_volume,
        })
    }

    /// A ramp that is always at its mature value (no systematic losses
    /// modeled — the systematic term of eq. 7's `Y` held constant).
    #[must_use]
    pub fn flat(mature: Yield) -> Self {
        SystematicRamp {
            initial: mature,
            mature,
            ramp_volume: 1.0,
        }
    }

    /// Systematic yield after `volume` cumulative wafers — the
    /// `N_w`-driven systematic term of eq. 7's `Y`.
    #[must_use]
    pub fn systematic_yield(&self, volume: WaferCount) -> Yield {
        let v = volume.as_f64();
        let y = self.mature.value()
            - (self.mature.value() - self.initial.value()) * (-v / self.ramp_volume).exp();
        Yield::clamped(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(v: f64) -> DefectDensity {
        DefectDensity::per_cm2(v).unwrap()
    }

    fn wafers(n: u64) -> WaferCount {
        WaferCount::new(n).unwrap()
    }

    #[test]
    fn learning_curve_is_monotone_decreasing() {
        let c = LearningCurve::new(d(2.0), d(0.3), 10_000.0).unwrap();
        let mut prev = f64::INFINITY;
        for v in [1u64, 100, 1_000, 10_000, 100_000, 1_000_000] {
            let now = c.defect_density(wafers(v)).value();
            assert!(now < prev, "density should fall with volume");
            prev = now;
        }
    }

    #[test]
    fn learning_curve_limits() {
        let c = LearningCurve::new(d(2.0), d(0.3), 10_000.0).unwrap();
        // One wafer: essentially day-one density.
        assert!((c.defect_density(wafers(1)).value() - 2.0).abs() < 0.001);
        // Ten learning volumes: essentially mature.
        assert!((c.defect_density(wafers(100_000)).value() - 0.3).abs() < 0.001);
    }

    #[test]
    fn learning_curve_rejects_inverted_densities() {
        assert!(LearningCurve::new(d(0.1), d(0.5), 1000.0).is_err());
        assert!(LearningCurve::new(d(1.0), d(0.5), 0.0).is_err());
    }

    #[test]
    fn systematic_ramp_is_monotone_increasing() {
        let r = SystematicRamp::new(
            Yield::new(0.5).unwrap(),
            Yield::new(0.95).unwrap(),
            20_000.0,
        )
        .unwrap();
        let early = r.systematic_yield(wafers(1_000)).value();
        let late = r.systematic_yield(wafers(200_000)).value();
        assert!(early < late);
        assert!((late - 0.95).abs() < 0.001);
    }

    #[test]
    fn flat_ramp_is_constant() {
        let r = SystematicRamp::flat(Yield::new(0.9).unwrap());
        assert_eq!(r.systematic_yield(wafers(1)).value(), 0.9);
        assert_eq!(r.systematic_yield(wafers(1_000_000)).value(), 0.9);
    }

    #[test]
    fn ramp_rejects_inverted_yields() {
        assert!(SystematicRamp::new(
            Yield::new(0.9).unwrap(),
            Yield::new(0.5).unwrap(),
            1000.0
        )
        .is_err());
    }
}
