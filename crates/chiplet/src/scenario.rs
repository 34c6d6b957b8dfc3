//! The SiP scenario: split a monolithic design into `n` chiplets and
//! price the whole package (eq. C5).
//!
//! The scenario composes the paper's eq.-2 area model and eq.-5/6 NRE
//! machinery with the chiplet chain (eqs. C1–C4):
//!
//! ```text
//! C_unit = Σᵢ (C_dieᵢ / Yᵢ + C_KGDᵢ)      silicon, per good chiplet
//!        + C_asm / Y_asm                    substrate + bonding, yielded
//!        + C_pkg                            final package
//!        + (k·C_MA + k·C_DE) / (V·p)        NRE over volume and reuse
//! ```
//!
//! For `n = 1` the assembly terms vanish and the expression collapses
//! to the monolithic die cost — [`ChipletScenario::evaluate`] with one
//! chiplet and [`ChipletModels::monolithic`] must agree, which the
//! test suite pins.

use crate::assembly::{AssemblyKind, AssemblyTech};
use crate::die::{ChipletWafer, CriticalLayerYield};
use crate::kgd::KnownGoodDie;
use crate::nre::SipNre;
use nanocost_trace::provenance;
use nanocost_units::{
    Area, ChipCount, DecompressionIndex, Dollars, FeatureSize, TransistorCount, UnitError, Yield,
};
use nanocost_yield::DefectDensity;

/// One SiP pricing question: a design (transistors at a density on a
/// node), a production volume, and a packaging strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipletScenario {
    /// Process feature size λ.
    pub lambda: FeatureSize,
    /// Design decompression index `s_d` (λ² squares per transistor).
    pub sd: DecompressionIndex,
    /// Total transistors across the whole SiP.
    pub transistors: TransistorCount,
    /// Production volume in shipped units.
    pub units: ChipCount,
    /// How many chiplets the design is split into (1 = monolithic).
    pub chiplets: u32,
    /// How many of those chiplets are distinct designs (each pays its
    /// own mask set and design effort). Must be in `1..=chiplets`.
    pub distinct_designs: u32,
    /// Which substrate carries the chiplets (ignored when
    /// `chiplets == 1`).
    pub assembly: AssemblyKind,
}

impl ChipletScenario {
    /// Validates the cross-field constraints.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] if `chiplets` is zero or
    /// `distinct_designs` is zero or exceeds `chiplets`.
    pub fn validate(&self) -> Result<(), UnitError> {
        if self.chiplets == 0 {
            return Err(UnitError::NotPositive { quantity: "chiplet count", value: 0.0 });
        }
        if self.distinct_designs == 0 || self.distinct_designs > self.chiplets {
            return Err(UnitError::OutOfRange {
                quantity: "distinct designs",
                value: f64::from(self.distinct_designs),
                min: 1.0,
                max: f64::from(self.chiplets),
            });
        }
        Ok(())
    }
}

/// Everything priced in a [`ChipletReport`], per shipped unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipletReport {
    /// Total cost per shipped unit (eq. C5).
    pub unit_cost: Dollars,
    /// Silicon share: Σ (die cost / yield + KGD test) per good chiplet.
    pub silicon_cost: Dollars,
    /// KGD tester share (already included in `silicon_cost`).
    pub kgd_cost: Dollars,
    /// Assembly share (substrate + bonding, divided by assembly
    /// yield); zero for a monolithic die.
    pub assembly_cost: Dollars,
    /// Amortized NRE share (mask sets + design effort over volume and
    /// reuse).
    pub nre_cost: Dollars,
    /// Active silicon area of the whole design (eq. 2).
    pub total_area: Area,
    /// Area of one chiplet, including the die-to-die interface
    /// overhead when split.
    pub chiplet_area: Area,
    /// Yield of one chiplet die (eq. C1).
    pub die_yield: Yield,
    /// Assembly yield (bonding × substrate); 1 for a monolithic die.
    pub assembly_yield: Yield,
}

/// The model stack a scenario is evaluated against: die fab, KGD
/// test, both assembly technologies, NRE, and the split overheads.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipletModels {
    die_yield: CriticalLayerYield,
    die_wafer: ChipletWafer,
    kgd: KnownGoodDie,
    rdl: AssemblyTech,
    si: AssemblyTech,
    nre: SipNre,
    /// Fractional area added to each chiplet for die-to-die PHYs when
    /// the design is split (0.07 = 7%).
    d2d_overhead: f64,
    /// Package substrate area per unit of silicon area it carries.
    footprint_factor: f64,
    /// Flat cost of the final package (lid, balls, laminate).
    package_cost: Dollars,
}

impl ChipletModels {
    /// Creates a model stack from explicit parts.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] if `d2d_overhead` is negative or
    /// non-finite, `footprint_factor` is less than one, or the package
    /// cost is negative.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        die_yield: CriticalLayerYield,
        die_wafer: ChipletWafer,
        kgd: KnownGoodDie,
        rdl: AssemblyTech,
        si: AssemblyTech,
        nre: SipNre,
        d2d_overhead: f64,
        footprint_factor: f64,
        package_cost: Dollars,
    ) -> Result<Self, UnitError> {
        if !d2d_overhead.is_finite() || d2d_overhead < 0.0 {
            return Err(UnitError::OutOfRange {
                quantity: "die-to-die overhead",
                value: d2d_overhead,
                min: 0.0,
                max: f64::INFINITY,
            });
        }
        if !footprint_factor.is_finite() || footprint_factor < 1.0 {
            return Err(UnitError::OutOfRange {
                quantity: "footprint factor",
                value: footprint_factor,
                min: 1.0,
                max: f64::INFINITY,
            });
        }
        if package_cost.is_negative() {
            return Err(UnitError::OutOfRange {
                quantity: "package cost",
                value: package_cost.amount(),
                min: 0.0,
                max: f64::INFINITY,
            });
        }
        Ok(ChipletModels {
            die_yield,
            die_wafer,
            kgd,
            rdl,
            si,
            nre,
            d2d_overhead,
            footprint_factor,
            package_cost,
        })
    }

    /// Reference parameters: a 300 mm advanced-node line (D₀ =
    /// 0.09 /cm² over 10 critical levels, $9,500 wafers), default
    /// tester and NRE curves, the default RDL / interposer substrates,
    /// 7% die-to-die area overhead, 1.2× substrate footprint, and a
    /// $2 base package.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] only if the built-in constants are
    /// inconsistent, which the test suite pins against.
    pub fn defaults() -> Result<Self, UnitError> {
        ChipletModels::new(
            CriticalLayerYield::new(DefectDensity::per_cm2(0.09)?, 10.0)?,
            ChipletWafer::new(300.0, 3.0, 0.2, Dollars::new(9_500.0))?,
            KnownGoodDie::default(),
            AssemblyTech::defaults(AssemblyKind::Rdl)?,
            AssemblyTech::defaults(AssemblyKind::SiliconInterposer)?,
            SipNre::paper_defaults(),
            0.07,
            1.2,
            Dollars::new(2.0),
        )
    }

    fn assembly_tech(&self, kind: AssemblyKind) -> &AssemblyTech {
        match kind {
            AssemblyKind::Rdl => &self.rdl,
            AssemblyKind::SiliconInterposer => &self.si,
        }
    }

    /// Area of one chiplet when the design splits `n` ways: an even
    /// share of the eq.-2 area plus the die-to-die interface overhead
    /// (none for the monolithic case).
    fn chiplet_area(&self, total: Area, chiplets: u32) -> Area {
        let share = total / f64::from(chiplets);
        if chiplets == 1 {
            share
        } else {
            share * (1.0 + self.d2d_overhead)
        }
    }

    /// Prices the monolithic build of a scenario directly — one die,
    /// no KGD sort, no assembly — as an independent straight-line
    /// computation the SiP path is checked against.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] if the die does not fit the wafer or the
    /// NRE model rejects the density.
    pub fn monolithic(&self, scenario: &ChipletScenario) -> Result<ChipletReport, UnitError> {
        scenario.validate()?;
        let total_area = scenario.sd.chip_area(scenario.transistors, scenario.lambda);
        let die_yield = self.die_yield.die_yield(total_area)?;
        let die_cost = self.die_wafer.die_cost(total_area)?;
        let kgd_cost = self.kgd.cost_per_good_die(scenario.transistors, die_yield);
        let silicon = die_cost / die_yield.value() + kgd_cost;
        let nre = self.nre.nre_per_unit(
            1,
            scenario.transistors,
            scenario.sd,
            scenario.lambda,
            scenario.units,
        )?;
        let unit_cost = silicon + self.package_cost + nre;
        let perfect = Yield::new(1.0)?;
        provenance!(
            equation: EqC5,
            function: "nanocost_chiplet::scenario::ChipletModels::monolithic",
            inputs: [
                chiplets = 1u64,
                silicon_cost = silicon.amount(),
                assembly_cost = 0.0,
                package_cost = self.package_cost.amount(),
                nre_cost = nre.amount(),
            ],
            outputs: [unit_cost = unit_cost.amount()],
        );
        Ok(ChipletReport {
            unit_cost,
            silicon_cost: silicon,
            kgd_cost,
            assembly_cost: Dollars::new(0.0),
            nre_cost: nre,
            total_area,
            chiplet_area: total_area,
            die_yield,
            assembly_yield: perfect,
        })
    }

    /// Eq. C5: prices the full SiP build of a scenario — `n` chiplets,
    /// KGD-sorted, bonded to the chosen substrate — per shipped unit.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] if the scenario is inconsistent, a die or
    /// substrate does not fit its wafer, or the NRE model rejects the
    /// density.
    pub fn evaluate(&self, scenario: &ChipletScenario) -> Result<ChipletReport, UnitError> {
        scenario.validate()?;
        let n = scenario.chiplets;
        let total_area = scenario.sd.chip_area(scenario.transistors, scenario.lambda);
        let chiplet_area = self.chiplet_area(total_area, n);
        let per_chiplet_transistors =
            TransistorCount::new(scenario.transistors.count() / f64::from(n))?;

        let die_yield = self.die_yield.die_yield(chiplet_area)?;
        let die_cost = self.die_wafer.die_cost(chiplet_area)?;
        let kgd_each = self.kgd.cost_per_good_die(per_chiplet_transistors, die_yield);
        let kgd_cost = kgd_each * f64::from(n);
        let silicon = (die_cost / die_yield.value() + kgd_each) * f64::from(n);

        let (assembly_yield, assembly_cost) = if n == 1 {
            (Yield::new(1.0)?, Dollars::new(0.0))
        } else {
            let package_area = chiplet_area * (f64::from(n) * self.footprint_factor);
            let (y_asm, c_asm) = self.assembly_tech(scenario.assembly).assemble(n, package_area)?;
            (y_asm, c_asm / y_asm.value())
        };

        let nre = self.nre.nre_per_unit(
            scenario.distinct_designs,
            per_chiplet_transistors,
            scenario.sd,
            scenario.lambda,
            scenario.units,
        )?;

        let unit_cost = silicon + assembly_cost + self.package_cost + nre;
        provenance!(
            equation: EqC5,
            function: "nanocost_chiplet::scenario::ChipletModels::evaluate",
            inputs: [
                chiplets = u64::from(n),
                silicon_cost = silicon.amount(),
                assembly_cost = assembly_cost.amount(),
                package_cost = self.package_cost.amount(),
                nre_cost = nre.amount(),
            ],
            outputs: [unit_cost = unit_cost.amount()],
        );
        Ok(ChipletReport {
            unit_cost,
            silicon_cost: silicon,
            kgd_cost,
            assembly_cost,
            nre_cost: nre,
            total_area,
            chiplet_area,
            die_yield,
            assembly_yield,
        })
    }

    /// Evaluates the scenario at every chiplet count in `candidates`
    /// and returns the cheapest `(chiplets, report)` pair. Candidates
    /// that fail to evaluate (e.g. a monolithic die too large for the
    /// wafer) are skipped; at least one must succeed.
    ///
    /// # Errors
    ///
    /// Returns the last [`UnitError`] if every candidate fails, or a
    /// `NotPositive` error if `candidates` is empty.
    pub fn best_split(
        &self,
        scenario: &ChipletScenario,
        candidates: &[u32],
    ) -> Result<(u32, ChipletReport), UnitError> {
        let mut best: Option<(u32, ChipletReport)> = None;
        let mut last_err =
            UnitError::NotPositive { quantity: "chiplet candidates", value: 0.0 };
        for &n in candidates {
            let mut probe = *scenario;
            probe.chiplets = n;
            probe.distinct_designs = scenario.distinct_designs.min(n.max(1));
            match self.evaluate(&probe) {
                Ok(report) => {
                    let better = best
                        .as_ref()
                        .is_none_or(|(_, b)| report.unit_cost.amount() < b.unit_cost.amount());
                    if better {
                        best = Some((n, report));
                    }
                }
                Err(e) => last_err = e,
            }
        }
        best.ok_or(last_err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario(chiplets: u32) -> ChipletScenario {
        ChipletScenario {
            lambda: FeatureSize::from_microns(0.07).unwrap(),
            sd: DecompressionIndex::new(300.0).unwrap(),
            transistors: TransistorCount::from_millions(400.0),
            units: ChipCount::new(1_000_000),
            chiplets,
            distinct_designs: 1,
            assembly: AssemblyKind::Rdl,
        }
    }

    #[test]
    fn single_chiplet_matches_the_monolithic_path() {
        let models = ChipletModels::defaults().unwrap();
        let s = scenario(1);
        let sip = models.evaluate(&s).unwrap();
        let mono = models.monolithic(&s).unwrap();
        assert!(
            (sip.unit_cost.amount() - mono.unit_cost.amount()).abs() < 1e-9,
            "sip {} vs mono {}",
            sip.unit_cost.amount(),
            mono.unit_cost.amount()
        );
        assert!((sip.silicon_cost.amount() - mono.silicon_cost.amount()).abs() < 1e-9);
        assert!((sip.assembly_yield.value() - 1.0).abs() < f64::EPSILON);
        assert!(sip.assembly_cost.amount().abs() < f64::EPSILON);
    }

    #[test]
    fn invalid_scenarios_are_rejected() {
        let models = ChipletModels::defaults().unwrap();
        let mut s = scenario(0);
        assert!(models.evaluate(&s).is_err());
        s.chiplets = 4;
        s.distinct_designs = 5;
        assert!(models.evaluate(&s).is_err());
        s.distinct_designs = 0;
        assert!(models.evaluate(&s).is_err());
    }

    #[test]
    fn splitting_a_large_die_beats_the_monolithic_build() {
        // 400M transistors at s_d = 300 on a 0.07µm process is a big
        // (several cm²) die; its compounding yield loss should make a
        // 4-way split cheaper even after KGD and assembly.
        let models = ChipletModels::defaults().unwrap();
        let mono = models.evaluate(&scenario(1)).unwrap();
        let quad = models.evaluate(&scenario(4)).unwrap();
        assert!(
            quad.unit_cost.amount() < mono.unit_cost.amount(),
            "quad {} vs mono {}",
            quad.unit_cost.amount(),
            mono.unit_cost.amount()
        );
        assert!(quad.die_yield.value() > mono.die_yield.value());
    }

    #[test]
    fn a_small_die_stays_monolithic() {
        // At 20M transistors the die is well-yielding already; a
        // heterogeneous 4-way split (four distinct designs, so no NRE
        // reuse windfall) just adds KGD, bonding, and mask sets.
        let models = ChipletModels::defaults().unwrap();
        let mut s = scenario(1);
        s.transistors = TransistorCount::from_millions(20.0);
        let mono = models.evaluate(&s).unwrap();
        s.chiplets = 4;
        s.distinct_designs = 4;
        let quad = models.evaluate(&s).unwrap();
        assert!(mono.unit_cost.amount() < quad.unit_cost.amount());
    }

    #[test]
    fn best_split_picks_the_cheapest_candidate() {
        let models = ChipletModels::defaults().unwrap();
        let s = scenario(1);
        let (n, report) = models.best_split(&s, &[1, 2, 4, 8]).unwrap();
        for candidate in [1u32, 2, 4, 8] {
            let mut probe = s;
            probe.chiplets = candidate;
            let r = models.evaluate(&probe).unwrap();
            assert!(report.unit_cost.amount() <= r.unit_cost.amount() + 1e-12);
        }
        assert!(n > 1, "a 400M-transistor die should want splitting");
        assert!(models.best_split(&s, &[]).is_err());
    }

    #[test]
    fn interposer_assembly_costs_more_than_rdl() {
        let models = ChipletModels::defaults().unwrap();
        let mut s = scenario(4);
        let rdl = models.evaluate(&s).unwrap();
        s.assembly = AssemblyKind::SiliconInterposer;
        let si = models.evaluate(&s).unwrap();
        assert!(si.assembly_cost.amount() > rdl.assembly_cost.amount());
        assert!(si.unit_cost.amount() > rdl.unit_cost.amount());
    }
}
