//! `study-df` and `study-pulse`: one coverage study per op on the
//! paper path (external ROP at stage 1), with a fresh Monte Carlo seed
//! per op.

use std::fmt::Write as _;

use pulsar_analog::Polarity;
use pulsar_cells::{PathSpec, Tech};
use pulsar_core::{
    AdaptivePolicy, CoreError, CoverageCurve, DefectKind, DfStudy, McConfig, PathUnderTest,
    PulseStudy,
};
use pulsar_obs::Recorder;

use crate::gen::{self, STUDY_FACTORS, STUDY_RS};
use crate::seq::{OpResult, SeqWorkload};
use crate::stats::median;
use crate::trace::Tracer;

/// `StudyBench<DF>`: DF calibration + fixed-N coverage.
pub(crate) const DF: u8 = 0;
/// `StudyBench<PULSE>`: pulse calibration + adaptive coverage.
pub(crate) const PULSE: u8 = 1;

/// Monte Carlo samples of a DF op.
const DF_SAMPLES: usize = 20;
/// Monte Carlo samples of a pulse op's calibration, and the adaptive
/// budget per point: two 16-sample chunks, so a point can stop after one.
const PULSE_SAMPLES: usize = 32;
/// Requested Wilson halfwidth of the adaptive run: loose enough that
/// the saturated columns stop after their first chunk.
const PULSE_PRECISION: f64 = 0.12;

pub(crate) struct StudyBench<const KIND: u8> {
    seed: u64,
    put: PathUnderTest,
}

/// The paper path, as `pulsar study` builds it.
pub(crate) fn paper_put() -> PathUnderTest {
    PathUnderTest {
        spec: PathSpec::paper_chain(),
        defect: DefectKind::ExternalRop,
        stage: 1,
        tech: Tech::generic_180nm(),
    }
}

impl<const KIND: u8> StudyBench<KIND> {
    fn samples() -> usize {
        if KIND == DF {
            DF_SAMPLES
        } else {
            PULSE_SAMPLES
        }
    }

    fn mc(samples: usize, seed: u64, rec: &Recorder) -> McConfig {
        McConfig {
            obs: rec.clone(),
            threads: Some(crate::host::threads()),
            ..McConfig::paper(samples, seed)
        }
    }
}

/// What pulse calibration reports when a fault-free instance does not
/// propagate the calibration pulse (see [`verify_pulse_rejection`]).
pub(crate) const DAMPENED: &str = "fault-free instance dampened the pulse";

/// Independently confirms a pulse calibration rejection: rebuilds the
/// `samples`-sample study at `seed`, picks `w_in` from the nominal
/// transfer curve as calibration does, and lists the fault-free samples
/// whose output pulse died. `Ok` with a description when at least one
/// did (the rejection is the right answer), `Err` otherwise.
///
/// About one fault-free instance in 800 dampens the pulse calibration
/// picks on the paper path, so a few percent of 32-sample seeds have no
/// valid calibration. The benchmark counts such a verified rejection as
/// a correct op and reports how often it happens
/// (`core.calib_rejected`).
pub(crate) fn verify_pulse_rejection(samples: usize, seed: u64) -> Result<String, String> {
    let mc = StudyBench::<PULSE>::mc(samples, seed, &Recorder::disabled());
    let study = PulseStudy::new(paper_put(), mc, Polarity::PositiveGoing);
    let curve = study.nominal_curve().map_err(|e| e.to_string())?;
    let w_in = curve
        .region3_start(study.region_tol, study.guard)
        .ok_or("the nominal transfer curve has no asymptotic region")?;
    let wouts = study.fault_free_wouts(w_in).map_err(|e| e.to_string())?;
    let dead: Vec<usize> = (0..wouts.len()).filter(|&j| wouts[j] <= 0.0).collect();
    if dead.is_empty() {
        Err(format!(
            "calibration was rejected at seed {seed} but every fault-free sample propagates"
        ))
    } else {
        Ok(format!(
            "calibration rejected: {DAMPENED} (fault-free samples {dead:?})\n"
        ))
    }
}

/// Checks the invariants every study output must hold: one complete
/// curve per factor over the whole sweep, nothing unresolved, and each
/// coverage a fraction `k / n` in `[0, 1]` of the `n` samples behind it.
fn check_curves(
    curves: &[CoverageCurve],
    n_of: impl Fn(usize, usize) -> usize,
) -> Result<(), String> {
    if curves.len() != STUDY_FACTORS.len() {
        return Err(format!(
            "{} curves for {} factors",
            curves.len(),
            STUDY_FACTORS.len()
        ));
    }
    for (f, c) in curves.iter().enumerate() {
        if c.resistance != STUDY_RS || c.coverage.len() != STUDY_RS.len() {
            return Err(format!("curve {f} does not cover the sweep"));
        }
        if c.unresolved != 0.0 || !c.completeness.is_complete() {
            return Err(format!(
                "curve {f} incomplete: unresolved {} completeness {:?}",
                c.unresolved, c.completeness
            ));
        }
        for (r, &cov) in c.coverage.iter().enumerate() {
            let n = n_of(f, r) as f64;
            let k = cov * n;
            if !(0.0..=1.0).contains(&cov) || n == 0.0 || (k - k.round()).abs() > 1e-9 {
                return Err(format!(
                    "coverage {cov} at curve {f} point {r} is not k/{n}"
                ));
            }
        }
    }
    Ok(())
}

impl<const KIND: u8> SeqWorkload for StudyBench<KIND> {
    const NAME: &'static str = if KIND == DF {
        "study-df"
    } else {
        "study-pulse"
    };

    fn setup(seed: u64) -> Result<Self, String> {
        let put = paper_put();
        if !put.lint(Some(&STUDY_RS)).is_clean() {
            return Err("the paper path fails its lint preflight".to_owned());
        }
        // Warm-up: one calibration at a seed no op uses.
        let warm = Self::mc(
            Self::samples(),
            gen::derive(seed, "setup", 0),
            &Recorder::disabled(),
        );
        let calibrated = if KIND == DF {
            DfStudy::new(put.clone(), warm).calibrate().map(drop)
        } else {
            match PulseStudy::new(put.clone(), warm, Polarity::PositiveGoing).calibrate() {
                Err(CoreError::EmptyCalibration { what: DAMPENED }) => Ok(()),
                other => other.map(drop),
            }
        };
        calibrated.map_err(|e| format!("warm-up calibration: {e}"))?;
        Ok(StudyBench { seed, put })
    }

    fn op(&self, i: usize, tr: &Tracer, op_id: u64, parent: u64, rec: &Recorder) -> OpResult {
        let seed = gen::study_op_seed(self.seed, Self::NAME, i);
        let n = Self::samples();
        let mut out = OpResult {
            evals: 0,
            error: None,
            key: format!("op {i} seed {seed}"),
            text: String::new(),
            counts: Vec::new(),
        };
        let lint = tr.span(op_id, parent, "lint.preflight", |_| {
            self.put.lint(Some(&STUDY_RS))
        });
        if !lint.is_clean() {
            out.error = Some(format!("lint preflight: {}", lint.render_human()));
            return out;
        }
        let mc = Self::mc(n, seed, rec);
        let result = if KIND == DF {
            let study = DfStudy::new(self.put.clone(), mc);
            tr.span(op_id, parent, "core.calibrate", |_| study.calibrate())
                .and_then(|calib| {
                    tr.span(op_id, parent, "core.coverage", |_| {
                        study.coverage(&calib, &STUDY_RS, &STUDY_FACTORS)
                    })
                })
                .map_err(|e| e.to_string())
                .and_then(|curves| {
                    check_curves(&curves, |_, _| n)?;
                    out.evals = (n + n * STUDY_RS.len()) as u64;
                    Ok(CoverageCurve::render_set(&curves))
                })
        } else {
            let study = PulseStudy::new(self.put.clone(), mc, Polarity::PositiveGoing);
            let policy = AdaptivePolicy::new(PULSE_PRECISION, n);
            let calib = tr.span(op_id, parent, "core.calibrate", |_| study.calibrate());
            if let Err(CoreError::EmptyCalibration { what: DAMPENED }) = calib {
                out.evals = n as u64;
                out.counts.push(("mc.evals", out.evals as f64));
                out.counts.push(("core.calib_rejected", 1.0));
                match verify_pulse_rejection(n, seed) {
                    Ok(text) => out.text = text,
                    Err(e) => out.error = Some(e),
                }
                return out;
            }
            calib
                .and_then(|calib| {
                    tr.span(op_id, parent, "core.coverage", |_| {
                        study.coverage_adaptive(&calib, &STUDY_RS, &STUDY_FACTORS, &policy, None)
                    })
                })
                .map_err(|e| e.to_string())
                .and_then(|report| {
                    let spent = |f: usize, r: usize| {
                        report
                            .points
                            .iter()
                            .find(|p| p.factor == STUDY_FACTORS[f] && p.resistance == STUDY_RS[r])
                            .map_or(0, |p| p.accuracy.samples_spent as usize)
                    };
                    check_curves(&report.curves, spent)?;
                    out.evals = n as u64 + report.evals;
                    let mut text = CoverageCurve::render_set(&report.curves);
                    for p in &report.points {
                        let _ = writeln!(
                            text,
                            "point {:.2} {:.1e}: n={}{}{}",
                            p.factor,
                            p.resistance,
                            p.accuracy.samples_spent,
                            if p.accuracy.stopped_early {
                                ", stopped early"
                            } else {
                                ""
                            },
                            if p.refined { ", refined" } else { "" },
                        );
                    }
                    Ok(text)
                })
        };
        match result {
            Ok(text) => out.text = text,
            Err(e) => out.error = Some(e),
        }
        out.counts.push(("mc.evals", out.evals as f64));
        out
    }

    fn traced_ops(seconds: f64) -> usize {
        // Each op runs twice at ~1 s a copy.
        ((seconds / 2.5).round() as usize).clamp(1, 64)
    }

    fn golden_ops() -> usize {
        64
    }

    fn span_metrics(tr: &Tracer) -> Vec<(&'static str, f64)> {
        vec![
            ("core.calibrate_s", median(&tr.per_op("core.calibrate"))),
            ("core.coverage_s", median(&tr.per_op("core.coverage"))),
            ("lint.preflight_s", median(&tr.per_op("lint.preflight"))),
        ]
    }
}
