//! Bridge-specific electrical analysis.
//!
//! The paper's §4 characterizes its bridge by the **critical resistance**:
//! the value below which the voltage degradation becomes a static logic
//! error (caught by ordinary functional testing) and above which only a
//! delay/pulse effect remains. Locating it fixes the left edge of the
//! Figs. 8/9 sweeps.

use crate::engine::{DefectKind, PathInstance, PathUnderTest};
use crate::error::CoreError;

/// Finds the critical resistance of the bridge in `put` by bisection:
/// the smallest resistance at which the victim still produces a clean
/// output transition (below it, the drive fight keeps the path output
/// from ever crossing `vdd/2`, i.e. a functional error).
///
/// Search is over `[r_lo, r_hi]` to within `tol` ohms.
///
/// # Errors
///
/// [`CoreError::Unsupported`] when `put` does not carry a bridge;
/// propagates simulator errors. Returns `Ok(None)` when even `r_hi`
/// produces a functional error (bracket too small).
pub fn critical_resistance(
    put: &PathUnderTest,
    r_lo: f64,
    r_hi: f64,
    tol: f64,
) -> Result<Option<f64>, CoreError> {
    if !matches!(put.defect, DefectKind::Bridge { .. }) {
        return Err(CoreError::Unsupported {
            what: "critical resistance of a non-bridge defect",
        });
    }
    let functional_error = |r: f64| -> Result<bool, CoreError> {
        let mut p = put.instantiate_nominal(r);
        // A victim that cannot complete either transition within the
        // window has a static/functional failure.
        Ok(p.worst_delay(f64::INFINITY)?.is_infinite())
    };

    if functional_error(r_hi)? {
        return Ok(None);
    }
    if !functional_error(r_lo)? {
        return Ok(Some(r_lo));
    }
    let (mut lo, mut hi) = (r_lo, r_hi);
    while hi - lo > tol {
        let mid = 0.5 * (lo + hi);
        if functional_error(mid)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(Some(hi))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use pulsar_cells::{PathSpec, Tech};

    fn bridge_put() -> PathUnderTest {
        PathUnderTest {
            spec: PathSpec::paper_chain(),
            defect: DefectKind::Bridge {
                aggressor_high: false,
            },
            stage: 1,
            tech: Tech::generic_180nm(),
        }
    }

    #[test]
    fn critical_resistance_is_in_the_low_kilo_ohm_range() {
        let rc = critical_resistance(&bridge_put(), 50.0, 20e3, 25.0)
            .unwrap()
            .expect("bracket contains the critical point");
        assert!(
            rc > 100.0 && rc < 5e3,
            "critical resistance {rc} outside the plausible band"
        );
        // Just above: functional; just below: broken.
        let mut above = bridge_put().instantiate_nominal(rc * 1.2);
        assert!(above.worst_delay(f64::INFINITY).unwrap().is_finite());
        let mut below = bridge_put().instantiate_nominal((rc * 0.7).max(60.0));
        assert!(below.worst_delay(f64::INFINITY).unwrap().is_infinite());
    }

    #[test]
    fn non_bridge_defects_are_rejected() {
        let put = PathUnderTest {
            spec: PathSpec::paper_chain(),
            defect: DefectKind::ExternalRop,
            stage: 1,
            tech: Tech::generic_180nm(),
        };
        assert!(matches!(
            critical_resistance(&put, 50.0, 1e3, 10.0),
            Err(CoreError::Unsupported { .. })
        ));
    }
}
