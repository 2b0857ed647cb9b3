//! Fitting gate timing models against the electrical simulator.
//!
//! The paper's §5 argues the method needs "timing accurate models such as
//! that in [10] to study the propagation of pulses in a digital circuit"
//! once circuits get too large for electrical simulation. The fit below
//! closes the loop: measure one loaded inverter stage electrically, derive
//! its [`GateTimingModel`], and let [`TimingLibrary::calibrated`]
//! extrapolate the rest of the library.

use crate::model::GateTimingModel;
use pulsar_analog::{Edge, Error, Polarity};
use pulsar_cells::{BuiltPath, PathFault, PathSpec, Tech};

/// Electrically characterizes one inverter stage of technology `tech`
/// (embedded mid-chain so input slopes are realistic) and fits a
/// [`GateTimingModel`].
///
/// * `tp_lh` / `tp_hl` — per-stage propagation delays from a 5-stage
///   chain delay split by edge parity,
/// * `w_min` — bisected minimum passing width of one stage,
/// * `w_pass` — smallest width whose transfer is within 5 % of the
///   asymptote.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn calibrate_inverter(tech: &Tech) -> Result<GateTimingModel, Error> {
    let n = 5;
    let spec = PathSpec::inverter_chain(n);
    let mut chain = BuiltPath::new(&spec, &PathFault::None, &vec![*tech; n]);

    // Per-stage delays. Over an odd chain, a rising PI edge produces
    // ceil(n/2) falling and floor(n/2) rising output edges.
    let d_rise_pi = chain
        .propagate_transition(Edge::Rising, f64::INFINITY, None)?
        .delay
        .ok_or(Error::NoConvergence {
            context: "calibration delay",
            iterations: 0,
            time: 0.0,
        })?;
    let d_fall_pi = chain
        .propagate_transition(Edge::Falling, f64::INFINITY, None)?
        .delay
        .ok_or(Error::NoConvergence {
            context: "calibration delay",
            iterations: 0,
            time: 0.0,
        })?;
    // Rising PI: 3×tp_hl + 2×tp_lh; falling PI: 3×tp_lh + 2×tp_hl.
    let k_hi = n.div_ceil(2);
    let k_lo = n / 2;
    // Solve the 2x2 system.
    let det = (k_hi * k_hi - k_lo * k_lo) as f64;
    let tp_hl = (k_hi as f64 * d_rise_pi - k_lo as f64 * d_fall_pi) / det;
    let tp_lh = (k_hi as f64 * d_fall_pi - k_lo as f64 * d_rise_pi) / det;

    // Width transfer of ONE stage: compare the widths measured at the
    // outputs of stage 2 and stage 3 of the chain (mid-chain, realistic
    // slopes). w_min: bisect the chain's full passing threshold and
    // divide the per-stage shrink evenly.
    let mut lo = 10e-12;
    let mut hi = 2e-9;
    // The full chain's minimum passing width.
    while chain
        .propagate_pulse(hi, Polarity::PositiveGoing, None)?
        .dampened()
    {
        hi *= 2.0;
        if hi > 20e-9 {
            break;
        }
    }
    while hi - lo > 5e-12 {
        let mid = 0.5 * (lo + hi);
        if chain
            .propagate_pulse(mid, Polarity::PositiveGoing, None)?
            .dampened()
        {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let chain_w_min = 0.5 * (lo + hi);

    // Per-stage shrink at a mid-scale width, from consecutive stages.
    let probe = (chain_w_min * 1.3).max(120e-12);
    let out = chain.propagate_pulse(probe, Polarity::PositiveGoing, None)?;
    // Stage-over-stage shrink in the attenuation regime.
    let mut shrink = 0.0;
    let mut count = 0;
    for w in out.stage_widths.windows(2) {
        if w[0] > 0.0 && w[1] > 0.0 {
            shrink += (w[0] - w[1]).max(0.0);
            count += 1;
        }
    }
    let per_stage_shrink = if count > 0 {
        shrink / count as f64
    } else {
        0.0
    };

    // Heuristic split: a pulse dies when each stage eats ~its share. One
    // stage's w_min ≈ chain w_min − (n−1) × per-stage shrink, floored.
    let w_min = (chain_w_min - (n - 1) as f64 * per_stage_shrink).max(0.3 * chain_w_min);

    // w_pass: find where the chain transfer becomes affine (output width
    // within 5% of input + chain skew), then attribute to one stage.
    let skew = {
        let wide = 1.5e-9;
        let o = chain.propagate_pulse(wide, Polarity::PositiveGoing, None)?;
        o.output_width - wide
    };
    let mut w_pass_chain = hi.max(200e-12);
    for k in 1..=30 {
        let w = chain_w_min + k as f64 * 50e-12;
        let o = chain.propagate_pulse(w, Polarity::PositiveGoing, None)?;
        if o.output_width >= (w + skew) * 0.95 {
            w_pass_chain = w;
            break;
        }
    }
    // One stage saturates at roughly the chain knee scaled down; keep it
    // at least the measured w_min.
    let w_pass = (w_pass_chain * 0.6).max(w_min * 1.2);

    Ok(GateTimingModel::new(
        tp_lh.max(1e-12),
        tp_hl.max(1e-12),
        w_min,
        w_pass,
    ))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::library::TimingLibrary;
    use crate::path_model::{PathElement, PathTimingModel};

    #[test]
    fn calibration_yields_plausible_inverter() {
        let m = calibrate_inverter(&Tech::generic_180nm()).unwrap();
        assert!(m.tp_lh > 10e-12 && m.tp_lh < 500e-12, "tp_lh {:e}", m.tp_lh);
        assert!(m.tp_hl > 10e-12 && m.tp_hl < 500e-12, "tp_hl {:e}", m.tp_hl);
        assert!(m.w_min > 10e-12 && m.w_min < 500e-12, "w_min {:e}", m.w_min);
        assert!(m.w_pass >= m.w_min);
    }

    #[test]
    fn calibrated_chain_tracks_electrical_delay() {
        let tech = Tech::generic_180nm();
        let m = calibrate_inverter(&tech).unwrap();
        // Model-level 5-chain delay vs electrical 5-chain delay.
        let model = PathTimingModel::new(vec![
            PathElement::Gate {
                model: m,
                inverting: true,
                slow_rise: 0.0,
                slow_fall: 0.0
            };
            5
        ]);
        let spec = PathSpec::inverter_chain(5);
        let mut chain = BuiltPath::new(&spec, &PathFault::None, &vec![tech; 5]);
        let d_e = chain
            .propagate_transition(Edge::Rising, f64::INFINITY, None)
            .unwrap()
            .delay
            .unwrap();
        let d_m = model.delay(Edge::Rising);
        let err = (d_m - d_e).abs() / d_e;
        assert!(
            err < 0.15,
            "calibrated delay off by {:.0}%: model {d_m:e}, electrical {d_e:e}",
            err * 100.0
        );
    }

    #[test]
    fn calibrated_library_is_usable() {
        let m = calibrate_inverter(&Tech::generic_180nm()).unwrap();
        let lib = TimingLibrary::calibrated(m);
        let nand = lib.model(pulsar_logic::GateKind::Nand, 2);
        assert!(nand.tp_lh > m.tp_lh);
    }
}
