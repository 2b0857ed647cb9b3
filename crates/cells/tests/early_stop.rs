//! Contract of the measurement-only early stops: `propagate_transition`
//! and `pulse_width_only` with the default window (`cfg = None`) end the
//! transient once the answer is decided, and must return the same bits
//! as an explicit full-window run of the same configuration. With a
//! finite horizon, `propagate_transition` also ends once the delay is
//! known to exceed it, and reports no delay.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use pulsar_analog::{Edge, Error, ObsCounter, Polarity, Recorder};
use pulsar_cells::{BuiltPath, CellKind, PathFault, PathSpec, RopSite, Tech};

/// A path carrying `fault`. Internal bridges need a series stack at the
/// faulted stage, so they get a NAND/NOR chain; everything else runs on
/// the paper's 7-inverter path.
fn build(fault: PathFault) -> BuiltPath {
    let spec = match fault {
        PathFault::InternalBridge { .. } => PathSpec {
            stages: vec![
                CellKind::Inv,
                CellKind::Nand2,
                CellKind::Nor2,
                CellKind::Inv,
                CellKind::Inv,
            ],
            fanout_loads: vec![0, 1, 0, 0, 0],
        },
        _ => PathSpec::paper_chain(),
    };
    let techs = vec![Tech::generic_180nm(); spec.len()];
    BuiltPath::new(&spec, &fault, &techs)
}

fn fault_of(kind: usize, stage: usize, ohms: f64) -> PathFault {
    match kind {
        0 => PathFault::None,
        1 => PathFault::InternalRop {
            stage,
            site: RopSite::PullUp,
            ohms,
        },
        2 => PathFault::InternalRop {
            stage,
            site: RopSite::PullDown,
            ohms,
        },
        3 => PathFault::ExternalRop { stage, ohms },
        4 => PathFault::Bridge {
            stage,
            ohms,
            aggressor_high: false,
        },
        5 => PathFault::Bridge {
            stage,
            ohms,
            aggressor_high: true,
        },
        _ => PathFault::InternalBridge { stage: 1, ohms },
    }
}

/// Accepted time points a closure's transients spend.
fn steps(p: &mut BuiltPath, f: impl FnOnce(&mut BuiltPath)) -> u64 {
    let rec = Recorder::enabled();
    p.set_recorder(rec.clone());
    f(p);
    p.set_recorder(Recorder::disabled());
    rec.snapshot().counter(ObsCounter::StepsAccepted)
}

/// The early-stop contract for one measurement. When the full-window
/// run succeeds, the stopped run returns the same bits. When it fails,
/// the failure either lies before the stop (the stopped run fails the
/// same way) or in the dropped tail (the stopped run answers).
fn check_contract<T: PartialEq + std::fmt::Debug>(
    early: Result<T, Error>,
    full: Result<T, Error>,
    what: &str,
    fault: PathFault,
) -> Result<(), TestCaseError> {
    match (&early, &full) {
        (_, Ok(_)) => prop_assert_eq!(
            &early,
            &full,
            "{} {:?} vs full window {:?} ({:?})",
            what,
            early,
            full,
            fault
        ),
        (Err(e), Err(f)) => {
            prop_assert_eq!(e, f, "{} error {:?} vs {:?} ({:?})", what, e, f, fault)
        }
        (Ok(_), Err(_)) => {}
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn early_stop_matches_the_full_window_bit_for_bit(
        kind in 0usize..7,
        stage in 0usize..3,
        log_r in 3.0f64..6.0,
        rung in 0u32..4,
        step_scale in 0.5f64..1.0,
        adaptive: bool,
        rising: bool,
        positive: bool,
        w_in in 1.5e-10f64..8e-10,
    ) {
        let fault = fault_of(kind, stage, 10f64.powf(log_r));
        let mut p = build(fault);
        p.set_adaptive(adaptive);
        p.set_robustness(rung, step_scale);
        let edge = if rising { Edge::Rising } else { Edge::Falling };
        let polarity = if positive {
            Polarity::PositiveGoing
        } else {
            Polarity::NegativeGoing
        };

        let full = p.default_config(0.0);
        let early = p.propagate_transition(edge, f64::INFINITY, None).map(|o| o.delay.map(f64::to_bits));
        let reference = p.propagate_transition(edge, f64::INFINITY, Some(&full)).map(|o| o.delay.map(f64::to_bits));
        check_contract(early, reference, "delay", fault)?;

        let full = p.default_config(w_in);
        let early = p.pulse_width_only(w_in, polarity, None).map(f64::to_bits);
        let reference = p.pulse_width_only(w_in, polarity, Some(&full)).map(f64::to_bits);
        check_contract(early, reference, "width", fault)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The clock-side horizon: a delay at or below `within` is the full
    /// window's to the bit, anything else (a slower or a swallowed
    /// transition) is `None`. Horizons are drawn on the delay itself, one
    /// ulp below it, around it, at `+∞`, and at random absolute values.
    #[test]
    fn horizon_keeps_delays_within_it_and_censors_the_rest(
        kind in 0usize..7,
        stage in 0usize..3,
        log_r in 3.0f64..6.0,
        rung in 0u32..4,
        step_scale in 0.5f64..1.0,
        adaptive: bool,
        rising: bool,
        mode in 0usize..5,
        frac in 0.0f64..2.0,
        abs in 0.0f64..5e-9,
    ) {
        let fault = fault_of(kind, stage, 10f64.powf(log_r));
        let mut p = build(fault);
        p.set_adaptive(adaptive);
        p.set_robustness(rung, step_scale);
        let edge = if rising { Edge::Rising } else { Edge::Falling };

        let full = p.default_config(0.0);
        let reference = p
            .propagate_transition(edge, f64::INFINITY, Some(&full))
            .map(|o| o.delay);
        let within = match (mode, &reference) {
            (0, Ok(Some(d))) => *d,
            (1, Ok(Some(d))) => d.next_down(),
            (2, Ok(Some(d))) => d * frac,
            (3, _) => f64::INFINITY,
            _ => abs,
        };
        let early = p
            .propagate_transition(edge, within, None)
            .map(|o| o.delay.map(f64::to_bits));
        match reference {
            Ok(Some(d)) if d <= within => prop_assert_eq!(
                early,
                Ok(Some(d.to_bits())),
                "delay {:e} within {:e} ({:?})",
                d,
                within,
                fault
            ),
            // Slower than the horizon (so `d > within`) or swallowed.
            Ok(_) => prop_assert_eq!(
                early,
                Ok(None),
                "reference {:?} past horizon {:e} ({:?})",
                reference,
                within,
                fault
            ),
            Err(f) => {
                if let Err(e) = early {
                    prop_assert_eq!(e, f, "error past horizon {:e} ({:?})", within, fault);
                }
            }
        }
    }
}

#[test]
fn df_rule_ends_before_the_window_on_the_paper_path() {
    let mut p = build(PathFault::None);
    let full = p.default_config(0.0);
    let early = steps(&mut p, |p| {
        assert!(p
            .propagate_transition(Edge::Rising, f64::INFINITY, None)
            .unwrap()
            .delay
            .is_some());
    });
    let window = steps(&mut p, |p| {
        p.propagate_transition(Edge::Rising, f64::INFINITY, Some(&full))
            .unwrap();
    });
    assert!(
        early < window,
        "crossing rule must stop early: {early} vs {window} points"
    );
}

#[test]
fn horizon_stops_a_slow_transition_before_its_output_crosses() {
    let mut p = build(PathFault::ExternalRop {
        stage: 1,
        ohms: 300e3,
    });
    let mut delay = None;
    let exact = steps(&mut p, |p| {
        delay = p
            .propagate_transition(Edge::Rising, f64::INFINITY, None)
            .unwrap()
            .delay;
    });
    let d = delay.expect("a 300 kOhm open still switches");
    let cut = steps(&mut p, |p| {
        delay = p
            .propagate_transition(Edge::Rising, 0.25 * d, None)
            .unwrap()
            .delay;
    });
    assert_eq!(delay, None);
    assert!(
        2 * cut < exact,
        "the horizon must cut the slow run short: {cut} vs {exact} points"
    );
}

#[test]
fn swallowed_transition_runs_the_full_window() {
    // A near-open external ROP: the fan-out branch never charges inside
    // the window, so the output never switches and nothing is decided.
    let mut p = build(PathFault::ExternalRop {
        stage: 1,
        ohms: 1e9,
    });
    let full = p.default_config(0.0);
    let mut delay = Some(0.0);
    let early = steps(&mut p, |p| {
        delay = p
            .propagate_transition(Edge::Rising, f64::INFINITY, None)
            .unwrap()
            .delay;
    });
    assert_eq!(delay, None, "the transition must be swallowed");
    let window = steps(&mut p, |p| {
        p.propagate_transition(Edge::Rising, f64::INFINITY, Some(&full))
            .unwrap();
    });
    assert_eq!(
        early, window,
        "an undecided run must reach the window's end"
    );
}

#[test]
fn dead_high_r_pulse_returns_zero() {
    let mut p = build(PathFault::ExternalRop {
        stage: 1,
        ohms: 1e6,
    });
    let w_in = 3e-10;
    let full = p.default_config(w_in);
    let mut width = f64::NAN;
    let early = steps(&mut p, |p| {
        width = p
            .pulse_width_only(w_in, Polarity::PositiveGoing, None)
            .unwrap();
    });
    assert_eq!(width, 0.0, "a 1 MOhm open must kill the pulse");
    let window = steps(&mut p, |p| {
        let w = p
            .pulse_width_only(w_in, Polarity::PositiveGoing, Some(&full))
            .unwrap();
        assert_eq!(w, 0.0);
    });
    assert!(early <= window);
}
