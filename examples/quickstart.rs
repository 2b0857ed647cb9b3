//! Quickstart: detect a resistive open that delay-fault testing misses.
//!
//! Builds the paper's 7-gate path with an external resistive open on the
//! second gate's fan-out branch, then applies both test methods at a few
//! defect resistances.
//!
//! Run with: `cargo run --release -p pulsar-core --example quickstart`

use pulsar_analog::Polarity;
use pulsar_cells::{PathSpec, Tech};
use pulsar_core::{df_detects, CoreError, DefectKind, FfTiming, PathInstance, PathUnderTest};

fn main() -> Result<(), CoreError> {
    // A resistive bridge to a steady aggressor — the defect class where
    // the paper's pulse method clearly beats reduced-clock DF testing.
    let put = PathUnderTest {
        spec: PathSpec::paper_chain(),
        defect: DefectKind::Bridge {
            aggressor_high: false,
        },
        stage: 1,
        tech: Tech::generic_180nm(),
    };

    // Fault-free reference: path delay and surviving pulse width.
    let techs = vec![put.tech; put.spec.len()];
    let mut clean = put.instantiate_fault_free(&techs);
    let d0 = clean.worst_delay(f64::INFINITY)?;
    let w_in = 320e-12;
    let w0 = clean.pulse_width_out(w_in, Polarity::PositiveGoing)?;

    // Test settings. The DF clock cannot sit exactly at the fault-free
    // delay: clock-distribution uncertainty forces a margin (the paper
    // budgets 10 %, §4). The sensing threshold gets a comparable margin
    // below the healthy output width.
    let ff = FfTiming::nominal();
    let t_test = (d0 + ff.overhead()) / 0.9;
    let w_th = 0.8 * w0;

    println!(
        "fault-free: delay = {:.1} ps, pulse {:.0} ps -> {:.0} ps at the output",
        d0 * 1e12,
        w_in * 1e12,
        w0 * 1e12
    );
    println!(
        "test setup: T = {:.1} ps, w_th = {:.0} ps",
        t_test * 1e12,
        w_th * 1e12
    );
    println!();
    println!(
        "{:>10}  {:>12}  {:>12}  {:>8}  {:>8}",
        "R (ohm)", "delay (ps)", "w_out (ps)", "DF?", "pulse?"
    );

    let mut path = put.instantiate_nominal(1e3);
    for r in [1.5e3, 2.5e3, 4e3, 6e3, 10e3, 20e3] {
        path.set_resistance(r)?;
        let d = path.worst_delay(f64::INFINITY)?;
        let w = path.pulse_width_out(w_in, Polarity::PositiveGoing)?;
        let df = df_detects(t_test, d, ff);
        let pulse = w < w_th;
        println!(
            "{:>10.0}  {:>12.1}  {:>12.0}  {:>8}  {:>8}",
            r,
            d * 1e12,
            w * 1e12,
            if df { "CAUGHT" } else { "miss" },
            if pulse { "CAUGHT" } else { "miss" },
        );
    }

    println!();
    println!("past the critical resistance the bridge's extra delay collapses below the");
    println!("clock margin, but the pulse it mutilates still betrays it.");
    Ok(())
}
