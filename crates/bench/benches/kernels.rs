//! Criterion benches for the hot kernels underneath the experiments:
//! DC operating point, transistor-level transient, logic simulation,
//! logic-level pulse propagation and the Monte Carlo driver.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use pulsar_analog::{Edge, Polarity};
use pulsar_cells::{BuiltPath, PathFault, PathSpec, Tech};
use pulsar_core::{ModelFault, ModelPath, PathInstance};
use pulsar_logic::{c432_like, simulate};
use pulsar_mc::MonteCarlo;
use pulsar_timing::{GateTimingModel, PathElement, PathTimingModel};

fn bench_dc_op(c: &mut Criterion) {
    let tech = Tech::generic_180nm();
    let spec = PathSpec::paper_chain();
    let path = BuiltPath::new(&spec, &PathFault::None, &vec![tech; 7]);
    c.bench_function("dcop/paper_chain7", |b| {
        b.iter(|| black_box(path.circuit().dc_op().expect("dc op")))
    });
}

fn bench_transient(c: &mut Criterion) {
    let tech = Tech::generic_180nm();
    let spec = PathSpec::paper_chain();
    let fault = PathFault::ExternalRop {
        stage: 1,
        ohms: 8e3,
    };
    let mut path = BuiltPath::new(&spec, &fault, &vec![tech; 7]);
    c.bench_function("transient/pulse_chain7", |b| {
        b.iter(|| {
            black_box(
                path.propagate_pulse(400e-12, Polarity::PositiveGoing, None)
                    .expect("transient"),
            )
        })
    });
    c.bench_function("transient/transition_chain7", |b| {
        b.iter(|| {
            black_box(
                path.propagate_transition(Edge::Rising, f64::INFINITY, None)
                    .expect("transient"),
            )
        })
    });
}

fn bench_logic_sim(c: &mut Criterion) {
    let nl = c432_like();
    let words: Vec<u64> = (0..36)
        .map(|i| 0x9E3779B97F4A7C15u64.wrapping_mul(i + 1))
        .collect();
    c.bench_function("logic/simulate_c432x64", |b| {
        b.iter(|| black_box(simulate(&nl, &words).expect("simulate")))
    });
}

fn bench_model_pulse(c: &mut Criterion) {
    let inv = GateTimingModel::new(95e-12, 75e-12, 70e-12, 260e-12);
    let healthy = PathTimingModel::new(vec![
        PathElement::Gate {
            model: inv,
            inverting: true,
            slow_rise: 0.0,
            slow_fall: 0.0
        };
        7
    ]);
    let mut mp = ModelPath::new(
        healthy,
        Some(ModelFault::RcAfter {
            stage: 1,
            c_branch: 13e-15,
        }),
        8e3,
    );
    c.bench_function("model/pulse_chain7", |b| {
        b.iter(|| {
            black_box(
                mp.pulse_width_out(400e-12, Polarity::PositiveGoing)
                    .expect("model"),
            )
        })
    });
}

fn bench_mc_driver(c: &mut Criterion) {
    c.bench_function("mc/fanout_1k_samples", |b| {
        b.iter(|| {
            let mc = MonteCarlo::new(1000, 7);
            black_box(mc.run(|i, rng| {
                use rand::RngExt;
                i as f64 + rng.random::<f64>()
            }))
        })
    });
}

criterion_group!(
    benches,
    bench_dc_op,
    bench_transient,
    bench_logic_sim,
    bench_model_pulse,
    bench_mc_driver
);
criterion_main!(benches);
