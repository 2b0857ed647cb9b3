//! Per-layer metrics read from the program's own recorder counters
//! (`pulsar-obs`), summed over the traced ops.

use pulsar_obs::{Counter, MetricsSnapshot, Phase};

/// Sum of counter `c` over `snaps`.
fn counter(snaps: &[MetricsSnapshot], c: Counter) -> f64 {
    snaps.iter().map(|s| s.counter(c)).sum::<u64>() as f64
}

fn span_s(snaps: &[MetricsSnapshot], p: Phase) -> f64 {
    snaps.iter().map(|s| s.span_ns(p)).sum::<u64>() as f64 * 1e-9
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The `analog.*` and `mc.*` counts of `ops` ops, per op.
pub(crate) fn from_snapshots(snaps: &[MetricsSnapshot], ops: f64) -> Vec<(&'static str, f64)> {
    let transients = snaps
        .iter()
        .map(|s| s.span_count(Phase::TransientStepLoop))
        .sum::<u64>() as f64;
    let steps = counter(snaps, Counter::StepsAccepted);
    let newton = counter(snaps, Counter::NewtonIterations);
    let samples = counter(snaps, Counter::SamplesOk)
        + counter(snaps, Counter::SamplesRecovered)
        + counter(snaps, Counter::SamplesFailed);
    let per_op = |v: f64| ratio(v, ops);
    vec![
        ("analog.transients", per_op(transients)),
        ("analog.steps_accepted", per_op(steps)),
        ("analog.steps_per_transient", ratio(steps, transients)),
        (
            "analog.lte_rejections",
            per_op(counter(snaps, Counter::LteRejections)),
        ),
        ("analog.newton_iters", per_op(newton)),
        ("analog.newton_iters_per_step", ratio(newton, steps)),
        (
            "analog.newton_retries",
            per_op(counter(snaps, Counter::NewtonRetries)),
        ),
        (
            "analog.step_loop_cpu_s",
            per_op(span_s(snaps, Phase::TransientStepLoop)),
        ),
        (
            "analog.newton_cpu_s",
            per_op(span_s(snaps, Phase::NewtonSolve)),
        ),
        (
            "analog.dense_solves",
            per_op(counter(snaps, Counter::DenseSolves)),
        ),
        (
            "analog.sparse_solves",
            per_op(counter(snaps, Counter::SparseSolves)),
        ),
        (
            "analog.symbolic_analyses",
            per_op(counter(snaps, Counter::SymbolicAnalyses)),
        ),
        (
            "analog.numeric_factorizations",
            per_op(counter(snaps, Counter::NumericFactorizations)),
        ),
        ("mc.samples", per_op(samples)),
        (
            "mc.retry_attempts",
            per_op(counter(snaps, Counter::RetryAttempts)),
        ),
        (
            "mc.samples_failed",
            per_op(counter(snaps, Counter::SamplesFailed)),
        ),
        ("mc.sample_cpu_s", per_op(span_s(snaps, Phase::McSample))),
        (
            "mc.adaptive_saved",
            per_op(counter(snaps, Counter::AdaptiveSamplesSaved)),
        ),
        (
            "mc.adaptive_refine",
            per_op(counter(snaps, Counter::AdaptiveRefineSamples)),
        ),
    ]
}

/// `mc.parallel_eff`: time inside Monte Carlo sample bodies over the
/// thread-seconds the studies had (`threads × study wall`).
pub(crate) fn parallel_eff(snaps: &[MetricsSnapshot], study_wall_s: f64) -> (&'static str, f64) {
    let threads = crate::host::threads() as f64;
    (
        "mc.parallel_eff",
        ratio(span_s(snaps, Phase::McSample), threads * study_wall_s),
    )
}
