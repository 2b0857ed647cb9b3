//! End-to-end and per-layer benchmark of the pulsar workspace.
//!
//! Four workloads, each driven in-process through the crates' public
//! APIs from one process (see `README.md` for why each exists):
//!
//! - `study-df`: DF calibration plus fixed-N coverage on the paper path;
//! - `study-pulse`: pulse calibration plus adaptive (Wilson) coverage;
//! - `campaign-gen`: render, parse, campaign and report of C880-profile
//!   netlists;
//! - `serve-repeat`: a fixed cycle of small study jobs submitted to an
//!   in-process `pulsar-serve` daemon.
//!
//! An untraced run (`--trace 0`) times ops in a closed loop for the
//! requested seconds, probing the host's speed between ops, and reports
//! [`END_TO_END`]. A traced run
//! (`--trace 1`) runs a fixed op list twice per op — once plain, once
//! with spans and an enabled recorder — and reports [`PER_LAYER`].

pub mod gen;
pub mod golden;
pub mod host;
pub mod stats;
pub mod trace;

mod campaign;
mod layers;
mod seq;
mod serve;
mod study;

use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`. Every workload reports each.
/// Times other than `setup_s` are in probes: multiples of the run's
/// median host-speed probe ([`host::probe_s`]), which cancels the
/// host's drift in speed between runs; the raw seconds are printed
/// before the result line.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("op_p50_probes", "probe"),
    ("op_tail_probes", "probe"),
    ("ops_per_probe", "1/probe"),
    ("evals_per_probe", "1/probe"),
    ("cpu_per_op_probes", "probe"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: `(name, unit)`. Every workload reports each; a
/// layer a workload never calls reads `0`. Counts are per op.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("core.calibrate_s", "s"),
    ("core.coverage_s", "s"),
    ("core.calib_rejected", "count/op"),
    ("lint.preflight_s", "s"),
    ("analog.transients", "count/op"),
    ("analog.steps_accepted", "count/op"),
    ("analog.steps_per_transient", "ratio"),
    ("analog.lte_rejections", "count/op"),
    ("analog.newton_iters", "count/op"),
    ("analog.newton_iters_per_step", "ratio"),
    ("analog.newton_retries", "count/op"),
    ("analog.step_loop_cpu_s", "s"),
    ("analog.newton_cpu_s", "s"),
    ("analog.dense_solves", "count/op"),
    ("analog.sparse_solves", "count/op"),
    ("analog.symbolic_analyses", "count/op"),
    ("analog.numeric_factorizations", "count/op"),
    ("mc.samples", "count/op"),
    ("mc.retry_attempts", "count/op"),
    ("mc.samples_failed", "count/op"),
    ("mc.sample_cpu_s", "s"),
    ("mc.evals", "count/op"),
    ("mc.adaptive_saved", "count/op"),
    ("mc.adaptive_refine", "count/op"),
    ("mc.parallel_eff", "ratio"),
    ("logic.render_s", "s"),
    ("logic.parse_s", "s"),
    ("core.campaign_s", "s"),
    ("core.report_s", "s"),
    ("core.sites_probed", "count/op"),
    ("core.sites_planned", "count/op"),
    ("core.sites_unsensitizable", "count/op"),
    ("serve.submit_rtt_s", "s"),
    ("serve.wait_s", "s"),
    ("serve.hit_p50_s", "s"),
    ("serve.miss_p50_s", "s"),
    ("serve.calib_hit_p50_s", "s"),
    ("serve.result_hits", "count/op"),
    ("serve.result_misses", "count/op"),
    ("serve.result_hit_ratio", "ratio"),
    ("serve.calib_hits", "count/op"),
    ("serve.symbolic_hits", "count/op"),
    ("serve.lint_hits", "count/op"),
    ("serve.cache_entries", "count"),
    ("serve.busy_rejections", "count/op"),
    ("obs.trace_overhead", "ratio"),
    ("obs.traced_ops", "count"),
];

/// A workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// DF calibration + fixed-N coverage.
    StudyDf,
    /// Pulse calibration + adaptive coverage.
    StudyPulse,
    /// Render / parse / campaign / report of C880-profile netlists.
    CampaignGen,
    /// Study jobs against an in-process serve daemon.
    ServeRepeat,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::StudyDf,
        Workload::StudyPulse,
        Workload::CampaignGen,
        Workload::ServeRepeat,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StudyDf => "study-df",
            Workload::StudyPulse => "study-pulse",
            Workload::CampaignGen => "campaign-gen",
            Workload::ServeRepeat => "serve-repeat",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// What one run does.
#[derive(Debug, Clone)]
pub struct Opts {
    /// The workload.
    pub workload: Workload,
    /// The workload seed every input derives from.
    pub seed: u64,
    /// Seconds the untraced run measures for; also sizes the traced
    /// run's fixed op list.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Smoke mode: one set-up, no minimum op count.
    pub smoke: bool,
}

impl Opts {
    /// Whether set-up runs again, given the durations of the set-ups
    /// done so far: at least three times and for two seconds in all (at
    /// most fifteen times); once in smoke and traced runs. The median is
    /// reported.
    pub(crate) fn more_setup(&self, done: &[f64]) -> bool {
        if self.smoke || self.trace {
            return done.is_empty();
        }
        done.len() < 3 || (done.iter().sum::<f64>() < 2.0 && done.len() < 15)
    }

    /// The fewest ops an untraced run completes, so the tail percentile
    /// has ten ops beyond it.
    pub(crate) fn min_ops(&self) -> usize {
        if self.smoke {
            1
        } else {
            11
        }
    }
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed, were refused, or produced a wrong output.
    pub failed: u64,
    /// `(name, value, unit)` in the order of [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Informational lines printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// Assembles a report, filling every metric of the run's table from
    /// `values` (absent ones read `0`).
    pub(crate) fn new(
        trace: bool,
        attempted: u64,
        failed: u64,
        values: &[(&'static str, f64)],
        notes: Vec<String>,
    ) -> Report {
        let table: &[(&'static str, &'static str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let metrics = table
            .iter()
            .map(|&(name, unit)| {
                let v = values
                    .iter()
                    .rev()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |&(_, v)| v);
                (name, if v.is_finite() { v } else { 0.0 }, unit)
            })
            .collect();
        Report {
            attempted,
            failed,
            metrics,
            notes,
        }
    }

    /// Value of metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (k, (name, value, unit)) in self.metrics.iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Directory for run artifacts (socket, span files), relative to the
/// working directory.
pub const OUT_DIR: &str = ".perfbench";

/// Runs one workload.
pub fn run(opts: &Opts) -> Report {
    let _ = std::fs::create_dir_all(OUT_DIR);
    match opts.workload {
        Workload::StudyDf => seq::run::<study::StudyBench<{ study::DF }>>(opts),
        Workload::StudyPulse => seq::run::<study::StudyBench<{ study::PULSE }>>(opts),
        Workload::CampaignGen => seq::run::<campaign::CampaignBench>(opts),
        Workload::ServeRepeat => serve::run(opts),
    }
}

/// Regenerates the golden file of `workload` at the default seed;
/// returns the number of entries written.
///
/// # Errors
///
/// An op that fails, or a served answer that differs from the one-shot
/// CLI render of the same config.
pub fn write_goldens(workload: Workload) -> Result<usize, String> {
    let seed = gen::DEFAULT_SEED;
    let entries = match workload {
        Workload::StudyDf => seq::golden_entries::<study::StudyBench<{ study::DF }>>(seed)?,
        Workload::StudyPulse => seq::golden_entries::<study::StudyBench<{ study::PULSE }>>(seed)?,
        Workload::CampaignGen => seq::golden_entries::<campaign::CampaignBench>(seed)?,
        Workload::ServeRepeat => serve::golden_entries(seed)?,
    };
    golden::Goldens::write(workload.name(), &entries).map_err(|e| e.to_string())?;
    Ok(entries.len())
}

/// The one-shot `pulsar study` render of a serve study job.
pub fn one_shot_render(spec: &pulsar_serve::JobSpec) -> Result<String, String> {
    serve::one_shot(spec)
}
