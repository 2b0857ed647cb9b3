//! The closed-loop driver of the single-client workloads (`study-df`,
//! `study-pulse`, `campaign-gen`): one op at a time, each starting when
//! the previous one completes.

use std::time::Instant;

use pulsar_obs::{MetricsSnapshot, Recorder};

use crate::golden::Goldens;
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::{host, layers, Opts, Report};

/// The result of one op.
pub(crate) struct OpResult {
    /// Evaluations the op completed (see `README.md`).
    pub evals: u64,
    /// Why the op failed or its output was wrong.
    pub error: Option<String>,
    /// Golden key and output text of the op.
    pub key: String,
    pub text: String,
    /// Workload-specific per-op counts, named like [`crate::PER_LAYER`].
    pub counts: Vec<(&'static str, f64)>,
}

/// A single-client workload.
pub(crate) trait SeqWorkload: Sized {
    /// The `--workload` name.
    const NAME: &'static str;

    /// Builds the workload's inputs and warms it up.
    fn setup(seed: u64) -> Result<Self, String>;

    /// Runs op `i`. With `tr` on, records spans of op `op_id` under
    /// `parent`; `rec` is installed on every layer that takes one.
    fn op(&self, i: usize, tr: &Tracer, op_id: u64, parent: u64, rec: &Recorder) -> OpResult;

    /// Ops in the traced run's fixed op list for a `seconds` budget.
    fn traced_ops(seconds: f64) -> usize;

    /// Golden entries recorded by `--write-goldens`: the first ops.
    fn golden_ops() -> usize;

    /// Span-derived per-layer metrics of this workload.
    fn span_metrics(tr: &Tracer) -> Vec<(&'static str, f64)>;
}

/// Checks an op's output against the run's goldens.
pub(crate) fn checked(mut r: OpResult, goldens: &Goldens) -> OpResult {
    if r.error.is_none() {
        r.error = goldens.check(&r.key, &r.text).err();
    }
    r
}

pub(crate) fn run<W: SeqWorkload>(opts: &Opts) -> Report {
    let load_before = host::loadavg();
    let goldens = Goldens::for_run(W::NAME, opts.seed);
    let mut setup_s = Vec::new();
    let mut bench = None;
    while opts.more_setup(&setup_s) {
        let t = Instant::now();
        match W::setup(opts.seed) {
            Ok(b) => bench = Some(b),
            Err(e) => {
                return Report::new(opts.trace, 1, 1, &[], vec![format!("# set-up failed: {e}")])
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let bench = bench.expect("set-up ran at least once");
    let report = if opts.trace {
        traced(&bench, opts, &goldens)
    } else {
        untraced(&bench, opts, &goldens, median(&setup_s))
    };
    with_host(report, &load_before)
}

/// Appends the host fingerprint to a report's notes.
pub(crate) fn with_host(mut r: Report, load_before: &str) -> Report {
    r.notes.push(format!(
        "# host {}",
        host::fingerprint(load_before, &host::loadavg())
    ));
    r
}

fn untraced<W: SeqWorkload>(bench: &W, opts: &Opts, goldens: &Goldens, setup_s: f64) -> Report {
    let off = Tracer::new(false);
    let disabled = Recorder::disabled();
    let mut op_s = Vec::new();
    let (mut failed, mut evals) = (0u64, 0u64);
    let mut notes = Vec::new();
    let mut probes = Probes::new();
    let (mut busy, mut cpu) = (0.0, 0.0);
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < opts.seconds || op_s.len() < opts.min_ops() {
        let i = op_s.len();
        let cpu0 = host::cpu_s();
        let t = Instant::now();
        let r = checked(bench.op(i, &off, 0, 0, &disabled), goldens);
        op_s.push(t.elapsed().as_secs_f64());
        cpu += host::cpu_s() - cpu0;
        busy += op_s[i];
        evals += r.evals;
        if let Some(e) = r.error {
            failed += 1;
            notes.push(format!("# op {i} failed: {e}"));
        }
        probes.between_ops();
    }
    let measured = Measured {
        op_s,
        failed,
        evals,
        busy,
        cpu,
        setup_s,
    };
    end_to_end(opts, &measured, &probes.finish(), notes)
}

/// Host-speed probes taken between ops, outside op timing.
pub(crate) struct Probes {
    secs: Vec<f64>,
    last: Instant,
}

impl Probes {
    /// Starts with one probe.
    pub(crate) fn new() -> Probes {
        let secs = vec![host::probe_s()];
        Probes {
            secs,
            last: Instant::now(),
        }
    }

    /// Probes if a second has passed since the last probe.
    pub(crate) fn between_ops(&mut self) {
        if self.last.elapsed().as_secs_f64() >= 1.0 {
            self.probe();
        }
    }

    /// Probes now.
    pub(crate) fn probe(&mut self) {
        self.secs.push(host::probe_s());
        self.last = Instant::now();
    }

    /// Takes a last probe and returns every probe's duration, seconds.
    pub(crate) fn finish(mut self) -> Vec<f64> {
        self.probe();
        self.secs
    }
}

/// What an untraced run measured.
pub(crate) struct Measured {
    /// Wall time of every op, seconds.
    pub op_s: Vec<f64>,
    pub failed: u64,
    pub evals: u64,
    /// Wall seconds spent in ops (probes excluded).
    pub busy: f64,
    /// Process CPU seconds spent in ops (probes excluded).
    pub cpu: f64,
    /// Median set-up time, seconds.
    pub setup_s: f64,
}

/// Assembles the end-to-end metrics of an untraced run: times in probes
/// (`probe_s` is every probe's duration), with the raw seconds noted.
pub(crate) fn end_to_end(
    opts: &Opts,
    m: &Measured,
    probe_s: &[f64],
    mut notes: Vec<String>,
) -> Report {
    let n = m.op_s.len() as f64;
    let (tail_s, pct) = tail(&m.op_s);
    let probe = median(probe_s);
    let (p50_s, ops_per_s, evals_per_s) = (median(&m.op_s), n / m.busy, m.evals as f64 / m.busy);
    notes.push(format!(
        "# {}: {} ops in {:.3} s; op_tail is the p{pct:.1} of {} ops",
        opts.workload.name(),
        m.op_s.len(),
        m.busy,
        m.op_s.len()
    ));
    notes.push(format!(
        "# raw: op_p50_s={p50_s:.6} op_tail_s={tail_s:.6} ops_per_s={ops_per_s:.4} \
         evals_per_s={evals_per_s:.2} cpu_s_per_op={:.6} probe_s={probe:.6} \
         (median of {} probes, min {:.6}, max {:.6})",
        m.cpu / n,
        probe_s.len(),
        probe_s.iter().copied().fold(f64::INFINITY, f64::min),
        probe_s.iter().copied().fold(0.0, f64::max),
    ));
    Report::new(
        false,
        m.op_s.len() as u64,
        m.failed,
        &[
            ("setup_s", m.setup_s),
            ("op_p50_probes", p50_s / probe),
            ("op_tail_probes", tail_s / probe),
            ("ops_per_probe", ops_per_s * probe),
            ("evals_per_probe", evals_per_s * probe),
            ("cpu_per_op_probes", m.cpu / n / probe),
            ("ok_frac", 1.0 - m.failed as f64 / n),
            ("peak_rss_mb", host::peak_rss_mb()),
        ],
        notes,
    )
}

fn traced<W: SeqWorkload>(bench: &W, opts: &Opts, goldens: &Goldens) -> Report {
    let k = W::traced_ops(opts.seconds);
    let tr = Tracer::new(true);
    let off = Tracer::new(false);
    let disabled = Recorder::disabled();
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut snaps: Vec<MetricsSnapshot> = Vec::new();
    let mut results = Vec::new();
    let mut notes = Vec::new();
    let mut failed = 0u64;
    for i in 0..k {
        // Alternate which copy runs first, so drift hits both alike.
        for traced_copy in [i % 2 == 1, i % 2 == 0] {
            let t = Instant::now();
            let r = if traced_copy {
                let rec = Recorder::enabled();
                let op_id = i as u64 + 1;
                let r = tr.span(op_id, 0, "op", |root| bench.op(i, &tr, op_id, root, &rec));
                traced_s.push(t.elapsed().as_secs_f64());
                snaps.push(rec.snapshot());
                r
            } else {
                let r = bench.op(i, &off, 0, 0, &disabled);
                plain_s.push(t.elapsed().as_secs_f64());
                r
            };
            let r = checked(r, goldens);
            if let Some(e) = &r.error {
                failed += 1;
                notes.push(format!("# op {i} failed: {e}"));
            }
            if traced_copy {
                results.push(r);
            }
        }
    }
    // Spans leave memory only now, after every timed op.
    let path = format!("{}/spans-{}-{}.jsonl", crate::OUT_DIR, W::NAME, opts.seed);
    match tr.write_jsonl(std::path::Path::new(&path)) {
        Ok(()) => notes.push(format!("# spans written to {path}")),
        Err(e) => notes.push(format!("# spans not written to {path}: {e}")),
    }

    let k_f = k as f64;
    let mut values = layers::from_snapshots(&snaps, k_f);
    let study_wall: f64 = tr.per_op("core.calibrate").iter().sum::<f64>()
        + tr.per_op("core.coverage").iter().sum::<f64>();
    values.push(layers::parallel_eff(&snaps, study_wall));
    let mut summed: Vec<(&'static str, f64)> = Vec::new();
    for r in &results {
        for &(name, v) in &r.counts {
            match summed.iter_mut().find(|(n, _)| *n == name) {
                Some(s) => s.1 += v,
                None => summed.push((name, v)),
            }
        }
    }
    values.extend(summed.into_iter().map(|(n, v)| (n, v / k_f)));
    values.extend(W::span_metrics(&tr));
    values.push((
        "obs.trace_overhead",
        median(&traced_s) / median(&plain_s) - 1.0,
    ));
    values.push(("obs.traced_ops", k_f));
    Report::new(true, 2 * k as u64, failed, &values, notes)
}

/// Golden entries for the first [`SeqWorkload::golden_ops`] ops at `seed`.
pub(crate) fn golden_entries<W: SeqWorkload>(seed: u64) -> Result<Vec<(String, String)>, String> {
    let bench = W::setup(seed)?;
    let off = Tracer::new(false);
    let mut entries: Vec<(String, String)> = Vec::new();
    for i in 0..W::golden_ops() {
        let r = bench.op(i, &off, 0, 0, &Recorder::disabled());
        if let Some(e) = r.error {
            return Err(format!("op {i}: {e}"));
        }
        if !entries.iter().any(|(k, _)| *k == r.key) {
            entries.push((r.key, r.text));
        }
    }
    Ok(entries)
}
