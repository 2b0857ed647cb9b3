//! `serve-repeat`: an in-process `pulsar-serve` daemon fed a fixed cycle
//! of small study jobs over its Unix socket by closed-loop clients, one
//! connection each. Each cycle holds a fresh-seed miss, a same-seed
//! calibration hit and four whole-result hits (see [`gen::serve_cycle`]).
//!
//! Every cache fill is single-fill and clients never share a seed, so
//! the daemon's hit and miss counts depend only on which submissions
//! were made, never on how the clients interleaved.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use pulsar_obs::json::{self, Json};
use pulsar_serve::{Client, Daemon, JobSpec, ServeConfig, StudyKind};

use crate::gen::{self, Role, SERVE_SAMPLES};
use crate::golden::Goldens;
use crate::seq::{end_to_end, with_host, Measured, Probes};
use crate::stats::median;
use crate::study::{verify_pulse_rejection, DAMPENED};
use crate::trace::Tracer;
use crate::{host, Opts, Report};

/// Daemons started by this process, naming their sockets.
static DAEMONS: AtomicUsize = AtomicUsize::new(0);

/// Serve cycles per client recorded by `--write-goldens`.
const GOLDEN_CYCLES: usize = 16;

/// One timed submission.
struct Sub {
    role: Role,
    /// The job's calibration was rejected (verified), so no cache holds
    /// it and every submission of its seed recomputes and fails.
    rejected: bool,
    traced: bool,
    latency: f64,
    submit_s: f64,
    wait_s: f64,
    evals: u64,
    error: Option<String>,
}

/// A running daemon with its client connections.
struct Served {
    daemon: Daemon,
    clients: Vec<Client>,
    /// Warm-up jobs whose calibration was (verifiably) rejected.
    warm_rejected: u64,
}

impl Served {
    fn start(seed: u64) -> Result<Served, String> {
        // ordering: a unique-name counter; it publishes no other data.
        let n = DAEMONS.fetch_add(1, Ordering::Relaxed);
        let socket = PathBuf::from(format!(
            "{}/serve-{}-{n}.sock",
            crate::OUT_DIR,
            std::process::id()
        ));
        let mut cfg = ServeConfig::new(socket);
        cfg.workers = host::threads();
        let daemon = Daemon::start(cfg).map_err(|e| format!("daemon start: {e}"))?;
        let mut clients = Vec::new();
        for _ in 0..host::threads() {
            clients.push(
                Client::connect_within(daemon.socket(), Duration::from_secs(10))
                    .map_err(|e| format!("connect: {e}"))?,
            );
        }
        let mut served = Served {
            daemon,
            clients,
            warm_rejected: 0,
        };
        // Warm-up: one job of each kind at a seed no cycle uses, so the
        // lint and symbolic caches hold their topology entries.
        for kind in [StudyKind::Df, StudyKind::Pulse] {
            let spec = JobSpec::Study {
                kind,
                samples: SERVE_SAMPLES,
                seed: gen::derive(seed, "setup", 0) >> 11,
                rs: gen::SERVE_RS[0].to_vec(),
                factors: gen::SERVE_FACTORS.to_vec(),
            };
            match served_text(&mut served.clients[0], &spec) {
                Ok(Answer::Text(_)) => {}
                Ok(Answer::Rejected) => served.warm_rejected += 1,
                Err(e) => return Err(format!("warm-up: {e}")),
            }
        }
        Ok(served)
    }

    /// Shuts the daemon down; `rejected` jobs were expected to fail.
    fn stop(mut self, rejected: u64) -> Result<(), String> {
        self.clients[0]
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"))?;
        drop(self.clients);
        let summary = self
            .daemon
            .join()
            .map_err(|e| format!("daemon join: {e}"))?;
        if summary.jobs_failed != self.warm_rejected + rejected {
            return Err(format!(
                "{} daemon jobs failed, {} calibration rejections expected",
                summary.jobs_failed,
                self.warm_rejected + rejected
            ));
        }
        Ok(())
    }
}

/// A served study answer.
enum Answer {
    /// The result text of a done job.
    Text(String),
    /// A pulse job whose calibration was rejected, verified in-process.
    Rejected,
}

/// The seed of a pulse study job.
fn pulse_seed(spec: &JobSpec) -> Option<u64> {
    match spec {
        JobSpec::Study {
            kind: StudyKind::Pulse,
            seed,
            ..
        } => Some(*seed),
        _ => None,
    }
}

/// Classifies a failed job: `Ok` when it is a pulse calibration
/// rejection that [`verify_pulse_rejection`] confirms.
fn verified_rejection(spec: &JobSpec, error: Option<&str>) -> Result<(), String> {
    match (pulse_seed(spec), error) {
        (Some(seed), Some(e)) if e.contains(DAMPENED) => {
            verify_pulse_rejection(SERVE_SAMPLES, seed).map(drop)
        }
        _ => Err(format!("job failed: {error:?}")),
    }
}

/// Submits `spec` and waits for its answer.
fn served_text(client: &mut Client, spec: &JobSpec) -> Result<Answer, String> {
    let (job, _, _) = client.submit(spec).map_err(|e| e.to_string())?;
    let outcome = client.wait(job).map_err(|e| e.to_string())?;
    match (outcome.state.as_str(), outcome.result) {
        ("done", Some(text)) => Ok(Answer::Text(text)),
        ("failed", _) => {
            verified_rejection(spec, outcome.error.as_deref()).map(|()| Answer::Rejected)
        }
        (state, _) => Err(format!("job {job} ended {state}: {:?}", outcome.error)),
    }
}

/// The one-shot `pulsar study` render of a study job.
pub(crate) fn one_shot(spec: &JobSpec) -> Result<String, String> {
    let JobSpec::Study {
        kind,
        samples,
        seed,
        rs,
        factors,
    } = spec
    else {
        return Err("only study jobs have a one-shot study render".to_owned());
    };
    let list = |v: &[f64]| v.iter().map(f64::to_string).collect::<Vec<_>>().join(",");
    let args: Vec<String> = vec![
        "study".into(),
        kind.as_str().into(),
        "--samples".into(),
        samples.to_string(),
        "--seed".into(),
        seed.to_string(),
        "--r".into(),
        list(rs),
        "--factors".into(),
        list(factors),
    ];
    pulsar_cli::dispatch(&args).map_err(|e| e.message)
}

/// Checks a served study text: the header names the job, and each
/// factor line lists one `k/N` coverage per resistance.
fn check_study_text(spec: &JobSpec, text: &str) -> Result<(), String> {
    let JobSpec::Study {
        kind,
        samples,
        seed,
        rs,
        factors,
    } = spec
    else {
        return Err("not a study job".to_owned());
    };
    let mut lines = text.lines();
    let header = lines.next().unwrap_or("");
    if !header.starts_with(&format!("{} study on the paper path", kind.as_str()))
        || !header.ends_with(&format!("N = {samples}, seed {seed}"))
    {
        return Err(format!("unexpected header `{header}`"));
    }
    let curves: Vec<&str> = lines.collect();
    if curves.len() != factors.len() {
        return Err(format!(
            "{} curve lines for {} factors",
            curves.len(),
            factors.len()
        ));
    }
    for line in curves {
        let points: Vec<&str> = line
            .split_once(": coverage ")
            .map(|(_, p)| p.split(' ').collect())
            .unwrap_or_default();
        if points.len() != rs.len() {
            return Err(format!("curve line `{line}` does not cover the sweep"));
        }
        for p in points {
            let cov: f64 = p
                .split_once('@')
                .and_then(|(c, _)| c.parse().ok())
                .ok_or_else(|| format!("bad point `{p}`"))?;
            let k = cov * *samples as f64;
            if !(0.0..=1.0).contains(&cov) || (k - k.round()).abs() > 1e-6 {
                return Err(format!("coverage {cov} is not k/{samples}"));
            }
        }
    }
    Ok(())
}

/// Evaluations the daemon computes for a submission of `role`.
fn evals_of(role: Role, spec: &JobSpec) -> u64 {
    let JobSpec::Study { samples, rs, .. } = spec else {
        return 0;
    };
    let coverage = (samples * rs.len()) as u64;
    match role {
        Role::Miss => *samples as u64 + coverage,
        Role::CalibHit => coverage,
        Role::Hit => 0,
    }
}

/// Runs cycle `cycle` of client `c`; `first` maps each digest to the
/// text it was first answered with.
#[allow(clippy::too_many_arguments)]
fn run_cycle(
    client: &mut Client,
    seed: u64,
    c: usize,
    cycle: usize,
    tr: &Tracer,
    goldens: &Goldens,
    first: &mut HashMap<u64, String>,
    subs: &mut Vec<Sub>,
) {
    // Set once the cycle's pulse calibration is verifiably rejected:
    // every later submission of the cycle must fail the same way.
    let mut rejected = false;
    for (s_index, s) in gen::serve_cycle(seed, c, cycle).into_iter().enumerate() {
        let op_id = ((c as u64) << 40) | ((cycle as u64) << 8) | s_index as u64;
        let t = Instant::now();
        let (submit_s, wait_s, result) = tr.span(op_id, 0, "op", |root| {
            let t_submit = Instant::now();
            let submitted = tr.span(op_id, root, "serve.submit", |_| client.submit(&s.spec));
            let submit_s = t_submit.elapsed().as_secs_f64();
            let t_wait = Instant::now();
            let result = submitted.and_then(|(job, digest, cached)| {
                tr.span(op_id, root, "serve.wait", |_| client.wait(job))
                    .map(|o| (digest, cached, o))
            });
            (submit_s, t_wait.elapsed().as_secs_f64(), result)
        });
        let latency = t.elapsed().as_secs_f64();
        let was_rejected = rejected;
        let error = match result {
            Err(e) => Some(format!("refused or lost: {e}")),
            Ok((_, cached, outcome)) if outcome.state == "failed" => {
                if cached {
                    Some("a failed job was answered from the cache".to_owned())
                } else if rejected {
                    (!outcome
                        .error
                        .as_deref()
                        .is_some_and(|e| e.contains(DAMPENED)))
                    .then(|| format!("job failed: {:?}", outcome.error))
                } else {
                    rejected = s.role == Role::Miss;
                    let verified = verified_rejection(&s.spec, outcome.error.as_deref()).err();
                    if verified.is_none() && !rejected {
                        Some("a calibration rejection followed a completed job".to_owned())
                    } else {
                        verified
                    }
                }
            }
            Ok(_) if rejected => Some("a rejected calibration later produced a result".to_owned()),
            Ok((digest, cached, outcome)) => {
                let text = outcome.result.unwrap_or_default();
                if outcome.state != "done" {
                    Some(format!("job ended {}: {:?}", outcome.state, outcome.error))
                } else if cached != (s.role == Role::Hit) {
                    Some(format!(
                        "{} submission answered with cached = {cached}",
                        s.role.name()
                    ))
                } else if s.role == Role::Hit {
                    (first.get(&digest) != Some(&text))
                        .then(|| "a whole-result hit differs from its first answer".to_owned())
                } else {
                    let key = format!("c{c} k{cycle} s{}", s.spec_index);
                    let checked =
                        check_study_text(&s.spec, &text).and_then(|()| goldens.check(&key, &text));
                    first.insert(digest, text);
                    checked.err()
                }
            }
        };
        let rejected_now = was_rejected || rejected;
        subs.push(Sub {
            role: s.role,
            rejected: rejected_now,
            traced: tr.is_on(),
            latency,
            submit_s,
            wait_s,
            evals: if rejected_now {
                SERVE_SAMPLES as u64
            } else {
                evals_of(s.role, &s.spec)
            },
            error,
        });
    }
}

/// The daemon's `stats` counters and cache sizes.
struct Stats {
    doc: Json,
}

impl Stats {
    fn fetch(client: &mut Client) -> Result<Stats, String> {
        let payload = client.stats().map_err(|e| e.to_string())?;
        json::parse(&payload)
            .map(|doc| Stats { doc })
            .map_err(|e| format!("stats payload: {e:?}"))
    }

    fn counter(&self, name: &str) -> f64 {
        self.doc
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_num)
            .unwrap_or(0.0)
    }

    fn cache_entries(&self) -> f64 {
        ["result", "calib", "lint", "symbolic"]
            .iter()
            .filter_map(|k| {
                self.doc
                    .get("caches")
                    .and_then(|c| c.get(k))
                    .and_then(Json::as_num)
            })
            .sum()
    }
}

/// Serve cycles per client in the traced run (even, so traced and
/// plain cycles pair up).
fn traced_cycles(seconds: f64) -> usize {
    2 * ((seconds / 4.0).round() as usize).clamp(1, 32)
}

pub(crate) fn run(opts: &Opts) -> Report {
    let load_before = host::loadavg();
    let failed_report = |e: String| {
        with_host(
            Report::new(opts.trace, 1, 1, &[], vec![format!("# serve-repeat: {e}")]),
            &load_before,
        )
    };
    let mut setup_s = Vec::new();
    let mut served = None;
    while opts.more_setup(&setup_s) {
        if let Some(prev) = served.take() {
            if let Err(e) = Served::stop(prev, 0) {
                return failed_report(e);
            }
        }
        let t = Instant::now();
        match Served::start(opts.seed) {
            Ok(s) => served = Some(s),
            Err(e) => return failed_report(e),
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut served = served.expect("set-up ran at least once");
    let goldens = Goldens::for_run("serve-repeat", opts.seed);

    let before = match Stats::fetch(&mut served.clients[0]) {
        Ok(s) => s,
        Err(e) => return failed_report(e),
    };
    let tracer = Tracer::new(true);
    let off = Tracer::new(false);
    // Rounds: every client runs one cycle, concurrently; between rounds
    // (no job in flight) an untraced run probes the host's speed.
    let mut probes = (!opts.trace).then(Probes::new);
    let mut firsts: Vec<HashMap<u64, String>> = vec![HashMap::new(); served.clients.len()];
    let mut per_client: Vec<Vec<Sub>> = Vec::new();
    let (mut busy, mut cpu) = (0.0, 0.0);
    let t0 = Instant::now();
    for cycle in 0.. {
        let done = if opts.trace {
            cycle >= traced_cycles(opts.seconds)
        } else {
            cycle > 0 && t0.elapsed().as_secs_f64() >= opts.seconds
        };
        if done {
            break;
        }
        let tr = if opts.trace && cycle % 2 == 0 {
            &tracer
        } else {
            &off
        };
        let cpu0 = host::cpu_s();
        let t = Instant::now();
        let round: Vec<Vec<Sub>> = std::thread::scope(|scope| {
            let handles: Vec<_> = served
                .clients
                .iter_mut()
                .zip(firsts.iter_mut())
                .enumerate()
                .map(|(c, (client, first))| {
                    let goldens = &goldens;
                    scope.spawn(move || {
                        let mut subs = Vec::new();
                        run_cycle(client, opts.seed, c, cycle, tr, goldens, first, &mut subs);
                        subs
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("serve client thread panicked"))
                .collect()
        });
        busy += t.elapsed().as_secs_f64();
        cpu += host::cpu_s() - cpu0;
        per_client.extend(round);
        if let Some(p) = probes.as_mut() {
            p.probe();
        }
    }
    let after = Stats::fetch(&mut served.clients[0]);
    let rejected = per_client.iter().flatten().filter(|s| s.rejected).count();
    let stopped = served.stop(rejected as u64);

    let subs: Vec<Sub> = per_client.into_iter().flatten().collect();
    let mut notes = Vec::new();
    let mut failed = 0u64;
    for (k, s) in subs.iter().enumerate() {
        if let Some(e) = &s.error {
            failed += 1;
            notes.push(format!("# submission {k} ({}) failed: {e}", s.role.name()));
        }
    }
    let after = match (after, stopped) {
        (Ok(a), Ok(())) => a,
        (Err(e), _) | (_, Err(e)) => return failed_report(e),
    };
    let evals: u64 = subs.iter().map(|s| s.evals).sum();
    let report = if opts.trace {
        let path = format!("{}/spans-serve-repeat-{}.jsonl", crate::OUT_DIR, opts.seed);
        match tracer.write_jsonl(std::path::Path::new(&path)) {
            Ok(()) => notes.push(format!("# spans written to {path}")),
            Err(e) => notes.push(format!("# spans not written to {path}: {e}")),
        }
        traced_metrics(&subs, &before, &after, evals, failed, notes)
    } else {
        let measured = Measured {
            op_s: subs.iter().map(|s| s.latency).collect(),
            failed,
            evals,
            busy,
            cpu,
            setup_s: median(&setup_s),
        };
        let probe_s = probes.map(Probes::finish).unwrap_or_default();
        end_to_end(opts, &measured, &probe_s, notes)
    };
    with_host(report, &load_before)
}

fn traced_metrics(
    subs: &[Sub],
    before: &Stats,
    after: &Stats,
    evals: u64,
    failed: u64,
    notes: Vec<String>,
) -> Report {
    let n = subs.len() as f64;
    let delta = |name: &str| after.counter(name) - before.counter(name);
    let per_op = |name: &str| delta(name) / n;
    let latencies = |f: &dyn Fn(&Sub) -> bool| -> Vec<f64> {
        subs.iter()
            .filter(|s| !s.rejected && f(s))
            .map(|s| s.latency)
            .collect()
    };
    let steps = delta("steps_accepted");
    let hits = delta("serve_result_cache_hits");
    let misses = delta("serve_result_cache_misses");
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let values = [
        ("analog.steps_accepted", steps / n),
        ("analog.lte_rejections", per_op("lte_rejections")),
        ("analog.newton_iters", per_op("newton_iterations")),
        (
            "analog.newton_iters_per_step",
            ratio(delta("newton_iterations"), steps),
        ),
        ("analog.newton_retries", per_op("newton_retries")),
        ("analog.dense_solves", per_op("dense_solves")),
        ("analog.sparse_solves", per_op("sparse_solves")),
        ("analog.symbolic_analyses", per_op("symbolic_analyses")),
        (
            "analog.numeric_factorizations",
            per_op("numeric_factorizations"),
        ),
        (
            "mc.samples",
            (delta("samples_ok") + delta("samples_recovered") + delta("samples_failed")) / n,
        ),
        ("mc.retry_attempts", per_op("retry_attempts")),
        ("mc.samples_failed", per_op("samples_failed")),
        ("mc.evals", evals as f64 / n),
        (
            "serve.submit_rtt_s",
            median(&subs.iter().map(|s| s.submit_s).collect::<Vec<_>>()),
        ),
        (
            "serve.wait_s",
            median(&subs.iter().map(|s| s.wait_s).collect::<Vec<_>>()),
        ),
        (
            "serve.hit_p50_s",
            median(&latencies(&|s| s.role == Role::Hit)),
        ),
        (
            "serve.miss_p50_s",
            median(&latencies(&|s| s.role == Role::Miss)),
        ),
        (
            "serve.calib_hit_p50_s",
            median(&latencies(&|s| s.role == Role::CalibHit)),
        ),
        ("serve.result_hits", hits / n),
        ("serve.result_misses", misses / n),
        ("serve.result_hit_ratio", ratio(hits, hits + misses)),
        ("serve.calib_hits", per_op("serve_calib_cache_hits")),
        ("serve.symbolic_hits", per_op("serve_symbolic_cache_hits")),
        ("serve.lint_hits", per_op("serve_lint_cache_hits")),
        ("serve.cache_entries", after.cache_entries()),
        ("serve.busy_rejections", per_op("serve_busy_rejections")),
        (
            "core.calib_rejected",
            subs.iter().filter(|s| s.rejected).count() as f64 / n,
        ),
        (
            "obs.trace_overhead",
            median(&latencies(&|s| s.traced)) / median(&latencies(&|s| !s.traced)) - 1.0,
        ),
        (
            "obs.traced_ops",
            subs.iter().filter(|s| s.traced).count() as f64,
        ),
    ];
    Report::new(true, subs.len() as u64, failed, &values, notes)
}

/// Golden entries: the served texts of the first [`GOLDEN_CYCLES`]
/// cycles of each client, each asserted byte-identical to the one-shot
/// CLI render of the same config.
pub(crate) fn golden_entries(seed: u64) -> Result<Vec<(String, String)>, String> {
    let mut served = Served::start(seed)?;
    let mut entries = Vec::new();
    let mut rejected = 0;
    for c in 0..2 {
        for cycle in 0..GOLDEN_CYCLES {
            for s in gen::serve_cycle(seed, c, cycle) {
                if s.role == Role::Hit {
                    continue;
                }
                // A verified calibration rejection has no golden.
                let Answer::Text(text) = served_text(&mut served.clients[0], &s.spec)? else {
                    rejected += 1;
                    continue;
                };
                check_study_text(&s.spec, &text)?;
                let reference = one_shot(&s.spec)?;
                if text != reference {
                    return Err(format!(
                        "served answer differs from the one-shot render:\n{text}---\n{reference}"
                    ));
                }
                entries.push((format!("c{c} k{cycle} s{}", s.spec_index), text));
            }
        }
    }
    served.stop(rejected)?;
    Ok(entries)
}
