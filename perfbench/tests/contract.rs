//! The benchmark's own contract: seeded inputs repeat byte for byte,
//! traced runs repeat their per-layer counts exactly, a short smoke run
//! emits every named metric with its unit, and the served answers match
//! the one-shot CLI.

use perfbench::gen::{self, DEFAULT_SEED};
use perfbench::golden::Goldens;
use perfbench::{Opts, Report, Workload, END_TO_END, PER_LAYER};
use pulsar_obs::json::{self, Json};

fn smoke(workload: Workload, trace: bool) -> Report {
    perfbench::run(&Opts {
        workload,
        seed: DEFAULT_SEED,
        seconds: 0.5,
        trace,
        smoke: true,
    })
}

fn assert_clean(r: &Report, what: &str) {
    assert!(
        r.attempted > 0 && r.failed == 0,
        "{what}: {} of {} ops failed:\n{}",
        r.failed,
        r.attempted,
        r.notes.join("\n")
    );
}

#[test]
fn same_seed_gives_byte_identical_inputs() {
    let a = gen::inputs_digest_text(7, 16, 4);
    assert_eq!(a, gen::inputs_digest_text(7, 16, 4));
    assert_ne!(a, gen::inputs_digest_text(8, 16, 4));
    assert_eq!(gen::pool_texts(7), gen::pool_texts(7));
    // Op i's input does not depend on how many ops were drawn before.
    assert_eq!(
        gen::study_op_seed(7, "study-df", 5),
        gen::study_op_seed(7, "study-df", 5)
    );
    assert_ne!(
        gen::study_op_seed(7, "study-df", 5),
        gen::study_op_seed(7, "study-pulse", 5)
    );
}

#[test]
fn serve_cycle_is_mostly_whole_result_hits() {
    let cycle = gen::serve_cycle(DEFAULT_SEED, 0, 0);
    let hits = cycle.iter().filter(|s| s.role == gen::Role::Hit).count();
    assert!(
        hits * 10 >= cycle.len() * 6,
        "{hits} hits of {}",
        cycle.len()
    );
    assert_eq!(cycle[0].role, gen::Role::Miss);
    assert_eq!(cycle[1].role, gen::Role::CalibHit);
}

#[test]
fn smoke_run_emits_every_end_to_end_metric() {
    for w in Workload::ALL {
        let r = smoke(w, false);
        assert_clean(&r, w.name());
        let names: Vec<(&str, &str)> = r.metrics.iter().map(|m| (m.0, m.2)).collect();
        assert_eq!(names, END_TO_END.to_vec(), "{}", w.name());
        for (name, value, _) in &r.metrics {
            assert!(*value > 0.0, "{}: {name} reads {value}", w.name());
        }
        let line = r.result_line();
        let doc = json::parse(&line).expect("the result line is JSON");
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    }
}

#[test]
fn traced_runs_repeat_their_counts_exactly() {
    for w in Workload::ALL {
        let a = smoke(w, true);
        let b = smoke(w, true);
        assert_clean(&a, w.name());
        let names: Vec<(&str, &str)> = a.metrics.iter().map(|m| (m.0, m.2)).collect();
        assert_eq!(names, PER_LAYER.to_vec(), "{}", w.name());
        for ((name, va, unit), (_, vb, _)) in a.metrics.iter().zip(&b.metrics) {
            // Counts and ratios of counts repeat; times do not.
            let timed = *unit == "s" || matches!(*name, "obs.trace_overhead" | "mc.parallel_eff");
            if !timed {
                assert_eq!(
                    va,
                    vb,
                    "{}: {name} differs between two traced runs",
                    w.name()
                );
            }
        }
    }
}

#[test]
fn traced_runs_see_the_layers_they_drive() {
    let df = smoke(Workload::StudyDf, true);
    assert!(df.metric("analog.transients").unwrap_or(0.0) > 0.0);
    assert!(df.metric("core.calibrate_s").unwrap_or(0.0) > 0.0);
    let campaign = smoke(Workload::CampaignGen, true);
    assert_eq!(campaign.metric("analog.transients"), Some(0.0));
    assert!(campaign.metric("core.sites_probed").unwrap_or(0.0) > 0.0);
    let serve = smoke(Workload::ServeRepeat, true);
    assert!(serve.metric("serve.result_hit_ratio").unwrap_or(0.0) >= 0.6);
}

#[test]
fn goldens_exist_and_served_answers_match_the_one_shot_cli() {
    for w in Workload::ALL {
        assert!(
            !Goldens::for_run(w.name(), DEFAULT_SEED).is_empty(),
            "{} has no goldens",
            w.name()
        );
    }
    let spec = &gen::serve_cycle(DEFAULT_SEED, 0, 0)[0].spec;
    let one_shot = perfbench::one_shot_render(spec).expect("one-shot study");
    let goldens = Goldens::for_run("serve-repeat", DEFAULT_SEED);
    goldens
        .check("c0 k0 s0", &one_shot)
        .expect("the served golden equals the one-shot render");
}

#[test]
fn benchmark_json_lists_the_metric_tables() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json is JSON");
    let table = |key: &str| -> Vec<(String, String)> {
        match doc.get(key) {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|m| {
                    let s = |k: &str| match m.get(k) {
                        Some(Json::Str(v)) => v.clone(),
                        other => panic!("{key}: `{k}` is {other:?}"),
                    };
                    (s("name"), s("unit"))
                })
                .collect(),
            other => panic!("`{key}` is {other:?}"),
        }
    };
    let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    };
    assert_eq!(table("end_to_end"), own(&END_TO_END));
    assert_eq!(table("per_layer"), own(&PER_LAYER));
    let workloads: Vec<String> = match doc.get("workloads") {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|w| match w.get("name") {
                Some(Json::Str(n)) => n.clone(),
                other => panic!("workload name is {other:?}"),
            })
            .collect(),
        other => panic!("`workloads` is {other:?}"),
    };
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(workloads, ours);
}
