//! Frozen campaign plans: every probed site's answer, bit for bit.
//!
//! Each fixture under `tests/golden/` holds one line per probed site of a
//! default [`Campaign`]: the site's signal index, a tab, and the site's
//! [`SitePlanRecord::encode_json`] — path, input vector, pulse kind, and
//! `w_in`, `w_th` and `R_min` as hex-encoded `f64` bits. The lines were
//! recorded with the earlier planner (a sensitizer that rebuilt its
//! tables for every candidate path, and a timing model re-cloned and
//! re-injected at every bisection step) just before it was replaced.
//! They pin today's planner to that planner's exact answers, so they are
//! never regenerated from the code under test.
//!
//! Every fixture is checked through `Campaign::run` on one and on two
//! threads and through `Campaign::run_durable`.

use pulsar_core::{Campaign, CancelToken, CheckpointValue, SiteOutcome, SitePlanRecord};
use pulsar_logic::{c432_like, random_netlist, BenchParams, Netlist};
use pulsar_timing::TimingLibrary;

fn encode(outcome: &SiteOutcome) -> String {
    match outcome {
        SiteOutcome::Planned(p) => SitePlanRecord::Planned(p.clone()).encode_json(),
        SiteOutcome::Unsensitizable => SitePlanRecord::Unsensitizable.encode_json(),
        SiteOutcome::Failed(e) => format!("failed: {e}"),
    }
}

fn assert_matches_fixture(
    entry: &str,
    sites: &[(pulsar_logic::SignalId, SiteOutcome)],
    golden: &str,
) {
    let expected: Vec<&str> = golden.lines().collect();
    assert_eq!(
        sites.len(),
        expected.len(),
        "{entry}: probed-site count differs from the fixture"
    );
    for (i, ((site, outcome), want)) in sites.iter().zip(&expected).enumerate() {
        let got = format!("{}\t{}", site.index(), encode(outcome));
        assert_eq!(
            &got, want,
            "{entry}: probed site {i} differs from the fixture"
        );
    }
}

fn check(nl: &Netlist, golden: &str) {
    let lib = TimingLibrary::generic();
    for threads in [1, 2] {
        let campaign = Campaign {
            threads: Some(threads),
            ..Campaign::default()
        };
        let report = campaign.run(nl, &lib).expect("campaign runs");
        assert_matches_fixture(&format!("run, {threads} thread(s)"), &report.sites, golden);
    }
    let campaign = Campaign {
        threads: Some(2),
        ..Campaign::default()
    };
    let report = campaign
        .run_durable(nl, &lib, &CancelToken::new(), None)
        .expect("durable campaign runs");
    assert!(report.completeness.is_complete());
    assert_matches_fixture("run_durable", &report.sites, golden);
}

#[test]
fn c432_like_plans_match_the_frozen_bits() {
    check(
        &c432_like(),
        include_str!("golden/campaign_plans_c432_like.tsv"),
    );
}

#[test]
fn c880_like_seed_880_plans_match_the_frozen_bits() {
    check(
        &random_netlist(&BenchParams::c880_like(), 880),
        include_str!("golden/campaign_plans_c880_like_seed880.tsv"),
    );
}

#[test]
fn c880_like_seed_51329_plans_match_the_frozen_bits() {
    check(
        &random_netlist(&BenchParams::c880_like(), 51_329),
        include_str!("golden/campaign_plans_c880_like_seed51329.tsv"),
    );
}
