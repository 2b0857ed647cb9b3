//! Property tests: sensitization soundness on random circuits, and
//! buffer reuse in [`Sensitizer`].
//!
//! For random layered netlists, every vector the justifier returns must —
//! when simulated — actually hold every side input of the path at its
//! non-controlling value. (Completeness is not tested: `Ok(None)` may be
//! conservative under the hazard-aware blocking rule.) A `Sensitizer`
//! reused across a shuffled candidate list must answer every path exactly
//! as a fresh [`sensitize`] call does.

use proptest::prelude::*;
use pulsar_logic::{
    c432_like, enumerate_paths, paths_from_fanin, random_netlist, sensitize, simulate_bool,
    BenchParams, LogicError, Netlist, Path, Sensitizer,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Backtrack budgets drawn per path: tiny ones blow up on paths that need
/// branching, so budget errors interleave with answers.
const BUDGETS: [usize; 5] = [0, 1, 3, 20, 50_000];

/// Answers `paths` in a seeded shuffled order with one reused
/// [`Sensitizer`] and asserts each answer equals a fresh [`sensitize`]
/// at the same budget. Returns how many answers were `Ok(Some)`,
/// `Ok(None)` and budget errors.
fn reused_matches_fresh(nl: &Netlist, paths: &[Path], seed: u64) -> [usize; 3] {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..paths.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.random_range(0..i + 1));
    }
    let mut sens = Sensitizer::new(nl);
    let mut kinds = [0; 3];
    for i in order {
        let budget = BUDGETS[rng.random_range(0..BUDGETS.len())];
        let reused = sens.sensitize(&paths[i], budget);
        let fresh = sensitize(nl, &paths[i], budget);
        assert_eq!(reused, fresh, "path {i} at budget {budget}");
        kinds[match fresh {
            Ok(Some(_)) => 0,
            Ok(None) => 1,
            Err(LogicError::PathLimit { .. }) => 2,
            Err(e) => panic!("unexpected sensitization error {e}"),
        }] += 1;
    }
    kinds
}

/// The campaign's candidate lists: the paths through each of a few sites.
fn site_candidates(nl: &Netlist, sites: usize) -> Vec<Path> {
    let stride = (nl.gate_count() / sites).max(1);
    nl.gates()
        .iter()
        .step_by(stride)
        .flat_map(|g| paths_from_fanin(nl, g.output, 64))
        .collect()
}

fn verify_sensitized(nl: &Netlist, path: &Path, pi: &[bool]) {
    let vals = simulate_bool(nl, pi).expect("acyclic by construction");
    for step in &path.steps {
        let gate = nl.gate(step.gate);
        for (pin, &sig) in gate.inputs.iter().enumerate() {
            if pin != step.pin {
                assert_eq!(
                    vals[sig.index()],
                    gate.kind.side_input_value(),
                    "side input {} of {:?} not at its non-controlling value",
                    nl.signal_name(sig),
                    gate.kind,
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn returned_vectors_really_sensitize(seed in 0u64..10_000,
                                         inputs in 3usize..8,
                                         gates in 6usize..28,
                                         layers in 2usize..6) {
        let nl = random_netlist(
            &BenchParams { inputs, gates, outputs: 2.min(gates), layers },
            seed,
        );
        // Bounded enumeration; skip pathological cases.
        let Ok(paths) = enumerate_paths(&nl, None, 300) else {
            return Ok(());
        };
        let mut checked = 0;
        for path in paths.iter().take(40) {
            match sensitize(&nl, path, 50_000) {
                Ok(Some(vec)) => {
                    verify_sensitized(&nl, path, &vec.to_pi_bools(&nl));
                    checked += 1;
                }
                Ok(None) => {}       // conservative rejection is fine
                Err(_) => {}         // budget blown: fine
            }
        }
        // Not every random circuit yields sensitizable paths, but across
        // the corpus most do; nothing to assert when none did.
        let _ = checked;
    }

    /// Don't-care inputs really are don't-cares: flipping them keeps the
    /// sensitization valid.
    #[test]
    fn dont_cares_do_not_matter(seed in 0u64..5_000) {
        let nl = random_netlist(
            &BenchParams { inputs: 6, gates: 16, outputs: 2, layers: 4 },
            seed,
        );
        let Ok(paths) = enumerate_paths(&nl, None, 200) else {
            return Ok(());
        };
        for path in paths.iter().take(10) {
            if let Ok(Some(vec)) = sensitize(&nl, path, 50_000) {
                // All don't-cares at 0 and all at 1 must both sensitize.
                let zeros = vec.to_pi_bools(&nl);
                let ones: Vec<bool> = nl
                    .inputs()
                    .iter()
                    .map(|s| vec.value(*s).unwrap_or(true))
                    .collect();
                verify_sensitized(&nl, path, &zeros);
                verify_sensitized(&nl, path, &ones);
            }
        }
    }

    /// One `Sensitizer` over a shuffled candidate list answers exactly
    /// like a fresh `sensitize` per path: no assignment, block or
    /// backtrack count leaks from one path into the next.
    #[test]
    fn reused_sensitizer_matches_fresh_calls(seed in 0u64..10_000,
                                             gates in 12usize..60,
                                             layers in 3usize..8) {
        let nl = random_netlist(
            &BenchParams { inputs: 8, gates, outputs: 3, layers },
            seed,
        );
        reused_matches_fresh(&nl, &site_candidates(&nl, 6), seed);
    }
}

/// The reuse property on the c432-profile benchmark covers every answer
/// kind: vectors, unsensitizable paths and blown budgets.
#[test]
fn reuse_on_c432_like_covers_every_answer_kind() {
    let nl = c432_like();
    let [found, unsensitizable, budget] = reused_matches_fresh(&nl, &site_candidates(&nl, 12), 7);
    assert!(
        found > 0 && unsensitizable > 0 && budget > 0,
        "{found} vectors, {unsensitizable} unsensitizable, {budget} budget errors"
    );
}
