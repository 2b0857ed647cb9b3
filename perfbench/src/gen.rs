//! Seeded input generation.
//!
//! Every input a workload feeds the program — per-op Monte Carlo seeds,
//! the netlist pool, the serve submission sequence — is derived here
//! from the workload seed alone, so the same seed gives byte-identical
//! inputs on every run and every host. Derivation is per index (not a
//! running stream), so op `i` gets the same input however many ops a
//! time-bounded run completes.

use pulsar_logic::{random_netlist, write_iscas85, BenchParams, Netlist};
use pulsar_serve::{JobSpec, StudyKind};

/// The workload seed used when `--seed` is not given; the golden
/// outputs under `golden/` are recorded at this seed.
pub const DEFAULT_SEED: u64 = 2007;

/// Defect resistances of the study sweeps, ohms: five log-spaced points
/// across the paper's detection transition.
pub const STUDY_RS: [f64; 5] = [3e3, 1e4, 3e4, 1e5, 3e5];

/// Clock / threshold factors of the study sweeps (the paper's three).
pub const STUDY_FACTORS: [f64; 3] = [0.9, 1.0, 1.1];

/// Sweeps of the small serve jobs: a cycle's fresh-seed submission uses
/// the first, its same-seed calibration-hit submission the second.
pub const SERVE_RS: [&[f64]; 2] = [&[1e3, 3e4, 1e5], &[1e4, 3e5]];

/// Factors of the serve jobs.
pub const SERVE_FACTORS: [f64; 2] = [0.9, 1.1];

/// Monte Carlo samples of one serve job.
pub const SERVE_SAMPLES: usize = 8;

/// Netlists in the campaign pool.
pub const POOL_SIZE: usize = 16;

/// SplitMix64 finaliser: a bijective 64-bit mix.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over bytes.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The `index`-th value of the stream named `label` under `seed`.
pub fn derive(seed: u64, label: &str, index: u64) -> u64 {
    mix(mix(seed ^ fnv(label.as_bytes())).wrapping_add(index))
}

/// Master Monte Carlo seed of study op `i` (`label` is the workload
/// name, so the two study workloads draw different seeds).
pub fn study_op_seed(seed: u64, label: &str, i: usize) -> u64 {
    // Kept below 2^53 so the seed prints and parses exactly anywhere.
    derive(seed, label, i as u64) >> 11
}

/// The campaign pool: `POOL_SIZE` C880-profile netlists.
pub fn netlist_pool(seed: u64) -> Vec<Netlist> {
    (0..POOL_SIZE)
        .map(|j| {
            random_netlist(
                &BenchParams::c880_like(),
                derive(seed, "campaign-pool", j as u64),
            )
        })
        .collect()
}

/// The ISCAS-85 texts of the campaign pool.
pub fn pool_texts(seed: u64) -> Vec<String> {
    netlist_pool(seed).iter().map(write_iscas85).collect()
}

/// The role a submission plays in a serve cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A fresh seed: every cache misses.
    Miss,
    /// The same seed with a new sweep: the calibration cache hits, the
    /// whole-result cache misses.
    CalibHit,
    /// An identical resubmission: a whole-result cache hit.
    Hit,
}

impl Role {
    /// Short label used in spans and goldens.
    pub fn name(self) -> &'static str {
        match self {
            Role::Miss => "miss",
            Role::CalibHit => "calib-hit",
            Role::Hit => "hit",
        }
    }
}

/// One planned serve submission.
#[derive(Debug, Clone, PartialEq)]
pub struct Submission {
    /// What the daemon should do with it.
    pub role: Role,
    /// Which of the cycle's two specs (0 = first sweep, 1 = second).
    pub spec_index: usize,
    /// The job.
    pub spec: JobSpec,
}

/// The fixed cycle of serve client `client` at cycle `cycle`: one
/// fresh-seed miss, one same-seed calibration hit, then four identical
/// resubmissions (whole-result hits, 4 of 6 = 67 % of submissions) in a
/// seed-chosen order.
pub fn serve_cycle(seed: u64, client: usize, cycle: usize) -> Vec<Submission> {
    let kind = if (client + cycle).is_multiple_of(2) {
        StudyKind::Df
    } else {
        StudyKind::Pulse
    };
    let index = ((client as u64) << 32) | cycle as u64;
    let job_seed = derive(seed, "serve-seed", index) >> 11;
    let spec = |s: usize| JobSpec::Study {
        kind,
        samples: SERVE_SAMPLES,
        seed: job_seed,
        rs: SERVE_RS[s].to_vec(),
        factors: SERVE_FACTORS.to_vec(),
    };
    let order: [usize; 4] = if derive(seed, "serve-order", index) & 1 == 0 {
        [0, 1, 1, 0]
    } else {
        [1, 0, 0, 1]
    };
    let mut cycle_plan = vec![
        Submission {
            role: Role::Miss,
            spec_index: 0,
            spec: spec(0),
        },
        Submission {
            role: Role::CalibHit,
            spec_index: 1,
            spec: spec(1),
        },
    ];
    cycle_plan.extend(order.iter().map(|&s| Submission {
        role: Role::Hit,
        spec_index: s,
        spec: spec(s),
    }));
    cycle_plan
}

/// Everything a workload seed generates, rendered as text: the first
/// `ops` study seeds of each study workload, the campaign pool, and the
/// first `cycles` serve cycles of each of two clients. Two calls with
/// the same arguments return identical bytes.
pub fn inputs_digest_text(seed: u64, ops: usize, cycles: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for label in ["study-df", "study-pulse"] {
        for i in 0..ops {
            let _ = writeln!(out, "{label} op {i} seed {}", study_op_seed(seed, label, i));
        }
    }
    for (j, text) in pool_texts(seed).iter().enumerate() {
        let _ = writeln!(
            out,
            "pool {j} fnv {:016x} bytes {}",
            fnv(text.as_bytes()),
            text.len()
        );
    }
    for client in 0..2 {
        for cycle in 0..cycles {
            for s in serve_cycle(seed, client, cycle) {
                let _ = writeln!(
                    out,
                    "serve c{client} k{cycle} {} {:?}",
                    s.role.name(),
                    s.spec
                );
            }
        }
    }
    out
}
