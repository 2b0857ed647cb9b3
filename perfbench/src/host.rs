//! Process and host readings: CPU time, peak RSS, load average, and the
//! host fingerprint printed with every run.

use std::path::Path;
use std::process::{Command, Stdio};

/// Process CPU time (user + system, all threads, exited ones included),
/// seconds. Reads `/proc/self/stat`, whose tick unit (`USER_HZ`) is 100
/// on Linux. `0.0` where procfs is unavailable.
pub fn cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name: state is field 3,
    // utime field 14, stime field 15.
    let Some(rest) = stat.rfind(')').map(|p| &stat[p + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |k: usize| {
        fields
            .get(k)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Peak resident set size (`VmHWM`), MiB. `0.0` where unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The 1/5/15-minute load averages as printed by `/proc/loadavg`.
pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unavailable".to_owned())
}

/// Worker threads every layer is given: the host's cores, at most two.
pub fn threads() -> usize {
    nproc().min(2)
}

/// Cores the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Runs a short command to completion and returns its trimmed stdout.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// FNV-1a digest of every file under `crates/` (paths and bytes, in
/// sorted order): identifies the measured sources where no git metadata
/// exists, such as an exported checkout.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    if files.is_empty() {
        return "unavailable".to_owned();
    }
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        if let Ok(b) = std::fs::read(f) {
            bytes.extend_from_slice(&b);
        }
    }
    format!("{:016x}", crate::gen::fnv(&bytes))
}

/// One dense LU factorisation and solve of a fixed, diagonally dominant
/// 24 x 24 system, `reps` times: floating-point, cache-resident work of
/// the kind the circuit solver does.
fn lu_kernel(reps: usize) -> f64 {
    const N: usize = 24;
    let mut acc = 0.0;
    for r in 0..reps {
        let mut a = [[0.0f64; N]; N];
        for (i, row) in a.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                *v = if i == j {
                    4.0 + (r % 7) as f64 * 0.01
                } else {
                    1.0 / (1.0 + (i + 2 * j) as f64)
                };
            }
        }
        let mut b = [1.0f64; N];
        for k in 0..N {
            let (pivot_rows, rest) = a.split_at_mut(k + 1);
            let pivot = &pivot_rows[k];
            for (i, row) in rest.iter_mut().enumerate() {
                let f = row[k] / pivot[k];
                for j in k..N {
                    row[j] -= f * pivot[j];
                }
                b[k + 1 + i] -= f * b[k];
            }
        }
        for i in (0..N).rev() {
            let s: f64 = (i + 1..N).map(|j| a[i][j] * b[j]).sum();
            b[i] = (b[i] - s) / a[i][i];
        }
        acc += b[0];
    }
    acc
}

/// Wall seconds of the host-speed probe: [`lu_kernel`] on every one of
/// the [`threads`] threads the workloads use, ~40 ms on the reference
/// host. Its run-to-run drift tracks the solver's (see `README.md`), so
/// times divided by it compare across runs on a noisy host.
pub fn probe_s() -> f64 {
    let t = std::time::Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads() {
            s.spawn(|| std::hint::black_box(lu_kernel(std::hint::black_box(10_000))));
        }
    });
    t.elapsed().as_secs_f64()
}

/// The host fingerprint of one run, as one JSON object.
pub fn fingerprint(loadavg_before: &str, loadavg_after: &str) -> String {
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    format!(
        "{{\"nproc\":{},\"threads\":{},\"cpu\":\"{}\",\"rustc\":\"{}\",\"git_rev\":\"{}\",\
         \"src_digest\":\"{}\",\"loadavg_before\":\"{}\",\"loadavg_after\":\"{}\"}}",
        nproc(),
        threads(),
        esc(&cpu_model()),
        esc(&command_line("rustc", &["-V"]).unwrap_or_else(|| "unavailable".to_owned())),
        esc(&command_line("git", &["rev-parse", "HEAD"])
            .unwrap_or_else(|| "unavailable".to_owned())),
        source_digest(Path::new(".")),
        esc(loadavg_before),
        esc(loadavg_after),
    )
}
