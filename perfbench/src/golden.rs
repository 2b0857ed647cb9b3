//! Golden outputs recorded at [`crate::gen::DEFAULT_SEED`].
//!
//! One file per workload under `golden/`, compiled into the binary.
//! Each entry is a `== <key>` line followed by the expected output text
//! of that op. `--write-goldens` regenerates them (see `README.md`).

use std::collections::BTreeMap;

/// The embedded golden file of `workload` (empty when it has none).
fn embedded(workload: &str) -> &'static str {
    match workload {
        "study-df" => include_str!("../golden/study-df.txt"),
        "study-pulse" => include_str!("../golden/study-pulse.txt"),
        "campaign-gen" => include_str!("../golden/campaign-gen.txt"),
        "serve-repeat" => include_str!("../golden/serve-repeat.txt"),
        _ => "",
    }
}

/// Expected op outputs by key.
#[derive(Debug, Default, Clone)]
pub struct Goldens {
    entries: BTreeMap<String, String>,
}

impl Goldens {
    /// The goldens that apply to a run of `workload` at `seed`: the
    /// embedded ones at the default seed, none otherwise.
    pub fn for_run(workload: &str, seed: u64) -> Goldens {
        if seed == crate::gen::DEFAULT_SEED {
            Goldens::parse(embedded(workload))
        } else {
            Goldens::default()
        }
    }

    /// Parses the `== <key>` format.
    pub fn parse(text: &str) -> Goldens {
        let mut entries = BTreeMap::new();
        let mut key: Option<String> = None;
        let mut body = String::new();
        for line in text.lines() {
            if let Some(k) = line.strip_prefix("== ") {
                if let Some(prev) = key.take() {
                    entries.insert(prev, std::mem::take(&mut body));
                }
                key = Some(k.to_owned());
            } else if key.is_some() {
                body.push_str(line);
                body.push('\n');
            }
        }
        if let Some(prev) = key {
            entries.insert(prev, body);
        }
        Goldens { entries }
    }

    /// Whether there are no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `Ok` when there is no golden for `key` or `actual` equals it.
    pub fn check(&self, key: &str, actual: &str) -> Result<(), String> {
        match self.entries.get(key) {
            Some(want) if want != actual => Err(format!(
                "output of {key} differs from its golden:\n--- golden\n{want}--- actual\n{actual}"
            )),
            _ => Ok(()),
        }
    }

    /// Renders `(key, text)` pairs in the file format.
    pub fn render(entries: &[(String, String)]) -> String {
        let mut out = String::new();
        for (k, v) in entries {
            out.push_str("== ");
            out.push_str(k);
            out.push('\n');
            out.push_str(v);
            if !v.ends_with('\n') {
                out.push('\n');
            }
        }
        out
    }

    /// Writes `entries` as the golden file of `workload` in the
    /// benchmark's source tree.
    pub fn write(workload: &str, entries: &[(String, String)]) -> std::io::Result<()> {
        let path = format!("{}/golden/{workload}.txt", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(path, Goldens::render(entries))
    }
}
