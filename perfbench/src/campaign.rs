//! `campaign-gen`: each op renders a pooled C880-profile netlist to
//! ISCAS-85 text, parses it back, runs the whole-netlist campaign with
//! the generic timing library and renders the report. No transient is
//! ever solved here.

use pulsar_core::Campaign;
use pulsar_logic::{parse_iscas85, write_iscas85, Netlist};
use pulsar_obs::Recorder;
use pulsar_timing::TimingLibrary;

use crate::gen::{self, POOL_SIZE};
use crate::seq::{OpResult, SeqWorkload};
use crate::stats::median;
use crate::trace::Tracer;

pub(crate) struct CampaignBench {
    pool: Vec<Netlist>,
}

impl SeqWorkload for CampaignBench {
    const NAME: &'static str = "campaign-gen";

    fn setup(seed: u64) -> Result<Self, String> {
        let bench = CampaignBench {
            pool: gen::netlist_pool(seed),
        };
        // Warm-up: one op on the first pooled netlist.
        let warm = bench.op(0, &Tracer::new(false), 0, 0, &Recorder::disabled());
        match warm.error {
            Some(e) => Err(format!("warm-up campaign: {e}")),
            None => Ok(bench),
        }
    }

    fn op(&self, i: usize, tr: &Tracer, op_id: u64, parent: u64, rec: &Recorder) -> OpResult {
        let j = i % POOL_SIZE;
        let nl = &self.pool[j];
        let mut out = OpResult {
            evals: 0,
            error: None,
            key: format!("pool {j}"),
            text: String::new(),
            counts: Vec::new(),
        };
        let text = tr.span(op_id, parent, "logic.render", |_| write_iscas85(nl));
        let parsed = match tr.span(op_id, parent, "logic.parse", |_| parse_iscas85(&text)) {
            Ok(p) => p,
            Err(e) => {
                out.error = Some(format!("parse: {e}"));
                return out;
            }
        };
        if parsed.gates().len() != nl.gates().len()
            || parsed.inputs().len() != nl.inputs().len()
            || parsed.outputs().len() != nl.outputs().len()
        {
            out.error = Some("the parsed netlist differs from the rendered one".to_owned());
            return out;
        }
        let lib = tr.span(op_id, parent, "timing.library", |_| {
            TimingLibrary::generic()
        });
        let campaign = Campaign {
            threads: Some(crate::host::threads()),
            obs: rec.clone(),
            ..Campaign::default()
        };
        let report = match tr.span(op_id, parent, "core.campaign", |_| {
            campaign.run(&parsed, &lib)
        }) {
            Ok(r) => r,
            Err(e) => {
                out.error = Some(format!("campaign: {e}"));
                return out;
            }
        };
        out.text = tr.span(op_id, parent, "core.report", |_| {
            report.render_report(&parsed, None)
        });
        if !out.text.ends_with('\n') {
            out.text.push('\n');
        }
        let probed = report.sites.len();
        out.evals = probed as u64;
        out.counts = vec![
            ("core.sites_probed", probed as f64),
            ("core.sites_planned", report.planned as f64),
            ("core.sites_unsensitizable", report.unsensitizable as f64),
        ];
        if probed == 0
            || report.failed != 0
            || report.planned + report.unsensitizable + report.failed != probed
            || !report.completeness.is_complete()
        {
            out.error = Some(format!(
                "site counts do not add up: {probed} probed, {} planned, {} unsensitizable, \
                 {} failed, completeness {:?}",
                report.planned, report.unsensitizable, report.failed, report.completeness
            ));
        }
        out
    }

    fn traced_ops(seconds: f64) -> usize {
        ((seconds * 2.0).round() as usize).clamp(POOL_SIZE, 400)
    }

    fn golden_ops() -> usize {
        POOL_SIZE
    }

    fn span_metrics(tr: &Tracer) -> Vec<(&'static str, f64)> {
        vec![
            ("logic.render_s", median(&tr.per_op("logic.render"))),
            ("logic.parse_s", median(&tr.per_op("logic.parse"))),
            ("core.campaign_s", median(&tr.per_op("core.campaign"))),
            ("core.report_s", median(&tr.per_op("core.report"))),
        ]
    }
}
