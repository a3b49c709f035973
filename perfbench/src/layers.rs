//! Direct calls into each layer's public functions, each in its own span.
//!
//! The CLI entry points (`run_match`, `analyze`) and the server do their
//! load, index build, match and render internally, where no span can
//! reach. Traced runs therefore also make the same steps as separate
//! public calls on the same export, which is where the per-layer times
//! and counts of the read path come from.

use crate::common::{median, secs, Report};
use crate::trace;
use dmsa_analysis::render::{render_report_string, ReportInputs};
use dmsa_cli::export::CampaignExport;
use dmsa_core::{evaluate, MatchMethod, PreparedStore, ScoredMatcher};
use std::time::Instant;

pub const METHODS: [(&str, MatchMethod); 3] = [
    ("exact", MatchMethod::Exact),
    ("rm1", MatchMethod::Rm1),
    ("rm2", MatchMethod::Rm2),
];

/// The reports the benchmark renders (`exclusion` needs a baseline export).
pub const REPORTS: [&str; 4] = ["summary", "matrix", "temporal", "redundancy"];

/// Threshold the read-path probe passes to the scored matcher.
pub const SCORED_THRESHOLD: f64 = 0.5;

/// Load → index → match (three methods and scored) → evaluate → render
/// (four reports), `reps` times over `json`. Records the spans plus the
/// read path's counts and load rate into `rep.layer`.
pub fn probe_read_path(json: &str, reps: usize, rep: &mut Report) -> Result<(), String> {
    let mut load_s = Vec::with_capacity(reps);
    for _ in 0..reps {
        let _probe = trace::span("probe.read_path");
        let t = Instant::now();
        let loaded = {
            let _s = trace::span("export.load");
            CampaignExport::from_json_lenient(json)?
        };
        load_s.push(secs(t));
        rep.layer.insert(
            "export.quarantined".into(),
            loaded.quarantine.total() as f64,
        );
        let export = loaded.export;
        let prepared = {
            let _s = trace::span("core.build");
            PreparedStore::build(&export.store)
        };
        let mut sets = Vec::with_capacity(METHODS.len());
        for (name, method) in METHODS {
            let _s = trace::span(format!("core.match.{name}"));
            sets.push(prepared.match_window(export.window, method));
        }
        let (exact, rm2) = (&sets[0], &sets[2]);
        {
            let _s = trace::span("core.evaluate");
            evaluate(&export.store, rm2, export.window);
        }
        {
            let _s = trace::span("core.scored");
            ScoredMatcher::default().match_jobs_scored(
                &export.store,
                export.window,
                SCORED_THRESHOLD,
            );
        }
        let inputs = ReportInputs {
            store: &export.store,
            window: export.window,
            path_stats: export.path_stats,
            health: export.health.as_ref(),
        };
        for report in REPORTS {
            let _s = trace::span(format!("analysis.render.{report}"));
            let matches = (report == "summary").then_some(rm2);
            render_report_string(&inputs, report, matches, None)?;
        }
        // Exact counts: any matcher change must leave them unchanged. The
        // yield is Algorithm 1's: exact matches over joined candidates.
        let universe = prepared.window_universe(export.window);
        let candidates: usize = universe.iter().map(|&j| prepared.candidates(j).len()).sum();
        let matched = exact.n_matched_transfers();
        rep.layer
            .insert("core.universe_jobs".into(), universe.len() as f64);
        rep.layer
            .insert("core.candidates".into(), candidates as f64);
        rep.layer
            .insert("core.matched_transfers".into(), matched as f64);
        rep.layer.insert(
            "core.candidate_yield".into(),
            matched as f64 / (candidates.max(1)) as f64,
        );
    }
    rep.layer.insert(
        "export.load_mb_per_s".into(),
        json.len() as f64 / 1e6 / median(&load_s).max(1e-9),
    );
    rep.note(
        "export.*, core.* and analysis.* on serve_8day come from separate calls to \
         from_json_lenient, PreparedStore, match_window, evaluate, ScoredMatcher and \
         render_report_string after the timed loop: the server does these steps inside \
         one request",
    );
    Ok(())
}
