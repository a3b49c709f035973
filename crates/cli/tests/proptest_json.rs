//! Property tests for the JSON reader.
//!
//! `json::parse` reads untrusted bytes twice over: every `dmsa serve`
//! request line, and every campaign export the offline commands and
//! reloads load. Three properties must hold for every input: it never
//! panics (a stack overflow is an abort, which no `catch_unwind`
//! contains), a truncated export is an error rather than a short
//! campaign, and nesting past `MAX_DEPTH` is an error.

use dmsa_cli::json::{self, MAX_DEPTH};
use dmsa_cli::CampaignExport;
use proptest::prelude::*;
use std::sync::OnceLock;

/// JSON-ish tokens: random strings of these reach much deeper into the
/// parser than uniform bytes do.
const TOKENS: [&str; 24] = [
    "[", "]", "{", "}", ",", ":", "\"", "\"k\"", "\\", "\\u", "d83d", "0", "-", "1.5", "e9",
    "true", "fals", "null", " ", "\n", "é", "\u{1}", "[[[[", "{\"a\":",
];

/// One small campaign export, built once for the whole file.
fn export() -> &'static str {
    static EXPORT: OnceLock<String> = OnceLock::new();
    EXPORT.get_or_init(|| {
        let mut c = dmsa_scenario::ScenarioConfig::small();
        c.duration = dmsa_simcore::SimDuration::from_hours(2);
        c.workload.tasks_per_hour = 6.0;
        c.background_transfers_per_hour = 30.0;
        c.initial_datasets = 10;
        CampaignExport::from_campaign(&dmsa_scenario::run(&c)).to_json()
    })
}

/// `depth` nested containers, alternating arrays and objects, around a
/// scalar.
fn nested(depth: usize) -> String {
    let mut doc = String::new();
    for level in 0..depth {
        doc.push_str(if level % 2 == 0 { "[" } else { "{\"a\":" });
    }
    doc.push('1');
    for level in (0..depth).rev() {
        doc.push(if level % 2 == 0 { ']' } else { '}' });
    }
    doc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in prop::collection::vec(any::<u8>(), 0..600),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(v) = json::parse(&text) {
            // Whatever parses is a scalar or a well-formed container.
            prop_assert!(v.line >= 1 && v.col >= 1);
        }
    }

    #[test]
    fn arbitrary_token_soup_never_panics(
        picks in prop::collection::vec(0usize..TOKENS.len(), 0..400),
    ) {
        let text: String = picks.iter().map(|&i| TOKENS[i]).collect();
        let _ = json::parse(&text);
    }

    #[test]
    fn a_truncated_export_is_an_error(cut in 0usize..1_000_000_000) {
        let full = export();
        // Any cut before the closing brace; past it only whitespace goes.
        let end = full.rfind('}').expect("an export is an object");
        let mut cut = cut % (end + 1);
        while !full.is_char_boundary(cut) {
            cut -= 1;
        }
        let prefix = &full[..cut];
        prop_assert!(json::parse(prefix).is_err(), "cut {} parsed", cut);
        prop_assert!(CampaignExport::from_json(prefix).is_err(), "cut {} loaded", cut);
        prop_assert!(
            CampaignExport::from_json_lenient(prefix).is_err(),
            "cut {} loaded leniently", cut
        );
    }

    #[test]
    fn nesting_past_the_bound_is_an_error(extra in 1usize..100_000) {
        let err = json::parse(&nested(MAX_DEPTH + extra)).unwrap_err();
        prop_assert!(err.what.contains("nesting"), "{}", err);
    }

    #[test]
    fn nesting_within_the_bound_parses(depth in 0usize..MAX_DEPTH + 1) {
        prop_assert!(json::parse(&nested(depth)).is_ok(), "depth {}", depth);
    }
}

#[test]
fn the_untruncated_export_parses() {
    assert!(CampaignExport::from_json(export()).is_ok());
}
