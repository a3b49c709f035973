//! Property tests for the lenient loader's quarantine taxonomy.
//!
//! Damage exactly one record of a small real export in one way. The
//! lenient loader must count it in that way's bucket and nowhere else,
//! name the record's index and the position of its `[`, and load every
//! other record exactly as the clean export loads it; the strict loader
//! must refuse the file. The layout of the file (compact, pretty-printed
//! with CRLF line endings, root keys permuted) moves positions and
//! nothing else. Positions are checked against an independent oracle:
//! 1-based lines split at `\n`, 1-based columns counting characters.

use dmsa_cli::CampaignExport;
use dmsa_metastore::MetaStore;
use proptest::prelude::*;
use std::sync::OnceLock;

/// A multi-byte symbol interned into the export, so columns after it
/// differ from byte offsets.
const WIDE_SYMBOL: &str = "sité-日本-🚀";

/// The clean compact export and its store, built once.
fn clean() -> &'static (String, MetaStore) {
    static CLEAN: OnceLock<(String, MetaStore)> = OnceLock::new();
    CLEAN.get_or_init(|| {
        let mut c = dmsa_scenario::ScenarioConfig::small();
        c.duration = dmsa_simcore::SimDuration::from_hours(2);
        c.workload.tasks_per_hour = 6.0;
        c.background_transfers_per_hour = 30.0;
        c.initial_datasets = 10;
        let mut campaign = dmsa_scenario::run(&c);
        campaign.store.symbols.intern(WIDE_SYMBOL);
        let json = CampaignExport::from_campaign(&campaign).to_json();
        let store = CampaignExport::from_json(&json)
            .expect("clean export loads")
            .store;
        (json, store)
    })
}

/// `(line, col)` of byte `off`, computed independently of the reader.
fn line_col(text: &str, off: usize) -> (usize, usize) {
    let before = &text[..off];
    let line = before.matches('\n').count() + 1;
    let col = before.rsplit('\n').next().unwrap_or("").chars().count() + 1;
    (line, col)
}

/// Re-lay a compact export out: one root member and one section element
/// per line, CRLF line endings, two-space indents; records stay inline.
fn pretty_crlf(compact: &str) -> String {
    let mut out = String::with_capacity(compact.len() * 2);
    let (mut depth, mut in_str, mut escaped) = (0usize, false, false);
    let newline = |out: &mut String, depth: usize| {
        out.push_str("\r\n");
        out.push_str(&"  ".repeat(depth));
    };
    for c in compact.chars() {
        if in_str {
            out.push(c);
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                out.push(c);
            }
            '{' | '[' => {
                depth += 1;
                out.push(c);
                if depth <= 2 {
                    newline(&mut out, depth);
                }
            }
            '}' | ']' => {
                if depth <= 2 {
                    newline(&mut out, depth - 1);
                }
                depth -= 1;
                out.push(c);
            }
            ',' => {
                out.push(c);
                if depth <= 2 {
                    newline(&mut out, depth);
                }
            }
            ':' if depth <= 1 => out.push_str(": "),
            _ => out.push(c),
        }
    }
    out
}

/// The members (`"key":value`) of a compact root object.
fn root_members(compact: &str) -> Vec<&str> {
    let inner = &compact[1..compact.len() - 1];
    let (mut members, mut start) = (Vec::new(), 0);
    let (mut depth, mut in_str, mut escaped) = (0usize, false, false);
    for (i, b) in inner.bytes().enumerate() {
        if in_str {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_str = true,
            b'{' | b'[' => depth += 1,
            b'}' | b']' => depth -= 1,
            b',' if depth == 0 => {
                members.push(&inner[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    members.push(&inner[start..]);
    members
}

/// The compact export with its root members rotated by `k` and the first
/// two swapped, so every root key moves for some `k`.
fn permuted(compact: &str, k: usize) -> String {
    let mut members = root_members(compact);
    let n = members.len();
    members.rotate_left(k % n);
    members.swap(0, 1);
    format!("{{{}}}", members.join(","))
}

/// Byte range from the `[` to the `]` of record `i` of `section`.
fn record_span(text: &str, section: &str, i: usize) -> (usize, usize) {
    let key = format!("\"{section}\":");
    let mut at = text.find(&key).expect("section key") + key.len();
    at += text[at..].find('[').expect("section array") + 1;
    for _ in 0..i {
        at += text[at..].find(']').expect("record end") + 1;
    }
    let start = at + text[at..].find('[').expect("record start");
    let end = start + text[start..].find(']').expect("record end");
    (start, end)
}

/// The ways one record is damaged, and the bucket each lands in.
#[derive(Clone, Copy, Debug)]
enum Damage {
    ArityShort,
    ArityLong,
    WrongType(usize),
    NegativeTime,
    EndBeforeStart,
    SymbolPastTable,
    UnknownEnum,
    LossyString,
}

const WRONG_TYPES: [&str; 5] = ["\"x\"", "[1]", "{\"a\":1}", "true", "1.5"];

/// Field layout of a section: (arity, time span, symbol field, enum field).
fn layout(section: &str) -> (usize, Option<(usize, usize)>, usize, usize) {
    match section {
        "jobs" => (13, Some((4, 5)), 2, 8),
        "files" => (8, None, 2, 7),
        "transfers" => (20, Some((6, 7)), 1, 10),
        other => unreachable!("{other}"),
    }
}

/// The record `[f0,f1,...]` with `damage` applied.
fn damaged(record: &str, section: &str, damage: Damage, n_syms: usize) -> String {
    let mut f: Vec<String> = record[1..record.len() - 1]
        .split(',')
        .map(str::to_owned)
        .collect();
    let (arity, span, sym, enm) = layout(section);
    assert_eq!(f.len(), arity, "{record}");
    match damage {
        Damage::ArityShort => {
            f.pop();
        }
        Damage::ArityLong => f.push("0".into()),
        Damage::WrongType(k) => f[0] = WRONG_TYPES[k % WRONG_TYPES.len()].into(),
        Damage::NegativeTime => f[span.expect("a timed section").0] = "-5".into(),
        Damage::EndBeforeStart => {
            let (s, e) = span.expect("a timed section");
            let end: i64 = f[e].parse().unwrap();
            f[s] = (end + 1).to_string();
        }
        Damage::SymbolPastTable => f[sym] = n_syms.to_string(),
        Damage::UnknownEnum => f[enm] = "\"quantum_teleport\"".into(),
        Damage::LossyString => f[enm].insert(2, '\u{FFFD}'),
    }
    format!("[{}]", f.join(","))
}

/// Bucket counts in report order: bad-utf8, out-of-range-time,
/// unknown-site-sym, version-skew, malformed.
fn expected_counts(damage: Damage) -> [u64; 5] {
    match damage {
        Damage::LossyString => [1, 0, 0, 0, 0],
        Damage::NegativeTime | Damage::EndBeforeStart => [0, 1, 0, 0, 0],
        Damage::SymbolPastTable => [0, 0, 1, 0, 0],
        Damage::ArityLong | Damage::UnknownEnum => [0, 0, 0, 1, 0],
        Damage::ArityShort | Damage::WrongType(_) => [0, 0, 0, 0, 1],
    }
}

fn damage_strategy() -> impl Strategy<Value = Damage> {
    prop_oneof![
        Just(Damage::ArityShort),
        Just(Damage::ArityLong),
        (0usize..WRONG_TYPES.len()).prop_map(Damage::WrongType),
        Just(Damage::NegativeTime),
        Just(Damage::EndBeforeStart),
        Just(Damage::SymbolPastTable),
        Just(Damage::UnknownEnum),
        Just(Damage::LossyString),
    ]
}

/// The export text in layout `lay`: 0 compact, 1 pretty CRLF, else root
/// keys permuted.
fn laid_out(lay: usize) -> String {
    let compact = &clean().0;
    match lay {
        0 => compact.clone(),
        1 => pretty_crlf(compact),
        k => permuted(compact, k),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn one_damaged_record_lands_in_its_bucket_alone(
        damage in damage_strategy(),
        section_pick in 0usize..3,
        record_pick in 0usize..1_000_000,
        lay in 0usize..12,
    ) {
        let (_, store) = clean();
        // Time damage needs a section that carries times.
        let section = match (damage, section_pick) {
            (Damage::NegativeTime | Damage::EndBeforeStart, 1) => "jobs",
            (_, 0) => "jobs",
            (_, 1) => "files",
            _ => "transfers",
        };
        let n = match section {
            "jobs" => store.jobs.len(),
            "files" => store.files.len(),
            _ => store.transfers.len(),
        };
        let i = record_pick % n;
        let text = laid_out(lay);
        let (s, e) = record_span(&text, section, i);
        let record = damaged(&text[s..=e], section, damage, store.symbols.len());
        let text = format!("{}{record}{}", &text[..s], &text[e + 1..]);

        let loaded = CampaignExport::from_json_lenient(&text).expect("lenient load");
        let q = &loaded.quarantine;
        prop_assert_eq!(
            [q.bad_utf8, q.out_of_range_time, q.unknown_site_sym, q.version_skew, q.malformed],
            expected_counts(damage),
            "{:?}", q
        );
        let (line, col) = line_col(&text, s);
        let prefix = format!("{section}[{i}] at line {line} column {col}: ");
        prop_assert_eq!(q.examples.len(), 1);
        prop_assert!(q.examples[0].starts_with(&prefix), "{} vs {}", q.examples[0], prefix);

        // Everything else loads exactly as the clean export does.
        let mut want = store.clone();
        match section {
            "jobs" => { want.jobs.remove(i); }
            "files" => { want.files.remove(i); }
            _ => { want.transfers.remove(i); }
        }
        prop_assert!(loaded.export.store == want, "surviving records differ");
        prop_assert!(CampaignExport::from_json(&text).is_err());
    }
}

#[test]
fn root_key_order_does_not_change_the_load() {
    let (compact, store) = clean();
    for k in 0..root_members(compact).len() {
        let text = permuted(compact, k);
        let loaded = CampaignExport::from_json_lenient(&text).unwrap();
        assert!(loaded.quarantine.is_empty(), "{:?}", loaded.quarantine);
        assert!(loaded.export.store == *store, "rotation {k}");
        assert_eq!(loaded.export.to_json(), *compact, "rotation {k}");
    }
    // Damage in three sections: wherever the sections move, the counts
    // and the examples (apart from their positions) come out the same,
    // in the same order.
    let strip = |q: &dmsa_cli::export::QuarantineReport| -> Vec<String> {
        let what = |ex: &String| ex.split_once(": ").map(|(_, w)| w.to_owned());
        q.examples.iter().filter_map(what).collect()
    };
    let base = damage_three_sections(compact);
    let want = CampaignExport::from_json_lenient(&base).unwrap().quarantine;
    assert_eq!(want.total(), 3, "{want:?}");
    for k in 0..root_members(compact).len() {
        let got = CampaignExport::from_json_lenient(&permuted(&base, k))
            .unwrap()
            .quarantine;
        assert_eq!(got.one_line(), want.one_line(), "rotation {k}");
        assert_eq!(strip(&got), strip(&want), "rotation {k}");
    }
}

/// The export with one bad entry in each of `valid_sites`, `jobs` and
/// `transfers`.
fn damage_three_sections(text: &str) -> String {
    let n_syms = clean().1.symbols.len();
    let mut text = text.replacen(
        "\"valid_sites\":[",
        &format!("\"valid_sites\":[{n_syms},"),
        1,
    );
    for (section, damage) in [
        ("jobs", Damage::NegativeTime),
        ("transfers", Damage::UnknownEnum),
    ] {
        let (s, e) = record_span(&text, section, 0);
        let record = damaged(&text[s..=e], section, damage, n_syms);
        text = format!("{}{record}{}", &text[..s], &text[e + 1..]);
    }
    text
}

#[test]
fn pretty_crlf_export_loads_like_the_compact_one() {
    let (compact, store) = clean();
    let text = pretty_crlf(compact);
    assert!(text.contains("\r\n  \"jobs\": [\r\n"), "layout changed");
    let back = CampaignExport::from_json(&text).unwrap();
    assert!(back.store == *store);
    assert_eq!(back.to_json(), *compact);
}

#[test]
fn fatal_errors_carry_positions_in_a_pretty_crlf_export() {
    let text = pretty_crlf(&clean().0);
    let position = |off: usize| {
        let (line, col) = line_col(&text, off);
        format!("at line {line} column {col}")
    };
    // A syntax error inside a record (decoded from tokens) and inside the
    // config (read as a tree), each after the multi-byte symbol.
    let (s, _) = record_span(&text, "transfers", 3);
    let seed = text.find("\"seed\":").unwrap() + "\"seed\":".len();
    for off in [s + 1, seed] {
        let bad = format!("{}x{}", &text[..off], &text[off + 1..]);
        let err = CampaignExport::from_json_lenient(&bad).err().unwrap();
        assert_eq!(
            err,
            format!(
                "campaign parse error {}: unexpected character 'x'",
                position(off)
            )
        );
    }
    // A duplicated root key is reported at the duplicate.
    let end = text.rfind('}').unwrap();
    let dup = format!("{},\r\n  \"jobs\": []\r\n}}", &text[..end - 2]);
    let err = CampaignExport::from_json_lenient(&dup).err().unwrap();
    let (line, col) = line_col(&dup, end - 2 + 5);
    assert_eq!(
        err,
        format!("campaign parse error at line {line} column {col}: duplicate key \"jobs\"")
    );
    // The symbol really is multi-byte and before the records.
    let wide = text.find(WIDE_SYMBOL).unwrap();
    assert!(wide < s && WIDE_SYMBOL.len() > WIDE_SYMBOL.chars().count());
}
