//! perfbench: one benchmark for dmsa, three workloads.
//!
//! ```text
//! python3 perfbench/run.py --workload <build_8day|serve_8day|sweep_faulty> \
//!     --seed N --seconds S --trace <0|1>
//! ```
//!
//! Each run sets its workload up three times (reporting the median as
//! `setup_s`), computes the reference outputs, runs the workload's
//! operations for `--seconds`, checks every output, and prints two JSON
//! lines: provenance (inputs, headline numbers, host), then the result
//! `{"correct","attempted","failed","metrics"}`. With `--trace 0` the
//! metrics are the end-to-end list of `BENCHMARK.json`; with `--trace 1`
//! they are its per-layer list, the span dump is written next to the
//! build output, and the timed quarters run untraced give
//! `trace.overhead_frac`.

mod build;
mod common;
mod layers;
mod serve;
mod sweep;
mod trace;

use common::{median, peak_rss_mb, secs, Opts, Report, Workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

const WORKLOADS: [&str; 3] = ["build_8day", "serve_8day", "sweep_faulty"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let outcome = run(&opts);
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    match outcome {
        Ok((provenance, result, correct)) => {
            println!("{provenance}");
            println!("{result}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Where the span dump and the scratch data go: inside the build
/// directory of the checkout.
fn out_dir() -> PathBuf {
    std::env::var_os("PERFBENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(".bench_build").join("perfbench"))
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                flags.insert(flag, value);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let get = |k: &str| {
        flags
            .get(k)
            .copied()
            .ok_or_else(|| format!("{k} is required"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = get("--seed")?
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("bad --seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("bad --trace {t:?} (0 or 1)")),
    };
    Ok(Opts {
        workload: workload.to_string(),
        seed,
        seconds,
        trace,
        work_dir: out_dir().join(format!("work-{}", std::process::id())),
    })
}

/// One declared metric of `BENCHMARK.json`.
struct Declared {
    name: String,
    unit: String,
}

/// The end-to-end and per-layer metric lists of `BENCHMARK.json` (the
/// benchmark runs from the repository root): the single source of the
/// metric names and units.
fn declared_metrics() -> Result<(Vec<Declared>, Vec<Declared>), String> {
    let src = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json: {e}"))?;
    let root = dmsa_cli::json::parse(&src).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| -> Result<Vec<Declared>, String> {
        root.get(key)
            .and_then(|v| v.as_arr())
            .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(|v| v.as_str())
                        .map(str::to_string)
                        .ok_or_else(|| format!("BENCHMARK.json: a {key} entry has no {k}"))
                };
                Ok(Declared {
                    name: field("name")?,
                    unit: field("unit")?,
                })
            })
            .collect()
    };
    Ok((list("end_to_end")?, list("per_layer")?))
}

/// Per-layer metric name of a span name: `_ms` after the second dotted
/// component (`core.match.rm2` → `core.match_ms.rm2`, `scenario.run` →
/// `scenario.run_ms`).
fn span_metric(span: &str) -> String {
    let mut parts = span.splitn(3, '.');
    let (a, b, rest) = (parts.next(), parts.next(), parts.next());
    match (a, b, rest) {
        (Some(a), Some(b), None) => format!("{a}.{b}_ms"),
        (Some(a), Some(b), Some(r)) => format!("{a}.{b}_ms.{r}"),
        _ => format!("{span}_ms"),
    }
}

fn workload(opts: &Opts) -> Box<dyn Workload> {
    match opts.workload.as_str() {
        "build_8day" => Box::new(build::Build::new(opts)),
        "serve_8day" => Box::new(serve::Serve::new(opts)),
        "sweep_faulty" => Box::new(sweep::Sweep::new(opts)),
        other => unreachable!("parse_args accepts only known workloads, got {other}"),
    }
}

/// Run one workload; returns the provenance line, the result line, and
/// whether every output check held.
fn run(opts: &Opts) -> Result<(String, String, bool), String> {
    let (end_to_end, per_layer) = declared_metrics()?;
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("creating {}: {e}", opts.work_dir.display()))?;
    let mut rep = Report::default();
    let mut w = workload(opts);
    trace::set_enabled(opts.trace);

    for _ in 0..SETUP_REPS {
        let _s = trace::span("setup");
        let t = Instant::now();
        w.setup(opts, &mut rep)?;
        rep.setup_s.push(secs(t));
    }
    w.prepare(opts, &mut rep)?;

    let mut overhead = 0.0;
    if opts.trace {
        // Same operations in quarters, untraced and traced in turn, so a
        // drift in host speed lands on both sides.
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        for quarter in 0..4 {
            let on = quarter % 2 == 1;
            trace::set_enabled(on);
            let n = rep.op_ms.len();
            {
                let _s = trace::span("measure");
                w.measure(opts, opts.seconds / 4.0, &mut rep)?;
            }
            let side = if on { &mut traced } else { &mut untraced };
            side.extend_from_slice(&rep.op_ms[n..]);
        }
        overhead = median(&traced) / median(&untraced).max(1e-9) - 1.0;
    } else {
        w.measure(opts, opts.seconds, &mut rep)?;
    }
    w.finish(opts, &mut rep)?;
    trace::set_enabled(false);

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    if opts.trace {
        let spans = trace::spans();
        for (name, ms) in trace::self_ms_by_name(&spans) {
            values.insert(span_metric(&name), median(&ms));
        }
        values.extend(std::mem::take(&mut rep.layer));
        values.insert("trace.overhead_frac".into(), overhead);
        let dump = out_dir().join(format!("spans-{}-seed{}.jsonl", opts.workload, opts.seed));
        std::fs::write(&dump, trace::dump(&spans))
            .map_err(|e| format!("writing {}: {e}", dump.display()))?;
        eprintln!(
            "perfbench: {} spans written to {}",
            spans.len(),
            dump.display()
        );
    } else {
        values.insert("setup_s".into(), median(&rep.setup_s));
        values.insert("op_p50_ms".into(), median(&rep.op_ms));
        values.insert("ops_per_s".into(), median(&rep.rate));
        let rss = if rep.rss_mb.is_empty() {
            peak_rss_mb()
        } else {
            median(&rep.rss_mb)
        };
        values.insert("peak_rss_mb".into(), rss);
    }

    let declared = if opts.trace { &per_layer } else { &end_to_end };
    let mut metrics = String::new();
    let mut not_exercised = Vec::new();
    for (i, m) in declared.iter().enumerate() {
        let v = match values.get(&m.name) {
            Some(&v) if v.is_finite() => v,
            Some(&v) => return Err(format!("metric {} is not finite ({v})", m.name)),
            None if opts.trace => {
                not_exercised.push(m.name.clone());
                0.0
            }
            None => return Err(format!("end-to-end metric {} was not measured", m.name)),
        };
        if !opts.trace && v <= 0.0 {
            return Err(format!(
                "end-to-end metric {} is {v}; nothing was measured",
                m.name
            ));
        }
        if i > 0 {
            metrics.push(',');
        }
        let _ = write!(
            metrics,
            "\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}",
            m.name, m.unit
        );
    }

    if rep.attempted == 0 {
        return Err("no operation was attempted".into());
    }
    let correct = rep.check_failures.is_empty();
    for f in &rep.check_failures {
        eprintln!("perfbench: check failed: {f}");
    }
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        rep.attempted, rep.failed
    );
    let provenance = provenance(opts, &rep, &not_exercised);
    Ok((provenance, result, correct))
}

/// The provenance line: host, revision, seed, input sizes, the
/// workload's headline numbers, and how each per-layer value was taken.
fn provenance(opts: &Opts, rep: &Report, not_exercised: &[String]) -> String {
    let map = |m: &BTreeMap<&'static str, f64>| {
        m.iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    let strings = |v: &[String]| {
        v.iter()
            .map(|s| {
                let mut o = String::new();
                dmsa_cli::json::push_str_lit(&mut o, s);
                o
            })
            .collect::<Vec<_>>()
            .join(",")
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rev = std::env::var("PERFBENCH_GIT_REV").unwrap_or_else(|_| "unknown".into());
    let failed_frac = rep.failed as f64 / rep.attempted.max(1) as f64;
    format!(
        "{{\"perfbench\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"cores\":{cores},\"git_rev\":\"{rev}\",\"setup_reps\":{SETUP_REPS},\
         \"op_samples\":{},\"failed_frac\":{failed_frac},\"inputs\":{{{}}},\
         \"headline\":{{{}}},\"not_exercised\":[{}],\"notes\":[{}]}}}}",
        opts.workload,
        opts.seed,
        opts.seconds,
        opts.trace,
        rep.op_ms.len(),
        map(&rep.inputs),
        map(&rep.headline),
        strings(not_exercised),
        strings(&rep.notes),
    )
}
