//! `sweep_faulty`: a fault/breaker grid through `run_sweep_with` with the
//! production cell runner. 2 seeds × 3 fail-probs × 3 breaker settings
//! over `8day-faulty` at scale 0.01, warm start at 88h, two workers,
//! cell exports written. The only workload that runs snapshot/fork,
//! fault injection, breaker health, the journal and parallel cells.
//!
//! Successive grids take their two seeds from a rotation of three pairs
//! (`s, s+1`, `s+2, s+3`, `s+4, s+5`): at this scale one pair's grid took
//! from 1.6 s to 2.3 s depending on the seeds, so a run on a single pair
//! measured its seeds more than the code.

use crate::common::{fnv1a, median, peak_rss_mb, reset_peak_rss, secs, Opts, Report, Workload};
use crate::trace;
use dmsa_cli::atomic::write_atomic;
use dmsa_cli::export::CampaignExport;
use dmsa_cli::journal::SweepJournal;
use dmsa_cli::sweep::{run_cell, run_sweep_with, SweepOpts, SweepOutcome};
use dmsa_scenario::{
    BreakerSetting, CancelToken, GridCell, PresetAxis, ScenarioConfig, SharedPrefix, SweepGrid,
};
use dmsa_simcore::{SimDuration, SimTime};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const SCALE: f64 = 0.01;
const JOBS: usize = 2;
const DURATION_H: i64 = 96;
const WARM_START_H: i64 = 88;
const FAIL_PROBS: [f64; 3] = [0.05, 0.12, 0.2];
/// Seed pairs the grids rotate through.
const SEED_PAIRS: u64 = 3;

fn grid(seeds: Vec<u64>, fail_probs: Vec<f64>, breakers: Vec<BreakerSetting>) -> SweepGrid {
    SweepGrid {
        presets: vec![PresetAxis {
            name: "8day-faulty".into(),
            base: ScenarioConfig {
                duration: SimDuration::from_hours(DURATION_H),
                ..ScenarioConfig::paper_8day_faulty(SCALE)
            },
        }],
        seeds,
        fail_probs,
        breakers,
    }
}

fn sweep_opts(dir: &Path) -> SweepOpts {
    SweepOpts {
        jobs: JOBS,
        warm_start_at: Some(SimDuration::from_hours(WARM_START_H)),
        out_dir: dir.to_path_buf(),
        write_cell_exports: true,
        ..SweepOpts::default()
    }
}

/// Run `grid` into `dir` with the production runner, each cell's
/// simulation in a span; returns the outcome and the events simulated.
fn run_grid(grid: &SweepGrid, dir: &Path) -> Result<(SweepOutcome, u64), String> {
    let parent = trace::current();
    // The runner must be 'static: it shares the event tally through an Arc.
    let events = Arc::new(AtomicU64::new(0));
    let tally = Arc::clone(&events);
    let runner = move |cell: &GridCell, prefix: Option<&SharedPrefix>, cancel: &CancelToken| {
        let name = if prefix.is_some() {
            "scenario.fork"
        } else {
            "scenario.run"
        };
        let _s = trace::span_under(parent, name);
        let campaign = run_cell(cell, prefix, cancel)?;
        tally.fetch_add(campaign.events_processed, Ordering::Relaxed);
        Ok(campaign)
    };
    let outcome = run_sweep_with(grid, &sweep_opts(dir), &runner)?;
    Ok((outcome, events.load(Ordering::Relaxed)))
}

/// Total size of the regular files in `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

pub struct Sweep {
    /// One grid per seed pair, run in turn.
    grids: Vec<SweepGrid>,
    warmup: SweepGrid,
    dir: PathBuf,
    grids_run: usize,
    /// `sweep_summary.json` digest of each grid's first run.
    summary_digests: Vec<Option<u64>>,
    /// Jobs, transfers, bytes written and events of each grid.
    sizes: Vec<[f64; 4]>,
    cell_ms: Vec<f64>,
    bytes_written: Vec<f64>,
    journal_bytes: Vec<f64>,
}

impl Sweep {
    pub fn new(opts: &Opts) -> Sweep {
        let breakers = vec![
            BreakerSetting::Off,
            BreakerSetting::Adaptive {
                cooldown_secs: None,
            },
            BreakerSetting::Adaptive {
                cooldown_secs: Some(600),
            },
        ];
        let grids = (0..SEED_PAIRS)
            .map(|k| {
                let first = opts.seed.wrapping_add(2 * k);
                let seeds = vec![first, first.wrapping_add(1)];
                grid(seeds, FAIL_PROBS.to_vec(), breakers.clone())
            })
            .collect();
        Sweep {
            grids,
            warmup: grid(
                vec![opts.seed],
                vec![FAIL_PROBS[0]],
                vec![BreakerSetting::Off],
            ),
            dir: opts.work_dir.join("sweep"),
            grids_run: 0,
            summary_digests: vec![None; SEED_PAIRS as usize],
            sizes: vec![[0.0; 4]; SEED_PAIRS as usize],
            cell_ms: Vec::new(),
            bytes_written: Vec::new(),
            journal_bytes: Vec::new(),
        }
    }

    /// The steps of one warm cell as separate calls: cold run (for the
    /// event rate), shared prefix, fork, export, write.
    fn probe(&self, rep: &mut Report) -> Result<(), String> {
        let _probe = trace::span("probe.sweep_cell");
        let cells = self.grids[0].expand()?;
        let cell = &cells[cells.len() / 2];
        let t = Instant::now();
        let cold = {
            let _s = trace::span("scenario.run");
            dmsa_scenario::run(&cell.config)
        };
        let run_ms = secs(t) * 1e3;
        rep.layer
            .insert("scenario.events".into(), cold.events_processed as f64);
        rep.layer.insert(
            "scenario.ns_per_event".into(),
            run_ms * 1e6 / (cold.events_processed.max(1)) as f64,
        );
        drop(cold);
        let divergence = SimTime::EPOCH + SimDuration::from_hours(WARM_START_H);
        let prefix = {
            let _s = trace::span("scenario.prefix");
            dmsa_scenario::shared_prefix(&cell.base, divergence)
        };
        let campaign = {
            let _s = trace::span("scenario.fork");
            prefix.fork(&cell.config)?
        };
        let json = {
            let _s = trace::span("export.to_json");
            CampaignExport::from_campaign(&campaign).to_json()
        };
        let path = self.dir.join("probe.json");
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| format!("creating {}: {e}", self.dir.display()))?;
        {
            let _s = trace::span("atomic.write");
            write_atomic(&path, json.as_bytes())
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
        rep.layer.insert("export.bytes".into(), json.len() as f64);
        rep.layer.insert("atomic.bytes".into(), json.len() as f64);
        rep.note(
            "on sweep_faulty, scenario.prefix_ms, scenario.run_ms, scenario.events, \
             export.to_json_ms and atomic.write_ms come from one cell's steps called \
             separately after the timed grids: run_sweep does them internally; \
             scenario.fork_ms is also spanned inside the grids through the cell runner",
        );
        Ok(())
    }
}

impl Workload for Sweep {
    /// A one-cell sweep through the same path: creates the output tree
    /// and finishes lazy initialisation before timing starts.
    fn setup(&mut self, _opts: &Opts, _rep: &mut Report) -> Result<(), String> {
        let _ = std::fs::remove_dir_all(&self.dir);
        let warm_dir = self.dir.join("warmup");
        let (outcome, _) = run_grid(&self.warmup, &warm_dir)?;
        if outcome.n_failed() > 0 {
            return Err("sweep_faulty: the warm-up cell was quarantined".into());
        }
        std::fs::remove_dir_all(&warm_dir)
            .map_err(|e| format!("removing {}: {e}", warm_dir.display()))
    }

    fn measure(&mut self, _opts: &Opts, seconds: f64, rep: &mut Report) -> Result<(), String> {
        let start = Instant::now();
        loop {
            let g = self.grids_run % self.grids.len();
            let dir = self.dir.join(format!("grid-{}", self.grids_run));
            self.grids_run += 1;
            let rss_reset = reset_peak_rss();
            let t = Instant::now();
            let (outcome, events) = {
                let _s = trace::span("sweep.grid");
                run_grid(&self.grids[g], &dir)?
            };
            let dt = secs(t);
            if rss_reset {
                rep.rss_mb.push(peak_rss_mb());
            }
            let cells = outcome.cells.len();
            let n_failed = outcome.n_failed();
            // One operation is one grid: its wall time is what a user of
            // `dmsa sweep` waits for. Cells count as the work done.
            rep.attempted += cells as u64;
            rep.failed += n_failed as u64;
            rep.rate.push((cells - n_failed) as f64 / dt.max(1e-9));
            rep.op_ms.push(dt * 1e3);
            let (mut jobs, mut transfers) = (0, 0);
            for c in &outcome.cells {
                match &c.result {
                    Ok(m) => {
                        self.cell_ms.push(c.wall_s * 1e3);
                        jobs += m.jobs;
                        transfers += m.transfers;
                    }
                    Err(e) => eprintln!("sweep_faulty: cell {} quarantined: {e}", c.label),
                }
            }
            rep.check(n_failed == 0, || {
                format!("sweep_faulty: {n_failed} of {cells} cells quarantined")
            });
            let summary_path = dir.join("sweep_summary.json");
            let summary = std::fs::read(&summary_path)
                .map_err(|e| format!("reading {}: {e}", summary_path.display()))?;
            let digest = fnv1a(&summary);
            let first = *self.summary_digests[g].get_or_insert(digest);
            rep.check(digest == first, || {
                "sweep_faulty: sweep_summary.json differs between runs of the same grid".into()
            });
            let bytes = dir_bytes(&dir);
            self.bytes_written.push(bytes as f64);
            self.journal_bytes.push(
                std::fs::metadata(SweepJournal::path_in(&dir)).map_or(0.0, |m| m.len() as f64),
            );
            rep.inputs.insert("cells", cells as f64);
            self.sizes[g] = [jobs as f64, transfers as f64, bytes as f64, events as f64];
            std::fs::remove_dir_all(&dir)
                .map_err(|e| format!("removing {}: {e}", dir.display()))?;
            if secs(start) >= seconds {
                return Ok(());
            }
        }
    }

    fn finish(&mut self, opts: &Opts, rep: &mut Report) -> Result<(), String> {
        // Input size of one grid: the mean over the seed pairs run (the
        // grids run in rotation order, so they are the first ones).
        let ran = &self.sizes[..self.grids_run.min(self.sizes.len())];
        for (i, key) in ["jobs", "transfers", "export_bytes", "events"]
            .into_iter()
            .enumerate()
        {
            let total: f64 = ran.iter().map(|s| s[i]).sum();
            rep.inputs.insert(key, total / ran.len().max(1) as f64);
        }
        rep.inputs.insert("seed_pairs", ran.len() as f64);
        rep.headline.insert("sweep_s", median(&rep.op_ms) / 1e3);
        rep.layer
            .insert("sweep.cell_ms".into(), median(&self.cell_ms));
        rep.layer
            .insert("sweep.cells".into(), self.grids[0].n_cells() as f64);
        rep.layer
            .insert("sweep.bytes_written".into(), median(&self.bytes_written));
        rep.layer
            .insert("sweep.journal_bytes".into(), median(&self.journal_bytes));
        if opts.trace {
            self.probe(rep)?;
        }
        Ok(())
    }
}
