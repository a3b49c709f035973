//! `build_8day`: the write path. Each operation simulates one
//! `paper_8day` campaign at scale 0.05, serialises it, and writes it
//! atomically to disk. Loader, matcher and server do no work here.
//!
//! Successive units rotate through three campaign seeds (`s`, `s+1`,
//! `s+2`): the campaign's size, and so a unit's time, moves with its
//! seed, and a run on one seed measured that seed more than the code.

use crate::common::{fnv1a, median, peak_rss_mb, reset_peak_rss, secs, Opts, Report, Workload};
use crate::trace;
use dmsa_cli::atomic::write_atomic;
use dmsa_cli::export::CampaignExport;
use dmsa_scenario::ScenarioConfig;
use std::path::{Path, PathBuf};
use std::time::Instant;

const SCALE: f64 = 0.05;
/// Set-up builds one small campaign through the same path, so lazy
/// initialisation and the page cache are warm before timing starts.
const WARMUP_SCALE: f64 = 0.01;
/// Campaign seeds the units rotate through.
const SEEDS: u64 = 3;

pub struct Build {
    /// One campaign configuration per seed, built in turn.
    configs: Vec<ScenarioConfig>,
    dir: PathBuf,
    units: usize,
    /// Export digest of each configuration's first unit.
    digests: Vec<Option<u64>>,
    /// Digest of the last unit's export, the file left on disk.
    last_digest: Option<u64>,
    run_ms: Vec<f64>,
    /// Jobs, transfers, export bytes and events of each configuration.
    sizes: Vec<[f64; 4]>,
}

impl Build {
    pub fn new(opts: &Opts) -> Build {
        Build {
            configs: (0..SEEDS)
                .map(|k| ScenarioConfig {
                    seed: opts.seed.wrapping_add(k),
                    ..ScenarioConfig::paper_8day(SCALE)
                })
                .collect(),
            dir: opts.work_dir.join("build"),
            units: 0,
            digests: vec![None; SEEDS as usize],
            last_digest: None,
            run_ms: Vec::new(),
            sizes: vec![[0.0; 4]; SEEDS as usize],
        }
    }

    fn export_path(&self) -> PathBuf {
        self.dir.join("campaign.json")
    }
}

/// Config → campaign → export JSON → file. Returns the JSON, the event
/// count, the simulation time in ms, and the store's job and transfer
/// counts.
fn build_once(
    config: &ScenarioConfig,
    path: &Path,
) -> Result<(String, u64, f64, usize, usize), String> {
    let t = Instant::now();
    let campaign = {
        let _s = trace::span("scenario.run");
        dmsa_scenario::run(config)
    };
    let run_ms = secs(t) * 1e3;
    let export = {
        let _s = trace::span("export.from_campaign");
        CampaignExport::from_campaign(&campaign)
    };
    let json = {
        let _s = trace::span("export.to_json");
        export.to_json()
    };
    {
        let _s = trace::span("atomic.write");
        write_atomic(path, json.as_bytes())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    let (jobs, _, transfers, _) = campaign.store.counts();
    Ok((json, campaign.events_processed, run_ms, jobs, transfers))
}

impl Workload for Build {
    fn setup(&mut self, _opts: &Opts, _rep: &mut Report) -> Result<(), String> {
        let _ = std::fs::remove_dir_all(&self.dir);
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| format!("creating {}: {e}", self.dir.display()))?;
        let warm = ScenarioConfig {
            seed: self.configs[0].seed,
            ..ScenarioConfig::paper_8day(WARMUP_SCALE)
        };
        build_once(&warm, &self.dir.join("warmup.json"))?;
        Ok(())
    }

    fn measure(&mut self, _opts: &Opts, seconds: f64, rep: &mut Report) -> Result<(), String> {
        let start = Instant::now();
        while secs(start) < seconds {
            let k = self.units % self.configs.len();
            self.units += 1;
            rep.attempted += 1;
            let rss_reset = reset_peak_rss();
            let t = Instant::now();
            let built = {
                let _s = trace::span("op.build");
                build_once(&self.configs[k], &self.export_path())
            };
            let dt = secs(t);
            if rss_reset {
                rep.rss_mb.push(peak_rss_mb());
            }
            let (json, events, run_ms, jobs, transfers) = match built {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("build_8day: {e}");
                    rep.failed += 1;
                    continue;
                }
            };
            rep.op_ms.push(dt * 1e3);
            rep.rate.push(1.0 / dt.max(1e-9));
            self.run_ms.push(run_ms);
            let digest = fnv1a(json.as_bytes());
            let first = *self.digests[k].get_or_insert(digest);
            rep.check(digest == first, || {
                format!(
                    "build_8day: export digest {digest:016x} differs from the first unit's \
                     {first:016x} of the same seed"
                )
            });
            self.last_digest = Some(digest);
            self.sizes[k] = [
                jobs as f64,
                transfers as f64,
                json.len() as f64,
                events as f64,
            ];
        }
        Ok(())
    }

    fn finish(&mut self, _opts: &Opts, rep: &mut Report) -> Result<(), String> {
        let Some(digest) = self.last_digest else {
            return Err("build_8day: no unit completed".into());
        };
        // The file on disk is the last unit's export: it must be the
        // same bytes, and must round-trip through the loader unchanged.
        let path = self.export_path();
        let disk = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        rep.check(fnv1a(disk.as_bytes()) == digest, || {
            "build_8day: the exported file differs from the serialised export".into()
        });
        let t = Instant::now();
        let reloaded = {
            let _s = trace::span("export.load");
            CampaignExport::from_json(&disk)?
        };
        rep.layer.insert(
            "export.load_mb_per_s".into(),
            disk.len() as f64 / 1e6 / secs(t).max(1e-9),
        );
        rep.check(reloaded.to_json() == disk, || {
            "build_8day: from_json then to_json does not reproduce the export".into()
        });
        // Input size of one unit: the mean over the seeds built (the
        // units run in rotation order, so they are the first ones).
        let built = &self.sizes[..self.units.min(self.sizes.len())];
        let mean = |i: usize| built.iter().map(|s| s[i]).sum::<f64>() / built.len() as f64;
        for (i, key) in ["jobs", "transfers", "export_bytes", "events"]
            .into_iter()
            .enumerate()
        {
            rep.inputs.insert(key, mean(i));
        }
        rep.inputs.insert("seeds", built.len() as f64);
        let events = mean(3);
        rep.headline.insert("build_s", median(&rep.op_ms) / 1e3);
        rep.layer.insert("scenario.events".into(), events);
        rep.layer.insert(
            "scenario.ns_per_event".into(),
            median(&self.run_ms) * 1e6 / events.max(1.0),
        );
        rep.layer.insert("export.bytes".into(), mean(2));
        rep.layer.insert("atomic.bytes".into(), mean(2));
        Ok(())
    }
}
