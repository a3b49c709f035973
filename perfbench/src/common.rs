//! Pieces every workload shares: options, the report it fills, the
//! workload interface, and small statistics helpers.

use std::collections::BTreeMap;
use std::path::PathBuf;

/// Command-line options of one run.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory of this run (inside the checkout), removed at exit.
    pub work_dir: PathBuf,
}

/// What a run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Operations started / operations that failed (error replies,
    /// quarantined cells, I/O errors).
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold; any entry fails the run.
    pub check_failures: Vec<String>,
    /// Wall time of each set-up.
    pub setup_s: Vec<f64>,
    /// Latency of each timed operation, in ms.
    pub op_ms: Vec<f64>,
    /// Throughput samples for `ops_per_s`, in operations per second: one
    /// per operation for sequential workloads, one per closed-loop window
    /// for the server. Their median is reported, so a stall of the host
    /// moves it less than a total-over-total rate.
    pub rate: Vec<f64>,
    /// Peak resident set during each operation, in MB, where operations
    /// run one at a time; `peak_rss_mb` is their median. Empty: the
    /// peak of the whole run.
    pub rss_mb: Vec<f64>,
    /// The workload's own headline numbers (`build_s`, `sweep_s`,
    /// `serve_qps`, ...), for the provenance line.
    pub headline: BTreeMap<&'static str, f64>,
    /// Input sizes (jobs, transfers, export bytes, events, ...).
    pub inputs: BTreeMap<&'static str, f64>,
    /// Per-layer values the workload computes itself (counts, rates).
    /// Span self times are added by the caller.
    pub layer: BTreeMap<String, f64>,
    /// How metrics that the program does not expose were obtained.
    pub notes: Vec<String>,
}

impl Report {
    /// Record an output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    pub fn note(&mut self, s: &str) {
        if !self.notes.iter().any(|n| n == s) {
            self.notes.push(s.to_string());
        }
    }
}

/// One workload: set-up (timed, repeated), untimed preparation of the
/// reference outputs, the timed operations, then the untimed checks and
/// per-layer probes.
pub trait Workload {
    fn setup(&mut self, opts: &Opts, rep: &mut Report) -> Result<(), String>;
    fn prepare(&mut self, _opts: &Opts, _rep: &mut Report) -> Result<(), String> {
        Ok(())
    }
    fn measure(&mut self, opts: &Opts, seconds: f64, rep: &mut Report) -> Result<(), String>;
    fn finish(&mut self, opts: &Opts, rep: &mut Report) -> Result<(), String>;
}

/// Nearest-rank percentile of unsorted samples (0 for none).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reset this process's peak resident set to its current resident set,
/// so that `peak_rss_mb` reads the peak from now on. False if the kernel
/// refused.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// FNV-1a, a stable digest for byte-identity checks.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// SplitMix64: the seeded source of every generated request mix.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Seconds since `t` as f64.
pub fn secs(t: std::time::Instant) -> f64 {
    t.elapsed().as_secs_f64()
}
