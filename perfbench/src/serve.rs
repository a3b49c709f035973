//! `serve_8day`: the query service under load. Set-up writes two
//! `paper_8day` exports at scale 0.02 (seeds `s` and `s+1`) and starts an
//! in-process server on the first. The store is loaded once, so each
//! request's matching and rendering dominate; the loader runs only on
//! reload. The client opens two connections and uses them for every
//! leg:
//!
//! - closed loop: each connection sends its next request as soon as the
//!   last reply arrives (the end-to-end latency and throughput: with
//!   both connections busy, they do not depend on how fast the host
//!   wakes an idle core, which moved open-loop medians by up to 2x
//!   between runs on the 2-core reference host). It runs in four
//!   segments, two on each export, each on a freshly loaded store: the
//!   same mix cost up to a fifth more on one loaded store than on
//!   another, so a single load made the run's median a draw of one;
//! - reloads: a quiet reload between the segments on each export, and,
//!   between the two pairs, a leg where one connection alternates
//!   `reload` between the two exports while the other keeps querying
//!   (its reload times give `serve_reload_s`);
//! - open loop: requests due at a fixed rate over both connections, each
//!   timed from when it was due (the per-layer latencies and the
//!   `serve_p50_ms`/`serve_p99_ms` headline).
//!
//! Every request line goes out in one write on a `TCP_NODELAY` socket, so
//! no request waits for the peer's delayed-ACK timer.

use crate::common::{median, percentile, secs, Opts, Report, Rng, Workload};
use crate::layers;
use crate::trace;
use dmsa_analysis::render::{render_report_string, ReportInputs};
use dmsa_cli::atomic::write_atomic;
use dmsa_cli::export::CampaignExport;
use dmsa_cli::json::push_str_lit;
use dmsa_cli::serve::{load_store_gen, ServeConfig, Server};
use dmsa_core::{MatchMethod, MatchSet, PreparedStore, ScoredMatcher};
use dmsa_scenario::{Campaign, ScenarioConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const SCALE: f64 = 0.02;
/// Connections, and generator threads: at most the 2 cores of the
/// reference host.
const CONNS: usize = 2;
/// Open-loop request rate: about a third of the closed-loop rate this
/// mix reaches on the 2-core reference host (about 300/s). At half that
/// rate, queueing turned every host slowdown into a p99 several times
/// larger.
pub const OPEN_LOOP_QPS: f64 = 100.0;
/// The p99 latency limit the open-loop leg is judged against.
pub const P99_LIMIT_MS: f64 = 100.0;
/// Latency recorded for a failed or refused request: above any limit.
const FAILED_MS: f64 = P99_LIMIT_MS * 1e3;
/// Share of the run each leg gets; the reloads have the rest.
const CLOSED_SHARE: f64 = 0.5;
const OPEN_SHARE: f64 = 0.25;
/// Closed-loop segments, each on a freshly loaded store: the same
/// export's match cost moved by up to a fifth between loads (memory
/// layout), so one load per run made the run's median a draw of one.
const CLOSED_SEGMENTS: usize = 4;
/// Closed-loop throughput is counted per window of this length.
const WINDOW_S: f64 = 1.0;
/// Untimed closed-loop requests per connection before timing starts.
const WARMUP_REQUESTS: usize = 40;
/// Scored-match thresholds the mix draws from.
const THRESHOLDS: [&str; 8] = ["0.3", "0.4", "0.5", "0.55", "0.6", "0.7", "0.8", "0.9"];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Match,
    Scored,
    Analyze,
    Health,
}

const KINDS: [(Kind, &str); 4] = [
    (Kind::Match, "match"),
    (Kind::Scored, "scored"),
    (Kind::Analyze, "analyze"),
    (Kind::Health, "health"),
];

/// One distinct request of the mix.
struct Request {
    /// The request line, newline included: sent in one write.
    line: String,
    kind: Kind,
    /// Offline reply per export (`None` for `health`, whose reply
    /// carries uptime and counters).
    expected: [Option<String>; 2],
    /// Offline compute time of the reply on the first export, in ms.
    offline_ms: f64,
}

/// The mix, as a deck of 20 requests (indices into the request table,
/// scored ones as `usize::MAX` until a threshold is drawn): 50% rm2
/// match, 10% exact, 10% rm1, 10% scored, 10% summary analysis with
/// rm2, 5% redundancy analysis, 5% health.
const DECK: [usize; 20] = {
    let s = usize::MAX;
    let (summary, redundancy, health) = (
        3 + THRESHOLDS.len(),
        4 + THRESHOLDS.len(),
        5 + THRESHOLDS.len(),
    );
    [
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 2, s, s, summary, summary, redundancy, health,
    ]
};

/// The seeded request stream: decks shuffled one after another, so every
/// 20 consecutive requests hold the exact mix and runs differ only in
/// order and scored thresholds.
struct Mix {
    rng: Rng,
    deck: [usize; 20],
    next: usize,
}

impl Mix {
    fn new(seed: u64) -> Mix {
        Mix {
            rng: Rng::new(seed),
            deck: DECK,
            next: DECK.len(),
        }
    }

    fn draw(&mut self) -> usize {
        if self.next == self.deck.len() {
            self.deck = DECK;
            for i in (1..self.deck.len()).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                self.deck.swap(i, j);
            }
            self.next = 0;
        }
        let key = self.deck[self.next];
        self.next += 1;
        if key == usize::MAX {
            3 + self.rng.below(THRESHOLDS.len() as u64) as usize
        } else {
            key
        }
    }
}

/// Simulate `config`, export it, and write it to `path`; returns the
/// campaign and the export's size in bytes.
fn write_export(config: &ScenarioConfig, path: &Path) -> Result<(Campaign, usize), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    let campaign = {
        let _s = trace::span("scenario.run");
        dmsa_scenario::run(config)
    };
    let json = {
        let _s = trace::span("export.to_json");
        CampaignExport::from_campaign(&campaign).to_json()
    };
    {
        let _s = trace::span("atomic.write");
        write_atomic(path, json.as_bytes())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok((campaign, json.len()))
}

/// Record a campaign's size as the workload's input size.
fn record_inputs(rep: &mut Report, campaign: &Campaign, export_bytes: usize) {
    let (jobs, _, transfers, _) = campaign.store.counts();
    rep.inputs.insert("jobs", jobs as f64);
    rep.inputs.insert("transfers", transfers as f64);
    rep.inputs.insert("export_bytes", export_bytes as f64);
    rep.inputs
        .insert("events", campaign.events_processed as f64);
}

/// The request table, in `draw` order, without replies yet.
fn request_lines() -> Vec<(String, Kind)> {
    let mut v = vec![
        (r#"{"cmd":"match","method":"rm2"}"#.to_string(), Kind::Match),
        (
            r#"{"cmd":"match","method":"exact"}"#.to_string(),
            Kind::Match,
        ),
        (r#"{"cmd":"match","method":"rm1"}"#.to_string(), Kind::Match),
    ];
    for t in THRESHOLDS {
        v.push((
            format!(r#"{{"cmd":"match","method":"scored:{t}"}}"#),
            Kind::Scored,
        ));
    }
    v.push((
        r#"{"cmd":"analyze","report":"summary","method":"rm2"}"#.to_string(),
        Kind::Analyze,
    ));
    v.push((
        r#"{"cmd":"analyze","report":"redundancy"}"#.to_string(),
        Kind::Analyze,
    ));
    v.push((r#"{"cmd":"health"}"#.to_string(), Kind::Health));
    v
}

/// The reply `dmsa serve` gives for `line`, computed offline on one
/// campaign. Mirrors the server's reply layout.
fn offline_reply(
    line: &str,
    c: &Campaign,
    prepared: &PreparedStore<'_>,
) -> Result<Option<String>, String> {
    let req = dmsa_cli::json::parse(line.trim_end()).map_err(|e| e.to_string())?;
    let get = |k: &str| req.get(k).and_then(|v| v.as_str());
    let matches = |m: &str| -> MatchSet {
        match m.strip_prefix("scored:") {
            Some(t) => ScoredMatcher::default().match_jobs_scored(
                &c.store,
                c.window,
                t.parse().expect("thresholds are numbers"),
            ),
            None => {
                let (_, method) = layers::METHODS
                    .into_iter()
                    .find(|(name, _)| *name == m)
                    .unwrap_or(("rm2", MatchMethod::Rm2));
                prepared.match_window(c.window, method)
            }
        }
    };
    match get("cmd") {
        Some("match") => {
            let m = get("method").unwrap_or("rm2");
            let set = matches(m);
            let mut o = String::from("{\"ok\":true,\"cmd\":\"match\",\"method\":");
            push_str_lit(&mut o, m);
            o.push_str(&format!(
                ",\"matched_jobs\":{},\"matched_transfers\":{}}}",
                set.n_matched_jobs(),
                set.n_matched_transfers()
            ));
            Ok(Some(o))
        }
        Some("analyze") => {
            let report = get("report").unwrap_or("summary");
            let set = get("method").map(matches);
            let inputs = ReportInputs {
                store: &c.store,
                window: c.window,
                path_stats: c.path_stats,
                health: c.health.as_ref(),
            };
            let text = render_report_string(&inputs, report, set.as_ref(), None)?;
            let mut o = String::from("{\"ok\":true,\"cmd\":\"analyze\",\"report\":");
            push_str_lit(&mut o, report);
            o.push_str(",\"text\":");
            push_str_lit(&mut o, &text);
            o.push('}');
            Ok(Some(o))
        }
        _ => Ok(None),
    }
}

/// A client connection: `TCP_NODELAY`, one write per request line.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    reply: String,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(Duration::from_secs(60))))
            .map_err(|e| format!("socket options: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Conn {
            stream,
            reader,
            reply: String::new(),
        })
    }

    /// Send one newline-terminated line and read one reply line.
    fn call(&mut self, line: &str) -> Result<&str, String> {
        self.stream
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.reply.clear();
        match self.reader.read_line(&mut self.reply) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(self.reply.trim_end_matches('\n')),
            Err(e) => Err(format!("recv: {e}")),
        }
    }
}

/// What one request came back as.
struct Sample {
    key: usize,
    /// From due time (open loop) or send time (closed loop) to reply.
    ms: f64,
    /// How late the generator sent it (open loop only).
    late_ms: f64,
    /// When the reply arrived, in seconds since the leg started.
    done_s: f64,
    ok: bool,
}

/// One leg's requests: samples of the queries, every request attempted
/// (reloads too), the failures, and replies that did not match.
#[derive(Default)]
struct Tally {
    samples: Vec<Sample>,
    attempted: u64,
    errors: Vec<String>,
    mismatches: Vec<String>,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.errors.extend(other.errors);
        self.mismatches.extend(other.mismatches);
    }
}

/// Which exports a reply may have been served from.
#[derive(Clone, Copy)]
enum Served {
    Gen(usize),
    Either,
}

/// Count one request and check its reply against the request table;
/// returns whether the server answered it (`"ok":true`). Error replies
/// (`overloaded`, `deadline_exceeded`, `bad_request`, `internal_error`,
/// ...) and broken connections count as failures.
fn judge(
    table: &[Request],
    key: usize,
    reply: Result<&str, String>,
    served: Served,
    t: &mut Tally,
) -> bool {
    t.attempted += 1;
    let reply = match reply {
        Ok(r) => r,
        Err(e) => {
            t.errors.push(e);
            return false;
        }
    };
    if !reply.starts_with("{\"ok\":true") {
        t.errors.push(reply.chars().take(160).collect());
        return false;
    }
    let req = &table[key];
    let fits = |g: usize| match &req.expected[g] {
        Some(want) => reply == want,
        None => reply.starts_with("{\"ok\":true,\"cmd\":\"health\""),
    };
    let ok = match served {
        Served::Gen(g) => fits(g),
        Served::Either => fits(0) || fits(1),
    };
    if !ok {
        t.mismatches.push(format!(
            "reply to {} differs from the offline reply",
            req.line.trim_end()
        ));
    }
    true
}

pub struct Serve {
    configs: [ScenarioConfig; 2],
    paths: [PathBuf; 2],
    campaigns: Vec<Campaign>,
    server: Option<Server>,
    /// The client's connections, opened once: every leg uses the same
    /// two, so the server keeps the same two connection threads.
    conns: Vec<Conn>,
    table: Vec<Request>,
    seed: u64,
    /// Export the server currently serves (0 or 1).
    serving: usize,
    legs_run: u64,
    open: Tally,
    closed_ok: f64,
    closed_s: f64,
    reload_ms: Vec<f64>,
}

impl Serve {
    pub fn new(opts: &Opts) -> Serve {
        let config = |seed| ScenarioConfig {
            seed,
            ..ScenarioConfig::paper_8day(SCALE)
        };
        let dir = opts.work_dir.join("serve");
        Serve {
            configs: [config(opts.seed), config(opts.seed.wrapping_add(1))],
            paths: [dir.join("a.json"), dir.join("b.json")],
            campaigns: Vec::new(),
            server: None,
            conns: Vec::new(),
            table: Vec::new(),
            seed: opts.seed,
            serving: 0,
            legs_run: 0,
            open: Tally::default(),
            closed_ok: 0.0,
            closed_s: 0.0,
            reload_ms: Vec::new(),
        }
    }

    fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("server started").local_addr()
    }

    /// Open loop: request `i` is due at `i / OPEN_LOOP_QPS` and goes out
    /// on connection `i % CONNS`.
    fn open_loop(&self, conns: &mut [Conn], seconds: f64, rng: &mut Rng) -> Result<Tally, String> {
        let n = (seconds * OPEN_LOOP_QPS).max(1.0) as usize;
        let mut mix = Mix::new(rng.next_u64());
        let keys: Vec<usize> = (0..n).map(|_| mix.draw()).collect();
        let (table, serving) = (&self.table, self.serving);
        let parent = trace::current();
        let t0 = Instant::now() + Duration::from_millis(5);
        let tallies = std::thread::scope(|s| {
            let handles: Vec<_> = conns
                .iter_mut()
                .enumerate()
                .map(|(c, conn)| {
                    let keys = &keys;
                    s.spawn(move || -> Result<Tally, String> {
                        let mut t = Tally::default();
                        for i in (c..keys.len()).step_by(CONNS) {
                            let due = t0 + Duration::from_secs_f64(i as f64 / OPEN_LOOP_QPS);
                            let now = Instant::now();
                            if now < due {
                                std::thread::sleep(due - now);
                            }
                            let late_ms =
                                Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
                            let key = keys[i];
                            let _s = trace::span_under(parent, "serve.request");
                            let reply = conn.call(&table[key].line);
                            let ok = judge(table, key, reply, Served::Gen(serving), &mut t);
                            let ms = if ok {
                                Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3
                            } else {
                                FAILED_MS
                            };
                            t.samples.push(Sample {
                                key,
                                ms,
                                late_ms,
                                done_s: 0.0,
                                ok,
                            });
                        }
                        Ok(t)
                    })
                })
                .collect();
            join_all(handles)
        })?;
        Ok(tallies)
    }

    /// Closed loop over `CONNS` connections for `seconds`, or until each
    /// connection has sent `max_requests`.
    fn closed_loop(
        &self,
        conns: &mut [Conn],
        seconds: f64,
        max_requests: usize,
        rng: &mut Rng,
    ) -> Result<(Tally, f64), String> {
        let (table, serving) = (&self.table, self.serving);
        let parent = trace::current();
        let t0 = Instant::now();
        let tally = std::thread::scope(|s| {
            let handles: Vec<_> = conns
                .iter_mut()
                .map(|conn| {
                    let mut mix = Mix::new(rng.next_u64());
                    s.spawn(move || -> Result<Tally, String> {
                        let mut t = Tally::default();
                        while secs(t0) < seconds && t.samples.len() < max_requests {
                            let key = mix.draw();
                            let sent = Instant::now();
                            let _s = trace::span_under(parent, "serve.request");
                            let reply = conn.call(&table[key].line);
                            let ok = judge(table, key, reply, Served::Gen(serving), &mut t);
                            t.samples.push(Sample {
                                key,
                                ms: secs(sent) * 1e3,
                                late_ms: 0.0,
                                done_s: secs(t0),
                                ok,
                            });
                        }
                        Ok(t)
                    })
                })
                .collect();
            join_all(handles)
        })?;
        Ok((tally, secs(t0)))
    }

    /// One connection alternates `reload` between the exports, timing
    /// each, until the time is up and the server serves the other export
    /// than at the start; the other connection queries closed-loop. A
    /// query that overlapped a reload may have been served by either
    /// export.
    fn reload_leg(
        &mut self,
        conns: &mut [Conn],
        seconds: f64,
        rng: &mut Rng,
    ) -> Result<(Tally, Vec<f64>), String> {
        let table = &self.table;
        let [reload_conn, query_conn] = conns else {
            return Err(format!("the reload leg needs {CONNS} connections"));
        };
        let reload_lines = [self.reload_line(0), self.reload_line(1)];
        // Even: no reload in flight, and `serving` names the export.
        let epoch = AtomicU64::new(0);
        let serving = AtomicUsize::new(self.serving);
        let done = AtomicBool::new(false);
        let seed = rng.next_u64();
        let parent = trace::current();
        let t0 = Instant::now();
        let (reloads, queries) = std::thread::scope(|s| {
            let reloader = s.spawn(|| -> Result<(Tally, Vec<f64>), String> {
                let conn = reload_conn;
                let mut t = Tally::default();
                let mut times = Vec::new();
                let start = serving.load(Ordering::SeqCst);
                while secs(t0) < seconds || serving.load(Ordering::SeqCst) == start {
                    t.attempted += 1;
                    let to = 1 - serving.load(Ordering::SeqCst);
                    epoch.fetch_add(1, Ordering::SeqCst);
                    let sent = Instant::now();
                    let reply = {
                        let _s = trace::span_under(parent, "serve.reload");
                        conn.call(&reload_lines[to]).map(str::to_owned)
                    };
                    let ms = secs(sent) * 1e3;
                    match reply {
                        Ok(r) if r.starts_with("{\"ok\":true,\"cmd\":\"reload\"") => {
                            serving.store(to, Ordering::SeqCst);
                            times.push(ms);
                        }
                        Ok(r) => t.errors.push(r.chars().take(160).collect()),
                        Err(e) => t.errors.push(e),
                    }
                    epoch.fetch_add(1, Ordering::SeqCst);
                    if !t.errors.is_empty() {
                        break;
                    }
                }
                done.store(true, Ordering::SeqCst);
                Ok((t, times))
            });
            let querier = s.spawn(|| -> Result<Tally, String> {
                let mut mix = Mix::new(seed);
                let conn = query_conn;
                let mut t = Tally::default();
                while !done.load(Ordering::SeqCst) {
                    let key = mix.draw();
                    let e0 = epoch.load(Ordering::SeqCst);
                    let g = serving.load(Ordering::SeqCst);
                    let sent = Instant::now();
                    let reply = {
                        let _s = trace::span_under(parent, "serve.request");
                        conn.call(&table[key].line).map(str::to_owned)
                    };
                    let ms = secs(sent) * 1e3;
                    let e1 = epoch.load(Ordering::SeqCst);
                    let served = if e0 == e1 && e0.is_multiple_of(2) {
                        Served::Gen(g)
                    } else {
                        Served::Either
                    };
                    let ok = judge(
                        table,
                        key,
                        reply.as_deref().map_err(Clone::clone),
                        served,
                        &mut t,
                    );
                    t.samples.push(Sample {
                        key,
                        ms,
                        late_ms: 0.0,
                        done_s: 0.0,
                        ok,
                    });
                }
                Ok(t)
            });
            (
                reloader
                    .join()
                    .unwrap_or_else(|_| Err("reload thread panicked".into())),
                querier
                    .join()
                    .unwrap_or_else(|_| Err("query thread panicked".into())),
            )
        });
        let (mut tally, times) = reloads?;
        tally.merge(queries?);
        self.serving = serving.load(Ordering::SeqCst);
        Ok((tally, times))
    }

    /// The `reload` request line for export `g`.
    fn reload_line(&self, g: usize) -> String {
        let mut o = String::from("{\"cmd\":\"reload\",\"path\":");
        push_str_lit(&mut o, &self.paths[g].display().to_string());
        o.push_str("}\n");
        o
    }

    /// Reload the other export with no queries in flight.
    fn switch_export(&mut self, conn: &mut Conn, rep: &mut Report) -> Result<(), String> {
        let to = 1 - self.serving;
        rep.attempted += 1;
        let reply = {
            let _s = trace::span("serve.reload");
            conn.call(&self.reload_line(to))?
        };
        if !reply.starts_with("{\"ok\":true,\"cmd\":\"reload\"") {
            rep.failed += 1;
            return Err(format!(
                "serve_8day: reload failed: {}",
                reply.chars().take(160).collect::<String>()
            ));
        }
        self.serving = to;
        Ok(())
    }

    /// Account one closed-loop segment: its latencies, and its throughput
    /// per `WINDOW_S` window (the whole segment if it is shorter).
    fn record_closed(&mut self, closed: &Tally, wall: f64, rep: &mut Report) {
        self.account(closed, rep);
        rep.op_ms.extend(
            closed
                .samples
                .iter()
                .map(|s| if s.ok { s.ms } else { FAILED_MS }),
        );
        let ok = closed.samples.iter().filter(|s| s.ok).count() as f64;
        let windows = (wall / WINDOW_S) as usize;
        if windows == 0 {
            rep.rate.push(ok / wall.max(1e-9));
        } else {
            let mut counts = vec![0u32; windows];
            for s in closed.samples.iter().filter(|s| s.ok) {
                if let Some(c) = counts.get_mut((s.done_s / WINDOW_S) as usize) {
                    *c += 1;
                }
            }
            rep.rate.extend(counts.iter().map(|&c| c as f64 / WINDOW_S));
        }
        self.closed_ok += ok;
        self.closed_s += wall;
    }

    fn account(&self, t: &Tally, rep: &mut Report) {
        rep.attempted += t.attempted;
        rep.failed += t.errors.len() as u64;
        for e in &t.errors {
            eprintln!("serve_8day: request failed: {e}");
        }
        for m in &t.mismatches {
            rep.check(false, || format!("serve_8day: {m}"));
        }
    }
}

/// Join scoped worker threads and merge their tallies.
fn join_all(
    handles: Vec<std::thread::ScopedJoinHandle<'_, Result<Tally, String>>>,
) -> Result<Tally, String> {
    let mut all = Tally::default();
    for h in handles {
        all.merge(
            h.join()
                .unwrap_or_else(|_| Err("client thread panicked".into()))?,
        );
    }
    Ok(all)
}

impl Workload for Serve {
    fn setup(&mut self, _opts: &Opts, rep: &mut Report) -> Result<(), String> {
        if let Some(old) = self.server.take() {
            old.shutdown();
        }
        self.campaigns.clear();
        let mut first_json = None;
        for (config, path) in self.configs.iter().zip(&self.paths) {
            let (campaign, bytes) = write_export(config, path)?;
            if first_json.is_none() {
                record_inputs(rep, &campaign, bytes);
                first_json = Some(
                    std::fs::read_to_string(path)
                        .map_err(|e| format!("reading {}: {e}", path.display()))?,
                );
            }
            self.campaigns.push(campaign);
        }
        let source = self.paths[0].display().to_string();
        let gen = {
            let _s = trace::span("serve.load_store_gen");
            load_store_gen(first_json.as_deref().expect("two exports"), &source, 0.01)?
        };
        let cfg = ServeConfig {
            max_inflight: CONNS,
            max_conns: CONNS + 2,
            ..ServeConfig::default()
        };
        self.server = Some(Server::start(cfg, gen, Some(self.paths[0].clone()))?);
        self.serving = 0;
        Ok(())
    }

    fn prepare(&mut self, _opts: &Opts, rep: &mut Report) -> Result<(), String> {
        let prepared: Vec<PreparedStore<'_>> = self
            .campaigns
            .iter()
            .map(|c| PreparedStore::build(&c.store))
            .collect();
        let mut table = Vec::new();
        for (line, kind) in request_lines() {
            let mut expected = [None, None];
            let mut offline_ms = Vec::new();
            for (g, (c, p)) in self.campaigns.iter().zip(&prepared).enumerate() {
                let reps = if g == 0 { 3 } else { 1 };
                for _ in 0..reps {
                    let t = Instant::now();
                    let reply = offline_reply(&line, c, p)?;
                    if g == 0 {
                        offline_ms.push(secs(t) * 1e3);
                    }
                    expected[g] = reply;
                }
            }
            table.push(Request {
                line: line + "\n",
                kind,
                expected,
                offline_ms: median(&offline_ms),
            });
        }
        self.table = table;
        // The campaigns served only to compute the offline replies; the
        // server holds its own stores.
        self.campaigns.clear();
        let mut conns = (0..CONNS)
            .map(|_| Conn::open(self.addr()))
            .collect::<Result<Vec<_>, _>>()?;
        // Untimed warm-up: the store's pages and the server's threads
        // are cold after set-up.
        let (warm, _) = self.closed_loop(
            &mut conns,
            f64::INFINITY,
            WARMUP_REQUESTS,
            &mut Rng::new(!self.seed),
        )?;
        self.account(&warm, rep);
        self.conns = conns;
        Ok(())
    }

    fn measure(&mut self, _opts: &Opts, seconds: f64, rep: &mut Report) -> Result<(), String> {
        // Each call draws its own stream, so a traced run's second half
        // does not replay the first half's requests.
        let mut rng = Rng::new(self.seed ^ (self.legs_run << 32));
        self.legs_run += 1;

        // Closed-loop segments on both exports, in turn, each on a store
        // loaded afresh: a quiet reload between the segments of a pair,
        // the reload leg between the pairs (it ends on the other export).
        let mut conns = std::mem::take(&mut self.conns);
        let started = Instant::now();
        for segment in 0..CLOSED_SEGMENTS {
            if segment % 2 == 1 {
                self.switch_export(&mut conns[0], rep)?;
            } else if segment > 0 {
                let closed_left = seconds * CLOSED_SHARE * (CLOSED_SEGMENTS - segment) as f64
                    / CLOSED_SEGMENTS as f64;
                let left = seconds * (1.0 - OPEN_SHARE) - secs(started) - closed_left;
                let (reloads, times) = {
                    let _s = trace::span("serve.reload_leg");
                    self.reload_leg(&mut conns, left, &mut rng)?
                };
                self.account(&reloads, rep);
                self.reload_ms.extend(times);
            }
            let (closed, wall) = {
                let _s = trace::span("serve.closed_loop");
                self.closed_loop(
                    &mut conns,
                    seconds * CLOSED_SHARE / CLOSED_SEGMENTS as f64,
                    usize::MAX,
                    &mut rng,
                )?
            };
            self.record_closed(&closed, wall, rep);
        }

        let open = {
            let _s = trace::span("serve.open_loop");
            self.open_loop(&mut conns, seconds * OPEN_SHARE, &mut rng)?
        };
        self.account(&open, rep);
        self.open.merge(open);
        self.conns = conns;
        Ok(())
    }

    fn finish(&mut self, opts: &Opts, rep: &mut Report) -> Result<(), String> {
        self.conns.clear();
        let server = self.server.take().expect("server started");
        let c = server.state().counters();
        let counter = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64;
        rep.layer.insert("serve.shed".into(), counter(&c.shed));
        rep.layer.insert(
            "serve.deadline_exceeded".into(),
            counter(&c.deadline_exceeded),
        );
        rep.layer.insert(
            "serve.errors".into(),
            counter(&c.bad_requests)
                + counter(&c.panics)
                + counter(&c.reloads_failed)
                + counter(&c.slow_client_drops),
        );
        let drained = server.shutdown();
        rep.check(drained.clean, || {
            format!(
                "serve_8day: {} connection(s) abandoned at drain",
                drained.abandoned_conns
            )
        });

        let open = &self.open.samples;
        let all_ms: Vec<f64> = open.iter().map(|s| s.ms).collect();
        rep.headline
            .insert("serve_p50_ms", percentile(&all_ms, 50.0));
        rep.headline
            .insert("serve_p99_ms", percentile(&all_ms, 99.0));
        rep.headline
            .insert("serve_qps", self.closed_ok / self.closed_s.max(1e-9));
        rep.headline
            .insert("serve_reload_s", median(&self.reload_ms) / 1e3);
        rep.inputs.insert("open_loop_qps", OPEN_LOOP_QPS);
        rep.inputs.insert("p99_limit_ms", P99_LIMIT_MS);
        rep.inputs.insert("open_loop_requests", open.len() as f64);
        for (kind, name) in KINDS {
            let ms: Vec<f64> = open
                .iter()
                .filter(|s| self.table[s.key].kind == kind)
                .map(|s| s.ms)
                .collect();
            rep.layer.insert(
                format!("serve.latency_ms.{name}.p50"),
                percentile(&ms, 50.0),
            );
            rep.layer.insert(
                format!("serve.latency_ms.{name}.p99"),
                percentile(&ms, 99.0),
            );
        }
        let late: Vec<f64> = open.iter().map(|s| s.late_ms).collect();
        rep.layer
            .insert("serve.gen_late_ms".into(), percentile(&late, 99.0));
        let offline: f64 = open.iter().map(|s| self.table[s.key].offline_ms).sum();
        rep.layer.insert(
            "serve.compute_share".into(),
            offline / all_ms.iter().sum::<f64>().max(1e-9),
        );
        rep.layer
            .insert("serve.reload_ms".into(), median(&self.reload_ms));
        rep.note(
            "serve.compute_share divides the offline compute time of each open-loop request \
             (the same reply computed in-process on the same store) by its client-observed \
             latency: the server does not report its own compute time",
        );
        if opts.trace {
            let json = std::fs::read_to_string(&self.paths[0])
                .map_err(|e| format!("reading {}: {e}", self.paths[0].display()))?;
            layers::probe_read_path(&json, 3, rep)?;
        }
        Ok(())
    }
}
