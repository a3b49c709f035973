//! `dmsa serve` — a fault-hardened concurrent analysis service.
//!
//! One process loads a campaign export through the lenient quarantine
//! loader, builds a single shared [`SharedPrepared`] index, and answers
//! newline-delimited-JSON queries over TCP. The design goals, in order:
//!
//! 1. **The process survives.** Request handlers run under
//!    `catch_unwind`; a panicking request becomes an `internal_error`
//!    reply and a counter bump, never a dead server. Slow or vanished
//!    clients hit write timeouts and are dropped, never block a thread
//!    forever. A request line is bounded in length and in JSON nesting
//!    depth, so no line can exhaust memory or a thread's stack.
//! 2. **Overload is explicit.** Admission is bounded two ways — a
//!    connection cap (excess connections get one `overloaded` line and
//!    are closed) and an in-flight request cap (excess requests on live
//!    connections get an `overloaded` reply immediately instead of
//!    queueing without bound). Clients always learn *why* they were
//!    refused.
//! 3. **Reload is atomic.** A reload (SIGHUP or `reload` command) loads
//!    and validates the new export off the serving path, builds a fresh
//!    prepared store, and swaps it into a [`StoreSwap`] in one atomic
//!    step. In-flight requests keep the generation they started with; a
//!    failed load rolls back to the old store and records the error.
//! 4. **Shutdown drains.** SIGTERM (or the `shutdown` command) stops
//!    accepting, lets in-flight work finish up to a drain deadline, and
//!    exits cleanly.
//!
//! ## Line protocol
//!
//! One JSON object per line, one reply line per request:
//!
//! ```text
//! -> {"cmd":"health"}
//! <- {"ok":true,"cmd":"health","generation":1,...}
//! -> {"cmd":"match","method":"rm2"}
//! <- {"ok":true,"cmd":"match","method":"rm2","matched_jobs":17,...}
//! -> {"cmd":"analyze","report":"summary"}
//! <- {"ok":true,"cmd":"analyze","report":"summary","text":"jobs 100..."}
//! -> {"cmd":"reload","path":"new-campaign.json"}
//! <- {"ok":true,"cmd":"reload","generation":2}
//! ```
//!
//! Failure replies are `{"ok":false,"error":E}` with `E` one of
//! `overloaded`, `deadline_exceeded`, `bad_request`, `internal_error`,
//! `reload_failed`, `shutting_down` (plus a human `detail` where it
//! helps). The current store generation appears **only** in the `health`
//! reply, so `match`/`analyze` replies are byte-comparable across
//! reloads of identical content — the property the hot-reload atomicity
//! test locks.
//!
//! ## Answers come from the generation
//!
//! Every `match`/`analyze` reply is a pure function of the loaded export
//! and a few request fields, so a [`StoreGen`] answers each distinct
//! request once. Loading a generation runs the exact, RM1 and RM2
//! matchers through [`dmsa_core::PreparedStore::match_window`], the
//! offline path, so served sets are byte-identical to `dmsa match`. The
//! generation's reply memo is keyed by `cmd`, the raw `method` string
//! (echoed in `match` replies), `report` and `full`. The first request
//! for a key renders its reply (and runs the scored matcher, for
//! `scored:<t>`); later ones are served the stored bytes. The memo is
//! capped at [`MEMO_MAX_ENTRIES`] replies and [`MEMO_MAX_BYTES`] bytes;
//! past the cap a reply is computed and sent, not kept. It needs no
//! invalidation: it belongs to the generation and retires with it.
//! `health`, `reload`, `shutdown` and the debug commands are never
//! memoized.
//!
//! The deadline bounds the computing requests: a memo miss is checked
//! once its reply is computed (a late reply is still memoized, so a
//! retry is a hit), and `debug_sleep` checks it as it sleeps. A hit
//! does no work, so it is not checked.

use crate::export::CampaignExport;
use crate::json::{self, push_str_lit};
use crate::run::{matchset_to_json, MatcherChoice};
use crate::signals;
use dmsa_core::{MatchMethod, MatchSet, ScoredMatcher, SharedPrepared, StoreSwap};
use dmsa_gridnet::HealthSummary;
use dmsa_rucio_sim::TransferPathStats;
use dmsa_simcore::interval::Interval;
use std::borrow::Cow;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

/// Most replies one generation's memo keeps.
pub const MEMO_MAX_ENTRIES: usize = 64;
/// Most reply bytes one generation's memo keeps.
pub const MEMO_MAX_BYTES: usize = 64 << 20;

/// How long connection threads and the accept loop sleep between polls
/// of the drain/reload/readable state. Bounds signal-to-action latency.
const POLL_TICK: Duration = Duration::from_millis(25);

/// Tunables for [`Server::start`]. `Default` gives conservative values
/// sized for the CI smoke and the bench harness; the CLI maps flags onto
/// these.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Maximum concurrently *executing* requests before shedding.
    pub max_inflight: usize,
    /// Maximum live connections before new ones are refused.
    pub max_conns: usize,
    /// Per-request compute deadline.
    pub deadline: Duration,
    /// Per-reply socket write timeout (slow-client guard).
    pub write_timeout: Duration,
    /// How long shutdown waits for in-flight connections to finish.
    pub drain_deadline: Duration,
    /// Reloads refuse an export whose quarantined-record fraction
    /// exceeds this (a mostly-corrupt replacement must not evict a
    /// healthy store).
    pub max_quarantine_frac: f64,
    /// Maximum request-line length the server will buffer. A longer
    /// line gets a structured `bad_request` reply, its remainder is
    /// discarded through the terminating newline, and the connection
    /// stays usable — one hostile or buggy client line must not balloon
    /// server memory or cost the client its session.
    pub max_line_bytes: usize,
    /// Poll the process-global signal latches (SIGTERM drain, SIGHUP
    /// reload). Off in unit tests, on under the CLI.
    pub watch_signals: bool,
    /// Enable `debug_panic` / `debug_sleep` fault-injection commands.
    pub debug_commands: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            max_inflight: thread::available_parallelism().map_or(4, |n| n.get()),
            max_conns: 1024,
            deadline: Duration::from_secs(10),
            write_timeout: Duration::from_secs(5),
            drain_deadline: Duration::from_secs(5),
            max_quarantine_frac: 0.01,
            max_line_bytes: 1 << 20,
            watch_signals: false,
            debug_commands: false,
        }
    }
}

/// One immutable store generation: everything a request reads, owned
/// together so the [`StoreSwap`] can retire it as a unit when the last
/// in-flight reader drops.
pub struct StoreGen {
    /// The shared prepared index (owns the store).
    pub shared: SharedPrepared,
    /// Observation window of the export.
    pub window: Interval,
    /// Transfer-path counters of the export.
    pub path_stats: TransferPathStats,
    /// Breaker telemetry of the export, when armed.
    pub health: Option<HealthSummary>,
    /// Where this generation was loaded from (display only).
    pub source: String,
    /// Records the lenient loader quarantined while loading it.
    pub quarantined: u64,
    /// The window's exact, RM1 and RM2 match sets, in that order.
    sets: [MatchSet; 3],
    /// Replies this generation has computed.
    memo: ReplyMemo,
}

impl StoreGen {
    /// The match set of a `method` string: precomputed for exact/RM1/RM2,
    /// computed here for `scored[:T]`.
    fn match_set(&self, method: &str) -> Result<Cow<'_, MatchSet>, ReqError> {
        let i = match MatcherChoice::parse(method).map_err(ReqError::BadRequest)? {
            MatcherChoice::Exact => 0,
            MatcherChoice::Rm1 => 1,
            MatcherChoice::Rm2 => 2,
            MatcherChoice::Scored(t) => {
                let scored = ScoredMatcher::default();
                return Ok(Cow::Owned(scored.match_jobs_scored(
                    self.shared.store(),
                    self.window,
                    t,
                )));
            }
        };
        Ok(Cow::Borrowed(&self.sets[i]))
    }
}

/// What a memoized reply depends on besides the generation: the request
/// fields that change its bytes.
#[derive(Hash, PartialEq, Eq)]
struct MemoKey {
    analyze: bool,
    /// Raw, as sent: `match` echoes it.
    method: Option<String>,
    /// `analyze` only.
    report: Option<String>,
    /// `match` only.
    full: bool,
}

impl MemoKey {
    fn of(req: &json::Json, analyze: bool) -> MemoKey {
        let field = |k| req.get(k).and_then(|v| v.as_str()).map(str::to_owned);
        MemoKey {
            analyze,
            method: field("method"),
            report: if analyze { field("report") } else { None },
            full: !analyze && req.get("full").and_then(|f| f.as_bool()) == Some(true),
        }
    }
}

/// One generation's `match`/`analyze` replies, bounded by
/// [`MEMO_MAX_ENTRIES`] and [`MEMO_MAX_BYTES`].
#[derive(Default)]
struct ReplyMemo {
    replies: Mutex<MemoTable>,
    hits: AtomicU64,
    misses: AtomicU64,
}

#[derive(Default)]
struct MemoTable {
    map: HashMap<MemoKey, Reply>,
    bytes: usize,
}

impl ReplyMemo {
    fn table(&self) -> MutexGuard<'_, MemoTable> {
        self.replies.lock().expect("reply memo poisoned")
    }

    fn get(&self, key: &MemoKey) -> Option<Reply> {
        let hit = self.table().map.get(key).cloned();
        let tally = if hit.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        tally.fetch_add(1, Ordering::Relaxed);
        hit
    }

    /// Keep `reply` under `key`, unless that would pass a cap.
    fn insert(&self, key: MemoKey, reply: &Reply) {
        let mut t = self.table();
        if t.map.len() < MEMO_MAX_ENTRIES && t.bytes + reply.len() <= MEMO_MAX_BYTES {
            // A racing miss may have stored the same bytes first.
            if t.map.insert(key, Arc::clone(reply)).is_none() {
                t.bytes += reply.len();
            }
        }
    }

    /// `(entries, bytes)` held now.
    fn size(&self) -> (usize, usize) {
        let t = self.table();
        (t.map.len(), t.bytes)
    }
}

/// Parse + validate + index an export into a servable [`StoreGen`].
///
/// This is the *whole* reload path minus the swap: strict format-version
/// checking and record quarantine happen inside `from_json_lenient`, the
/// quarantine fraction is checked against `max_quarantine_frac`, and the
/// prepared index is built and matched with all three methods — all
/// before the caller decides to swap. Any `Err` here therefore leaves a
/// running server untouched.
pub fn load_store_gen(
    campaign_json: &str,
    source: &str,
    max_quarantine_frac: f64,
) -> Result<StoreGen, String> {
    let loaded = CampaignExport::from_json_lenient(campaign_json)?;
    let quarantined = loaded.quarantine.total();
    if quarantined > 0 {
        let (jobs, files, transfers, _) = loaded.export.store.counts();
        let kept = (jobs + files + transfers) as u64;
        let frac = quarantined as f64 / (kept + quarantined).max(1) as f64;
        if frac > max_quarantine_frac {
            return Err(format!(
                "refusing export {source}: {quarantined} quarantined record(s) \
                 ({:.2}% > {:.2}% allowed): {}",
                100.0 * frac,
                100.0 * max_quarantine_frac,
                loaded.quarantine.one_line()
            ));
        }
    }
    let export = loaded.export;
    let shared = SharedPrepared::build(export.store);
    let sets = [MatchMethod::Exact, MatchMethod::Rm1, MatchMethod::Rm2]
        .map(|m| shared.prepared().match_window(export.window, m));
    Ok(StoreGen {
        shared,
        window: export.window,
        path_stats: export.path_stats,
        health: export.health,
        source: source.to_string(),
        quarantined,
        sets,
        memo: ReplyMemo::default(),
    })
}

/// Monotonic counters and time sums exposed through the `health` reply.
/// All relaxed: they are telemetry, not synchronization.
#[derive(Default)]
pub struct Counters {
    /// Requests answered with `"ok":true`.
    pub served: AtomicU64,
    /// Requests refused with `overloaded` (either cap).
    pub shed: AtomicU64,
    /// Unparseable or unknown requests.
    pub bad_requests: AtomicU64,
    /// Request handlers that panicked (and were contained).
    pub panics: AtomicU64,
    /// Requests cancelled at their deadline.
    pub deadline_exceeded: AtomicU64,
    /// Connections dropped because the client read too slowly (write
    /// timeout) or vanished mid-reply.
    pub slow_client_drops: AtomicU64,
    /// Reloads that swapped a new generation in.
    pub reloads_ok: AtomicU64,
    /// Reloads rejected with the old generation left serving.
    pub reloads_failed: AtomicU64,
    /// Nanoseconds spent parsing request lines.
    pub parse_ns: AtomicU64,
    /// Nanoseconds spent computing memo misses.
    pub compute_ns: AtomicU64,
    /// Nanoseconds spent writing replies.
    pub write_ns: AtomicU64,
}

/// Add the time since `since` to a nanosecond sum.
fn add_elapsed(sum: &AtomicU64, since: Instant) {
    sum.fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
}

/// Shared mutable state of a running server.
pub struct ServeState {
    swap: StoreSwap<StoreGen>,
    counters: Counters,
    /// Set to stop accepting and drain.
    draining: AtomicBool,
    /// Per-server reload latch (the signal latch is process-global; this
    /// one lets tests and the `reload` command target one server).
    reload_requested: AtomicBool,
    /// Serializes reloads so two never interleave load-then-swap.
    reload_lock: Mutex<()>,
    /// Path re-read on pathless reloads; updated by `reload` with a path.
    reload_path: Mutex<Option<PathBuf>>,
    last_reload_error: Mutex<Option<String>>,
    live_conns: AtomicUsize,
    inflight: AtomicUsize,
    started: Instant,
}

impl ServeState {
    fn new(initial: StoreGen, reload_path: Option<PathBuf>) -> ServeState {
        ServeState {
            swap: StoreSwap::new(initial),
            counters: Counters::default(),
            draining: AtomicBool::new(false),
            reload_requested: AtomicBool::new(false),
            reload_lock: Mutex::new(()),
            reload_path: Mutex::new(reload_path),
            last_reload_error: Mutex::new(None),
            live_conns: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            started: Instant::now(),
        }
    }

    /// Current generation counter (bumped by every successful reload).
    pub fn generation(&self) -> u64 {
        self.swap.generation()
    }

    /// Counter block (for assertions and the drain summary).
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Is the server draining?
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
    }

    /// Reload now, synchronously: load + validate `path` (or the stored
    /// reload path), then atomically swap on success. Serialized; the
    /// serving path never blocks on this. Returns the new generation.
    pub fn reload(&self, cfg: &ServeConfig, path: Option<&PathBuf>) -> Result<u64, String> {
        let _guard = self.reload_lock.lock().unwrap();
        let path = match path {
            Some(p) => p.clone(),
            None => self
                .reload_path
                .lock()
                .unwrap()
                .clone()
                .ok_or_else(|| "no reload path configured".to_string())?,
        };
        let outcome = (|| {
            let json = crate::export::read_lossy(&path)?;
            load_store_gen(&json, &path.display().to_string(), cfg.max_quarantine_frac)
        })();
        match outcome {
            Ok(gen) => {
                let (_old, new_gen) = self.swap.swap(gen);
                *self.reload_path.lock().unwrap() = Some(path);
                *self.last_reload_error.lock().unwrap() = None;
                self.counters.reloads_ok.fetch_add(1, Ordering::Relaxed);
                Ok(new_gen)
            }
            Err(e) => {
                *self.last_reload_error.lock().unwrap() = Some(e.clone());
                self.counters.reloads_failed.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }
}

/// Outcome of [`Server::shutdown`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DrainOutcome {
    /// All connections finished inside the drain deadline.
    pub clean: bool,
    /// Connections still open when the deadline expired.
    pub abandoned_conns: usize,
}

/// A running serve instance. Dropping without [`Server::shutdown`]
/// requests a drain and waits for the accept thread (test convenience);
/// the CLI calls `shutdown` explicitly for the drain summary.
pub struct Server {
    state: Arc<ServeState>,
    cfg: ServeConfig,
    local_addr: SocketAddr,
    accept_thread: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the accept loop, and return. `reload_path` is what a
    /// pathless `reload`/SIGHUP re-reads.
    pub fn start(
        cfg: ServeConfig,
        initial: StoreGen,
        reload_path: Option<PathBuf>,
    ) -> Result<Server, String> {
        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| format!("binding {}: {e}", cfg.addr))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("set_nonblocking: {e}"))?;
        let state = Arc::new(ServeState::new(initial, reload_path));
        let accept_state = Arc::clone(&state);
        let accept_cfg = cfg.clone();
        let accept_thread = thread::Builder::new()
            .name("dmsa-serve-accept".into())
            .spawn(move || accept_loop(listener, accept_state, accept_cfg))
            .map_err(|e| format!("spawning accept loop: {e}"))?;
        Ok(Server {
            state,
            cfg,
            local_addr,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves `:0` to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Shared state handle (tests read counters through this).
    pub fn state(&self) -> &Arc<ServeState> {
        &self.state
    }

    /// Begin draining: stop accepting, let in-flight requests finish.
    pub fn request_drain(&self) {
        self.state.draining.store(true, Ordering::Relaxed);
    }

    /// Latch a reload for the accept loop to perform.
    pub fn request_reload(&self) {
        self.state.reload_requested.store(true, Ordering::Relaxed);
    }

    /// Drain and wait: returns once all connections closed or the drain
    /// deadline expired (whichever first).
    pub fn shutdown(mut self) -> DrainOutcome {
        self.request_drain();
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        let deadline = Instant::now() + self.cfg.drain_deadline;
        while self.state.live_conns.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        let abandoned = self.state.live_conns.load(Ordering::Acquire);
        DrainOutcome {
            clean: abandoned == 0,
            abandoned_conns: abandoned,
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.request_drain();
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

/// Accept loop: polls for connections, signal latches, and reload
/// requests until draining. Runs on its own thread.
fn accept_loop(listener: TcpListener, state: Arc<ServeState>, cfg: ServeConfig) {
    loop {
        if cfg.watch_signals && signals::termination_requested() {
            state.draining.store(true, Ordering::Relaxed);
        }
        if state.draining.load(Ordering::Relaxed) {
            return;
        }
        if cfg.watch_signals && signals::take_reload_request() {
            state.reload_requested.store(true, Ordering::Relaxed);
        }
        if state.reload_requested.swap(false, Ordering::Relaxed) {
            // Off the serving path by construction: requests never wait
            // on this thread. Outcome lands in counters + health.
            let _ = state.reload(&cfg, None);
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                if state.live_conns.load(Ordering::Acquire) >= cfg.max_conns {
                    shed_connection(stream, &state, &cfg);
                    continue;
                }
                state.live_conns.fetch_add(1, Ordering::AcqRel);
                let conn_state = Arc::clone(&state);
                let conn_cfg = cfg.clone();
                let spawned =
                    thread::Builder::new()
                        .name("dmsa-serve-conn".into())
                        .spawn(move || {
                            handle_connection(stream, &conn_state, &conn_cfg);
                            conn_state.live_conns.fetch_sub(1, Ordering::AcqRel);
                        });
                if spawned.is_err() {
                    // Thread exhaustion is overload by another name.
                    state.live_conns.fetch_sub(1, Ordering::AcqRel);
                    state.counters.shed.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(POLL_TICK),
            Err(_) => thread::sleep(POLL_TICK),
        }
    }
}

/// Refuse a connection over the cap: one `overloaded` line, then close.
/// Best-effort — a client that won't read its refusal is simply dropped.
fn shed_connection(mut stream: TcpStream, state: &Arc<ServeState>, cfg: &ServeConfig) {
    state.counters.shed.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_write_timeout(Some(cfg.write_timeout));
    let _ = stream
        .write_all(b"{\"ok\":false,\"error\":\"overloaded\",\"detail\":\"connection limit\"}\n");
}

/// Per-connection loop: read request lines, answer each, until EOF,
/// drain, or a dead/slow client.
fn handle_connection(mut stream: TcpStream, state: &Arc<ServeState>, cfg: &ServeConfig) {
    // Short read timeout so the thread observes drain within a tick even
    // when the client is idle; write timeout guards against clients that
    // stop reading mid-reply.
    let _ = stream.set_read_timeout(Some(POLL_TICK));
    let _ = stream.set_write_timeout(Some(cfg.write_timeout));
    let _ = stream.set_nodelay(true);

    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    // True while swallowing the tail of an over-long request line (the
    // reply already went out; the line itself is unusable).
    let mut discarding = false;
    loop {
        // Serve any complete lines already buffered.
        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            if discarding {
                // The newline ends the oversized line; the connection
                // is back in sync from here.
                discarding = false;
            } else {
                let line = String::from_utf8_lossy(&buf[..pos]);
                if !line.trim().is_empty() {
                    let reply = serve_request(&line, state, cfg);
                    if !write_reply(&mut stream, &reply, state) {
                        return;
                    }
                }
            }
            buf.drain(..=pos);
        }
        if discarding {
            buf.clear(); // still mid-line: drop the partial tail
        } else if buf.len() > cfg.max_line_bytes {
            state.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
            let reply = err_reply(
                "bad_request",
                Some(&format!(
                    "request line exceeds {} bytes",
                    cfg.max_line_bytes
                )),
            );
            if !write_reply(&mut stream, &reply, state) {
                return;
            }
            buf.clear();
            discarding = true;
        }
        if state.draining.load(Ordering::Relaxed) {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // EOF
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue; // idle tick — re-check drain
            }
            Err(_) => return,
        }
    }
}

/// Write one reply line. Returns false (and counts the drop) if the
/// client is too slow or gone — the caller closes the connection; the
/// process carries on.
fn write_reply(stream: &mut TcpStream, reply: &str, state: &Arc<ServeState>) -> bool {
    let started = Instant::now();
    let written = stream.write_all(reply.as_bytes());
    add_elapsed(&state.counters.write_ns, started);
    match written {
        Ok(()) => true,
        Err(e) => {
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::BrokenPipe
            ) {
                state
                    .counters
                    .slow_client_drops
                    .fetch_add(1, Ordering::Relaxed);
            }
            false
        }
    }
}

/// Admission + panic containment around one request.
fn serve_request(line: &str, state: &Arc<ServeState>, cfg: &ServeConfig) -> Reply {
    if state.draining.load(Ordering::Relaxed) {
        return err_reply("shutting_down", None);
    }
    // Admission: take an in-flight permit or shed. The counter is the
    // entire "queue" — bounded at zero depth, so overload turns into an
    // immediate explicit refusal instead of unbounded latency.
    let admitted = state
        .inflight
        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
            (n < cfg.max_inflight).then_some(n + 1)
        })
        .is_ok();
    if !admitted {
        state.counters.shed.fetch_add(1, Ordering::Relaxed);
        return err_reply("overloaded", Some("in-flight request limit"));
    }
    let result = catch_unwind(AssertUnwindSafe(|| handle_request(line, state, cfg)));
    state.inflight.fetch_sub(1, Ordering::AcqRel);
    match result {
        Ok(reply) => reply,
        Err(_) => {
            state.counters.panics.fetch_add(1, Ordering::Relaxed);
            err_reply("internal_error", Some("request handler panicked"))
        }
    }
}

/// One reply line, newline included. Memoized replies are shared, so a
/// hit is written without a copy.
type Reply = Arc<str>;

fn reply_line(mut body: String) -> Reply {
    body.push('\n');
    Reply::from(body)
}

fn err_reply(error: &str, detail: Option<&str>) -> Reply {
    let mut o = String::from("{\"ok\":false,\"error\":");
    push_str_lit(&mut o, error);
    if let Some(d) = detail {
        o.push_str(",\"detail\":");
        push_str_lit(&mut o, d);
    }
    o.push('}');
    reply_line(o)
}

/// Why a request handler failed. The reply's `error` and the counter it
/// bumps both follow from the kind.
#[derive(Debug)]
enum ReqError {
    BadRequest(String),
    DeadlineExceeded,
    Internal(String),
    ReloadFailed(String),
}

impl ReqError {
    fn reply(&self) -> Reply {
        match self {
            ReqError::BadRequest(d) => err_reply("bad_request", Some(d)),
            ReqError::DeadlineExceeded => err_reply("deadline_exceeded", None),
            ReqError::Internal(d) => err_reply("internal_error", Some(d)),
            ReqError::ReloadFailed(d) => err_reply("reload_failed", Some(d)),
        }
    }

    /// The counter this failure bumps, if any (a failed reload is counted
    /// by [`ServeState::reload`]).
    fn counter<'c>(&self, c: &'c Counters) -> Option<&'c AtomicU64> {
        match self {
            ReqError::BadRequest(_) => Some(&c.bad_requests),
            ReqError::DeadlineExceeded => Some(&c.deadline_exceeded),
            ReqError::Internal(_) | ReqError::ReloadFailed(_) => None,
        }
    }
}

/// Run one request and count its outcome. Runs inside the permit +
/// catch_unwind.
fn handle_request(line: &str, state: &Arc<ServeState>, cfg: &ServeConfig) -> Reply {
    let c = &state.counters;
    match dispatch(line, state, cfg) {
        Ok(reply) => {
            c.served.fetch_add(1, Ordering::Relaxed);
            reply
        }
        Err(e) => {
            if let Some(n) = e.counter(c) {
                n.fetch_add(1, Ordering::Relaxed);
            }
            e.reply()
        }
    }
}

/// Parse one request and answer it.
fn dispatch(line: &str, state: &Arc<ServeState>, cfg: &ServeConfig) -> Result<Reply, ReqError> {
    let started = Instant::now();
    let req = json::parse(line);
    add_elapsed(&state.counters.parse_ns, started);
    let req = req.map_err(|e| ReqError::BadRequest(format!("parse: {e}")))?;
    let cmd = req
        .get("cmd")
        .and_then(|c| c.as_str())
        .ok_or_else(|| ReqError::BadRequest("missing \"cmd\"".into()))?;
    let deadline = Instant::now() + cfg.deadline;
    match cmd {
        "health" => Ok(reply_line(health_reply(state))),
        "match" => answer(&req, false, state, deadline),
        "analyze" => answer(&req, true, state, deadline),
        "reload" => {
            let path = req.get("path").and_then(|p| p.as_str()).map(PathBuf::from);
            let generation = state
                .reload(cfg, path.as_ref())
                .map_err(ReqError::ReloadFailed)?;
            Ok(reply_line(format!(
                "{{\"ok\":true,\"cmd\":\"reload\",\"generation\":{generation}}}"
            )))
        }
        "shutdown" => {
            state.draining.store(true, Ordering::Relaxed);
            Ok(reply_line(
                "{\"ok\":true,\"cmd\":\"shutdown\",\"draining\":true}".to_string(),
            ))
        }
        "debug_panic" if cfg.debug_commands => {
            panic!("injected panic (debug_panic)");
        }
        "debug_sleep" if cfg.debug_commands => {
            let ms = req.get("ms").and_then(|m| m.as_u64()).unwrap_or(100);
            let until = Instant::now() + Duration::from_millis(ms);
            // Sleep in slices so the deadline still cancels us.
            loop {
                let now = Instant::now();
                if now >= until {
                    break Ok(reply_line(
                        "{\"ok\":true,\"cmd\":\"debug_sleep\"}".to_string(),
                    ));
                }
                if now >= deadline {
                    break Err(ReqError::DeadlineExceeded);
                }
                thread::sleep(POLL_TICK.min(until - now));
            }
        }
        other => Err(ReqError::BadRequest(format!("unknown cmd {other:?}"))),
    }
}

/// A `match` or `analyze` reply from the current generation's memo, or
/// computed, memoized and checked against the deadline on a miss.
fn answer(
    req: &json::Json,
    analyze: bool,
    state: &Arc<ServeState>,
    deadline: Instant,
) -> Result<Reply, ReqError> {
    let key = MemoKey::of(req, analyze);
    // Pin a generation for the whole request: a reload mid-request swaps
    // the slot but this Arc keeps the old store and its memo alive.
    let (gen, _) = state.swap.load();
    if let Some(reply) = gen.memo.get(&key) {
        return Ok(reply);
    }
    let started = Instant::now();
    let body = if analyze {
        render_analyze(&key, &gen)?
    } else {
        render_match(&key, &gen)?
    };
    let reply = reply_line(body);
    add_elapsed(&state.counters.compute_ns, started);
    gen.memo.insert(key, &reply);
    if Instant::now() > deadline {
        return Err(ReqError::DeadlineExceeded);
    }
    Ok(reply)
}

fn render_match(key: &MemoKey, gen: &StoreGen) -> Result<String, ReqError> {
    let method = key.method.as_deref().unwrap_or("rm2");
    let set = gen.match_set(method)?;
    let mut o = String::from("{\"ok\":true,\"cmd\":\"match\",\"method\":");
    push_str_lit(&mut o, method);
    o.push_str(&format!(
        ",\"matched_jobs\":{},\"matched_transfers\":{}",
        set.n_matched_jobs(),
        set.n_matched_transfers()
    ));
    if key.full {
        o.push_str(",\"set\":");
        o.push_str(&matchset_to_json(&set));
    }
    o.push('}');
    Ok(o)
}

fn render_analyze(key: &MemoKey, gen: &StoreGen) -> Result<String, ReqError> {
    let report = key
        .report
        .as_deref()
        .ok_or_else(|| ReqError::BadRequest("missing \"report\"".into()))?;
    if !dmsa_analysis::render::REPORT_NAMES.contains(&report) {
        return Err(ReqError::BadRequest(format!(
            "unknown report {report:?} ({})",
            dmsa_analysis::render::REPORT_NAMES.join("|")
        )));
    }
    // Optional "method": the summary report then carries its
    // overlap/activity tables, as the CLI does with a --matches file.
    let matches = key
        .method
        .as_deref()
        .map(|m| gen.match_set(m))
        .transpose()?;
    let inputs = dmsa_analysis::render::ReportInputs {
        store: gen.shared.store(),
        window: gen.window,
        path_stats: gen.path_stats,
        health: gen.health.as_ref(),
    };
    let text =
        dmsa_analysis::render::render_report_string(&inputs, report, matches.as_deref(), None)
            .map_err(ReqError::Internal)?;
    let mut o = String::from("{\"ok\":true,\"cmd\":\"analyze\",\"report\":");
    push_str_lit(&mut o, report);
    o.push_str(",\"text\":");
    push_str_lit(&mut o, &text);
    o.push('}');
    Ok(o)
}

/// Render the `health` reply: generation, store shape, the generation's
/// memo, counters, time sums, reload history. The only reply that
/// carries the generation, by design.
fn health_reply(state: &Arc<ServeState>) -> String {
    let (gen, generation) = state.swap.load();
    let (jobs, files, transfers, _) = gen.shared.store().counts();
    let c = &state.counters;
    let mut o = String::with_capacity(512);
    o.push_str("{\"ok\":true,\"cmd\":\"health\"");
    o.push_str(&format!(",\"generation\":{generation}"));
    o.push_str(&format!(
        ",\"uptime_ms\":{}",
        state.started.elapsed().as_millis()
    ));
    o.push_str(&format!(
        ",\"draining\":{}",
        state.draining.load(Ordering::Relaxed)
    ));
    o.push_str(",\"store\":{");
    o.push_str(&format!(
        "\"jobs\":{jobs},\"files\":{files},\"transfers\":{transfers}"
    ));
    o.push_str(&format!(",\"quarantined\":{}", gen.quarantined));
    o.push_str(&format!(
        ",\"window_ms\":[{},{}]",
        gen.window.start.as_millis(),
        gen.window.end.as_millis()
    ));
    o.push_str(",\"source\":");
    push_str_lit(&mut o, &gen.source);
    let (entries, bytes) = gen.memo.size();
    o.push_str(&format!(
        "}},\"memo\":{{\"hits\":{},\"misses\":{},\"entries\":{entries},\"bytes\":{bytes}}}",
        gen.memo.hits.load(Ordering::Relaxed),
        gen.memo.misses.load(Ordering::Relaxed),
    ));
    o.push_str(",\"counters\":{");
    let pairs: [(&str, u64); 8] = [
        ("served", c.served.load(Ordering::Relaxed)),
        ("shed", c.shed.load(Ordering::Relaxed)),
        ("bad_requests", c.bad_requests.load(Ordering::Relaxed)),
        ("panics", c.panics.load(Ordering::Relaxed)),
        (
            "deadline_exceeded",
            c.deadline_exceeded.load(Ordering::Relaxed),
        ),
        (
            "slow_client_drops",
            c.slow_client_drops.load(Ordering::Relaxed),
        ),
        ("reloads_ok", c.reloads_ok.load(Ordering::Relaxed)),
        ("reloads_failed", c.reloads_failed.load(Ordering::Relaxed)),
    ];
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str(&format!("\"{k}\":{v}"));
    }
    o.push_str(&format!(
        "}},\"time_ns\":{{\"parse\":{},\"compute\":{},\"write\":{}}}",
        c.parse_ns.load(Ordering::Relaxed),
        c.compute_ns.load(Ordering::Relaxed),
        c.write_ns.load(Ordering::Relaxed),
    ));
    o.push_str(",\"reload\":{\"last_error\":");
    match &*state.last_reload_error.lock().unwrap() {
        Some(e) => push_str_lit(&mut o, e),
        None => o.push_str("null"),
    }
    o.push_str("}}");
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;
    use std::io::BufReader;

    fn tiny_export_json() -> String {
        tiny_export_json_seeded(dmsa_scenario::ScenarioConfig::small().seed)
    }

    fn tiny_export_json_seeded(seed: u64) -> String {
        let mut c = dmsa_scenario::ScenarioConfig::small();
        c.seed = seed;
        c.duration = dmsa_simcore::SimDuration::from_hours(3);
        c.workload.tasks_per_hour = 10.0;
        c.background_transfers_per_hour = 50.0;
        c.initial_datasets = 20;
        let campaign = dmsa_scenario::run(&c);
        CampaignExport::from_campaign(&campaign).to_json()
    }

    fn test_gen(json: &str) -> StoreGen {
        load_store_gen(json, "<test>", 0.01).expect("tiny export loads")
    }

    fn test_server(cfg: ServeConfig) -> (Server, String) {
        let json = tiny_export_json();
        let server = Server::start(cfg, test_gen(&json), None).expect("server starts");
        (server, json)
    }

    struct Client {
        stream: TcpStream,
        reader: BufReader<TcpStream>,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Client {
            let stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(20)))
                .unwrap();
            let reader = BufReader::new(stream.try_clone().unwrap());
            Client { stream, reader }
        }

        fn send(&mut self, line: &str) {
            self.stream.write_all(line.as_bytes()).unwrap();
            self.stream.write_all(b"\n").unwrap();
        }

        fn recv(&mut self) -> String {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("read reply");
            line.trim_end().to_string()
        }

        fn round_trip(&mut self, line: &str) -> String {
            self.send(line);
            self.recv()
        }

        /// The `memo` object of a `health` reply.
        fn memo(&mut self) -> json::Json {
            let health = json::parse(&self.round_trip("{\"cmd\":\"health\"}")).unwrap();
            health.get("memo").expect("health carries memo").clone()
        }
    }

    fn num(j: &json::Json, key: &str) -> u64 {
        j.get(key).and_then(|v| v.as_u64()).expect(key)
    }

    /// The reply to a `match`/`analyze` line, computed offline from the
    /// export through the CLI's own matcher and renderer.
    fn offline_reply(export: &CampaignExport, line: &str) -> String {
        let req = json::parse(line).unwrap();
        let field = |k| req.get(k).and_then(|v| v.as_str());
        let prepared = dmsa_core::PreparedStore::build(&export.store);
        let set = |m: &str| {
            let method = match MatcherChoice::parse(m).unwrap() {
                MatcherChoice::Exact => MatchMethod::Exact,
                MatcherChoice::Rm1 => MatchMethod::Rm1,
                MatcherChoice::Rm2 => MatchMethod::Rm2,
                MatcherChoice::Scored(t) => {
                    let scored = ScoredMatcher::default();
                    return scored.match_jobs_scored(&export.store, export.window, t);
                }
            };
            prepared.match_window(export.window, method)
        };
        let mut o = String::new();
        if field("cmd") == Some("match") {
            let method = field("method").unwrap_or("rm2");
            let set = set(method);
            o.push_str("{\"ok\":true,\"cmd\":\"match\",\"method\":");
            push_str_lit(&mut o, method);
            o.push_str(&format!(
                ",\"matched_jobs\":{},\"matched_transfers\":{}",
                set.n_matched_jobs(),
                set.n_matched_transfers()
            ));
            if req.get("full").and_then(|f| f.as_bool()) == Some(true) {
                o.push_str(",\"set\":");
                o.push_str(&matchset_to_json(&set));
            }
        } else {
            let report = field("report").unwrap();
            let inputs = dmsa_analysis::render::ReportInputs {
                store: &export.store,
                window: export.window,
                path_stats: export.path_stats,
                health: export.health.as_ref(),
            };
            let matches = field("method").map(set);
            let text = dmsa_analysis::render::render_report_string(
                &inputs,
                report,
                matches.as_ref(),
                None,
            )
            .unwrap();
            o.push_str("{\"ok\":true,\"cmd\":\"analyze\",\"report\":");
            push_str_lit(&mut o, report);
            o.push_str(",\"text\":");
            push_str_lit(&mut o, &text);
        }
        o.push('}');
        o
    }

    #[test]
    fn health_match_analyze_round_trip() {
        let (server, _) = test_server(ServeConfig::default());
        let mut c = Client::connect(server.local_addr());

        let health = c.round_trip("{\"cmd\":\"health\"}");
        assert!(health.contains("\"ok\":true"), "{health}");
        assert!(health.contains("\"generation\":1"), "{health}");

        let m = c.round_trip("{\"cmd\":\"match\",\"method\":\"rm2\"}");
        assert!(m.contains("\"ok\":true"), "{m}");
        assert!(m.contains("\"matched_jobs\":"), "{m}");

        for report in dmsa_analysis::render::REPORT_NAMES {
            let a = c.round_trip(&format!("{{\"cmd\":\"analyze\",\"report\":\"{report}\"}}"));
            assert!(a.contains("\"ok\":true"), "report {report}: {a}");
        }

        let bad = c.round_trip("{\"cmd\":\"analyze\",\"report\":\"pie\"}");
        assert!(bad.contains("\"bad_request\""), "{bad}");
        let garbage = c.round_trip("not json");
        assert!(garbage.contains("\"bad_request\""), "{garbage}");

        let out = server.shutdown();
        assert!(out.clean, "drain left {} conns", out.abandoned_conns);
    }

    #[test]
    fn oversized_request_line_gets_a_reply_and_keeps_the_connection() {
        let cfg = ServeConfig {
            max_line_bytes: 256,
            ..ServeConfig::default()
        };
        let (server, _) = test_server(cfg);
        let mut c = Client::connect(server.local_addr());

        // 4 KiB of garbage on one line (larger than the server's read
        // chunk, so it cannot sneak through as a normal parse error):
        // structured refusal, not a hangup, not unbounded buffering.
        let huge = "x".repeat(4096);
        let reply = c.round_trip(&huge);
        assert!(reply.contains("\"bad_request\""), "{reply}");
        assert!(reply.contains("exceeds 256 bytes"), "{reply}");

        // The same connection still serves the next request.
        let health = c.round_trip("{\"cmd\":\"health\"}");
        assert!(health.contains("\"ok\":true"), "{health}");
        let out = server.shutdown();
        assert!(out.clean, "drain left {} conns", out.abandoned_conns);
    }

    #[test]
    fn deeply_nested_request_line_is_a_bad_request() {
        let (server, _) = test_server(ServeConfig::default());
        let mut c = Client::connect(server.local_addr());
        // Under the line cap, far past the nesting bound: without the
        // bound this overflowed the connection thread's stack and
        // aborted the process.
        let reply = c.round_trip(&"[".repeat(500_000));
        assert!(reply.contains("\"bad_request\""), "{reply}");
        assert!(reply.contains("nesting"), "{reply}");
        let health = c.round_trip("{\"cmd\":\"health\"}");
        assert!(health.contains("\"ok\":true"), "{health}");
        assert!(health.contains("\"bad_requests\":1"), "{health}");
        drop(server);
    }

    #[test]
    fn repeated_match_is_a_memo_hit() {
        let (server, _) = test_server(ServeConfig::default());
        let mut c = Client::connect(server.local_addr());
        let first = c.round_trip("{\"cmd\":\"match\",\"method\":\"rm1\"}");
        let memo = c.memo();
        assert_eq!((num(&memo, "hits"), num(&memo, "misses")), (0, 1));
        assert_eq!(num(&memo, "entries"), 1);
        assert_eq!(num(&memo, "bytes") as usize, first.len() + 1);

        let second = c.round_trip("{\"cmd\":\"match\",\"method\":\"rm1\"}");
        assert_eq!(first, second);
        let memo = c.memo();
        assert_eq!((num(&memo, "hits"), num(&memo, "misses")), (1, 1));
        // A field the reply depends on is a different key; errors and
        // health are never memoized.
        let full = c.round_trip("{\"cmd\":\"match\",\"method\":\"rm1\",\"full\":true}");
        assert_ne!(first, full);
        let bad = c.round_trip("{\"cmd\":\"match\",\"method\":\"rm9\"}");
        assert!(bad.contains("\"bad_request\""), "{bad}");
        let memo = c.memo();
        assert_eq!((num(&memo, "hits"), num(&memo, "misses")), (1, 3));
        assert_eq!(num(&memo, "entries"), 2);
        drop(server);
    }

    #[test]
    fn replies_equal_the_offline_reply_of_the_serving_generation() {
        let dir = std::env::temp_dir().join(format!("dmsa-serve-gens-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let exports = [tiny_export_json_seeded(11), tiny_export_json_seeded(12)];
        let paths = [dir.join("a.json"), dir.join("b.json")];
        for (path, json) in paths.iter().zip(&exports) {
            std::fs::write(path, json).unwrap();
        }
        let mut lines = Vec::new();
        for method in ["exact", "rm1", "rm2", "scored:0.6"] {
            for full in [false, true] {
                lines.push(format!(
                    "{{\"cmd\":\"match\",\"method\":\"{method}\",\"full\":{full}}}"
                ));
            }
        }
        lines.push("{\"cmd\":\"match\"}".to_string());
        for report in dmsa_analysis::render::REPORT_NAMES {
            lines.push(format!("{{\"cmd\":\"analyze\",\"report\":\"{report}\"}}"));
        }
        lines.push("{\"cmd\":\"analyze\",\"report\":\"summary\",\"method\":\"rm2\"}".into());
        lines.push("{\"cmd\":\"analyze\",\"report\":\"summary\",\"method\":\"scored:0.6\"}".into());
        let offline: Vec<Vec<String>> = exports
            .iter()
            .map(|json| {
                let export = CampaignExport::from_json(json).unwrap();
                lines.iter().map(|l| offline_reply(&export, l)).collect()
            })
            .collect();
        assert_ne!(offline[0], offline[1], "the two exports must differ");

        let server = Server::start(ServeConfig::default(), test_gen(&exports[0]), None).unwrap();
        let mut c = Client::connect(server.local_addr());
        for (round, g) in [0, 1, 0, 1].into_iter().enumerate() {
            if round > 0 {
                let mut req = String::from("{\"cmd\":\"reload\",\"path\":");
                push_str_lit(&mut req, &paths[g].display().to_string());
                req.push('}');
                let reply = c.round_trip(&req);
                assert!(reply.contains("\"ok\":true"), "{reply}");
            }
            // Twice each: the first is a miss, the second a hit.
            for _ in 0..2 {
                for (line, want) in lines.iter().zip(&offline[g]) {
                    assert_eq!(&c.round_trip(line), want, "round {round}: {line}");
                }
            }
            let memo = c.memo();
            assert_eq!(num(&memo, "misses") as usize, lines.len(), "round {round}");
            assert_eq!(num(&memo, "hits") as usize, lines.len(), "round {round}");
        }
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memo_stays_within_its_cap() {
        let (server, json) = test_server(ServeConfig::default());
        let export = CampaignExport::from_json(&json).unwrap();
        let mut c = Client::connect(server.local_addr());
        let lines: Vec<String> = (0..MEMO_MAX_ENTRIES + 8)
            .map(|i| format!("{{\"cmd\":\"match\",\"method\":\"scored:0.{i:03}\"}}"))
            .collect();
        for line in &lines {
            assert_eq!(c.round_trip(line), offline_reply(&export, line), "{line}");
        }
        let memo = c.memo();
        assert_eq!(num(&memo, "entries") as usize, MEMO_MAX_ENTRIES);
        // Past the cap, replies are computed each time, and still right.
        let last = lines.last().unwrap();
        assert_eq!(c.round_trip(last), offline_reply(&export, last));
        let memo = c.memo();
        assert_eq!(num(&memo, "entries") as usize, MEMO_MAX_ENTRIES);
        assert_eq!(num(&memo, "hits"), 0);
        assert_eq!(num(&memo, "misses") as usize, lines.len() + 1);
        assert!(num(&memo, "bytes") as usize <= MEMO_MAX_BYTES);
        drop(server);
    }

    #[test]
    fn match_replies_agree_with_offline_matcher() {
        let (server, json) = test_server(ServeConfig::default());
        let export = CampaignExport::from_json(&json).unwrap();
        let prepared = dmsa_core::PreparedStore::build(&export.store);
        let offline = matchset_to_json(&prepared.match_window(export.window, MatchMethod::Rm2));

        let mut c = Client::connect(server.local_addr());
        let reply = c.round_trip("{\"cmd\":\"match\",\"method\":\"rm2\",\"full\":true}");
        let parsed = json::parse(&reply).expect("reply parses");
        assert_eq!(parsed.get("ok").and_then(|o| o.as_bool()), Some(true));
        // The served set serializes byte-identically to the offline path.
        let set_start = reply.find("\"set\":").expect("full reply carries set") + 6;
        let served = &reply[set_start..reply.len() - 1];
        assert_eq!(served, offline);
        drop(server);
    }

    #[test]
    fn overload_sheds_with_explicit_reply() {
        let cfg = ServeConfig {
            max_inflight: 1,
            debug_commands: true,
            ..ServeConfig::default()
        };
        let (server, _) = test_server(cfg);
        let addr = server.local_addr();

        let mut slow = Client::connect(addr);
        slow.send("{\"cmd\":\"debug_sleep\",\"ms\":1500}");
        // Give the sleeper time to take the only permit.
        thread::sleep(Duration::from_millis(300));

        let mut probe = Client::connect(addr);
        let reply = probe.round_trip("{\"cmd\":\"health\"}");
        assert!(
            reply.contains("\"error\":\"overloaded\""),
            "expected shed, got {reply}"
        );
        assert!(server.state().counters().shed.load(Ordering::Relaxed) >= 1);

        // The sleeper finishes; capacity returns.
        let done = slow.recv();
        assert!(done.contains("\"ok\":true"), "{done}");
        let after = probe.round_trip("{\"cmd\":\"health\"}");
        assert!(after.contains("\"ok\":true"), "{after}");
        drop(server);
    }

    #[test]
    fn panicking_request_is_contained() {
        let cfg = ServeConfig {
            debug_commands: true,
            ..ServeConfig::default()
        };
        let (server, _) = test_server(cfg);
        let mut c = Client::connect(server.local_addr());

        let reply = c.round_trip("{\"cmd\":\"debug_panic\"}");
        assert!(reply.contains("\"internal_error\""), "{reply}");
        assert_eq!(server.state().counters().panics.load(Ordering::Relaxed), 1);

        // Same connection still serves; the process obviously survived.
        let health = c.round_trip("{\"cmd\":\"health\"}");
        assert!(health.contains("\"ok\":true"), "{health}");
        assert!(health.contains("\"panics\":1"), "{health}");
        drop(server);
    }

    #[test]
    fn deadline_cancels_slow_requests() {
        let cfg = ServeConfig {
            deadline: Duration::from_millis(100),
            debug_commands: true,
            ..ServeConfig::default()
        };
        let (server, _) = test_server(cfg);
        let mut c = Client::connect(server.local_addr());
        let reply = c.round_trip("{\"cmd\":\"debug_sleep\",\"ms\":5000}");
        assert!(reply.contains("\"deadline_exceeded\""), "{reply}");
        assert!(
            server
                .state()
                .counters()
                .deadline_exceeded
                .load(Ordering::Relaxed)
                >= 1
        );
        drop(server);
    }

    #[test]
    fn failed_reload_rolls_back_and_reports() {
        let dir = std::env::temp_dir().join(format!("dmsa-serve-reload-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let corrupt = dir.join("corrupt.json");
        std::fs::write(&corrupt, "{\"version\":999,\"nope\":").unwrap();

        let (server, _) = test_server(ServeConfig::default());
        let mut c = Client::connect(server.local_addr());
        let before = c.round_trip("{\"cmd\":\"match\",\"method\":\"rm1\",\"full\":true}");

        let reply = c.round_trip(&format!("{{\"cmd\":\"reload\",\"path\":{}}}", {
            let mut p = String::new();
            push_str_lit(&mut p, &corrupt.display().to_string());
            p
        }));
        assert!(reply.contains("\"reload_failed\""), "{reply}");

        // Old generation still serving, byte-identically.
        let health = c.round_trip("{\"cmd\":\"health\"}");
        assert!(health.contains("\"generation\":1"), "{health}");
        assert!(health.contains("\"reloads_failed\":1"), "{health}");
        assert!(health.contains("\"last_error\":\""), "{health}");
        let after = c.round_trip("{\"cmd\":\"match\",\"method\":\"rm1\",\"full\":true}");
        assert_eq!(before, after);
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn successful_reload_bumps_generation_and_swaps_store() {
        let dir = std::env::temp_dir().join(format!("dmsa-serve-swap-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let json = tiny_export_json();
        let path = dir.join("campaign.json");
        std::fs::write(&path, &json).unwrap();

        let server =
            Server::start(ServeConfig::default(), test_gen(&json), Some(path.clone())).unwrap();
        let mut c = Client::connect(server.local_addr());

        // Pathless reload re-reads the configured path.
        let reply = c.round_trip("{\"cmd\":\"reload\"}");
        assert!(reply.contains("\"generation\":2"), "{reply}");
        let health = c.round_trip("{\"cmd\":\"health\"}");
        assert!(health.contains("\"generation\":2"), "{health}");
        assert!(health.contains("\"reloads_ok\":1"), "{health}");

        // Same content → match replies identical across the swap.
        let a = c.round_trip("{\"cmd\":\"match\",\"method\":\"exact\",\"full\":true}");
        let _ = c.round_trip("{\"cmd\":\"reload\"}");
        let b = c.round_trip("{\"cmd\":\"match\",\"method\":\"exact\",\"full\":true}");
        assert_eq!(a, b, "reload of identical content changed replies");
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reload_quarantines_an_invalid_utf8_byte_like_the_initial_load() {
        let dir = std::env::temp_dir().join(format!("dmsa-serve-lossy-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let json = tiny_export_json();
        // One byte of one job's enum string is no longer UTF-8.
        let mut bytes = json.clone().into_bytes();
        let at = bytes
            .windows(12)
            .position(|w| w == b"\"stage_in\",\"")
            .expect("a stage_in job");
        bytes[at + 2] = 0xFF;
        let path = dir.join("campaign.json");
        std::fs::write(&path, &bytes).unwrap();

        let server =
            Server::start(ServeConfig::default(), test_gen(&json), Some(path.clone())).unwrap();
        let mut c = Client::connect(server.local_addr());
        let reply = c.round_trip("{\"cmd\":\"reload\"}");
        assert!(reply.contains("\"generation\":2"), "{reply}");
        let health = c.round_trip("{\"cmd\":\"health\"}");
        assert!(health.contains("\"reloads_ok\":1"), "{health}");
        assert!(health.contains("\"quarantined\":1"), "{health}");
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_drains_and_refuses_new_work() {
        let (server, _) = test_server(ServeConfig::default());
        let addr = server.local_addr();
        let mut c = Client::connect(addr);
        assert!(c.round_trip("{\"cmd\":\"health\"}").contains("\"ok\":true"));

        let reply = c.round_trip("{\"cmd\":\"shutdown\"}");
        assert!(reply.contains("\"draining\":true"), "{reply}");
        let out = server.shutdown();
        assert!(out.clean, "{} conns abandoned", out.abandoned_conns);
        // Accept loop is gone: new connections are refused or dead.
        thread::sleep(Duration::from_millis(50));
        match TcpStream::connect(addr) {
            Err(_) => {}
            Ok(mut s) => {
                let _ = s.write_all(b"{\"cmd\":\"health\"}\n");
                let mut buf = [0u8; 64];
                let _ = s.set_read_timeout(Some(Duration::from_millis(500)));
                let n = s.read(&mut buf).unwrap_or(0);
                assert_eq!(n, 0, "drained server must not serve new connections");
            }
        }
    }

    #[test]
    fn quarantine_threshold_refuses_mostly_corrupt_exports() {
        let json = tiny_export_json();
        // A valid export loads at any threshold.
        assert!(load_store_gen(&json, "<t>", 0.0).is_ok());
        // Garbage is refused with a loader error, not a panic.
        let err = load_store_gen("{\"version\":1", "<t>", 0.5)
            .err()
            .expect("garbage must be refused");
        assert!(!err.is_empty());
    }
}
