//! `serve_socket`: an open-loop mixed load over one pipelined TCP
//! connection to the `serve()` daemon, backed by a two-worker
//! `Service`.
//!
//! Requests go out on a seeded Poisson schedule at each rate of a fixed
//! ladder; the first two rungs are called `low` and `mid`. Every
//! request is encoded when it is sent and timed from the moment it was
//! due, so a stalled generator or connection charges its wait to every
//! request behind it. A rung passes when its p99 latency meets the
//! limit and its backlog does not grow; the highest passing rate is the
//! workload's throughput.
//!
//! The mix follows the repository's mixed serve load
//! (`crates/bench/benches/serve.rs`, `mixed_load`): SEB operating
//! points and SEB capabilities, both with the loop heat pipe, FV-plate
//! and board steady solves at fresh source scales (which coalesce), and
//! FEM modal analyses, in equal shares, plus a small share of short
//! flight transients. A stated share of requests repeat a recent
//! request exactly, so they can be answered from the result cache.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use aeropack_serve::wire::{
    decode_request_line, decode_response_line, encode_request_line, encode_response,
    encode_response_line, WireRequest, WireResponse,
};
use aeropack_serve::{
    serve, AnalysisRequest, BoardSpec, Client, CoolingModeSpec, Daemon, FemPlateSpec, MaterialKind,
    MissionSpec, PlateSpec, Priority, SchemeKind, SeatKind, SebSpec, ServeConfig, Service,
    ServiceStats, TransientSpec, Workload, Workspace,
};
use aeropack_units::SplitMix64;

use crate::schedule::{max_passing_rate, poisson_offsets, Deck, RungOutcome};
use crate::stats::{percentile, sorted, Summary};
use crate::trace::{SpanId, Tracer};
use crate::{Metric, Outcome};

/// Offered rates of the ladder, requests per second, in the order they
/// are run. The first is `low`, the second `mid` (about a third of the
/// ~320 requests/s the mix sustains on two vCPUs); the rest step
/// through the knee in 6–12 % steps.
const LADDER: [f64; 13] = [
    25.0, 100.0, 240.0, 260.0, 280.0, 300.0, 320.0, 340.0, 370.0, 400.0, 430.0, 470.0, 520.0,
];
/// Share of the run's seconds each rung lasts: most of it on `mid`,
/// whose latencies are reported, the rest spread evenly over the rungs
/// above it.
const RUNG_SHARE: [f64; 13] = [
    0.10, 0.25, 0.059, 0.059, 0.059, 0.059, 0.059, 0.059, 0.059, 0.059, 0.059, 0.059, 0.060,
];
/// A reply later than this after its due time is a miss.
const TIMEOUT: Duration = Duration::from_secs(5);
/// Requests per 100 that repeat a recent request exactly: the share of
/// cache lookups the repository's mixed serve load answered from the
/// cache at one worker (`BENCH_serve.json`: 700 of 1900, 37 %).
const REPEATS_PER_100: usize = 37;
/// How many recent distinct requests a repeat draws from: the longest
/// parameter cycle of the repository's mixed serve load.
const REPEAT_WINDOW: usize = 60;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// FV and board answers re-run in process for the check, per kind.
const DIRECT_SAMPLES: usize = 6;

/// The request kinds of the mix, with their cards in a deck of 21
/// fresh requests: the five kinds of the repository's mixed serve load
/// in equal shares (4/21 ≈ 19 % each) and short transients (1/21 ≈ 5 %).
const KINDS: [(&str, usize); 6] = [
    ("seb_operating_point", 4),
    ("seb_capability", 4),
    ("fv_steady", 4),
    ("board_steady", 4),
    ("fem_modal", 4),
    ("transient", 1),
];

/// The SEB of the repository's mixed serve load: aluminium seat, loop
/// heat pipe on.
fn seb_spec() -> SebSpec {
    SebSpec {
        seat: SeatKind::Aluminum,
        lhp: true,
        tilt_deg: 0.0,
        ambient_c: 25.0,
    }
}

fn plate_spec() -> PlateSpec {
    PlateSpec {
        lx_m: 0.16,
        ly_m: 0.1,
        thickness_m: 0.0016,
        nx: 16,
        ny: 10,
        material: MaterialKind::Fr4,
        power_w: 15.0,
        h_w_m2k: 40.0,
        ambient_c: 40.0,
    }
}

fn board_spec() -> BoardSpec {
    BoardSpec {
        power_w: 25.0,
        mode: CoolingModeSpec::ForcedAir {
            flow_multiplier: 1.0,
        },
        ambient_c: 40.0,
        resolution_mm: 10.0,
    }
}

fn fem_spec(smeared_mass_kg_m2: f64) -> FemPlateSpec {
    FemPlateSpec {
        lx_m: 0.16,
        ly_m: 0.1,
        nx: 6,
        ny: 4,
        thickness_mm: 1.6,
        smeared_mass_kg_m2,
        material: MaterialKind::Fr4,
    }
}

/// A short fixed-step flight of a small plate: 20 steps of 60 s.
fn transient_spec(power_w: f64) -> TransientSpec {
    TransientSpec {
        plate: PlateSpec {
            nx: 8,
            ny: 5,
            power_w,
            ..plate_spec()
        },
        mission: MissionSpec::ClimbCruiseDescent {
            cruise_altitude_m: 9000.0,
            climb_s: 300.0,
            cruise_s: 600.0,
            descent_s: 300.0,
        },
        scheme: SchemeKind::BackwardEuler,
        fixed_dt_s: Some(60.0),
        initial_c: 40.0,
    }
}

/// A request of kind `kind` with fresh parameters drawn from `rng`, over
/// the parameter ranges of the repository's mixed serve load (the FEM
/// smeared mass, fixed at 4.5 kg/m² there, varies around it so that a
/// fresh modal request is a new one).
fn fresh(kind: usize, rng: &mut SplitMix64) -> AnalysisRequest {
    let u = rng.next_f64();
    match KINDS[kind].0 {
        "seb_operating_point" => AnalysisRequest::SebOperatingPoint {
            spec: seb_spec(),
            power_w: 20.0 + 60.0 * u,
        },
        "seb_capability" => AnalysisRequest::SebCapability {
            spec: seb_spec(),
            dt_limit_k: 20.0 + 25.0 * u,
        },
        "fv_steady" => AnalysisRequest::FvSteady {
            spec: plate_spec(),
            scale: 0.5 + 0.6 * u,
        },
        "board_steady" => AnalysisRequest::BoardSteady {
            spec: board_spec(),
            scale: 0.5 + 0.4 * u,
        },
        "fem_modal" => AnalysisRequest::FemModal {
            spec: fem_spec(3.0 + 3.0 * u),
            n_modes: 3 + (rng.next_u64() % 3) as usize,
        },
        _ => AnalysisRequest::Transient {
            spec: transient_spec(10.0 + 10.0 * u),
        },
    }
}

/// The seeded request stream. Whether a request repeats, and the kind
/// of a fresh one, are dealt from shuffled decks (as the repository's
/// mixed load cycles its kinds), so every stretch of the stream holds
/// each kind and the repeats in their shares and a rung's cost does not
/// hinge on how the draws clustered.
struct Mix {
    rng: SplitMix64,
    repeats: Deck<bool>,
    kinds: Deck<usize>,
    recent: Vec<AnalysisRequest>,
}

impl Mix {
    fn new(seed: u64) -> Self {
        let repeats = (0..100).map(|i| i < REPEATS_PER_100).collect();
        let kinds = (0..KINDS.len())
            .flat_map(|k| std::iter::repeat_n(k, KINDS[k].1))
            .collect();
        Self {
            rng: SplitMix64::new(seed ^ 0x5e7e_5e7e),
            repeats: Deck::new(repeats),
            kinds: Deck::new(kinds),
            recent: Vec::new(),
        }
    }

    fn next(&mut self) -> AnalysisRequest {
        if self.repeats.deal(&mut self.rng) && !self.recent.is_empty() {
            let i = (self.rng.next_u64() % self.recent.len() as u64) as usize;
            return self.recent[i].clone();
        }
        let kind = self.kinds.deal(&mut self.rng);
        let req = fresh(kind, &mut self.rng);
        if self.recent.len() == REPEAT_WINDOW {
            self.recent.remove(0);
        }
        self.recent.push(req.clone());
        req
    }
}

/// The response variant each request kind must be answered with.
fn expected_tag(req: &AnalysisRequest) -> &'static str {
    match req {
        AnalysisRequest::SebOperatingPoint { .. } => "operating_point",
        AnalysisRequest::SebCapability { .. } => "capability",
        AnalysisRequest::FvSteady { .. } | AnalysisRequest::BoardSteady { .. } => "field",
        AnalysisRequest::FemModal { .. } => "modal",
        AnalysisRequest::Transient { .. } => "transient",
        _ => "",
    }
}

/// One generated request of a rung.
struct Planned {
    id: u64,
    request: AnalysisRequest,
    due: Duration,
}

impl Planned {
    fn wire(&self) -> WireRequest {
        WireRequest {
            id: self.id,
            priority: Priority::Normal,
            deadline_ms: None,
            request: self.request.clone(),
        }
    }

    /// The request as one line of the wire protocol.
    fn line(&self) -> String {
        let mut line = encode_request_line(&self.wire());
        line.push('\n');
        line
    }
}

/// Plans one rung: `count` requests at `rate`, ids from `first_id`.
fn plan_rung(
    mix: &mut Mix,
    arrivals: &mut SplitMix64,
    rate: f64,
    count: usize,
    first_id: u64,
) -> Vec<Planned> {
    poisson_offsets(rate, count, arrivals)
        .into_iter()
        .enumerate()
        .map(|(i, due)| Planned {
            id: first_id + i as u64,
            request: mix.next(),
            due,
        })
        .collect()
}

/// One sent request: when it was due, when the generator got to it and
/// when its line had been written; in a traced run, its root span.
struct Sent {
    due: Instant,
    sent: Instant,
    written: Instant,
    root: Option<SpanId>,
}

/// One reply as the reader thread saw it: when its line arrived, when
/// its decode finished, the line and what it decoded to.
struct Reply {
    at: Instant,
    decoded_at: Instant,
    line: String,
    response: Result<WireResponse, String>,
}

/// A running daemon with its service.
struct Rig {
    service: Arc<Service>,
    daemon: Daemon,
}

impl Rig {
    /// Starts the service and the daemon, and answers one warm-up
    /// request of each kind (parameters outside the measured mix)
    /// through the in-process client.
    fn start() -> Result<Self, String> {
        let service = Arc::new(Service::start(serve_config()));
        let daemon = serve(Arc::clone(&service), "127.0.0.1:0").map_err(|e| e.to_string())?;
        let client = Client::with_service(Arc::clone(&service));
        let mut rng = SplitMix64::new(0xa11ce);
        for kind in 0..KINDS.len() {
            client
                .call(fresh(kind, &mut rng))
                .map_err(|e| format!("warm-up request failed: {e}"))?;
        }
        Ok(Self { service, daemon })
    }

    /// Opens the client connection. The daemon accepts it on its next
    /// poll, so the wait lands on the first request sent.
    fn connect(&self) -> Result<TcpStream, String> {
        let stream = TcpStream::connect(self.daemon.addr()).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(stream)
    }

    fn stop(mut self) {
        self.daemon.shutdown();
        self.service.shutdown();
    }
}

/// Two workers, a queue deep enough that no rung is refused, and the
/// cache size of the repository's mixed serve load.
fn serve_config() -> ServeConfig {
    ServeConfig::new()
        .workers(2)
        .queue_capacity(1 << 16)
        .cache_capacity(512)
        .coalesce_limit(16)
}

/// The ladder's record: per rung, its plan, send times and replies.
struct RungRecord {
    rate: f64,
    /// The process's peak RSS once the rung had drained, MB.
    peak_rss_mb: f64,
    plan: Vec<Planned>,
    /// The requests sent, a prefix of `plan`.
    sent: Vec<Sent>,
    /// The replies to `sent`, in order; shorter when some never came.
    replies: Vec<Reply>,
}

/// Runs `f`, inside a span when tracing.
fn timed<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    parent: Option<SpanId>,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.time(name, parent, f),
        None => f(),
    }
}

/// Waits until `count` replies have arrived or `TIMEOUT` has passed.
fn drain(replies: &Mutex<Vec<Reply>>, count: usize) {
    let deadline = Instant::now() + TIMEOUT;
    while lock(replies).len() < count && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(1));
    }
}

/// Sends every rung on `stream` and collects the replies, which a
/// second thread reads and decodes as they arrive. Each request is
/// encoded when it is sent; with a tracer, its encode and write are
/// spans under a `bench.request` root. Each rung is followed by a drain
/// of the replies so far (bounded by [`TIMEOUT`]). Every rung runs, so a
/// host stall that fails one rung does not cut the ladder short; a
/// failed write ends the sending.
fn drive(
    stream: &TcpStream,
    rungs: Vec<(f64, Vec<Planned>)>,
    mut tracer: Option<&mut Tracer>,
) -> Result<Vec<RungRecord>, String> {
    let replies: Arc<Mutex<Vec<Reply>>> = Arc::default();
    let give_up = Arc::new(AtomicBool::new(false));
    let read_stream = stream.try_clone().map_err(|e| e.to_string())?;
    read_stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .map_err(|e| e.to_string())?;
    let mut write_stream = stream.try_clone().map_err(|e| e.to_string())?;
    let reader = {
        let (replies, give_up) = (Arc::clone(&replies), Arc::clone(&give_up));
        thread::spawn(move || {
            let mut reader = BufReader::new(read_stream);
            let mut line = String::new();
            while !give_up.load(Ordering::SeqCst) {
                match reader.read_line(&mut line) {
                    Ok(0) => break,
                    Ok(_) => {
                        let at = Instant::now();
                        let response =
                            decode_response_line(line.trim_end()).map_err(|e| e.to_string());
                        lock(&replies).push(Reply {
                            at,
                            decoded_at: Instant::now(),
                            line: std::mem::take(&mut line),
                            response,
                        });
                    }
                    // A read timeout keeps the partial line and retries.
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                    Err(_) => break,
                }
            }
        })
    };

    let mut sent_rungs = Vec::new();
    let mut sent_total = 0usize;
    let mut broken = false;
    for (rate, plan) in rungs {
        let mut sent = Vec::with_capacity(plan.len());
        let start = Instant::now();
        for p in plan.iter().take_while(|_| !broken) {
            let due = start + p.due;
            let now = Instant::now();
            if due > now {
                thread::sleep(due - now);
            }
            let at = Instant::now();
            let root = tracer
                .as_deref_mut()
                .map(|t| t.record("bench.request", None, due, at));
            let line = timed(&mut tracer, "wire.encode_request", root, || p.line());
            let wrote = timed(&mut tracer, "transport.write", root, || {
                write_stream.write_all(line.as_bytes())
            });
            if wrote.is_err() {
                broken = true;
                break;
            }
            sent.push(Sent {
                due,
                sent: at,
                written: Instant::now(),
                root,
            });
        }
        sent_total += sent.len();
        drain(&replies, sent_total);
        let rss = crate::report::peak_rss_mb().unwrap_or(f64::NAN);
        sent_rungs.push((rate, rss, plan, sent));
    }
    give_up.store(true, Ordering::SeqCst);
    reader
        .join()
        .map_err(|_| "reply reader panicked".to_string())?;
    let _ = write_stream.shutdown(Shutdown::Write);

    // Replies come back in request order, so the i-th reply answers the
    // i-th request sent, whichever rung's drain it arrived in.
    let mut replies = std::mem::take(&mut *lock(&replies)).into_iter();
    Ok(sent_rungs
        .into_iter()
        .map(|(rate, peak_rss_mb, plan, sent)| RungRecord {
            rate,
            peak_rss_mb,
            replies: replies.by_ref().take(sent.len()).collect(),
            plan,
            sent,
        })
        .collect())
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().expect("reply list lock poisoned")
}

/// Judges a rung: latency from due time to reply, with unsent and
/// unanswered requests, error replies (refused, failed) and replies
/// later than [`TIMEOUT`] counted as misses.
fn judge(rec: &RungRecord, limit_ms: f64) -> RungOutcome {
    let lat: Vec<Option<f64>> = (0..rec.plan.len())
        .map(|i| {
            let (s, r) = (rec.sent.get(i)?, rec.replies.get(i)?);
            let answered = matches!(&r.response, Ok(w) if w.result.is_ok());
            let d = r.at.saturating_duration_since(s.due);
            (answered && d <= TIMEOUT).then_some(d.as_secs_f64() * 1e3)
        })
        .collect();
    RungOutcome::judge(rec.rate, &lat, limit_ms)
}

/// The per-request latencies of a rung in ms (unanswered requests
/// excluded), ascending.
fn latencies_ms(rec: &RungRecord) -> Vec<f64> {
    sorted(
        rec.sent
            .iter()
            .zip(&rec.replies)
            .map(|(s, r)| r.at.saturating_duration_since(s.due).as_secs_f64() * 1e3)
            .collect(),
    )
}

/// Checks every planned request of the ladder: it was sent and
/// answered, the reply decodes with the matching id and kind and no
/// error, and repeats equal the first answer bitwise. Returns each
/// distinct request with its answer.
fn check_replies(records: &[RungRecord], outcome: &mut Outcome) -> Vec<(AnalysisRequest, String)> {
    let mut answered: Vec<(AnalysisRequest, String)> = Vec::new();
    let mut first_answer: std::collections::HashMap<u64, String> = Default::default();
    for rec in records {
        for (i, p) in rec.plan.iter().enumerate() {
            outcome.attempted += 1;
            let Some(reply) = rec.replies.get(i) else {
                let why = if i < rec.sent.len() {
                    "got no reply"
                } else {
                    "was never sent"
                };
                outcome.fail(format!("request {} ({}) {why}", p.id, p.request.tag()));
                continue;
            };
            let resp = match &reply.response {
                Ok(r) => r,
                Err(e) => {
                    outcome.fail(format!("reply to {} does not decode: {e}", p.id));
                    continue;
                }
            };
            if resp.id != p.id {
                outcome.fail(format!("reply id {} where {} was due", resp.id, p.id));
                continue;
            }
            let answer = match &resp.result {
                Ok(a) => a,
                Err(e) => {
                    outcome.fail(format!(
                        "request {} ({}) failed: {e}",
                        p.id,
                        p.request.tag()
                    ));
                    continue;
                }
            };
            if answer.tag() != expected_tag(&p.request) {
                outcome.fail(format!(
                    "request {} ({}) answered with {}",
                    p.id,
                    p.request.tag(),
                    answer.tag()
                ));
                continue;
            }
            let text = encode_response(answer);
            let key = p.request.fingerprint();
            match first_answer.get(&key) {
                Some(first) if *first != text => outcome.fail(format!(
                    "repeat of request {} ({}) differs from its first answer",
                    p.id,
                    p.request.tag()
                )),
                Some(_) => {}
                None => {
                    first_answer.insert(key, text.clone());
                    answered.push((p.request.clone(), text));
                }
            }
        }
    }
    answered
}

/// Re-runs a sample of the FV and board answers in process on a fresh
/// workspace; each must equal the served answer bitwise.
fn check_direct(answered: &[(AnalysisRequest, String)], outcome: &mut Outcome) {
    for tag in ["fv_steady", "board_steady"] {
        let picks: Vec<_> = answered.iter().filter(|(r, _)| r.tag() == tag).collect();
        let step = (picks.len() / DIRECT_SAMPLES).max(1);
        for (request, served) in picks.into_iter().step_by(step).take(DIRECT_SAMPLES) {
            outcome.attempted += 1;
            match request.run(&mut Workspace::new()) {
                Ok(direct) if encode_response(&direct) == *served => {}
                Ok(_) => outcome.fail(format!("served {tag} answer differs from a direct run")),
                Err(e) => outcome.fail(format!("direct {tag} run failed: {e}")),
            }
        }
    }
}

/// Plans the whole ladder for a run of `seconds`.
fn plan_ladder(seed: u64, seconds: f64) -> Vec<(f64, Vec<Planned>)> {
    let mut mix = Mix::new(seed);
    let mut arrivals = SplitMix64::new(seed);
    let mut next_id = 1u64;
    LADDER
        .iter()
        .zip(RUNG_SHARE)
        .map(|(&rate, share)| {
            let count = (rate * seconds * share).round().max(8.0) as usize;
            let plan = plan_rung(&mut mix, &mut arrivals, rate, count, next_id);
            next_id += count as u64;
            (rate, plan)
        })
        .collect()
}

fn set_up() -> Result<(Rig, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut rig = None;
    for _ in 0..SETUPS {
        if let Some(old) = rig.take() {
            Rig::stop(old);
        }
        let t = Instant::now();
        rig = Some(Rig::start()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((rig.expect("at least one set-up"), sorted(times)))
}

/// The ladder's records, each rung's verdict and the service counters.
struct LadderResult {
    records: Vec<RungRecord>,
    outcomes: Vec<RungOutcome>,
    stats: ServiceStats,
}

fn run_ladder(
    rig: &Rig,
    rungs: Vec<(f64, Vec<Planned>)>,
    limit_ms: f64,
    tracer: Option<&mut Tracer>,
) -> Result<LadderResult, String> {
    let stream = rig.connect()?;
    let records = drive(&stream, rungs, tracer)?;
    let outcomes = records.iter().map(|r| judge(r, limit_ms)).collect();
    Ok(LadderResult {
        records,
        outcomes,
        stats: rig.service.stats(),
    })
}

pub fn run(seed: u64, seconds: f64, limit_ms: f64, outcome: &mut Outcome) {
    let (rig, setups) = match set_up() {
        Ok(v) => v,
        Err(e) => return outcome.fail(format!("set-up failed: {e}")),
    };
    let ladder = run_ladder(&rig, plan_ladder(seed, seconds), limit_ms, None);
    rig.stop();
    let ladder = match ladder {
        Ok(l) => l,
        Err(e) => return outcome.fail(format!("ladder failed: {e}")),
    };
    let answered = check_replies(&ladder.records, outcome);
    check_direct(&answered, outcome);

    let max_rate = max_passing_rate(&ladder.outcomes, limit_ms).unwrap_or(0.0);
    if max_rate == 0.0 {
        outcome.fail(format!("no rung met the p99 limit of {limit_ms} ms"));
    }
    let mid = ladder.records.get(1).map(latencies_ms).unwrap_or_default();
    outcome.push(Metric::of(
        "setup_s",
        "s",
        &setups,
        Summary::of(&setups).median,
    ));
    // Through `mid`: later rungs add only the generator's own reply
    // buffers, which grow with how far the ladder climbed.
    let rss = ladder.records.get(1).map_or(f64::NAN, |r| r.peak_rss_mb);
    outcome.push(Metric::of("peak_rss_mb", "MB", &[], rss));
    outcome.push(Metric::of("throughput", "op/s", &[], max_rate));
    outcome.note("latency_p50_ms", percentile(&mid, 50.0));
    outcome.note("latency_p90_ms", percentile(&mid, 90.0));
    note_ladder(&ladder, limit_ms, outcome);
}

/// How late the generator sent each request of the ladder, ms,
/// ascending.
fn lateness_ms(ladder: &LadderResult) -> Vec<f64> {
    sorted(
        ladder
            .records
            .iter()
            .flat_map(|r| r.sent.iter())
            .map(|s| s.sent.saturating_duration_since(s.due).as_secs_f64() * 1e3)
            .collect(),
    )
}

/// Report-only figures: p50 and p99 latency at `low` and `mid`, the
/// maximum rate and each rung's verdict.
fn note_ladder(ladder: &LadderResult, limit_ms: f64, outcome: &mut Outcome) {
    for (i, name) in ["low", "mid"].iter().enumerate() {
        if let Some(rec) = ladder.records.get(i) {
            let lat = latencies_ms(rec);
            outcome.note(&format!("latency_p50_ms.{name}"), percentile(&lat, 50.0));
            outcome.note(&format!("latency_p99_ms.{name}"), percentile(&lat, 99.0));
        }
    }
    outcome.note(
        "max_rate_rps",
        max_passing_rate(&ladder.outcomes, limit_ms).unwrap_or(0.0),
    );
    outcome.note("p99_limit_ms", limit_ms);
    for o in &ladder.outcomes {
        outcome.note(&format!("rung.{}.p99_ms", o.rate), o.p99_ms);
        outcome.note(
            &format!("rung.{}.backlog_grows", o.rate),
            f64::from(u8::from(o.backlog_grows)),
        );
    }
    let late = lateness_ms(ladder);
    outcome.note("generator_late_p50_ms", percentile(&late, 50.0));
    outcome.note("requests", late.len() as f64);
    outcome.note("cache_hit_ratio", hit_ratio(&ladder.stats));
}

fn hit_ratio(s: &ServiceStats) -> f64 {
    s.cache_hits as f64 / (s.cache_hits + s.cache_misses) as f64
}

/// Replays one rung's schedule through the in-process `Client` of a
/// fresh service; returns the sorted latencies from due time, ms. A
/// queued request's latency is its wait to be submitted plus the
/// worker-measured submission-to-completion time, so a slow request
/// does not hold back the ones behind it; a cache hit resolves inside
/// `submit`, and its latency ends there.
fn in_process(plan: &[Planned], outcome: &mut Outcome) -> Vec<f64> {
    type Submitted = (Duration, Duration, aeropack_serve::Ticket);
    let client = Client::start(serve_config());
    let (tx, rx) = mpsc::channel::<Submitted>();
    let waiter = thread::spawn(move || {
        rx.into_iter()
            .map(|(late, admitted, ticket)| {
                let (result, timing) = ticket.wait_timed();
                (late + timing.map_or(admitted, |t| t.latency), result)
            })
            .collect::<Vec<_>>()
    });
    let start = Instant::now();
    for p in plan {
        let due = start + p.due;
        let now = Instant::now();
        if due > now {
            thread::sleep(due - now);
        }
        let at = Instant::now();
        let ticket = client.submit(p.request.clone());
        let submitted = (at.saturating_duration_since(due), at.elapsed(), ticket);
        if tx.send(submitted).is_err() {
            break;
        }
    }
    drop(tx);
    let done = waiter.join().expect("waiter thread panicked");
    client.service().shutdown();
    let mut lat = Vec::with_capacity(done.len());
    for (d, result) in done {
        outcome.attempted += 1;
        if let Err(e) = result {
            outcome.fail(format!("in-process request failed: {e}"));
        }
        lat.push(d.as_secs_f64() * 1e3);
    }
    sorted(lat)
}

/// The `mid` rung's schedule sent untraced over the socket of a fresh
/// daemon; its replies are checked, and its latencies returned sorted.
fn untraced_mid(seed: u64, seconds: f64, limit_ms: f64, outcome: &mut Outcome) -> Vec<f64> {
    let mid = plan_ladder(seed, seconds).swap_remove(1);
    let ladder = Rig::start().and_then(|rig| {
        let ladder = run_ladder(&rig, vec![mid], limit_ms, None);
        rig.stop();
        ladder
    });
    match ladder {
        Ok(l) => {
            check_replies(&l.records, outcome);
            latencies_ms(&l.records[0])
        }
        Err(e) => {
            outcome.fail(format!("untraced mid rung failed: {e}"));
            Vec::new()
        }
    }
}

pub fn run_traced(
    seed: u64,
    seconds: f64,
    limit_ms: f64,
    outcome: &mut Outcome,
    tracer: &mut Tracer,
) {
    // Baselines first: the `mid` schedule untraced over the socket, and
    // through the in-process client.
    let socket_mid = untraced_mid(seed, seconds, limit_ms, outcome);
    let mid_plan = plan_ladder(seed, seconds).swap_remove(1).1;
    let direct_mid = in_process(&mid_plan, outcome);

    let ladder = Rig::start().and_then(|rig| {
        let ladder = run_ladder(&rig, plan_ladder(seed, seconds), limit_ms, Some(tracer));
        rig.stop();
        ladder
    });
    let ladder = match ladder {
        Ok(l) => l,
        Err(e) => return outcome.fail(format!("ladder failed: {e}")),
    };
    let answered = check_replies(&ladder.records, outcome);

    // Each request's root span runs from its due time to its decoded
    // reply. Its encode and write were spans when sent; the wait for the
    // reply (the daemon's transport, queue, cache, coalescer and
    // workers, which this package cannot see inside) and the reader's
    // decode are added from the reader's timestamps. The generator's
    // lateness is left uncovered.
    for rec in &ladder.records {
        for (s, r) in rec.sent.iter().zip(&rec.replies) {
            let Some(root) = s.root else { continue };
            tracer.record("serve.reply_wait", Some(root), s.written, r.at);
            tracer.record("wire.decode_reply", Some(root), r.at, r.decoded_at);
            tracer.end_at(root, r.decoded_at);
        }
    }
    let traced_mid = ladder.records.get(1).map(latencies_ms).unwrap_or_default();

    // Wire codec cost over the run's own traffic, per message.
    let requests: Vec<&Planned> = ladder.records.iter().flat_map(|r| r.plan.iter()).collect();
    let replies: Vec<&str> = ladder
        .records
        .iter()
        .flat_map(|r| r.replies.iter().map(|r| r.line.as_str()))
        .collect();
    let (encode_us, decode_us) = wire_costs(&requests, &replies, tracer);

    outcome.push(Metric::of("serve.wire_encode_us", "us", &[], encode_us));
    outcome.push(Metric::of("serve.wire_decode_us", "us", &[], decode_us));
    outcome.push(Metric::of(
        "serve.socket_gap_ms",
        "ms",
        &[],
        percentile(&socket_mid, 50.0) - percentile(&direct_mid, 50.0),
    ));
    for (kind, ms) in cold_service_ms(&answered, tracer) {
        outcome.push(Metric::of(
            &format!("serve.service_ms.{kind}"),
            "ms",
            &[],
            ms,
        ));
    }
    let s = ladder.stats;
    outcome.push(Metric::of(
        "serve.cache_hit_ratio",
        "ratio",
        &[],
        hit_ratio(&s),
    ));
    outcome.push(Metric::of(
        "serve.coalesce_jobs_per_batch",
        "ratio",
        &[],
        s.coalesced_jobs as f64 / s.coalesced_batches.max(1) as f64,
    ));
    outcome.push(Metric::count(
        "serve.rejected",
        (s.rejected_queue_full + s.rejected_deadline) as usize,
    ));
    let late = lateness_ms(&ladder);
    outcome.push(Metric::of(
        "serve.generator_late_ms",
        "ms",
        &late,
        percentile(&late, 99.0),
    ));
    // Tracing cost in an open loop shows as latency, not wall: the
    // traced `mid` p50 over the untraced one of the same schedule.
    outcome.push(Metric::of(
        "obs.trace_overhead",
        "ratio",
        &[],
        percentile(&traced_mid, 50.0) / percentile(&socket_mid, 50.0),
    ));
    outcome.push(Metric::of(
        "coverage",
        "ratio",
        &[],
        tracer.coverage("bench.request"),
    ));
    note_ladder(&ladder, limit_ms, outcome);
    outcome.note("latency_p50_ms.mid.untraced", percentile(&socket_mid, 50.0));
    outcome.note("in_process_p50_ms.mid", percentile(&direct_mid, 50.0));
}

/// Mean µs per message to encode and to decode the run's traffic: each
/// request line and each reply line, both directions of the codec.
fn wire_costs(requests: &[&Planned], replies: &[&str], tracer: &mut Tracer) -> (f64, f64) {
    let decoded: Vec<WireResponse> = replies
        .iter()
        .filter_map(|l| decode_response_line(l.trim_end()).ok())
        .collect();
    let wire_requests: Vec<WireRequest> = requests.iter().map(|p| p.wire()).collect();
    let request_lines: Vec<String> = requests.iter().map(|p| p.line()).collect();
    let messages = (requests.len() + replies.len()) as f64;
    let t = Instant::now();
    let root = tracer.begin("wire.encode", None);
    for r in &wire_requests {
        std::hint::black_box(encode_request_line(r));
    }
    for r in &decoded {
        std::hint::black_box(encode_response_line(r));
    }
    tracer.end(root);
    let encode_us = t.elapsed().as_secs_f64() * 1e6 / messages;
    let t = Instant::now();
    let root = tracer.begin("wire.decode", None);
    for l in &request_lines {
        let _ = std::hint::black_box(decode_request_line(l.trim_end()));
    }
    for l in replies {
        let _ = std::hint::black_box(decode_response_line(l.trim_end()));
    }
    tracer.end(root);
    (encode_us, t.elapsed().as_secs_f64() * 1e6 / messages)
}

/// Cold `Workload::run` time per request kind on a fresh `Workspace`:
/// the median of three runs of the first answered request of the kind.
fn cold_service_ms(
    answered: &[(AnalysisRequest, String)],
    tracer: &mut Tracer,
) -> Vec<(&'static str, f64)> {
    KINDS
        .iter()
        .map(|(kind, _)| {
            let ms = answered
                .iter()
                .find(|(r, _)| r.tag() == *kind)
                .map_or(0.0, |(request, _)| {
                    let times: Vec<f64> = (0..3)
                        .map(|_| {
                            let t = Instant::now();
                            let _ = tracer.time("serve.workload_run", None, || {
                                request.run(&mut Workspace::new())
                            });
                            t.elapsed().as_secs_f64() * 1e3
                        })
                        .collect();
                    Summary::of(&times).median
                });
            (*kind, ms)
        })
        .collect()
}
