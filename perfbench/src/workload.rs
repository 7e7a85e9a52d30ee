//! The three workloads: their inputs, set-up, and one pass of each.
//!
//! Load comes from one closed-loop client thread (`eventor-wire/1`
//! credits already make a client wait for each reply) with at most one
//! connection open at a time, against an in-process server on the default
//! `NetConfig` — the configuration `eventor-cli serve` runs.

use crate::trace::{self, TracedBackend};
use eventor::core::{EventorOptions, EventorSession, SessionOutput};
use eventor::emvs::EmvsError;
use eventor::net::{
    spawn_loopback, ManifestSource, NetConfig, ServerHandle, SessionManifest, WireClient, WireError,
};
use eventor::scenarios::{
    corpus, digest_output, digest_world, golden_digest, BackendKind, Scenario, ScenarioWorld,
    WorldSpec,
};
use std::net::SocketAddr;
use std::time::Instant;

/// Events per `push_events` / `send_events` packet on the corpus workloads.
pub const PACKET: usize = 1024;
/// Events per packet on `churn_wire`: its worlds hold a few hundred
/// events, so each session still streams several small `Events` frames.
pub const CHURN_PACKET: usize = 128;
/// Distinct tiny worlds in the churn pool.
pub const CHURN_POOL: usize = 64;
/// Sessions per churn batch (the churn workloads' unit of a pass).
pub const CHURN_BATCH: usize = 32;
/// The seed at which corpus worlds use their `default_seed` and are
/// checked against `GOLDEN_DIGESTS`.
pub const DEFAULT_SEED: u64 = 0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CorpusInproc,
    ChurnInproc,
    CorpusWire,
    ChurnWire,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Self::CorpusInproc,
        Self::ChurnInproc,
        Self::CorpusWire,
        Self::ChurnWire,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Self::CorpusInproc => "corpus_inproc",
            Self::ChurnInproc => "churn_inproc",
            Self::CorpusWire => "corpus_wire",
            Self::ChurnWire => "churn_wire",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One world a session reconstructs, with the digest it must produce.
pub struct World {
    pub world: ScenarioWorld,
    pub manifest: SessionManifest,
    pub expected: u64,
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// All ten corpus worlds at `seed`, each with the digest it must produce:
/// the committed golden digest at [`DEFAULT_SEED`], an in-process
/// reference digest at any other seed.
pub fn corpus_worlds(seed: u64) -> Result<Vec<World>, String> {
    corpus()
        .iter()
        .enumerate()
        .map(|(i, scenario)| {
            let world_seed = if seed == DEFAULT_SEED {
                scenario.default_seed()
            } else {
                splitmix(seed ^ splitmix(i as u64))
            };
            let world = scenario.build(world_seed).map_err(|e| e.to_string())?;
            let expected = if seed == DEFAULT_SEED {
                golden_digest(scenario.name())
                    .ok_or_else(|| format!("no golden digest for {}", scenario.name()))?
            } else {
                digest_world(&world, BackendKind::Software).map_err(|e| e.to_string())?
            };
            let manifest = SessionManifest {
                backend: BackendKind::Software,
                source: ManifestSource::Scenario {
                    name: scenario.name().to_string(),
                    seed: world_seed,
                },
            };
            Ok(World {
                world,
                manifest,
                expected,
            })
        })
        .collect()
}

/// [`CHURN_POOL`] distinct generated worlds, world `i` truncated to
/// `max_events(i)` events, each with its in-process reference digest.
pub fn churn_worlds(seed: u64, max_events: fn(usize) -> usize) -> Result<Vec<World>, String> {
    let base = splitmix(seed ^ 0xc4);
    (0..CHURN_POOL)
        .map(|i| {
            let spec = WorldSpec::generate(base, i as u64);
            let world = spec
                .build()
                .map_err(|e| e.to_string())?
                .truncated(max_events(i));
            let expected =
                digest_world(&world, BackendKind::Software).map_err(|e| e.to_string())?;
            Ok(World {
                world,
                manifest: SessionManifest {
                    backend: BackendKind::Software,
                    source: ManifestSource::Spec {
                        text: spec.to_text(),
                    },
                },
                expected,
            })
        })
        .collect()
}

/// Why a session did not produce its expected output.
#[derive(Debug)]
pub enum Failure {
    Digest { expected: u64, got: u64 },
    Rejected { code: u16, reason: String },
    Wire(WireError),
    Session(EmvsError),
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Digest { expected, got } => {
                write!(
                    f,
                    "digest mismatch: expected {expected:#018x}, got {got:#018x}"
                )
            }
            Self::Rejected { code, reason } => write!(f, "rejected (code {code}): {reason}"),
            Self::Wire(e) => write!(f, "wire error: {e}"),
            Self::Session(e) => write!(f, "session error: {e}"),
        }
    }
}

impl From<WireError> for Failure {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Rejected { code, reason } => Self::Rejected { code, reason },
            other => Self::Wire(other),
        }
    }
}

impl From<EmvsError> for Failure {
    fn from(e: EmvsError) -> Self {
        Self::Session(e)
    }
}

/// Per-run samples and counters. Failed sessions and packets enter the
/// latency samples as `f64::INFINITY`: a failure misses every limit.
#[derive(Debug, Default)]
pub struct Tally {
    pub packet_ms: Vec<f64>,
    pub session_ms: Vec<f64>,
    /// Events per second of each pass (only verified sessions count).
    pub pass_events_per_s: Vec<f64>,
    pub pass_sessions_per_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub events: u64,
    pub frames: u64,
    pub keyframes: u64,
    pub votes: u64,
    pub credit_stalls: u64,
    pub round_trips: u64,
    pub failures: Vec<String>,
}

impl Tally {
    fn record_session(&mut self, label: &str, started: Instant, result: Result<u64, Failure>) {
        self.attempted += 1;
        match result {
            Ok(events) => {
                self.events += events;
                self.session_ms.push(ms_since(started));
            }
            Err(f) => {
                self.failed += 1;
                self.session_ms.push(f64::INFINITY);
                if self.failures.len() < 16 {
                    self.failures.push(format!("{label}: {f}"));
                }
            }
        }
    }

    fn record_pass(&mut self, started: Instant, events_before: u64, sessions: usize) {
        let wall = started.elapsed().as_secs_f64();
        self.pass_events_per_s
            .push((self.events - events_before) as f64 / wall);
        self.pass_sessions_per_s.push(sessions as f64 / wall);
    }

    fn count_output(&mut self, output: &SessionOutput) {
        let out = &output.output;
        self.frames += out.profile.frames_processed;
        self.keyframes += out.keyframes.len() as u64;
        self.votes += out.keyframes.iter().map(|k| k.votes_cast).sum::<u64>();
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Times one packet; a failed packet is a latency miss.
fn timed_packet(
    tally: &mut Tally,
    send: impl FnOnce() -> Result<(), Failure>,
) -> Result<(), Failure> {
    let t = Instant::now();
    let result = send();
    tally.packet_ms.push(match result {
        Ok(()) => ms_since(t),
        Err(_) => f64::INFINITY,
    });
    result
}

fn check(expected: u64, got: u64) -> Result<(), Failure> {
    if got == expected {
        Ok(())
    } else {
        Err(Failure::Digest { expected, got })
    }
}

/// Streams one world through an in-process `EventorSession` on the
/// software backend; `traced` installs the span-recording wrapper.
fn inproc_session(
    w: &World,
    packet: usize,
    traced: bool,
    tally: &mut Tally,
) -> Result<u64, Failure> {
    let world = &w.world;
    let mut session = trace::span("session.build", || {
        let builder = EventorSession::builder(world.camera, world.config.clone());
        if traced {
            let backend =
                TracedBackend::new(world.camera, &world.config, EventorOptions::accelerator())?;
            builder.custom_backend(Box::new(backend)).build()
        } else {
            builder.software(EventorOptions::accelerator()).build()
        }
    })?;
    trace::span("session.push_trajectory", || {
        session.push_trajectory(&world.trajectory)
    })?;
    for packet in world.events.as_slice().chunks(packet) {
        timed_packet(tally, || {
            let mut offset = 0;
            while offset < packet.len() {
                offset += trace::span("session.push", || session.push_events(&packet[offset..]))?;
                trace::span("session.poll", || session.poll())?;
            }
            Ok(())
        })?;
    }
    let output = trace::span("session.finish", || session.finish())?;
    let digest = trace::span("verify.digest", || digest_output(&output));
    check(w.expected, digest)?;
    tally.count_output(&output);
    Ok(world.events.len() as u64)
}

/// One pass over every world in-process.
pub fn corpus_inproc_pass(worlds: &[World], traced: bool, next_id: &mut u64, tally: &mut Tally) {
    inproc_pass(worlds.iter(), PACKET, traced, next_id, tally);
}

/// [`CHURN_BATCH`] in-process sessions, cycling through the pool from
/// `cursor`.
pub fn churn_inproc_batch(
    pool: &[World],
    traced: bool,
    cursor: &mut usize,
    next_id: &mut u64,
    tally: &mut Tally,
) {
    let batch = (*cursor..*cursor + CHURN_BATCH).map(|i| &pool[i % pool.len()]);
    *cursor += CHURN_BATCH;
    inproc_pass(batch, PACKET, traced, next_id, tally);
}

fn inproc_pass<'a>(
    worlds: impl ExactSizeIterator<Item = &'a World>,
    packet: usize,
    traced: bool,
    next_id: &mut u64,
    tally: &mut Tally,
) {
    let started = Instant::now();
    let before = tally.events;
    let sessions = worlds.len();
    for w in worlds {
        *next_id += 1;
        trace::set_session(*next_id);
        let t = Instant::now();
        let result = trace::span("session", || inproc_session(w, packet, traced, tally));
        tally.record_session(&w.world.name, t, result);
    }
    tally.record_pass(started, before, sessions);
}

/// Streams one world over an open connection: admit → trajectory →
/// `send_events`/`poll` per packet → finish, then checks both the
/// server's digest and the one recomputed from the streamed depth maps.
fn wire_session(
    client: &mut WireClient,
    w: &World,
    packet: usize,
    tally: &mut Tally,
) -> Result<u64, Failure> {
    let world = &w.world;
    let id = trace::span("net.admit", || client.admit(&w.manifest))?;
    trace::span("net.send_trajectory", || {
        client.send_trajectory(id, &world.trajectory)
    })?;
    tally.round_trips += 2;
    for chunk in world.events.as_slice().chunks(packet) {
        let (mut stalls, mut trips) = (0, 0);
        let sent = timed_packet(tally, || {
            let mut offset = 0;
            while offset < chunk.len() {
                let credits = client.credits(id) as usize;
                if credits == 0 {
                    stalls += 1;
                } else {
                    let slice = &chunk[offset..offset + credits.min(chunk.len() - offset)];
                    offset +=
                        trace::span("net.send_events", || client.send_events(id, slice))? as usize;
                    trips += 1;
                }
                trace::span("net.poll", || client.poll(id))?;
                trips += 1;
            }
            Ok(())
        });
        tally.credit_stalls += stalls;
        tally.round_trips += trips;
        sent?;
    }
    let report = trace::span("net.finish", || client.finish(id))?;
    tally.round_trips += 1;
    check(w.expected, report.digest)?;
    check(
        w.expected,
        trace::span("verify.digest", || client.digest(id)),
    )?;
    tally.keyframes += report.keyframes;
    Ok(report.events_processed)
}

/// A running in-process server, shut down (and its thread joined) on drop.
pub struct Server(Option<ServerHandle>);

impl Server {
    pub fn spawn() -> Result<Self, String> {
        spawn_loopback(NetConfig::new())
            .map(|h| Self(Some(h)))
            .map_err(|e| format!("server spawn: {e}"))
    }

    pub fn addr(&self) -> SocketAddr {
        self.0.as_ref().expect("server is running").addr()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(handle) = self.0.take() {
            handle.shutdown();
        }
    }
}

/// One pass over every world, back to back on the long-lived connection
/// in `conn` (opened here when absent).
pub fn corpus_wire_pass(
    server: &Server,
    conn: &mut Option<WireClient>,
    worlds: &[World],
    next_id: &mut u64,
    tally: &mut Tally,
) {
    let started = Instant::now();
    let before = tally.events;
    for w in worlds {
        *next_id += 1;
        trace::set_session(*next_id);
        let t = Instant::now();
        let client = match conn.take() {
            Some(c) => Ok(c),
            None => WireClient::connect(server.addr()).map_err(Failure::from),
        };
        let result = client.and_then(|mut c| {
            let result = trace::span("session", || wire_session(&mut c, w, PACKET, tally));
            // A transport error leaves the connection unusable, so the next
            // session reconnects; typed refusals keep it open.
            if !matches!(result, Err(Failure::Wire(_))) {
                *conn = Some(c);
            }
            result
        });
        tally.record_session(&w.world.name, t, result);
    }
    tally.record_pass(started, before, worlds.len());
}

/// One churn session: connect → admit → stream → finish → `bye`.
fn churn_session(addr: SocketAddr, w: &World, tally: &mut Tally) -> Result<u64, Failure> {
    let mut client = trace::span("net.connect", || WireClient::connect(addr))?;
    tally.round_trips += 1;
    let events = wire_session(&mut client, w, CHURN_PACKET, tally)?;
    trace::span("net.bye", || client.bye())?;
    tally.round_trips += 1;
    Ok(events)
}

/// [`CHURN_BATCH`] churn sessions, cycling through the pool from `cursor`.
pub fn churn_batch(
    server: &Server,
    pool: &[World],
    cursor: &mut usize,
    next_id: &mut u64,
    tally: &mut Tally,
) {
    let started = Instant::now();
    let before = tally.events;
    for _ in 0..CHURN_BATCH {
        let w = &pool[*cursor % pool.len()];
        *cursor += 1;
        *next_id += 1;
        trace::set_session(*next_id);
        let t = Instant::now();
        let result = trace::span("session", || churn_session(server.addr(), w, tally));
        tally.record_session(&w.world.name, t, result);
    }
    tally.record_pass(started, before, CHURN_BATCH);
}
