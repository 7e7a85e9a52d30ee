//! The traced run: one process measures all four workloads in
//! interleaved rounds (so host drift cancels in the ratios between them),
//! records spans around every call into a layer, and reduces them to the
//! per-layer metrics and a ledger of self-times.
//!
//! Each round runs, in order: an untraced and a traced `corpus_inproc`
//! pass, an untraced and a traced `corpus_wire` pass, and one traced
//! `churn_wire` and one traced `churn_inproc` batch. Times are per corpus
//! pass unless the name says otherwise. The run, and so its metrics, is
//! the same whatever `--workload` names; only the output file's name
//! carries it.

use crate::prepare;
use crate::report::{Metric, Report};
use crate::stats::{median, percentile, samples_needed};
use crate::trace::{self, Recording};
use crate::workload::{self, Server, Tally, Workload, World};
use eventor::emvs::Stage;
use eventor::hwsim::{performance, AcceleratorConfig};
use eventor::net::WireClient;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Traced rounds at least, whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;
/// Idle-connection pings sampled for `net.ping_us_p50`.
const PINGS: usize = 200;

/// Aggregate counters of the serving engine, from `eventor-metrics/1`.
#[derive(Debug, Clone, Copy)]
struct ServeSnapshot {
    pump_rounds: f64,
    busy_s: f64,
    wall_s: f64,
    workers: f64,
}

/// The first `"key": number` in an `eventor-metrics/1` document; the
/// engine aggregate comes before the per-session entries.
fn json_number(doc: &str, key: &str) -> Result<f64, String> {
    let needle = format!("\"{key}\": ");
    let at = doc
        .find(&needle)
        .ok_or_else(|| format!("metrics document has no {key}"))?
        + needle.len();
    let rest = &doc[at..];
    let end = rest.find([',', '\n']).unwrap_or(rest.len());
    rest[..end]
        .trim()
        .parse()
        .map_err(|e| format!("metrics {key}: {e}"))
}

fn serve_snapshot(client: &mut WireClient) -> Result<ServeSnapshot, String> {
    let doc = client.metrics().map_err(|e| format!("metrics: {e}"))?;
    Ok(ServeSnapshot {
        pump_rounds: json_number(&doc, "pump_rounds")?,
        busy_s: json_number(&doc, "busy_seconds")?,
        wall_s: json_number(&doc, "wall_seconds")?,
        workers: json_number(&doc, "workers")?,
    })
}

/// [`serve_snapshot`] over a fresh connection.
fn serve_snapshot_at(server: &Server) -> Result<ServeSnapshot, String> {
    let mut client = WireClient::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let snapshot = serve_snapshot(&mut client)?;
    client.bye().map_err(|e| format!("bye: {e}"))?;
    Ok(snapshot)
}

/// Round-trip times of `PINGS` keepalive pings on a connection with no
/// session in flight.
fn ping_us(client: &mut WireClient) -> Result<Vec<f64>, String> {
    let mut samples = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let t = Instant::now();
        client.ping().map_err(|e| format!("ping: {e}"))?;
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(samples)
}

/// The open `corpus_wire` connection, reconnecting if a transport error
/// closed it.
fn reopen<'a>(
    server: &Server,
    conn: &'a mut Option<WireClient>,
) -> Result<&'a mut WireClient, String> {
    if conn.is_none() {
        *conn = Some(WireClient::connect(server.addr()).map_err(|e| format!("connect: {e}"))?);
    }
    Ok(conn.as_mut().expect("connection was just opened"))
}

fn traced<T>(rec: &mut Recording, epoch: Instant, f: impl FnOnce() -> T) -> T {
    trace::begin(epoch);
    let out = f();
    rec.append(trace::end());
    out
}

/// Per-layer self times of one traced corpus pass, bottom layer first,
/// closed by the remainder no layer explains: the rows sum to the pass's
/// wall time.
struct Ledger {
    title: &'static str,
    events_per_pass: f64,
    wall_s: f64,
    rows: Vec<(&'static str, f64)>,
}

impl Ledger {
    fn new(
        title: &'static str,
        events_per_pass: f64,
        wall_s: f64,
        layers: &[(&'static str, f64)],
    ) -> Self {
        let explained: f64 = layers.iter().map(|(_, s)| s).sum();
        let mut rows = layers.to_vec();
        rows.push(("remainder", wall_s - explained));
        Self {
            title,
            events_per_pass,
            wall_s,
            rows,
        }
    }

    fn remainder_s(&self) -> f64 {
        self.rows.last().map_or(f64::NAN, |r| r.1)
    }

    /// `(layer, self s, share of wall, events/s of this layer and all below)`.
    fn lines(&self) -> impl Iterator<Item = (&'static str, f64, f64, f64)> + '_ {
        self.rows.iter().scan(0.0, |cumulative, &(layer, self_s)| {
            *cumulative += self_s;
            Some((
                layer,
                self_s,
                self_s / self.wall_s,
                self.events_per_pass / *cumulative,
            ))
        })
    }

    fn render(&self, out: &mut String) {
        let _ = writeln!(
            out,
            "{}: {:.6} s/pass, {} events/pass",
            self.title, self.wall_s, self.events_per_pass
        );
        let _ = writeln!(
            out,
            "  {:<13} {:>11} {:>7} {:>14} {:>10}",
            "layer", "self s/pass", "share", "events/s", "vs below"
        );
        let mut below: Option<f64> = None;
        for (layer, self_s, share, rate) in self.lines() {
            let eff = below.map_or("-".to_string(), |b| format!("{:.3}", rate / b));
            let _ = writeln!(
                out,
                "  {layer:<13} {self_s:>11.6} {:>6.1}% {rate:>14.0} {eff:>10}",
                100.0 * share
            );
            below = Some(rate);
        }
    }

    fn to_json(&self) -> String {
        let items: Vec<String> = self
            .lines()
            .map(|(layer, self_s, share, rate)| {
                format!(
                    "{{\"layer\": \"{layer}\", \"self_s\": {self_s}, \"share\": {share}, \
                     \"events_per_s\": {rate}}}"
                )
            })
            .collect();
        format!("[{}]", items.join(", "))
    }
}

/// A recording's spans as `[name, start_ns, end_ns, parent, session]`
/// rows; `parent` indexes the same array.
fn spans_json(rec: &Recording) -> String {
    let rows: Vec<String> = rec
        .spans
        .iter()
        .map(|s| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            format!(
                "[\"{}\", {}, {}, {parent}, {}]",
                s.name, s.start_ns, s.end_ns, s.session
            )
        })
        .collect();
    format!("[\n  {}\n]", rows.join(",\n  "))
}

fn pct_us(samples: &[f64], q: f64) -> f64 {
    percentile(samples, q).map_or(f64::NAN, |s| s * 1e6)
}

/// Events, frames, key frames and votes counted so far.
fn counts(tally: &Tally) -> [u64; 4] {
    [tally.events, tally.frames, tally.keyframes, tally.votes]
}

pub fn run(workload: Workload, seed: u64, seconds: u64) -> Result<Report, String> {
    let mut warmup = Tally::default();
    let mut corpus = prepare(Workload::CorpusWire, seed, &mut warmup)?;
    // The same worlds, warmed in-process too.
    crate::one_pass(
        Workload::CorpusInproc,
        &mut corpus,
        &mut 0,
        &mut 0,
        &mut warmup,
    )?;
    let mut churn = prepare(Workload::ChurnWire, seed, &mut warmup)?;
    let churn_in = prepare(Workload::ChurnInproc, seed, &mut warmup)?;
    let corpus_server = corpus.server.take().ok_or("corpus_wire has a server")?;
    let churn_server = churn.server.take().ok_or("churn_wire has a server")?;
    let mut wire_conn = corpus.conn.take();
    let ping = ping_us(reopen(&corpus_server, &mut wire_conn)?)?;

    let epoch = Instant::now();
    let budget = Duration::from_secs(seconds);
    let (mut inproc_plain, mut inproc_traced) = (Tally::default(), Tally::default());
    let (mut wire_plain, mut wire_traced) = (Tally::default(), Tally::default());
    let (mut churn_tally, mut churn_in_tally) = (Tally::default(), Tally::default());
    let mut rec_churn_in = Recording::default();
    let (mut rec_inproc, mut rec_wire, mut rec_churn) = (
        Recording::default(),
        Recording::default(),
        Recording::default(),
    );
    let (serve_before, churn_before) = (
        serve_snapshot(reopen(&corpus_server, &mut wire_conn)?)?,
        serve_snapshot_at(&churn_server)?,
    );
    let (mut id, mut cursor, mut cursor_in, mut rounds) = (0u64, 0usize, 0usize, 0usize);
    let mut pass_counts: Option<[u64; 4]> = None;
    let worlds: &[World] = &corpus.worlds;
    while rounds < MIN_ROUNDS
        || epoch.elapsed() < budget
        || rec_inproc.durations("core.vote_frame").len() < samples_needed(0.99)
        || rec_wire.durations("net.poll").len() < samples_needed(0.99)
    {
        if epoch.elapsed() > budget * crate::MAX_STRETCH + Duration::from_secs(30) {
            return Err("traced run could not gather enough samples".into());
        }
        workload::corpus_inproc_pass(worlds, false, &mut id, &mut inproc_plain);
        let before = counts(&inproc_traced);
        traced(&mut rec_inproc, epoch, || {
            trace::span("pass", || {
                workload::corpus_inproc_pass(worlds, true, &mut id, &mut inproc_traced)
            })
        });
        let pass: [u64; 4] = std::array::from_fn(|i| counts(&inproc_traced)[i] - before[i]);
        if *pass_counts.get_or_insert(pass) != pass {
            return Err(format!(
                "counts {pass:?} differ from the first pass's {pass_counts:?}"
            ));
        }
        workload::corpus_wire_pass(
            &corpus_server,
            &mut wire_conn,
            worlds,
            &mut id,
            &mut wire_plain,
        );
        traced(&mut rec_wire, epoch, || {
            trace::span("pass", || {
                workload::corpus_wire_pass(
                    &corpus_server,
                    &mut wire_conn,
                    worlds,
                    &mut id,
                    &mut wire_traced,
                )
            })
        });
        traced(&mut rec_churn, epoch, || {
            trace::span("pass", || {
                workload::churn_batch(
                    &churn_server,
                    &churn.worlds,
                    &mut cursor,
                    &mut id,
                    &mut churn_tally,
                )
            })
        });
        traced(&mut rec_churn_in, epoch, || {
            trace::span("pass", || {
                workload::churn_inproc_batch(
                    &churn_in.worlds,
                    true,
                    &mut cursor_in,
                    &mut id,
                    &mut churn_in_tally,
                )
            })
        });
        rounds += 1;
    }
    let serve_after = serve_snapshot(reopen(&corpus_server, &mut wire_conn)?)?;
    let churn_after = serve_snapshot_at(&churn_server)?;
    if let Some(c) = wire_conn {
        c.bye().map_err(|e| format!("bye: {e}"))?;
    }
    drop((corpus_server, churn_server));

    let n = rounds as f64;
    let tallies = [
        &warmup,
        &inproc_plain,
        &inproc_traced,
        &wire_plain,
        &wire_traced,
        &churn_tally,
        &churn_in_tally,
    ];
    let attempted: u64 = tallies.iter().map(|t| t.attempted).sum();
    let failed: u64 = tallies.iter().map(|t| t.failed).sum();
    for f in tallies.iter().flat_map(|t| &t.failures) {
        eprintln!("failed session: {f}");
    }
    let [events, frames, keyframes, votes] = pass_counts.ok_or("no traced pass ran")?;
    let events_f = events as f64;
    let votes_f = votes as f64;

    // --- corpus_inproc: spans and stage time, per traced pass.
    let per = |rec: &Recording, name: &str| rec.total(name) / n;
    let stage = |s: Stage| rec_inproc.stage(s) / n;
    // The software backend times `𝒫{Z0;Zi}`/`𝒢` and `𝒱` as one fused
    // batched call and books half of it under each stage, so only their
    // sum is a measurement: it is reported as one fused figure.
    let fixed_s = stage(Stage::CanonicalProjection);
    let transfer_vote_s = stage(Stage::ProportionalProjection) + stage(Stage::VoteDsi);
    let detect_s = stage(Stage::Detection);
    let dsi_s = detect_s + stage(Stage::Merging);
    let vote_frame_s = per(&rec_inproc, "core.vote_frame");
    let retire_s = per(&rec_inproc, "core.retire_keyframe");
    let backend_s = vote_frame_s + retire_s;
    let core_self_s = backend_s - fixed_s - transfer_vote_s - dsi_s;
    let session_calls = [
        "session.build",
        "session.push_trajectory",
        "session.push",
        "session.poll",
        "session.finish",
    ];
    let session_s: f64 = session_calls.iter().map(|c| per(&rec_inproc, c)).sum();
    let inproc = Ledger::new(
        "corpus_inproc (traced)",
        events_f,
        per(&rec_inproc, "pass"),
        &[
            ("fixed", fixed_s),
            ("transfer+vote", transfer_vote_s),
            ("dsi", dsi_s),
            ("core", core_self_s),
            ("emvs+session", session_s - backend_s),
            ("bench.verify", per(&rec_inproc, "verify.digest")),
        ],
    );

    // --- corpus_wire: client spans per traced pass, server counters per
    // pass (plain and traced passes both count on the server).
    let wire_passes = 2.0 * n;
    let serve_rounds = (serve_after.pump_rounds - serve_before.pump_rounds) / wire_passes;
    let serve_wall = (serve_after.wall_s - serve_before.wall_s) / wire_passes;
    let serve_busy = (serve_after.busy_s - serve_before.busy_s) / wire_passes;
    let wire_calls = [
        "net.admit",
        "net.send_trajectory",
        "net.send_events",
        "net.poll",
        "net.finish",
    ];
    let net_calls_s: f64 = wire_calls.iter().map(|c| per(&rec_wire, c)).sum();
    let wire = Ledger::new(
        "corpus_wire (traced)",
        events_f,
        per(&rec_wire, "pass"),
        &[
            ("serve.busy", serve_busy),
            ("serve.pump", serve_wall - serve_busy),
            ("net", net_calls_s - serve_wall),
            ("bench.verify", per(&rec_wire, "verify.digest")),
        ],
    );

    let rate = |t: &Tally| median(&t.pass_events_per_s).unwrap_or(f64::NAN);
    let inproc_rate = rate(&inproc_plain);
    let wire_rate = rate(&wire_plain);
    let paper = performance(&AcceleratorConfig::default()).event_rate_normal;
    let churn_sessions = churn_tally.attempted.max(1) as f64;
    let churn_in_sessions = churn_in_tally.attempted.max(1) as f64;
    let churn_rounds = (churn_after.pump_rounds - churn_before.pump_rounds) / churn_sessions;
    let churn_overhead =
        (churn_after.wall_s - churn_before.wall_s) - (churn_after.busy_s - churn_before.busy_s);
    let us_p50 = |rec: &Recording, name: &str| pct_us(&rec.durations(name), 0.5);
    let metrics = vec![
        Metric::new("fixed.project_s", "s/pass", fixed_s),
        Metric::new("fixed.events_per_s", "1/s", events_f / fixed_s),
        Metric::new("dsi.transfer_vote_s", "s/pass", transfer_vote_s),
        Metric::new("dsi.votes_per_s", "1/s", votes_f / transfer_vote_s),
        Metric::new("dsi.detect_s", "s/pass", detect_s),
        Metric::new("core.vote_frame_s", "s/pass", vote_frame_s),
        Metric::new(
            "core.vote_frame_us_p50",
            "us",
            us_p50(&rec_inproc, "core.vote_frame"),
        ),
        Metric::new(
            "core.vote_frame_us_p99",
            "us",
            pct_us(&rec_inproc.durations("core.vote_frame"), 0.99),
        ),
        Metric::new("core.retire_keyframe_s", "s/pass", retire_s),
        Metric::new("core.backend_self_s", "s/pass", core_self_s),
        Metric::new("session.push_s", "s/pass", per(&rec_inproc, "session.push")),
        Metric::new("session.poll_s", "s/pass", per(&rec_inproc, "session.poll")),
        Metric::new(
            "session.finish_s",
            "s/pass",
            per(&rec_inproc, "session.finish"),
        ),
        Metric::new("emvs.driver_self_s", "s/pass", session_s - backend_s),
        Metric::new("serve.pump_rounds", "count/pass", serve_rounds),
        Metric::new("serve.pump_wall_s", "s/pass", serve_wall),
        Metric::new("serve.busy_s", "s/pass", serve_busy),
        Metric::new(
            "serve.utilization",
            "ratio",
            serve_busy / (serve_wall * serve_after.workers),
        ),
        Metric::new(
            "serve.pump_overhead_us_per_round",
            "us",
            (serve_wall - serve_busy) / serve_rounds * 1e6,
        ),
        Metric::new(
            "serve.churn_overhead_us_per_round",
            "us",
            churn_overhead / (churn_rounds * churn_sessions) * 1e6,
        ),
        Metric::new("serve.churn_rounds_per_session", "count", churn_rounds),
        Metric::new(
            "dsi.churn_detect_us_per_session",
            "us",
            rec_churn_in.stage(Stage::Detection) / churn_in_sessions * 1e6,
        ),
        Metric::new(
            "session.churn_build_us_p50",
            "us",
            us_p50(&rec_churn_in, "session.build"),
        ),
        Metric::new(
            "session.churn_finish_us_p50",
            "us",
            us_p50(&rec_churn_in, "session.finish"),
        ),
        Metric::new(
            "net.connect_us_p50",
            "us",
            us_p50(&rec_churn, "net.connect"),
        ),
        Metric::new("net.admit_us_p50", "us", us_p50(&rec_churn, "net.admit")),
        Metric::new(
            "net.send_events_us_p50",
            "us",
            us_p50(&rec_wire, "net.send_events"),
        ),
        Metric::new("net.poll_us_p50", "us", us_p50(&rec_wire, "net.poll")),
        Metric::new(
            "net.poll_us_p99",
            "us",
            pct_us(&rec_wire.durations("net.poll"), 0.99),
        ),
        Metric::new("net.bye_us_p50", "us", us_p50(&rec_churn, "net.bye")),
        Metric::new(
            "net.round_trips_per_session",
            "count",
            churn_tally.round_trips as f64 / churn_sessions,
        ),
        Metric::new(
            "net.credit_stalls",
            "count/pass",
            (wire_plain.credit_stalls + wire_traced.credit_stalls) as f64 / wire_passes,
        ),
        Metric::new(
            "net.ping_us_p50",
            "us",
            percentile(&ping, 0.5).unwrap_or(f64::NAN),
        ),
        Metric::new("net.self_s", "s/pass", net_calls_s - serve_wall),
        Metric::new("ledger.inproc_events_per_s", "1/s", inproc_rate),
        Metric::new("ledger.wire_events_per_s", "1/s", wire_rate),
        Metric::new(
            "ledger.churn_sessions_per_s",
            "1/s",
            median(&churn_tally.pass_sessions_per_s).unwrap_or(f64::NAN),
        ),
        Metric::new(
            "ledger.churn_inproc_sessions_per_s",
            "1/s",
            median(&churn_in_tally.pass_sessions_per_s).unwrap_or(f64::NAN),
        ),
        Metric::new("ledger.wire_vs_inproc", "ratio", wire_rate / inproc_rate),
        Metric::new(
            "ledger.net_share",
            "ratio",
            (net_calls_s - serve_wall) / wire.wall_s,
        ),
        Metric::new("ledger.inproc_vs_paper", "ratio", inproc_rate / paper),
        Metric::new("ledger.inproc_wall_s", "s/pass", inproc.wall_s),
        Metric::new("ledger.wire_wall_s", "s/pass", wire.wall_s),
        Metric::new("ledger.inproc_remainder_s", "s/pass", inproc.remainder_s()),
        Metric::new("ledger.wire_remainder_s", "s/pass", wire.remainder_s()),
        Metric::new(
            "ledger.tracing_overhead",
            "ratio",
            1.0 - rate(&inproc_traced) / inproc_rate,
        ),
        Metric::new(
            "ledger.wire_tracing_overhead",
            "ratio",
            1.0 - rate(&wire_traced) / wire_rate,
        ),
        Metric::new("hwsim.paper_events_per_s", "1/s", paper),
        Metric::new("counts.events", "count", events_f),
        Metric::new("counts.frames", "count", frames as f64),
        Metric::new("counts.keyframes", "count", keyframes as f64),
        Metric::new("counts.votes", "count", votes_f),
    ];

    let mut table = String::new();
    inproc.render(&mut table);
    wire.render(&mut table);
    let _ = writeln!(
        table,
        "rates (untraced, same process): inproc {inproc_rate:.0} events/s, wire {wire_rate:.0} \
         events/s (wire/inproc {:.3}); paper {paper:.0} events/s (inproc/paper {:.3})",
        wire_rate / inproc_rate,
        inproc_rate / paper
    );
    eprint!("{table}");

    let metric_items: Vec<String> = metrics
        .iter()
        .map(|m| match m.value.is_finite() {
            true => format!("\"{}\": {}", m.name, m.value),
            false => format!("\"{}\": null", m.name),
        })
        .collect();
    let doc = format!(
        "{{\"format\": \"eventor-perfbench-ledger/1\", \"workload\": \"{}\", \"seed\": {seed}, \
         \"rounds\": {rounds},\n\"corpus_inproc\": {},\n\"corpus_wire\": {},\n\
         \"metrics\": {{{}}},\n\"span_columns\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \
         \"session\"],\n\"spans\": {{\n\"corpus_inproc\": {},\n\"corpus_wire\": {},\n\
         \"churn_wire\": {},\n\"churn_inproc\": {}}}}}\n",
        workload.name(),
        inproc.to_json(),
        wire.to_json(),
        metric_items.join(", "),
        spans_json(&rec_inproc),
        spans_json(&rec_wire),
        spans_json(&rec_churn),
        spans_json(&rec_churn_in),
    );
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/ledger-{}-seed{seed}.json", workload.name());
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, doc))
        .map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!("ledger and spans written to {path}");
    Ok(Report::new(attempted, failed, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Failure;
    use crate::Prepared;
    use eventor::net::ManifestSource;

    /// The failure drill: one `corpus_wire` pass in which one world carries a
    /// wrong expected digest and one more world is admitted under a scenario
    /// name the server does not know. Both must be counted as failed sessions
    /// (`ok_frac` < 1) without aborting the pass.
    fn drill(seed: u64) -> Result<Report, String> {
        let mut worlds = workload::corpus_worlds(seed)?;
        worlds[0].expected ^= 1;
        let unknown = World {
            world: worlds[1].world.clone(),
            manifest: eventor::net::SessionManifest {
                backend: worlds[1].manifest.backend,
                source: ManifestSource::Scenario {
                    name: "no_such_scenario".into(),
                    seed,
                },
            },
            expected: worlds[1].expected,
        };
        worlds.push(unknown);
        let server = Server::spawn()?;
        let mut prepared = Prepared {
            worlds,
            conn: None,
            server: Some(server),
        };
        let mut tally = Tally::default();
        crate::one_pass(
            Workload::CorpusWire,
            &mut prepared,
            &mut 0,
            &mut 0,
            &mut tally,
        )?;
        drop(prepared);
        let report = crate::end_to_end_report(
            &[0.0],
            &Tally::default(),
            &tally,
            &crate::Windows::default(),
        );
        let expected_failures = tally.failures.len() == 2
            && tally.failures[0].contains("digest mismatch")
            && tally.failures[1].contains("rejected (code 2)");
        if !expected_failures {
            return Err(format!("drill failures were {:?}", tally.failures));
        }
        Ok(report)
    }

    #[test]
    fn metrics_numbers_are_read_from_the_aggregate() {
        let doc = "{\n  \"aggregate\": {\n    \"pump_rounds\": 42,\n    \"busy_seconds\": 0.125000,\n  },\n  \"sessions\": [ { \"busy_seconds\": 9.0 } ]\n}\n";
        assert_eq!(json_number(doc, "pump_rounds"), Ok(42.0));
        assert_eq!(json_number(doc, "busy_seconds"), Ok(0.125));
        assert!(json_number(doc, "missing").is_err());
    }

    #[test]
    fn drill_counts_planted_failures_without_aborting() {
        let report = drill(1).expect("drill runs to the end");
        let ok = report.metric("ok_frac").expect("ok_frac reported");
        assert!(ok < 1.0, "ok_frac {ok}");
        assert!((ok - 9.0 / 11.0).abs() < 1e-12, "ok_frac {ok}");
        assert!(!report.correct());
    }

    #[test]
    fn failure_kinds_map_from_wire_errors() {
        let rejected = Failure::from(eventor::net::WireError::Rejected {
            code: 2,
            reason: "unknown".into(),
        });
        assert!(matches!(rejected, Failure::Rejected { code: 2, .. }));
        let transport = Failure::from(eventor::net::WireError::Timeout { mid_frame: true });
        assert!(matches!(transport, Failure::Wire(_)));
    }
}
