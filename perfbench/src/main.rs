//! `eventor-perfbench`: the repository's end-to-end benchmark and its
//! traced per-layer ledger. See `perfbench/README.md`.
//!
//! ```text
//! eventor-perfbench --workload <corpus_inproc|churn_inproc|corpus_wire|churn_wire>
//!                   --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Progress and the
//! human-readable ledger go to standard error.

mod calib;
mod ledger;
mod report;
mod stats;
mod trace;
mod workload;

use calib::Calibration;
use eventor::net::WireClient;
use report::{Metric, Report};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Server, Tally, Workload, World, PACKET};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Tail percentiles are taken per window of at least this long (and with
/// enough samples), and the median over windows is reported, so a host
/// hiccup that hits a minority of windows does not move them.
const WINDOW: Duration = Duration::from_secs(5);
/// A run measures whole passes for `--seconds` and until one window is
/// complete, and gives up at this many times `--seconds` (a run must end
/// within 180 s, set-up included).
const MAX_STRETCH: u32 = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = workload::DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Inputs and (for wire workloads) the server a run measures against.
pub struct Prepared {
    pub worlds: Vec<World>,
    /// `corpus_wire`'s long-lived connection (dropped before the server).
    pub conn: Option<WireClient>,
    pub server: Option<Server>,
}

/// Set-up: world simulation, reference digests, server spawn and one
/// untimed warm-up pass. Warm-up failures land in `warmup`.
pub fn prepare(workload: Workload, seed: u64, warmup: &mut Tally) -> Result<Prepared, String> {
    let worlds = match workload {
        Workload::CorpusInproc | Workload::CorpusWire => workload::corpus_worlds(seed)?,
        // Two to four frames per in-process session, so its packets do
        // frame work; a few hundred events per wire session.
        Workload::ChurnInproc => workload::churn_worlds(seed, |i| PACKET * (2 + i % 3))?,
        Workload::ChurnWire => workload::churn_worlds(seed, |i| 192 + (i % 4) * 64)?,
    };
    let server = match workload {
        Workload::CorpusInproc | Workload::ChurnInproc => None,
        Workload::CorpusWire | Workload::ChurnWire => Some(Server::spawn()?),
    };
    let mut prepared = Prepared {
        worlds,
        conn: None,
        server,
    };
    one_pass(workload, &mut prepared, &mut 0, &mut 0, warmup)?;
    Ok(prepared)
}

/// One timed unit of a workload: a corpus pass or a churn batch.
pub fn one_pass(
    workload: Workload,
    p: &mut Prepared,
    cursor: &mut usize,
    next_id: &mut u64,
    tally: &mut Tally,
) -> Result<(), String> {
    match (workload, &p.server) {
        (Workload::CorpusInproc, _) => {
            workload::corpus_inproc_pass(&p.worlds, trace::active(), next_id, tally)
        }
        (Workload::ChurnInproc, _) => {
            workload::churn_inproc_batch(&p.worlds, trace::active(), cursor, next_id, tally)
        }
        (Workload::CorpusWire, Some(server)) => {
            workload::corpus_wire_pass(server, &mut p.conn, &p.worlds, next_id, tally)
        }
        (Workload::ChurnWire, Some(server)) => {
            workload::churn_batch(server, &p.worlds, cursor, next_id, tally)
        }
        _ => return Err("wire workload prepared without a server".into()),
    }
    Ok(())
}

fn enough_samples(packets: usize, sessions: usize) -> bool {
    packets >= stats::samples_needed(0.99) && sessions >= stats::samples_needed(0.9)
}

/// The untraced end-to-end run: every `end_to_end` metric.
fn run_end_to_end(args: &Args) -> Result<Report, String> {
    let mut warmup = Tally::default();
    let mut cal = Calibration::new();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut raw_setups = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    for _ in 0..SETUPS {
        // The previous set-up (and its server) is torn down first.
        drop(prepared.take());
        let before = cal.settled();
        let t = Instant::now();
        prepared = Some(prepare(args.workload, args.seed, &mut warmup)?);
        let raw_s = t.elapsed().as_secs_f64();
        setups.push(raw_s * Calibration::scale((before + cal.settled()) / 2.0));
        raw_setups.push(raw_s);
    }
    let mut prepared = prepared.expect("at least one set-up ran");

    let budget = Duration::from_secs(args.seconds);
    let mut tally = Tally::default();
    let (mut cursor, mut id) = (0usize, 0u64);
    let mut windows = Windows::default();
    // Pass `i` adds the samples from `marks[i]` on and runs between
    // `kernel_s[i]` and `kernel_s[i + 1]`.
    let mut marks = Vec::new();
    let mut kernel_s = vec![cal.sample()];
    let started = Instant::now();
    let mut window_started = started;
    while started.elapsed() < budget || windows.packet_ends.is_empty() {
        if started.elapsed() > budget * MAX_STRETCH {
            return Err(format!(
                "too few samples after {}s: {} packets, {} sessions",
                started.elapsed().as_secs(),
                tally.packet_ms.len(),
                tally.session_ms.len()
            ));
        }
        marks.push(Mark::of(&tally));
        one_pass(
            args.workload,
            &mut prepared,
            &mut cursor,
            &mut id,
            &mut tally,
        )?;
        kernel_s.push(cal.sample());
        if window_started.elapsed() >= WINDOW && windows.close(&tally) {
            window_started = Instant::now();
        }
    }
    drop(prepared);
    eprintln!(
        "{}: {} sessions, {} packets, {} windows in {:.2}s; unscaled: setup {:.4} s, \
         {:.6e} events/s, {:.6} sessions/s",
        args.workload.name(),
        tally.attempted,
        tally.packet_ms.len(),
        windows.packet_ends.len(),
        started.elapsed().as_secs_f64(),
        stats::median(&raw_setups).unwrap_or(f64::NAN),
        stats::median(&tally.pass_events_per_s).unwrap_or(f64::NAN),
        stats::median(&tally.pass_sessions_per_s).unwrap_or(f64::NAN),
    );
    let scales = scale_passes(&mut tally, &marks, &kernel_s);
    eprintln!(
        "host-speed scale: median {:.4} over {} passes",
        stats::median(&scales).unwrap_or(f64::NAN),
        scales.len()
    );
    Ok(end_to_end_report(&setups, &warmup, &tally, &windows))
}

/// Kernel samples on each side of a pass that its scale is the median of:
/// one kernel run is noisy, and the host's speed changes over seconds.
const SCALE_SPAN: usize = 5;

/// Scales every pass's times (and rates, inversely) by the host-speed
/// scale of the kernel samples around it (see [`calib`]); returns the
/// scales.
fn scale_passes(tally: &mut Tally, marks: &[Mark], kernel_s: &[f64]) -> Vec<f64> {
    let end = Mark::of(tally);
    (0..marks.len())
        .map(|i| {
            let near = &kernel_s
                [i.saturating_sub(SCALE_SPAN - 1)..(i + 1 + SCALE_SPAN).min(kernel_s.len())];
            let scale = Calibration::scale(stats::median(near).expect("a pass has kernel samples"));
            let to = marks.get(i + 1).unwrap_or(&end);
            marks[i].scale_until(to, tally, scale);
            scale
        })
        .collect()
}

/// Where a pass's samples start in a tally.
struct Mark {
    packets: usize,
    sessions: usize,
    passes: usize,
}

impl Mark {
    fn of(tally: &Tally) -> Self {
        Self {
            packets: tally.packet_ms.len(),
            sessions: tally.session_ms.len(),
            passes: tally.pass_events_per_s.len(),
        }
    }

    /// Multiplies the times between this mark and `to` by `scale`, and
    /// divides the rates by it.
    fn scale_until(&self, to: &Mark, tally: &mut Tally, scale: f64) {
        let times = tally.packet_ms[self.packets..to.packets]
            .iter_mut()
            .chain(&mut tally.session_ms[self.sessions..to.sessions]);
        for t in times {
            *t *= scale;
        }
        let rates = tally.pass_events_per_s[self.passes..to.passes]
            .iter_mut()
            .chain(&mut tally.pass_sessions_per_s[self.passes..to.passes]);
        for r in rates {
            *r /= scale;
        }
    }
}

/// Where each measurement window ends in a tally's packet and session
/// samples.
#[derive(Debug, Default)]
pub struct Windows {
    packet_ends: Vec<usize>,
    session_ends: Vec<usize>,
}

impl Windows {
    /// Closes the open window if it holds enough samples for every tail.
    fn close(&mut self, tally: &Tally) -> bool {
        let (p, s) = (tally.packet_ms.len(), tally.session_ms.len());
        let p0 = self.packet_ends.last().copied().unwrap_or(0);
        let s0 = self.session_ends.last().copied().unwrap_or(0);
        if !enough_samples(p - p0, s - s0) {
            return false;
        }
        self.packet_ends.push(p);
        self.session_ends.push(s);
        true
    }
}

/// Builds the end-to-end metric set from a run's samples.
pub fn end_to_end_report(setups: &[f64], warmup: &Tally, tally: &Tally, w: &Windows) -> Report {
    let pct = |s: &[f64], q| stats::percentile(s, q).unwrap_or(f64::NAN);
    let packets = |q| stats::windowed_percentile(&tally.packet_ms, &w.packet_ends, q);
    let sessions = |q| stats::windowed_percentile(&tally.session_ms, &w.session_ends, q);
    let attempted = tally.attempted + warmup.attempted;
    let failed = tally.failed + warmup.failed;
    let metrics = vec![
        Metric::new("setup_s", "s", stats::median(setups).unwrap_or(f64::NAN)),
        Metric::new("events_per_s", "1/s", pct(&tally.pass_events_per_s, 0.5)),
        Metric::new("packet_ms_p50", "ms", packets(0.5).unwrap_or(f64::NAN)),
        Metric::new("packet_ms_p99", "ms", packets(0.99).unwrap_or(f64::NAN)),
        Metric::new(
            "sessions_per_s",
            "1/s",
            pct(&tally.pass_sessions_per_s, 0.5),
        ),
        Metric::new("session_ms_p50", "ms", sessions(0.5).unwrap_or(f64::NAN)),
        Metric::new("session_ms_p90", "ms", sessions(0.9).unwrap_or(f64::NAN)),
        Metric::new(
            "ok_frac",
            "ratio",
            (attempted - failed) as f64 / attempted.max(1) as f64,
        ),
    ];
    for f in warmup.failures.iter().chain(&tally.failures) {
        eprintln!("failed session: {f}");
    }
    Report::new(attempted, failed, metrics)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("eventor-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        ledger::run(args.workload, args.seed, args.seconds)
    } else {
        run_end_to_end(&args)
    };
    match result {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("eventor-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` values of one top-level array of `BENCHMARK.json`.
    fn names_in(section: &str) -> Vec<String> {
        let doc = include_str!("../../BENCHMARK.json");
        let start = doc
            .find(&format!("\"{section}\": ["))
            .expect("section present");
        let body = &doc[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name closes")].to_string())
            .collect()
    }

    #[test]
    fn passes_are_scaled_by_the_kernel_samples_around_them() {
        let mut tally = Tally::default();
        let mut marks = Vec::new();
        for pass in 0..2 {
            marks.push(Mark::of(&tally));
            tally.packet_ms.extend([1.0, f64::INFINITY]);
            tally.session_ms.push(2.0);
            tally.pass_events_per_s.push(100.0 * (pass + 1) as f64);
            tally.pass_sessions_per_s.push(10.0);
        }
        // Every kernel sample took twice the reference time: times double,
        // rates halve, failures stay misses.
        let kernel_s = [2.0 * calib::REFERENCE_S; 3];
        let scales = scale_passes(&mut tally, &marks, &kernel_s);
        assert_eq!(scales, [0.5, 0.5]);
        assert_eq!(tally.packet_ms, [0.5, f64::INFINITY, 0.5, f64::INFINITY]);
        assert_eq!(tally.session_ms, [1.0, 1.0]);
        assert_eq!(tally.pass_events_per_s, [200.0, 400.0]);
        assert_eq!(tally.pass_sessions_per_s, [20.0, 20.0]);
    }

    #[test]
    fn benchmark_json_names_match_the_code() {
        let workloads = names_in("workloads");
        assert!(workloads.iter().all(|w| Workload::parse(w).is_some()));
        let report = end_to_end_report(
            &[1.0],
            &Tally::default(),
            &Tally::default(),
            &Windows::default(),
        );
        assert_eq!(names_in("end_to_end"), report.names());
        let per_layer = names_in("per_layer");
        assert!(per_layer.len() > 40);
        for name in workloads
            .iter()
            .chain(&per_layer)
            .chain(&names_in("end_to_end"))
        {
            assert!(stats::valid_name(name), "{name}");
        }
    }
}
