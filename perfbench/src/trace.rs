//! In-memory span recording around the benchmark's own calls into each
//! layer, plus an [`ExecutionBackend`] wrapper that attributes the
//! backend's stage profile to the `fixed` and `dsi` layers.
//!
//! Recording is per thread and off unless [`begin`] was called: an
//! untraced run pays one thread-local check per span site.

use eventor::core::{EventorOptions, ExecutionBackend, FrameWork, SoftwareBackend};
use eventor::emvs::{EmvsConfig, EmvsError, KeyframeReconstruction, Stage, StageProfile};
use eventor::geom::{CameraModel, Pose};
use std::cell::RefCell;
use std::time::Instant;

/// One timed call: `parent` indexes the enclosing span of the same
/// recording, `session` is the benchmark's id of the session it served.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub session: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Everything one recording captured.
#[derive(Debug, Default)]
pub struct Recording {
    pub spans: Vec<Span>,
    /// Seconds per pipeline stage, diffed from the `StageProfile` handed
    /// to each traced `vote_frame` / `retire_keyframe`.
    pub stage_s: [f64; Stage::ALL.len()],
}

impl Recording {
    pub fn stage(&self, stage: Stage) -> f64 {
        self.stage_s[stage_slot(stage)]
    }

    /// Appends `other`, re-basing its parent indices.
    pub fn append(&mut self, other: Recording) {
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        for (a, b) in self.stage_s.iter_mut().zip(other.stage_s) {
            *a += b;
        }
    }

    /// Durations of every span called `name`, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Summed duration of every span called `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }
}

struct Tracer {
    epoch: Instant,
    open: Vec<u32>,
    session: u64,
    recording: Recording,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

fn stage_slot(stage: Stage) -> usize {
    Stage::ALL
        .iter()
        .position(|&s| s == stage)
        .expect("stage is in Stage::ALL")
}

/// Starts recording on this thread; span times count from `epoch`.
pub fn begin(epoch: Instant) {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            epoch,
            open: Vec::new(),
            session: 0,
            recording: Recording::default(),
        })
    });
}

/// Whether this thread is recording.
pub fn active() -> bool {
    TRACER.with(|t| t.borrow().is_some())
}

/// Stops recording on this thread and returns what was captured.
pub fn end() -> Recording {
    TRACER.with(|t| {
        t.borrow_mut()
            .take()
            .map(|t| t.recording)
            .unwrap_or_default()
    })
}

/// Tags the spans that follow with a session id.
pub fn set_session(session: u64) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            t.session = session;
        }
    });
}

/// Runs `f` inside a span called `name` when recording is on.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let opened = TRACER.with(|t| {
        t.borrow_mut().as_mut().map(|t| {
            let index = t.recording.spans.len() as u32;
            t.recording.spans.push(Span {
                name,
                start_ns: t.epoch.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent: t.open.last().copied(),
                session: t.session,
            });
            t.open.push(index);
            index
        })
    });
    let out = f();
    if let Some(index) = opened {
        TRACER.with(|t| {
            if let Some(t) = t.borrow_mut().as_mut() {
                t.recording.spans[index as usize].end_ns = t.epoch.elapsed().as_nanos() as u64;
                t.open.pop();
            }
        });
    }
    out
}

fn add_stage_diff(before: &StageProfile, after: &StageProfile) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            for stage in Stage::ALL {
                let d = after
                    .stage_time(stage)
                    .saturating_sub(before.stage_time(stage));
                t.recording.stage_s[stage_slot(stage)] += d.as_secs_f64();
            }
        }
    });
}

/// The software backend with each `vote_frame` / `retire_keyframe`
/// call timed as a span, and the stage time it adds to the session's
/// profile credited to the recording.
#[derive(Debug)]
pub struct TracedBackend {
    inner: SoftwareBackend,
}

impl TracedBackend {
    pub fn new(
        camera: CameraModel,
        config: &EmvsConfig,
        options: EventorOptions,
    ) -> Result<Self, EmvsError> {
        Ok(Self {
            inner: SoftwareBackend::new(camera, config, options)?,
        })
    }
}

impl ExecutionBackend for TracedBackend {
    fn name(&self) -> &'static str {
        "software"
    }

    fn vote_frame(
        &mut self,
        work: &FrameWork<'_>,
        profile: &mut StageProfile,
    ) -> Result<(), EmvsError> {
        let before = profile.clone();
        let out = span("core.vote_frame", || self.inner.vote_frame(work, profile));
        add_stage_diff(&before, profile);
        out
    }

    fn retire_keyframe(
        &mut self,
        reference_pose: &Pose,
        frames_used: usize,
        events_used: usize,
        profile: &mut StageProfile,
    ) -> Result<KeyframeReconstruction, EmvsError> {
        let before = profile.clone();
        let out = span("core.retire_keyframe", || {
            self.inner
                .retire_keyframe(reference_pose, frames_used, events_used, profile)
        });
        add_stage_diff(&before, profile);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_carry_the_session() {
        begin(Instant::now());
        set_session(7);
        span("outer", || span("inner", || ()));
        let rec = end();
        assert_eq!(rec.spans.len(), 2);
        assert_eq!(rec.spans[0].parent, None);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert!(rec
            .spans
            .iter()
            .all(|s| s.session == 7 && s.end_ns >= s.start_ns));
        // Off again: nothing is recorded.
        span("ignored", || ());
        assert!(end().spans.is_empty());
    }
}
