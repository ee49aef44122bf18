//! Worker supervision: crash detection, deterministic journal replay, and
//! resilient batch delivery for [`DirectoryService::run`].
//!
//! # Supervision state machine
//!
//! ```text
//!            spawn                    batch delivered
//!   ┌──────────────────► RUNNING ◄───────────────────┐
//!   │                       │                        │
//!   │              panic (caught by the              │
//!   │               worker's catch_unwind;           │
//!   │               its Receiver drops, so           │
//!   │               the router's next send           │
//!   │               fails Disconnected)              │
//!   │                       ▼                        │
//!   │                    CRASHED                     │
//!   │                       │ injected + recoverable │
//!   │                       │ + journaled?           │
//!   │            yes        ▼         no             │
//!   │        ┌─────────► classify ──────────┐        │
//!   │        ▼                              ▼        │
//!   │   REBUILD shards              FAILED: shut down
//!   │   REPLAY journal              every lane, join,
//!   │     │    (armed: later        surface
//!   │     │     crash points        ServiceError::
//!   │     │     may re-fire —       WorkerCrashed
//!   │     │     rebuild again)
//!   │     ▼
//!   └─ RESPAWN with the replayed state, re-offer the
//!      undelivered batch, resume ─────────────────────┘
//! ```
//!
//! # Why recovery preserves the digest
//!
//! The router journals every batch it *successfully delivers* to a worker
//! with scheduled crash points (copied before the send; rolled back if the
//! send fails).  A worker's unwind destroys its shards and all its
//! accounting, so recovery starts from nothing: fresh shards built from
//! the same registry and per-shard spec, then the journal — the worker's
//! exact request subsequence, in FIFO order — replayed through the *same*
//! per-batch step (`run_batch`) and batch kernel (`apply_requests`)
//! the live worker runs; replay only cuts the journal into batches of the
//! configured size instead of receiving them.  Where batches are cut does
//! not matter: the kernel's prefetch windows change no result, crash
//! points cut at a sequence number, and resize epochs count each shard's
//! own requests.  Replay is therefore not approximately equivalent to the
//! lost work; it is the same fold over the same sequence, so the recovered
//! worker's per-shard outcome digests, statistics and shard contents are
//! bit-identical to a run in which the crash never happened.  The
//! undelivered batch that surfaced the disconnect was rolled back out of
//! the journal and is re-offered to the replacement, so nothing is lost or
//! applied twice.
//!
//! Replay runs with the remaining crash points still armed: a second crash
//! point whose trigger lies inside the journaled range fires *during
//! replay* (the supervisor just rebuilds and replays again), which is what
//! makes the total number of recoveries — and with it
//! [`ServiceStats::recoveries`](crate::ServiceStats::recoveries) —
//! independent of detection timing.  Scheduled stalls are skipped during
//! replay; they are pure latency and replay owes nobody latency.
//!
//! # Delivery resilience
//!
//! Sends use [`Sender::send_timeout`] under a deterministic bounded
//! exponential [`Backoff`] of virtual ticks (no wall-clock reads): a full
//! queue is retried with geometrically longer bounded waits, and every
//! expiry re-checks for a disconnect, so a stalled worker is probed gently
//! while a crashed one is still detected promptly.  When a fault plan
//! sheds, the seeded admission gate may reject (and count) an offer before
//! it is retried — shedding perturbs scheduling and the
//! [`ServiceStats::shed`](crate::ServiceStats::shed) counter, never
//! results.  When a run fails, the supervisor closes every lane with
//! [`Sender::shutdown`] so healthy workers abandon their backlogs instead
//! of draining work nobody will read.
//!
//! [`DirectoryService::run`]: crate::DirectoryService::run

use crate::error::ServiceError;
use crate::fault::{silence_injected_panics, FaultPlan, InjectedCrash, ShedGate, WorkerFaults};
use crate::request::Request;
use crate::resize::ResizePolicy;
use crate::service::{
    finish, maybe_resize, DirectoryService, JoinedFleet, ServiceReport, WorkerOutput,
};
use ccd_common::channel::{bounded, Backoff, Receiver, SendTimeoutError, Sender};
use ccd_directory::sharded::interleave;
use ccd_directory::{
    BuilderRegistry, Directory, DirectoryOp, DirectorySpec, Outcome, APPLY_BATCH_WINDOW,
};
use ccd_obs::{EventKind, FlightRecorder, ObsConfig};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::{Scope, ScopedJoinHandle};

/// First tick budget of the delivery backoff schedule.
pub(crate) const SEND_BACKOFF_START: u32 = 1;

/// Tick-budget cap of the delivery backoff schedule (1024 ticks ≈ 100ms of
/// bounded waiting per round at [`ccd_common::channel::TICK`]).
pub(crate) const SEND_BACKOFF_MAX: u32 = 1024;

/// Everything about a run that never changes while it executes.  Workers
/// borrow it for the whole run.
struct RunEnv {
    registry: BuilderRegistry,
    slice_spec: DirectorySpec,
    plan: Option<FaultPlan>,
    /// Per worker: does the plan schedule crash points for it?  Only those
    /// workers pay for journaling; for everyone else the fault layer costs
    /// one `Option` check per batch.
    journaled: Vec<bool>,
    workers: usize,
    shards: usize,
    batch: usize,
    queue_depth: usize,
    record: bool,
    /// An armed live-resize schedule.  Applied identically by live workers
    /// and journal replay, so recovery re-fires the same resizes at the
    /// same epoch boundaries.
    resize: Option<ResizePolicy>,
    /// The effective observability config.  Rebuilt slices and replay
    /// outputs re-arm from it, so a recovered worker observes exactly what
    /// the dead one did.
    obs: Option<ObsConfig>,
}

impl RunEnv {
    /// Number of shards worker `w` owns (`w, w + W, w + 2W, …`).
    fn owned_shards(&self, worker: usize) -> usize {
        (self.shards - worker).div_ceil(self.workers)
    }

    /// A fresh, empty output for worker `w`: new slices for its shards,
    /// re-armed for observation like the originals.
    fn rebuild(&self, worker: usize) -> Result<WorkerOutput, ServiceError> {
        let mut slices = (0..self.owned_shards(worker))
            .map(|_| self.registry.build(&self.slice_spec))
            .collect::<Result<Vec<_>, _>>()
            .map_err(ServiceError::from)?;
        if let Some(obs) = self.obs.as_ref() {
            for slice in &mut slices {
                slice.arm_depth_metrics(obs.sig_bits());
            }
        }
        Ok(WorkerOutput::new(worker, slices, self.obs.as_ref()))
    }

    /// Worker `w`'s fault hooks once `fired` of its crash points have
    /// fired.
    fn hooks(&self, worker: usize, fired: usize) -> Option<WorkerFaults> {
        self.plan.as_ref().and_then(|plan| plan.arm(worker, fired))
    }
}

/// What a dead worker left behind: who, why, and whether the panic was a
/// scheduled injection.
struct CrashNote {
    worker: usize,
    cause: String,
    injected: Option<InjectedCrash>,
}

impl CrashNote {
    fn new(worker: usize, payload: Box<dyn Any + Send>) -> Self {
        let injected = payload.downcast_ref::<InjectedCrash>().copied();
        let cause = match injected {
            Some(crash) => crash.to_string(),
            None => payload
                .downcast_ref::<&'static str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string()),
        };
        CrashNote {
            worker,
            cause,
            injected,
        }
    }

    /// The crash, when it was a scheduled recoverable injection on a
    /// journaled worker; anything else is fatal for the run.
    fn recoverable(self, journaled: bool) -> Result<InjectedCrash, ServiceError> {
        match self.injected {
            Some(crash) if crash.recoverable && journaled => Ok(crash),
            _ => Err(ServiceError::WorkerCrashed {
                worker: self.worker,
                cause: self.cause,
            }),
        }
    }
}

/// One worker's lanes: the batch channel the router feeds, the channel its
/// drained buffers come back on, and its join handle (taken once joined).
struct Lane<'scope> {
    tx: Sender<Vec<Request>>,
    recycle: Receiver<Vec<Request>>,
    handle: Option<ScopedJoinHandle<'scope, Result<WorkerOutput, CrashNote>>>,
}

/// The supervisor's mutable view of the worker fleet.
struct Supervisor<'scope, 'env> {
    scope: &'scope Scope<'scope, 'env>,
    env: &'scope RunEnv,
    lanes: Vec<Lane<'scope>>,
    /// Per worker: every request successfully delivered so far, in FIFO
    /// order (empty for non-journaled workers).
    journals: Vec<Vec<Request>>,
    /// Per worker: how many of its crash points have fired.
    fired: Vec<usize>,
    gate: Option<ShedGate>,
    shed: u64,
    recoveries: u64,
    /// The router-side flight recorder: delivery, shedding, crash and
    /// recovery events, stamped with request sequence numbers.
    recorder: Option<FlightRecorder>,
}

impl<'scope, 'env> Supervisor<'scope, 'env> {
    /// Spawns the initial fleet.
    fn launch(
        scope: &'scope Scope<'scope, 'env>,
        env: &'scope RunEnv,
        owned: Vec<Vec<Box<dyn Directory>>>,
    ) -> Self {
        let mut sup = Supervisor {
            scope,
            env,
            lanes: Vec::with_capacity(env.workers),
            journals: (0..env.workers).map(|_| Vec::new()).collect(),
            fired: vec![0; env.workers],
            gate: env.plan.as_ref().and_then(FaultPlan::shed_gate),
            shed: 0,
            recoveries: 0,
            recorder: env
                .obs
                .as_ref()
                .filter(|cfg| cfg.records_events())
                .map(|cfg| FlightRecorder::new(cfg.ring(), cfg.spans())),
        };
        for (index, slices) in owned.into_iter().enumerate() {
            let lane = sup.spawn(WorkerOutput::new(index, slices, env.obs.as_ref()));
            sup.lanes.push(lane);
        }
        sup
    }

    /// Spawns one supervised worker that continues from `output`, with the
    /// crash points it has not yet fired armed.  The worker's entire body —
    /// including its [`Receiver`] — lives inside a `catch_unwind`, so an
    /// unwinding panic drops the receiver (failing the router's next send:
    /// that is the crash *detection* path) and surfaces as an orderly
    /// `Err(CrashNote)` through `join` (the crash *classification* path),
    /// never as a process abort.
    fn spawn(&self, output: WorkerOutput) -> Lane<'scope> {
        let env = self.env;
        let hooks = env.hooks(output.index, self.fired[output.index]);
        let (tx, rx) = bounded::<Vec<Request>>(env.queue_depth);
        // One spare slot beyond the queue depth so a worker's non-blocking
        // buffer return almost never drops a buffer.
        let (recycle_tx, recycle) = bounded::<Vec<Request>>(env.queue_depth + 1);
        let handle = self
            .scope
            .spawn(move || drive_worker(output, env, rx, recycle_tx, hooks));
        Lane {
            tx,
            recycle,
            handle: Some(handle),
        }
    }

    /// Delivers one admitted batch to `owner`, riding out stalls (bounded
    /// backoff), shedding (counted, re-offered) and crashes (recover, then
    /// re-offer).  On success the batch — journaled if the owner is — is
    /// in the owner's queue.
    fn deliver(&mut self, owner: usize, batch: Vec<Request>) -> Result<(), ServiceError> {
        let journaled = self.env.journaled[owner];
        // Virtual time of every router-side event for this batch: its
        // first request's sequence number.
        let vtime = batch.first().map_or(0, |request| request.seq);
        let len = batch.len() as u64;
        // Admission control: draw the gate once per shed rejection plus
        // the final admission.  The decision stream is consumed only here,
        // on the single router thread, in offer order — deterministic.
        if let Some(gate) = self.gate.as_mut() {
            while gate.should_shed() {
                self.shed += 1;
                if let Some(recorder) = self.recorder.as_mut() {
                    recorder.record(EventKind::Shed, owner as u16, vtime, len);
                }
            }
        }
        if journaled {
            self.journals[owner].extend_from_slice(&batch);
        }
        let mut pending = batch;
        let mut backoff = Backoff::new(SEND_BACKOFF_START, SEND_BACKOFF_MAX);
        loop {
            match self.lanes[owner]
                .tx
                .send_timeout(pending, backoff.next_ticks())
            {
                Ok(()) => {
                    self.record_event(EventKind::BatchRouted, owner, vtime, len);
                    return Ok(());
                }
                Err(SendTimeoutError::TimedOut(batch)) => {
                    // Queue full; the worker is alive but slow (or
                    // stalled).  Wait a deterministically longer bounded
                    // interval and re-offer.
                    pending = batch;
                }
                Err(SendTimeoutError::Disconnected(batch)) => {
                    // This batch was never delivered: roll it back out of
                    // the journal so recovery does not replay it…
                    if journaled {
                        let keep = self.journals[owner].len().saturating_sub(batch.len());
                        self.journals[owner].truncate(keep);
                    }
                    let note = self.join_corpse(owner);
                    let output = self.revive(owner, note)?;
                    self.lanes[owner] = self.spawn(output);
                    // …then re-journal and re-offer it to the replacement
                    // on a fresh backoff schedule.  No new gate draw: the
                    // batch was already admitted.
                    if journaled {
                        self.journals[owner].extend_from_slice(&batch);
                    }
                    pending = batch;
                    backoff = Backoff::new(SEND_BACKOFF_START, SEND_BACKOFF_MAX);
                }
            }
        }
    }

    /// Records one router-side event (no-op when no recorder is armed).
    fn record_event(&mut self, kind: EventKind, lane: usize, vtime: u64, arg: u64) {
        if let Some(recorder) = self.recorder.as_mut() {
            recorder.record(kind, lane as u16, vtime, arg);
        }
    }

    /// The one crash path: when `owner`'s crash was a scheduled recoverable
    /// injection on a journaled worker, counts it and rebuilds the worker's
    /// state by replaying its journal onto fresh shards, rebuilding again
    /// each time a remaining crash point fires mid-replay.  Terminates:
    /// every round either completes, fails, or advances `fired` (bounded by
    /// the plan's crash-point count).  Anything else is fatal for the run.
    fn revive(&mut self, owner: usize, note: CrashNote) -> Result<WorkerOutput, ServiceError> {
        let env = self.env;
        let first = note.recoverable(env.journaled[owner])?;
        let mut crash = first;
        loop {
            self.fired[owner] += 1;
            self.recoveries += 1;
            self.record_event(EventKind::Crash, owner, crash.seq, self.fired[owner] as u64);
            let mut output = env.rebuild(owner)?;
            let hooks = env.hooks(owner, self.fired[owner]);
            let journal = &self.journals[owner];
            let replayed = supervised(owner, move || {
                let mut out = Outcome::new();
                for batch in journal.chunks(env.batch) {
                    run_batch(&mut output, batch, env, hooks.as_ref(), &mut out);
                }
                output
            });
            match replayed {
                Ok(output) => {
                    let journal = &self.journals[owner];
                    let vtime = journal.last().map_or(0, |request| request.seq);
                    let len = journal.len() as u64;
                    self.record_event(EventKind::JournalReplay, owner, vtime, len);
                    let fired = self.fired[owner] as u64;
                    self.record_event(EventKind::Recovery, owner, first.seq, fired);
                    return Ok(output);
                }
                Err(note) => crash = note.recoverable(env.journaled[owner])?,
            }
        }
    }

    /// Joins a worker whose channel disconnected and distills its crash
    /// note.
    fn join_corpse(&mut self, owner: usize) -> CrashNote {
        let Some(handle) = self.lanes[owner].handle.take() else {
            return CrashNote {
                worker: owner,
                cause: "supervisor lost the worker's join handle".to_string(),
                injected: None,
            };
        };
        match handle.join() {
            Ok(Err(note)) => note,
            Ok(Ok(_)) => CrashNote {
                // A clean exit with the ingestion side still open cannot
                // happen unless the worker's receiver was torn down some
                // other way; treat it as an unrecoverable crash.
                worker: owner,
                cause: "worker exited while its queue was still open".to_string(),
                injected: None,
            },
            // A panic that escaped the worker's own catch_unwind.
            Err(payload) => CrashNote::new(owner, payload),
        }
    }

    /// Closes every lane by explicit shutdown: healthy workers abandon
    /// their backlogs and exit promptly instead of draining results the
    /// failed run will never report.
    fn abort(&self) {
        for lane in &self.lanes {
            lane.tx.shutdown();
        }
    }

    /// Ends ingestion (drops every sender) and joins the fleet,
    /// recovering workers that crashed after their last delivery: with the
    /// stream over, their full journals *are* their final state, so replay
    /// alone finishes the job — no respawn.
    fn join_all(mut self) -> Result<JoinedFleet, ServiceError> {
        let handles: Vec<_> = self.lanes.drain(..).map(|lane| lane.handle).collect();
        let mut outputs = Vec::with_capacity(handles.len());
        for (owner, handle) in handles.into_iter().enumerate() {
            let Some(handle) = handle else {
                continue;
            };
            let output = match handle.join() {
                Ok(Ok(output)) => output,
                Ok(Err(note)) => self.revive(owner, note)?,
                Err(payload) => self.revive(owner, CrashNote::new(owner, payload))?,
            };
            outputs.push(output);
        }
        Ok(JoinedFleet {
            outputs,
            shed: self.shed,
            recoveries: self.recoveries,
            router: self.recorder.as_ref().map(FlightRecorder::finish),
        })
    }
}

/// Runs the concurrent service under supervision.  See the module docs.
pub(crate) fn run_concurrent(
    mut service: DirectoryService,
    ops: impl Iterator<Item = DirectoryOp>,
) -> Result<ServiceReport, ServiceError> {
    let workers = service.config.workers;
    let shards = service.config.shards;
    let batch = service.config.batch;
    let plan = service.config.fault_plan.clone().filter(|p| !p.is_noop());
    if plan.as_ref().is_some_and(|p| !p.crashes().is_empty()) {
        silence_injected_panics();
    }
    let journaled = (0..workers)
        .map(|w| {
            plan.as_ref()
                .is_some_and(|p| p.crashes().iter().any(|c| c.worker == w))
        })
        .collect();
    let env = RunEnv {
        registry: service.registry.clone(),
        slice_spec: service.slice_spec.clone(),
        plan,
        journaled,
        workers,
        shards,
        batch,
        queue_depth: service.config.queue_depth,
        record: service.config.record_outcomes,
        resize: service.config.resize_policy.clone(),
        obs: service.obs.clone(),
    };
    let organization = std::mem::take(&mut service.organization);

    // Distribute shard ownership: worker `w` owns global shards
    // `w, w + W, w + 2W, …` — local index `i` is global `w + i·W`.
    let mut owned: Vec<Vec<Box<dyn Directory>>> = (0..workers).map(|_| Vec::new()).collect();
    for (global, slice) in service.slices.drain(..).enumerate() {
        owned[global % workers].push(slice);
    }

    let fleet = std::thread::scope(|scope| {
        let mut sup = Supervisor::launch(scope, &env, owned);

        // The router: stamp, route, batch, deliver (with backpressure
        // towards the generator and supervision towards the workers).
        let mut staging: Vec<Vec<Request>> =
            (0..workers).map(|_| Vec::with_capacity(batch)).collect();
        let routed = (|| -> Result<(), ServiceError> {
            for (seq, op) in ops.enumerate() {
                let (shard, local) = interleave(shards, op.line());
                let owner = shard % workers;
                staging[owner].push(Request {
                    seq: seq as u64,
                    shard: (shard / workers) as u32,
                    op: op.with_line(local),
                });
                if staging[owner].len() == batch {
                    let fresh = sup.lanes[owner]
                        .recycle
                        .try_recv()
                        .unwrap_or_else(|| Vec::with_capacity(batch));
                    let full = std::mem::replace(&mut staging[owner], fresh);
                    sup.deliver(owner, full)?;
                }
            }
            for (owner, slot) in staging.drain(..).enumerate() {
                if !slot.is_empty() {
                    sup.deliver(owner, slot)?;
                }
            }
            Ok(())
        })();
        if let Err(err) = routed {
            sup.abort();
            return Err(err);
        }
        sup.join_all()
    })?;

    Ok(finish(
        organization,
        shards,
        fleet,
        env.record,
        env.obs.as_ref(),
    ))
}

/// Runs a worker body under `catch_unwind`, distilling a panic into the
/// worker's crash note.
fn supervised(
    worker: usize,
    body: impl FnOnce() -> WorkerOutput,
) -> Result<WorkerOutput, CrashNote> {
    catch_unwind(AssertUnwindSafe(body)).map_err(|payload| CrashNote::new(worker, payload))
}

/// One live worker's drain loop: receive a batch, sit out any scheduled
/// stall, run the batch, return the buffer, repeat until the ingestion
/// side hangs up or shuts down.
fn drive_worker(
    mut output: WorkerOutput,
    env: &RunEnv,
    rx: Receiver<Vec<Request>>,
    recycle_tx: Sender<Vec<Request>>,
    hooks: Option<WorkerFaults>,
) -> Result<WorkerOutput, CrashNote> {
    supervised(output.index, move || {
        let mut out = Outcome::new();
        // Both a natural end of stream (Disconnected) and a supervisor
        // abort (Shutdown) end the loop; the distinction matters to the
        // supervisor, not to the worker.
        while let Ok(mut requests) = rx.recv() {
            if let Some(hooks) = hooks.as_ref() {
                hooks.stall();
            }
            run_batch(&mut output, &requests, env, hooks.as_ref(), &mut out);
            requests.clear();
            // Non-blocking buffer return; on a full recycle ring the
            // buffer is simply dropped and the router allocates fresh.
            let _ = recycle_tx.try_send(requests);
        }
        output
    })
}

/// The per-batch step live workers and journal replay share: count the
/// batch, open its span, fire a scheduled crash point that falls inside it,
/// apply it, close the span.
fn run_batch(
    output: &mut WorkerOutput,
    requests: &[Request],
    env: &RunEnv,
    hooks: Option<&WorkerFaults>,
    out: &mut Outcome,
) {
    output.batches += 1;
    output.batch_span_begin(requests);
    if let Some((cut, point)) =
        hooks.and_then(|hooks| hooks.crash_cut(requests.iter().map(|r| r.seq)))
    {
        // Apply the prefix normally, then die exactly where the plan says
        // — before the first request with `seq >= the trigger`.
        apply_requests(output, &requests[..cut], env, out);
        InjectedCrash {
            worker: output.index,
            seq: requests[cut].seq,
            recoverable: point.recoverable,
        }
        .fire();
    }
    apply_requests(output, requests, env, out);
    output.batch_applied(requests);
}

/// The batch kernel, and the only place service traffic reaches
/// [`Directory::apply`] on a worker.  Per window of [`APPLY_BATCH_WINDOW`]
/// requests it prefetches every request's line on its own shard, so the
/// window's cache misses overlap, then applies each request, absorbs its
/// outcome and, with a resize policy armed, counts it towards its shard's
/// resize epoch — the same apply → absorb → count order as the serial
/// reference.
fn apply_requests(
    output: &mut WorkerOutput,
    requests: &[Request],
    env: &RunEnv,
    out: &mut Outcome,
) {
    let (record, resize) = (env.record, env.resize.as_ref());
    output.applied += requests.len() as u64;
    for window in requests.chunks(APPLY_BATCH_WINDOW) {
        for request in window {
            output.slices[request.shard as usize].prefetch_line(request.op.line());
        }
        for request in window {
            let shard = request.shard as usize;
            output.slices[shard].apply(request.op, out);
            output.absorb(shard, request.seq, out, record);
            if let Some(policy) = resize {
                let global_shard = request.shard * env.workers as u32 + output.index as u32;
                maybe_resize(output, shard, global_shard, policy);
            }
        }
    }
}
