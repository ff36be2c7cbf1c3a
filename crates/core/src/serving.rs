//! The concurrent serving core: a live MCMC sampler publishing
//! snapshot-isolated, convergence-tagged epochs to concurrent readers.
//!
//! The paper's central operational claim is that a factor-graph
//! probabilistic database *serves queries while inference runs
//! continuously* — the sampler is never paused for a reader and a reader
//! never observes a half-applied thinning interval. This module is that
//! claim as an `fgdb-core` subsystem:
//!
//! * [`LiveSampler::spawn`] moves a [`ProbabilisticDB`] onto a dedicated
//!   sampler thread which loops forever: one thinning interval
//!   ([`ProbabilisticDB::step`]), incremental maintenance of every
//!   *registered query*'s materialized view (Algorithm 1), and — every
//!   `publish_every` samples — publication of a new [`EpochSnapshot`].
//!   [`crate::SupervisedSampler`] runs the *same* loop over a
//!   [`crate::DurablePdb`], adding only what the durable store does
//!   differently: WAL-logged intervals, periodic checkpoints, a flush on
//!   stop, and restart-from-recovery after a fault. The whole interval runs
//!   under one `catch_unwind`, so an error or a panic anywhere in it parks
//!   as the reader-visible [`SamplerStatus::error`] — never a silent death.
//! * An epoch is an immutable, internally consistent picture of one
//!   sampled world: a copy-on-write [`Database::snapshot`] plus each registered
//!   query's current answer, full-run marginal estimates, and windowed
//!   convergence diagnostics (split-R̂ / ESS over the last `window`
//!   samples). Epochs are published by swapping an `Arc` behind a brief
//!   write lock; they are never mutated afterwards.
//! * Readers hold an [`EpochReader`] — a cheap-clone, non-generic handle.
//!   [`EpochReader::pin`] clones the current `Arc` (a briefly held read
//!   lock, never the sampler's own state) and from then on the reader
//!   works against that pinned epoch exclusively: ad-hoc SQL via
//!   [`EpochSnapshot::query`] runs on the epoch's own database copy, so a
//!   long scan costs the sampler nothing and two queries in one pinned
//!   epoch can never observe different worlds (snapshot isolation).
//! * [`LiveSampler::stop`] is the graceful shutdown: it flags the loop,
//!   joins the thread, and hands the database back (or the error that
//!   killed the loop — a failed sampler parks its error, and
//!   [`SamplerState::Failed`], where every reader can see them via
//!   [`EpochReader::status`] before anyone calls `stop`).
//!
//! The design intentionally trades staleness for isolation: a reader sees
//! the world as of its pinned epoch, at most `publish_every` samples old,
//! tagged with exactly how trustworthy each registered answer is
//! (per-tuple split-R̂ gate, as in the engine's convergence gating).

use crate::evaluate::{EvaluateError, QueryEvaluator};
use crate::pdb::ProbabilisticDB;
use fgdb_graph::Model;
use fgdb_mcmc::{effective_sample_size, split_r_hat};
use fgdb_relational::{compile_query, execute, CountedSet, Database, DeltaSet, QueryResult, Tuple};
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;

/// Serving-loop configuration.
#[derive(Clone, Debug)]
pub struct ServingConfig {
    /// Thinning interval k: MH walk-steps per sample.
    pub thinning: usize,
    /// Samples between epoch publications (staleness bound: a pinned epoch
    /// is at most this many samples behind the live chain).
    pub publish_every: usize,
    /// Convergence-diagnostic window: split-R̂ / ESS are computed over the
    /// last `window` samples of each registered tuple's membership trace.
    /// Bounds the sampler's memory regardless of how long it serves.
    pub window: usize,
    /// Per-tuple split-R̂ gate for the `converged` tag (values ≤ 1 disarm
    /// the gate, exactly as in [`crate::EngineConfig`]).
    pub r_hat_threshold: f64,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            thinning: 100,
            publish_every: 8,
            window: 256,
            r_hat_threshold: 1.1,
        }
    }
}

/// Errors raised by the serving layer.
///
/// `Clone` (heavy causes are `Arc`-wrapped) so one failure can be parked
/// where every reader's [`EpochReader::status`] sees it *and* returned
/// from [`LiveSampler::stop`]. Typed variants let callers make retry
/// decisions — a [`ServingError::Durable`] storage fault is the
/// supervisor's cue to attempt restart-from-recovery, while an
/// [`ServingError::Evaluate`] bug or [`ServingError::Config`] mistake is
/// not transient and retrying cannot help.
#[derive(Clone, Debug)]
pub enum ServingError {
    /// Registering a query, building its view, or maintaining it failed.
    Evaluate(Arc<EvaluateError>),
    /// The durable storage engine failed underneath a supervised sampler
    /// (WAL append, checkpoint, or restart-from-recovery).
    Durable(Arc<crate::durable::DurableError>),
    /// The sampler loop died for a non-evaluate reason (thread spawn
    /// failure, supervisor bookkeeping).
    Sampler(String),
    /// The sampler thread panicked; the payload carries the rendered panic
    /// message when it was a string (the common `panic!`/`unwrap` case).
    Panicked(String),
    /// Degenerate configuration (zero thinning/publish interval/window).
    Config(String),
}

impl fmt::Display for ServingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServingError::Evaluate(e) => write!(f, "serving evaluate error: {e}"),
            ServingError::Durable(e) => write!(f, "durable store error: {e}"),
            ServingError::Sampler(m) => write!(f, "sampler loop failed: {m}"),
            ServingError::Panicked(m) if m.is_empty() => write!(f, "sampler thread panicked"),
            ServingError::Panicked(m) => write!(f, "sampler thread panicked: {m}"),
            ServingError::Config(m) => write!(f, "invalid serving config: {m}"),
        }
    }
}

impl std::error::Error for ServingError {}

impl From<EvaluateError> for ServingError {
    fn from(e: EvaluateError) -> Self {
        ServingError::Evaluate(Arc::new(e))
    }
}

impl From<crate::durable::DurableError> for ServingError {
    fn from(e: crate::durable::DurableError) -> Self {
        ServingError::Durable(Arc::new(e))
    }
}

impl ServingError {
    /// Renders a panic payload (as caught by `catch_unwind` or a failed
    /// join) into a [`ServingError::Panicked`].
    pub(crate) fn from_panic(payload: Box<dyn std::any::Any + Send>) -> ServingError {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        ServingError::Panicked(message)
    }
}

/// Per-tuple 0/1 membership traces over a bounded trailing window —
/// the serving-loop analogue of the engine's `TraceStore`, with eviction:
/// a tuple whose trace left the window entirely (all zeros) is dropped, so
/// memory is bounded by (answer support within the window) × 2·`window`.
///
/// The window slides by offset: every buffer holds `start + len` samples
/// and the window is `buf[start..]`. Buffers are compacted once per
/// `window` samples, so sliding costs O(1) amortised per trace instead of
/// an O(window) shift, and each window stays one contiguous slice.
#[derive(Debug)]
struct WindowedTraces {
    window: usize,
    len: usize,
    /// Samples before the window still held in every buffer.
    start: usize,
    rows: HashMap<Tuple, Trace>,
}

/// One tuple's trace buffer (see [`WindowedTraces`]).
#[derive(Debug)]
struct Trace {
    buf: Vec<f64>,
    /// Buffer index of the latest 1.0: the trace is all zeros within the
    /// window once this falls before `start`.
    last_hit: usize,
}

impl Trace {
    /// The samples inside the window (`buf[start..]`).
    fn window(&self, start: usize) -> &[f64] {
        self.buf.get(start..).unwrap_or_default()
    }
}

impl WindowedTraces {
    fn new(window: usize) -> Self {
        WindowedTraces {
            window,
            len: 0,
            start: 0,
            rows: HashMap::new(),
        }
    }

    fn record(&mut self, answer: &CountedSet) {
        for trace in self.rows.values_mut() {
            trace.buf.push(0.0);
        }
        let end = self.start + self.len;
        for t in answer.support() {
            match self.rows.get_mut(t) {
                // Every live trace just received a push above, but the
                // serving loop must not be able to panic on that inference.
                Some(trace) => {
                    if let Some(last) = trace.buf.last_mut() {
                        *last = 1.0;
                        trace.last_hit = end;
                    }
                }
                None => {
                    let mut buf = vec![0.0; end];
                    buf.push(1.0);
                    self.rows.insert(t.clone(), Trace { buf, last_hit: end });
                }
            }
        }
        self.len += 1;
        if self.len > self.window {
            self.len = self.window;
            self.start += 1;
            let start = self.start;
            self.rows.retain(|_, trace| trace.last_hit >= start);
            if self.start >= self.window {
                for trace in self.rows.values_mut() {
                    trace.buf.drain(..start);
                    trace.last_hit -= start;
                }
                self.start = 0;
            }
        }
    }

    /// Worst split-R̂ and smallest ESS across the windowed support.
    /// An empty support is trivially converged with the full window as ESS.
    fn diagnose(&self) -> (f64, f64) {
        let mut max_r_hat = 1.0f64;
        let mut min_ess = self.len as f64;
        for trace in self.rows.values() {
            let trace = trace.window(self.start);
            max_r_hat = max_r_hat.max(split_r_hat(trace));
            min_ess = min_ess.min(effective_sample_size(trace));
        }
        (max_r_hat, min_ess)
    }
}

/// One registered query's state inside an [`EpochSnapshot`]:
/// convergence-tagged answer and marginal estimates, frozen at
/// publication.
#[derive(Clone, Debug)]
pub struct QueryStatus {
    /// Registration name (e.g. `"q1"`).
    pub name: Arc<str>,
    /// The registered SQL text.
    pub sql: Arc<str>,
    /// Output column names of the registered plan.
    pub columns: Vec<Arc<str>>,
    /// The epoch world's deterministic answer (the maintained view's
    /// result at publication).
    pub answer: CountedSet,
    /// Full-run MCMC marginal estimates: `(tuple, membership probability)`
    /// sorted by tuple (Eq. 5 running averages since spawn).
    pub marginals: Vec<(Tuple, f64)>,
    /// Worst per-tuple split-R̂ over the diagnostic window.
    pub r_hat: f64,
    /// Smallest per-tuple effective sample size over the window.
    pub min_ess: f64,
    /// Samples in the diagnostic window at publication.
    pub window_len: u64,
    /// True when the window is warm (≥ 16 samples) and every tuple's R̂
    /// passed the configured gate.
    pub converged: bool,
}

/// An immutable, internally consistent picture of one published sampler
/// state: pin it and every read — registered statuses and ad-hoc SQL
/// alike — observes the same world (snapshot isolation by construction:
/// the epoch owns a [`Database::snapshot`] no later interval can change —
/// the sampler's writes copy the storage chunks they touch).
#[derive(Debug)]
pub struct EpochSnapshot {
    /// Publication number (0 = the initial pre-sampling epoch).
    pub epoch: u64,
    /// Total MH walk-steps the chain had taken at publication.
    pub steps: u64,
    /// Total samples (committed thinning intervals) the sampler loop had
    /// drawn at publication — the same count [`SamplerStatus::samples`]
    /// reads, never reset by a restart.
    pub samples: u64,
    db: Database,
    queries: Vec<QueryStatus>,
}

impl EpochSnapshot {
    /// Every registered query's status, in registration order.
    pub fn registered(&self) -> &[QueryStatus] {
        &self.queries
    }

    /// One registered query's status by name.
    pub fn status(&self, name: &str) -> Option<&QueryStatus> {
        self.queries.iter().find(|q| &*q.name == name)
    }

    /// Answers ad-hoc SQL against this epoch's pinned world. Runs entirely
    /// on the epoch's own database copy: it cannot block the sampler, and
    /// repeated calls within one pinned epoch always see the same world.
    pub fn query(&self, sql: &str) -> Result<QueryResult, EvaluateError> {
        let plan = compile_query(sql, &self.db)?;
        let (result, _) = execute(&plan, &self.db)?;
        Ok(result)
    }

    /// The pinned deterministic store (read-only).
    pub fn database(&self) -> &Database {
        &self.db
    }
}

/// The swap cell epochs are published through: readers clone the `Arc`
/// under a briefly held read lock, the sampler replaces it under a write
/// lock only at publication instants — it never holds the lock while
/// stepping, so readers cannot stall inference (nor vice versa).
struct EpochCell {
    current: RwLock<Arc<EpochSnapshot>>,
}

impl EpochCell {
    fn new(initial: EpochSnapshot) -> EpochCell {
        EpochCell {
            current: RwLock::new(Arc::new(initial)),
        }
    }

    fn load(&self) -> Arc<EpochSnapshot> {
        // lint:allow(sync, readers hold this only long enough to clone an Arc; never across a query)
        Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner()))
    }

    fn store(&self, snap: Arc<EpochSnapshot>) {
        let old = {
            // lint:allow(sync, one pointer swap per publish interval, not per step; readers block for the swap only)
            let mut current = self.current.write().unwrap_or_else(|e| e.into_inner());
            std::mem::replace(&mut *current, snap)
        };
        // Freeing an epoch can take milliseconds; do it with the lock released so readers never wait on it.
        drop(old);
    }
}

/// The sampler lifecycle as readers observe it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SamplerState {
    /// Stepping and publishing normally.
    Running,
    /// A storage fault or panic stopped stepping and a supervisor is
    /// attempting restart-from-recovery (`attempt` of `max_restarts`).
    /// Already-published epochs stay pinnable and readable throughout —
    /// degradation is about freshness, never about consistency.
    Degraded {
        /// The restart attempt currently underway (1-based).
        attempt: u32,
        /// Attempts the supervisor will make before giving up.
        max_restarts: u32,
    },
    /// Stopped cleanly (graceful shutdown).
    Stopped,
    /// Dead: the loop failed terminally, or every restart attempt was
    /// exhausted. The parked [`SamplerStatus::error`] says why.
    Failed,
}

impl SamplerState {
    /// True while a supervisor is mid-recovery.
    pub fn is_degraded(&self) -> bool {
        matches!(self, SamplerState::Degraded { .. })
    }
}

impl fmt::Display for SamplerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SamplerState::Running => write!(f, "running"),
            SamplerState::Degraded {
                attempt,
                max_restarts,
            } => write!(f, "degraded (restart {attempt}/{max_restarts})"),
            SamplerState::Stopped => write!(f, "stopped"),
            SamplerState::Failed => write!(f, "failed"),
        }
    }
}

/// Shared sampler counters (updated with relaxed atomics on the hot loop;
/// readers only ever need a monotonic, eventually fresh picture).
pub(crate) struct SharedStats {
    steps: AtomicU64,
    samples: AtomicU64,
    state: Mutex<SamplerState>,
    error: Mutex<Option<ServingError>>,
}

impl SharedStats {
    fn new(steps: u64) -> SharedStats {
        SharedStats {
            steps: AtomicU64::new(steps),
            samples: AtomicU64::new(0),
            state: Mutex::new(SamplerState::Running),
            error: Mutex::new(None),
        }
    }

    /// Publishes a lifecycle transition.
    pub(crate) fn set_state(&self, state: SamplerState) {
        // lint:allow(sync, lifecycle transitions are rare; never taken on the per-step path)
        *self.state.lock().unwrap_or_else(|e| e.into_inner()) = state;
    }

    fn state(&self) -> SamplerState {
        // lint:allow(sync, reader-side status probe; copies one enum under the lock)
        *self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Parks (or clears) the error readers see in their status.
    pub(crate) fn set_error(&self, error: Option<ServingError>) {
        // lint:allow(sync, written only on sampler failure/recovery, never per step)
        *self.error.lock().unwrap_or_else(|e| e.into_inner()) = error;
    }
}

/// A point-in-time picture of the sampler, via [`EpochReader::status`].
#[derive(Clone, Debug)]
pub struct SamplerStatus {
    /// Latest published epoch number.
    pub epoch: u64,
    /// Total MH walk-steps taken (live counter, ahead of the epoch).
    pub steps: u64,
    /// Total samples drawn (live counter).
    pub samples: u64,
    /// True while the sampler loop is stepping normally (equivalent to
    /// `state == SamplerState::Running`, kept for cheap checks).
    pub running: bool,
    /// Lifecycle state, including mid-recovery degradation.
    pub state: SamplerState,
    /// The typed error that degraded or killed the loop. Transient faults
    /// a supervisor recovered from are cleared on resume.
    pub error: Option<ServingError>,
}

/// The cheap-clone reader handle: pin epochs and observe sampler health.
/// Deliberately non-generic (no model parameter) so serving layers can
/// hold it without knowing the model type.
#[derive(Clone)]
pub struct EpochReader {
    cell: Arc<EpochCell>,
    stats: Arc<SharedStats>,
}

impl EpochReader {
    fn new(cell: Arc<EpochCell>, stats: Arc<SharedStats>) -> EpochReader {
        EpochReader { cell, stats }
    }

    /// Pins the latest published epoch. The returned snapshot is immutable
    /// and stays valid (and consistent) for as long as the reader holds
    /// the `Arc`, regardless of how far the live chain advances.
    pub fn pin(&self) -> Arc<EpochSnapshot> {
        self.cell.load()
    }

    /// Live sampler counters and health. The epoch number is read from
    /// the publication cell itself, so it can never lag behind what a
    /// concurrent [`EpochReader::pin`] returns.
    pub fn status(&self) -> SamplerStatus {
        let state = self.stats.state();
        SamplerStatus {
            epoch: self.cell.load().epoch,
            // lint:allow-start(sync, monotonic counters read for display; no ordering with other state is assumed)
            steps: self.stats.steps.load(Ordering::Relaxed),
            samples: self.stats.samples.load(Ordering::Relaxed),
            // lint:allow-end(sync)
            running: state == SamplerState::Running,
            state,
            error: self
                .stats
                .error
                // lint:allow(sync, reader-side status probe; clones a small Option under the lock)
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone(),
        }
    }
}

/// One registered query's live machinery on the sampler thread.
struct Registered {
    name: Arc<str>,
    sql: Arc<str>,
    columns: Vec<Arc<str>>,
    eval: QueryEvaluator,
    traces: WindowedTraces,
}

impl Registered {
    fn status(&self, threshold: f64) -> Result<QueryStatus, EvaluateError> {
        let answer = self
            .eval
            .current_answer()
            .ok_or(EvaluateError::NotMaterialized)?
            .clone();
        let mut marginals: Vec<(Tuple, f64)> = self.eval.marginals().as_map().into_iter().collect();
        marginals.sort_by(|a, b| a.0.cmp(&b.0));
        let (r_hat, min_ess) = self.traces.diagnose();
        let window_len = self.traces.len as u64;
        Ok(QueryStatus {
            name: Arc::clone(&self.name),
            sql: Arc::clone(&self.sql),
            columns: self.columns.clone(),
            answer,
            marginals,
            r_hat,
            min_ess,
            window_len,
            converged: threshold > 1.0 && window_len >= 16 && r_hat < threshold,
        })
    }
}

/// What the one sampler loop steps: the in-memory [`ProbabilisticDB`], or
/// the durable store of [`crate::supervise`], which adds WAL logging,
/// checkpoints, a flush on stop and restart-from-recovery.
pub(crate) trait Store: Send + Sized + 'static {
    /// The model the database samples.
    type Model: Model;

    /// The database the views read and every epoch snapshots.
    fn pdb(&self) -> &ProbabilisticDB<Self::Model>;

    /// One committed thinning interval of `k` walk-steps.
    fn step(&mut self, k: usize) -> Result<DeltaSet, ServingError>;

    /// Bookkeeping after a fully served interval (checkpoints).
    fn served(&mut self) -> Result<(), ServingError> {
        Ok(())
    }

    /// Orderly shutdown: makes every acknowledged interval durable.
    fn sync(&mut self) -> Result<(), ServingError> {
        Ok(())
    }

    /// A rebuilt store to resume from after `fault` (already parked in
    /// `stats`), or the error that ends the loop.
    fn restart(
        self,
        fault: ServingError,
        _: &SharedStats,
        _: &AtomicBool,
    ) -> Result<Self, ServingError> {
        Err(fault)
    }
}

impl<M: Model + 'static> Store for ProbabilisticDB<M> {
    type Model = M;

    fn pdb(&self) -> &ProbabilisticDB<M> {
        self
    }

    fn step(&mut self, k: usize) -> Result<DeltaSet, ServingError> {
        Ok(ProbabilisticDB::step(self, k)?)
    }
}

/// The sampler thread and its reader handle, behind both [`LiveSampler`]
/// and [`crate::SupervisedSampler`]. Dropping it without [`Self::stop`]
/// flags and joins the thread (best effort, result discarded).
pub(crate) struct SamplerHandle<S> {
    reader: EpochReader,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<Result<S, ServingError>>>,
}

impl<S: Store> SamplerHandle<S> {
    /// See [`LiveSampler::spawn`].
    pub(crate) fn spawn(
        store: S,
        queries: &[(&str, &str)],
        config: ServingConfig,
    ) -> Result<Self, ServingError> {
        validate_config(&config)?;
        let queries: Vec<(String, String)> = queries
            .iter()
            .map(|(n, s)| (n.to_string(), s.to_string()))
            .collect();
        let registered = build_registered(store.pdb(), &queries, &config)?;
        let epoch0 = publish_snapshot(store.pdb(), &registered, &config, 0, 0)?;
        let sampler = Sampler {
            queries,
            config,
            cell: Arc::new(EpochCell::new(epoch0)),
            stats: Arc::new(SharedStats::new(store.pdb().steps_taken())),
            stop: Arc::new(AtomicBool::new(false)),
        };
        let reader = EpochReader::new(Arc::clone(&sampler.cell), Arc::clone(&sampler.stats));
        let stop = Arc::clone(&sampler.stop);
        let handle = std::thread::Builder::new()
            .name("fgdb-sampler".into())
            .spawn(move || sampler.run(store, registered))
            .map_err(|e| ServingError::Sampler(format!("spawn failed: {e}")))?;
        Ok(SamplerHandle {
            reader,
            stop,
            handle: Some(handle),
        })
    }

    /// See [`LiveSampler::stop`].
    pub(crate) fn stop(mut self) -> Result<S, ServingError> {
        self.stop.store(true, Ordering::Release);
        match self.handle.take() {
            None => Err(ServingError::Panicked(String::new())),
            Some(h) => match h.join() {
                Err(payload) => Err(ServingError::from_panic(payload)),
                Ok(result) => result,
            },
        }
    }
}

impl<S> SamplerHandle<S> {
    /// A reader handle (clone freely; hand to server worker threads).
    pub(crate) fn reader(&self) -> EpochReader {
        self.reader.clone()
    }
}

impl<S> Drop for SamplerHandle<S> {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// The live in-memory sampler: owns the sampler thread and hands back the
/// database at [`LiveSampler::stop`].
pub struct LiveSampler<M> {
    handle: SamplerHandle<ProbabilisticDB<M>>,
}

impl<M: Model + 'static> LiveSampler<M> {
    /// Validates and registers `queries` (`(name, sql)` pairs, each
    /// becoming an incrementally maintained view), publishes epoch 0 from
    /// the initial world, and starts the sampler loop on its own thread.
    ///
    /// # Errors
    /// [`ServingError::Config`] on degenerate knobs and
    /// [`ServingError::Evaluate`] when a registered query fails to parse,
    /// plan, or materialize — all before any thread is spawned.
    pub fn spawn(
        pdb: ProbabilisticDB<M>,
        queries: &[(&str, &str)],
        config: ServingConfig,
    ) -> Result<Self, ServingError> {
        Ok(LiveSampler {
            handle: SamplerHandle::spawn(pdb, queries, config)?,
        })
    }

    /// A reader handle (clone freely; hand to server worker threads).
    pub fn reader(&self) -> EpochReader {
        self.handle.reader()
    }

    /// Graceful shutdown: flags the loop, joins the thread, and returns
    /// the database at its final position — or the error that had already
    /// killed the loop.
    pub fn stop(self) -> Result<ProbabilisticDB<M>, ServingError> {
        self.handle.stop()
    }
}

/// Rejects degenerate serving knobs.
fn validate_config(config: &ServingConfig) -> Result<(), ServingError> {
    if config.thinning == 0 {
        return Err(ServingError::Config("zero thinning interval".into()));
    }
    if config.publish_every == 0 {
        return Err(ServingError::Config("zero publish interval".into()));
    }
    if config.window < 4 {
        return Err(ServingError::Config(
            "diagnostic window must hold at least 4 samples".into(),
        ));
    }
    Ok(())
}

/// Compiles and materializes every `(name, sql)` pair as an incrementally
/// maintained view over `pdb`, with a fresh diagnostic window seeded from
/// the initial answer.
fn build_registered<M: Model>(
    pdb: &ProbabilisticDB<M>,
    queries: &[(String, String)],
    config: &ServingConfig,
) -> Result<Vec<Registered>, ServingError> {
    let mut registered = Vec::with_capacity(queries.len());
    for (name, sql) in queries {
        let plan = compile_query(sql, pdb.database())
            .map_err(|e| ServingError::from(EvaluateError::Query(e)))?;
        let columns = plan
            .output_columns(pdb.database())
            .map_err(|e| ServingError::from(EvaluateError::Exec(e.into())))?;
        let eval = QueryEvaluator::materialized(plan, pdb, config.thinning)?;
        let mut traces = WindowedTraces::new(config.window);
        traces.record(
            eval.current_answer()
                .ok_or(EvaluateError::NotMaterialized)?,
        );
        registered.push(Registered {
            name: Arc::from(name.as_str()),
            sql: Arc::from(sql.as_str()),
            columns,
            eval,
            traces,
        });
    }
    Ok(registered)
}

/// Builds one publishable epoch from the sampler's current state;
/// `samples` is the loop's committed-interval count.
fn publish_snapshot<M: Model>(
    pdb: &ProbabilisticDB<M>,
    registered: &[Registered],
    config: &ServingConfig,
    epoch: u64,
    samples: u64,
) -> Result<EpochSnapshot, EvaluateError> {
    let mut queries = Vec::with_capacity(registered.len());
    for r in registered {
        queries.push(r.status(config.r_hat_threshold)?);
    }
    Ok(EpochSnapshot {
        epoch,
        steps: pdb.steps_taken(),
        samples,
        db: pdb.database().snapshot(),
        queries,
    })
}

/// What the sampler thread owns besides the store and its views.
struct Sampler {
    /// The registered `(name, sql)` pairs (views are rebuilt on restart).
    queries: Vec<(String, String)>,
    config: ServingConfig,
    cell: Arc<EpochCell>,
    stats: Arc<SharedStats>,
    stop: Arc<AtomicBool>,
}

impl Sampler {
    /// The one sampler loop. Each interval — step, maintenance of every
    /// registered view, publication every `publish_every` intervals, and
    /// the store's bookkeeping — runs under one `catch_unwind`, so an error
    /// *or* a panic anywhere in it parks where every reader's
    /// [`EpochReader::status`] sees it. The store then restarts (the
    /// durable store recovers from disk; the views are rebuilt and an epoch
    /// above every earlier one is published at once) or the loop ends
    /// [`SamplerState::Failed`]. A stop request flushes the store and
    /// publishes the terminal state.
    fn run<S: Store>(
        self,
        mut store: S,
        mut registered: Vec<Registered>,
    ) -> Result<S, ServingError> {
        let config = &self.config;
        let mut epoch = 0u64;
        // Committed intervals: never reset, not even across a restart.
        let mut samples = 0u64;
        let mut since_publish = 0usize;
        loop {
            if self.stop.load(Ordering::Acquire) {
                if let Err(e) = store.sync() {
                    return Err(self.park(e, SamplerState::Failed));
                }
                if since_publish > 0 {
                    let _ = self.publish(store.pdb(), &registered, epoch + 1, samples);
                }
                self.stats.set_state(SamplerState::Stopped);
                return Ok(store);
            }
            let interval = catch_unwind(AssertUnwindSafe(|| -> Result<(), ServingError> {
                let delta = store.step(config.thinning)?;
                samples += 1;
                // lint:allow-start(sync, per-interval counter stores; values are advisory and carry no cross-thread ordering)
                self.stats
                    .steps
                    .store(store.pdb().steps_taken(), Ordering::Relaxed);
                self.stats.samples.store(samples, Ordering::Relaxed);
                // lint:allow-end(sync)
                let db = store.pdb().database();
                for r in registered.iter_mut() {
                    r.eval.observe(&delta, db)?;
                    let answer = r
                        .eval
                        .current_answer()
                        .ok_or(EvaluateError::NotMaterialized)?;
                    r.traces.record(answer);
                }
                since_publish += 1;
                if since_publish >= config.publish_every {
                    since_publish = 0;
                    epoch += 1;
                    self.publish(store.pdb(), &registered, epoch, samples)?;
                }
                store.served()
            }));
            let fault = match interval {
                Ok(Ok(())) => continue,
                Ok(Err(e)) => e,
                Err(payload) => ServingError::from_panic(payload),
            };
            self.stats.set_error(Some(fault.clone()));
            store = match store.restart(fault, &self.stats, &self.stop) {
                Ok(store) => store,
                // A stop request that ends a restart is an orderly stop.
                Err(e) if self.stop.load(Ordering::Acquire) => {
                    return Err(self.park(e, SamplerState::Stopped))
                }
                Err(e) => return Err(self.park(e, SamplerState::Failed)),
            };
            // Resume: rebuild the views from the restarted store and
            // publish at once, so readers see an epoch above every
            // pre-fault one as the first signal that service resumed.
            let resumed = build_registered(store.pdb(), &self.queries, config).and_then(|r| {
                registered = r;
                epoch += 1;
                Ok(self.publish(store.pdb(), &registered, epoch, samples)?)
            });
            if let Err(e) = resumed {
                return Err(self.park(e, SamplerState::Failed));
            }
            since_publish = 0;
            self.stats.set_error(None);
            self.stats.set_state(SamplerState::Running);
        }
    }

    /// Publishes epoch number `epoch` of the sampler's current state.
    fn publish<M: Model>(
        &self,
        pdb: &ProbabilisticDB<M>,
        registered: &[Registered],
        epoch: u64,
        samples: u64,
    ) -> Result<(), EvaluateError> {
        let snap = publish_snapshot(pdb, registered, &self.config, epoch, samples)?;
        self.cell.store(Arc::new(snap));
        Ok(())
    }

    /// Parks `error` with the loop's terminal `state` where every reader
    /// sees it, and hands it back for [`SamplerHandle::stop`].
    fn park(&self, error: ServingError, state: SamplerState) -> ServingError {
        self.stats.set_error(Some(error.clone()));
        self.stats.set_state(state);
        error
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::biased_token_pdb;
    use fgdb_relational::parser::paper_sql;

    const N: usize = 12;

    fn spawn_fixture(config: ServingConfig) -> LiveSampler<Arc<fgdb_graph::FactorGraph>> {
        let pdb = biased_token_pdb(N, 4, 99);
        let q1 = paper_sql::query1("TOKEN");
        let q2 = paper_sql::query2("TOKEN");
        LiveSampler::spawn(pdb, &[("q1", &q1), ("q2", &q2)], config).unwrap()
    }

    #[test]
    fn epochs_advance_and_stop_returns_the_db() {
        let sampler = spawn_fixture(ServingConfig {
            thinning: 5,
            publish_every: 2,
            ..ServingConfig::default()
        });
        let reader = sampler.reader();
        let first = reader.pin();
        // Epoch 0 exists before any stepping.
        assert_eq!(first.registered().len(), 2);
        assert!(first.status("q1").is_some());
        assert!(first.status("nope").is_none());
        // Wait until at least two epochs are published.
        while reader.status().epoch < 2 {
            std::thread::yield_now();
        }
        let pinned = reader.pin();
        assert!(pinned.epoch >= 2);
        assert!(pinned.steps >= pinned.samples * 5);
        let pdb = sampler.stop().unwrap();
        assert!(pdb.steps_taken() > 0);
        pdb.check_synchronized().unwrap();
        assert!(!reader.status().running);
        assert!(reader.status().error.is_none());
    }

    #[test]
    fn zero_query_sampler_steps_the_configured_thinning() {
        let pdb = biased_token_pdb(N, 4, 99);
        assert_eq!(pdb.steps_taken(), 0);
        let sampler = LiveSampler::spawn(
            pdb,
            &[],
            ServingConfig {
                thinning: 7,
                publish_every: 2,
                ..ServingConfig::default()
            },
        )
        .unwrap();
        let reader = sampler.reader();
        while reader.pin().epoch < 3 {
            // Every published epoch counts the committed intervals, even
            // with no registered query to count them for it.
            let epoch = reader.pin();
            assert_eq!(epoch.samples, epoch.steps / 7);
            assert_eq!(epoch.steps % 7, 0);
            std::thread::yield_now();
        }
        let pdb = sampler.stop().unwrap();
        let samples = reader.status().samples;
        assert!(samples > 0);
        assert_eq!(pdb.steps_taken(), 7 * samples);
        assert_eq!(reader.status().steps, 7 * samples);
        // The terminal epoch carries the same count as the live status.
        let last = reader.pin();
        assert_eq!(last.samples, samples);
        assert_eq!(last.steps, 7 * samples);
    }

    #[test]
    fn pinned_epochs_are_snapshot_isolated() {
        let sampler = spawn_fixture(ServingConfig {
            thinning: 3,
            publish_every: 1,
            ..ServingConfig::default()
        });
        let reader = sampler.reader();
        while reader.status().epoch < 1 {
            std::thread::yield_now();
        }
        let pinned = reader.pin();
        // Repeated ad-hoc queries against a pinned epoch are identical even
        // while the sampler keeps rewriting the live store.
        let q = paper_sql::query1("TOKEN");
        let a = pinned.query(&q).unwrap();
        for _ in 0..20 {
            let b = pinned.query(&q).unwrap();
            assert_eq!(a.rows.sorted_entries(), b.rows.sorted_entries());
        }
        // Label partition: counting every label in the pinned world sums to
        // the relation size — a torn snapshot could not guarantee this.
        let counts = pinned
            .query("SELECT label, COUNT(*) AS n FROM TOKEN GROUP BY label")
            .unwrap();
        let total: i64 = counts
            .rows
            .sorted_entries()
            .iter()
            .map(|(t, _)| match t.values().get(1) {
                Some(fgdb_relational::Value::Int(n)) => *n,
                other => panic!("count column must be Int, got {other:?}"),
            })
            .sum();
        assert_eq!(total, N as i64);
        sampler.stop().unwrap();
    }

    #[test]
    fn registered_statuses_carry_convergence_tags() {
        let sampler = spawn_fixture(ServingConfig {
            thinning: 4,
            publish_every: 4,
            window: 64,
            r_hat_threshold: 1.5,
        });
        let reader = sampler.reader();
        while reader.status().samples < 40 {
            std::thread::yield_now();
        }
        let pinned = reader.pin();
        for status in pinned.registered() {
            assert!(status.r_hat.is_finite());
            assert!(status.min_ess >= 0.0);
            assert!(status.window_len <= 64);
            for (_, p) in &status.marginals {
                assert!((0.0..=1.0).contains(p));
            }
            assert!(!status.columns.is_empty());
        }
        // q2 (the COUNT query) always has exactly one answer row.
        let q2 = pinned.status("q2").unwrap();
        assert_eq!(q2.answer.sorted_entries().len(), 1);
        sampler.stop().unwrap();
    }

    #[test]
    fn degenerate_configs_and_bad_sql_fail_at_spawn() {
        let pdb = biased_token_pdb(4, 2, 1);
        let bad = ServingConfig {
            thinning: 0,
            ..ServingConfig::default()
        };
        assert!(matches!(
            LiveSampler::spawn(pdb, &[], bad),
            Err(ServingError::Config(_))
        ));
        let pdb = biased_token_pdb(4, 2, 1);
        let err = LiveSampler::spawn(
            pdb,
            &[("bad", "SELECT nope FROM ☃")],
            ServingConfig::default(),
        );
        assert!(matches!(err, Err(ServingError::Evaluate(_))));
    }

    #[test]
    fn windowed_traces_bound_memory_and_evict_stale_tuples() {
        let mut w = WindowedTraces::new(8);
        let t_hot = fgdb_relational::tuple![1i64];
        let t_cold = fgdb_relational::tuple![2i64];
        let mut hot = CountedSet::new();
        hot.add(t_hot.clone(), 1);
        let mut both = CountedSet::new();
        both.add(t_hot.clone(), 1);
        both.add(t_cold.clone(), 1);
        w.record(&both);
        for _ in 0..20 {
            w.record(&hot);
        }
        assert_eq!(w.len, 8);
        assert!(w.rows.contains_key(&t_hot));
        assert!(
            !w.rows.contains_key(&t_cold),
            "tuple outside the window must be evicted"
        );
        assert!(w.rows[&t_hot].window(w.start).len() <= 8);
        assert!(w.rows[&t_hot].buf.len() <= 2 * 8);
        let (r_hat, ess) = w.diagnose();
        assert!(r_hat.is_finite());
        assert!(ess > 0.0);
    }

    /// The offset slide matches the plain formulation — shift every trace
    /// by `remove(0)` each sample once the window is full, evict all-zero
    /// traces — trace for trace and bit for bit, over a stream several
    /// windows long.
    #[test]
    fn windowed_traces_offset_slide_matches_plain_shift() {
        const WINDOW: usize = 16;
        let mut w = WindowedTraces::new(WINDOW);
        let mut plain: HashMap<Tuple, Vec<f64>> = HashMap::new();
        let mut plain_len = 0usize;
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for step in 0..(7 * WINDOW + 5) {
            // A drifting support over 12 tuples: some stay hot, some go
            // cold long enough to be evicted, then come back.
            let mut answer = CountedSet::new();
            for id in 0..12i64 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let rate = if (id + step as i64 / WINDOW as i64) % 3 == 0 {
                    2
                } else {
                    9
                };
                if state % 10 >= rate {
                    answer.add(fgdb_relational::tuple![id], 1);
                }
            }
            w.record(&answer);

            for trace in plain.values_mut() {
                trace.push(0.0);
            }
            for t in answer.support() {
                match plain.get_mut(t) {
                    Some(trace) => *trace.last_mut().unwrap() = 1.0,
                    None => {
                        let mut trace = vec![0.0; plain_len];
                        trace.push(1.0);
                        plain.insert(t.clone(), trace);
                    }
                }
            }
            plain_len += 1;
            if plain_len > WINDOW {
                plain_len = WINDOW;
                plain.retain(|_, trace| {
                    trace.remove(0);
                    trace.iter().any(|&x| x != 0.0)
                });
            }

            assert_eq!(w.len, plain_len);
            assert_eq!(w.rows.len(), plain.len(), "step {step}");
            for (t, trace) in &plain {
                assert_eq!(
                    w.rows.get(t).map(|tr| tr.window(w.start)),
                    Some(&trace[..]),
                    "step {step}"
                );
            }
            let mut r_hat = 1.0f64;
            let mut ess = plain_len as f64;
            for trace in plain.values() {
                r_hat = r_hat.max(split_r_hat(trace));
                ess = ess.min(effective_sample_size(trace));
            }
            let (got_r_hat, got_ess) = w.diagnose();
            assert_eq!(got_r_hat.to_bits(), r_hat.to_bits(), "step {step}");
            assert_eq!(got_ess.to_bits(), ess.to_bits(), "step {step}");
        }
    }
}
