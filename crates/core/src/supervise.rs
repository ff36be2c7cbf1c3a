//! The supervised durable sampler: the one sampler loop of
//! [`crate::serving`] stepped through a [`DurablePdb`] (every interval
//! WAL-logged before acknowledgement), surviving storage faults and panics
//! by restart-from-recovery.
//!
//! [`SupervisedSampler::spawn`] is a thin constructor: it hands the loop a
//! durable store that differs from the in-memory one in four places — each
//! interval is logged, every `checkpoint_every` served intervals are
//! checkpointed, a stop flushes the group-commit tail, and a fault
//! restarts instead of ending the loop:
//!
//! * a **transient storage fault** (WAL append error, failed fsync,
//!   checkpoint I/O error) or a **panic** anywhere in the interval parks
//!   the typed error where every reader's [`EpochReader::status`] sees it,
//!   flips the state to [`SamplerState::Degraded`], and attempts bounded
//!   restart-from-recovery: re-open the store via
//!   [`ProbabilisticDB::recover_with_io`] (which truncates any torn WAL
//!   tail), verify the recovered state is internally synchronized, then the
//!   loop rebuilds the registered views and resumes publishing epochs — the
//!   epoch counter and the sample count keep rising monotonically across
//!   recoveries, so a pinned pre-fault epoch and a post-recovery epoch are
//!   ordered;
//! * an **evaluate or configuration error** is deterministic — retrying
//!   replays the same bug — so the sampler fails fast to
//!   [`SamplerState::Failed`] without burning restart attempts;
//! * after `max_restarts` consecutive failed restarts the sampler gives
//!   up: state [`SamplerState::Failed`], error parked, thread ends. A
//!   healthy interval refills the restart budget, so a sampler that
//!   recovers and serves for hours is not one fault away from giving up
//!   because of faults it already survived.
//!
//! Throughout every degraded window the already-published epochs remain
//! pinnable and consistent — readers lose *freshness*, never
//! *consistency* — which is what lets `fgdb-serve` answer `Unavailable`
//! with a retry hint instead of hanging or dying.
//!
//! What recovery deliberately resets: the registered views are rebuilt
//! from the recovered world, so full-run marginal averages and the
//! convergence window restart warm-up (the logged chain position
//! preserves the *trajectory*; the serving-layer diagnostics are
//! derived state and rebuild quickly). Durability is unaffected.

use crate::durable::{DurableError, DurablePdb};
use crate::pdb::ProbabilisticDB;
use crate::serving::{
    EpochReader, SamplerHandle, SamplerState, ServingConfig, ServingError, SharedStats, Store,
};
use fgdb_durability::{DurabilityConfig, StoreIo};
use fgdb_graph::Model;
use fgdb_mcmc::Proposer;
use fgdb_relational::DeltaSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Supervision knobs on top of the serving loop.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// The serving loop itself (thinning, publication, diagnostics).
    pub serving: ServingConfig,
    /// Consecutive failed recovery attempts before the supervisor gives
    /// up ([`SamplerState::Failed`]). A healthy interval resets the count.
    pub max_restarts: u32,
    /// Base pause before recovery attempt `n` (the pause is
    /// `restart_backoff_ms × n`, checked against the stop flag every few
    /// milliseconds so shutdown is never blocked on a backoff).
    pub restart_backoff_ms: u64,
    /// Committed intervals between automatic checkpoints (bounds WAL
    /// growth and recovery time); `0` disables automatic checkpointing.
    pub checkpoint_every: usize,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            serving: ServingConfig::default(),
            max_restarts: 3,
            restart_backoff_ms: 25,
            checkpoint_every: 64,
        }
    }
}

/// A model + proposer factory: recovery needs both again (they are code,
/// not data — exactly the [`ProbabilisticDB::recover`] contract).
pub type ModelFactory<M> = Box<dyn Fn() -> (M, Box<dyn Proposer>) + Send>;

/// The supervised sampler handle: like [`crate::LiveSampler`], but the
/// loop steps a [`DurablePdb`] and survives storage faults by bounded
/// restart-from-recovery.
pub struct SupervisedSampler<M> {
    handle: SamplerHandle<Supervised<M>>,
}

impl<M: Model + 'static> SupervisedSampler<M> {
    /// Validates and registers `queries`, publishes epoch 0 from the
    /// durable database's current state, and starts the sampler loop on
    /// its own thread. `factory` re-supplies the model and proposer at
    /// each recovery.
    pub fn spawn(
        durable: DurablePdb<M>,
        queries: &[(&str, &str)],
        config: SupervisorConfig,
        factory: ModelFactory<M>,
    ) -> Result<Self, ServingError> {
        let serving = config.serving.clone();
        let store = Supervised {
            durable,
            factory,
            config,
            since_checkpoint: 0,
            attempt: 0,
        };
        Ok(SupervisedSampler {
            handle: SamplerHandle::spawn(store, queries, serving)?,
        })
    }

    /// A reader handle (clone freely; hand to server worker threads).
    pub fn reader(&self) -> EpochReader {
        self.handle.reader()
    }

    /// Graceful shutdown: flags the loop, joins the thread, and returns
    /// the durable database with its group-commit tail flushed — or the
    /// error that had already killed (or was mid-way through degrading)
    /// the loop. After an `Err`, the store directory still holds the last
    /// durable state and can be recovered offline.
    pub fn stop(self) -> Result<DurablePdb<M>, ServingError> {
        self.handle.stop().map(|s| s.durable)
    }
}

/// The durable store under the sampler loop: a mounted [`DurablePdb`] plus
/// what checkpointing and restart-from-recovery need.
pub(crate) struct Supervised<M> {
    durable: DurablePdb<M>,
    factory: ModelFactory<M>,
    config: SupervisorConfig,
    /// Served intervals since the last checkpoint.
    since_checkpoint: usize,
    /// Consecutive restart attempts without a healthy interval between.
    attempt: u32,
}

impl<M: Model + 'static> Store for Supervised<M> {
    type Model = M;

    fn pdb(&self) -> &ProbabilisticDB<M> {
        self.durable.pdb()
    }

    fn step(&mut self, k: usize) -> Result<DeltaSet, ServingError> {
        Ok(self.durable.step(k)?)
    }

    fn served(&mut self) -> Result<(), ServingError> {
        // A healthy, logged interval refills the restart budget: only
        // *consecutive* failures give up.
        self.attempt = 0;
        self.since_checkpoint += 1;
        if self.config.checkpoint_every > 0 && self.since_checkpoint >= self.config.checkpoint_every
        {
            self.since_checkpoint = 0;
            self.durable.checkpoint()?;
        }
        Ok(())
    }

    fn sync(&mut self) -> Result<(), ServingError> {
        Ok(self.durable.sync()?)
    }

    /// Bounded restart-from-recovery: drop the faulted store, then up to
    /// `max_restarts` times (in [`SamplerState::Degraded`], after a backoff
    /// that polls the stop flag) re-open the directory through the same
    /// I/O handle and verify the recovered state is synchronized.
    fn restart(
        self,
        fault: ServingError,
        stats: &SharedStats,
        stop: &AtomicBool,
    ) -> Result<Self, ServingError> {
        // Storage faults and panics are worth a restart (transient media
        // errors, torn state a recovery repairs); evaluate and config
        // errors are deterministic bugs a retry only replays.
        let retryable = match &fault {
            ServingError::Durable(d) => !matches!(&**d, DurableError::Evaluate(_)),
            ServingError::Panicked(_) => true,
            ServingError::Evaluate(_) | ServingError::Sampler(_) | ServingError::Config(_) => false,
        };
        if !retryable {
            return Err(fault);
        }
        let Supervised {
            durable,
            factory,
            config,
            mut attempt,
            ..
        } = self;
        // Recovery inputs, then the faulted store is dropped (its drop
        // path flushes best effort; a poisoned WAL refuses further writes
        // anyway). From here until a recovery succeeds, the on-disk
        // directory is the single source of truth — exactly the crash
        // contract.
        let dir: PathBuf = durable.dir().to_path_buf();
        let io: Arc<dyn StoreIo> = durable.io();
        let dconfig: DurabilityConfig = durable.durability_config();
        drop(durable);
        loop {
            attempt += 1;
            if attempt > config.max_restarts {
                return Err(fault);
            }
            stats.set_state(SamplerState::Degraded {
                attempt,
                max_restarts: config.max_restarts,
            });
            if !backoff(
                stop,
                config.restart_backoff_ms.saturating_mul(attempt as u64),
            ) {
                // Stop requested mid-recovery: there is no live store to
                // hand back, but the directory remains recoverable.
                return Err(fault);
            }
            let recovered = catch_unwind(AssertUnwindSafe(|| {
                let (model, proposer) = factory();
                ProbabilisticDB::recover_with_io(Arc::clone(&io), &dir, model, proposer, dconfig)
            }));
            match recovered {
                Ok(Ok((durable, _report))) => {
                    // Verify before resuming: a recovered world that
                    // disagrees with its own store is fatal, not something
                    // to serve from.
                    durable.pdb().check_synchronized().map_err(|m| {
                        ServingError::Sampler(format!("recovered state failed verification: {m}"))
                    })?;
                    return Ok(Supervised {
                        durable,
                        factory,
                        config,
                        since_checkpoint: 0,
                        attempt,
                    });
                }
                Ok(Err(e)) => stats.set_error(Some(ServingError::from(e))),
                Err(payload) => stats.set_error(Some(ServingError::from_panic(payload))),
            }
        }
    }
}

/// Sleeps `total_ms`, polling the stop flag every few milliseconds so
/// shutdown is never blocked on a backoff. Returns false when stop was
/// requested.
fn backoff(stop: &AtomicBool, total_ms: u64) -> bool {
    let mut slept = 0u64;
    while slept < total_ms {
        if stop.load(Ordering::Acquire) {
            return false;
        }
        let chunk = (total_ms - slept).min(5);
        std::thread::sleep(Duration::from_millis(chunk));
        slept += chunk;
    }
    !stop.load(Ordering::Acquire)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{biased_token_pdb, relabel_proposer};
    use fgdb_durability::{FaultKind, FaultSchedule, FaultyIo, FsyncPolicy};
    use fgdb_graph::FactorGraph;
    use fgdb_relational::parser::paper_sql;

    const N: usize = 12;

    fn durable_fixture(
        io: Arc<dyn StoreIo>,
        dir: &std::path::Path,
    ) -> (DurablePdb<Arc<FactorGraph>>, ModelFactory<Arc<FactorGraph>>) {
        let pdb = biased_token_pdb(N, 4, 0xFA17);
        let model = Arc::clone(pdb.model());
        let durable = pdb
            .open_durable_with_io(
                io,
                dir,
                DurabilityConfig {
                    fsync: FsyncPolicy::Always,
                },
            )
            .unwrap();
        let factory: ModelFactory<Arc<FactorGraph>> =
            Box::new(move || (Arc::clone(&model), relabel_proposer(N)));
        (durable, factory)
    }

    fn config() -> SupervisorConfig {
        SupervisorConfig {
            serving: ServingConfig {
                thinning: 5,
                publish_every: 2,
                window: 32,
                ..ServingConfig::default()
            },
            max_restarts: 3,
            restart_backoff_ms: 1,
            checkpoint_every: 8,
        }
    }

    #[test]
    fn supervised_sampler_serves_and_stops_cleanly() {
        let dir = fgdb_durability::test_dir("supervise_clean");
        let (durable, factory) = durable_fixture(fgdb_durability::real_io(), &dir);
        let q1 = paper_sql::query1("TOKEN");
        let sampler =
            SupervisedSampler::spawn(durable, &[("q1", q1.as_str())], config(), factory).unwrap();
        let reader = sampler.reader();
        while reader.status().epoch < 2 {
            std::thread::yield_now();
        }
        assert_eq!(reader.status().state, SamplerState::Running);
        let durable = sampler.stop().unwrap();
        assert!(durable.steps_taken() > 0);
        durable.pdb().check_synchronized().unwrap();
        assert_eq!(reader.status().state, SamplerState::Stopped);
        // Everything acknowledged is on disk: a recovery replays to the
        // same world.
        let world = durable.world().assignment().to_vec();
        let model = Arc::clone(durable.pdb().model());
        drop(durable);
        let (recovered, _) = ProbabilisticDB::recover(
            &dir,
            model,
            relabel_proposer(N),
            DurabilityConfig::default(),
        )
        .unwrap();
        assert_eq!(recovered.world().assignment(), &world[..]);
    }

    #[test]
    fn transient_fault_degrades_then_auto_resumes() {
        let dir = fgdb_durability::test_dir("supervise_transient");
        let fio = FaultyIo::new(FaultSchedule::none());
        let io: Arc<dyn StoreIo> = Arc::new(fio.clone());
        let (durable, factory) = durable_fixture(io, &dir);
        let q1 = paper_sql::query1("TOKEN");
        let sampler =
            SupervisedSampler::spawn(durable, &[("q1", q1.as_str())], config(), factory).unwrap();
        let reader = sampler.reader();
        while reader.status().epoch < 1 {
            std::thread::yield_now();
        }
        let pinned = reader.pin();
        let pinned_answer = pinned.query(&paper_sql::query1("TOKEN")).unwrap();
        let epoch_before = pinned.epoch;

        // One transient WAL write failure. The supervisor must degrade,
        // recover, and resume publishing — without outside help.
        fio.inject_now(FaultKind::WriteErr);
        while reader.status().epoch <= epoch_before + 1 {
            std::thread::yield_now();
        }
        // Saw new epochs after the fault; state is Running again and the
        // transient error was cleared on resume.
        let status = reader.status();
        assert_eq!(status.state, SamplerState::Running);
        assert!(status.error.is_none(), "recovered error must be cleared");
        // The pre-fault pinned epoch stayed immutable through recovery.
        let again = pinned.query(&paper_sql::query1("TOKEN")).unwrap();
        assert_eq!(
            pinned_answer.rows.sorted_entries(),
            again.rows.sorted_entries()
        );
        assert_eq!(pinned.epoch, epoch_before);
        let durable = sampler.stop().unwrap();
        durable.pdb().check_synchronized().unwrap();
    }

    #[test]
    fn epoch_sample_count_never_falls_across_a_recovery() {
        let dir = fgdb_durability::test_dir("supervise_samples");
        let fio = FaultyIo::new(FaultSchedule::none());
        let io: Arc<dyn StoreIo> = Arc::new(fio.clone());
        let (durable, factory) = durable_fixture(io, &dir);
        // No registered query: the count must not depend on one.
        let sampler = SupervisedSampler::spawn(durable, &[], config(), factory).unwrap();
        let reader = sampler.reader();
        let mut seen = Vec::new();
        let mut watch = |until: u64| loop {
            let epoch = reader.pin();
            // Every committed interval is one sample of `thinning` (5)
            // steps, before and after recovery alike.
            assert_eq!(epoch.samples * 5, epoch.steps, "epoch {}", epoch.epoch);
            if seen.last() != Some(&(epoch.epoch, epoch.samples)) {
                seen.push((epoch.epoch, epoch.samples));
            }
            if epoch.epoch >= until {
                return epoch.epoch;
            }
            std::thread::yield_now();
        };
        let before = watch(3);
        let fired = fio.fired().len();
        fio.inject_now(FaultKind::WriteErr);
        while fio.fired().len() == fired {
            std::thread::yield_now();
        }
        watch(before + 4);
        assert!(seen.windows(2).all(|w| w[0].1 <= w[1].1), "{seen:?}");
        assert!(seen.last().is_some_and(|&(_, samples)| samples > 0));
        let status = reader.status();
        assert_eq!(status.state, SamplerState::Running);
        sampler.stop().unwrap();
    }

    #[test]
    fn sticky_crash_exhausts_restarts_and_fails_without_hanging() {
        let dir = fgdb_durability::test_dir("supervise_crash");
        let fio = FaultyIo::new(FaultSchedule::none());
        let io: Arc<dyn StoreIo> = Arc::new(fio.clone());
        let (durable, factory) = durable_fixture(io, &dir);
        let q1 = paper_sql::query1("TOKEN");
        let sampler =
            SupervisedSampler::spawn(durable, &[("q1", q1.as_str())], config(), factory).unwrap();
        let reader = sampler.reader();
        while reader.status().epoch < 1 {
            std::thread::yield_now();
        }
        // A sticky crash: every recovery through this I/O handle fails
        // too, so the supervisor must exhaust its budget and park Failed.
        fio.inject_now(FaultKind::Crash {
            partial_write: true,
        });
        while reader.status().state != SamplerState::Failed {
            std::thread::yield_now();
        }
        let status = reader.status();
        assert!(status.error.is_some(), "terminal error is parked");
        assert!(!status.running);
        // stop() returns promptly with the typed error — no hang.
        let err = match sampler.stop() {
            Ok(_) => panic!("a failed sampler must not stop cleanly"),
            Err(e) => e,
        };
        assert!(matches!(
            err,
            ServingError::Durable(_) | ServingError::Sampler(_)
        ));
        // The directory is still recoverable offline through a fresh
        // handle, with no acknowledged interval lost.
        let pdb = biased_token_pdb(N, 4, 0xFA17);
        let model = Arc::clone(pdb.model());
        drop(pdb);
        let (recovered, _) = ProbabilisticDB::recover(
            &dir,
            model,
            relabel_proposer(N),
            DurabilityConfig::default(),
        )
        .unwrap();
        recovered.pdb().check_synchronized().unwrap();
    }
}
