//! The traced interval replay: the sampler loop's work, re-done step by
//! step through public calls on replicas that share the production
//! sampler's seed, with a span around each call.
//!
//! Per interval, in the order the serving loops use:
//! 1. `Chain::run(k)` + `Chain::take_changes` on a replica chain
//!    (`mcmc.walk`);
//! 2. `ProbabilisticDB::apply_logged_interval` on a twin database
//!    (`relational.write_back`);
//! 3. durable runs only: `DurablePdb::step(k)` on a durable twin
//!    (`durability.step`). It repeats steps 1-2 inside, so those two spans
//!    are attributed to it and its self time is the WAL work;
//! 4. per registered query, `MaterializedView::try_apply_delta`
//!    (`view.apply.qN`) and `MarginalTable::record` (`core.marginals_record.qN`);
//! 5. every `publish_every` intervals, `Database::snapshot`
//!    (`core.publish_snapshot`), each answer's clone plus
//!    `MarginalTable::probabilities` (`core.publish_status`), and the
//!    drop of the previous publication (`core.publish_drop`);
//! 6. durable runs only, every `checkpoint_every` intervals,
//!    `DurablePdb::checkpoint` (`durability.checkpoint`).

use crate::countio::{IoCount, IoCounters};
use crate::stack::proposer_for;
use crate::trace::{SpanId, Tracer, NONE};
use crate::workload::durability_config;
use fgdb_bench::NerSetup;
use fgdb_core::{DurablePdb, MarginalTable, ProbabilisticDB};
use fgdb_durability::StoreIo;
use fgdb_ie::Crf;
use fgdb_mcmc::Chain;
use fgdb_relational::{compile_query, CountedSet, Database, MaterializedView, Tuple};
use std::path::Path;
use std::sync::Arc;

/// Span names of the per-query layers, indexed by registration order.
pub const VIEW_APPLY: [&str; 4] = [
    "view.apply.q1",
    "view.apply.q2",
    "view.apply.q3",
    "view.apply.q4",
];
/// See [`VIEW_APPLY`].
pub const MARGINALS_RECORD: [&str; 4] = [
    "core.marginals_record.q1",
    "core.marginals_record.q2",
    "core.marginals_record.q3",
    "core.marginals_record.q4",
];

/// How often the replayed loop publishes and checkpoints.
#[derive(Clone, Copy, Debug)]
pub struct Cadence {
    /// Walk-steps per interval.
    pub k: usize,
    /// Intervals between publications (0: never).
    pub publish_every: u64,
    /// Intervals between checkpoints (0: never; durable twins only).
    pub checkpoint_every: u64,
}

/// Counts gathered over the recorded intervals.
#[derive(Clone, Debug, Default)]
pub struct ReplayCounts {
    /// Intervals recorded.
    pub intervals: u64,
    /// Publications recorded.
    pub publications: u64,
    /// Checkpoints recorded.
    pub checkpoints: u64,
    /// Walk proposals over the recorded intervals.
    pub proposals: u64,
    /// Accepted proposals over the recorded intervals.
    pub accepted: u64,
    /// Sum of `DeltaSet::magnitude` over the recorded intervals.
    pub delta_rows: u64,
    /// Per query: delta rows the view processed.
    pub view_delta_rows: Vec<u64>,
    /// Per query: sum of the answer's support size after each interval.
    pub answer_support: Vec<u64>,
    /// Device work of the recorded `DurablePdb::step` calls.
    pub io_step: IoCount,
    /// Device work of the recorded `DurablePdb::checkpoint` calls.
    pub io_checkpoint: IoCount,
}

struct Durable {
    pdb: DurablePdb<Arc<Crf>>,
    io: Arc<IoCounters>,
}

struct Registered {
    view: MaterializedView,
    table: MarginalTable,
}

/// The last publication, held (like the production epoch cell holds
/// its epoch) until the next one replaces it.
type Published = (Database, Vec<(CountedSet, Vec<(Tuple, f64)>)>);

/// A replayable interval loop.
pub struct Replay {
    chain_seed: u64,
    cadence: Cadence,
    chain: Chain<Arc<Crf>>,
    twin: ProbabilisticDB<Arc<Crf>>,
    durable: Option<Durable>,
    queries: Vec<Registered>,
    interval: u64,
    published: Option<Published>,
    /// Counts over the recorded intervals.
    pub counts: ReplayCounts,
}

impl Replay {
    /// The replay of a production sampler built from `setup` with
    /// `chain_seed`: a replica chain and a twin database from the same
    /// initial state, plus a durable twin on `store` when given, and every
    /// query materialized as a view.
    pub fn from_start(
        setup: &NerSetup,
        chain_seed: u64,
        queries: &[(String, String)],
        cadence: Cadence,
        store: Option<(&Path, Arc<dyn StoreIo>, Arc<IoCounters>)>,
    ) -> Result<Replay, String> {
        let model = Arc::clone(&setup.model);
        let chain = Chain::new(
            Arc::clone(&model),
            proposer_for(&model),
            model.new_world(),
            chain_seed,
        );
        let twin = setup.pdb(chain_seed);
        let durable = match store {
            Some((dir, io, counters)) => Some(Durable {
                pdb: setup
                    .pdb(chain_seed)
                    .open_durable_with_io(io, dir, durability_config())
                    .map_err(|e| format!("mount durable twin: {e}"))?,
                io: counters,
            }),
            None => None,
        };
        let mut registered = Vec::with_capacity(queries.len());
        for (name, sql) in queries {
            let plan = compile_query(sql, twin.database()).map_err(|e| format!("{name}: {e}"))?;
            let view = MaterializedView::new(&plan, twin.database())
                .map_err(|e| format!("{name}: {e}"))?;
            let mut table = MarginalTable::new();
            table.record(view.result());
            registered.push(Registered { view, table });
        }
        let n = registered.len();
        Ok(Replay {
            chain_seed,
            cadence,
            chain,
            twin,
            durable,
            queries: registered,
            interval: 0,
            published: None,
            counts: ReplayCounts {
                view_delta_rows: vec![0; n],
                answer_support: vec![0; n],
                ..ReplayCounts::default()
            },
        })
    }

    /// Turns this replay's twin, at its current world, into a durable
    /// probe: the twin is mounted on `dir` and a fresh replica chain is
    /// built in the state the twin's own (never stepped) chain is in, so
    /// the replica repeats exactly what `DurablePdb::step` does. No views.
    pub fn into_durable_probe(
        self,
        dir: &Path,
        io: Arc<dyn StoreIo>,
        counters: Arc<IoCounters>,
        cadence: Cadence,
    ) -> Result<Replay, String> {
        let model = Arc::clone(self.twin.model());
        let chain = Chain::new(
            Arc::clone(&model),
            proposer_for(&model),
            self.twin.world().clone(),
            self.chain_seed,
        );
        let write_twin = self.twin.snapshot(proposer_for(&model), 0);
        let pdb = self
            .twin
            .open_durable_with_io(io, dir, durability_config())
            .map_err(|e| format!("mount durable probe: {e}"))?;
        Ok(Replay {
            chain_seed: self.chain_seed,
            cadence,
            chain,
            twin: write_twin,
            durable: Some(Durable { pdb, io: counters }),
            queries: Vec::new(),
            interval: 0,
            published: None,
            counts: ReplayCounts::default(),
        })
    }

    /// Intervals replayed so far (recorded or not).
    pub fn intervals(&self) -> u64 {
        self.interval
    }

    /// Replays one interval. Spans and counts are recorded only while
    /// the tracer is enabled.
    pub fn interval(&mut self, tr: &mut Tracer) -> Result<(), String> {
        self.interval += 1;
        let id = self.interval;
        let recording = tr.enabled();
        let k = self.cadence.k;
        let root = tr.open(id, NONE, "interval");
        let before = self.chain.stats();

        let t0 = tr.now();
        self.chain.run(k);
        let changes = self.chain.take_changes();
        let t1 = tr.now();
        let replica_delta = self
            .twin
            .apply_logged_interval(&changes)
            .map_err(|e| format!("write-back: {e}"))?;
        let t2 = tr.now();

        let (delta, parent): (_, SpanId) = match &mut self.durable {
            Some(d) => {
                let io0 = d.io.read();
                let s = tr.now();
                let delta = d.pdb.step(k).map_err(|e| format!("durable step: {e}"))?;
                let e = tr.now();
                if recording {
                    let io = d.io.read().since(io0);
                    add_io(&mut self.counts.io_step, io);
                }
                if delta.magnitude() != replica_delta.magnitude() {
                    return Err(format!(
                        "replica diverged from the durable twin at interval {id}"
                    ));
                }
                (delta, tr.record(id, root, "durability.step", s, e))
            }
            None => (replica_delta, root),
        };
        tr.record(id, parent, "mcmc.walk", t0, t1);
        tr.record(id, parent, "relational.write_back", t1, t2);

        for (qi, r) in self.queries.iter_mut().enumerate() {
            let rows0 = r.view.stats().delta_rows_processed;
            let view = &mut r.view;
            tr.time(id, root, VIEW_APPLY[qi], || view.try_apply_delta(&delta))
                .map_err(|e| format!("view q{}: {e}", qi + 1))?;
            let answer = r.view.result();
            let table = &mut r.table;
            tr.time(id, root, MARGINALS_RECORD[qi], || table.record(answer));
            if recording {
                self.counts.view_delta_rows[qi] += r.view.stats().delta_rows_processed - rows0;
                self.counts.answer_support[qi] += answer.distinct_len() as u64;
            }
        }

        if self.cadence.publish_every > 0 && id.is_multiple_of(self.cadence.publish_every) {
            let db = match &self.durable {
                Some(d) => d.pdb.database(),
                None => self.twin.database(),
            };
            let snap = tr.time(id, root, "core.publish_snapshot", || db.snapshot());
            let queries = &self.queries;
            let statuses = tr.time(id, root, "core.publish_status", || {
                queries
                    .iter()
                    .map(|r| (r.view.result().clone(), r.table.probabilities()))
                    .collect()
            });
            // Replacing the held publication drops the previous one, as
            // the production epoch cell does when it swaps epochs.
            let previous = self.published.replace((snap, statuses));
            tr.time(id, root, "core.publish_drop", || drop(previous));
            if recording {
                self.counts.publications += 1;
            }
        }

        if let Some(d) = &mut self.durable {
            if self.cadence.checkpoint_every > 0 && id.is_multiple_of(self.cadence.checkpoint_every)
            {
                let io0 = d.io.read();
                let pdb = &mut d.pdb;
                tr.time(id, root, "durability.checkpoint", || pdb.checkpoint())
                    .map_err(|e| format!("checkpoint: {e}"))?;
                if recording {
                    add_io(&mut self.counts.io_checkpoint, d.io.read().since(io0));
                    self.counts.checkpoints += 1;
                }
            }
        }

        tr.close(root);
        if recording {
            let after = self.chain.stats();
            self.counts.intervals += 1;
            self.counts.proposals += after.proposals - before.proposals;
            self.counts.accepted += after.accepted - before.accepted;
            self.counts.delta_rows += delta.magnitude() as u64;
        }
        Ok(())
    }
}

fn add_io(total: &mut IoCount, more: IoCount) {
    total.bytes += more.bytes;
    total.writes += more.writes;
    total.syncs += more.syncs;
}
