//! The probabilistic database: one stored world + a factor graph + MCMC.
//!
//! §3 of the paper: "the underlying relational database always represents a
//! single world, and an external factor graph encodes a distribution over
//! possible worlds". §5 describes the bridge our [`ProbabilisticDB`]
//! implements: "(1) retrieving tuples from disk and then instantiating the
//! corresponding random variables in memory, and (2) propagating changes to
//! random variables back to the tuples on disk. Statistical inference (MCMC)
//! is performed on variables in main memory while query execution is
//! performed on disk by the DBMS."
//!
//! A [`FieldBinding`] maps each hidden variable to a `(row, column)` of the
//! stored relation. One interval pipeline serves every caller:
//! [`ProbabilisticDB::step`] walks the MH walkers (a [`ShardedSampler`],
//! single-shard unless [`ProbabilisticDB::shard`] re-partitioned it),
//! merges their net variable changes into one batch, and commits it at the
//! merge point — batch validation against the master world, then
//! write-back — so the resulting tuple pre/post-images become the Δ⁻/Δ⁺
//! [`DeltaSet`] that drives view maintenance. WAL replay
//! ([`ProbabilisticDB::apply_logged_interval`]) commits through the same
//! merge point, and a rejected batch has one rollback path: the walkers are
//! resynchronized from the master world.

use crate::evaluate::EvaluateError;
use fgdb_graph::{FactorSpans, Model, ShardMap, VariableId, World};
use fgdb_mcmc::{KernelStats, NetChange, Proposer, ShardedSampler};
use fgdb_relational::{
    compile_query, execute, Database, DeltaSet, ExecStats, QueryResult, RowId, Value,
};
use std::sync::Arc;

/// Maps hidden variables to uncertain fields of one relation.
///
/// Variable `i` controls column `column` of row `rows[i]`. The variable's
/// domain values are the field values written back.
#[derive(Clone)]
pub struct FieldBinding {
    /// Relation holding the uncertain fields.
    pub relation: Arc<str>,
    /// Column index of the uncertain attribute (e.g. LABEL).
    pub column: usize,
    /// Row of each variable, indexed by `VariableId`.
    pub rows: Vec<RowId>,
}

impl FieldBinding {
    /// Builds a binding after validating the rows exist.
    pub fn new(
        db: &Database,
        relation: impl Into<Arc<str>>,
        column: &str,
        rows: Vec<RowId>,
    ) -> Result<Self, String> {
        let relation = relation.into();
        let rel = db
            .relation(&relation)
            .map_err(|e| format!("binding relation: {e}"))?;
        let column = rel
            .schema()
            .index_of(column)
            .ok_or_else(|| format!("no column `{column}` in {relation}"))?;
        for (i, r) in rows.iter().enumerate() {
            if rel.get(*r).is_none() {
                return Err(format!("variable {i} bound to dead row {r}"));
            }
        }
        Ok(FieldBinding {
            relation,
            column,
            rows,
        })
    }
}

/// A probabilistic database: deterministic store + model + MCMC walkers.
///
/// The walkers are a [`ShardedSampler`]: one shard by default (the
/// sequential chain), re-partitioned with [`ProbabilisticDB::shard`]. The
/// *master* world is the committed variable assignment, the one the store
/// mirrors; walkers run ahead of it during an interval and are snapped back
/// to it when the merge point rejects their batch.
pub struct ProbabilisticDB<M> {
    db: Database,
    world: World,
    walkers: ShardedSampler<M>,
    binding: FieldBinding,
    last_changes: Vec<NetChange>,
}

impl<M: Model> ProbabilisticDB<M> {
    /// Assembles a probabilistic database. The world must already agree with
    /// the stored field values (both are normally initialized to the same
    /// default, e.g. label "O"). Sampling starts single-shard: one walker
    /// with `proposer`, seeded with `seed`.
    ///
    /// # Errors
    /// Returns an error when the binding disagrees with the world's variable
    /// count or the stored values do not match the world.
    pub fn new(
        db: Database,
        model: M,
        proposer: Box<dyn Proposer>,
        world: World,
        binding: FieldBinding,
        seed: u64,
    ) -> Result<Self, String> {
        if binding.rows.len() != world.num_variables() {
            return Err(format!(
                "binding covers {} rows but world has {} variables",
                binding.rows.len(),
                world.num_variables()
            ));
        }
        {
            let rel = db.relation(&binding.relation).map_err(|e| e.to_string())?;
            for v in world.variables() {
                let stored = rel
                    .get(binding.rows[v.index()])
                    .expect("validated in FieldBinding::new")
                    .get(binding.column);
                if stored != world.value(v) {
                    return Err(format!(
                        "world/database disagree at {v}: stored {stored}, world {}",
                        world.value(v)
                    ));
                }
            }
        }
        Ok(ProbabilisticDB {
            db,
            walkers: ShardedSampler::single(model, proposer, world.clone(), seed),
            world,
            binding,
            last_changes: Vec::new(),
        })
    }

    /// The current deterministic world (for query execution).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Answers a SQL query against the *current* stored world: parse →
    /// optimize → one-shot execution. This is the deterministic query
    /// surface; for probabilistic (marginal) answers drive the same text
    /// through [`crate::evaluate::QueryEvaluator`] or
    /// [`crate::engine::ParallelEngine::query`].
    ///
    /// # Errors
    /// Returns [`EvaluateError::Query`] on malformed SQL or unresolvable
    /// names, [`EvaluateError::Exec`] on execution failures. Never panics on
    /// user input.
    pub fn query(&self, sql: &str) -> Result<QueryResult, EvaluateError> {
        self.query_with_stats(sql).map(|(r, _)| r)
    }

    /// [`Self::query`], also returning the executor's work counters (tuples
    /// scanned, rows processed, intermediate tuples built).
    pub fn query_with_stats(&self, sql: &str) -> Result<(QueryResult, ExecStats), EvaluateError> {
        let plan = compile_query(sql, &self.db)?;
        Ok(execute(&plan, &self.db)?)
    }

    /// The committed (master) variable assignment.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// The model.
    pub fn model(&self) -> &M {
        self.walkers.model()
    }

    /// Kernel statistics (proposals, acceptance, factor evaluations),
    /// summed over the walkers.
    pub fn kernel_stats(&self) -> KernelStats {
        self.walkers.stats()
    }

    /// Total MCMC steps taken, summed over the walkers.
    pub fn steps_taken(&self) -> u64 {
        self.walkers.steps_taken()
    }

    /// The walkers (read-only): shard count, per-shard worlds, RNG states.
    pub fn walkers(&self) -> &ShardedSampler<M> {
        &self.walkers
    }

    /// The net variable changes the last successful [`Self::step`]
    /// committed, sorted by variable — the replay script the durability
    /// layer logs with the interval (see [`crate::durable`]). Empty after a
    /// rejected step.
    pub fn last_changes(&self) -> &[NetChange] {
        &self.last_changes
    }

    /// Runs `k` MH walk-steps in every shard (the thinning interval of
    /// Algorithm 3), merges the walkers' net variable changes into one
    /// batch, commits it through [`Self::apply_logged_interval`]'s
    /// validation and write-back, and returns the resulting Δ⁻/Δ⁺ delta
    /// set. With one shard this is the sequential chain, bit for bit.
    ///
    /// The naive evaluator ignores the returned deltas and re-runs its
    /// query; the materialized evaluator feeds them to its views.
    ///
    /// # Errors
    /// As [`Self::apply_logged_interval`]. On error nothing is written and
    /// every walker is resynchronized from the master world, so the
    /// database stays usable.
    pub fn step(&mut self, k: usize) -> Result<DeltaSet, EvaluateError> {
        self.walkers.walk(k);
        let changes = self.walkers.drain_merged();
        match self.commit(&changes) {
            Ok(deltas) => {
                self.last_changes = changes;
                Ok(deltas)
            }
            Err(e) => {
                // The merge point rejected the batch (a malformed change
                // source, a desynced walker): snap every walker back to
                // the master world so the next interval starts from
                // agreed state.
                self.walkers.resync_from(&self.world);
                self.last_changes.clear();
                Err(e)
            }
        }
    }

    /// Replays one logged interval: applies the net changes to the master
    /// world and every walker, and writes them through to the store,
    /// returning the recomputed delta set. This is the WAL recovery path;
    /// it runs the same batch validation and write-back as [`Self::step`],
    /// so a record that would have been rejected live is rejected on
    /// replay too.
    ///
    /// # Errors
    /// [`EvaluateError::Model`] when a change names a variable or domain
    /// index outside the world, or its old index disagrees with the current
    /// world (the log does not describe this state);
    /// [`EvaluateError::Storage`] on write-back failures.
    pub fn apply_logged_interval(
        &mut self,
        changes: &[NetChange],
    ) -> Result<DeltaSet, EvaluateError> {
        let deltas = self.commit(changes)?;
        self.walkers.advance(changes);
        Ok(deltas)
    }

    /// The merge point: validates a whole net-change batch against the
    /// master world before writing anything (an error mid-batch must not
    /// leave the store holding updates whose deltas were discarded — views
    /// fed such a stream would silently diverge), then advances the master
    /// world and writes the batch through to the stored relation.
    fn commit(&mut self, changes: &[NetChange]) -> Result<DeltaSet, EvaluateError> {
        for &(v, old_idx, new_idx) in changes {
            let in_world = v.index() < self.world.num_variables();
            if !in_world || self.world.domain(v).get(new_idx).is_none() {
                return Err(EvaluateError::Model(
                    fgdb_graph::ModelError::ValueNotInDomain {
                        variable: v,
                        value: format!("<domain index {new_idx}>"),
                    },
                ));
            }
            if self.world.get(v) != old_idx {
                return Err(EvaluateError::Model(
                    fgdb_graph::ModelError::ValueNotInDomain {
                        variable: v,
                        value: format!(
                            "<logged old index {old_idx} vs world {}>",
                            self.world.get(v)
                        ),
                    },
                ));
            }
        }
        let mut deltas = DeltaSet::new();
        let rel = self
            .db
            .relation_mut(&self.binding.relation)
            .expect("binding validated at construction");
        for &(v, _old_idx, new_idx) in changes {
            self.world.set(v, new_idx);
            let value: Value = self.world.value(v).clone();
            let row = self.binding.rows[v.index()];
            let (old, new) = rel
                .update_field(row, self.binding.column, value)
                .map_err(EvaluateError::Storage)?;
            deltas.record_update(&self.binding.relation, old, new);
        }
        // Interval-boundary compaction (the paper's "cleaning and refreshing
        // of the tables ... between deterministic query executions"): record
        // operations above are amortized O(1); empty per-relation entries
        // left by exact ± cancellation are dropped once per interval here.
        deltas.compact();
        Ok(deltas)
    }

    /// Re-partitions sampling at an interval boundary: one independent MH
    /// walker per shard of `map`, each confined to its shard's variables
    /// (see [`fgdb_mcmc::sharded`]), proposing with
    /// `proposer_for(shard, vars)` and seeded with
    /// [`fgdb_mcmc::shard_seed`]`(base_seed, shard)`. The walkers start
    /// from the master world; the retired walkers' lifetime counters carry
    /// over, so [`Self::steps_taken`] and [`Self::kernel_stats`] keep
    /// counting.
    ///
    /// The map is validated against the model first — a factor spanning
    /// two shards would let a walker score against stale foreign state, so
    /// such maps are rejected here rather than sampled incorrectly.
    ///
    /// # Errors
    /// Returns an error when the map does not cover the world's variables
    /// or a factor's scope crosses a shard boundary; the current walkers
    /// stay in place.
    pub fn shard(
        &mut self,
        map: &ShardMap,
        proposer_for: impl FnMut(usize, &[VariableId]) -> Box<dyn Proposer>,
        base_seed: u64,
    ) -> Result<(), String>
    where
        M: Clone + FactorSpans,
    {
        map.validate(self.model())
            .map_err(|e| format!("shard map rejected: {e}"))?;
        let mut walkers =
            ShardedSampler::new(self.model(), &self.world, map, proposer_for, base_seed)
                .map_err(|e| format!("sharded sampler: {e}"))?;
        walkers.restore_shard(
            0,
            walkers.shard_rng_state(0),
            self.steps_taken(),
            self.kernel_stats(),
        );
        self.walkers = walkers;
        Ok(())
    }

    /// The variable ↔ field binding.
    pub fn binding(&self) -> &FieldBinding {
        &self.binding
    }

    /// Shard 0's serialized RNG state (see [`fgdb_mcmc::Chain::rng_state`]) — the
    /// whole chain position with one shard, which is what the durability
    /// layer logs.
    pub fn rng_state(&self) -> [u8; 32] {
        self.walkers.shard_rng_state(0)
    }

    /// Restores the single-shard chain position persisted by the
    /// durability layer: RNG state plus lifetime counters. Only meaningful
    /// at an interval boundary, which recovery guarantees.
    pub(crate) fn restore_chain_position(
        &mut self,
        rng_state: [u8; 32],
        steps_taken: u64,
        stats: KernelStats,
    ) {
        self.walkers.restore_shard(0, rng_state, steps_taken, stats);
    }

    /// Snapshots this probabilistic database into an independent
    /// replica — §5.4's "identical copies of the initial world". The stored
    /// world is shared copy-on-write (see [`Database::snapshot`]: one
    /// pointer per storage chunk, and a chunk copy on the first write to
    /// it), the in-memory
    /// variable assignment is copied, the model is cloned (models meant for
    /// replication are `Arc`-shared, so this is a refcount bump), and the
    /// replica gets its own proposer and a fresh RNG stream seeded with
    /// `seed`. Replica MCMC steps never touch this database, and vice versa.
    ///
    /// The replica samples single-shard from this database's master world,
    /// so it starts exactly synchronized whatever this database's sharding.
    pub fn snapshot(&self, proposer: Box<dyn Proposer>, seed: u64) -> ProbabilisticDB<M>
    where
        M: Clone,
    {
        ProbabilisticDB {
            db: self.db.snapshot(),
            walkers: ShardedSampler::single(
                self.model().clone(),
                proposer,
                self.world.clone(),
                seed,
            ),
            world: self.world.clone(),
            binding: self.binding.clone(),
            last_changes: Vec::new(),
        }
    }

    /// Checks that every bound field equals its variable's value — the
    /// world/store synchronization invariant. Test and debugging aid.
    pub fn check_synchronized(&self) -> Result<(), String> {
        let rel = self
            .db
            .relation(&self.binding.relation)
            .map_err(|e| e.to_string())?;
        for v in self.world.variables() {
            let stored = rel
                .get(self.binding.rows[v.index()])
                .ok_or_else(|| format!("row vanished for {v}"))?
                .get(self.binding.column);
            if stored != self.world.value(v) {
                return Err(format!(
                    "desync at {v}: stored {stored} vs world {}",
                    self.world.value(v)
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgdb_graph::{Domain, FactorGraph, TableFactor, VariableId};
    use fgdb_mcmc::UniformRelabel;
    use fgdb_relational::{Schema, Tuple, ValueType};

    /// Two-row relation whose `state` field is uncertain over {"a","b"}.
    fn setup() -> (Database, World, Vec<RowId>, FactorGraph) {
        let mut db = Database::new();
        let schema = Schema::from_pairs(&[("id", ValueType::Int), ("state", ValueType::Str)])
            .unwrap()
            .with_primary_key("id")
            .unwrap();
        db.create_relation("T", schema).unwrap();
        let mut rows = Vec::new();
        for i in 0..2i64 {
            rows.push(
                db.relation_mut("T")
                    .unwrap()
                    .insert(Tuple::from_iter_values([Value::Int(i), Value::str("a")]))
                    .unwrap(),
            );
        }
        let d = Domain::of_labels(&["a", "b"]);
        let world = World::new(vec![d.clone(), d]);
        let mut g = FactorGraph::new();
        g.add_factor(Box::new(TableFactor::new(
            vec![VariableId(0)],
            vec![2],
            vec![0.0, 1.5],
            "bias",
        )));
        (db, world, rows, g)
    }

    fn build() -> ProbabilisticDB<FactorGraph> {
        let (db, world, rows, g) = setup();
        let binding = FieldBinding::new(&db, "T", "state", rows).unwrap();
        ProbabilisticDB::new(
            db,
            g,
            Box::new(UniformRelabel::new(vec![VariableId(0), VariableId(1)])),
            world,
            binding,
            42,
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_agreement() {
        let (db, mut world, rows, g) = setup();
        world.set(VariableId(0), 1); // world says "b", store says "a"
        let binding = FieldBinding::new(&db, "T", "state", rows).unwrap();
        let err = ProbabilisticDB::new(
            db,
            g,
            Box::new(UniformRelabel::new(vec![VariableId(0)])),
            world,
            binding,
            1,
        );
        assert!(err.is_err());
    }

    #[test]
    fn binding_validates_rows_and_columns() {
        let (db, _, mut rows, _) = setup();
        assert!(FieldBinding::new(&db, "T", "nope", rows.clone()).is_err());
        assert!(FieldBinding::new(&db, "U", "state", rows.clone()).is_err());
        rows.push(RowId(99));
        assert!(FieldBinding::new(&db, "T", "state", rows).is_err());
    }

    #[test]
    fn binding_arity_must_match_world() {
        let (db, world, mut rows, g) = setup();
        rows.pop();
        let binding = FieldBinding::new(&db, "T", "state", rows).unwrap();
        assert!(ProbabilisticDB::new(
            db,
            g,
            Box::new(UniformRelabel::new(vec![VariableId(0)])),
            world,
            binding,
            1
        )
        .is_err());
    }

    #[test]
    fn step_keeps_world_and_store_synchronized() {
        let mut pdb = build();
        for _ in 0..20 {
            let deltas = pdb.step(10).unwrap();
            pdb.check_synchronized().unwrap();
            // Deltas touch only relation T.
            for r in deltas.relations() {
                assert_eq!(&**r, "T");
            }
        }
        assert_eq!(pdb.steps_taken(), 200);
        assert!(pdb.kernel_stats().proposals == 200);
    }

    #[test]
    fn deltas_reflect_net_field_changes() {
        let mut pdb = build();
        // Run until some delta appears (free variable 1 flips freely).
        let mut saw_delta = false;
        for _ in 0..50 {
            let deltas = pdb.step(5).unwrap();
            if !deltas.is_empty() {
                saw_delta = true;
                // Removed and added tuple counts balance (updates only).
                let removed = deltas.removed("T");
                let added = deltas.added("T");
                assert_eq!(removed.total(), added.total());
            }
        }
        assert!(saw_delta);
    }

    #[test]
    fn no_change_means_empty_delta() {
        let mut pdb = build();
        let d = pdb.step(0).unwrap();
        assert!(d.is_empty());
    }

    #[test]
    fn snapshot_replicas_are_isolated() {
        let (db, world, rows, g) = setup();
        let binding = FieldBinding::new(&db, "T", "state", rows).unwrap();
        let vars = vec![VariableId(0), VariableId(1)];
        let pdb = ProbabilisticDB::new(
            db,
            Arc::new(g),
            Box::new(UniformRelabel::new(vars.clone())),
            world,
            binding,
            42,
        )
        .unwrap();
        let before: Vec<_> = pdb
            .database()
            .relation("T")
            .unwrap()
            .tuples()
            .cloned()
            .collect();

        let mut replica = pdb.snapshot(Box::new(UniformRelabel::new(vars)), 7);
        for _ in 0..30 {
            replica.step(5).unwrap();
            replica.check_synchronized().unwrap();
        }
        assert_eq!(replica.steps_taken(), 150);

        // Replica deltas never leak into the seed database.
        let after: Vec<_> = pdb
            .database()
            .relation("T")
            .unwrap()
            .tuples()
            .cloned()
            .collect();
        assert_eq!(before, after);
        pdb.check_synchronized().unwrap();
        assert_eq!(pdb.steps_taken(), 0);
    }

    #[test]
    fn malformed_proposer_cannot_abort_the_serving_path() {
        use fgdb_mcmc::{DynRng, Proposal};

        // A proposer emitting out-of-world variable ids and out-of-domain
        // indexes: the kernel rejects each proposal as a no-op move and
        // `step` returns an empty delta — no panic, store untouched.
        struct Hostile(Vec<VariableId>);
        impl fgdb_mcmc::Proposer for Hostile {
            fn propose(&mut self, _world: &fgdb_graph::World, _rng: &mut DynRng<'_>) -> Proposal {
                Proposal::symmetric(vec![(VariableId(7_000), 3), (VariableId(0), 999)])
            }
            fn support(&self) -> &[VariableId] {
                &self.0
            }
        }

        let (db, world, rows, g) = setup();
        let binding = FieldBinding::new(&db, "T", "state", rows).unwrap();
        let mut pdb = ProbabilisticDB::new(
            db,
            g,
            Box::new(Hostile(vec![VariableId(0)])),
            world,
            binding,
            5,
        )
        .unwrap();
        let deltas = pdb.step(25).unwrap();
        assert!(deltas.is_empty());
        pdb.check_synchronized().unwrap();
        assert_eq!(pdb.kernel_stats().accepted, 0);
    }

    #[test]
    fn shard_validates_the_map_and_keeps_counting() {
        let (db, world, rows, g) = setup();
        let binding = FieldBinding::new(&db, "T", "state", rows).unwrap();
        let vars = vec![VariableId(0), VariableId(1)];
        let mut pdb = ProbabilisticDB::new(
            db,
            Arc::new(g),
            Box::new(UniformRelabel::new(vars)),
            world,
            binding,
            42,
        )
        .unwrap();
        pdb.step(10).unwrap();
        // A map over the wrong number of variables is refused, and the
        // single walker stays.
        let short = ShardMap::single(3).unwrap();
        let relabel = |_: usize, vars: &[VariableId]| -> Box<dyn Proposer> {
            Box::new(UniformRelabel::new(vars.to_vec()))
        };
        assert!(pdb.shard(&short, relabel, 1).is_err());
        assert_eq!(pdb.walkers().num_shards(), 1);
        // One shard per (independent) variable.
        let map = ShardMap::from_assignment(vec![0, 1]).unwrap();
        pdb.shard(&map, relabel, 1).unwrap();
        assert_eq!(pdb.walkers().num_shards(), 2);
        assert_eq!(pdb.steps_taken(), 10);
        for _ in 0..10 {
            pdb.step(5).unwrap();
            pdb.check_synchronized().unwrap();
        }
        assert_eq!(pdb.steps_taken(), 10 + 2 * 50);
        assert_eq!(pdb.kernel_stats().proposals, 110);
    }

    #[test]
    fn replayed_intervals_advance_the_walkers() {
        let mut pdb = build();
        let mut twin = build();
        for _ in 0..10 {
            pdb.step(5).unwrap();
            twin.apply_logged_interval(pdb.last_changes()).unwrap();
            assert_eq!(
                twin.walkers().shard_world(0).assignment(),
                pdb.world().assignment()
            );
        }
        twin.check_synchronized().unwrap();
        // The twin's walker never stepped: replay moves worlds, not chains.
        assert_eq!(twin.steps_taken(), 0);
        twin.step(5).unwrap();
        twin.check_synchronized().unwrap();
    }

    #[test]
    fn model_and_accessors() {
        let pdb = build();
        assert_eq!(pdb.model().num_factors(), 1);
        assert_eq!(pdb.world().num_variables(), 2);
        assert_eq!(pdb.database().relation("T").unwrap().len(), 2);
    }
}
