//! Sharded-sampling acceptance suite for the one `ProbabilisticDB::step`.
//!
//! The anchor property: a **single-shard** database — the default, or one
//! re-partitioned with `ShardMap::single` — is bit-for-bit a plain
//! `fgdb_mcmc::Chain` with the same seed: same net changes, same WAL
//! bytes, same deltas, same stored world, same marginals, same kernel
//! statistics, same RNG stream (the benchmark's replay twin relies on
//! exactly this). Plus N-shard determinism at fixed seeds, counters that
//! read the walkers, shard-map rejection at the `ProbabilisticDB`
//! boundary, the rejected-interval resync path, and the durable layer's
//! refusal to mount a multi-shard database.

use fgdb_core::{
    DurabilityConfig, DurableError, FieldBinding, MarginalTable, ProbabilisticDB, ShardMap,
};
use fgdb_durability::format::{encode_changes, Enc};
use fgdb_durability::NetChangeRec;
use fgdb_graph::{Domain, FactorGraph, TableFactor, VariableId, World};
use fgdb_mcmc::{Chain, DynRng, NetChange, Proposal, Proposer, UniformRelabel};
use fgdb_relational::{Database, Schema, Tuple, Value, ValueType};
use std::ops::Range;
use std::sync::Arc;

const LABELS: [&str; 4] = ["O", "B-PER", "B-ORG", "B-LOC"];
const STRINGS: [&str; 6] = ["Bill", "said", "Boston", "Ann", "IBM", "met"];

/// A TOKEN pdb whose graph has per-token bias factors *and* within-document
/// transition pair factors — so shard maps that split a document are
/// genuinely invalid, unlike the all-unary `fixtures::biased_token_pdb`.
fn chained_token_pdb(
    n_tokens: usize,
    doc_size: usize,
    seed: u64,
) -> ProbabilisticDB<Arc<FactorGraph>> {
    let schema = Schema::from_pairs(&[
        ("tok_id", ValueType::Int),
        ("doc_id", ValueType::Int),
        ("string", ValueType::Str),
        ("label", ValueType::Str),
    ])
    .unwrap()
    .with_primary_key("tok_id")
    .unwrap();
    let mut db = Database::new();
    db.create_relation("TOKEN", schema).unwrap();
    let rel = db.relation_mut("TOKEN").unwrap();
    let mut rows = Vec::new();
    for i in 0..n_tokens {
        rows.push(
            rel.insert(Tuple::from_iter_values([
                Value::Int(i as i64),
                Value::Int((i / doc_size) as i64),
                Value::str(STRINGS[i % STRINGS.len()]),
                Value::str("O"),
            ]))
            .unwrap(),
        );
    }
    let dom = Domain::of_labels(&LABELS);
    let world = World::new(vec![dom; n_tokens]);
    let mut g = FactorGraph::new();
    for i in 0..n_tokens {
        g.add_factor(Box::new(TableFactor::new(
            vec![VariableId(i as u32)],
            vec![4],
            vec![0.4, 0.9, 0.2, 0.0],
            "bias",
        )));
    }
    // Within-document transitions: mild same-label affinity.
    let mut trans = vec![0.0; 16];
    for l in 0..4 {
        trans[l * 4 + l] = 0.3;
    }
    for t in 0..n_tokens.saturating_sub(1) {
        if t / doc_size == (t + 1) / doc_size {
            g.add_factor(Box::new(TableFactor::new(
                vec![VariableId(t as u32), VariableId(t as u32 + 1)],
                vec![4, 4],
                trans.clone(),
                "trans",
            )));
        }
    }
    let binding = FieldBinding::new(&db, "TOKEN", "label", rows).unwrap();
    ProbabilisticDB::new(
        db,
        Arc::new(g),
        Box::new(UniformRelabel::new(
            (0..n_tokens as u32).map(VariableId).collect(),
        )),
        world,
        binding,
        seed,
    )
    .unwrap()
}

fn doc_ranges(n_tokens: usize, doc_size: usize) -> Vec<Range<usize>> {
    (0..n_tokens)
        .step_by(doc_size)
        .map(|s| s..(s + doc_size).min(n_tokens))
        .collect()
}

fn wal_bytes(changes: &[NetChange]) -> Vec<u8> {
    let recs: Vec<NetChangeRec> = changes
        .iter()
        .map(|&(v, old, new)| (v.0, old as u16, new as u16))
        .collect();
    let mut e = Enc::new();
    encode_changes(&mut e, &recs);
    e.into_bytes()
}

const Q1: &str = "SELECT string FROM TOKEN WHERE label = 'B-PER'";

fn relabel(_shard: usize, vars: &[VariableId]) -> Box<dyn Proposer> {
    Box::new(UniformRelabel::new(vars.to_vec()))
}

/// Steps `pdb` beside a reference chain with the same model, proposer and
/// seed, and a twin database that replays the reference's changes through
/// `apply_logged_interval`: every interval must agree bit for bit.
fn assert_steps_like_a_chain(mut pdb: ProbabilisticDB<Arc<FactorGraph>>, seed: u64) {
    let n = pdb.world().num_variables();
    let all: Vec<VariableId> = (0..n as u32).map(VariableId).collect();
    let mut chain = Chain::new(
        Arc::clone(pdb.model()),
        relabel(0, &all),
        pdb.world().clone(),
        seed,
    );
    let mut twin = pdb.snapshot(relabel(0, &all), 0);
    let mut m_pdb = MarginalTable::new();
    let mut m_twin = MarginalTable::new();
    for interval in 0..12 {
        let d1 = pdb.step(25).unwrap();
        chain.run(25);
        let reference = chain.take_changes();
        assert_eq!(
            pdb.last_changes(),
            &reference[..],
            "net changes diverged at interval {interval}"
        );
        assert_eq!(
            wal_bytes(pdb.last_changes()),
            wal_bytes(&reference),
            "WAL encoding diverged at interval {interval}"
        );
        let d2 = twin.apply_logged_interval(&reference).unwrap();
        assert_eq!(d1.added("TOKEN"), d2.added("TOKEN"));
        assert_eq!(d1.removed("TOKEN"), d2.removed("TOKEN"));
        m_pdb.record(&pdb.query(Q1).unwrap().rows);
        m_twin.record(&twin.query(Q1).unwrap().rows);
    }
    assert_eq!(pdb.world().assignment(), chain.world().assignment());
    assert_eq!(pdb.world().assignment(), twin.world().assignment());
    assert_eq!(
        pdb.walkers().shard_world(0).assignment(),
        chain.world().assignment()
    );
    assert_eq!(pdb.kernel_stats(), chain.stats());
    assert_eq!(pdb.steps_taken(), chain.steps_taken());
    assert_eq!(pdb.rng_state(), chain.rng_state());
    assert_eq!(m_pdb.probabilities(), m_twin.probabilities());
    pdb.check_synchronized().unwrap();
    twin.check_synchronized().unwrap();
}

#[test]
fn single_shard_step_is_bit_for_bit_a_plain_chain() {
    assert_steps_like_a_chain(chained_token_pdb(48, 8, 11), 11);
}

#[test]
fn resharding_to_one_shard_is_bit_for_bit_a_plain_chain() {
    // Re-partitioning with the single map and the construction seed yields
    // the same walker as construction did (shard 0 is seeded with the base
    // seed itself).
    let mut pdb = chained_token_pdb(48, 8, 5);
    pdb.shard(&ShardMap::single(48).unwrap(), relabel, 11)
        .unwrap();
    assert_eq!(pdb.walkers().num_shards(), 1);
    assert_steps_like_a_chain(pdb, 11);
}

#[test]
fn multi_shard_fixed_seed_is_deterministic() {
    let run = |seed: u64| {
        let n = 64;
        let mut pdb = chained_token_pdb(n, 8, seed);
        let map = ShardMap::by_contiguous_groups(&doc_ranges(n, 8), 4).unwrap();
        pdb.shard(&map, relabel, seed).unwrap();
        let mut all_changes = Vec::new();
        let mut marginals = MarginalTable::new();
        for _ in 0..6 {
            pdb.step(50).unwrap();
            all_changes.push(pdb.last_changes().to_vec());
            marginals.record(&pdb.query(Q1).unwrap().rows);
        }
        pdb.check_synchronized().unwrap();
        (
            all_changes,
            pdb.world().assignment().to_vec(),
            pdb.kernel_stats(),
            marginals.probabilities(),
        )
    };
    let a = run(21);
    assert_eq!(a, run(21), "same seed must reproduce the sharded run");
    assert_ne!(a.0, run(22).0, "different seeds must diverge");
}

#[test]
fn counters_read_the_walkers_after_sharded_intervals() {
    let n = 64;
    let mut pdb = chained_token_pdb(n, 8, 9);
    pdb.step(40).unwrap();
    let before = pdb.kernel_stats();
    assert_eq!(pdb.steps_taken(), 40);

    let map = ShardMap::by_contiguous_groups(&doc_ranges(n, 8), 4).unwrap();
    pdb.shard(&map, relabel, 9).unwrap();
    // Re-sharding carries the retired walker's lifetime counters over.
    assert_eq!(pdb.steps_taken(), 40);
    assert_eq!(pdb.kernel_stats(), before);

    for _ in 0..3 {
        pdb.step(30).unwrap();
    }
    let walkers = pdb.walkers();
    assert_eq!(walkers.num_shards(), 4);
    // Every shard walked 90 steps; the database reports their sum.
    assert_eq!(pdb.steps_taken(), 40 + 4 * 90);
    assert_eq!(pdb.kernel_stats(), walkers.stats());
    assert_eq!(pdb.kernel_stats().proposals, before.proposals + 4 * 90);
    assert!(pdb.kernel_stats().accepted > before.accepted);
    assert_eq!(pdb.rng_state(), walkers.shard_rng_state(0));
    // Shard 0's stream moved on from its seed: the database's RNG state is
    // the live walker's, not an idle chain's.
    let mut fresh = chained_token_pdb(n, 8, 9);
    fresh.shard(&map, relabel, 9).unwrap();
    assert_ne!(pdb.rng_state(), fresh.rng_state());
}

#[test]
fn multi_shard_database_cannot_be_mounted_durably() {
    let n = 16;
    let mut pdb = chained_token_pdb(n, 8, 4);
    pdb.shard(
        &ShardMap::by_contiguous_groups(&doc_ranges(n, 8), 2).unwrap(),
        relabel,
        4,
    )
    .unwrap();
    let dir = fgdb_durability::test_dir("sharded-mount");
    match pdb.open_durable(&dir, DurabilityConfig::default()) {
        Err(DurableError::Sharded(2)) => {}
        Err(e) => panic!("expected a typed shard refusal, got {e}"),
        Ok(_) => panic!("a 2-shard database must not mount"),
    }
    assert!(
        std::fs::read_dir(&dir).map_or(true, |mut d| d.next().is_none()),
        "a refused mount must not write a store"
    );
}

#[test]
fn mid_document_shard_map_is_rejected_at_the_pdb_boundary() {
    let n = 16;
    let mut pdb = chained_token_pdb(n, 8, 3);
    // Cut one token into the second document: a transition factor spans it.
    let bad: Vec<u32> = (0..n).map(|t| u32::from(t >= 9)).collect();
    let map = ShardMap::from_assignment(bad).unwrap();
    let err = pdb
        .shard(&map, relabel, 0)
        .expect_err("spanning factor must be rejected");
    assert!(err.contains("shard map rejected"), "{err}");
    // The rejected map left the walkers in place.
    assert_eq!(pdb.walkers().num_shards(), 1);
}

/// Proposes variable 0 → label index 1 ("B-PER", the highest bias
/// weight, so the move from any other label is always accepted) once
/// `idle` empty proposals have passed.
struct PinZero {
    idle: usize,
}
impl Proposer for PinZero {
    fn propose(&mut self, _world: &World, _rng: &mut DynRng<'_>) -> Proposal {
        if self.idle > 0 {
            self.idle -= 1;
            return Proposal::symmetric(Vec::new());
        }
        Proposal::symmetric(vec![(VariableId(0), 1)])
    }
    fn support(&self) -> &[VariableId] {
        const V: [VariableId; 1] = [VariableId(0)];
        &V
    }
}

#[test]
fn rejected_interval_resynchronizes_the_sampler() {
    let n = 4;
    let mut pdb = chained_token_pdb(n, 2, 7);
    let map = ShardMap::from_assignment(vec![0, 0, 1, 1]).unwrap();
    // Shard 1's proposer is mis-partitioned: it writes shard 0's variable
    // 0 at once, while shard 0's own proposer idles for one interval.
    pdb.shard(
        &map,
        |s, _| -> Box<dyn Proposer> {
            Box::new(PinZero {
                idle: if s == 0 { 3 } else { 0 },
            })
        },
        7,
    )
    .unwrap();

    // Interval 1 commits shard 1's foreign write (v0: "O" → "B-PER"),
    // leaving shard 0's walker stale at "O".
    pdb.step(3).unwrap();
    assert_eq!(pdb.last_changes(), &[(VariableId(0), 0, 1)]);
    assert_eq!(pdb.walkers().shard_world(0).get(VariableId(0)), 0);

    // Interval 2: shard 0 now produces (v0, 0→1) from its stale world; the
    // merge point must reject it against the master's index 1.
    let err = pdb.step(3);
    assert!(err.is_err(), "stale-walker batch must be rejected");
    assert!(pdb.last_changes().is_empty());
    pdb.check_synchronized()
        .expect("rejected interval must not desync world and store");
    assert_eq!(pdb.world().get(VariableId(0)), 1);

    // The walkers were resynced: their worlds match the master, queues
    // are empty, and the next interval goes through cleanly.
    let walkers = pdb.walkers();
    assert_eq!(walkers.queued_batches(), 0);
    for s in 0..2 {
        assert_eq!(
            walkers.shard_world(s).assignment(),
            pdb.world().assignment(),
            "shard {s} not resynced"
        );
    }
    pdb.step(3).unwrap();
    pdb.check_synchronized().unwrap();
}
