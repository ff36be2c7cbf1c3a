//! A panic inside the sampler loop must be visible, not silent.
//!
//! Over both stores — the in-memory `LiveSampler` and the supervised
//! `SupervisedSampler` over a `DurablePdb` — a proposer that panics after
//! 50 proposals must leave the sampler parked `Failed` with a typed
//! `ServingError::Panicked` that readers see through `status()` *before*
//! anyone calls `stop()`, and `fgdb-serve` must then shed unpinned
//! requests with `Unavailable` instead of answering from a dead sampler.

use fgdb_core::fixtures::{biased_token_pdb, relabel_proposer};
use fgdb_core::supervise::{ModelFactory, SupervisedSampler, SupervisorConfig};
use fgdb_core::{
    DurabilityConfig, EpochReader, FsyncPolicy, LiveSampler, SamplerState, ServingConfig,
    ServingError,
};
use fgdb_graph::{FactorGraph, VariableId, World};
use fgdb_mcmc::{DynRng, Proposal, Proposer};
use fgdb_relational::parser::paper_sql;
use fgdb_serve::{Client, ClientError, Server};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N: usize = 12;

/// Relabels uniformly until the shared counter passes 50 proposals, then
/// panics on every proposal — including those of proposers a supervisor
/// builds again at recovery, so restarts cannot outrun the bug.
struct PanicsAfter50 {
    proposals: Arc<AtomicUsize>,
    inner: Box<dyn Proposer>,
}

impl Proposer for PanicsAfter50 {
    fn propose(&mut self, world: &World, rng: &mut DynRng<'_>) -> Proposal {
        if self.proposals.fetch_add(1, Ordering::SeqCst) >= 50 {
            panic!("proposer bug");
        }
        self.inner.propose(world, rng)
    }

    fn support(&self) -> &[VariableId] {
        self.inner.support()
    }
}

fn panicking(proposals: &Arc<AtomicUsize>) -> Box<dyn Proposer> {
    Box::new(PanicsAfter50 {
        proposals: Arc::clone(proposals),
        inner: relabel_proposer(N),
    })
}

fn serving_config() -> ServingConfig {
    ServingConfig {
        thinning: 5,
        publish_every: 2,
        window: 32,
        ..ServingConfig::default()
    }
}

/// Waits for the sampler to park `Failed`, checks the parked error, then
/// checks `fgdb-serve` sheds an unpinned STATUS.
fn assert_failure_is_visible(reader: &EpochReader) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while reader.status().state != SamplerState::Failed {
        assert!(
            Instant::now() < deadline,
            "a panicked sampler never reported Failed: {:?}",
            reader.status()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let status = reader.status();
    assert!(!status.running);
    match &status.error {
        Some(ServingError::Panicked(m)) => assert!(m.contains("proposer bug"), "{m}"),
        other => panic!("expected a parked Panicked error, got {other:?}"),
    }

    let server = Server::start(reader.clone(), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    match client.status("q1") {
        Err(ClientError::Unavailable { .. }) => {}
        other => panic!("a failed sampler must shed an unpinned STATUS, got {other:?}"),
    }
    server.stop();
}

#[test]
fn in_memory_sampler_panic_parks_failed_before_stop() {
    let proposals = Arc::new(AtomicUsize::new(0));
    let pdb = biased_token_pdb(N, 4, 0x9A).snapshot(panicking(&proposals), 3);
    let q1 = paper_sql::query1("TOKEN");
    let sampler = LiveSampler::spawn(pdb, &[("q1", q1.as_str())], serving_config()).unwrap();
    assert_failure_is_visible(&sampler.reader());
    assert!(matches!(sampler.stop(), Err(ServingError::Panicked(_))));
}

#[test]
fn durable_sampler_panic_parks_failed_before_stop() {
    let proposals = Arc::new(AtomicUsize::new(0));
    let pdb = biased_token_pdb(N, 4, 0x9A).snapshot(panicking(&proposals), 3);
    let model = Arc::clone(pdb.model());
    let dir = fgdb_durability::test_dir("sampler-panic");
    let durable = pdb
        .open_durable(
            &dir,
            DurabilityConfig {
                fsync: FsyncPolicy::Always,
            },
        )
        .unwrap();
    let factory_proposals = Arc::clone(&proposals);
    let factory: ModelFactory<Arc<FactorGraph>> =
        Box::new(move || (Arc::clone(&model), panicking(&factory_proposals)));
    let config = SupervisorConfig {
        serving: serving_config(),
        max_restarts: 2,
        restart_backoff_ms: 1,
        checkpoint_every: 8,
    };
    let q1 = paper_sql::query1("TOKEN");
    let sampler =
        SupervisedSampler::spawn(durable, &[("q1", q1.as_str())], config, factory).unwrap();
    // A panic is worth a restart, but every recovered proposer panics
    // again before a healthy interval refills the budget.
    assert_failure_is_visible(&sampler.reader());
    assert!(matches!(sampler.stop(), Err(ServingError::Panicked(_))));
}
