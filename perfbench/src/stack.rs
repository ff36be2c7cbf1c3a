//! The production serving stack (corpus, trained model, sampler, views,
//! server, client) and what the benchmark does with it once the load
//! stops: stop, verify the final epoch over the wire, recover the store.

use crate::countio::counting_io;
use crate::load::ms;
use crate::workload::{durability_config, serving_config, supervisor_config, Seeds, Workload};
use fgdb_bench::NerSetup;
use fgdb_core::{
    ner_proposer, DurablePdb, EpochReader, LiveSampler, ModelFactory, NerProposerConfig,
    ProbabilisticDB, SupervisedSampler,
};
use fgdb_ie::Crf;
use fgdb_serve::{Client, Server};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The benchmark's scratch directory (`perfbench/.work/run-<pid>`),
/// removed when dropped.
pub struct WorkDir {
    root: PathBuf,
    next: std::cell::Cell<u32>,
}

impl WorkDir {
    /// Creates a fresh scratch directory for this process.
    pub fn create() -> Result<WorkDir, String> {
        let root = base_dir().join(format!("run-{}", std::process::id()));
        if root.exists() {
            std::fs::remove_dir_all(&root).map_err(|e| format!("clear {}: {e}", root.display()))?;
        }
        std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
        Ok(WorkDir {
            root,
            next: std::cell::Cell::new(0),
        })
    }

    /// A new, not yet existing directory path for one store.
    pub fn fresh(&self, label: &str) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        self.root.join(format!("{label}-{n}"))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Where the benchmark keeps stores and span files: `.work` inside the
/// benchmark's own directory.
pub fn base_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(".work")
}

/// The production proposer for the NER model.
pub fn proposer_for(model: &Crf) -> Box<dyn fgdb_mcmc::Proposer> {
    ner_proposer(model.data(), &NerProposerConfig::default())
}

/// The running sampler of either kind.
pub enum Sampler {
    /// In-memory `LiveSampler`.
    Live(LiveSampler<Arc<Crf>>),
    /// `SupervisedSampler` over a `DurablePdb`.
    Durable(SupervisedSampler<Arc<Crf>>),
}

/// What a stopped sampler hands back.
pub enum Stopped {
    /// The in-memory database.
    Live(ProbabilisticDB<Arc<Crf>>),
    /// The durable database, group-commit tail flushed.
    Durable(DurablePdb<Arc<Crf>>),
}

/// One built serving stack.
pub struct Stack {
    /// Corpus and trained model.
    pub setup: NerSetup,
    sampler: Option<Sampler>,
    /// Reader handle of the sampler's epoch cell.
    pub reader: EpochReader,
    server: Option<Server>,
    /// The load's one connection.
    pub client: Client,
    /// The durable store's directory (durable workloads).
    pub store: Option<PathBuf>,
}

impl Stack {
    /// Builds the stack through public entry points only: corpus and
    /// model (`NerSetup::build`), database (`NerSetup::pdb`), sampler
    /// with the queries registered (`LiveSampler::spawn` or
    /// `open_durable_with_io` + `SupervisedSampler::spawn`), server
    /// (`Server::start`), then one client read until an epoch is served.
    pub fn build(
        w: &Workload,
        seeds: &Seeds,
        queries: &[(String, String)],
        work: &WorkDir,
    ) -> Result<Stack, String> {
        let setup = NerSetup::build(w.tokens, seeds.corpus);
        let pdb = setup.pdb(seeds.chain);
        let registered: Vec<(&str, &str)> = queries
            .iter()
            .map(|(n, s)| (n.as_str(), s.as_str()))
            .collect();
        let (sampler, store) = if w.durable {
            let dir = work.fresh("store");
            let (io, _) = counting_io();
            let durable = pdb
                .open_durable_with_io(Arc::clone(&io), &dir, durability_config())
                .map_err(|e| format!("mount durable store: {e}"))?;
            let model = Arc::clone(&setup.model);
            let factory: ModelFactory<Arc<Crf>> =
                Box::new(move || (Arc::clone(&model), proposer_for(&model)));
            let sampler =
                SupervisedSampler::spawn(durable, &registered, supervisor_config(), factory)
                    .map_err(|e| format!("spawn supervised sampler: {e}"))?;
            (Sampler::Durable(sampler), Some(dir))
        } else {
            let sampler = LiveSampler::spawn(pdb, &registered, serving_config())
                .map_err(|e| format!("spawn live sampler: {e}"))?;
            (Sampler::Live(sampler), None)
        };
        let reader = match &sampler {
            Sampler::Live(s) => s.reader(),
            Sampler::Durable(s) => s.reader(),
        };
        let server =
            Server::start(reader.clone(), "127.0.0.1:0").map_err(|e| format!("server: {e}"))?;
        let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        client
            .status(&queries[0].0)
            .map_err(|e| format!("first read: {e}"))?;
        Ok(Stack {
            setup,
            sampler: Some(sampler),
            reader,
            server: Some(server),
            client,
            store,
        })
    }

    /// Stops the sampler (its final epoch stays served) and returns what
    /// it hands back.
    pub fn stop_sampler(&mut self) -> Result<Stopped, String> {
        match self.sampler.take() {
            Some(Sampler::Live(s)) => s
                .stop()
                .map(Stopped::Live)
                .map_err(|e| format!("live sampler: {e}")),
            Some(Sampler::Durable(s)) => s
                .stop()
                .map(Stopped::Durable)
                .map_err(|e| format!("supervised sampler: {e}")),
            None => Err("sampler already stopped".into()),
        }
    }

    /// Stops the server and joins its threads.
    pub fn stop_server(&mut self) {
        if let Some(server) = self.server.take() {
            server.stop();
        }
    }

    /// Stops everything this stack started.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.stop_server();
        if self.sampler.is_some() {
            self.stop_sampler()?;
        }
        Ok(())
    }
}

/// Builds the stack `times` times (at least 3, and more while the total
/// stays under `budget_s`), keeping the last. Returns it with every
/// set-up time in seconds.
pub fn build_repeated(
    w: &Workload,
    seeds: &Seeds,
    queries: &[(String, String)],
    work: &WorkDir,
    budget_s: f64,
) -> Result<(Stack, Vec<f64>), String> {
    const MIN: usize = 3;
    const MAX: usize = 15;
    let mut times = Vec::new();
    loop {
        let t0 = Instant::now();
        let stack = Stack::build(w, seeds, queries, work)?;
        times.push(t0.elapsed().as_secs_f64());
        let total: f64 = times.iter().sum();
        let projected = total + total / times.len() as f64;
        if times.len() >= MAX || (times.len() >= MIN && projected > budget_s) {
            return Ok((stack, times));
        }
        stack.shutdown()?;
    }
}

/// Final-epoch verification over the wire: pins the final epoch on the
/// load's connection, then for every registered query reads its
/// maintained answer (STATUS) and re-executes its SQL, `rounds` times.
/// Fails unless both come from the pinned epoch and agree row for row.
/// Returns each SQL read's `(query, sent, done)`.
pub fn verify_final_epoch(
    client: &mut Client,
    reader: &EpochReader,
    queries: &[(String, String)],
    rounds: usize,
) -> Result<Vec<(usize, Instant, Instant)>, String> {
    let final_epoch = reader.status().epoch;
    let meta = client.pin().map_err(|e| format!("pin: {e}"))?;
    if meta.epoch != final_epoch {
        return Err(format!(
            "pinned epoch {} is not the final epoch {final_epoch}",
            meta.epoch
        ));
    }
    let mut sql_reads = Vec::new();
    for _ in 0..rounds {
        for (qi, (name, sql)) in queries.iter().enumerate() {
            let (smeta, status) = client
                .status(name)
                .map_err(|e| format!("{name} status: {e}"))?;
            let sent = Instant::now();
            let table = client.query(sql).map_err(|e| format!("{name} sql: {e}"))?;
            let done = Instant::now();
            sql_reads.push((qi, sent, done));
            if smeta.epoch != meta.epoch || table.meta.epoch != meta.epoch {
                return Err(format!("{name}: a pinned read left epoch {}", meta.epoch));
            }
            if status.columns != table.columns || status.answer != table.rows {
                return Err(format!(
                    "{name}: maintained answer ({} rows) differs from re-execution ({} rows) on epoch {}",
                    status.answer.len(),
                    table.rows.len(),
                    meta.epoch
                ));
            }
        }
    }
    client.unpin().map_err(|e| format!("unpin: {e}"))?;
    println!(
        "verified: epoch {} — maintained answers of {} queries equal re-execution ({rounds} rounds, over the wire)",
        meta.epoch,
        queries.len()
    );
    Ok(sql_reads)
}

/// Closes the stopped store and returns the database it holds, plus the
/// directory to recover from. An in-memory database is first mounted on
/// a fresh store (a full snapshot) so it can be recovered the same way.
pub fn close_for_recovery(
    stopped: Stopped,
    store: Option<PathBuf>,
    work: &WorkDir,
) -> Result<(ProbabilisticDB<Arc<Crf>>, PathBuf), String> {
    match stopped {
        Stopped::Durable(durable) => {
            let dir = store.ok_or("durable sampler without a store directory")?;
            let pdb = durable.close().map_err(|e| format!("close store: {e}"))?;
            Ok((pdb, dir))
        }
        Stopped::Live(pdb) => {
            let dir = work.fresh("recover");
            let (io, _) = counting_io();
            let durable = pdb
                .open_durable_with_io(io, &dir, durability_config())
                .map_err(|e| format!("mount stopped database: {e}"))?;
            let pdb = durable.close().map_err(|e| format!("close store: {e}"))?;
            Ok((pdb, dir))
        }
    }
}

/// Recovers the store in `dir` at least 3 times (more while the total
/// stays under `budget_s`), checking each recovered state against
/// `expected`. Returns the recovery times in seconds.
pub fn recover_repeated(
    dir: &Path,
    model: &Arc<Crf>,
    expected: &ProbabilisticDB<Arc<Crf>>,
    budget_s: f64,
) -> Result<Vec<f64>, String> {
    const MIN: usize = 3;
    const MAX: usize = 21;
    let mut times = Vec::new();
    loop {
        // Each recovery runs on a fresh thread, as a restarted process
        // would, so the repeats do not all share one CPU's fortunes.
        let (recovered, secs) = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let t0 = Instant::now();
                    let recovered = ProbabilisticDB::recover(
                        dir,
                        Arc::clone(model),
                        proposer_for(model),
                        durability_config(),
                    );
                    (recovered, t0.elapsed().as_secs_f64())
                })
                .join()
        })
        .map_err(|_| "the recovery thread panicked".to_string())?;
        let (recovered, _report) = recovered.map_err(|e| format!("recover: {e}"))?;
        times.push(secs);
        same_state(expected, recovered.pdb())?;
        drop(recovered);
        let total: f64 = times.iter().sum();
        let projected = total + total / times.len() as f64;
        if times.len() >= MAX || (times.len() >= MIN && projected > budget_s) {
            println!(
                "verified: {} recoveries equal the stopped store (world, steps, relations); median {:.3} ms",
                times.len(),
                ms(std::time::Duration::from_secs_f64(crate::report::median(&times)))
            );
            return Ok(times);
        }
    }
}

/// Checks that two databases hold the same world, the same step count
/// and the same relations, slot for slot.
pub fn same_state(
    a: &ProbabilisticDB<Arc<Crf>>,
    b: &ProbabilisticDB<Arc<Crf>>,
) -> Result<(), String> {
    if a.world().assignment() != b.world().assignment() {
        return Err("recovered world differs from the stopped one".into());
    }
    if a.steps_taken() != b.steps_taken() {
        return Err(format!(
            "recovered steps {} differ from the stopped {}",
            b.steps_taken(),
            a.steps_taken()
        ));
    }
    let mut names_a: Vec<_> = a.database().relation_names().collect();
    let mut names_b: Vec<_> = b.database().relation_names().collect();
    names_a.sort();
    names_b.sort();
    if names_a != names_b {
        return Err("recovered relation set differs".into());
    }
    for name in names_a {
        let (ra, rb) = match (a.database().relation(name), b.database().relation(name)) {
            (Ok(ra), Ok(rb)) => (ra, rb),
            _ => return Err(format!("relation {name} missing after recovery")),
        };
        if ra.raw_slots() != rb.raw_slots() || ra.free_slots() != rb.free_slots() {
            return Err(format!("relation {name} differs after recovery"));
        }
    }
    Ok(())
}
