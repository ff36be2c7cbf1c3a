//! The workloads, the serving configuration they share, and the seeds a
//! run derives from its `--seed` argument.

use fgdb_core::{DurabilityConfig, FsyncPolicy, ServingConfig, SupervisorConfig};
use fgdb_relational::parser::paper_sql;

/// Thinning interval k: MH walk-steps per sample.
pub const THINNING: usize = 1000;
/// Samples between epoch publications.
pub const PUBLISH_EVERY: usize = 8;
/// Convergence-diagnostic window, in samples.
pub const WINDOW: usize = 256;
/// Committed intervals between checkpoints of the durable workload.
pub const CHECKPOINT_EVERY: usize = 64;
/// Group-commit size of the durable workload's WAL.
pub const FSYNC_EVERY: u32 = 8;

/// One traffic mix over one store size.
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Requested corpus size in tokens (the generator rounds to whole
    /// documents).
    pub tokens: usize,
    /// Serve from a `SupervisedSampler` over a `DurablePdb` instead of an
    /// in-memory `LiveSampler`.
    pub durable: bool,
    /// Scheduled STATUS reads per second.
    pub status_per_s: f64,
    /// Scheduled ad-hoc paper-SQL reads per second.
    pub sql_per_s: f64,
}

/// Every workload the benchmark knows.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "live_10k",
        tokens: 10_000,
        durable: false,
        status_per_s: 100.0,
        sql_per_s: 20.0,
    },
    Workload {
        name: "live_1m",
        tokens: 1_000_000,
        durable: false,
        status_per_s: 100.0,
        // An ad-hoc scan costs 0.4-1 s at this size; on the single
        // connection it would stall every STATUS read behind it. The
        // SQL figures of this workload come from the verification reads.
        sql_per_s: 0.0,
    },
    Workload {
        name: "durable_100k",
        tokens: 100_000,
        durable: true,
        status_per_s: 50.0,
        // Each ad-hoc read costs 40-70 ms here. At 10/s the connection
        // is ~60% busy with SQL, and STATUS p50 sits on the knee of that
        // queue: 1.6-11.4 ms over five seeds. At 5/s it is ~30% busy.
        sql_per_s: 5.0,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The serving loop's configuration: library defaults plus the explicit
/// fields every workload fixes.
pub fn serving_config() -> ServingConfig {
    ServingConfig {
        thinning: THINNING,
        publish_every: PUBLISH_EVERY,
        window: WINDOW,
        ..ServingConfig::default()
    }
}

/// The supervised loop's configuration (durable workload).
pub fn supervisor_config() -> SupervisorConfig {
    SupervisorConfig {
        serving: serving_config(),
        checkpoint_every: CHECKPOINT_EVERY,
        ..SupervisorConfig::default()
    }
}

/// WAL policy for every durable store the benchmark opens.
pub fn durability_config() -> DurabilityConfig {
    DurabilityConfig {
        fsync: FsyncPolicy::EveryN(FSYNC_EVERY),
    }
}

/// The four registered paper queries, as `(name, sql)`.
pub fn paper_queries() -> Vec<(String, String)> {
    vec![
        ("q1".into(), paper_sql::query1("TOKEN")),
        ("q2".into(), paper_sql::query2("TOKEN")),
        ("q3".into(), paper_sql::query3("TOKEN")),
        ("q4".into(), paper_sql::query4("TOKEN")),
    ]
}

/// The seeds of one run.
///
/// `--seed` drives the read schedule. The corpus (and so the trained
/// model) and the chain are the same in every run of a workload: the
/// trained skip-chain CRF's posterior has modes the single-site sampler
/// leaves rarely, and on the 50-document corpus of `live_10k` the corpus
/// and chain seeds decide which one a run sits in. With both drawn from
/// `--seed`, five seeds gave 0.53-2.3 M proposals/s at 10⁴ tokens, each
/// seed repeating its own figure; a benchmark whose seed picks the mode
/// measures the mode, not the code. Both are fixed constants, the seed-0
/// derivation.
#[derive(Clone, Copy, Debug)]
pub struct Seeds {
    /// Corpus generation and model training.
    pub corpus: u64,
    /// The MCMC chain (production sampler and its traced replicas).
    pub chain: u64,
    /// Phase offsets and query rotation of the read schedule.
    pub schedule: u64,
}

impl Seeds {
    /// The fixed corpus and chain seeds, and the schedule seed of `seed`.
    pub fn derive(seed: u64) -> Seeds {
        Seeds {
            corpus: splitmix(0xC0_4905),
            chain: splitmix(0xC4A1_7000),
            schedule: splitmix(seed ^ 0x5C4E_D01E),
        }
    }
}

/// One SplitMix64 output for `x` — a cheap, well-mixed seed derivation.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
