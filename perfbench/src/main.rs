//! perfbench — the served-sampler benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload live_10k --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One run builds the production serving stack for one workload (NER
//! corpus, trained skip-chain CRF, the four paper queries registered as
//! views, `fgdb_serve::Server` in front), puts an open-loop read load on
//! it from one client thread over one connection, then stops the
//! sampler, checks the final epoch over the wire and recovers the stopped
//! store, checking it against the stopped one. Only when every check
//! passes does it print its metrics; the last line of standard output is
//! the result object.
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` reports the
//! per-layer metrics: it runs the same load untraced (the reference),
//! then a read window where every read gets an in-process twin, then
//! replays the sampler's intervals through public calls with a span
//! around each (see `replay.rs`). See `perfbench/README.md` for what
//! each metric is and which layer metric should move which end-to-end one.

mod countio;
mod load;
mod replay;
mod report;
mod stack;
mod trace;
mod workload;

use countio::counting_io;
use fgdb_bench::NerSetup;
use fgdb_core::NerProposerConfig;
use fgdb_relational::{compile_query, execute};
use fgdb_serve::ServerConfig;
use load::{ms, run_open_loop, schedule, Kind, Read};
use replay::{Cadence, Replay, ReplayCounts, MARGINALS_RECORD, VIEW_APPLY};
use report::{median, peak_rss_mb, percentile, Report};
use stack::{
    base_dir, build_repeated, close_for_recovery, recover_repeated, verify_final_epoch, Stack,
    WorkDir,
};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{Tracer, NONE};
use workload::{
    durability_config, paper_queries, serving_config, supervisor_config, Seeds, Workload,
    CHECKPOINT_EVERY, PUBLISH_EVERY, THINNING,
};

const USAGE: &str =
    "usage: perfbench --workload <live_10k|live_1m|durable_100k> --seed <n> --seconds <s> --trace <0|1>";

/// Sampler warm-up before the measured window.
const WARMUP: Duration = Duration::from_secs(1);
/// Rounds of final-epoch verification (each reads all four queries).
const VERIFY_ROUNDS: usize = 3;
/// Seconds of repeated set-ups to aim for (at least three are made).
const SETUP_BUDGET_S: f64 = 2.0;
/// Seconds of repeated recoveries to aim for (at least three are made).
const RECOVER_BUDGET_S: f64 = 1.0;
/// Durable-probe intervals of the live workloads' traced runs, and how
/// often the probe checkpoints.
const PROBE_INTERVALS: u64 = 16;
const PROBE_CHECKPOINT_EVERY: u64 = 8;
/// The Δ-proportionality table's companion replay: warm-up, then the
/// recorded part.
const COMPANION_WARM: Duration = Duration::from_secs(1);
const COMPANION_MEASURE: Duration = Duration::from_secs(3);
/// Sub-window length the window's figures are taken over (their median
/// is reported, so a few seconds of interference from outside the
/// benchmark move no figure).
const SUBWINDOW_S: f64 = 5.0;
/// Blocks of replayed intervals recorded (half traced, half untraced).
const REPLAY_BLOCKS: u64 = 12;
/// Trace ids of reads start here; interval trace ids are interval numbers.
const READ_TRACE_BASE: u64 = 1 << 40;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let Some(w) = workload::find(&args.workload) else {
        eprintln!("perfbench: unknown workload {}\n{USAGE}", args.workload);
        std::process::exit(2);
    };
    match run(&args, w) {
        Ok(outcome) => {
            outcome.report.print();
            println!(
                "{}",
                outcome.report.json(true, outcome.attempted, outcome.failed)
            );
        }
        Err(e) => {
            eprintln!("perfbench: FAILED: {e}");
            println!("{}", Report::default().json(false, 1, 1));
            std::process::exit(1);
        }
    }
}

struct Outcome {
    report: Report,
    attempted: u64,
    failed: u64,
}

/// The untraced serving window's figures.
struct Window {
    reads: Vec<Read>,
    /// Sampler counters at the start, at each sub-window boundary and at
    /// the end: `(seconds since start, steps, epoch, samples)`.
    marks: Vec<(f64, u64, u64, u64)>,
    /// Sub-window length in seconds.
    sub_s: f64,
}

impl Window {
    fn elapsed_s(&self) -> f64 {
        self.marks.last().map_or(0.0, |m| m.0)
    }

    /// Samples (intervals) drawn when the window opened and closed.
    fn samples_start(&self) -> u64 {
        self.marks.first().map_or(0, |m| m.3)
    }

    fn samples_end(&self) -> u64 {
        self.marks.last().map_or(0, |m| m.3)
    }

    fn epochs(&self) -> u64 {
        self.marks.last().map_or(0, |m| m.2) - self.marks.first().map_or(0, |m| m.2)
    }

    fn interval_us(&self) -> f64 {
        self.elapsed_s() * 1e6 / (self.samples_end() - self.samples_start()).max(1) as f64
    }

    /// Per sub-window: `(proposals/s, epoch period ms)`.
    fn rates(&self) -> Vec<(f64, f64)> {
        self.marks
            .windows(2)
            .map(|m| {
                let dt = m[1].0 - m[0].0;
                let epochs = (m[1].2 - m[0].2).max(1) as f64;
                ((m[1].1 - m[0].1) as f64 / dt, dt * 1e3 / epochs)
            })
            .collect()
    }
}

/// Read latencies from due time, pooled over the window.
struct Latencies {
    status: Vec<f64>,
    sql: Vec<f64>,
    sql_source: &'static str,
}

impl Latencies {
    /// Ad-hoc SQL latency comes from the window's open-loop reads, or —
    /// on a workload whose mix has none — from the final-epoch
    /// verification reads.
    fn of(w: &Workload, window: &Window, verify_reads: &[Read]) -> Latencies {
        let of_kind = |kind| {
            window
                .reads
                .iter()
                .filter(|r| r.kind == kind)
                .map(|r| r.latency_ms)
                .collect()
        };
        let (sql, sql_source) = if w.sql_per_s > 0.0 {
            (of_kind(Kind::Sql), "open-loop window")
        } else {
            (
                verify_reads.iter().map(|r| r.latency_ms).collect(),
                "final-epoch verification reads",
            )
        };
        Latencies {
            status: of_kind(Kind::Status),
            sql,
            sql_source,
        }
    }

    /// `(name, value)` of every latency figure.
    fn figures(&self) -> [(&'static str, f64); 5] {
        [
            ("latency.status_mean_ms", mean(&self.status)),
            ("latency.status_p50_ms", percentile(&self.status, 0.5)),
            ("latency.status_p99_ms", percentile(&self.status, 0.99)),
            ("latency.sql_p50_ms", percentile(&self.sql, 0.5)),
            ("latency.sql_p90_ms", percentile(&self.sql, 0.9)),
        ]
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

fn print_config(args: &Args, w: &Workload, seeds: &Seeds) {
    println!(
        "perfbench: workload={} seed={} seconds={} trace={}",
        w.name, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "config: tokens≈{} durable={} corpus_seed={:#x} chain_seed={:#x} schedule_seed={:#x}",
        w.tokens, w.durable, seeds.corpus, seeds.chain, seeds.schedule
    );
    println!("config: {:?}", serving_config());
    if w.durable {
        println!("config: {:?}", supervisor_config());
    }
    println!(
        "config: {:?} (durable store and recovery)",
        durability_config()
    );
    println!("config: {:?}", ServerConfig::from_env());
    println!("config: proposer {:?}", NerProposerConfig::default());
    println!(
        "config: open-loop reads {}/s STATUS + {}/s ad-hoc SQL, 1 client thread, 1 connection; warm-up {:?}",
        w.status_per_s, w.sql_per_s, WARMUP
    );
    println!(
        "config: available_parallelism={}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
}

fn run(args: &Args, w: &Workload) -> Result<Outcome, String> {
    let seeds = Seeds::derive(args.seed);
    let queries = paper_queries();
    print_config(args, w, &seeds);
    let work = WorkDir::create()?;
    let seconds = args.seconds as f64;

    // Set-up: repeated (median reported) unless tracing.
    let (mut stack, setup_times) = if args.trace {
        (Stack::build(w, &seeds, &queries, &work)?, Vec::new())
    } else {
        build_repeated(w, &seeds, &queries, &work, SETUP_BUDGET_S)?
    };
    println!(
        "setup: {} tokens, {} documents; {} set-ups",
        stack.setup.corpus.num_tokens(),
        stack.setup.corpus.documents.len(),
        setup_times.len().max(1)
    );

    std::thread::sleep(WARMUP);
    let window = measure_window(&mut stack, w, &queries, seeds.schedule, seconds, |_| {})?;
    println!(
        "window: {:.3} s, {} intervals, {} epochs, {} reads",
        window.elapsed_s(),
        window.samples_end() - window.samples_start(),
        window.epochs(),
        window.reads.len()
    );

    // Traced runs: a second window whose reads get in-process twins.
    let mut tr = Tracer::new();
    let mut twin_reads: Vec<Read> = Vec::new();
    let mut tuples_scanned = 0u64;
    let mut sql_twins = 0u64;
    if args.trace {
        let reader = stack.reader.clone();
        let mut n = 0u64;
        let b = measure_window(
            &mut stack,
            w,
            &queries,
            seeds.schedule ^ 0xB,
            (seconds / 4.0).max(1.0),
            |read| {
                n += 1;
                if let Some(scanned) =
                    read_twin(&mut tr, &reader, &queries, read, READ_TRACE_BASE + n)
                {
                    tuples_scanned += scanned;
                    sql_twins += 1;
                }
            },
        )?;
        twin_reads = b.reads;
    }

    // Stop, then check the final epoch over the wire.
    let stopped = stack.stop_sampler()?;
    let verify_sql = verify_final_epoch(&mut stack.client, &stack.reader, &queries, VERIFY_ROUNDS)?;
    let verify_reads: Vec<Read> = verify_sql
        .iter()
        .map(|&(qi, sent, done)| Read {
            kind: Kind::Sql,
            query: qi,
            lag_ms: 0.0,
            latency_ms: ms(done - sent),
            ok: true,
            sent,
            done,
        })
        .collect();
    // The verification reads stand in for the window's SQL reads where
    // the window has none, in the per-layer figures as in the end-to-end
    // ones.
    if args.trace && w.sql_per_s == 0.0 {
        for (i, read) in verify_reads.iter().enumerate() {
            let id = READ_TRACE_BASE + (1 << 30) + i as u64;
            if let Some(scanned) = read_twin(&mut tr, &stack.reader, &queries, read, id) {
                tuples_scanned += scanned;
                sql_twins += 1;
            }
        }
    }
    stack.stop_server();

    // Recover the stopped store and check it against the stopped state.
    let (expected, dir) = close_for_recovery(stopped, stack.store.clone(), &work)?;
    let recover_times = recover_repeated(&dir, &stack.setup.model, &expected, RECOVER_BUDGET_S)?;
    drop(expected);

    let all_reads = window
        .reads
        .iter()
        .chain(&twin_reads)
        .chain(&verify_reads)
        .collect::<Vec<_>>();
    // Every verification round reads each query twice (STATUS and SQL);
    // `verify_reads` lists the SQL half.
    let attempted = all_reads.len() as u64 + verify_reads.len() as u64;
    let failed = all_reads.iter().filter(|r| !r.ok).count() as u64;

    let lat = Latencies::of(w, &window, &verify_reads);
    let mut report = Report::default();
    if !args.trace {
        end_to_end(
            &mut report,
            &window,
            &lat,
            &setup_times,
            &recover_times,
            attempted,
            failed,
        )?;
    } else {
        let reads = ReadLayers {
            tuples_scanned,
            sql_twins,
        };
        per_layer(
            &mut report,
            w,
            &seeds,
            &queries,
            &work,
            &stack.setup,
            &window,
            &lat,
            tr,
            reads,
            args.seconds,
        )?;
    }
    Ok(Outcome {
        report,
        attempted,
        failed,
    })
}

/// Runs one open-loop window of `seconds` and reads the sampler's
/// counters at both ends and at every sub-window boundary.
fn measure_window(
    stack: &mut Stack,
    w: &Workload,
    queries: &[(String, String)],
    seed: u64,
    seconds: f64,
    after: impl FnMut(&Read) + Send,
) -> Result<Window, String> {
    let events = schedule(w, seconds, seed);
    // A fresh connection per window: the server spawns its worker thread
    // now, on whichever CPU the sampler thread leaves idle, rather than
    // wherever it landed during set-up.
    stack
        .client
        .reconnect()
        .map_err(|e| format!("reconnect: {e}"))?;
    let subs = ((seconds / SUBWINDOW_S).floor() as usize).max(1);
    let sub_s = seconds / subs as f64;
    let reader = stack.reader.clone();
    let mark = |t0: Instant| {
        let s = reader.status();
        (t0.elapsed().as_secs_f64(), s.steps, s.epoch, s.samples)
    };
    let start = Instant::now();
    let mut marks = vec![mark(start)];
    let ticks: Vec<Instant> = (1..=subs)
        .map(|j| start + Duration::from_secs_f64(sub_s * j as f64))
        .collect();
    let give_up = start + Duration::from_secs_f64(seconds + seconds.max(2.0));
    // The load runs on a thread of its own, spawned now: a new thread is
    // placed on the idlest CPU, away from the sampler thread, and the
    // server's worker follows the thread that wakes it.
    let client = &mut stack.client;
    let reads = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                run_open_loop(
                    client,
                    queries,
                    &events,
                    start,
                    give_up,
                    &ticks,
                    || marks.push(mark(start)),
                    after,
                )
            })
            .join()
    })
    .map_err(|_| "the load thread panicked".to_string())?;
    let s1 = stack.reader.status();
    if !s1.running || s1.error.is_some() {
        return Err(format!(
            "sampler not healthy after the window: {} {:?}",
            s1.state, s1.error
        ));
    }
    Ok(Window {
        reads,
        marks,
        sub_s,
    })
}

/// The in-process twin of one served read, on a freshly pinned epoch:
/// STATUS looks the registered query up and clones its status; SQL
/// compiles and executes. The wire read becomes the parent span, the twin
/// its children, so the parent's self time is the serving layer's share.
/// Returns the tuples scanned by an SQL twin.
fn read_twin(
    tr: &mut Tracer,
    reader: &fgdb_core::EpochReader,
    queries: &[(String, String)],
    read: &Read,
    id: u64,
) -> Option<u64> {
    if !read.ok {
        return None;
    }
    let (name, sql) = &queries[read.query];
    let span = match read.kind {
        Kind::Status => "serve.status",
        Kind::Sql => "serve.sql",
    };
    let parent = tr.record(id, NONE, span, tr.at(read.sent), tr.at(read.done));
    match read.kind {
        Kind::Status => {
            tr.time(id, parent, "core.status_read", || {
                let snap = reader.pin();
                snap.status(name).cloned()
            });
            None
        }
        Kind::Sql => {
            let snap = reader.pin();
            let db = snap.database();
            let plan = tr.time(id, parent, "relational.compile", || compile_query(sql, db));
            let plan = plan.ok()?;
            let (_, stats) = tr
                .time(id, parent, "relational.execute", || execute(&plan, db))
                .ok()?;
            Some(stats.tuples_scanned)
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn end_to_end(
    report: &mut Report,
    window: &Window,
    lat: &Latencies,
    setup_times: &[f64],
    recover_times: &[f64],
    attempted: u64,
    failed: u64,
) -> Result<(), String> {
    if window.epochs() == 0 {
        return Err("no epoch was published during the window".into());
    }
    let rates = window.rates();
    let lags: Vec<f64> = window.reads.iter().map(|r| r.lag_ms).collect();
    println!(
        "window: {} sub-windows of {:.1} s; the rates reported are medians over sub-windows",
        rates.len(),
        window.sub_s
    );
    for (j, (p, e)) in rates.iter().enumerate() {
        println!("  sub-window {j}: {p:.0} proposals/s, epoch every {e:.3} ms");
    }
    println!(
        "reads: STATUS n={}, SQL n={} ({}); generator lag p99={:.3} ms; latency (not gated):",
        lat.status.len(),
        lat.sql.len(),
        lat.sql_source,
        percentile(&lags, 0.99),
    );
    for (name, v) in lat.figures() {
        println!("  {name:<28} {v:.4} ms");
    }
    println!(
        "setup: {} runs, median {:.4} s, max {:.4} s; recover: {} runs, median {:.4} s, max {:.4} s",
        setup_times.len(),
        median(setup_times),
        setup_times.iter().cloned().fold(0.0, f64::max),
        recover_times.len(),
        median(recover_times),
        recover_times.iter().cloned().fold(0.0, f64::max),
    );
    let proposals: Vec<f64> = rates.iter().map(|r| r.0).collect();
    let periods: Vec<f64> = rates.iter().map(|r| r.1).collect();
    report.add("setup_s", median(setup_times), "s");
    report.add("proposals_per_s", median(&proposals), "1/s");
    report.add("epoch_period_ms", median(&periods), "ms");
    report.add(
        "read_ok_ratio",
        (attempted - failed) as f64 / attempted.max(1) as f64,
        "ratio",
    );
    report.add("recover_s", median(recover_times), "s");
    report.add("peak_rss_mb", peak_rss_mb()?, "MB");
    Ok(())
}

/// Counters gathered by the read twins.
struct ReadLayers {
    tuples_scanned: u64,
    sql_twins: u64,
}

/// Per-interval costs of the interval layers, from one traced replay.
#[derive(Clone, Debug, Default)]
struct LayerCosts {
    intervals: u64,
    walk_us: f64,
    write_back_us: f64,
    view_us: [f64; 4],
    marginals_us: [f64; 4],
    /// Publication costs spread over every interval.
    snapshot_us: f64,
    status_us: f64,
    drop_us: f64,
    /// Publication costs per publication.
    snapshot_ms: f64,
    status_ms: f64,
    drop_ms: f64,
    /// Mean `DeltaSet::magnitude` per interval.
    delta_rows: f64,
    durable_step_us: f64,
    checkpoint_us: f64,
    checkpoint_ms: f64,
}

impl LayerCosts {
    fn from(tr: &Tracer, counts: &ReplayCounts) -> LayerCosts {
        let st = tr.self_times();
        let n = counts.intervals.max(1) as f64;
        let per_interval = |name: &str| st.get(name).map_or(0.0, |s| s.total_ns as f64 / n / 1e3);
        let per_event_ms = |name: &str| st.get(name).map_or(0.0, |s| s.mean_us() / 1e3);
        LayerCosts {
            intervals: counts.intervals,
            walk_us: per_interval("mcmc.walk"),
            write_back_us: per_interval("relational.write_back"),
            view_us: VIEW_APPLY.map(per_interval),
            marginals_us: MARGINALS_RECORD.map(per_interval),
            snapshot_us: per_interval("core.publish_snapshot"),
            status_us: per_interval("core.publish_status"),
            drop_us: per_interval("core.publish_drop"),
            snapshot_ms: per_event_ms("core.publish_snapshot"),
            status_ms: per_event_ms("core.publish_status"),
            drop_ms: per_event_ms("core.publish_drop"),
            delta_rows: counts.delta_rows as f64 / n,
            durable_step_us: per_interval("durability.step"),
            checkpoint_us: per_interval("durability.checkpoint"),
            checkpoint_ms: per_event_ms("durability.checkpoint"),
        }
    }

    /// `(layer, µs per interval)` for every interval layer.
    fn rows(&self) -> Vec<(&'static str, f64)> {
        let mut rows = vec![
            ("mcmc.walk", self.walk_us),
            ("relational.write_back", self.write_back_us),
        ];
        rows.extend(VIEW_APPLY.into_iter().zip(self.view_us));
        rows.extend(MARGINALS_RECORD.into_iter().zip(self.marginals_us));
        rows.push(("core.publish_snapshot", self.snapshot_us));
        rows.push(("core.publish_status", self.status_us));
        rows.push(("core.publish_drop", self.drop_us));
        rows
    }
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    report: &mut Report,
    w: &Workload,
    seeds: &Seeds,
    queries: &[(String, String)],
    work: &WorkDir,
    setup: &NerSetup,
    window: &Window,
    lat: &Latencies,
    mut tr: Tracer,
    reads: ReadLayers,
    seconds: u64,
) -> Result<(), String> {
    let lags: Vec<f64> = window.reads.iter().map(|r| r.lag_ms).collect();
    let interval_us = window.interval_us();

    // The interval replay, recording the window's intervals.
    let cadence = Cadence {
        k: THINNING,
        publish_every: PUBLISH_EVERY as u64,
        checkpoint_every: if w.durable {
            CHECKPOINT_EVERY as u64
        } else {
            0
        },
    };
    let twin_dir = work.fresh("twin");
    let twin_io = w.durable.then(counting_io);
    let mut replay = Replay::from_start(
        setup,
        seeds.chain,
        queries,
        cadence,
        twin_io
            .as_ref()
            .map(|(io, c)| (twin_dir.as_path(), Arc::clone(io), Arc::clone(c))),
    )?;
    // From the window's first interval on, blocks of intervals alternate
    // between traced and untraced; comparing their wall times gives the
    // tracing overhead on the same stretch of the chain. The replay stops
    // after REPLAY_BLOCKS blocks or at the window's end.
    let start = window.samples_start();
    let block = if window.samples_end() - start >= 4 * 64 {
        64
    } else {
        PUBLISH_EVERY as u64
    };
    let end = window.samples_end().min(start + REPLAY_BLOCKS * block);
    let mut walls: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut block_start = Instant::now();
    let budget =
        Instant::now() + 2 * (WARMUP + Duration::from_secs(seconds)) + Duration::from_secs(20);
    let replay_start = Instant::now();
    while replay.intervals() < end {
        let i = replay.intervals();
        if i >= start && (i - start).is_multiple_of(block) {
            block_start = Instant::now();
        }
        let traced = i >= start && ((i - start) / block).is_multiple_of(2);
        tr.set_enabled(traced);
        replay.interval(&mut tr)?;
        let done = replay.intervals();
        if done > start && (done - start).is_multiple_of(block) {
            walls[traced as usize].push(block_start.elapsed().as_secs_f64() * 1e6 / block as f64);
        }
        if Instant::now() > budget {
            println!(
                "replay: time budget reached at interval {} of {}",
                replay.intervals(),
                end
            );
            break;
        }
    }
    tr.set_enabled(true);
    println!(
        "replay: {} intervals in {:.3} s, {} recorded in blocks of {block}, {} spans",
        replay.intervals(),
        replay_start.elapsed().as_secs_f64(),
        replay.counts.intervals,
        tr.len()
    );
    if replay.counts.intervals == 0 {
        return Err("the replay recorded no interval".into());
    }
    let costs = LayerCosts::from(&tr, &replay.counts);
    let counts = replay.counts.clone();
    let n = counts.intervals as f64;

    // Durability layer: the durable twin's own numbers, or — live
    // workloads — a short durable probe continuing from the replay's end.
    let mut probe_tr = Tracer::new();
    let (durable_costs, io_step, io_ckpt, io_intervals, io_ckpts) = if w.durable {
        (
            costs.clone(),
            counts.io_step,
            counts.io_checkpoint,
            n,
            counts.checkpoints,
        )
    } else {
        let (io, c) = counting_io();
        let mut probe = replay.into_durable_probe(
            &work.fresh("probe"),
            io,
            c,
            Cadence {
                k: THINNING,
                publish_every: 0,
                checkpoint_every: PROBE_CHECKPOINT_EVERY,
            },
        )?;
        for _ in 0..PROBE_INTERVALS {
            probe.interval(&mut probe_tr)?;
        }
        let pc = probe.counts.clone();
        (
            LayerCosts::from(&probe_tr, &pc),
            pc.io_step,
            pc.io_checkpoint,
            pc.intervals as f64,
            pc.checkpoints,
        )
    };

    // Accounting: layer self times against the untraced interval.
    let mut layers = costs.rows();
    if w.durable {
        layers.push(("durability.step", costs.durable_step_us));
        layers.push(("durability.checkpoint", costs.checkpoint_us));
    }
    let traced_sum: f64 = layers.iter().map(|(_, v)| v).sum();
    let unattributed = interval_us - traced_sum;
    let (untraced_wall, traced_wall) = (mean(&walls[0]), mean(&walls[1]));
    let overhead_pct = (traced_wall / untraced_wall - 1.0) * 100.0;
    println!("accounting: untraced interval {interval_us:.2} µs = layer self times + unattributed");
    for (name, v) in &layers {
        println!(
            "  {name:<28} {v:>12.2} µs  {:>6.2}%",
            v / interval_us * 100.0
        );
    }
    println!(
        "  {:<28} {unattributed:>12.2} µs  {:>6.2}%",
        "core.unattributed",
        unattributed / interval_us * 100.0
    );
    println!(
        "tracing: replayed interval {traced_wall:.2} µs traced vs {untraced_wall:.2} µs untraced ({overhead_pct:+.2}%, {}+{} blocks)",
        walls[1].len(),
        walls[0].len()
    );

    if !w.durable {
        delta_table(w, seeds, queries, &costs)?;
    }

    let spans = base_dir().join(format!("spans-{}.tsv", w.name));
    trace::write_tsv(&spans, &[("main", &tr), ("probe", &probe_tr)])
        .map_err(|e| format!("write {}: {e}", spans.display()))?;
    println!("spans: {}", spans.display());

    // Read layers.
    let st = tr.self_times();
    let mean_ms = |name: &str| st.get(name).map_or(0.0, |s| s.mean_us() / 1e3);

    report.add("mcmc.walk_us", costs.walk_us, "us");
    report.add(
        "mcmc.accept_ratio",
        counts.accepted as f64 / counts.proposals.max(1) as f64,
        "ratio",
    );
    report.add("relational.write_back_us", costs.write_back_us, "us");
    report.add(
        "relational.delta_rows",
        counts.delta_rows as f64 / n,
        "count",
    );
    for q in 0..4 {
        report.add(format!("view.apply_us.q{}", q + 1), costs.view_us[q], "us");
        report.add(
            format!("view.delta_rows.q{}", q + 1),
            counts.view_delta_rows[q] as f64 / n,
            "count",
        );
    }
    for q in 0..4 {
        report.add(
            format!("core.marginals_record_us.q{}", q + 1),
            costs.marginals_us[q],
            "us",
        );
        report.add(
            format!("core.answer_support.q{}", q + 1),
            counts.answer_support[q] as f64 / n,
            "count",
        );
    }
    report.add("core.publish_snapshot_ms", costs.snapshot_ms, "ms");
    report.add("core.publish_status_ms", costs.status_ms, "ms");
    report.add("core.publish_drop_ms", costs.drop_ms, "ms");
    report.add("core.unattributed_us", unattributed, "us");
    report.add("durability.step_us", durable_costs.durable_step_us, "us");
    report.add(
        "durability.checkpoint_ms",
        durable_costs.checkpoint_ms,
        "ms",
    );
    report.add(
        "io.bytes_per_interval",
        io_step.bytes as f64 / io_intervals.max(1.0),
        "bytes",
    );
    report.add(
        "io.writes_per_interval",
        io_step.writes as f64 / io_intervals.max(1.0),
        "count",
    );
    report.add(
        "io.fsyncs_per_interval",
        io_step.syncs as f64 / io_intervals.max(1.0),
        "count",
    );
    report.add(
        "io.checkpoint_bytes",
        io_ckpt.bytes as f64 / io_ckpts.max(1) as f64,
        "bytes",
    );
    report.add("relational.compile_ms", mean_ms("relational.compile"), "ms");
    report.add("relational.execute_ms", mean_ms("relational.execute"), "ms");
    report.add(
        "relational.tuples_scanned",
        reads.tuples_scanned as f64 / reads.sql_twins.max(1) as f64,
        "count",
    );
    report.add("serve.status_wire_ms", mean_ms("serve.status"), "ms");
    report.add("serve.sql_wire_ms", mean_ms("serve.sql"), "ms");
    for (name, v) in lat.figures() {
        report.add(name, v, "ms");
    }
    report.add("bench.gen_lag_p99_ms", percentile(&lags, 0.99), "ms");
    report.add("bench.interval_us", interval_us, "us");
    report.add("bench.trace_overhead_pct", overhead_pct, "%");
    Ok(())
}

/// The Δ-proportionality table (report only, no gate): each interval
/// layer's cost per interval at 10⁴ and at 10⁶ tokens, their ratio, and
/// the ratio per Δ row. A layer whose cost is O(|Δ|) stays flat per Δ
/// row; an O(|w|) layer grows with the store. This run's replay gives one
/// column; a companion replay at the other size, same seeds, the other.
fn delta_table(
    w: &Workload,
    seeds: &Seeds,
    queries: &[(String, String)],
    own: &LayerCosts,
) -> Result<(), String> {
    let small = workload::find("live_10k").ok_or("no live_10k workload")?;
    let large = workload::find("live_1m").ok_or("no live_1m workload")?;
    let other = if w.name == small.name { large } else { small };
    let companion = companion_costs(other, seeds, queries)?;
    let (c10k, c1m) = if w.name == small.name {
        (own, &companion)
    } else {
        (&companion, own)
    };
    // The two sizes' intervals carry different |Δ| (the 10⁶ store is
    // still burning in), so a layer is judged by its cost per Δ row.
    let rows_ratio = c1m.delta_rows / c10k.delta_rows;
    println!(
        "Δ-proportionality (report only): µs per interval at 10⁴ and 10⁶ tokens; |Δ| {:.1} vs {:.1} rows per interval ({} and {} intervals)",
        c10k.delta_rows, c1m.delta_rows, c10k.intervals, c1m.intervals
    );
    println!(
        "  {:<28} {:>12} {:>12} {:>9} {:>12}",
        "layer", "live_10k", "live_1m", "ratio", "per-Δ ratio"
    );
    for ((name, a), (_, b)) in c10k.rows().into_iter().zip(c1m.rows()) {
        let ratio = b / a;
        let per_row = ratio / rows_ratio;
        let flag = if per_row > 3.0 {
            "  <- not flat: grows with |w|"
        } else {
            ""
        };
        println!("  {name:<28} {a:>12.2} {b:>12.2} {ratio:>8.1}x {per_row:>11.1}x{flag}");
    }
    Ok(())
}

/// Replays `w`'s store size briefly (warm-up, then a recorded stretch)
/// and returns its per-interval layer costs.
fn companion_costs(
    w: &Workload,
    seeds: &Seeds,
    queries: &[(String, String)],
) -> Result<LayerCosts, String> {
    let setup = NerSetup::build(w.tokens, seeds.corpus);
    let cadence = Cadence {
        k: THINNING,
        publish_every: PUBLISH_EVERY as u64,
        checkpoint_every: 0,
    };
    let mut replay = Replay::from_start(&setup, seeds.chain, queries, cadence, None)?;
    let mut tr = Tracer::new();
    tr.set_enabled(false);
    let t0 = Instant::now();
    while t0.elapsed() < COMPANION_WARM {
        replay.interval(&mut tr)?;
    }
    tr.set_enabled(true);
    let t1 = Instant::now();
    while t1.elapsed() < COMPANION_MEASURE || replay.counts.intervals < 2 * PUBLISH_EVERY as u64 {
        replay.interval(&mut tr)?;
    }
    Ok(LayerCosts::from(&tr, &replay.counts))
}
