//! The open-loop read generator: one thread, one connection, a fixed
//! (seeded) schedule. Each read is timed from when it was due, so a stall also
//! delays the reads queued behind it; how late the generator ran is
//! recorded per read.

use crate::workload::{splitmix, Workload};
use fgdb_serve::{Client, ClientError};
use std::time::{Duration, Instant};

/// What a read asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `STATUS` of a registered query: its maintained answer and marginals.
    Status,
    /// Ad-hoc SQL (a paper query) against the freshest epoch.
    Sql,
}

/// One scheduled read.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// When it is due, from the start of the window.
    pub due: Duration,
    /// What it asks for.
    pub kind: Kind,
    /// Which paper query (index into the registered queries).
    pub query: usize,
}

/// The outcome of one read.
#[derive(Clone, Copy, Debug)]
pub struct Read {
    /// What it asked for.
    pub kind: Kind,
    /// Which paper query.
    pub query: usize,
    /// How late it was sent, in ms.
    pub lag_ms: f64,
    /// From due time to answer, in ms; +inf when it failed or was refused.
    pub latency_ms: f64,
    /// Answered without error.
    pub ok: bool,
    /// When it was sent.
    pub sent: Instant,
    /// When its answer arrived (or it failed).
    pub done: Instant,
}

/// The fixed schedule of a window of `seconds`: each kind arrives as a
/// Poisson stream at its rate (seeded exponential gaps, so every run
/// sees the whole range of STATUS/SQL alignments rather than one fixed
/// phase), its queries in rotation from a seeded start.
pub fn schedule(w: &Workload, seconds: f64, seed: u64) -> Vec<Event> {
    let mut events = Vec::new();
    let mut s = seed;
    for (kind, rate) in [(Kind::Status, w.status_per_s), (Kind::Sql, w.sql_per_s)] {
        if rate <= 0.0 {
            continue;
        }
        s = splitmix(s);
        let first = (s % 4) as usize;
        let mut t = 0.0;
        for i in 0usize.. {
            s = splitmix(s);
            // Uniform in (0, 1], then an exponential gap of mean 1/rate.
            let u = ((s >> 11) + 1) as f64 / (1u64 << 53) as f64;
            t += -u.ln() / rate;
            if t >= seconds {
                break;
            }
            events.push(Event {
                due: Duration::from_secs_f64(t),
                kind,
                query: (first + i) % 4,
            });
        }
    }
    events.sort_by_key(|e| e.due);
    events
}

/// Sends one read and waits for its answer.
pub fn issue(client: &mut Client, kind: Kind, name: &str, sql: &str) -> Result<(), ClientError> {
    match kind {
        Kind::Status => client.status(name).map(|_| ()),
        Kind::Sql => client.query(sql).map(|_| ()),
    }
}

/// Runs `events` against `client` from `start`. Reads still unsent at
/// `give_up` are counted as failed without being sent, so an overloaded
/// server cannot stretch the run without bound. `after` sees every read
/// right after it completes (the traced run attaches its in-process twin
/// timings there); `on_tick` runs at each of `ticks` (sub-window
/// boundaries), between reads.
#[allow(clippy::too_many_arguments)]
pub fn run_open_loop(
    client: &mut Client,
    queries: &[(String, String)],
    events: &[Event],
    start: Instant,
    give_up: Instant,
    ticks: &[Instant],
    mut on_tick: impl FnMut(),
    mut after: impl FnMut(&Read),
) -> Vec<Read> {
    let mut reads = Vec::with_capacity(events.len());
    let mut ticks = ticks.iter().peekable();
    let mut wait_ticks = |until: Instant| {
        while let Some(&&tick) = ticks.peek() {
            if tick > until {
                break;
            }
            sleep_until(tick);
            on_tick();
            ticks.next();
        }
    };
    for ev in events {
        let due = start + ev.due;
        wait_ticks(due);
        let now = Instant::now();
        if now >= give_up {
            reads.push(Read {
                kind: ev.kind,
                query: ev.query,
                lag_ms: ms(now.saturating_duration_since(due)),
                latency_ms: f64::INFINITY,
                ok: false,
                sent: now,
                done: now,
            });
            continue;
        }
        sleep_until(due);
        let sent = Instant::now();
        let (name, sql) = &queries[ev.query];
        let result = issue(client, ev.kind, name, sql);
        let done = Instant::now();
        let ok = result.is_ok();
        if let Err(e) = &result {
            eprintln!("read failed: {e}");
            if !matches!(e, ClientError::Unavailable { .. } | ClientError::Server(_)) {
                // A transport error may leave half a frame on the stream.
                let _ = client.reconnect();
            }
        }
        let read = Read {
            kind: ev.kind,
            query: ev.query,
            lag_ms: ms(sent.saturating_duration_since(due)),
            latency_ms: if ok {
                ms(done.saturating_duration_since(due))
            } else {
                f64::INFINITY
            },
            ok,
            sent,
            done,
        };
        after(&read);
        reads.push(read);
    }
    wait_ticks(give_up);
    reads
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if now < t {
        std::thread::sleep(t - now);
    }
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
