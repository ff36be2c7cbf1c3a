//! View-circuit delta-apply cost, plus recursive-closure curves.
//!
//! Two experiments:
//!
//! 1. **Paper queries** — µs per MCMC interval delta for the circuit
//!    maintaining each of the paper's four queries; after the timed stream
//!    every view must be error-free and equal to a full re-execution over
//!    the final world.
//! 2. **Δ-proportionality** — incrementally maintaining a recursive
//!    transitive closure costs Θ(|Δ| · affected paths) per batch while full
//!    re-execution pays for the whole closure every time (Eq. 6's argument,
//!    extended to fixpoints by semi-naive evaluation).
//!
//! Emits `BENCH_view_circuit.json` to the workspace root (redirect or
//! disable via `FGDB_JSON_OUT`). Panics when a maintained view errors or
//! diverges from re-execution.

use fgdb_bench::{print_table, scaled, Report};
use fgdb_relational::algebra::paper_queries;
use fgdb_relational::parser::parse_plan;
use fgdb_relational::planner::optimize;
use fgdb_relational::{
    execute, Database, DeltaSet, MaterializedView, Plan, Schema, Tuple, Value, ValueType,
};
use std::sync::Arc;
use std::time::Instant;

const LABELS: [&str; 4] = ["O", "B-PER", "B-ORG", "B-LOC"];

fn build_token_db(n: usize) -> Database {
    let schema = Schema::from_pairs(&[
        ("tok_id", ValueType::Int),
        ("doc_id", ValueType::Int),
        ("string", ValueType::Str),
        ("label", ValueType::Str),
        ("truth", ValueType::Str),
    ])
    .unwrap()
    .with_primary_key("tok_id")
    .unwrap();
    let mut db = Database::new();
    db.create_relation("TOKEN", schema).unwrap();
    let rel = db.relation_mut("TOKEN").unwrap();
    for i in 0..n {
        let label = LABELS[i % 4];
        let string = if i % 97 == 0 {
            "Boston".to_string()
        } else {
            format!("w{}", i % 500)
        };
        rel.insert(Tuple::new(vec![
            Value::Int(i as i64),
            Value::Int((i / 50) as i64),
            Value::str(string),
            Value::str(label),
            Value::str(label),
        ]))
        .unwrap();
    }
    db
}

/// One MCMC-shaped interval delta: `delta_size` relabels, coalesced.
fn make_delta(db: &mut Database, delta_size: usize, tick: &mut usize) -> DeltaSet {
    let mut deltas = DeltaSet::new();
    let name: Arc<str> = Arc::from("TOKEN");
    let rel = db.relation_mut("TOKEN").unwrap();
    let n = rel.len();
    for j in 0..delta_size {
        *tick += 1;
        let rid = rel
            .find_by_pk(&Value::Int(((*tick * 31 + j) % n) as i64))
            .unwrap();
        let new_label = LABELS[(*tick + j) % 4];
        let (old, new) = rel.update_field(rid, 3, Value::str(new_label)).unwrap();
        deltas.record_update(&name, old, new);
    }
    deltas
}

/// Times applying `deltas` in order on a fresh view over `db`, returning
/// µs per batch and the view after the stream.
fn time_apply(plan: &Plan, db: &Database, deltas: &[DeltaSet]) -> (f64, MaterializedView) {
    let mut view = MaterializedView::new(plan, db).expect("compile view");
    let t = Instant::now();
    for d in deltas {
        std::hint::black_box(view.apply_delta(d));
    }
    let us = t.elapsed().as_secs_f64() * 1e6 / deltas.len() as f64;
    assert!(
        view.error().is_none(),
        "maintenance errored: {:?}",
        view.error()
    );
    (us, view)
}

/// `chains` disjoint chains of `len` nodes each: LINK i→i+1 within a chain.
/// Node ids leave headroom so chains can grow during the experiment.
fn chain_db(chains: usize, len: usize, headroom: usize) -> Database {
    let schema = Schema::from_pairs(&[("src", ValueType::Int), ("dst", ValueType::Int)]).unwrap();
    let mut db = Database::new();
    db.create_relation("LINK", schema).unwrap();
    let stride = (len + headroom) as i64;
    let rel = db.relation_mut("LINK").unwrap();
    for c in 0..chains as i64 {
        for i in 0..(len as i64 - 1) {
            rel.insert(Tuple::new(vec![
                Value::Int(c * stride + i),
                Value::Int(c * stride + i + 1),
            ]))
            .unwrap();
        }
    }
    db
}

fn main() {
    let mut report = Report::new(
        "view_circuit",
        &[
            "section",
            "name",
            "delta_size",
            "circuit_us_per_batch",
            "reexec_us_per_batch",
        ],
    );

    // --------------------------------------------------- paper queries --
    let n = scaled(20_000);
    let rounds = scaled(300).max(20);
    let delta_size = 16;
    report
        .param("db_rows", n)
        .param("rounds", rounds)
        .param("delta_size", delta_size);

    let mut table = Vec::new();
    for (qname, plan) in [
        ("query1_select_project", paper_queries::query1("TOKEN")),
        ("query2_distinct", paper_queries::query2("TOKEN")),
        ("query3_grouped_counts", paper_queries::query3("TOKEN")),
        ("query4_self_join", paper_queries::query4("TOKEN")),
    ] {
        // Pre-produce the delta stream once, then replay it against a fresh
        // copy of the same (deterministic) initial database.
        let mut db = build_token_db(n);
        let mut tick = 0usize;
        let deltas: Vec<DeltaSet> = (0..rounds)
            .map(|_| make_delta(&mut db, delta_size, &mut tick))
            .collect();
        let db0 = build_token_db(n);
        // Warm-up pass (page in the plan state), then the timed pass.
        let _ = time_apply(&plan, &db0, &deltas[..deltas.len().min(8)]);
        let (circuit_us, view) = time_apply(&plan, &db0, &deltas);
        let fresh = execute(&plan, &db).expect("full re-exec").0;
        assert_eq!(
            view.result().sorted_entries(),
            fresh.rows.sorted_entries(),
            "{qname}: maintained view diverged from re-execution"
        );

        table.push(vec![qname.to_string(), format!("{circuit_us:.2}")]);
        report.row(vec![
            "paper_queries".into(),
            qname.into(),
            delta_size.to_string(),
            format!("{circuit_us:.3}"),
            String::new(),
        ]);
    }
    print_table(
        &format!("circuit delta-apply ({n} rows, |Δ|={delta_size}, {rounds} intervals)"),
        &["query", "circuit µs"],
        &table,
    );

    // ------------------------------------- recursive closure: Δ vs re-exec --
    // Chain length is clamped: the *re-exec* baseline is quadratic in it
    // (iterated-naive fixpoint), so letting it scale freely makes the bench
    // measure the oracle, not the circuit.
    let chains = 8;
    let len = scaled(24).clamp(8, 24);
    let batches = 6;
    let closure_sql = "WITH RECURSIVE R (a, b) AS \
        (SELECT src, dst FROM LINK \
         UNION SELECT r.a, l.dst FROM R r JOIN LINK l ON r.b = l.src) \
        SELECT * FROM R";
    report
        .param("closure_chains", chains)
        .param("closure_chain_len", len)
        .param("closure_batches", batches);

    let naive = parse_plan(closure_sql).expect("closure SQL parses");
    let mut table = Vec::new();
    for batch_edges in [1usize, 2, 4, 8, 16] {
        let headroom = batches * batch_edges + 1;
        let mut db = chain_db(chains, len, headroom);
        let opt = optimize(&naive, &db).expect("closure plan optimizes");
        let mut view = MaterializedView::new(&opt, &db).expect("closure circuit compiles");
        let name: Arc<str> = Arc::from("LINK");
        let stride = (len + headroom) as i64;
        let mut tips: Vec<i64> = (0..chains as i64)
            .map(|c| c * stride + len as i64 - 1)
            .collect();

        let mut circuit_us = 0.0;
        let mut reexec_us = 0.0;
        for b in 0..batches {
            // Extend chains round-robin by `batch_edges` fresh edges.
            let mut deltas = DeltaSet::new();
            {
                let rel = db.relation_mut("LINK").unwrap();
                for e in 0..batch_edges {
                    let c = (b * batch_edges + e) % chains;
                    let t = Tuple::new(vec![Value::Int(tips[c]), Value::Int(tips[c] + 1)]);
                    tips[c] += 1;
                    rel.insert(t.clone()).unwrap();
                    deltas.record_insert(&name, t);
                }
            }
            let t = Instant::now();
            view.try_apply_delta(&deltas).expect("closure maintenance");
            circuit_us += t.elapsed().as_secs_f64() * 1e6;

            let t = Instant::now();
            std::hint::black_box(execute(&opt, &db).expect("full re-exec"));
            reexec_us += t.elapsed().as_secs_f64() * 1e6;
        }
        circuit_us /= batches as f64;
        reexec_us /= batches as f64;

        table.push(vec![
            batch_edges.to_string(),
            format!("{circuit_us:.1}"),
            format!("{reexec_us:.1}"),
            format!("{:.0}x", reexec_us / circuit_us.max(1e-9)),
        ]);
        report.row(vec![
            "closure".into(),
            "transitive_closure".into(),
            batch_edges.to_string(),
            format!("{circuit_us:.3}"),
            format!("{reexec_us:.3}"),
        ]);
    }
    print_table(
        &format!("recursive closure: incremental vs re-exec ({chains} chains × {len} nodes)"),
        &["|Δ| edges", "circuit µs", "re-exec µs", "speedup"],
        &table,
    );

    if let Some(path) = report.write_if_configured() {
        println!("\nwrote {}", path.display());
    }
}
