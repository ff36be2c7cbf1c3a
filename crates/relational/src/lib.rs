#![warn(missing_docs)]
//! # fgdb-relational — the deterministic relational substrate
//!
//! This crate is the "underlying relational database" of Wick, McCallum &
//! Miklau, *Scalable Probabilistic Databases with Factor Graphs and MCMC*
//! (VLDB 2010): an in-memory DBMS that always stores **one possible world**
//! and therefore evaluates arbitrary relational algebra directly.
//!
//! Layers:
//!
//! * [`value`] / [`schema`] / [`mod@tuple`] — typed rows;
//! * [`storage`] / [`database`] — slotted heap relations with primary-key and
//!   optional secondary indexes, field-granular updates that return pre/post
//!   images (the MCMC write path);
//! * [`expr`] / [`algebra`] — predicates and plans (σ, π, ×, ⋈, γ, δ),
//!   including [`algebra::paper_queries`], the four evaluation queries of §5;
//! * [`parser`] / [`planner`] — the SQL text frontend
//!   ([`parser::paper_sql`] carries the §5 queries as text) and the rule- +
//!   cost-based optimizer (pushdown, product→join rewrite, projection
//!   pruning, cardinality-driven join ordering) that turn a query string
//!   into an executable plan ([`planner::compile_query`]);
//! * [`exec`] — full from-scratch execution with work accounting (what the
//!   *naive* sampling evaluator pays per sample);
//! * [`counted`] / [`delta`] / [`view`] / [`circuit`] — counted multisets,
//!   Δ⁻/Δ⁺ auxiliary tables, and incrementally maintained materialized views
//!   compiled to operator circuits (Eq. 6 / Algorithm 1 of the paper — the
//!   headline systems contribution).

pub mod algebra;
pub mod circuit;
pub mod counted;
pub mod database;
pub mod delta;
pub mod exec;
pub mod expr;
pub mod fasthash;
pub mod parser;
pub mod planner;
pub mod schema;
pub mod storage;
pub mod tuple;
pub mod value;
pub mod view;

pub use algebra::{AggExpr, AggFunc, Plan, PlanError, DEFAULT_FIXPOINT_CAP};
pub use circuit::{CircuitError, CircuitStats};
pub use counted::{CountedSet, NegativeWeight};
pub use database::{CatalogError, Database};
pub use delta::DeltaSet;
pub use exec::{execute, execute_simple, ExecError, ExecStats, QueryResult};
pub use expr::{BoundExpr, CmpOp, Expr};
pub use fasthash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher, TupleMap};
pub use parser::{parse, parse_plan, ParseError, SqlQuery};
pub use planner::{compile_query, optimize, PlannerReport, QueryError};
pub use schema::{Column, Schema, SchemaError};
pub use storage::{Relation, RelationBuilder, RowId, StorageError};
pub use tuple::Tuple;
pub use value::{Interner, Value, ValueType, F64};
pub use view::MaterializedView;

/// Z-set (abelian group) laws of [`CountedSet`] with signed weights: the
/// algebra the circuit's Δ⁻/Δ⁺ batches rely on.
#[cfg(test)]
mod zset {
    mod tests {
        use crate::{tuple, CountedSet};

        #[test]
        fn weights_coalesce_to_zero_means_absent() {
            let mut z = CountedSet::new();
            z.add(tuple!["a"], 3);
            z.add(tuple!["a"], -3);
            assert!(z.is_empty());
            assert_eq!(z.count(&tuple!["a"]), 0);
            assert_eq!(z.distinct_len(), 0);
        }

        #[test]
        fn zero_weight_add_is_noop() {
            let mut z = CountedSet::new();
            z.add(tuple!["a"], 0);
            assert!(z.is_empty());
        }

        #[test]
        fn negated_is_group_inverse() {
            let z = CountedSet::from_entries(vec![(tuple!["a"], 2), (tuple!["b"], -1)]);
            let mut sum = z.clone();
            sum.merge(&z.negated());
            assert!(sum.is_empty());
        }

        #[test]
        fn merge_owned_fast_path() {
            let mut a = CountedSet::new();
            a.merge_owned(CountedSet::from_entries(vec![(tuple!["x"], 1)]));
            assert_eq!(a.count(&tuple!["x"]), 1);
            a.merge_owned(CountedSet::from_entries(vec![(tuple!["x"], 1)]));
            assert_eq!(a.count(&tuple!["x"]), 2);
        }

        #[test]
        fn support_and_totals() {
            let z = CountedSet::from_entries(vec![(tuple!["p"], 2), (tuple!["n"], -3)]);
            assert_eq!(z.sorted_support(), vec![tuple!["p"]]);
            assert_eq!(z.total(), -1);
            assert!(z.check_is_state().is_some());
            assert!(z.contains(&tuple!["p"]));
            assert!(!z.contains(&tuple!["n"]));
        }
    }
}
